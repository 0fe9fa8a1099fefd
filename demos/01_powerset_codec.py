"""The powerset class space: speaker subsets as classes.
====================================================

A segmentation model that tracks K speakers and up to two simultaneous
voices classifies each frame into one of 1 + K + K*(K-1)/2 classes:
silence, each single speaker, each speaker pair. This script walks the
codec between class indices and the sets of active speakers:
``space.index`` and its inverse ``space.members``.
"""

import numpy as np

from diarsep import build_space, decode_frames

# -- the classes ------------------------------------------------------------

space = build_space(3)
print(f"K=3 speakers -> {space.n_classes} classes:")
for idx in range(space.n_classes):
    label = " + ".join(f"speaker {m}" for m in space.members(idx)) or "silence"
    print(f"  class {idx}: {label}")

# -- encoding activity vectors ----------------------------------------------

print()
for bits in ([0, 0, 0], [0, 1, 0], [1, 0, 1]):
    active = [slot for slot, bit in enumerate(bits) if bit]
    print(f"activity {bits} -> active slots {active} -> class {space.index(active)}")

# Vectors with more than two active speakers are not classes; they project to
# the nearest class by Hamming distance, lowest index on ties, which is the
# pair of their first two active speakers. index reads only the first two
# slots of its list, so it makes that projection:
print(f"activity [1, 1, 1] -> class {space.index([0, 1, 2])} "
      f"(= subset {space.members(space.index([0, 1, 2]))})")

# -- members is the exact inverse of index on valid classes ------------------

print()
for idx in range(space.n_classes):
    assert space.index(space.members(idx)) == idx
print("members -> index is the identity on all classes")

# -- per-frame decoding of score matrices ------------------------------------

rng = np.random.default_rng(0)
scores = rng.standard_normal((6, space.n_classes))
activity = decode_frames(space, scores)
print("\nrandom 6-frame score matrix decodes to (rows sum to at most 2):")
print(activity)
