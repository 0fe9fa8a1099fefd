"""From local 10 s windows to a file-level diarization.
====================================================

A local segmenter emits per-chunk speaker activity, but its speaker slots
carry no identity across chunks. The pipeline pools an embedding per
(chunk, slot) from single-speaker frames, clusters the embeddings, and
stitches the relabeled chunks into one annotation. Here the chunks and
embeddings are constructed, so the output can be checked exactly.
"""

import math

import numpy as np

from diarsep import (
    Annotation,
    ChunkSegmentation,
    FeatureMatrix,
    compute_der,
    diarize_file,
    emit_rttm,
)

FRAME_RATE = 50.0
TOTAL = 20.0
WINDOW, HOP = 10.0, 5.0
TRUTH = {"alice": (0.0, 8.0), "bob": (12.0, 18.0)}
VECTORS = {"alice": np.array([1.0, 0, 0, 0], np.float32), "bob": np.array([0, 1.0, 0, 0], np.float32)}

# -- build per-chunk activities and features from the ground truth ------------

# as in a chunk tensor: every chunk spans WINDOW seconds and chunk ci starts at ci * HOP
layout = [(ci * HOP, WINDOW) for ci in range(math.ceil((TOTAL - WINDOW) / HOP) + 1)]
print("chunk layout:", layout)

chunks, feats = [], []
for onset, duration in layout:
    n = int(round(duration * FRAME_RATE))
    activity = np.zeros((n, 2), np.int8)
    features = np.zeros((n, 4), np.float32)
    slot = 0
    for name, (t0, t1) in TRUTH.items():
        f0 = int(round(max(t0 - onset, 0.0) * FRAME_RATE))
        f1 = int(round(min(t1 - onset, duration) * FRAME_RATE))
        if f1 > f0:
            activity[f0:f1, slot] = 1
            features[f0:f1] = VECTORS[name]
            slot += 1
    chunks.append(ChunkSegmentation(onset, FRAME_RATE, activity))
    feats.append(FeatureMatrix(features, FRAME_RATE))

# -- run the pipeline -----------------------------------------------------------

hypothesis = diarize_file(chunks, feats, uri="meeting", ahc_threshold=0.5)
print("\npipeline output as RTTM:")
print(emit_rttm(hypothesis), end="")

reference = Annotation("meeting", ((0.0, 8.0, "alice"), (12.0, 6.0, "bob")))
report = compute_der(reference, hypothesis)
print(f"\nDER vs construction: {report.der_pct:.3f}%  (mapping {report.mapping})")

# -- what a too-permissive clustering threshold costs ---------------------------

merged = diarize_file(chunks, feats, uri="meeting", ahc_threshold=2.0)
merged_report = compute_der(reference, merged)
print(f"\nmerge-everything threshold -> {len(merged.speakers())} speaker, "
      f"DER {merged_report.der_pct:.3f}% "
      f"(= the minority speaker's 6 s of 14 s as confusion)")
