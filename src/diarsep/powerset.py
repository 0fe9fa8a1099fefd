"""Speaker-subset class space: a closed-form subset <-> index codec and frame decoding.

Classes are ordered as the empty set, then singletons in speaker order, then
speaker pairs in lexicographic order; speaker slots are 0-based. Indices are
computed from that ordering, so nothing is stored per class. Only
``decode_frames`` loads numpy, as it runs, so the codec alone loads none.
"""

import math
import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class PowersetSpace:
    max_speakers: int

    def __post_init__(self):
        if self.max_speakers < 1:
            raise ValueError(f"max_speakers must be >= 1, got {self.max_speakers}")

    @property
    def n_classes(self) -> int:
        k = self.max_speakers
        return 1 + k + k * (k - 1) // 2

    def index(self, active) -> int:
        """Class index of an ascending list of active speaker slots.

        Only the first two entries are read, so a longer list indexes the
        pair of its two lowest slots.
        """
        k = self.max_speakers
        if len(active) >= 2:
            i, j = active[0], active[1]
            if not 0 <= i < j < k:
                raise ValueError(f"expected ascending speaker slots in [0, {k}), got {i}, {j}")
            # the pairs led by 0 .. i-1 come first: (K-1) + (K-2) + ... + (K-i) of them
            return 1 + k + i * (2 * k - i - 1) // 2 + (j - i - 1)
        if len(active) == 1:
            if not 0 <= active[0] < k:
                raise ValueError(f"expected a speaker slot in [0, {k}), got {active[0]}")
            return 1 + active[0]
        return 0

    def members(self, index) -> tuple[int, ...]:
        """The ascending speaker slots of class ``index``, the inverse of ``index``."""
        index = operator.index(index)
        k = self.max_speakers
        if not 0 <= index < self.n_classes:
            raise ValueError(f"class index {index} out of range [0, {self.n_classes})")
        if index <= k:
            return () if index == 0 else (index - 1,)
        # counted from the last pair, the pairs led by i are the T(n-1) .. T(n) - 1
        # for n = K-1-i, where T(n) = n(n+1)/2 is the n-th triangular number
        from_end = self.n_classes - 1 - index
        i = k - 2 - (math.isqrt(8 * from_end + 1) - 1) // 2
        j = index - (1 + k + i * (2 * k - i - 1) // 2) + i + 1
        return (i, j)


def build_space(max_speakers: int) -> PowersetSpace:
    """The class space of up to ``max_speakers`` tracked speakers."""
    return PowersetSpace(max_speakers)


def decode_frames(space: PowersetSpace, scores):
    """Decode a (T, n_classes) score matrix into (T, K) int8 binary speaker activity.

    Per frame: argmax over classes (ties resolve to the lowest class index),
    then the class's ``members`` set to 1. Only the classes some frame takes
    are decoded, so beyond the argmax the work and memory do not grow with
    n_classes.
    """
    import numpy as np

    from .features import check_finite

    mat = np.asarray(scores, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != space.n_classes:
        raise ValueError(f"expected scores of shape (T, {space.n_classes}), got {mat.shape}")
    check_finite(mat, "scores")
    labels = np.argmax(mat, axis=1)
    classes = sorted(set(labels.tolist()))  # not np.unique, which would load numpy.ma
    table = np.zeros((len(classes), space.max_speakers), np.int8)
    for row, index in zip(table, classes):
        row[list(space.members(index))] = 1
    return table[np.searchsorted(classes, labels)]
