"""Speaker-subset class space: bijective subset <-> index codec and frame decoding.

Classes are ordered as the empty set, then singletons in speaker order, then
speaker pairs in lexicographic order; speaker slots are 0-based.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .features import check_finite


@dataclass(frozen=True)
class PowersetSpace:
    max_speakers: int
    classes: tuple[tuple[int, ...], ...]

    @cached_property
    def class_matrix(self) -> np.ndarray:
        """(n_classes, max_speakers) 0/1 indicator matrix of the class subsets."""
        matrix = np.zeros((len(self.classes), self.max_speakers), dtype=np.int8)
        for idx, members in enumerate(self.classes):
            matrix[idx, list(members)] = 1
        return matrix

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def build_space(max_speakers: int) -> PowersetSpace:
    """Build the class catalog for up to ``max_speakers`` tracked speakers."""
    if max_speakers < 1:
        raise ValueError(f"max_speakers must be >= 1, got {max_speakers}")
    classes: list[tuple[int, ...]] = [()]
    classes.extend((k,) for k in range(max_speakers))
    classes.extend(itertools.combinations(range(max_speakers), 2))
    return PowersetSpace(max_speakers, tuple(classes))


def encode_label(space: PowersetSpace, multilabel) -> int:
    """Map a K-bit activity vector to its class index.

    Vectors whose active set is not a class (more than two active speakers)
    project to the class at minimum Hamming distance, ties broken by the
    lowest class index.
    """
    vec = np.asarray(multilabel).reshape(-1)
    if vec.size != space.max_speakers:
        raise ValueError(f"expected a vector of length {space.max_speakers}, got {vec.size}")
    active = (vec != 0).astype(np.int8)
    distances = np.abs(space.class_matrix - active).sum(axis=1)
    return int(np.argmin(distances))


def decode_class(space: PowersetSpace, index: int) -> np.ndarray:
    """Return the K-bit indicator vector of class ``index``, without building ``class_matrix``."""
    if not 0 <= index < space.n_classes:
        raise ValueError(f"class index {index} out of range [0, {space.n_classes})")
    vector = np.zeros(space.max_speakers, dtype=np.int8)
    vector[list(space.classes[index])] = 1
    return vector


def decode_frames(space: PowersetSpace, scores) -> np.ndarray:
    """Decode a (T, n_classes) score matrix into (T, K) binary speaker activity.

    Per frame: argmax over classes (ties resolve to the lowest class index),
    then the class indicator vector.
    """
    mat = np.asarray(scores, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != space.n_classes:
        raise ValueError(f"expected scores of shape (T, {space.n_classes}), got {mat.shape}")
    check_finite(mat, "scores")
    best = np.argmax(mat, axis=1)
    return space.class_matrix[best]
