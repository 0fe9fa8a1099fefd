"""Global diarization around a pluggable local segmenter.

Sliding chunks, single-speaker runs, embedding pooling, agglomerative
clustering and stitching of local windows into one file-level annotation.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .annotation import Annotation, Segment
from .features import FeatureMatrix

DEFAULT_WINDOW = 10.0
DEFAULT_HOP = 5.0
DEFAULT_MIN_SEG = 0.25
DEFAULT_AHC_THRESHOLD = 0.5


@dataclass(frozen=True)
class ChunkSegmentation:
    """Local segmenter output: binary (T, K_local) activity plus chunk placement."""

    onset: float
    frame_rate: float
    activity: np.ndarray

    def __post_init__(self):
        activity = np.asarray(self.activity)
        if activity.ndim != 2:
            raise ValueError(f"activity must be (n_frames, n_slots), got {activity.shape}")
        if not np.isin(activity, (0, 1)).all():
            raise ValueError("activity must be binary")
        activity = activity.astype(np.int8)
        if activity.size and activity.sum(axis=1).max() > 2:
            raise ValueError("at most 2 speakers may be active per frame")
        if not (math.isfinite(self.onset) and self.onset >= 0):
            raise ValueError(f"onset must be finite and >= 0, got {self.onset}")
        if not (math.isfinite(self.frame_rate) and self.frame_rate > 0):
            raise ValueError(f"frame_rate must be positive, got {self.frame_rate}")
        object.__setattr__(self, "activity", activity)
        object.__setattr__(self, "onset", float(self.onset))
        object.__setattr__(self, "frame_rate", float(self.frame_rate))

    @property
    def n_frames(self) -> int:
        return self.activity.shape[0]

    @property
    def n_slots(self) -> int:
        return self.activity.shape[1]


class Embedding(NamedTuple):
    vector: np.ndarray
    source: tuple[int, int]  # (chunk index, local slot)


def check_hop(window: float, hop: float) -> None:
    """Raise ValueError unless 0 < hop <= window, so chunks tile without gaps."""
    if not 0 < hop <= window:
        raise ValueError(f"hop must satisfy 0 < hop <= window, got hop={hop} window={window}")


def _check_threshold(threshold: float) -> None:
    if math.isnan(threshold):
        raise ValueError("AHC threshold must be a number, got nan")


def _check_min_duration(min_duration: float) -> None:
    if not math.isfinite(min_duration):
        raise ValueError(f"minimum single-speaker run must be finite, got {min_duration}")


def slide_chunks(total_duration: float, window: float = DEFAULT_WINDOW, hop: float = DEFAULT_HOP):
    """Chunk onsets/durations covering [0, total_duration].

    A file no longer than one window yields a single chunk; otherwise onsets
    advance by ``hop`` and trailing chunks shrink to fit.
    """
    check_hop(window, hop)
    if total_duration < 0:
        raise ValueError(f"total_duration must be >= 0, got {total_duration}")
    if total_duration == 0:
        return []
    if total_duration <= window:
        return [(0.0, float(total_duration))]
    chunks = []
    k = 0
    while k * hop < total_duration:
        onset = k * hop
        chunks.append((onset, min(window, total_duration - onset)))
        k += 1
    return chunks


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, end) index runs where a boolean mask is true."""
    padded = np.concatenate([[0], mask.astype(np.int8), [0]])
    edges = np.flatnonzero(np.diff(padded))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _solo_runs(chunk: ChunkSegmentation) -> list[list[tuple[int, int]]]:
    """Per local slot, the maximal frame runs where that slot is the only active speaker."""
    solo = chunk.activity.sum(axis=1) == 1
    return [_runs((chunk.activity[:, slot] == 1) & solo) for slot in range(chunk.n_slots)]


def single_speaker_segments(
    chunk: ChunkSegmentation, min_duration: float = DEFAULT_MIN_SEG
) -> list[tuple[float, float, int]]:
    """Maximal runs where exactly one local speaker is active, in absolute seconds.

    Returns (onset_s, duration_s, slot) tuples, slot-major then time-ordered,
    keeping runs of at least ``min_duration`` seconds (finite).
    """
    _check_min_duration(min_duration)
    out = []
    for slot, runs in enumerate(_solo_runs(chunk)):
        for start, end in runs:
            duration = (end - start) / chunk.frame_rate
            if duration >= min_duration:
                out.append((chunk.onset + start / chunk.frame_rate, duration, slot))
    return out


def ahc_cluster(embeddings, threshold: float) -> list[int]:
    """Average-linkage agglomerative clustering on cosine distance.

    Merges cluster pairs while their linkage stays within ``threshold`` (a cut
    of scipy's average-linkage tree; with exactly equal linkages, which pair
    merges first is up to scipy's NN-chain order); labels are 0-based in order
    of first member appearance.
    """
    _check_threshold(threshold)
    # imported here, not at module level: only diarize clusters
    from scipy.cluster.hierarchy import fcluster, linkage

    vectors = np.asarray([np.asarray(e, dtype=np.float64).reshape(-1) for e in embeddings])
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("need at least one embedding")
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding")
    if vectors.shape[0] == 1:
        return [0]
    unit = vectors / norms[:, None]
    # rounding leaves duplicates near -1e-16, and fcluster rejects negative heights
    distances = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
    tree = linkage(distances[np.triu_indices(len(unit), 1)], method="average")
    clusters = fcluster(tree, threshold, criterion="distance").tolist()
    relabel: dict[int, int] = {}
    return [relabel.setdefault(c, len(relabel)) for c in clusters]


def stitch(
    chunks: list[ChunkSegmentation],
    assignment: dict[tuple[int, int], str],
    frame_rate: float,
    total_duration: float,
    uri: str = "file",
) -> Annotation:
    """Fuse per-chunk activities into one annotation on a file-level frame grid.

    Per global speaker, every chunk covering a frame votes with its local
    activity (0 when the speaker has no slot there); frames with mean vote
    >= 0.5 are active. Maximal active runs become segments. Every active
    (chunk, slot) pair must appear in ``assignment``.
    """
    n_frames = max(1, math.ceil(total_duration * frame_rate - 1e-9))
    starts = []
    for ci, chunk in enumerate(chunks):
        start = round(chunk.onset * frame_rate)
        starts.append(start)
        n_frames = max(n_frames, start + chunk.n_frames)

    labels = sorted(set(assignment.values()))
    votes = {label: np.zeros(n_frames, dtype=np.int64) for label in labels}
    coverage = np.zeros(n_frames, dtype=np.int64)
    for ci, chunk in enumerate(chunks):
        start = starts[ci]
        coverage[start : start + chunk.n_frames] += 1
        chunk_votes: dict[str, np.ndarray] = {}
        for slot in range(chunk.n_slots):
            column = chunk.activity[:, slot]
            if not column.any():
                continue
            label = assignment.get((ci, slot))
            if label is None:
                raise ValueError(f"missing assignment for active slot {slot} of chunk {ci}")
            # slots merged onto one label vote as their union: one chunk, one vote
            if label in chunk_votes:
                chunk_votes[label] = np.maximum(chunk_votes[label], column)
            else:
                chunk_votes[label] = column
        for label, column in chunk_votes.items():
            votes[label][start : start + chunk.n_frames] += column

    segments = []
    for label in labels:
        # integer comparison: mean >= 0.5 without float ties
        active = (2 * votes[label] >= coverage) & (coverage > 0)
        for f0, f1 in _runs(active):
            onset, end = f0 / frame_rate, f1 / frame_rate
            segments.append(Segment(onset, end - onset, label))

    segments.sort(key=lambda s: (s.onset, s.speaker))
    return Annotation(uri, tuple(segments))


def pooled_embeddings(
    chunks: list[ChunkSegmentation],
    features: list[FeatureMatrix],
    min_seg: float = DEFAULT_MIN_SEG,
) -> list[Embedding]:
    """One embedding per active (chunk, slot): mean-pooled, L2-normalized feature frames.

    Frames come from single-speaker runs of at least ``min_seg`` seconds,
    falling back to all single-speaker frames, then to all active frames, so
    every active slot yields an embedding. ``min_seg`` must be finite.
    """
    _check_min_duration(min_seg)
    if len(chunks) != len(features):
        raise ValueError(f"got {len(chunks)} chunks but {len(features)} feature matrices")
    out = []
    for ci, (chunk, feats) in enumerate(zip(chunks, features)):
        min_frames = max(1, math.ceil(min_seg * chunk.frame_rate - 1e-9))
        for slot, runs in enumerate(_solo_runs(chunk)):
            column = chunk.activity[:, slot] == 1
            if not column.any():
                continue
            long_runs = [(f0, f1) for f0, f1 in runs if f1 - f0 >= min_frames]
            chosen = long_runs or runs
            if chosen:
                frames = np.concatenate([np.arange(f0, f1) for f0, f1 in chosen])
            else:
                frames = np.flatnonzero(column)
            rows = np.minimum(
                (frames * feats.n_frames) // chunk.n_frames, feats.n_frames - 1
            )
            vector = feats.data[rows].astype(np.float64).mean(axis=0)
            norm = np.linalg.norm(vector)
            if norm == 0:
                raise ValueError(f"zero embedding for chunk {ci} slot {slot}")
            out.append(Embedding(vector / norm, (ci, slot)))
    return out


def diarize_file(
    chunks: list[ChunkSegmentation],
    features: list[FeatureMatrix] | None = None,
    *,
    embeddings: dict[tuple[int, int], np.ndarray] | None = None,
    uri: str = "file",
    min_seg: float = DEFAULT_MIN_SEG,
    ahc_threshold: float = DEFAULT_AHC_THRESHOLD,
    total_duration: float | None = None,
) -> Annotation:
    """Full pipeline: embeddings -> clustering -> global labels -> stitched annotation.

    Embeddings come either from a provided (chunk, slot) -> vector map or from
    mean-pooling the per-chunk feature matrices. Deterministic for fixed
    inputs; chunk labels are spk0, spk1, ... in order of first appearance.
    A NaN ``ahc_threshold`` or a non-finite ``min_seg`` is rejected even when
    nothing is left to cluster.
    """
    _check_threshold(ahc_threshold)
    _check_min_duration(min_seg)
    if not chunks:
        return Annotation(uri, ())
    rates = {chunk.frame_rate for chunk in chunks}
    if len(rates) != 1:
        raise ValueError(f"chunks disagree on frame rate: {sorted(rates)}")
    frame_rate = rates.pop()

    if embeddings is not None:
        vectors = []
        for ci, chunk in enumerate(chunks):
            for slot in range(chunk.n_slots):
                if not chunk.activity[:, slot].any():
                    continue
                if (ci, slot) not in embeddings:
                    raise ValueError(f"no embedding provided for chunk {ci} slot {slot}")
                vectors.append(Embedding(np.asarray(embeddings[(ci, slot)], dtype=np.float64), (ci, slot)))
    else:
        if features is None:
            raise ValueError("need per-chunk features or an embedding map")
        vectors = pooled_embeddings(chunks, features, min_seg)

    if total_duration is None:
        total_duration = max(c.onset + c.n_frames / frame_rate for c in chunks)
    if not vectors:
        return Annotation(uri, ())

    labels = ahc_cluster([e.vector for e in vectors], ahc_threshold)
    assignment = {e.source: f"spk{label}" for e, label in zip(vectors, labels)}
    return stitch(chunks, assignment, frame_rate, total_duration, uri)
