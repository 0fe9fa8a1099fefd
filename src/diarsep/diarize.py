"""Global diarization around a pluggable local segmenter.

Sliding chunks, single-speaker runs, embedding pooling, agglomerative
clustering and stitching of local windows into one file-level annotation.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .annotation import Annotation, Segment
from .features import FeatureMatrix, FeatureStack, check_finite
from .powerset import build_space, decode_frames

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
    """Raise ValueError unless 0 < hop <= window, so chunks spanning ``window`` s tile without gaps."""
    if not 0 < hop <= window:
        raise ValueError(f"hop must satisfy 0 < hop <= window (the chunk span), got hop={hop} window={window}")


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


def chunks_from_stack(
    stack: FeatureStack, num_speakers: int, hop: float = DEFAULT_HOP
) -> list[ChunkSegmentation]:
    """Decode a chunk tensor (layers = chunks) into chunk segmentations.

    dim is either the powerset class count for ``num_speakers`` (per-frame
    class scores, decoded by argmax) or ``num_speakers`` (binary activity,
    at most 2 active slots per frame). Chunk ``ci`` starts at ``ci * hop``
    and spans ``n_frames / frame_rate`` seconds; a hop beyond that span
    would leave gaps and is rejected. Errors in one chunk name it.
    """
    check_hop(stack.n_frames / stack.frame_rate, hop)
    space = build_space(num_speakers)
    if stack.dim not in (space.n_classes, num_speakers):
        raise ValueError(
            f"tensor dim {stack.dim} matches neither {space.n_classes} powerset "
            f"classes nor {num_speakers} speaker slots"
        )
    chunks = []
    for ci, plane in enumerate(stack.data):
        try:
            activity = decode_frames(space, plane) if stack.dim == space.n_classes else plane
            chunks.append(ChunkSegmentation(ci * hop, stack.frame_rate, activity))
        except ValueError as exc:
            raise ValueError(f"chunk {ci}: {exc}") from None
    return chunks


def embeddings_from_stack(
    stack: FeatureStack, chunks: list[ChunkSegmentation]
) -> dict[tuple[int, int], np.ndarray]:
    """Decode an embedding tensor (layers = chunks, frames = local slots) into a (chunk, slot) map.

    An all-zero row marks a slot without an embedding. The tensor must have
    one layer per chunk and one row per local slot of every chunk, so no
    vector is silently dropped or left unread.
    """
    if stack.n_layers != len(chunks):
        raise ValueError(f"embedding file has {stack.n_layers} chunks, scores have {len(chunks)}")
    for ci, chunk in enumerate(chunks):
        if chunk.n_slots != stack.n_frames:
            raise ValueError(
                f"embedding file has {stack.n_frames} slots per chunk, chunk {ci} has {chunk.n_slots}"
            )
    present = np.any(stack.data != 0, axis=2)
    return {(ci, slot): stack.data[ci, slot] for ci, slot in np.argwhere(present).tolist()}


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

    Builds the average-linkage tree with the nearest-neighbour chain
    (Müllner 2011) in scipy's ``linkage(method="average")`` merge order and
    cuts it as ``fcluster(criterion="distance")`` does, so the labels equal
    scipy's even among exactly equal linkages. Each chain starts at the
    lowest-index live cluster; a cluster's nearest neighbour is the lowest
    index among equal distances, except that the previous chain element
    wins a tie; clusters x < y merge into y. A cluster's height is the
    running maximum over its merges, and clusters of height <= ``threshold``
    are kept whole. Labels are 0-based in order of first member appearance.
    """
    _check_threshold(threshold)
    vectors = np.asarray([np.asarray(e, dtype=np.float64).reshape(-1) for e in embeddings])
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("need at least one embedding")
    check_finite(vectors, "embeddings")
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding")
    unit = vectors / norms[:, None]
    # rounding leaves duplicates near -1e-16; heights must be >= 0
    distances = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)

    # scipy sorts the merges by height before numbering the tree, so each
    # node is at least as high as its children and the cut joins exactly the
    # merged pairs of height <= threshold, even where rounding puts a merge
    # below an earlier one it contains
    parent = list(range(len(unit)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for height, x, y in _nn_chain_average(distances):
        if height <= threshold:
            parent[find(x)] = find(y)
    relabel: dict[int, int] = {}
    return [relabel.setdefault(find(i), len(relabel)) for i in range(len(unit))]


def _nn_chain_average(distances: np.ndarray) -> list[tuple[float, int, int]]:
    """(height, x, y) merges of the average-linkage tree in nearest-neighbour-chain order.

    Cluster x < y merges into index y, and the merged distance to each other
    cluster i is (n_x*d_xi + n_y*d_yi)/(n_x + n_y). Only the upper triangle
    of ``distances`` is read, as scipy reads only the condensed form.
    """
    n = len(distances)
    d = np.triu(distances, 1)
    d += d.T
    np.fill_diagonal(d, np.inf)  # inf also marks retired clusters
    size = [1] * n
    chain: list[int] = []
    merges = []
    for _ in range(n - 1):
        if not chain:
            chain.append(next(i for i, s in enumerate(size) if s))
        while True:
            x = chain[-1]
            y = int(d[x].argmin())
            if len(chain) > 1 and d[x, chain[-2]] <= d[x, y]:
                y = chain[-2]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges.append((float(d[x, y]), x, y))
        merged = (nx * d[x] + ny * d[y]) / (nx + ny)  # inf stays inf
        d[x] = d[:, x] = np.inf
        d[y] = d[:, y] = merged
        size[x], size[y] = 0, nx + ny
    return merges


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
) -> Annotation:
    """Full pipeline: embeddings -> clustering -> global labels -> stitched annotation.

    Embeddings come from exactly one source: a provided (chunk, slot) ->
    vector map or mean-pooling of the per-chunk feature matrices; giving
    both, or neither, is an error unless ``chunks`` is empty. The file ends where the last chunk ends, at
    max(onset + n_frames / frame_rate). Deterministic for fixed inputs;
    chunk labels are spk0, spk1, ... in order of first appearance.
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

    if (features is None) == (embeddings is None):
        raise ValueError("need per-chunk features or an embedding map, not both")
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
        vectors = pooled_embeddings(chunks, features, min_seg)

    if not vectors:
        return Annotation(uri, ())

    labels = ahc_cluster([e.vector for e in vectors], ahc_threshold)
    assignment = {e.source: f"spk{label}" for e, label in zip(vectors, labels)}
    total_duration = max(c.onset + c.n_frames / frame_rate for c in chunks)
    return stitch(chunks, assignment, frame_rate, total_duration, uri)
