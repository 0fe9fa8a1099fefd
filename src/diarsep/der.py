"""Diarization error rate: interval-sweep scoring under an optimal speaker mapping."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .annotation import Annotation
from .assignment import max_weight_assignment

Interval = tuple[float, float]


@dataclass(frozen=True)
class DerReport:
    """Scored DER components in seconds and percentage points.

    der_pct is the literal sum fa_pct + md_pct + sc_pct, so the decomposition
    identity holds exactly. Percentages are relative to total_speech; a report
    with zero scored speech carries all-zero percentages.
    """

    false_alarm: float
    missed: float
    confusion: float
    total_speech: float
    fa_pct: float
    md_pct: float
    sc_pct: float
    der_pct: float
    mapping: dict[str, str]


class _Sweep(NamedTuple):
    """Elementary intervals of one recording: rows are intervals, columns speakers."""

    ref_speakers: list[str]
    hyp_speakers: list[str]
    ref_active: np.ndarray  # (intervals, ref speakers) bool
    hyp_active: np.ndarray  # (intervals, hyp speakers) bool
    length: np.ndarray  # interval durations in seconds
    in_region: np.ndarray  # inside the evaluation regions (all True without regions)
    scored: np.ndarray  # in_region and outside every collar zone


def _sweep(
    ref: Annotation,
    hyp: Annotation,
    collar: float = 0.0,
    eval_regions: list[Interval] | None = None,
) -> _Sweep:
    """Split the timeline at the sorted unique edges of all segments, collar
    zones (+- collar around every reference segment boundary) and evaluation
    regions, and mark what is active in each elementary interval.

    Each [start, end) span adds +1 at its start edge and -1 at its end edge;
    a cumulative sum over the edges then counts the spans covering every
    interval, so overlapping or touching spans need no merging.
    """

    def spans(annotation):
        speakers = annotation.speakers()
        index = {s: i for i, s in enumerate(speakers)}
        onsets = np.array([seg.onset for seg in annotation.segments])
        offsets = np.array([seg.onset + seg.duration for seg in annotation.segments])
        labels = np.array([index[seg.speaker] for seg in annotation.segments], dtype=np.intp)
        return speakers, onsets, offsets, labels

    ref_speakers, ref_on, ref_off, ref_label = spans(ref)
    hyp_speakers, hyp_on, hyp_off, hyp_label = spans(hyp)
    boundaries = np.concatenate([ref_on, ref_off]) if collar > 0 else np.empty(0)
    zone_on, zone_off = boundaries - collar, boundaries + collar
    regions = np.array(eval_regions or [], dtype=float).reshape(-1, 2)
    # a region that ends before it starts covers nothing rather than a negative span
    region_on, region_off = regions[:, 0], np.maximum(regions[:, 0], regions[:, 1])
    edges = np.unique(
        np.concatenate([ref_on, ref_off, hyp_on, hyp_off, zone_on, zone_off, region_on, region_off])
    )

    def covered(onsets, offsets, labels=None, width=1):
        column = 0 if labels is None else labels
        counts = np.zeros((len(edges), width), dtype=np.int32)
        np.add.at(counts, (np.searchsorted(edges, onsets), column), 1)
        np.add.at(counts, (np.searchsorted(edges, offsets), column), -1)
        return np.cumsum(counts, axis=0, out=counts)[:-1] > 0

    in_region = covered(region_on, region_off)[:, 0]
    if eval_regions is None:
        in_region[:] = True
    return _Sweep(
        ref_speakers,
        hyp_speakers,
        covered(ref_on, ref_off, ref_label, len(ref_speakers)),
        covered(hyp_on, hyp_off, hyp_label, len(hyp_speakers)),
        np.diff(edges),
        in_region,
        in_region & ~covered(zone_on, zone_off)[:, 0],
    )


def _assign(sweep: _Sweep) -> tuple[np.ndarray, np.ndarray, dict[str, str]]:
    """Ref and hyp speaker indices of the optimal one-to-one map, and the map.

    Solved as an optimal assignment on the ref x hyp matrix of region-cropped,
    uncollared co-active seconds; pairs with zero matched time are dropped.
    """
    weighted = sweep.ref_active * (sweep.length * sweep.in_region)[:, None]
    # summed over the active (interval, hyp speaker) cells only, so no dense
    # float copy of the hyp mask is made when the hypothesis has many labels
    interval, hyp_index = np.nonzero(sweep.hyp_active)
    matrix = np.zeros((len(sweep.ref_speakers), len(sweep.hyp_speakers)))
    np.add.at(matrix.T, hyp_index, weighted[interval])
    rows, cols = max_weight_assignment(matrix)
    keep = matrix[rows, cols] > 0.0
    rows, cols = rows[keep], cols[keep]
    mapping = {sweep.ref_speakers[i]: sweep.hyp_speakers[j] for i, j in zip(rows, cols)}
    return rows, cols, mapping


def optimal_mapping(
    ref: Annotation,
    hyp: Annotation,
    eval_regions: list[Interval] | None = None,
) -> dict[str, str]:
    """One-to-one ref -> hyp speaker map maximizing total co-active time.

    Co-activity is cropped to the evaluation regions but not collared. Pairs
    with zero matched time are dropped, so the map is partial.
    """
    return _assign(_sweep(ref, hyp, eval_regions=eval_regions))[2]


def compute_der(
    ref: Annotation,
    hyp: Annotation,
    collar: float = 0.0,
    eval_regions: list[Interval] | None = None,
) -> DerReport:
    """Score false alarm, missed detection and speaker confusion time.

    One sweep over elementary intervals (see ``_sweep``) gives both the
    speaker mapping, from region-cropped but uncollared co-activity, and the
    scores. Per scored interval of length d with N_ref / N_hyp active speakers
    and N_correct optimally mapped co-active pairs:

        missed      += d * max(0, N_ref - N_hyp)
        false_alarm += d * max(0, N_hyp - N_ref)
        confusion   += d * (min(N_ref, N_hyp) - N_correct)
        speech      += d * N_ref

    Raises ValueError when no reference speech is scored but hypothesis
    activity is; two empty annotations score 0.
    """
    if not 0 <= collar < np.inf:  # also false for nan
        raise ValueError(f"collar must be finite and >= 0, got {collar}")

    sweep = _sweep(ref, hyp, collar, eval_regions)
    rows, cols, mapping = _assign(sweep)
    ref_active = sweep.ref_active[sweep.scored]
    hyp_active = sweep.hyp_active[sweep.scored]
    d = sweep.length[sweep.scored]
    n_ref = ref_active.sum(axis=1)
    n_hyp = hyp_active.sum(axis=1)
    n_correct = (ref_active[:, rows] & hyp_active[:, cols]).sum(axis=1)
    missed = float(d @ np.maximum(n_ref - n_hyp, 0))
    false_alarm = float(d @ np.maximum(n_hyp - n_ref, 0))
    confusion = float(d @ (np.minimum(n_ref, n_hyp) - n_correct))
    total_speech = float(d @ n_ref)

    if total_speech == 0.0:
        if false_alarm > 0.0:
            raise ValueError(
                "no scored reference speech but hypothesis speech present; rates undefined"
            )
        return DerReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, mapping)

    fa_pct = 100.0 * false_alarm / total_speech
    md_pct = 100.0 * missed / total_speech
    sc_pct = 100.0 * confusion / total_speech
    return DerReport(
        false_alarm,
        missed,
        confusion,
        total_speech,
        fa_pct,
        md_pct,
        sc_pct,
        fa_pct + md_pct + sc_pct,
        mapping,
    )
