import itertools

import numpy as np
import pytest

from diarsep import Annotation, compute_der, optimal_mapping, total_der
from diarsep.der import _coactivity, _sweep
from oracles import grid_der, perturbed_hypothesis, random_annotation, sweep_oracle


def naive_matrix(ref, hyp):
    """Co-activity seconds from raw pairwise intersections of merged timelines."""

    def merged(ann):
        per = {}
        for seg in ann.segments:
            per.setdefault(seg.speaker, []).append((seg.onset, seg.onset + seg.duration))
        out = {}
        for spk, ivs in per.items():
            ivs.sort()
            acc = [ivs[0]]
            for s, e in ivs[1:]:
                if s <= acc[-1][1]:
                    acc[-1] = (acc[-1][0], max(acc[-1][1], e))
                else:
                    acc.append((s, e))
            out[spk] = acc
        return out

    ref_tl, hyp_tl = merged(ref), merged(hyp)
    ref_speakers, hyp_speakers = sorted(ref_tl), sorted(hyp_tl)
    matrix = np.zeros((len(ref_speakers), len(hyp_speakers)))
    for i, r in enumerate(ref_speakers):
        for j, h in enumerate(hyp_speakers):
            matrix[i, j] = sum(
                max(0.0, min(e1, e2) - max(s1, s2))
                for s1, e1 in ref_tl[r]
                for s2, e2 in hyp_tl[h]
            )
    return ref_speakers, hyp_speakers, matrix


def brute_force_value(matrix):
    n_ref, n_hyp = matrix.shape
    best = 0.0
    if n_ref <= n_hyp:
        for cols in itertools.permutations(range(n_hyp), n_ref):
            best = max(best, sum(matrix[i, c] for i, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n_ref), n_hyp):
            best = max(best, sum(matrix[r, j] for j, r in enumerate(rows)))
    return best


def test_mapping_identical_annotations():
    ann = Annotation("u", ((0.0, 5.0, "A"), (5.0, 5.0, "B")))
    mapping = optimal_mapping(ann, ann)
    assert mapping == {"A": "A", "B": "B"}


def test_mapping_two_refs_one_hyp():
    ref = Annotation("u", ((0.0, 5.0, "A"), (5.0, 5.0, "B")))
    hyp = Annotation("u", ((0.0, 10.0, "1"),))
    mapping = optimal_mapping(ref, hyp)
    assert mapping in ({"A": "1"}, {"B": "1"})
    _, _, matrix = naive_matrix(ref, hyp)
    assert brute_force_value(matrix) == pytest.approx(5.0)


def test_mapping_empty():
    empty = Annotation("u", ())
    ann = Annotation("u", ((0.0, 1.0, "A"),))
    assert optimal_mapping(empty, ann) == {}
    assert optimal_mapping(ann, empty) == {}


def test_mapping_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(13)
    for _ in range(25):
        ref = random_annotation(rng, max_speakers=4, max_segments=12, max_time=40.0)
        hyp = random_annotation(rng, max_speakers=4, max_segments=12, max_time=40.0)
        mapping = optimal_mapping(ref, hyp)
        ref_speakers, hyp_speakers, matrix = naive_matrix(ref, hyp)
        achieved = sum(
            matrix[ref_speakers.index(r), hyp_speakers.index(h)] for r, h in mapping.items()
        )
        assert achieved == pytest.approx(brute_force_value(matrix), abs=1e-9)


def test_table_arithmetic_decomposition():
    # construction with FA 4.8 s, MD 7.7 s, SC 7.9 s over 100 s of speech
    ref = Annotation("u", ((0.0, 100.0, "A"),))
    hyp = Annotation(
        "u",
        ((0.0, 84.4, "h1"), (84.4, 7.9, "h2"), (100.0, 4.8, "h1")),
    )
    report = compute_der(ref, hyp)
    assert report.fa_pct == pytest.approx(4.8, abs=1e-9)
    assert report.md_pct == pytest.approx(7.7, abs=1e-9)
    assert report.sc_pct == pytest.approx(7.9, abs=1e-9)
    assert report.der_pct == pytest.approx(20.4, abs=1e-9)
    assert report.der_pct == report.fa_pct + report.md_pct + report.sc_pct


def test_perfect_hypothesis_scores_zero():
    rng = np.random.default_rng(14)
    for _ in range(10):
        ann = random_annotation(rng)
        report = compute_der(ann, ann)
        assert report.der_pct == 0.0
        assert (report.false_alarm, report.missed, report.confusion) == (0.0, 0.0, 0.0)


def test_missed_detection_case():
    ref = Annotation("u", ((0.0, 10.0, "A"),))
    hyp = Annotation("u", ((0.0, 8.0, "1"),))
    report = compute_der(ref, hyp)
    assert report.missed == pytest.approx(2.0, abs=1e-12)
    assert report.false_alarm == 0.0
    assert report.confusion == 0.0
    assert report.der_pct == pytest.approx(20.0, abs=1e-9)


def test_confusion_case():
    ref = Annotation("u", ((0.0, 5.0, "A"), (5.0, 5.0, "B")))
    hyp = Annotation("u", ((0.0, 10.0, "1"),))
    report = compute_der(ref, hyp)
    assert report.confusion == pytest.approx(5.0, abs=1e-12)
    assert report.der_pct == pytest.approx(50.0, abs=1e-9)


def test_label_renaming_invariance():
    rng = np.random.default_rng(15)
    ref = random_annotation(rng)
    hyp = perturbed_hypothesis(rng, ref)
    renamed = Annotation(
        hyp.uri,
        tuple((s.onset, s.duration, f"renamed_{s.speaker}") for s in hyp.segments),
    )
    a = compute_der(ref, hyp)
    b = compute_der(ref, renamed)
    assert (a.false_alarm, a.missed, a.confusion, a.der_pct) == (
        b.false_alarm,
        b.missed,
        b.confusion,
        b.der_pct,
    )


def test_grid_oracle_equivalence():
    rng = np.random.default_rng(16)
    # regions come from their own stream, so the pairs match the region-free draw
    region_rng = np.random.default_rng(116)
    for i in range(30):
        ref = random_annotation(rng)
        hyp = perturbed_hypothesis(rng, ref) if i % 2 else random_annotation(rng)
        collar = 0.0 if i % 3 else 0.25
        # 1-3 millisecond-aligned regions, unsorted and possibly overlapping
        regions = []
        for _ in range(int(region_rng.integers(1, 4))):
            onset = round(float(region_rng.uniform(0.0, 50.0)), 3)
            regions.append((onset, round(onset + float(region_rng.uniform(1.0, 30.0)), 3)))
        for eval_regions in (None, regions):
            fa, md, sc, speech, der_pct, _ = grid_der(ref, hyp, collar=collar, regions=eval_regions)
            n_boundaries = 2 * (len(ref.segments) + len(hyp.segments) + len(eval_regions or ()))
            tol = 0.2e-3 * n_boundaries
            try:
                report = compute_der(ref, hyp, collar=collar, eval_regions=eval_regions)
            except ValueError:
                # collar and regions excluded all reference speech; the grid must agree
                assert speech <= 0.2e-3 * 2 * (len(ref.segments) + len(eval_regions or ()))
                continue
            assert report.false_alarm == pytest.approx(fa, abs=tol)
            assert report.missed == pytest.approx(md, abs=tol)
            assert report.confusion == pytest.approx(sc, abs=tol)
            assert report.total_speech == pytest.approx(speech, abs=tol)
            assert report.der_pct == pytest.approx(der_pct, abs=0.1)


def test_sweep_and_coactivity_equal_the_add_at_oracle_bit_for_bit():
    rng = np.random.default_rng(21)

    def unrounded(n):  # times off the millisecond grid
        rows = zip(rng.uniform(0, 50, n), rng.uniform(0.01, 9, n), rng.integers(0, 4, n))
        return Annotation("u", [(onset, duration, f"s{label}") for onset, duration, label in rows])

    for trial in range(40):
        ref = random_annotation(rng, max_segments=30) if trial % 4 else unrounded(400)
        hyp = perturbed_hypothesis(rng, ref) if trial % 2 else unrounded(int(rng.integers(0, 400)))
        regions = None if trial % 3 == 0 else [(float(a), float(a + rng.uniform(1, 30))) for a in rng.uniform(0, 40, 2)]
        collar = (0.0, 0.25, 0.5)[trial % 3]
        sweep = _sweep(ref, hyp, collar, regions)
        got = (sweep.ref_active, sweep.hyp_active, sweep.length, sweep.in_region, sweep.scored, _coactivity(sweep))
        for array, want in zip(got, sweep_oracle(ref, hyp, collar, regions)):
            assert (array.dtype, array.shape, array.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_eval_regions_restrict_scoring():
    ref = Annotation("u", ((0.0, 10.0, "A"),))
    hyp = Annotation("u", ((0.0, 10.0, "A"), (20.0, 5.0, "A")))
    full = compute_der(ref, hyp)
    assert full.false_alarm == pytest.approx(5.0)
    cropped = compute_der(ref, hyp, eval_regions=[(0.0, 15.0)])
    assert cropped.der_pct == 0.0
    assert cropped.total_speech == pytest.approx(10.0)


def test_collar_excludes_boundary_neighborhoods():
    ref = Annotation("u", ((0.0, 10.0, "A"),))
    hyp = Annotation("u", ((0.3, 9.7, "B"),))  # misses the first 0.3 s
    exact = compute_der(ref, hyp)
    assert exact.missed == pytest.approx(0.3, abs=1e-12)
    collared = compute_der(ref, hyp, collar=0.5)
    assert collared.missed == 0.0
    assert collared.total_speech == pytest.approx(9.0)


def test_non_finite_collar_rejected():
    ref = Annotation("u", ((0.0, 10.0, "A"),))
    for collar in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="collar must be finite and >= 0"):
            compute_der(ref, ref, collar=collar)


def test_a_percentage_beyond_float64_range_is_an_error_naming_the_recording():
    # every input is finite, but 100 * 1e308 s of false alarm over 1 s of speech is not
    ref = Annotation("a", ((0.0, 1.0, "s1"),))
    hyp = Annotation("a", ((0.0, 1e308, "s1"),))
    with pytest.raises(ValueError, match="^a: a DER total or percentage is not finite in float64$"):
        compute_der(ref, hyp)


def test_summed_totals_beyond_float64_range_are_an_error_naming_overall():
    huge = Annotation("a", ((0.0, 1e308, "s1"),))
    report = compute_der(huge, huge)
    assert (report.total_speech, report.der_pct) == (1e308, 0.0)
    with pytest.raises(ValueError, match="^OVERALL: a DER total or percentage is not finite"):
        total_der([report, report])


def test_collar_zones_and_regions_beyond_float64_range_are_errors_without_warnings():
    # the suite turns every numpy RuntimeWarning into an error, so none is raised here
    huge = Annotation("a", ((0.0, 1e308, "s1"),))
    message = "^a: collar zones and evaluation regions must have finite edges and spans$"
    with pytest.raises(ValueError, match=message):
        compute_der(huge, huge, collar=1e308)  # the zone edge 1e308 + 1e308 overflows
    empty = Annotation("a", ())
    for regions in ([(0.0, float("inf"))], [(float("nan"), 1.0)], [(-1e308, 1e308)]):
        with pytest.raises(ValueError, match=message):
            compute_der(empty, empty, eval_regions=regions)
    with pytest.raises(ValueError, match=message):
        optimal_mapping(huge, huge, [(0.0, float("inf"))])


def test_removing_hypothesis_segment_never_decreases_missed():
    rng = np.random.default_rng(18)
    for _ in range(10):
        ref = random_annotation(rng, max_segments=10)
        hyp = perturbed_hypothesis(rng, ref)
        base = compute_der(ref, hyp).missed
        for drop in range(len(hyp.segments)):
            reduced_segments = hyp.segments[:drop] + hyp.segments[drop + 1 :]
            reduced = Annotation(hyp.uri, reduced_segments)
            assert compute_der(ref, reduced).missed >= base - 1e-9


def test_empty_annotation_cases():
    empty = Annotation("u", ())
    assert compute_der(empty, empty).der_pct == 0.0
    with pytest.raises(ValueError, match="undefined"):
        compute_der(empty, Annotation("u", ((0.0, 1.0, "A"),)))
    report = compute_der(Annotation("u", ((0.0, 4.0, "A"),)), empty)
    assert report.missed == pytest.approx(4.0)
    assert report.der_pct == pytest.approx(100.0)
    # an empty region list scores nothing and maps nothing
    pair = Annotation("u", ((0.0, 4.0, "A"),)), Annotation("u", ((0.0, 4.0, "B"),))
    assert optimal_mapping(*pair, []) == {}
    assert compute_der(*pair, eval_regions=[]) == compute_der(empty, empty)


def test_overlap_scoring():
    # two overlapping reference speakers, one hypothesized: one stream missed
    ref = Annotation("u", ((0.0, 10.0, "A"), (0.0, 10.0, "B")))
    hyp = Annotation("u", ((0.0, 10.0, "A"),))
    report = compute_der(ref, hyp)
    assert report.total_speech == pytest.approx(20.0)
    assert report.missed == pytest.approx(10.0)
    assert report.der_pct == pytest.approx(50.0)


def test_equal_coactivity_tie_goes_to_the_first_sorted_label():
    # hyp X overlaps ref A and ref B for exactly 2 s each, so both one-to-one
    # mappings match 2 s of co-activity; the collar then scores them differently
    hyp = Annotation("u", ((1.0, 2.0, "X"), (10.0, 2.0, "X")))
    ref = Annotation("u", ((0.0, 4.0, "A"), (10.0, 4.0, "B")))
    assert naive_matrix(ref, hyp)[2].tolist() == [[2.0], [2.0]]
    report = compute_der(ref, hyp, collar=0.25)
    assert report.mapping == {"A": "X"}
    assert report.confusion == 1.75  # X on B, outside the collar zone [9.75, 10.25)
    # renamed so that B sorts first, the tie and the collared confusion flip
    renamed = Annotation("u", ((0.0, 4.0, "C"), (10.0, 4.0, "B")))
    flipped = compute_der(renamed, hyp, collar=0.25)
    assert flipped.mapping == {"B": "X"}
    assert flipped.confusion == 2.0  # X on C, clear of its collar zones
    # without a collar both mappings score the same
    assert compute_der(ref, hyp).confusion == compute_der(renamed, hyp).confusion == 2.0
