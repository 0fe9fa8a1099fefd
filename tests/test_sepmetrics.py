import itertools

import numpy as np
import pytest

from diarsep import AudioBuffer, pit, sdr, sdr_improvement, si_sdr
from diarsep.sepmetrics import INF_SUBSTITUTE_DB
from oracles import pit_oracle


def test_sdr_perfect_estimate():
    ref = np.array([0.3, -0.2, 0.1])
    assert sdr(ref, ref.copy()) == float("inf")


def test_sdr_two_sample_case():
    assert sdr([1.0, 0.0], [1.0, 0.1]) == pytest.approx(20.0, abs=1e-9)


def test_sdr_double_reference_is_zero():
    ref = np.array([0.5, -0.25, 0.125, 0.75])
    assert sdr(ref, 2.0 * ref) == 0.0


def test_sdr_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        sdr([1.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="all zeros"):
        sdr([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="non-empty"):
        sdr([], [])


def test_sdr_accepts_audio_buffers():
    buf = AudioBuffer(np.array([1.0, 0.0], np.float32), 8000)
    assert sdr(buf, buf) == float("inf")


def test_si_sdr_power_of_two_scale_is_inf():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(64)
    for c in (2.0, 0.5, -4.0, 8.0):
        assert si_sdr(ref, c * ref) == float("inf")


def test_si_sdr_projection_by_hand():
    # target (1, 0), residual (0, 1) -> 0 dB
    assert si_sdr([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_si_sdr_scale_invariance_dyadic_exact():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(128)
    est = ref + 0.1 * rng.standard_normal(128)
    base = si_sdr(ref, est)
    for k in range(-8, 9):
        assert si_sdr(ref, (2.0**k) * est) == base
        assert si_sdr(ref, -(2.0**k) * est) == base


def test_si_sdr_scale_invariance_general_within_float():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal(128)
    est = ref + 0.1 * rng.standard_normal(128)
    base = si_sdr(ref, est)
    assert si_sdr(ref, 3.7 * est) == pytest.approx(base, abs=1e-9)


def test_si_sdr_orthogonal_estimate():
    assert si_sdr([1.0, 0.0], [0.0, 1.0]) == float("-inf")


def test_sdr_bounded_by_si_sdr_when_projection_at_least_one():
    # with projection coefficient alpha >= 1 the scaled target is closer
    rng = np.random.default_rng(3)
    for _ in range(50):
        ref = rng.standard_normal(64)
        noise = rng.standard_normal(64)
        noise -= (np.dot(noise, ref) / np.dot(ref, ref)) * ref  # orthogonalize
        alpha = rng.uniform(1.0, 3.0)
        est = alpha * ref + rng.uniform(0.0, 2.0) * noise
        assert sdr(ref, est) <= si_sdr(ref, est) + 1e-9


def test_sdr_can_exceed_si_sdr_for_shrunken_estimates():
    # counterexample: alpha < 1 with a large orthogonal error
    assert sdr([1.0, 0.0], [0.5, 0.4]) > si_sdr([1.0, 0.0], [0.5, 0.4])


def test_sdri_definition_arithmetic():
    rng = np.random.default_rng(4)
    ref = rng.standard_normal(256)
    ref /= np.linalg.norm(ref)
    noise = rng.standard_normal(256)
    noise /= np.linalg.norm(noise)
    est = ref + noise * 10 ** (-10 / 20)  # est SDR = 10 dB
    mixture = ref + noise * 10 ** (-2 / 20)  # mixture SDR = 2 dB
    report = sdr_improvement([ref], [est], mixture)
    assert report.per_source_sdr[0] == pytest.approx(10.0, abs=1e-9)
    assert report.per_source_sdri[0] == pytest.approx(8.0, abs=1e-9)


def test_sdri_perfect_estimates():
    rng = np.random.default_rng(5)
    refs = [rng.standard_normal(64), rng.standard_normal(64)]
    mixture = refs[0] + refs[1]
    report = sdr_improvement(refs, [r.copy() for r in refs], mixture)
    assert report.per_source_sdri == (float("inf"), float("inf"))
    assert report.mean_sdri == float("inf")


def test_sdri_of_mixture_is_exactly_zero():
    rng = np.random.default_rng(6)
    refs = [rng.standard_normal(64), rng.standard_normal(64)]
    mixture = refs[0] + refs[1]
    report = sdr_improvement(refs, [mixture, mixture], mixture)
    assert report.per_source_sdri == (0.0, 0.0)
    assert report.mean_sdri == 0.0


def test_pit_single_source():
    ref = np.array([1.0, 0.5])
    assert pit([ref], [ref]) == ((0,), float("inf"))


def test_pit_swapped_references():
    rng = np.random.default_rng(7)
    refs = [rng.standard_normal(64), rng.standard_normal(64)]
    perm, mean = pit(refs, [refs[1], refs[0]], metric="si_sdr")
    assert perm == (1, 0)
    assert mean == float("inf")


def test_pit_hungarian_equals_exhaustive():
    rng = np.random.default_rng(8)
    for n in (2, 4, 5, 6):
        refs = [rng.standard_normal(128) for _ in range(n)]
        mixture = np.sum(refs, axis=0)
        ests = [refs[i] + 0.3 * mixture + 0.05 * rng.standard_normal(128) for i in range(n)]
        order = rng.permutation(n)
        shuffled = [ests[i] for i in order]
        exhaustive = pit_oracle(refs, shuffled, metric="sdr")
        hungarian = pit(refs, shuffled, metric="sdr")
        assert exhaustive == hungarian
        # the clean source dominates its own estimate, so PIT must undo the shuffle
        assert list(exhaustive[0]) == np.argsort(order).tolist()


def test_pit_matches_naive_best_mean():
    rng = np.random.default_rng(9)
    refs = [rng.standard_normal(64) for _ in range(3)]
    ests = [rng.standard_normal(64) for _ in range(3)]
    perm, mean = pit(refs, ests, metric="sdr")
    best = max(
        np.mean([sdr(refs[i], ests[p[i]]) for i in range(3)])
        for p in itertools.permutations(range(3))
    )
    assert mean == pytest.approx(best, abs=1e-12)


def test_pit_invariant_to_joint_permutation():
    rng = np.random.default_rng(10)
    refs = [rng.standard_normal(64) for _ in range(4)]
    ests = [r + 0.2 * rng.standard_normal(64) for r in refs]
    base = pit(refs, ests, metric="si_sdr")[1]
    order = [2, 0, 3, 1]
    joint = pit([refs[i] for i in order], [ests[i] for i in order], metric="si_sdr")[1]
    assert joint == pytest.approx(base, abs=1e-12)


def test_pit_errors():
    with pytest.raises(ValueError, match="count mismatch"):
        pit([np.ones(4)], [np.ones(4), np.ones(4)])
    with pytest.raises(ValueError, match="unknown metric"):
        pit([np.ones(4)], [np.ones(4)], metric="stoi")


def test_report_permutation_is_bijection():
    rng = np.random.default_rng(11)
    refs = [rng.standard_normal(64) for _ in range(4)]
    ests = [rng.standard_normal(64) for _ in range(4)]
    mixture = np.sum(refs, axis=0)
    report = sdr_improvement(refs, ests, mixture)
    assert sorted(report.permutation) == [0, 1, 2, 3]
    assert report.mean_sdr == pytest.approx(np.mean(report.per_source_sdr))


def test_sdr_improvement_equals_pairwise_metric_with_and_without_pit():
    rng = np.random.default_rng(12)
    refs = [AudioBuffer(rng.uniform(-0.4, 0.4, 256).astype(np.float32), 8000) for _ in range(3)]
    mixture = AudioBuffer(np.sum([r.samples for r in refs], axis=0), 8000)
    ests = [AudioBuffer(refs[i].samples + 0.2 * mixture.samples, 8000) for i in (2, 0, 1)]
    for metric, fn in (("sdr", sdr), ("si_sdr", si_sdr)):
        for permute in (True, False):
            report = sdr_improvement(refs, ests, mixture, metric=metric, permute=permute)
            perm = pit(refs, ests, metric)[0] if permute else (0, 1, 2)
            assert report.permutation == perm
            assert report.per_source_sdr == tuple(fn(refs[i], ests[perm[i]]) for i in range(3))
            assert report.per_source_sdri == tuple(
                fn(refs[i], ests[perm[i]]) - fn(refs[i], mixture) for i in range(3)
            )
        assert sdr_improvement(refs, ests, mixture, metric=metric).permutation == (1, 2, 0)


def test_non_finite_signals_rejected_on_both_pit_paths():
    rng = np.random.default_rng(13)
    for n in (3, 7):
        refs = [rng.standard_normal(32) for _ in range(n)]
        ests = [r + 0.1 * rng.standard_normal(32) for r in refs]
        ests[1][5] = np.nan
        with pytest.raises(ValueError, match="estimate 1 must be finite"):
            pit(refs, ests)
        refs[2][0] = np.inf
        with pytest.raises(ValueError, match="reference 2 must be finite"):
            pit(refs, ests)


def test_non_finite_signals_rejected_by_sdr_and_improvement():
    for fn in (sdr, si_sdr):
        with pytest.raises(ValueError, match="estimate must be finite"):
            fn([1.0, 0.5], [1.0, np.nan])
        with pytest.raises(ValueError, match="reference must be finite"):
            fn([-np.inf, 0.5], [1.0, 0.5])
    refs = [np.array([1.0, 0.5]), np.array([0.5, 1.0])]
    with pytest.raises(ValueError, match="mixture must be finite"):
        sdr_improvement(refs, refs, [np.nan, 1.0])


def test_pit_exact_tie_takes_the_solvers_first_optimum():
    # x and y orthogonal: every reference scores -inf on y and +inf on x, so
    # both permutations tie at a substituted total of -300 + 300 = 0
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    refs, ests = [x, 2 * x], [y, x]
    perm, mean = pit(refs, ests, "si_sdr")
    oracle_perm, oracle_mean = pit_oracle(refs, ests, "si_sdr")
    assert perm == (1, 0)  # the lexicographically smallest permutation would be (0, 1)
    assert oracle_perm == (0, 1)
    assert mean == oracle_mean == float("inf")

    def clipped_total(p):
        scores = [si_sdr(refs[i], ests[p[i]]) for i in range(2)]
        return float(np.clip(scores, -INF_SUBSTITUTE_DB, INF_SUBSTITUTE_DB).sum())

    assert clipped_total(perm) == clipped_total(oracle_perm) == 0.0


def test_energy_overflow_is_an_error():
    ref, est = [1e200, 1.0], [1e200, 2.0]
    for fn in (sdr, si_sdr):
        with pytest.raises(ValueError, match="energy overflows float64"):
            fn(ref, est)
    # the reference fits but the residual of a huge estimate does not
    with pytest.raises(ValueError, match="energy overflows float64"):
        sdr([1.0, 2.0], [1e200, 0.0])
    with pytest.raises(ValueError, match="energy overflows float64"):
        si_sdr([1.0, 2.0], [1e200, -1e200])
    # finite samples whose difference overflows
    with pytest.raises(ValueError, match="energy overflows float64"):
        sdr([1e308, 1.0], [-1e308, 1.0])
    refs = [np.array([1.0, 2.0]), np.array([1e200, 1.0])]
    for metric in ("sdr", "si_sdr"):
        with pytest.raises(ValueError, match="energy overflows float64"):
            pit(refs, refs[::-1], metric)
