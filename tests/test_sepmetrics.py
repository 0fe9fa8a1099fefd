import itertools
import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from diarsep import AudioBuffer, pit, sdr, sdr_improvement, si_sdr
from diarsep.audio import BLOCK
from diarsep.sepmetrics import INF_SUBSTITUTE_DB
from diarsep.workers import worker_count
from oracles import pit_oracle, sdr_oracle, si_sdr_oracle
from test_cli import fresh_python


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
        # the oracle scores with whole-array dot products, pit with block partials
        assert exhaustive[0] == hungarian[0]
        assert exhaustive[1] == pytest.approx(hungarian[1], abs=1e-9)
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


def test_audio_buffers_of_different_rates_rejected():
    rng = np.random.default_rng(14)
    x, y = rng.uniform(-0.4, 0.4, (2, 64)).astype(np.float32)
    narrow = [AudioBuffer(x, 8000), AudioBuffer(y, 8000)]
    wide = [AudioBuffer(y, 16000), AudioBuffer(x, 16000)]
    message = r"inputs disagree on sample rate: \[8000, 16000\]"
    with pytest.raises(ValueError, match=message):
        pit(narrow, wide)
    with pytest.raises(ValueError, match=message):
        sdr_improvement(narrow, narrow[::-1], AudioBuffer(x + y, 16000))
    # plain arrays carry no rate, so they mix with buffers of any one rate
    assert pit(narrow, [y, x])[0] == (1, 0)
    assert sdr_improvement(narrow, [y, x], x + y).permutation == (1, 0)


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


def test_energy_underflow_gives_the_true_ratio():
    # the reference energy 1e-400 underflows, but the reference is not all zeros
    assert sdr([1e-200, 0.0], [1.0, 0.0]) == pytest.approx(-4000.0, rel=1e-12)
    # both energies fit, their ratio 1e-400 does not
    assert sdr([1e-150, 0.0], [1e50, 0.0]) == pytest.approx(-4000.0, rel=1e-12)
    assert sdr([1e50, 0.0], [1e50, 1e-150]) == pytest.approx(4000.0, rel=1e-12)
    # SI-SDR is scale-invariant, so tiny signals score like their rescaled copies
    assert si_sdr([1e-200, 1e-200], [1e-200, 0.0]) == si_sdr([1.0, 1.0], [1.0, 0.0])
    assert si_sdr([1e-200, 0.0], [3e-200, 0.0]) == float("inf")
    assert si_sdr([1.0, 0.0], [1e-300, 1.0]) == pytest.approx(-6000.0, rel=1e-12)
    with pytest.raises(ValueError, match="all zeros"):
        sdr([0.0, 0.0], [1e-300, 0.0])


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


def test_pit_checks_every_length_before_any_pair_is_scored():
    x, zero = np.array([1.0, 0.5, -0.25]), np.zeros(3)
    # pair (0, 0) would raise "all zeros", but the lengths are checked first
    for metric in ("sdr", "si_sdr"):
        with pytest.raises(ValueError, match=r"^length mismatch: 3 vs 2$"):
            pit([zero, x], [x, x[:2]], metric)


def test_improvement_without_pit_needs_one_length_for_all_pairs():
    # refs[1] and ests[1] agree with each other, not with refs[0]
    x = np.array([1.0, 0.5, -0.25])
    refs, ests = [x, np.ones(4)], [x, np.ones(4)]
    for metric in ("sdr", "si_sdr"):
        with pytest.raises(ValueError, match=r"^length mismatch: 3 vs 4$"):
            sdr_improvement(refs, ests, x, metric=metric, permute=False)


def test_a_non_finite_mixture_is_reported_before_any_pair_error():
    x, zero = np.array([1.0, 0.5]), np.zeros(2)
    for permute in (True, False):
        with pytest.raises(ValueError, match="^mixture must be finite"):
            sdr_improvement([zero, x], [x, x], [np.nan, 1.0], permute=permute)


def cpus(monkeypatch, n):
    """Make the worker pool see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_same_outcome(fn, oracle, ref, est):
    """fn(ref, est) within 1e-9 dB of oracle(ref, est), or both raise the same ValueError."""
    try:
        expected = oracle(ref, est)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            fn(ref, est)
        return
    value = fn(ref, est)
    if np.isinf(expected):
        assert value == expected
    else:
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-9)


# at, beside and across the edges of the blocks the scores are summed over
BLOCK_EDGE_LENGTHS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


@pytest.mark.parametrize("n", BLOCK_EDGE_LENGTHS)
def test_blockwise_scores_match_the_whole_array_oracles(n):
    rng = np.random.default_rng(n)
    refs = [AudioBuffer(rng.uniform(-0.4, 0.4, n).astype(np.float32), 16000) for _ in range(2)]
    mixture = AudioBuffer(refs[0].samples + refs[1].samples, 16000)
    ests = [
        AudioBuffer(refs[1].samples + 0.2 * mixture.samples, 16000),
        AudioBuffer(0.7 * refs[0].samples - 0.1 * rng.standard_normal(n), 16000),
    ]
    for metric, fn, oracle in (("sdr", sdr, sdr_oracle), ("si_sdr", si_sdr, si_sdr_oracle)):
        expected = [[oracle(r, e) for e in (*ests, mixture)] for r in refs]
        for r in refs:
            for e in (*ests, mixture):
                assert_same_outcome(fn, oracle, r, e)
                # the same values as a strided float64 view and a float32 array: the same bits
                assert fn(r, e) == fn(np.repeat(r.samples.astype(np.float64), 2)[::2], e.samples)
        report = sdr_improvement(refs, ests, mixture, metric=metric)
        for i, (v, vi) in enumerate(zip(report.per_source_sdr, report.per_source_sdri)):
            a, b = expected[i][report.permutation[i]], expected[i][2]
            assert v == pytest.approx(a, rel=1e-12, abs=1e-9)
            assert vi == pytest.approx(0.0 if a == b and np.isinf(a) else a - b, rel=1e-12, abs=1e-9)


def multi_block_special_cases():
    """(reference, estimate) pairs of 3 * BLOCK + 7 samples whose special cases span blocks."""
    n = 3 * BLOCK + 7
    rng = np.random.default_rng(15)
    x = rng.standard_normal(n)
    sparse_ref, sparse_est = np.zeros(n), np.zeros(n)
    sparse_ref[[5, n - 1]] = 1e-200, 2e-200
    sparse_est[BLOCK + 3] = 1.0
    early, late = np.zeros(n), np.zeros(n)
    early[: BLOCK // 2] = x[: BLOCK // 2]
    late[2 * BLOCK :] = x[2 * BLOCK :]
    huge_tail = np.ones(n)
    huge_tail[-1] = 1e200
    return [
        (sparse_ref, sparse_est),  # energy below float64 range, the peaks in different blocks
        (1e-200 * x, 1e-200 * (x + 0.1 * late)),  # both signals rescaled to a unit peak
        (x, 1e-300 * x + late),  # a projection below float64's normal range
        (np.ones(n), huge_tail),  # the residual's energy overflows in the last block
        (huge_tail, np.ones(n)),
        (np.zeros(n), x),  # an all-zero reference
        (early, late),  # orthogonal: no overlap between the two
        (x, x.copy()),  # a zero residual
        (x, -4.0 * x),  # an exact dyadic scale
    ]


SPECIAL_CASES = [
    ([0.3, -0.2, 0.1], [0.3, -0.2, 0.1]),
    ([1.0, 0.0], [1.0, 0.1]),
    ([0.5, -0.25, 0.125, 0.75], [1.0, -0.5, 0.25, 1.5]),
    ([1.0, 0.0], [1.0]),
    ([0.0, 0.0], [1.0, 0.0]),
    ([], []),
    ([1.0, 0.0], [1.0, 1.0]),
    ([1.0, 0.0], [0.0, 1.0]),
    ([1.0, 0.0], [0.5, 0.4]),
    ([1e-200, 0.0], [1.0, 0.0]),
    ([1e-150, 0.0], [1e50, 0.0]),
    ([1e50, 0.0], [1e50, 1e-150]),
    ([1e-200, 1e-200], [1e-200, 0.0]),
    ([1e-200, 0.0], [3e-200, 0.0]),
    ([1.0, 0.0], [1e-300, 1.0]),
    ([0.0, 0.0], [1e-300, 0.0]),
    ([1e200, 1.0], [1e200, 2.0]),
    ([1.0, 2.0], [1e200, 0.0]),
    ([1.0, 2.0], [1e200, -1e200]),
    ([1e308, 1.0], [-1e308, 1.0]),
]


@pytest.mark.parametrize("ref, est", SPECIAL_CASES + multi_block_special_cases())
def test_special_values_and_errors_match_the_whole_array_oracles(ref, est):
    for fn, oracle in ((sdr, sdr_oracle), (si_sdr, si_sdr_oracle)):
        assert_same_outcome(fn, oracle, ref, est)


def test_multi_block_special_cases_keep_their_values():
    cases = multi_block_special_cases()
    # reference energy 5e-400 against a residual energy of 1
    assert sdr(*cases[0]) == pytest.approx(10 * np.log10(5.0) - 4000.0, rel=1e-12)
    assert si_sdr(*cases[1]) == pytest.approx(si_sdr(cases[1][0] * 1e200, cases[1][1] * 1e200), rel=1e-12)
    for ref, est in cases[3:5]:
        with pytest.raises(ValueError, match="energy overflows float64"):
            sdr(ref, est)
    with pytest.raises(ValueError, match="all zeros"):
        si_sdr(*cases[5])
    assert si_sdr(*cases[6]) == float("-inf")
    assert sdr(*cases[7]) == si_sdr(*cases[7]) == si_sdr(*cases[8]) == float("inf")


def test_scores_do_not_depend_on_the_worker_count(monkeypatch):
    # more workers than cores and a short switch interval: each block's partials go to its own slot
    n = 8 * BLOCK + 7
    rng = np.random.default_rng(16)
    refs = [AudioBuffer(rng.uniform(-0.4, 0.4, n).astype(np.float32), 16000) for _ in range(2)]
    mixture = AudioBuffer(refs[0].samples + refs[1].samples, 16000)
    ests = [AudioBuffer(r.samples + 0.3 * mixture.samples, 16000) for r in refs[::-1]]

    def bits():
        report = sdr_improvement(refs, ests, mixture, metric="si_sdr")
        values = [sdr(refs[0], ests[1]), si_sdr(refs[1], mixture), pit(refs, ests, "sdr")[1]]
        return [float(v).hex() for v in (*values, *report.per_source_sdr, *report.per_source_sdri)]

    cpus(monkeypatch, 1)
    one = bits()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_cpus in (2, 9):
            cpus(monkeypatch, n_cpus)
            assert worker_count(n) == n_cpus
            assert bits() == one
    finally:
        sys.setswitchinterval(interval)


# prints the bits of library scores over signals longer than a BLAS-threaded dot product
SCORE_BITS = (
    "import json\n"
    "import numpy as np\n"
    "from diarsep import sdr, sdr_improvement, si_sdr\n"
    "x, y, z = np.random.default_rng(17).standard_normal((3, 200_000))\n"
    "report = sdr_improvement([x, y], [y + 0.1 * z, x - 0.2 * z], x + y, metric='si_sdr')\n"
    "values = [sdr(x, x + z), si_sdr(x, 0.5 * x + z), *report.per_source_sdr, *report.per_source_sdri]\n"
    "print(json.dumps([float(v).hex() for v in values]))\n"
)


def test_scores_do_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        result = fresh_python(SCORE_BITS, env={"OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        outputs.append(json.loads(result.stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_scores_hold_a_few_blocks_per_worker(monkeypatch, n_cpus):
    """Peak traced bytes of si_sdr and sdr_improvement on float32 buffers of 8 blocks.

    A job holds the float64 block of each of its signals plus one temporary
    block: three blocks for si_sdr, four for sdr_improvement of one source
    (reference, estimate and mixture). The whole-array scorers held float64
    copies of both signals plus a target and a residual, 32 blocks here.
    """
    cpus(monkeypatch, n_cpus)
    n = 8 * BLOCK
    block_bytes = 8 * BLOCK
    rng = np.random.default_rng(18)
    ref, est = (AudioBuffer(rng.uniform(-0.4, 0.4, n).astype(np.float32), 16000) for _ in range(2))
    mixture = AudioBuffer(ref.samples + est.samples, 16000)
    workers = worker_count(n)
    assert workers == n_cpus
    for signals, score in (
        (2, lambda: si_sdr(ref, est)),
        (3, lambda: sdr_improvement([ref], [est], mixture)),
        (3, lambda: sdr_improvement([ref], [est], mixture, metric="si_sdr")),
    ):
        tracemalloc.start()
        try:
            score()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ((signals + 1) * workers + 0.5) * block_bytes
        if workers == 1:
            assert peak < n * 8  # below one whole-signal float64 copy
