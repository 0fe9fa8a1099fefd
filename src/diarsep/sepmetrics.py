"""Separation scoring: SDR, SI-SDR, SDR improvement, permutation-invariant matching.

Every energy and inner product is a sum of float64 partials over BLOCK-sample
blocks, added in block order (``_block_sums``), so no whole-signal float64
array is built and the bits do not depend on the worker or BLAS thread count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assignment import max_weight_assignment
from .audio import AudioBuffer
from .features import check_finite
from .workers import BLOCK, run_blocks

INF_SUBSTITUTE_DB = 300.0
_TINY = np.finfo(np.float64).tiny  # smallest normal float64


@dataclass(frozen=True)
class SepReport:
    per_source_sdr: tuple[float, ...]
    mean_sdr: float
    per_source_sdri: tuple[float, ...]
    mean_sdri: float
    permutation: tuple[int, ...]


def _signal(x, name: str) -> np.ndarray:
    """``x`` as a flat float32 or float64 array; ValueError unless it is finite.

    float32 samples stay float32: the blockwise passes convert one block at a time.
    """
    if isinstance(x, AudioBuffer):  # its samples were checked finite when it was built
        return x.samples
    signal = np.asarray(x)
    if signal.dtype != np.float32:
        signal = signal.astype(np.float64, copy=False)
    signal = signal.reshape(-1)
    check_finite(signal, name)
    return signal


def _block_rows(signals: list[np.ndarray], partials) -> list[np.ndarray]:
    """partials(blocks) for every BLOCK-sample block of the equal-length ``signals``, in block order.

    One ``workers.run_blocks`` job per block converts that block of each
    signal to float64 once and passes the list of them to ``partials``,
    which returns a sequence of floats.
    """
    n = signals[0].size
    rows = [None] * -(-n // BLOCK)

    def job(start):
        # errstate is per thread; an overflow or a NaN is a ValueError later
        with np.errstate(over="ignore", invalid="ignore"):
            # contiguous, so equal values take the same summation loop whatever the input's strides
            blocks = [np.ascontiguousarray(x[start : start + BLOCK], dtype=np.float64) for x in signals]
            rows[start // BLOCK] = np.array(partials(blocks), dtype=np.float64)

    run_blocks(job, n)
    return rows


def _block_sums(signals: list[np.ndarray], partials) -> list[float]:
    """The partials of ``_block_rows`` summed in block order: the same bits on any worker count."""
    rows = _block_rows(signals, partials)
    total = rows[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows[1:]:
            total = total + row
    return total.tolist()


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # numpy's own loop, not BLAS, whose thread pool would split the sum
    return np.einsum("i,i->", x, y)


def _energy(x: np.ndarray) -> tuple[float, float]:
    """(sum(x^2), 1.0 if x has a non-zero sample else 0.0); an energy that underflows to 0 still counts."""
    energy = _dot(x, x)
    return energy, float(energy > 0.0 or x.any())


def _energies(blocks) -> list[float]:
    """The _energy pairs of the blocks an iterable makes, holding one of them at a time."""
    sums = []
    for x in blocks:
        sums += _energy(x)
        del x  # before the next block is made
    return sums


def _pairs_of(values: list[float]) -> list[tuple[float, float]]:
    return list(zip(values[0::2], values[1::2]))


def _check_energies(*energies: float) -> None:
    # the signals are finite, so a non-finite energy means float64 overflowed
    if not all(map(math.isfinite, energies)):
        raise ValueError("signal energy overflows float64")


def _scaled(x: np.ndarray, exponent: int) -> np.ndarray:
    return np.ldexp(x, -exponent) if exponent else x


def _peak_exponents(signals: list[np.ndarray], derive) -> list[int]:
    """frexp exponent of the peak magnitude of each signal in derive(blocks); 0 for an all-zero one."""
    peaks = np.max(_block_rows(signals, lambda b: [np.abs(x).max() for x in derive(b)]), axis=0)
    return [int(np.frexp(peak)[1]) for peak in peaks]


def _ratio_db(num_energy: float, den_energy: float, signals: list[np.ndarray], derive) -> float:
    """10*log10(num_energy / den_energy) of the non-zero signals [num, den] = derive(blocks).

    Where an energy or the ratio leaves float64's normal range, each energy
    is taken in dB from its signal rescaled to a unit peak, so nothing
    underflows: two more passes, one for the peaks and one for the energies.
    """
    if num_energy >= _TINY and den_energy >= _TINY and _TINY <= num_energy / den_energy < math.inf:
        return 10.0 * np.log10(num_energy / den_energy)
    exponents = _peak_exponents(signals, derive)
    energies = _block_sums(
        signals, lambda b: [_dot(u, u) for u in map(_scaled, derive(b), exponents)]
    )
    num_db, den_db = (
        10.0 * np.log10(energy) + 20.0 * math.log10(2.0) * exponent
        for energy, exponent in zip(energies, exponents)
    )
    return num_db - den_db


def _outcome(score, *args):
    """score(*args), or the ValueError it raises."""
    try:
        return score(*args)
    except ValueError as exc:
        return exc


def _scores(signals: list[np.ndarray], pairs: list[tuple[int, int]], metric: str) -> list:
    """metric of each (reference, estimate) index pair into the equal-length ``signals``, or its ValueError.

    Both metrics are 10*log10 of the energy ratio of two signals derived per
    block: s and s - s_hat for SDR, the target alpha * s and the residual
    s_hat - alpha * s for SI-SDR. SI-SDR first takes each reference's energy
    and each pair's projection <s_hat, s>. Where either is below float64's
    normal range, a peak pass and a second projection pass rescale the
    pair's signals to a unit peak, which leaves SI-SDR unchanged. A last
    pass, shared by both metrics, takes the two energies of each pair.
    """
    outcomes = [None] * len(pairs)
    if metric == "sdr":
        zero_numerator = "reference signal is all zeros"

        def derive(b, k):
            i, j = pairs[k]
            return b[i], b[i] - b[j]
    else:
        zero_numerator = "signal energy underflows float64"  # a projection coefficient below float64 range
        refs = sorted({i for i, _ in pairs})
        sums = _block_sums(
            signals, lambda b: [*_energies(b[i] for i in refs), *(_dot(b[j], b[i]) for i, j in pairs)]
        )
        ref_sums = dict(zip(refs, _pairs_of(sums[: 2 * len(refs)])))
        energies = [ref_sums[i][0] for i, _ in pairs]
        projections = sums[2 * len(refs) :]
        for k, (i, _) in enumerate(pairs):
            if not (math.isfinite(energies[k]) and math.isfinite(projections[k])):
                outcomes[k] = ValueError("signal energy overflows float64")
            elif not ref_sums[i][1]:
                outcomes[k] = ValueError("reference signal is all zeros")

        exponents = {}  # rescaled pair -> the peak exponents of its reference and estimate

        def units(b, k):
            """The pair's reference and estimate blocks, rescaled if the pair is."""
            (i, j), (e_ref, e_est) = pairs[k], exponents.get(k, (0, 0))
            return _scaled(b[i], e_ref), _scaled(b[j], e_est)

        rescaled = [
            k for k, outcome in enumerate(outcomes)
            if outcome is None and min(energies[k], abs(projections[k])) < _TINY
        ]
        if rescaled:
            # either sum may have underflowed: unit-peak signals leave SI-SDR unchanged
            peaks = _peak_exponents(signals, lambda b: b)
            exponents.update((k, (peaks[pairs[k][0]], peaks[pairs[k][1]])) for k in rescaled)

            def rescaled_sums(b):
                """Each rescaled pair's reference energy, then its projection."""
                blocks = (units(b, k) for k in rescaled)
                return [v for s, s_hat in blocks for v in (_dot(s, s), _dot(s_hat, s))]

            sums = _block_sums(signals, rescaled_sums)
            for k, (energy, projection) in zip(rescaled, _pairs_of(sums)):
                energies[k], projections[k] = energy, projection
                if projection == 0.0:
                    outcomes[k] = float("-inf")
        alphas = {k: projections[k] / energies[k] for k in range(len(pairs)) if outcomes[k] is None}

        def derive(b, k):
            """Yields the pair's target block, then the residual block written over it: one temporary."""
            s, s_hat = units(b, k)
            target = alphas[k] * s
            yield target
            yield np.subtract(s_hat, target, out=target)

    open_pairs = [k for k in range(len(pairs)) if outcomes[k] is None]
    if not open_pairs:
        return outcomes
    sums = _block_sums(signals, lambda b: [v for k in open_pairs for v in _energies(derive(b, k))])

    def score(k, num_energy, num_nonzero, res_energy, res_nonzero):
        _check_energies(num_energy, res_energy)
        if not num_nonzero:
            raise ValueError(zero_numerator)
        if not res_nonzero:
            return float("inf")
        return _ratio_db(num_energy, res_energy, signals, lambda b: derive(b, k))

    for n, k in enumerate(open_pairs):
        outcomes[k] = _outcome(score, k, *sums[4 * n : 4 * n + 4])
    return outcomes


def _one_length(signals: list[np.ndarray]) -> list[np.ndarray]:
    """``signals``, once they share one non-zero length; else ValueError."""
    n = signals[0].size
    for x in signals:
        if x.size != n:
            raise ValueError(f"length mismatch: {n} vs {x.size}")
    if not n:
        raise ValueError("signals must be non-empty")
    return signals


def _values(outcomes: list) -> list:
    """The outcomes, once none of them is a ValueError; else the first one is raised."""
    for outcome in outcomes:
        if isinstance(outcome, ValueError):
            raise outcome
    return outcomes


def sdr(ref, est) -> float:
    """Source-to-distortion ratio: 10*log10(sum(s^2) / sum((s - s_hat)^2)) dB.

    A zero residual yields +inf; an all-zero reference, or a signal energy
    beyond float64 range, is an error. An energy too small for float64, or
    a ratio outside its range, is taken in dB from the signals rescaled to
    a unit peak.
    """
    return _score_pair(ref, est, "sdr")


def si_sdr(ref, est) -> float:
    """Scale-invariant SDR: the reference is rescaled to the least-squares projection.

    s_t = (<s_hat, s> / ||s||^2) * s; returns 10*log10(||s_t||^2 / ||s_hat - s_t||^2).
    An estimate orthogonal to the reference yields -inf, a zero residual +inf;
    a signal energy beyond float64 range is an error. Signals whose energy
    or projection is too small for float64 are rescaled to a unit peak
    first, which leaves the ratio unchanged.
    """
    return _score_pair(ref, est, "si_sdr")


def _score_pair(ref, est, metric: str) -> float:
    signals = _one_length([_signal(ref, "reference"), _signal(est, "estimate")])
    return _values(_scores(signals, [(0, 1)], metric))[0]


_NO_MIXTURE = object()  # pit's: an empty baseline


def _score_matrix(refs, ests, metric: str, full: bool = True, mixture=_NO_MIXTURE):
    """(scores, baseline): scores[i, j] = metric(refs[i], ests[j]), baseline[i] = metric(refs[i], mixture).

    Checks, in order: the counts, one sample rate among the ``AudioBuffer``s
    (plain arrays carry none), the metric name, finite samples (references,
    estimates, then the mixture) and one non-zero length for every signal.
    One ``_scores`` call over [*refs, *ests, mixture] then scores the matrix
    and the baseline in the same blockwise passes, so each signal is
    converted to float64 once per block and pass. The first pair's error is
    raised, the matrix pairs in row-major order before the baseline's. With
    ``full`` False only the diagonal is scored and the other entries are
    NaN; without a mixture the baseline is empty.
    """
    if len(refs) != len(ests):
        raise ValueError(f"count mismatch: {len(refs)} references vs {len(ests)} estimates")
    if not refs:
        raise ValueError("need at least one source")
    mixtures = () if mixture is _NO_MIXTURE else (mixture,)
    rates = {x.sample_rate for x in (*refs, *ests, *mixtures) if isinstance(x, AudioBuffer)}
    if len(rates) > 1:
        raise ValueError(f"inputs disagree on sample rate: {sorted(rates)}")
    if metric not in ("sdr", "si_sdr", "si-sdr"):  # "si-sdr" is the CLI's spelling
        raise ValueError(f"unknown metric {metric!r}; expected 'sdr' or 'si_sdr'")
    signals = _one_length([
        *(_signal(r, f"reference {i}") for i, r in enumerate(refs)),
        *(_signal(e, f"estimate {j}") for j, e in enumerate(ests)),
        *(_signal(m, "mixture") for m in mixtures),
    ])
    n = len(refs)
    pairs = [(i, n + j) for i in range(n) for j in (range(n) if full else (i,))]
    values = _values(_scores(signals, pairs + [(i, 2 * n) for i in range(n) if mixtures], metric))
    scores = np.full((n, n), np.nan)
    for (i, j), value in zip(pairs, values):
        scores[i, j - n] = value
    return scores, values[len(pairs) :]


def _mean_db(values) -> float:
    values = list(values)
    if any(v == float("inf") for v in values):
        return float("inf")
    if any(v == float("-inf") for v in values):
        return float("-inf")
    return float(np.mean(values))


def pit(refs, ests, metric: str = "si_sdr") -> tuple[tuple[int, ...], float]:
    """Best reference<->estimate matching: the permutation maximizing the mean metric.

    Solved by ``assignment.max_weight_assignment`` on the pairwise scores,
    with infinities substituted by +-300 dB during selection; a non-finite
    sample in any signal, signals of different lengths, or ``AudioBuffer``s
    of different sample rates raise ValueError. Among permutations of exactly equal substituted
    total, the one the solver's order reaches first wins: references join
    in index order, and each path search takes the lowest-index estimate
    among equal reduced costs. That is not always the
    lexicographically smallest permutation: with x, y orthogonal,
    ``pit([x, 2*x], [y, x])`` ties at a total of 0 and returns (1, 0).
    Returns (permutation, mean score) where ests[permutation[i]] matches refs[i].
    """
    scores = _score_matrix(refs, ests, metric)[0]
    perm = _best_permutation(scores)
    return perm, _mean_db(scores[np.arange(len(perm)), perm])


def _best_permutation(scores: np.ndarray) -> tuple[int, ...]:
    _, cols = max_weight_assignment(np.clip(scores, -INF_SUBSTITUTE_DB, INF_SUBSTITUTE_DB))
    return tuple(cols.tolist())  # the rows of a square matrix come back as 0..n-1


def sdr_improvement(refs, ests, mixture, metric: str = "sdr", permute: bool = True) -> SepReport:
    """Per-source metric and its improvement over scoring the raw mixture.

    The best permutation (under the same metric) is applied first unless
    ``permute`` is False. Improvement per source i is
    metric(ref_i, est_perm(i)) - metric(ref_i, mixture); matching infinities
    cancel to 0. ``AudioBuffer`` inputs, the mixture included, must share
    one sample rate, and every signal one length, even with ``permute`` False.
    """
    scores, baseline = _score_matrix(refs, ests, metric, full=permute, mixture=mixture)
    n = len(baseline)
    perm = _best_permutation(scores) if permute else tuple(range(n))
    per_sdr = [float(scores[i, perm[i]]) for i in range(n)]
    per_sdri = [0.0 if a == b and np.isinf(a) else a - b for a, b in zip(per_sdr, baseline)]
    return SepReport(tuple(per_sdr), _mean_db(per_sdr), tuple(per_sdri), _mean_db(per_sdri), perm)
