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


def _energy_and_projection(s: np.ndarray, s_hat: np.ndarray) -> tuple[float, float]:
    return _dot(s, s), _dot(s_hat, s)


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


def _sdr_scores(signals: list[np.ndarray], pairs: list[tuple[int, int]]) -> list:
    """SDR of each (reference, estimate) index pair into the equal-length ``signals``, or its ValueError.

    One pass: the energy of each reference and of each pair's residual.
    """
    refs = sorted({i for i, _ in pairs})

    def partials(b):
        return [
            *_energies(b[i] for i in refs),
            *_energies(b[i] - b[j] for i, j in pairs),
        ]

    sums = _block_sums(signals, partials)
    ref_sums = dict(zip(refs, _pairs_of(sums[: 2 * len(refs)])))
    res_sums = _pairs_of(sums[2 * len(refs) :])

    def score(i, j, res_energy, res_nonzero):
        ref_energy, ref_nonzero = ref_sums[i]
        _check_energies(ref_energy, res_energy)
        if not ref_nonzero:
            raise ValueError("reference signal is all zeros")
        if not res_nonzero:
            return float("inf")
        return _ratio_db(ref_energy, res_energy, signals, lambda b: [b[i], b[i] - b[j]])

    return [_outcome(score, i, j, *res) for (i, j), res in zip(pairs, res_sums)]


def _si_sdr_scores(signals: list[np.ndarray], pairs: list[tuple[int, int]]) -> list:
    """SI-SDR of each (reference, estimate) index pair into the equal-length ``signals``, or its ValueError.

    A first pass takes each reference's energy and each pair's projection
    <s_hat, s>. Where either is below float64's normal range, a peak pass and
    a second projection pass rescale the pair's signals to a unit peak, which
    leaves SI-SDR unchanged. A last pass takes the energies of each pair's
    target alpha * s and residual s_hat - alpha * s.
    """
    refs = sorted({i for i, _ in pairs})
    sums = _block_sums(
        signals, lambda b: [*_energies(b[i] for i in refs), *(_dot(b[j], b[i]) for i, j in pairs)]
    )
    ref_sums = dict(zip(refs, _pairs_of(sums[: 2 * len(refs)])))
    energies = [ref_sums[i][0] for i, _ in pairs]
    projections = sums[2 * len(refs) :]
    outcomes = [None] * len(pairs)
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
        k for k in range(len(pairs)) if outcomes[k] is None and min(energies[k], abs(projections[k])) < _TINY
    ]
    if rescaled:
        # either sum may have underflowed: unit-peak signals leave SI-SDR unchanged
        peaks = _peak_exponents(signals, lambda b: b)
        exponents.update((k, (peaks[pairs[k][0]], peaks[pairs[k][1]])) for k in rescaled)
        sums = _block_sums(
            signals, lambda b: [v for k in rescaled for v in _energy_and_projection(*units(b, k))]
        )
        for k, (energy, projection) in zip(rescaled, _pairs_of(sums)):
            energies[k], projections[k] = energy, projection
            if projection == 0.0:
                outcomes[k] = float("-inf")
    alphas = {k: projections[k] / energies[k] for k in range(len(pairs)) if outcomes[k] is None}
    if not alphas:
        return outcomes

    def target_and_residual(b, k):
        """Yields the pair's target block, then the residual block written over it: one temporary."""
        s, s_hat = units(b, k)
        target = alphas[k] * s
        yield target
        yield np.subtract(s_hat, target, out=target)

    sums = _block_sums(signals, lambda b: [v for k in alphas for v in _energies(target_and_residual(b, k))])

    def score(k, target_energy, target_nonzero, res_energy, res_nonzero):
        _check_energies(target_energy, res_energy)
        if not res_nonzero:
            return float("inf")
        if not target_nonzero:  # a projection coefficient below float64 range
            raise ValueError("signal energy underflows float64")
        return _ratio_db(target_energy, res_energy, signals, lambda b: target_and_residual(b, k))

    for n, k in enumerate(alphas):
        outcomes[k] = _outcome(score, k, *sums[4 * n : 4 * n + 4])
    return outcomes


# metric name (with the CLI spelling "si-sdr") -> scorer of index pairs into equal-length signals
_SCORERS = {"sdr": _sdr_scores, "si_sdr": _si_sdr_scores, "si-sdr": _si_sdr_scores}


def _scorer(metric: str):
    try:
        return _SCORERS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; expected 'sdr' or 'si_sdr'") from None


def _pair_scores(scorer, refs: list[np.ndarray], ests: list[np.ndarray], pairs) -> list:
    """scorer's value of refs[i] against ests[j] for each (i, j) in pairs, or the ValueError it raises.

    The pairs of one length share their passes, so each signal is converted
    to float64 once per block and pass, not once per pair.
    """
    outcomes = [None] * len(pairs)
    groups = {}  # length -> pair indices
    for k, (i, j) in enumerate(pairs):
        if refs[i].size != ests[j].size:
            outcomes[k] = ValueError(f"length mismatch: {refs[i].size} vs {ests[j].size}")
        elif refs[i].size == 0:
            outcomes[k] = ValueError("signals must be non-empty")
        else:
            groups.setdefault(refs[i].size, []).append(k)
    for group in groups.values():
        slots = {}  # (0, i) for refs[i], (1, j) for ests[j] -> position in the group's signals
        local = [(slots.setdefault((0, i), len(slots)), slots.setdefault((1, j), len(slots)))
                 for i, j in (pairs[k] for k in group)]
        signals = [(refs, ests)[side][index] for side, index in slots]
        for k, outcome in zip(group, scorer(signals, local)):
            outcomes[k] = outcome
    return outcomes


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
    return _score_pair(_sdr_scores, ref, est)


def si_sdr(ref, est) -> float:
    """Scale-invariant SDR: the reference is rescaled to the least-squares projection.

    s_t = (<s_hat, s> / ||s||^2) * s; returns 10*log10(||s_t||^2 / ||s_hat - s_t||^2).
    An estimate orthogonal to the reference yields -inf, a zero residual +inf;
    a signal energy beyond float64 range is an error. Signals whose energy
    or projection is too small for float64 are rescaled to a unit peak
    first, which leaves the ratio unchanged.
    """
    return _score_pair(_si_sdr_scores, ref, est)


def _score_pair(scorer, ref, est) -> float:
    refs, ests = [_signal(ref, "reference")], [_signal(est, "estimate")]
    return _values(_pair_scores(scorer, refs, ests, [(0, 0)]))[0]


def _score_matrix(refs, ests, metric: str, full: bool = True, mixtures=()):
    """(scores, baseline): scores[i, j] = metric(refs[i], ests[j]), baseline[i] = metric(refs[i], mixture).

    The matrix and the baseline are scored in one set of blockwise passes,
    so each signal is converted to float64 once per block and pass. The
    ``AudioBuffer``s among the signals and ``mixture`` must share one sample
    rate; plain arrays carry none. With ``full`` False only the diagonal is
    scored and the other entries are NaN. ``mixtures`` holds the mixture, or
    nothing for an empty baseline. A matrix entry's error is raised before
    the mixture's.
    """
    if len(refs) != len(ests):
        raise ValueError(f"count mismatch: {len(refs)} references vs {len(ests)} estimates")
    if not refs:
        raise ValueError("need at least one source")
    rates = {x.sample_rate for x in (*refs, *ests, *mixtures) if isinstance(x, AudioBuffer)}
    if len(rates) > 1:
        raise ValueError(f"inputs disagree on sample rate: {sorted(rates)}")
    scorer = _scorer(metric)
    refs = [_signal(r, f"reference {i}") for i, r in enumerate(refs)]
    ests = [_signal(e, f"estimate {j}") for j, e in enumerate(ests)]
    n = len(refs)
    pairs = [(i, j) for i in range(n) for j in (range(n) if full else (i,))]
    n_matrix = len(pairs)
    mixture_error = None
    for mixture in mixtures:
        try:
            ests.append(_signal(mixture, "mixture"))
            pairs += [(i, n) for i in range(n)]
        except ValueError as exc:
            mixture_error = exc
    outcomes = _pair_scores(scorer, refs, ests, pairs)
    scores = np.full((n, n), np.nan)
    for (i, j), value in zip(pairs, _values(outcomes[:n_matrix])):
        scores[i, j] = value
    if mixture_error is not None:
        raise mixture_error
    return scores, _values(outcomes[n_matrix:])


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
    sample in any signal, or ``AudioBuffer``s of different sample rates,
    raise ValueError. Among permutations of exactly equal substituted
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
    one sample rate.
    """
    scores, baseline = _score_matrix(refs, ests, metric, full=permute, mixtures=[mixture])
    n = len(baseline)
    perm = _best_permutation(scores) if permute else tuple(range(n))
    per_sdr = [float(scores[i, perm[i]]) for i in range(n)]
    per_sdri = [0.0 if a == b and np.isinf(a) else a - b for a, b in zip(per_sdr, baseline)]
    return SepReport(tuple(per_sdr), _mean_db(per_sdr), tuple(per_sdri), _mean_db(per_sdri), perm)
