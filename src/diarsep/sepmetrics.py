"""Separation scoring: SDR, SI-SDR, SDR improvement, permutation-invariant matching."""

import itertools
from dataclasses import dataclass

import numpy as np

from .assignment import max_weight_assignment
from .audio import AudioBuffer
from .features import check_finite

INF_SUBSTITUTE_DB = 300.0
EXHAUSTIVE_MAX_SOURCES = 6


@dataclass(frozen=True)
class SepReport:
    per_source_sdr: tuple[float, ...]
    mean_sdr: float
    per_source_sdri: tuple[float, ...]
    mean_sdri: float
    permutation: tuple[int, ...]


def _signal(x, name: str) -> np.ndarray:
    """``x`` as a flat float64 array; ValueError unless it is finite."""
    if isinstance(x, AudioBuffer):  # its samples were checked finite when it was built
        return x.samples.astype(np.float64)
    signal = np.asarray(x, dtype=np.float64).reshape(-1)
    check_finite(signal, name)
    return signal


def _check_pair(ref: np.ndarray, est: np.ndarray) -> None:
    if ref.size != est.size:
        raise ValueError(f"length mismatch: {ref.size} vs {est.size}")
    if ref.size == 0:
        raise ValueError("signals must be non-empty")


def sdr(ref, est) -> float:
    """Source-to-distortion ratio: 10*log10(sum(s^2) / sum((s - s_hat)^2)) dB.

    A zero residual yields +inf; an all-zero reference is an error.
    """
    return _sdr(_signal(ref, "reference"), _signal(est, "estimate"))


def _sdr(s: np.ndarray, s_hat: np.ndarray) -> float:
    _check_pair(s, s_hat)
    ref_energy = float(np.dot(s, s))
    if ref_energy == 0.0:
        raise ValueError("reference signal is all zeros")
    residual = s - s_hat
    res_energy = float(np.dot(residual, residual))
    if res_energy == 0.0:
        return float("inf")
    return 10.0 * np.log10(ref_energy / res_energy)


def si_sdr(ref, est) -> float:
    """Scale-invariant SDR: the reference is rescaled to the least-squares projection.

    s_t = (<s_hat, s> / ||s||^2) * s; returns 10*log10(||s_t||^2 / ||s_hat - s_t||^2).
    An estimate orthogonal to the reference yields -inf, a zero residual +inf.
    """
    return _si_sdr(_signal(ref, "reference"), _signal(est, "estimate"))


def _si_sdr(s: np.ndarray, s_hat: np.ndarray) -> float:
    _check_pair(s, s_hat)
    ref_energy = float(np.dot(s, s))
    if ref_energy == 0.0:
        raise ValueError("reference signal is all zeros")
    projection = float(np.dot(s_hat, s))
    if projection == 0.0:
        return float("-inf")
    target = (projection / ref_energy) * s
    residual = s_hat - target
    target_energy = float(np.dot(target, target))
    res_energy = float(np.dot(residual, residual))
    if res_energy == 0.0:
        return float("inf")
    return 10.0 * np.log10(target_energy / res_energy)


# metric name (with the CLI spelling "si-sdr") -> function of two float64 signals
_METRICS = {"sdr": _sdr, "si_sdr": _si_sdr, "si-sdr": _si_sdr}


def _metric_fn(metric: str):
    try:
        return _METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}; expected 'sdr' or 'si_sdr'") from None


def _score_matrix(refs, ests, metric: str, full: bool = True):
    """Returns (metric fn, float64 references, scores) with scores[i, j] = metric(refs[i], ests[j]).

    Every signal is converted to float64 once. With ``full`` False only the
    diagonal is scored and the other entries are NaN.
    """
    if len(refs) != len(ests):
        raise ValueError(f"count mismatch: {len(refs)} references vs {len(ests)} estimates")
    if not refs:
        raise ValueError("need at least one source")
    fn = _metric_fn(metric)
    refs = [_signal(r, f"reference {i}") for i, r in enumerate(refs)]
    ests = [_signal(e, f"estimate {j}") for j, e in enumerate(ests)]
    n = len(refs)
    scores = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(n) if full else (i,):
            scores[i, j] = fn(refs[i], ests[j])
    return fn, refs, scores


def _finite(matrix: np.ndarray) -> np.ndarray:
    return np.clip(matrix, -INF_SUBSTITUTE_DB, INF_SUBSTITUTE_DB)


def _mean_db(values) -> float:
    values = list(values)
    if any(v == float("inf") for v in values):
        return float("inf")
    if any(v == float("-inf") for v in values):
        return float("-inf")
    return float(np.mean(values))


def pit(refs, ests, metric: str = "si_sdr", method: str = "auto") -> tuple[tuple[int, ...], float]:
    """Best reference<->estimate matching: the permutation maximizing the mean metric.

    Exhaustive search for up to 6 sources, optimal assignment above that
    (method="exhaustive" / "hungarian" forces one). Infinite pairwise scores
    are substituted by +-300 dB during selection; a non-finite sample in any
    signal raises ValueError. Exhaustive ties resolve to the lexicographically
    smallest permutation. The assignment path returns the optimum that its
    solver's order reaches first (``assignment.max_weight_assignment``): the
    references join in index order, and each augmenting-path search takes the
    lowest-index estimate among equal reduced costs. Returns (permutation,
    mean score) where ests[permutation[i]] matches refs[i].
    """
    scores = _score_matrix(refs, ests, metric)[2]
    perm = _best_permutation(scores, method)
    return perm, _mean_db(scores[np.arange(len(perm)), perm])


def _best_permutation(scores: np.ndarray, method: str) -> tuple[int, ...]:
    n = len(scores)
    selectable = _finite(scores)
    if method == "auto":
        method = "exhaustive" if n <= EXHAUSTIVE_MAX_SOURCES else "hungarian"
    if method == "exhaustive":
        best_perm = None
        best_score = -np.inf
        for perm in itertools.permutations(range(n)):
            score = selectable[np.arange(n), perm].mean()
            if score > best_score:
                best_score = score
                best_perm = perm
    elif method == "hungarian":
        rows, cols = max_weight_assignment(selectable)
        best_perm = tuple(int(c) for c in cols[np.argsort(rows)])
    else:
        raise ValueError(f"unknown method {method!r}")
    return tuple(best_perm)


def sdr_improvement(refs, ests, mixture, metric: str = "sdr", permute: bool = True) -> SepReport:
    """Per-source metric and its improvement over scoring the raw mixture.

    The best permutation (under the same metric) is applied first unless
    ``permute`` is False. Improvement per source i is
    metric(ref_i, est_perm(i)) - metric(ref_i, mixture); matching infinities
    cancel to 0.
    """
    fn, signals, scores = _score_matrix(refs, ests, metric, full=permute)
    n = len(signals)
    perm = _best_permutation(scores, "auto") if permute else tuple(range(n))
    per_sdr = [float(scores[i, perm[i]]) for i in range(n)]
    mix = _signal(mixture, "mixture")
    baseline = [fn(signals[i], mix) for i in range(n)]
    per_sdri = [0.0 if a == b and np.isinf(a) else a - b for a, b in zip(per_sdr, baseline)]
    return SepReport(
        tuple(per_sdr),
        _mean_db(per_sdr),
        tuple(per_sdri),
        _mean_db(per_sdri),
        perm,
    )
