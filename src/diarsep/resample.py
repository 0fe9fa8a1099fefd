"""Kaiser-windowed sinc FIR design and 8 kHz <-> 16 kHz conversion by blocks of Toeplitz products."""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import BLOCK, AudioBuffer
from .defaults import DEFAULT_STOPBAND_DB, DEFAULT_TRANSITION_FRAC, SUPPORTED_RATES
from .features import check_finite
from .workers import Scratch, run_blocks, spans

# outputs per row of the Toeplitz product: on 2 vCPUs, 20 min of audio resampled
# fastest at 64 of 32, 64 and 128, in both directions
ROW = 64
# bytes of float64 scratch a worker is budgeted (windows, product and a span), so the rows
# per product follow from the tap count: 574 rows up, 252 down at the default 201
# taps, and never fewer than 2
SCRATCH_BYTES = 1 << 20


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR: odd-length symmetric float32 taps, at most BLOCK of them.

    The limit keeps the resampler's float64 Toeplitz matrix within 34 MB and
    a worker's scratch for two rows within 1.6 MB.

    nominal_cutoff is the sinc prototype cutoff as a fraction of the
    operating (higher) sample rate.
    """

    taps: np.ndarray
    nominal_cutoff: float
    stopband_db: float

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float32).reshape(-1)
        if taps.size % 2 == 0 or taps.size < 3:
            raise ValueError(f"tap count must be odd and >= 3, got {taps.size}")
        if taps.size > BLOCK:
            raise ValueError(f"tap count {taps.size} exceeds the limit of {BLOCK} (audio.BLOCK)")
        check_finite(taps, "taps")
        if not np.allclose(taps, taps[::-1], atol=1e-7, rtol=0):
            raise ValueError("taps must be symmetric (linear phase)")
        if not 0 < self.stopband_db < math.inf:
            raise ValueError(f"stopband_db must be finite and positive, got {self.stopband_db}")
        if not 0 < self.nominal_cutoff < 0.5:
            raise ValueError(f"nominal_cutoff must be in (0, 0.5), got {self.nominal_cutoff}")
        object.__setattr__(self, "taps", taps)


def design_kaiser_sinc(
    fs_in: int,
    fs_out: int,
    stopband_db: float = DEFAULT_STOPBAND_DB,
    transition_frac: float = DEFAULT_TRANSITION_FRAC,
) -> FirFilter:
    """Design the Kaiser-windowed sinc filter for one conversion direction.

    The sinc prototype cutoff is 0.5 * (1 - transition_frac) * min(fs_in, fs_out)
    Hz, the Kaiser shape follows beta = 0.1102 * (A - 8.7) for A > 50 dB and
    beta = 0.5842 * (A - 21)^0.4 + 0.07886 * (A - 21) for 40 <= A <= 50 dB, and
    the tap count is ceil((A - 7.95) / (2.285 * dw)) rounded up to odd with
    dw = transition_frac * pi at the lower rate; a count above BLOCK raises
    ValueError before anything is allocated. The windowed sinc is scaled
    to unit DC gain, then by the interpolation ratio (2 when upsampling, 1
    otherwise) so the DC gain matches the ratio.
    """
    if fs_in not in SUPPORTED_RATES or fs_out not in SUPPORTED_RATES:
        raise ValueError(f"unsupported rate pair ({fs_in}, {fs_out}); rates must be in {SUPPORTED_RATES}")
    if not (math.isfinite(stopband_db) and stopband_db >= 40):
        raise ValueError(f"stopband_db must be finite and >= 40, got {stopband_db}")
    if not 0 < transition_frac < 0.5:
        raise ValueError(f"transition_frac must be in (0, 0.5), got {transition_frac}")

    lower = min(fs_in, fs_out)
    higher = max(fs_in, fs_out)
    if stopband_db > 50:
        beta = 0.1102 * (stopband_db - 8.7)
    else:
        beta = 0.5842 * (stopband_db - 21) ** 0.4 + 0.07886 * (stopband_db - 21)
    delta_omega = transition_frac * math.pi
    n_taps = (stopband_db - 7.95) / (2.285 * delta_omega)
    if math.isfinite(n_taps):
        n_taps = math.ceil(n_taps)
        if n_taps % 2 == 0:
            n_taps += 1
    if n_taps > BLOCK:  # keeps the (up to taps + 126, ROW) Toeplitz matrix within 34 MB
        raise ValueError(
            f"stopband_db={stopband_db} and transition_frac={transition_frac} need {n_taps} taps, "
            f"more than the limit of {BLOCK} (audio.BLOCK)"
        )
    cutoff_hz = 0.5 * (1.0 - transition_frac) * lower

    m = np.arange(n_taps) - (n_taps - 1) / 2
    taps = np.sinc(2.0 * cutoff_hz / higher * m) * np.kaiser(n_taps, beta)
    ratio = 2.0 if fs_out > fs_in else 1.0
    taps = taps / taps.sum() * ratio
    taps = 0.5 * (taps + taps[::-1])  # force bit-exact symmetry
    return FirFilter(taps.astype(np.float32), cutoff_hz / higher, float(stopband_db))


def _toeplitz(h: np.ndarray, up: int, down: int) -> tuple[int, np.ndarray]:
    """Return (base, T): row 0 of outputs reads input samples [base, base + W); T is (W, ROW) float64.

    Output m is sum_k h[k] u[m * down + delay - k], u being the input
    zero-stuffed by ``up``, so output p of row 0 takes input sample base + j
    with weight T[j, p] = h[p * down + delay - (base + j) * up], 0 where that
    index falls outside the taps. Row f reads the W samples from
    f * ROW * down / up + base on, with the same T.
    """
    delay = (h.size - 1) // 2
    base = -(delay // up)  # ceil((delay - (taps - 1)) / up): the earliest sample row 0 reads
    width = ((ROW - 1) * down + delay) // up - base + 1
    index = np.arange(ROW) * down + delay - (base + np.arange(width)[:, None]) * up
    # index runs from -lo < 0 to beyond the last tap: read the taps with zeros on both sides
    lo = -int(index.min())
    index += lo
    return base, np.pad(h, (lo, int(index.max()) + 1 - lo - h.size))[index]


def _rows(source, base: int, t: np.ndarray, step: int, first: int, rows: int, scratch: Scratch) -> np.ndarray:
    """Return the float64 (rows, ROW) product of output rows [first, first + rows): their windows times ``t``.

    Row f reads samples [f * step + base, f * step + base + W) of the block
    source as stored (``source.read``), zero outside it. One read gives the
    rows' span, padded in scratch only where it reaches past an end of the
    signal. Its windows go straight into float64 scratch, and one np.matmul
    multiplies them by ``t``.
    """
    width = t.shape[0]
    start, n = first * step + base, (rows - 1) * step + width
    lo, hi = max(start, 0), min(start + n, len(source))
    span = source.read(lo, max(lo, hi))
    if (lo, hi) != (start, start + n):  # the rows reach past an end of the signal: pad it with zeros
        padded = scratch.get("padded", (n,), span.dtype)
        padded[: lo - start] = 0
        padded[lo - start : hi - start] = span
        padded[hi - start :] = 0
        span = padded
    windows = scratch.get("windows", (rows, width))
    np.copyto(windows, sliding_window_view(span, width)[::step])
    return np.matmul(windows, t, out=scratch.get("product", (rows, ROW)))


def resampled_length(n: int, fs_in: int, fs_out: int) -> int:
    """Samples that n samples at fs_in make at fs_out: round(n * fs_out / fs_in), halves up.

    Raises ValueError for a conversion other than the identity, 8000 -> 16000
    and 16000 -> 8000 Hz.
    """
    if fs_out == fs_in:
        return n
    if (fs_in, fs_out) not in {(8000, 16000), (16000, 8000)}:
        raise ValueError(f"unsupported conversion {fs_in} -> {fs_out} Hz")
    return 2 * n if fs_out > fs_in else (n + 1) // 2


def resample_blocks(source, fs_out: int, fir: FirFilter | None, sink) -> None:
    """Hand ``sink(start, samples)`` every output sample of ``source`` converted to fs_out, once.

    ``source`` is a block source: len(), sample_rate, scale and read(lo, hi),
    which gives samples as stored, read(lo, hi) * scale being the signal:
    an AudioBuffer, or an ``audio.WavSource`` of int16 PCM. ``samples`` are
    the float32 outputs [start, start + len(samples)), in a scratch buffer
    that the call's thread reuses once ``sink`` returns. The calls come from
    the jobs of ``workers.run_blocks``, in no fixed order. The outputs form
    rows of ROW; each row's input window times one float64 Toeplitz matrix
    of the taps gives the row, rounded once to float32. The matrix holds
    the taps times ``scale``, a power of two, so a window of stored samples
    gives the product of the scaled ones bit for bit. Each job runs one
    np.matmul of the same row count on its own scratch, so the samples
    depend neither on the thread count nor on how jobs split the rows. Each
    job checks the samples it hands on, and no other, for finiteness.
    """
    fs_in, n = source.sample_rate, len(source)
    n_out = resampled_length(n, fs_in, fs_out)
    if n_out == 0:
        return
    # at the identity, one tap of 1.0 makes the Toeplitz matrix the ROW x ROW identity times scale
    taps = np.ones(1) if fs_out == fs_in else (fir or design_kaiser_sinc(fs_in, fs_out)).taps.astype(np.float64)
    gcd = math.gcd(fs_in, fs_out)
    up, down = fs_out // gcd, fs_in // gcd
    base, t = _toeplitz(taps * source.scale, up, down)
    step = ROW * down // up
    n_rows = -(-n_out // ROW)
    # every product has the same row count, at least 2 unless there is one row:
    # numpy sends a 1-row matmul to gemv, which rounds differently from gemm
    rows = min(n_rows, max(2, SCRATCH_BYTES // (8 * (t.shape[0] + ROW + step))))
    firsts = [block.start for block in spans(n_rows, rows)]  # the last job overlaps the one before it
    scratch = Scratch()

    def job(start):
        first = firsts[start // rows]
        product = _rows(source, base, t, step, first, rows, scratch).reshape(-1)
        # the job hands on its own outputs only: those of rows [start, start + rows)
        own = product[(start - first) * ROW : min((start + rows) * ROW, n_out) - first * ROW]
        samples = scratch.get("samples", own.shape, np.float32)
        # an output beyond float32 range rounds to inf, which the check reports;
        # errstate is per thread, so a caller's setting would miss pool workers
        with np.errstate(over="ignore"):
            np.copyto(samples, own, casting="same_kind")
        check_finite(samples, "audio samples")
        sink(start * ROW, samples)

    run_blocks(job, n_rows, rows)


def resample(audio: AudioBuffer, fs_out: int, fir: FirFilter | None = None) -> AudioBuffer:
    """1:2 / 2:1 rate conversion with group-delay compensation: ``resample_blocks`` into one array.

    Identity rate returns the input unchanged. Output length is
    ``resampled_length``; the signal is zero-padded outside its support, so
    edge transients appear near the first and last (n_taps - 1) / 2 samples.
    """
    if fs_out == audio.sample_rate:
        return audio
    y = np.empty(resampled_length(len(audio), audio.sample_rate, fs_out), dtype=np.float32)

    def sink(start, samples):
        y[start : start + samples.size] = samples

    resample_blocks(audio, fs_out, fir, sink)
    return AudioBuffer._from_samples(y, int(fs_out))
