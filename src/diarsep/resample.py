"""Kaiser-windowed sinc FIR design and polyphase 8 kHz <-> 16 kHz conversion."""

import math
from dataclasses import dataclass

import numpy as np

from .audio import BLOCK, AudioBuffer
from .defaults import DEFAULT_STOPBAND_DB, DEFAULT_TRANSITION_FRAC, SUPPORTED_RATES
from .features import check_finite
from .workers import run_blocks


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR: odd-length symmetric float32 taps, at most BLOCK of them.

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
    if n_taps > BLOCK:  # keeps each block's float64 input slice within two blocks
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


def _convolve_block(x: np.ndarray, g: np.ndarray, offset: int, n_out: int, start: int) -> np.ndarray:
    """Return np.convolve(x, g)[offset + start : offset + stop], stop = min(start + BLOCK, n_out).

    Only the block's input slice, the block plus a (len(g) - 1)-sample halo,
    is converted to float64. The slice keeps at least len(g) samples when x
    has them and reaches the end of x when the block needs that end, so
    np.convolve forms every output from the same products, in the same order,
    as on all of x: the values are identical. An empty x convolves to zeros.
    """
    stop = min(start + BLOCK, n_out)
    if x.size == 0:
        return np.zeros(stop - start)
    lo = max(0, min(offset + start - (g.size - 1), x.size - g.size))
    hi = min(x.size, offset + stop)
    part = np.convolve(x[lo:hi].astype(np.float64), g)
    return part[offset + start - lo : offset + stop - lo]


def resample(audio: AudioBuffer, fs_out: int, fir: FirFilter | None = None) -> AudioBuffer:
    """Polyphase 1:2 / 2:1 rate conversion with group-delay compensation.

    Identity rate returns the input unchanged. Output length is
    round(len * fs_out / fs_in) with halves rounded up; the signal is
    zero-padded outside its support, so edge transients appear near the
    first and last (n_taps - 1) / 2 samples. Filtering runs in float64 on
    blocks of BLOCK outputs per phase, written straight into the float32
    result. Blocks run on one thread per usable CPU (``workers.run_blocks``);
    each is computed alone, so the result does not depend on the thread count.
    """
    fs_in = audio.sample_rate
    if fs_out == fs_in:
        return audio
    if (fs_in, fs_out) not in {(8000, 16000), (16000, 8000)}:
        raise ValueError(f"unsupported conversion {fs_in} -> {fs_out} Hz")
    if len(audio) == 0:
        return AudioBuffer(np.zeros(0, dtype=np.float32), fs_out)
    if fir is None:
        fir = design_kaiser_sinc(fs_in, fs_out)

    h = fir.taps.astype(np.float64)
    delay = (h.size - 1) // 2
    n = len(audio)
    # Polyphase: each output sample is one np.convolve phase of the even or
    # the odd taps; the phase and offset follow from the group delay. A
    # slice past the end of y is cut short, so a block of the wrong length
    # fails the assignment instead of leaving samples unset.
    x = audio.samples
    phases = []
    if fs_out > fs_in:
        # output 2i + r = convolve(x, h[p::2])[i + s] with delay + r = 2s + p
        y = np.empty(2 * n, dtype=np.float32)
        for r in (0, 1):
            s, p = divmod(delay + r, 2)
            phases.append((h[p::2], s, y[r::2]))

        def job(start):
            for g, s, phase in phases:
                phase[start : start + BLOCK] = _convolve_block(x, g, s, n, start)

        run_blocks(job, n)
    else:
        # output i = sum over p of convolve(x[q::2], h[p::2])[i + s] with
        # delay - p = 2s + q; the odd input phase is empty for a 1-sample input
        y = np.empty((n + 1) // 2, dtype=np.float32)  # round(n / 2), halves up
        for p in (0, 1):
            s, q = divmod(delay - p, 2)
            phases.append((x[q::2], h[p::2], s))

        def job(start):
            even, odd = (_convolve_block(xq, g, s, y.size, start) for xq, g, s in phases)
            y[start : start + BLOCK] = even + odd

        run_blocks(job, y.size)
    return AudioBuffer(y, fs_out)
