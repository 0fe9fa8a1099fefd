"""Kaiser-windowed sinc FIR design and polyphase 8 kHz <-> 16 kHz conversion."""

import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .features import check_finite

SUPPORTED_RATES = (8000, 16000)
DEFAULT_STOPBAND_DB = 80.0
DEFAULT_TRANSITION_FRAC = 0.05


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR: odd-length symmetric float32 taps.

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
    dw = transition_frac * pi at the lower rate. The windowed sinc is scaled
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
    n_taps = math.ceil((stopband_db - 7.95) / (2.285 * delta_omega))
    if n_taps % 2 == 0:
        n_taps += 1
    cutoff_hz = 0.5 * (1.0 - transition_frac) * lower

    m = np.arange(n_taps) - (n_taps - 1) / 2
    taps = np.sinc(2.0 * cutoff_hz / higher * m) * np.kaiser(n_taps, beta)
    ratio = 2.0 if fs_out > fs_in else 1.0
    taps = taps / taps.sum() * ratio
    taps = 0.5 * (taps + taps[::-1])  # force bit-exact symmetry
    return FirFilter(taps.astype(np.float32), cutoff_hz / higher, float(stopband_db))


def resample(audio: AudioBuffer, fs_out: int, fir: FirFilter | None = None) -> AudioBuffer:
    """Polyphase 1:2 / 2:1 rate conversion with group-delay compensation.

    Identity rate returns the input unchanged. Output length is
    round(len * fs_out / fs_in) with halves rounded up; the signal is
    zero-padded outside its support, so edge transients appear near the
    first and last (n_taps - 1) / 2 samples.
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
    # Polyphase: each output sample is one np.convolve phase of the even or
    # the odd taps; the phase and offset follow from the group delay.
    if fs_out > fs_in:
        # output 2i + r = convolve(x, h[p::2])[i + s] with delay + r = 2s + p
        x = audio.samples.astype(np.float64)
        y = np.empty(2 * x.size)
        for r in (0, 1):
            s, p = divmod(delay + r, 2)
            y[r::2] = np.convolve(x, h[p::2])[s : s + x.size]
    else:
        # output i = sum over p of convolve(x[q::2], h[p::2])[i + s] with
        # delay - p = 2s + q; the odd input phase is empty for a 1-sample input
        y = np.zeros((len(audio) + 1) // 2)  # round(n / 2), halves up
        for p in (0, 1):
            s, q = divmod(delay - p, 2)
            x = audio.samples[q::2].astype(np.float64)
            if x.size:
                y += np.convolve(x, h[p::2])[s : s + y.size]
    return AudioBuffer(y.astype(np.float32), fs_out)
