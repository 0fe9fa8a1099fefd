import re

import numpy as np
import pytest
from scipy.signal import firwin

from diarsep import AudioBuffer, FirFilter, design_kaiser_sinc, resample
from diarsep.audio import BLOCK
from diarsep.resample import _convolve_blocks
from oracles import polyphase_oracle, resample_oracle


def snr_db(ref, est):
    err = np.asarray(ref, float) - np.asarray(est, float)
    return 10.0 * np.log10(np.dot(ref, ref) / np.dot(err, err))


def central(x, frac=0.8):
    n = len(x)
    margin = int(n * (1 - frac) / 2)
    return x[margin : n - margin]


def test_kaiser_beta_and_tap_formula():
    # A = 80 dB: beta = 0.1102 * 71.3, N = ceil(72.05 / (2.285 * 0.05 * pi)) -> 201
    beta = 0.1102 * (80.0 - 8.7)
    assert beta == pytest.approx(7.85726, abs=1e-5)
    fir = design_kaiser_sinc(8000, 16000, stopband_db=80.0, transition_frac=0.05)
    assert fir.taps.size == 201
    expected = 2.0 * firwin(201, 3800.0, window=("kaiser", beta), fs=16000)
    assert np.allclose(fir.taps, expected.astype(np.float32), atol=1e-7)


def test_larger_transition_means_fewer_taps():
    n_narrow = design_kaiser_sinc(8000, 16000, transition_frac=0.05).taps.size
    n_wide = design_kaiser_sinc(8000, 16000, transition_frac=0.1).taps.size
    assert n_wide < n_narrow


def test_dc_gain_equals_interpolation_ratio():
    for fs_in, fs_out, ratio in ((8000, 16000, 2.0), (16000, 8000, 1.0)):
        taps = design_kaiser_sinc(fs_in, fs_out).taps.astype(np.float64)
        # direct DFT at omega = 0
        dc = abs(np.dot(taps, np.exp(-1j * 0.0 * np.arange(taps.size))))
        assert dc == pytest.approx(ratio, abs=1e-3)


def test_design_validation():
    with pytest.raises(ValueError, match="unsupported rate pair"):
        design_kaiser_sinc(44100, 8000)
    with pytest.raises(ValueError, match="stopband"):
        design_kaiser_sinc(8000, 16000, stopband_db=30)
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"stopband_db must be finite and >= 40, got {value}"):
            design_kaiser_sinc(8000, 16000, stopband_db=value)
    with pytest.raises(ValueError, match="transition_frac"):
        design_kaiser_sinc(8000, 16000, transition_frac=0.7)


def test_filter_validation():
    with pytest.raises(ValueError, match="odd"):
        FirFilter(np.ones(4, np.float32), 0.25, 80.0)
    with pytest.raises(ValueError, match="symmetric"):
        FirFilter(np.array([0.1, 0.2, 0.3], np.float32), 0.25, 80.0)
    taps = np.array([0.25, 0.5, 0.25], np.float32)
    for value in (0.0, -3.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"stopband_db must be finite and positive, got {value}"):
            FirFilter(taps, 0.25, value)
    for value in (0.0, 0.5, -0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=re.escape(f"nominal_cutoff must be in (0, 0.5), got {value}")):
            FirFilter(taps, value, 80.0)


def test_identity_returns_input_unchanged():
    buf = AudioBuffer(np.arange(10, dtype=np.float32) / 100, 8000)
    out = resample(buf, 8000)
    assert out is buf


def test_empty_input():
    out = resample(AudioBuffer(np.zeros(0, np.float32), 8000), 16000)
    assert len(out) == 0
    assert out.sample_rate == 16000


def test_unsupported_ratio():
    with pytest.raises(ValueError, match="unsupported conversion"):
        resample(AudioBuffer(np.zeros(8, np.float32), 44100), 8000)


def test_sine_upsample_snr():
    n = 4000
    x = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(n) / 8000)
    up = resample(AudioBuffer(x.astype(np.float32), 8000), 16000)
    assert len(up) == 2 * n
    ref = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(2 * n) / 16000)
    assert snr_db(central(ref), central(up.samples.astype(np.float64))) >= 80.0


def bandlimited_noise(rng, n, rate, max_hz):
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    cut = int(max_hz / rate * n)
    spectrum[1:cut] = rng.standard_normal(cut - 1) + 1j * rng.standard_normal(cut - 1)
    noise = np.fft.irfft(spectrum, n)
    return (0.5 * noise / np.abs(noise).max()).astype(np.float32)


def test_round_trip_snr():
    rng = np.random.default_rng(42)
    n = 8000
    x = bandlimited_noise(rng, n, 8000, 3400.0)
    buf = AudioBuffer(x, 8000)
    back = resample(resample(buf, 16000), 8000)
    assert len(back) == n
    assert snr_db(central(x.astype(np.float64)), central(back.samples.astype(np.float64))) >= 60.0


def test_linearity():
    rng = np.random.default_rng(11)
    x = AudioBuffer(rng.uniform(-0.4, 0.4, 3000).astype(np.float32), 8000)
    y = AudioBuffer(rng.uniform(-0.4, 0.4, 3000).astype(np.float32), 8000)
    a, b = 1.7, -0.6
    combo = AudioBuffer(a * x.samples + b * y.samples, 8000)
    lhs = resample(combo, 16000).samples.astype(np.float64)
    rhs = a * resample(x, 16000).samples.astype(np.float64) + b * resample(y, 16000).samples.astype(np.float64)
    assert np.linalg.norm(lhs - rhs) <= 1e-5 * np.linalg.norm(rhs)


def test_output_length_formula_exhaustive():
    up_fir = design_kaiser_sinc(8000, 16000)
    down_fir = design_kaiser_sinc(16000, 8000)
    for n in range(0, 1001):
        up = resample(AudioBuffer(np.zeros(n, np.float32), 8000), 16000, up_fir)
        assert len(up) == int(np.floor(n * 2.0 + 0.5))
        down = resample(AudioBuffer(np.zeros(n, np.float32), 16000), 8000, down_fir)
        assert len(down) == int(np.floor(n * 0.5 + 0.5))


def test_downsample_with_odd_group_delay_filter():
    # transition 0.0979 yields 103 taps, so (N-1)/2 = 51 is odd and the
    # decimator has to realign onto the other polyphase branch
    fir = design_kaiser_sinc(16000, 8000, transition_frac=0.0979)
    assert fir.taps.size == 103
    assert (fir.taps.size - 1) // 2 % 2 == 1
    n = 8000
    x = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(n) / 16000)
    down = resample(AudioBuffer(x.astype(np.float32), 16000), 8000, fir)
    assert len(down) == n // 2
    ref = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(n // 2) / 8000)
    assert snr_db(central(ref), central(down.samples.astype(np.float64))) >= 60.0


def test_tone_frequency_preserved():
    n = 4000
    x = 0.5 * np.sin(2 * np.pi * 700 * np.arange(n) / 8000)
    peak_in = np.argmax(np.abs(np.fft.rfft(x)))
    assert peak_in * 8000 / n == 700.0
    up = resample(AudioBuffer(x.astype(np.float32), 8000), 16000)
    peak_out = np.argmax(np.abs(np.fft.rfft(up.samples)))
    assert peak_out * 16000 / len(up) == 700.0

    down = resample(up, 8000)
    peak_back = np.argmax(np.abs(np.fft.rfft(down.samples)))
    assert peak_back * 8000 / len(down) == 700.0


def test_resample_matches_upfirdn_oracle():
    rng = np.random.default_rng(5)
    lengths = list(range(8)) + [100, 101, 1001, 4001]
    for stopband_db in (40.0, 45.0, 60.0, 80.0, 100.0):
        for transition_frac in (0.02, 0.05, 0.2):
            for fs_in, fs_out in ((8000, 16000), (16000, 8000)):
                fir = design_kaiser_sinc(fs_in, fs_out, stopband_db, transition_frac)
                for n in lengths:
                    buf = AudioBuffer(rng.uniform(-0.9, 0.9, n).astype(np.float32), fs_in)
                    got = resample(buf, fs_out, fir)
                    want = resample_oracle(buf, fs_out, fir)
                    assert got.sample_rate == want.sample_rate == fs_out
                    assert len(got) == len(want)
                    np.testing.assert_allclose(got.samples, want.samples, rtol=0, atol=1e-6)


def test_blocks_match_whole_signal_oracle_bit_for_bit():
    """Blockwise filtering equals the whole-signal convolutions bit for bit, across block edges.

    Output counts of BLOCK - 1, BLOCK and BLOCK + 1 per phase put a block edge
    at, just before and just after the last output; 2 * BLOCK + taps puts the
    halo of a middle block against both ends of a short last one.
    """
    rng = np.random.default_rng(9)
    for stopband_db in (40.0, 45.0, 60.0, 80.0, 100.0):
        for transition_frac in (0.02, 0.05, 0.2):
            for fs_in, fs_out in ((8000, 16000), (16000, 8000)):
                fir = design_kaiser_sinc(fs_in, fs_out, stopband_db, transition_frac)
                outputs = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + fir.taps.size)
                if fs_out > fs_in:
                    lengths = list(range(1, 8)) + list(outputs)
                else:  # (n + 1) // 2 outputs: both input parities per output count
                    lengths = list(range(1, 8)) + [2 * k - p for k in outputs for p in (0, 1)]
                for n in lengths:
                    x = rng.uniform(-0.9, 0.9, n).astype(np.float32)
                    x[n // 3 : n // 3 + 40] = 0.0  # silence: the sign of zero outputs
                    buf = AudioBuffer(x, fs_in)
                    got = resample(buf, fs_out, fir)
                    want = polyphase_oracle(buf, fs_out, fir)
                    assert got.sample_rate == want.sample_rate == fs_out
                    # bit patterns, so -0.0 and 0.0 differ too
                    np.testing.assert_array_equal(got.samples.view(np.int32), want.samples.view(np.int32))


def test_convolve_blocks_equal_whole_convolution_in_float64():
    # float64 before the float32 rounding: a last block whose slice fell
    # short of the taps would sum its products in another order, and that
    # difference rarely survives rounding to float32
    rng = np.random.default_rng(10)
    g = rng.standard_normal(101)
    for n in (1, 7, 100, 101, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 50, 2 * BLOCK + 101):
        x = rng.uniform(-0.9, 0.9, n).astype(np.float32)
        whole = np.convolve(x.astype(np.float64), g)
        for offset in (0, 1, 50, 100):
            n_out = min(n, whole.size - offset)
            blocks = [block for _, block in _convolve_blocks(x, g, offset, n_out)]
            np.testing.assert_array_equal(np.concatenate(blocks), whole[offset : offset + n_out])
