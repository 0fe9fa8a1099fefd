import hashlib
import importlib
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.signal import firwin

from diarsep import AudioBuffer, FirFilter, design_kaiser_sinc, resample, write_wav
from diarsep.audio import BLOCK
from diarsep.cli import main
from diarsep.features import check_finite
from diarsep.resample import ROW, SCRATCH_BYTES, _rows, _toeplitz
from diarsep.workers import Scratch
from diarsep.workers import run_blocks as _run_blocks
from oracles import polyphase_oracle, resample_oracle, toeplitz_oracle, toeplitz_products


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


def test_tap_count_is_limited_to_one_block():
    # 10^13 and 3 * 10^12 taps used to reach np.arange and fail with MemoryError
    for stopband_db, transition_frac, count in ((80.0, 1e-12, "10036860962601"), (1e12, 0.05, "2786082154761")):
        with pytest.raises(ValueError, match=f"need {count} taps, more than the limit of {BLOCK}"):
            design_kaiser_sinc(8000, 16000, stopband_db, transition_frac)
    with pytest.raises(ValueError, match=f"need inf taps, more than the limit of {BLOCK}"):
        design_kaiser_sinc(8000, 16000, 80.0, 1e-320)
    assert design_kaiser_sinc(8000, 16000, 80.0, 0.0011).taps.size == 9125
    assert FirFilter(np.ones(BLOCK - 1, np.float32), 0.25, 80.0).taps.size == BLOCK - 1
    with pytest.raises(ValueError, match=f"tap count {BLOCK + 1} exceeds the limit of {BLOCK}"):
        FirFilter(np.ones(BLOCK + 1, np.float32), 0.25, 80.0)


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


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_outputs_beyond_float32_range_give_one_value_error(monkeypatch, n_cpus):
    # warnings are errors in this suite, so numpy's overflow warning from the
    # float32 cast would surface instead of the finiteness error
    cpus(monkeypatch, n_cpus)
    loud = AudioBuffer(np.full(3 * BLOCK, 3e38, np.float32), 8000)
    with pytest.raises(ValueError, match="audio samples must be finite"):
        resample(loud, 16000)


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


def assert_within_one_float32_spacing(got, want):
    """Check that float32 results of the same float64 products, summed in two orders, differ by at most one spacing.

    The two float64 sums differ by at most about 2 * taps * 2**-53 * sum |h x|,
    under 1e-12 for every filter and input here (taps <= 641, sum |h| < 3,
    |x| < 1): far below a float32 spacing unless the output is near zero. So
    the float32 roundings differ by at most one spacing, plus that float64
    amount for an output near zero.
    """
    got, want = got.samples, want.samples
    error = np.abs(got.astype(np.float64) - want.astype(np.float64))
    assert np.all(error <= np.spacing(np.abs(want)).astype(np.float64) + 1e-12)


def test_blocks_match_whole_signal_oracle_bit_for_bit():
    """Blockwise filtering equals the whole-signal Toeplitz product bit for bit, across block edges.

    Output counts of BLOCK - 1, BLOCK and BLOCK + 1 per phase put a block edge
    at, just before and just after the last output; 2 * BLOCK + taps puts the
    halo of a middle block against both ends of a short last one. The
    np.convolve order of the polyphase oracle stays within one float32 spacing.
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
                    want = toeplitz_oracle(buf, fs_out, fir)
                    assert got.sample_rate == want.sample_rate == fs_out
                    # bit patterns, so -0.0 and 0.0 differ too
                    np.testing.assert_array_equal(got.samples.view(np.int32), want.samples.view(np.int32))
                    assert_within_one_float32_spacing(got, polyphase_oracle(buf, fs_out, fir))


def test_job_products_equal_the_whole_signal_products_in_float64():
    # float64 before the float32 rounding, which hides most differences: a
    # product of any row count, at any first row the jobs use (the last one
    # overlapping the one before), equals those rows of the whole-signal
    # product, so its edge rows read the right zero-padded windows
    rng = np.random.default_rng(10)
    scratch = Scratch()
    for fs_in, fs_out in ((8000, 16000), (16000, 8000)):
        up, down = (2, 1) if fs_out > fs_in else (1, 2)
        step = ROW * down // up
        for fir in (design_kaiser_sinc(fs_in, fs_out), design_kaiser_sinc(fs_in, fs_out, 40.0, 0.2),
                    design_kaiser_sinc(fs_in, fs_out, transition_frac=0.0979)):
            base, t = _toeplitz(fir.taps.astype(np.float64), up, down)
            for n in (1, 7, 100, 101, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 50, 2 * BLOCK + 101):
                buf = AudioBuffer(rng.uniform(-0.9, 0.9, n).astype(np.float32), fs_in)
                whole = toeplitz_products(buf, fs_out, fir)
                n_rows = len(whole)
                for rows in sorted({min(n_rows, r) for r in (2, 5, 252, 574)}):
                    for start in range(0, n_rows, rows):
                        first = min(start, n_rows - rows)
                        got = _rows(buf, base, t, step, first, rows, scratch)
                        np.testing.assert_array_equal(got, whole[first : first + rows])


def cpus(monkeypatch, n):
    """Make the resampler see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_thread_starts(monkeypatch):
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    return started


def test_threaded_blocks_match_whole_signal_oracle_for_any_cpu_count(monkeypatch):
    # 11 jobs of 574 rows up, 13 of 252 rows down, the last overlapping the one
    # before; 1 CPU runs them all on the caller
    rng = np.random.default_rng(11)
    cases = [(8000, 16000, 3 * BLOCK + 17), (16000, 8000, 6 * BLOCK + 34), (16000, 8000, 6 * BLOCK + 35)]
    for n_cpus, n_threads in ((1, 0), (4, 3)):
        cpus(monkeypatch, n_cpus)
        started = count_thread_starts(monkeypatch)
        for fs_in, fs_out, n in cases:
            fir = design_kaiser_sinc(fs_in, fs_out)
            buf = AudioBuffer(rng.uniform(-0.9, 0.9, n).astype(np.float32), fs_in)
            got = resample(buf, fs_out, fir)
            want = toeplitz_oracle(buf, fs_out, fir)
            np.testing.assert_array_equal(got.samples.view(np.int32), want.samples.view(np.int32))
            assert_within_one_float32_spacing(got, polyphase_oracle(buf, fs_out, fir))
        assert len(started) == n_threads * len(cases)


def test_bits_do_not_depend_on_cpu_count_or_openblas_pool(monkeypatch):
    # a fresh interpreter per setting, since OpenBLAS reads OPENBLAS_NUM_THREADS
    # as numpy loads; unset, each worker's products run on OpenBLAS's own pool
    from test_cli import fresh_python

    script = (
        "import hashlib, os, sys\n"
        "import numpy as np\n"
        "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
        "from diarsep import AudioBuffer, resample\n"
        "x = np.random.default_rng(3).uniform(-0.9, 0.9, 100_003).astype(np.float32)\n"
        "digest = hashlib.sha256()\n"
        "for fs_in, fs_out in ((8000, 16000), (16000, 8000)):\n"
        "    digest.update(resample(AudioBuffer(x, fs_in), fs_out).samples.tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    x = np.random.default_rng(3).uniform(-0.9, 0.9, 100_003).astype(np.float32)
    want = hashlib.sha256()
    for fs_in, fs_out in ((8000, 16000), (16000, 8000)):
        want.update(toeplitz_oracle(AudioBuffer(x, fs_in), fs_out, design_kaiser_sinc(fs_in, fs_out)).samples.tobytes())
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    for env in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        for n_cpus in (1, 2, 4):
            child = fresh_python(script, str(n_cpus), env=env)
            assert (child.returncode, child.stderr) == (0, ""), (env, n_cpus)
            assert child.stdout == want.hexdigest() + "\n", (env, n_cpus)


def product_shapes(monkeypatch):
    """Record (first, rows) of every product resample runs."""
    calls = []

    def spy(x, base, t, step, first, rows, scratch):
        calls.append((first, rows))
        return rows_product(x, base, t, step, first, rows, scratch)

    module = importlib.import_module("diarsep.resample")  # diarsep.resample is the function
    rows_product = module._rows
    monkeypatch.setattr(module, "_rows", spy)
    return calls


def test_a_last_job_of_one_row_runs_a_product_of_at_least_two_rows(monkeypatch):
    # numpy sends a 1-row matmul to gemv, which rounds differently from gemm:
    # the last job overlaps the one before it with the same row count, and a
    # tap count near the limit still runs 2 rows per product, not 1
    rng = np.random.default_rng(12)
    half = rng.uniform(-0.01, 0.01, BLOCK // 2 - 1).astype(np.float32)
    wide = FirFilter(np.concatenate([half, [0.5], half[::-1]]), 0.25, 80.0)
    cases = [(8000, 16000, design_kaiser_sinc(8000, 16000), 574), (16000, 8000, design_kaiser_sinc(16000, 8000), 252),
             (16000, 8000, wide, 2)]
    for fs_in, fs_out, fir, rows in cases:
        up, down = (2, 1) if fs_out > fs_in else (1, 2)
        n = -(-(rows * ROW + 1) * down // up)  # rows * ROW + 1 or + 2 outputs: rows + 1 rows
        calls = product_shapes(monkeypatch)
        buf = AudioBuffer(rng.uniform(-0.9, 0.9, n).astype(np.float32), fs_in)
        got = resample(buf, fs_out, fir)
        assert sorted(calls) == [(0, rows), (1, rows)]
        want = toeplitz_oracle(buf, fs_out, fir)
        np.testing.assert_array_equal(got.samples.view(np.int32), want.samples.view(np.int32))


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_each_worker_holds_one_scratch_of_about_a_mebibyte(monkeypatch, n_cpus):
    # beyond what the call shares, each worker holds its span, windows and
    # product: SCRATCH_BYTES, plus the float64 taps and numpy's casting buffers
    cpus(monkeypatch, n_cpus)
    rng = np.random.default_rng(13)
    x = rng.uniform(-0.9, 0.9, 20 * BLOCK).astype(np.float32)
    for fs_in, fs_out in ((8000, 16000), (16000, 8000)):
        up, down = (2, 1) if fs_out > fs_in else (1, 2)
        for fir in (design_kaiser_sinc(fs_in, fs_out), design_kaiser_sinc(fs_in, fs_out, 100.0, 0.02)):
            t_bytes = _toeplitz(fir.taps.astype(np.float64), up, down)[1].nbytes
            tracemalloc.start()
            try:
                y = resample(AudioBuffer(x, fs_in), fs_out, fir)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the float32 result, the one-byte-per-sample mask of AudioBuffer's finiteness check, the matrix
            shared = y.samples.nbytes + y.samples.size + t_bytes
            assert peak - shared <= n_cpus * (SCRATCH_BYTES + (32 << 10)), (fir.taps.size, peak - shared)


def count_checks(monkeypatch):
    """Count, by name, the elements that check_finite sees, in every diarsep module that binds it."""
    seen = {}
    lock = threading.Lock()

    def counting(values, name):
        with lock:
            seen[name] = seen.get(name, 0) + np.size(values)
        check_finite(values, name)

    for name, module in list(sys.modules.items()):
        if name.startswith("diarsep.") and hasattr(module, "check_finite"):
            monkeypatch.setattr(module, "check_finite", counting)
    return seen


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_resample_checks_each_output_sample_once_and_pcm16_input_never(tmp_path, monkeypatch, capsys, n_cpus):
    # 11 jobs of 574 rows up, 13 of 252 down and 2 of 682 at the identity, the last
    # overlapping the one before: a job checks the outputs it hands on, not the rows
    # it shares with the one before
    cpus(monkeypatch, n_cpus)
    rng = np.random.default_rng(14)
    for fs_in, fs_out, n in ((8000, 16000, 3 * BLOCK + 17), (16000, 8000, 6 * BLOCK + 35), (16000, 16000, BLOCK - 5)):
        buf = AudioBuffer(rng.uniform(-0.9, 0.9, n).astype(np.float32), fs_in)
        fir = None if fs_in == fs_out else design_kaiser_sinc(fs_in, fs_out)
        seen = count_checks(monkeypatch)
        y = resample(buf, fs_out, fir)
        if fir is None:  # resample() returns its input, which AudioBuffer checked
            assert y is buf and seen == {}
        else:
            assert seen == {"audio samples": len(y)}
            want = toeplitz_oracle(buf, fs_out, fir).samples
            np.testing.assert_array_equal(y.samples.view(np.int32), want.view(np.int32))

        write_wav(buf, tmp_path / "in.wav")
        # the file's filter, designed in the call at the identity too, where it checks the flags
        designed = {"taps": design_kaiser_sinc(fs_in, fs_out).taps.size}
        seen.clear()
        assert main(["resample", str(tmp_path / "in.wav"), str(tmp_path / "out.wav"), "--rate", str(fs_out)]) == 0
        assert seen == {"audio samples": len(y), **designed}
    capsys.readouterr()


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_resample_of_a_wav_file_holds_neither_the_input_nor_the_output(tmp_path, monkeypatch, capsys, n_cpus):
    # each worker holds its float64 scratch of SCRATCH_BYTES, its rows once more
    # as float32, the writer's float64 and int16 copies of them and its int16
    # span: under 3 * SCRATCH_BYTES, against 8 MiB of int16 input
    cpus(monkeypatch, n_cpus)
    n = 64 * BLOCK
    bound = n_cpus * 3 * SCRATCH_BYTES
    assert bound < 2 * n  # below the input's int16 bytes, and a quarter of the output's as float32
    write_wav(AudioBuffer(np.random.default_rng(15).uniform(-0.9, 0.9, n).astype(np.float32), 8000), tmp_path / "8k.wav")
    passes = (("8k.wav", "16k.wav", "16000"), ("16k.wav", "back.wav", "8000"), ("back.wav", "same.wav", "8000"))
    for source, target, rate in passes:
        tracemalloc.start()
        try:
            code = main(["resample", str(tmp_path / source), str(tmp_path / target), "--rate", rate])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < bound, (rate, peak)
    assert capsys.readouterr().out.count("resampled") == 3


def test_cpu_count_is_used_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    started = count_thread_starts(monkeypatch)
    seen = []
    _run_blocks(seen.append, 5 * BLOCK)
    assert sorted(seen) == [k * BLOCK for k in range(5)]
    assert len(started) == 2


def test_every_block_runs_exactly_once_under_contention(monkeypatch):
    # more workers than cores and a short switch interval, so that a start
    # taken twice or skipped by a racing worker would show
    cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_out in (1, BLOCK, 300 * BLOCK + 1):
            seen = []
            _run_blocks(seen.append, n_out)
            assert sorted(seen) == list(range(0, n_out, BLOCK))
    finally:
        sys.setswitchinterval(interval)


def test_the_lowest_failing_block_is_raised_when_a_higher_one_fails_first(monkeypatch):
    cpus(monkeypatch, 2)
    higher_failed = threading.Event()

    def job(start):
        if start == 0:
            assert higher_failed.wait(timeout=10)
            time.sleep(0.01)  # let the higher block's error be recorded first
            raise KeyError("block 0")
        higher_failed.set()
        raise IndexError(f"block {start}")

    with pytest.raises(KeyError, match="block 0"):
        _run_blocks(job, 4 * BLOCK)


def test_block_error_reaches_the_caller_and_stops_the_workers(monkeypatch):
    cpus(monkeypatch, 4)
    before = threading.active_count()
    seen = []

    def job(start):
        seen.append(start)
        if start == 0:
            raise KeyError("block 0")
        time.sleep(0.005)

    with pytest.raises(KeyError, match="block 0"):
        _run_blocks(job, 64 * BLOCK)
    assert threading.active_count() == before
    assert len(seen) < 64  # no worker took every remaining block
