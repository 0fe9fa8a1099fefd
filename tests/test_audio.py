import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarsep import AudioBuffer, read_wav, write_wav
from diarsep.audio import BLOCK, PCM_SUBFORMAT, wav_source
from oracles import write_wav_oracle
from test_resample import cpus


def make_wav_bytes(pcm_bytes, n_channels=1, rate=8000, audio_format=1, bits=16):
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(pcm_bytes),
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        n_channels,
        rate,
        rate * n_channels * bits // 8,
        n_channels * bits // 8,
        bits,
        b"data",
        len(pcm_bytes),
    )
    return header + pcm_bytes


def make_extensible_wav_bytes(pcm_bytes, subformat=PCM_SUBFORMAT, fmt_size=40, rate=16000):
    """Mono 16-bit WAVE_FORMAT_EXTENSIBLE file; fmt_size < 40 truncates the extension."""
    fmt = struct.pack("<HHIIHHHHI16s", 0xFFFE, 1, rate, rate * 2, 2, 16, 22, 16, 0x4, subformat)
    fmt = fmt[:fmt_size]
    return (
        struct.pack("<4sI4s4sI", b"RIFF", 4 + 8 + len(fmt) + 8 + len(pcm_bytes), b"WAVE", b"fmt ", len(fmt))
        + fmt
        + struct.pack("<4sI", b"data", len(pcm_bytes))
        + pcm_bytes
    )


def test_read_silence(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(AudioBuffer(np.zeros(8000, np.float32), 8000), path)
    buf = read_wav(path)
    assert buf.sample_rate == 8000
    assert len(buf) == 8000
    assert np.array_equal(buf.samples, np.zeros(8000, np.float32))


def test_read_pcm_extreme_scaling(tmp_path):
    path = tmp_path / "max.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<h", 32767)))
    buf = read_wav(path)
    assert buf.samples[0] == pytest.approx(32767 / 32768, abs=1e-9)


def test_round_trip_within_one_step(tmp_path):
    # amplitude <= 0.5 keeps |round(32767 s) - 32768 s| <= 1 for every sample
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.5, 0.5, 2048).astype(np.float32)
    path = tmp_path / "rt.wav"
    write_wav(AudioBuffer(x, 16000), path)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert np.abs(back.samples - x).max() <= 1.0 / 32768


def test_round_trip_full_range_bound(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, 4096).astype(np.float32)
    path = tmp_path / "rt2.wav"
    write_wav(AudioBuffer(x, 8000), path)
    back = read_wav(path)
    assert np.abs(back.samples - x).max() <= 1.5 / 32768


def test_write_empty(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(AudioBuffer(np.zeros(0, np.float32), 8000), path)
    buf = read_wav(path)
    assert len(buf) == 0
    (size,) = struct.unpack_from("<I", path.read_bytes(), 40)
    assert size == 0


def test_write_clips(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(AudioBuffer(np.array([1.5, -2.0], np.float32), 8000), path)
    pcm = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
    assert pcm[0] == 32767
    assert pcm[1] == -32767


def test_header_declares_duration(tmp_path):
    path = tmp_path / "one_second.wav"
    write_wav(AudioBuffer(np.zeros(16000, np.float32), 16000), path)
    raw = path.read_bytes()
    rate = struct.unpack_from("<I", raw, 24)[0]
    data_bytes = struct.unpack_from("<I", raw, 40)[0]
    assert data_bytes // 2 / rate == 1.0


def test_write_matches_whole_signal_oracle_bytes(tmp_path, monkeypatch):
    """Blockwise quantization writes the oracle's file byte for byte, across block edges,
    whatever the number of threads that write the blocks.

    The samples include +-1, values beyond +-1 and +-0.5 with its float32
    neighbours: 0.5 * 32767 = 16383.5 is the only in-range product that is
    exactly k + 0.5, so it pins rounding against truncation.
    """
    special = np.array([1.0, -1.0, 1.5, -2.0, 3e38, -3e38, 0.5, -0.5, 0.0, -0.0], np.float32)
    special = np.concatenate(
        [special, np.nextafter(special[6:8], np.float32(0)), np.nextafter(special[6:8], np.float32(2))]
    )
    rng = np.random.default_rng(12)
    lengths = list(range(1, 8)) + [k * BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)] + [2 * BLOCK + 3]
    for n in lengths:
        x = rng.uniform(-1.2, 1.2, n).astype(np.float32)
        x[: special.size] = special[:n]
        x[-special.size :] = special[-n:]
        buffer = AudioBuffer(x, 8000)
        write_wav_oracle(buffer, tmp_path / "want.wav")
        want = np.frombuffer((tmp_path / "want.wav").read_bytes(), np.uint8)
        for n_cpus in (1, 2, 4):
            cpus(monkeypatch, n_cpus)
            write_wav(buffer, tmp_path / "got.wav")
            got = np.frombuffer((tmp_path / "got.wav").read_bytes(), np.uint8)
            np.testing.assert_array_equal(got, want, err_msg=f"{n} samples on {n_cpus} CPUs")


def test_write_holds_no_whole_int16_copy(tmp_path, monkeypatch):
    """Each job of write_wav holds one block in float64 and in int16, 10 * BLOCK bytes;
    a whole int16 copy of the ten blocks would take 20 * BLOCK."""
    cpus(monkeypatch, 1)
    buffer = AudioBuffer(np.random.default_rng(13).uniform(-1, 1, 10 * BLOCK).astype(np.float32), 16000)
    tracemalloc.start()
    try:
        write_wav(buffer, tmp_path / "ten_blocks.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(buffer), peak
    assert read_wav(tmp_path / "ten_blocks.wav").samples.size == len(buffer)


def test_source_checks_the_header_without_reading_samples_and_reads_blocks_exactly(tmp_path, monkeypatch):
    # an extensible header, and a chunk after the data that a reader must walk past
    pcm = np.random.default_rng(14).integers(-32768, 32768, 3 * BLOCK + 3).astype("<i2")
    path = tmp_path / "blocks.wav"
    path.write_bytes(make_extensible_wav_bytes(pcm.tobytes()) + b"LIST" + struct.pack("<I", 3) + b"abc\0")
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", len(raw) - 8)
    path.write_bytes(raw)
    sizes = []
    pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, offset: sizes.append(n) or pread(fd, n, offset))
    with wav_source(path) as source:
        assert (len(source), source.sample_rate) == (pcm.size, 16000)
        assert max(sizes) <= 40  # RIFF header, chunk headers and the fmt body
        for lo, hi in ((0, 0), (0, 1), (5, BLOCK + 7), (pcm.size - 2, pcm.size), (0, pcm.size)):
            np.testing.assert_array_equal(source.read(lo, hi), pcm[lo:hi])
        assert source.scale == 2.0**-15
    np.testing.assert_array_equal(read_wav(path).samples, (pcm / np.float64(32768)).astype(np.float32))


def test_overwrite_cuts_a_longer_file_to_the_new_length(tmp_path):
    path = tmp_path / "reused.wav"
    write_wav(AudioBuffer(np.full(5000, 0.25, np.float32), 16000), path)
    short = AudioBuffer(np.array([0.5, -0.5, 1.0], np.float32), 8000)
    write_wav(short, path)
    write_wav_oracle(short, tmp_path / "want.wav")
    assert path.read_bytes() == (tmp_path / "want.wav").read_bytes()


def test_read_scales_every_pcm_value_exactly(tmp_path):
    pcm = np.arange(-32768, 32768, dtype="<i2")
    path = tmp_path / "all.wav"
    path.write_bytes(make_wav_bytes(pcm.tobytes()))
    buf = read_wav(path)
    assert buf.samples.dtype == np.float32
    assert np.array_equal(buf.samples, pcm / 32768.0)


def test_rejects_multichannel(tmp_path):
    path = tmp_path / "stereo.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<hh", 0, 0), n_channels=2))
    with pytest.raises(ValueError, match="mono"):
        read_wav(path)


def test_rejects_non_pcm16(tmp_path):
    path = tmp_path / "float.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<f", 0.0), audio_format=3, bits=32))
    with pytest.raises(ValueError, match="16-bit PCM"):
        read_wav(path)

    path8 = tmp_path / "pcm8.wav"
    path8.write_bytes(make_wav_bytes(b"\x80", bits=8))
    with pytest.raises(ValueError, match="16-bit PCM"):
        read_wav(path8)


def test_reads_extensible_pcm16(tmp_path):
    path = tmp_path / "ext.wav"
    path.write_bytes(make_extensible_wav_bytes(struct.pack("<hhh", 16384, -32768, 0)))
    buf = read_wav(path)
    assert buf.sample_rate == 16000
    assert np.array_equal(buf.samples, np.array([0.5, -1.0, 0.0], np.float32))


def test_rejects_extensible_other_subformat_or_short_fmt(tmp_path):
    path = tmp_path / "ext.wav"
    ieee_float = b"\x03\x00" + PCM_SUBFORMAT[2:]
    path.write_bytes(make_extensible_wav_bytes(struct.pack("<h", 1), subformat=ieee_float))
    with pytest.raises(ValueError, match="16-bit PCM"):
        read_wav(path)
    for fmt_size in (16, 18, 24, 38):
        path.write_bytes(make_extensible_wav_bytes(struct.pack("<h", 1), fmt_size=fmt_size))
        with pytest.raises(ValueError, match="16-bit PCM"):
            read_wav(path)


def test_rejects_malformed_header(tmp_path):
    path = tmp_path / "garbage.wav"
    path.write_bytes(b"not a wav file at all")
    with pytest.raises(ValueError, match="RIFF"):
        read_wav(path)

    truncated = tmp_path / "truncated.wav"
    truncated.write_bytes(make_wav_bytes(struct.pack("<h", 1))[:-1])
    with pytest.raises(ValueError, match="malformed"):
        read_wav(truncated)

    zero_rate = tmp_path / "zero-rate.wav"
    zero_rate.write_bytes(make_wav_bytes(struct.pack("<h", 1), rate=0))
    with pytest.raises(ValueError, match=f"^{zero_rate}: sample_rate must be positive, got 0$"):
        read_wav(zero_rate)

    # a second data chunk would replace the samples, a second fmt chunk the rate
    wav = make_wav_bytes(struct.pack("<hh", 1000, 2000))
    second_fmt = make_wav_bytes(b"", rate=16000)[12:36]
    for chunk, extra in (("data", struct.pack("<4sI3h", b"data", 6, -5, -6, -7)), ("fmt ", second_fmt)):
        repeated = tmp_path / "repeated.wav"
        repeated.write_bytes(wav + extra)
        with pytest.raises(ValueError, match=f"^{repeated}: malformed WAV, more than one '{chunk}' chunk$"):
            read_wav(repeated)


def test_rejects_odd_data_size(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<hhb", 1, 2, 3)) + b"\x00")  # pad byte
    with pytest.raises(ValueError, match="odd data size 5"):
        read_wav(path)


def test_write_rejects_header_fields_beyond_32_bits(tmp_path):
    path = tmp_path / "f.wav"
    write_wav(AudioBuffer(np.zeros(4, np.float32), 2**31 - 1), path)  # byte rate 2^32 - 2 still fits
    assert read_wav(path).sample_rate == 2**31 - 1
    with pytest.raises(ValueError, match="sample rate 2147483648 Hz too high for WAV: byte rate 4294967296 does"):
        write_wav(AudioBuffer(np.zeros(4, np.float32), 2**31), tmp_path / "rate.wav")
    # 2^31 samples as a zero-stride view: the check must come before any per-sample work
    huge = AudioBuffer(np.zeros(1, np.float32), 8000)
    object.__setattr__(huge, "samples", np.broadcast_to(np.float32(0), (2**31,)))
    with pytest.raises(ValueError, match="2147483648 samples too many for WAV: RIFF size 4294967332 does"):
        write_wav(huge, tmp_path / "long.wav")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.wav"]


def test_write_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        write_wav(AudioBuffer(np.zeros(4, np.float32), 8000), tmp_path / "no_such_dir" / "f.wav")


def test_buffer_validation():
    with pytest.raises(ValueError, match="finite"):
        AudioBuffer(np.array([0.0, np.nan], np.float32), 8000)
    with pytest.raises(ValueError, match="sample_rate"):
        AudioBuffer(np.zeros(4, np.float32), 0)


def test_duration_property():
    assert AudioBuffer(np.zeros(4000, np.float32), 8000).duration == 0.5


_PCM = np.array([0, 1, -1, 32767, -32768, 12345], dtype="<i2").tobytes()
_VALID_WAVS = [make_wav_bytes(_PCM), make_extensible_wav_bytes(_PCM)]
_LONGEST = max(len(raw) for raw in _VALID_WAVS)


@settings(max_examples=300, deadline=None)
@given(
    which=st.sampled_from(range(len(_VALID_WAVS))),
    length=st.integers(0, _LONGEST),
    flips=st.lists(st.tuples(st.integers(0, _LONGEST - 1), st.integers(1, 255)), max_size=4),
)
def test_reader_fuzz_returns_buffer_or_value_error(tmp_path_factory, which, length, flips):
    """Truncations and byte flips of a valid plain or extensible file: an AudioBuffer or a ValueError."""
    raw = bytearray(_VALID_WAVS[which])
    for index, mask in flips:
        if index < len(raw):
            raw[index] ^= mask
    # a fresh file per example: rewriting one path stalls on some filesystems (ext4 truncate-on-rewrite)
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.wav"
    path.write_bytes(bytes(raw[:length]))
    try:
        buffer = read_wav(path)
    except ValueError:
        return
    assert isinstance(buffer, AudioBuffer)
    assert buffer.sample_rate > 0
    assert np.all(np.abs(buffer.samples) <= 1.0)
