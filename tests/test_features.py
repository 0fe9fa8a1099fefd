import errno
import os
import re
import stat
import struct
import subprocess
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarsep import Annotation, AudioBuffer, emit_rttm, write_wav
from diarsep import FeatureMatrix, FeatureStack, read_feature_stack, write_feature_stack
from diarsep.features import output_file, sslf_writer
from diarsep.workers import BLOCK
from oracles import write_wav_oracle


def test_minimal_file_layout(tmp_path):
    path = tmp_path / "one.sslf"
    write_feature_stack(FeatureStack(np.zeros((1, 1, 1), np.float32), 50.0), path)
    raw = path.read_bytes()
    assert len(raw) == 24 + 4
    assert raw[:4] == b"SSLF"
    assert struct.unpack_from("<I", raw, 4)[0] == 1  # version


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((13, 500, 32)).astype(np.float32)
    stack = FeatureStack(data, 50.0)
    path = tmp_path / "stack.sslf"
    write_feature_stack(stack, path)
    back = read_feature_stack(path)
    assert np.array_equal(back.data, data)
    assert back.frame_rate == 50.0
    assert (back.n_layers, back.n_frames, back.dim) == (13, 500, 32)


def test_size_mismatch(tmp_path):
    path = tmp_path / "short.sslf"
    write_feature_stack(FeatureStack(np.zeros((2, 3, 4), np.float32)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])  # drop one float
    with pytest.raises(ValueError, match="size mismatch"):
        read_feature_stack(path)
    path.write_bytes(raw + b"\x00" * 4)  # extra payload
    with pytest.raises(ValueError, match="size mismatch"):
        read_feature_stack(path)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.sslf"
    write_feature_stack(FeatureStack(np.zeros((1, 1, 1), np.float32)), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_feature_stack(path)

    raw[:4] = b"SSLF"
    struct.pack_into("<I", raw, 4, 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_feature_stack(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "trunc.sslf"
    path.write_bytes(b"SSLF\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_feature_stack(path)


def test_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "inf.sslf"
    header = struct.pack("<4sIIIIf", b"SSLF", 1, 1, 1, 1, 50.0)
    path.write_bytes(header + struct.pack("<f", float("inf")))
    with pytest.raises(ValueError, match="non-finite"):
        read_feature_stack(path)


def test_an_os_error_names_the_file(tmp_path):
    with pytest.raises(IsADirectoryError, match=re.escape(repr(str(tmp_path)))):
        read_feature_stack(tmp_path)
    with pytest.raises(FileNotFoundError, match=re.escape(repr(str(tmp_path / "none.sslf")))):
        read_feature_stack(tmp_path / "none.sslf")


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs Linux /proc")
def test_a_failed_read_names_the_file():
    # reading a process's memory at address 0 fails with EIO, an OSError without a file name
    with pytest.raises(OSError, match=r"\[Errno 5\] .*: '/proc/self/mem'$"):
        read_feature_stack("/proc/self/mem")


def test_read_gives_a_writable_stack(tmp_path):
    data = np.random.default_rng(5).standard_normal((2, 7, 3)).astype(np.float32)
    path = tmp_path / "stack.sslf"
    write_feature_stack(FeatureStack(data, 50.0), path)
    stack = read_feature_stack(path)
    assert stack.data.flags.writeable and stack.data.dtype == np.float32
    assert np.array_equal(stack.data, data)


def test_stack_validation():
    with pytest.raises(ValueError, match="positive sizes"):
        FeatureStack(np.zeros((0, 1, 1), np.float32))
    with pytest.raises(ValueError, match="n_layers, n_frames, dim"):
        FeatureStack(np.zeros((2, 2), np.float32))
    with pytest.raises(ValueError, match="finite"):
        FeatureStack(np.full((1, 1, 1), np.nan, np.float32))
    with pytest.raises(ValueError, match="frame_rate"):
        FeatureStack(np.zeros((1, 1, 1), np.float32), 0.0)


def test_matrix_allows_zero_width():
    m = FeatureMatrix(np.zeros((4, 0), np.float32), 50.0)
    assert m.dim == 0
    with pytest.raises(ValueError, match="n_frames"):
        FeatureMatrix(np.zeros((0, 3), np.float32), 50.0)


@pytest.mark.parametrize("piped", [False, True])
def test_read_of_a_file_or_a_pipe_allocates_the_payload_once(tmp_path, piped):
    """One payload-sized buffer plus under 1 MiB: the finite check's boolean mask, a quarter
    of the 2 MB payload, and the eighth by which a pipe's buffer may outgrow it."""
    data = np.random.default_rng(6).standard_normal((2, 500, 512)).astype(np.float32)
    path = tmp_path / "big.sslf"
    write_feature_stack(FeatureStack(data, 50.0), path)
    cat = subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) if piped else None
    tracemalloc.start()
    try:
        stack = read_feature_stack(f"/dev/fd/{cat.stdout.fileno()}" if piped else path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if piped:
            cat.stdout.close()
            assert cat.wait(timeout=120) == 0
    assert np.array_equal(stack.data, data)
    assert peak < data.nbytes + (1 << 20), peak


@pytest.mark.parametrize("frame_rate", [float("nan"), 0.0, -50.0])
def test_bad_header_frame_rate_names_file(tmp_path, frame_rate):
    path = tmp_path / "rate.sslf"
    path.write_bytes(struct.pack("<4sIIIIf", b"SSLF", 1, 1, 1, 1, frame_rate) + struct.pack("<f", 0.0))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: frame_rate must be positive"):
        read_feature_stack(path)


def test_non_finite_payload_names_file(tmp_path):
    path = tmp_path / "nan.sslf"
    path.write_bytes(struct.pack("<4sIIIIf", b"SSLF", 1, 1, 2, 1, 50.0) + struct.pack("<2f", 1.0, float("nan")))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: stack data must be finite"):
        read_feature_stack(path)


def test_zero_size_header(tmp_path):
    path = tmp_path / "empty.sslf"
    path.write_bytes(struct.pack("<4sIIIIf", b"SSLF", 1, 3, 0, 2, 50.0))
    with pytest.raises(ValueError, match="sizes must be positive, got 3x0x2"):
        read_feature_stack(path)


_VALID = struct.pack("<4sIIIIf", b"SSLF", 1, 2, 3, 2, 50.0) + np.arange(12, dtype="<f4").tobytes()


@settings(max_examples=300, deadline=None)
@given(
    length=st.integers(0, len(_VALID)),
    flips=st.lists(st.tuples(st.integers(0, len(_VALID) - 1), st.integers(1, 255)), max_size=4),
)
def test_reader_fuzz_returns_stack_or_value_error(tmp_path_factory, length, flips):
    """Truncations and byte flips of a valid file: a FeatureStack or a ValueError, nothing else."""
    raw = bytearray(_VALID)
    for index, mask in flips:
        raw[index] ^= mask
    # a fresh file per example: rewriting one path stalls on some filesystems (ext4 truncate-on-rewrite)
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.sslf"
    path.write_bytes(bytes(raw[:length]))
    try:
        stack = read_feature_stack(path)
    except ValueError:
        return
    assert isinstance(stack, FeatureStack)
    assert stack.data.nbytes == length - 24


def write_rttm(annotation: Annotation, path) -> None:
    """An RTTM file as diarize --output writes it: one write at offset 0."""
    data = emit_rttm(annotation).encode()
    with output_file(path, len(data)) as write:
        write(0, data)


def output_formats(tmp_path) -> dict:
    """Each output format: its writer as a function of the path, and the file it must write.

    The WAV spans three blocks of samples, so write_wav runs several jobs.
    """
    wav = AudioBuffer(np.linspace(-1.0, 1.0, 2 * BLOCK + 3, dtype=np.float32), 8000)
    write_wav_oracle(wav, tmp_path / "want.wav")
    stack = FeatureStack(np.random.default_rng(5).standard_normal((2, 7, 3)).astype(np.float32), 25.0)
    annotation = Annotation("rec", ((0.0, 1.5, "spk0"), (1.0, 2.25, "spk1")))
    return {
        "wav": (partial(write_wav, wav), (tmp_path / "want.wav").read_bytes()),
        "sslf": (
            partial(write_feature_stack, stack),
            struct.pack("<4sIIIIf", b"SSLF", 1, 2, 7, 3, 25.0) + stack.data.tobytes(),
        ),
        "rttm": (partial(write_rttm, annotation), emit_rttm(annotation).encode()),
    }


def test_overwrite_cuts_a_longer_stack_file_to_the_new_length(tmp_path):
    path = tmp_path / "reused.sslf"
    write_feature_stack(FeatureStack(np.ones((4, 300, 16), np.float32), 50.0), path)
    data = np.random.default_rng(5).standard_normal((2, 7, 3)).astype(np.float32)
    write_feature_stack(FeatureStack(data, 25.0), path)
    assert path.stat().st_size == 24 + data.nbytes
    back = read_feature_stack(path)
    assert back.data.tobytes() == data.tobytes()
    assert back.frame_rate == 25.0


def test_overwrite_is_in_place_for_every_output_format(tmp_path):
    # in place: the file keeps its inode, and is cut to what was written
    for name, (write, want) in output_formats(tmp_path).items():
        path = tmp_path / f"reused.{name}"
        path.write_bytes(b"\xff" * (len(want) + 5000))
        inode = path.stat().st_ino
        write(path)
        assert path.read_bytes() == want, name
        assert path.stat().st_ino == inode, name


def test_block_writer_puts_frames_at_their_offsets_and_removes_a_failed_file(tmp_path, monkeypatch):
    path = tmp_path / "blocks.sslf"
    data = np.random.default_rng(6).standard_normal((3, 10, 4)).astype(np.float32)
    write_feature_stack(FeatureStack(np.ones((4, 300, 16), np.float32), 50.0), path)  # longer, overwritten
    with sslf_writer(path, data.shape, 12.5) as write:
        for start in (7, 0, 4):  # blocks in any order
            write(start, data[:, start : start + (3 if start == 7 else 4)])
    back = read_feature_stack(path)
    assert back.data.tobytes() == data.tobytes() and back.frame_rate == 12.5

    for start, block in ((8, data[:, :3]), (-1, data[:, :2]), (0, data[:2, :2]), (0, data[:, :2, :3])):
        with pytest.raises(ValueError, match="does not fit SSLF 3x10x4"), sslf_writer(path, data.shape, 12.5) as write:
            write(0, data[:, :5])
            write(start, block)
        assert not path.exists()
    for shape, rate in (((3, 0, 4), 12.5), ((3, 10, 4), 0.0), ((3, 10, 4), float("nan"))):
        with pytest.raises(ValueError, match="must be positive"), sslf_writer(path, shape, rate):
            pass
    assert not path.exists()

    # every format: a write that fails (here the one that ends the file) removes the
    # file begun, after the writes before it, and the error names the path
    pwrite = os.pwrite
    for name, (write, want) in output_formats(tmp_path).items():
        path = tmp_path / f"failed.{name}"
        path.write_bytes(b"\xff" * (len(want) + 5000))

        def disk_full(fd, data, offset, size=len(want)):
            if offset + len(data) == size:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", disk_full)
        with pytest.raises(OSError, match=f"No space left on device: '{re.escape(str(path))}'$"):
            write(path)
        monkeypatch.setattr(os, "pwrite", pwrite)
        assert not path.exists(), name


def test_block_writer_leaves_a_target_that_is_not_a_regular_file(tmp_path):
    # a FIFO opens for writing once it has a reader, and cannot seek: the writer
    # refuses it as it opens it, before a byte is written, and leaves it in place
    path = tmp_path / "pipe"
    os.mkfifo(path)
    reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        for name, (write, _) in output_formats(tmp_path).items():
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: block output needs a seekable file"):
                write(path)
            assert stat.S_ISFIFO(os.stat(path).st_mode), name
            assert os.read(reader, 1) == b"", name  # end of file: nothing reached the pipe
    finally:
        os.close(reader)
