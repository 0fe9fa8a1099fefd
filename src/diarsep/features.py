"""Feature carriers (per-layer stacks, fused matrices) and the SSLF binary container.

SSLF layout, little-endian throughout:

    bytes 0-3    magic "SSLF"
    bytes 4-7    uint32 version (1)
    bytes 8-11   uint32 n_layers
    bytes 12-15  uint32 n_frames
    bytes 16-19  uint32 dim
    bytes 20-23  float32 frame_rate (Hz)
    bytes 24-    float32 payload, layer-major then frame-major (C order)
"""

import errno
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .defaults import names_file

SSLF_MAGIC = b"SSLF"
SSLF_VERSION = 1
_HEADER = struct.Struct("<4sIIIIf")


def check_finite(values: np.ndarray, name: str) -> None:
    """Raise ValueError unless every entry of ``values`` is finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite, got non-finite values")


def _frame_rate(value) -> float:
    """``value`` as a float; ValueError unless it is positive and finite."""
    rate = float(value)
    if not np.isfinite(rate) or rate <= 0:
        raise ValueError(f"frame_rate must be positive, got {value}")
    return rate


def _validate(carrier, name: str, shape_rule: str, shape_ok) -> None:
    """Coerce a carrier's data to float32; check its shape rule, finiteness and frame rate."""
    data = np.asarray(carrier.data, dtype=np.float32)
    if not shape_ok(data.shape):
        raise ValueError(f"{name} must be {shape_rule}, got {data.shape}")
    check_finite(data, name)
    rate = _frame_rate(carrier.frame_rate)
    object.__setattr__(carrier, "data", data)
    object.__setattr__(carrier, "frame_rate", rate)


@dataclass(frozen=True)
class FeatureStack:
    """Per-layer, per-frame features: float32 array of shape (n_layers, n_frames, dim)."""

    data: np.ndarray
    frame_rate: float = 50.0

    def __post_init__(self):
        rule = "(n_layers, n_frames, dim) with positive sizes"
        _validate(self, "stack data", rule, lambda shape: len(shape) == 3 and min(shape) >= 1)

    @property
    def n_layers(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class FeatureMatrix:
    """A per-frame feature matrix: float32 array of shape (n_frames, dim).

    dim may be zero so that degenerate concatenations stay expressible.
    """

    data: np.ndarray
    frame_rate: float

    def __post_init__(self):
        rule = "(n_frames, dim) with n_frames >= 1"
        _validate(self, "matrix data", rule, lambda shape: len(shape) == 2 and shape[0] >= 1)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@contextmanager
def input_file(path: str | Path):
    """Open ``path`` for input; yield ``(read, size, inode)``: the one way diarsep reads a binary file.

    ``read(n, offset)`` returns a writable memoryview of the input's bytes
    [offset, offset + n), fewer at its end; ``inode`` is (st_dev, st_ino). A
    regular file is read by ``os.preadv`` into a new buffer per call, so
    threads share no file position. Any other input (a pipe) cannot be read
    at an offset: it is read whole as it is opened, into one buffer that
    grows by an eighth, and its ``inode`` is None. A read's OSError names
    ``path``; errors raised in the caller's block are left alone.
    """
    with open(path, "rb", buffering=0) as file:
        info = os.fstat(file.fileno())
        if stat.S_ISREG(info.st_mode):

            def read(n: int, offset: int) -> memoryview:
                buffer, done = memoryview(np.empty(n, np.uint8)), 0
                with names_file(path):  # in a pool job too
                    while done < n and (got := os.preadv(file.fileno(), [buffer[done:]], offset + done)):
                        done += got  # Linux reads under 2 GiB a call
                return buffer[:done]

            yield read, info.st_size, (info.st_dev, info.st_ino)
        else:
            whole, size = np.empty(1 << 16, np.uint8), 0
            with names_file(path):
                while got := file.readinto(whole[size:]):
                    size += got
                    if size == whole.size:
                        whole.resize(size + max(size >> 3, 1 << 16), refcheck=False)
            whole.resize(size, refcheck=False)
            view = memoryview(whole)
            yield lambda n, offset: view[offset : offset + n], size, None


@contextmanager
def output_file(path: str | Path, size: int):
    """Open ``path`` for ``size`` bytes of output; yield ``write(offset, buffer)``.

    This is the one way diarsep writes a file. ``write`` puts the contiguous
    ``buffer`` at byte ``offset`` with ``os.pwrite``, so threads that write
    disjoint spans share no file position. An existing file is overwritten
    in place, and a regular file is cut to ``size`` on a clean exit. Opening
    with O_TRUNC instead would free every block of the old file, and ext4
    flushes a truncated rewrite at close (auto_da_alloc): each rewrite of a
    38 MB file stalled 0.4-1.7 s on an ext4 volume mounted with discard
    (2-vCPU VM). A block that exits by an exception removes the file if it
    is a regular one, so no partial output is left behind. Any other kind of
    target (/dev/null) is never cut or removed. A target that cannot seek
    (a pipe, a socket or a terminal), which would refuse pwrite, raises
    ValueError as it is opened, before anything is written. An OSError that
    leaves the block naming no file (those of pwrite and ftruncate) is given
    ``path`` as its file name.
    """

    def write(offset: int, data) -> None:
        view = memoryview(data).cast("B")
        while view:  # a regular file may take fewer bytes per call (Linux: under 2 GiB)
            written = os.pwrite(fd, view, offset)
            view, offset = view[written:], offset + written

    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = False
    try:
        with names_file(path):  # pwrite and ftruncate name no file
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                os.lseek(fd, 0, os.SEEK_CUR)
            except OSError as exc:
                if exc.errno != errno.ESPIPE:
                    raise
                raise ValueError(f"{path}: block output needs a seekable file, not a pipe, socket or terminal") from None
            yield write
            if regular:
                os.ftruncate(fd, size)
    except BaseException:
        if regular:
            Path(path).unlink(missing_ok=True)
        raise
    finally:
        os.close(fd)


@contextmanager
def sslf_writer(path: str | Path, shape: tuple[int, int, int], frame_rate: float):
    """Open an SSLF file of ``shape`` (n_layers, n_frames, dim); yield ``write(start, block)``.

    ``write`` puts the (n_layers, k, dim) float32 ``block`` at frames
    [start, start + k) of every layer, at byte offsets computed from
    ``start``. Every frame must be written once before the block ends. The
    header goes first; the file follows the rule of ``output_file``.
    """
    n_layers, n_frames, dim = map(int, shape)
    if min(n_layers, n_frames, dim) < 1:
        raise ValueError(f"SSLF sizes must be positive, got {n_layers}x{n_frames}x{dim}")
    header = _HEADER.pack(SSLF_MAGIC, SSLF_VERSION, n_layers, n_frames, dim, _frame_rate(frame_rate))
    row_bytes = dim * 4

    def write(start: int, block) -> None:
        block = np.asarray(block)
        fits = block.ndim == 3 and (block.shape[0], block.shape[2]) == (n_layers, dim)
        if not (fits and 0 <= start <= n_frames - block.shape[1]):
            raise ValueError(f"block {block.shape} at frame {start} does not fit SSLF {n_layers}x{n_frames}x{dim}")
        for layer, rows in enumerate(block):  # each layer's rows are contiguous in the file
            offset = _HEADER.size + (layer * n_frames + start) * row_bytes
            write_at(offset, np.ascontiguousarray(rows, dtype="<f4"))

    with output_file(path, _HEADER.size + n_layers * n_frames * row_bytes) as write_at:
        write_at(0, header)
        yield write


def write_feature_stack(stack: FeatureStack, path: str | Path) -> None:
    """Write a FeatureStack as an SSLF file (bit-exact round trip with read): one block of ``sslf_writer``."""
    with sslf_writer(path, stack.data.shape, stack.frame_rate) as write:
        write(0, stack.data)


def read_feature_stack(path: str | Path) -> FeatureStack:
    """Read an SSLF file through ``input_file`` into one writable array, validating magic, version and sizes.

    The header is read first and the input's size checked against it, then
    the payload straight into the float32 array. FeatureStack checks the
    values; every error, an OSError too, names the file.
    """
    with input_file(path) as (read, size, _):
        header = read(_HEADER.size, 0)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated SSLF header")
        magic, version, n_layers, n_frames, dim, frame_rate = _HEADER.unpack(header)
        if magic != SSLF_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {SSLF_MAGIC!r}")
        if version != SSLF_VERSION:
            raise ValueError(f"{path}: unsupported SSLF version {version}")
        if min(n_layers, n_frames, dim) < 1:
            raise ValueError(f"{path}: sizes must be positive, got {n_layers}x{n_frames}x{dim}")
        expected, actual = n_layers * n_frames * dim * 4, size - _HEADER.size
        if actual == expected:  # else known before any allocation
            payload = read(expected, _HEADER.size)
            actual = len(payload)  # fewer if the file was cut after it was opened
    if actual != expected:
        raise ValueError(
            f"{path}: size mismatch, header declares {expected} payload bytes but file has {actual}"
        )
    try:
        return FeatureStack(np.frombuffer(payload, "<f4").reshape(n_layers, n_frames, dim), frame_rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
