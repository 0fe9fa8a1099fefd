"""Mono waveform buffer and 16-bit PCM WAV file I/O: a block source that reads, a block writer that writes."""

import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import check_finite, names_file, output_file
from .workers import BLOCK, Scratch, run_blocks

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_PCM, 00000001-0000-0010-8000-00aa00389b71, in file byte order
PCM_SUBFORMAT = bytes.fromhex("0100000000001000800000aa00389b71")


@dataclass(frozen=True)
class AudioBuffer:
    """Mono waveform: float32 samples (nominally in [-1, 1]) plus a sample rate in Hz.

    An AudioBuffer is also the in-memory block source, with the members a
    WavSource has: len(), sample_rate, scale and read(lo, hi).
    """

    samples: np.ndarray
    sample_rate: int
    scale = 1.0  # not a field: read(lo, hi) * scale are the samples

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float32).reshape(-1)
        check_finite(samples, "audio samples")
        rate = int(self.sample_rate)
        if rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    @classmethod
    def _from_samples(cls, samples: np.ndarray, sample_rate: int) -> "AudioBuffer":
        """A buffer of 1-D float32 ``samples`` known to be finite and an int rate known to be positive.

        For samples finite by construction (scaled PCM16) or already checked
        where they were computed, so no value is checked twice.
        """
        buffer = cls.__new__(cls)
        object.__setattr__(buffer, "samples", samples)
        object.__setattr__(buffer, "sample_rate", sample_rate)
        return buffer

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi): a view."""
        return self.samples[lo:hi]


class WavSource:
    """A mono 16-bit PCM WAV file, its header checked, read by blocks: len(), sample_rate, scale, read(lo, hi).

    ``read(lo, hi)`` gives the int16 samples as stored; times ``scale``,
    1/32768, they are the signal, the int16 range mapped into [-1, 1). The
    scale is a power of two, so that product is exact in float32 and in
    float64. ``read_at(n, offset)`` returns the file's bytes [offset,
    offset + n), fewer at its end, ``size`` is its length in bytes, and
    ``inode`` its (st_dev, st_ino), None for a pipe read whole. The
    constructor walks the chunks and reads no sample; every ``read`` is one
    ``read_at`` of its span, so threads that read disjoint blocks share no
    file position.
    """

    scale = 1 / 32768

    def __init__(self, path, read_at, size: int, inode: tuple[int, int] | None = None):
        self._path, self._read_at, self._inode = path, read_at, inode
        head = read_at(12, 0)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise ValueError(f"{path}: not a RIFF/WAVE file")

        fmt = None
        data = None
        pos = 12
        while pos + 8 <= size:
            chunk = read_at(8, pos)
            chunk_id = bytes(chunk[:4])
            (chunk_size,) = struct.unpack_from("<I", chunk, 4)
            if pos + 8 + chunk_size > size:
                raise ValueError(f"{path}: malformed WAV, truncated {chunk_id!r} chunk")
            if (chunk_id == b"fmt " and fmt is not None) or (chunk_id == b"data" and data is not None):
                raise ValueError(f"{path}: malformed WAV, more than one {chunk_id.decode()!r} chunk")
            if chunk_id == b"fmt ":
                if chunk_size < 16:
                    raise ValueError(f"{path}: malformed WAV, fmt chunk too short")
                body = read_at(min(chunk_size, 40), pos + 8)
                fmt = struct.unpack_from("<HHIIHH", body)
                if fmt[0] == WAVE_FORMAT_EXTENSIBLE and body[24:40] == PCM_SUBFORMAT:
                    fmt = (WAVE_FORMAT_PCM,) + fmt[1:]
            elif chunk_id == b"data":
                data = (pos + 8, chunk_size)
            pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

        if fmt is None or data is None:
            raise ValueError(f"{path}: malformed WAV, missing fmt or data chunk")
        audio_format, n_channels, sample_rate, _, _, bits = fmt
        if n_channels != 1:
            raise ValueError(f"{path}: expected mono audio, got {n_channels} channels")
        if audio_format != WAVE_FORMAT_PCM or bits != 16:
            raise ValueError(
                f"{path}: expected 16-bit PCM encoding, got format {audio_format} "
                f"with {bits}-bit samples"
            )
        if data[1] % 2:
            raise ValueError(f"{path}: malformed WAV, odd data size {data[1]} for 16-bit samples")
        if sample_rate <= 0:
            raise ValueError(f"{path}: sample_rate must be positive, got {sample_rate}")
        self.sample_rate = sample_rate
        self._data, self._len = data[0], data[1] // 2

    def __len__(self) -> int:
        return self._len

    def read(self, lo: int, hi: int) -> np.ndarray:
        """The int16 samples [lo, hi), read by one ``read_at``."""
        raw = self._read_at(2 * (hi - lo), self._data + 2 * lo)
        if len(raw) != 2 * (hi - lo):  # the file was cut after its header was read
            raise ValueError(f"{self._path}: malformed WAV, truncated b'data' chunk")
        return np.frombuffer(raw, "<i2")

    def collect(self) -> AudioBuffer:
        """All the samples, scaled, in one float32 AudioBuffer; PCM16 samples are finite, so none is checked."""
        samples = np.multiply(self.read(0, len(self)), np.float32(self.scale), dtype=np.float32)
        return AudioBuffer._from_samples(samples, self.sample_rate)

    def same_file(self, path: str | Path) -> bool:
        """Whether ``path`` names this file: the same path, a hard link or a symlink to it."""
        try:
            info = os.stat(path)
        except OSError:
            return False
        return (info.st_dev, info.st_ino) == self._inode


@contextmanager
def wav_source(path: str | Path):
    """Open ``path`` and check its WAV header; yield a WavSource that reads it while the block runs.

    A regular file is read by ``os.pread``, block by block. Any other input
    (a pipe, such as /dev/stdin fed by ``cat``) cannot be read at an offset:
    it is read whole first, and its bytes are the file. Raises ValueError
    with a distinct message for malformed headers, an odd-sized data chunk,
    multichannel audio, non-PCM16 encodings and a repeated fmt or data
    chunk; a failed read is an OSError naming ``path``. WAVE_FORMAT_EXTENSIBLE
    counts as PCM when its fmt chunk has the full 40 bytes and its SubFormat
    GUID is KSDATAFORMAT_SUBTYPE_PCM.
    """
    with open(path, "rb", buffering=0) as file:
        fd = file.fileno()
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):

            def read_at(n: int, offset: int) -> bytes:
                parts = []
                with names_file(path):  # in a pool job too
                    while n > 0 and (part := os.pread(fd, min(n, 1 << 30), offset)):  # Linux: under 2 GiB a call
                        parts.append(part)
                        n, offset = n - len(part), offset + len(part)
                return b"".join(parts)

            yield WavSource(path, read_at, info.st_size, (info.st_dev, info.st_ino))
        else:
            with names_file(path):
                raw = memoryview(file.read())  # slices are views, not copies
            yield WavSource(path, lambda n, offset: raw[offset : offset + n], len(raw))


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a mono 16-bit PCM RIFF/WAVE file whole: ``wav_source``, then ``collect``.

    Samples are scaled by 1/32768, so the int16 range maps into [-1, 1).
    Raises ValueError as ``wav_source`` does.
    """
    with wav_source(path) as source:
        return source.collect()


@contextmanager
def wav_writer(path: str | Path, n_samples: int, sample_rate: int):
    """Open a mono 16-bit PCM WAV file of ``n_samples``; yield ``write(start, samples)``.

    ``write`` quantizes the float32 ``samples`` as round(sample * 32767),
    halves to even, after clipping them to [-1, 1] in float64, which stays
    inside the int16 range, and puts them at sample ``start`` through a
    scratch buffer of its thread. Every sample must be written once before
    the block ends. The 44-byte header goes first; the file follows the
    rule of ``features.output_file``. Raises ValueError, before opening
    ``path``, when the byte rate or the RIFF size does not fit its 32-bit
    header field.
    """
    if 2 * sample_rate > 0xFFFFFFFF:
        raise ValueError(
            f"sample rate {sample_rate} Hz too high for WAV: "
            f"byte rate {2 * sample_rate} does not fit in 32 bits"
        )
    if 36 + 2 * n_samples > 0xFFFFFFFF:
        raise ValueError(
            f"{n_samples} samples too many for WAV: RIFF size {36 + 2 * n_samples} does not fit in 32 bits"
        )
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + 2 * n_samples,
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        sample_rate,
        sample_rate * 2,
        2,
        16,
        b"data",
        2 * n_samples,
    )
    scratch = Scratch()

    def write(start: int, samples: np.ndarray) -> None:
        x = np.clip(samples, -1.0, 1.0, out=scratch.get("quantize", samples.shape))
        x *= 32767.0
        np.round(x, out=x)
        pcm = scratch.get("pcm", samples.shape, np.dtype("<i2"))
        np.copyto(pcm, x, casting="unsafe")  # whole numbers in [-32767, 32767]: exact
        write_at(len(header) + 2 * start, pcm)

    with output_file(path, len(header) + 2 * n_samples) as write_at:
        write_at(0, header)
        yield write


def write_wav(buffer: AudioBuffer, path: str | Path) -> None:
    """Write a mono 16-bit PCM WAV file: one ``wav_writer`` call per BLOCK of samples.

    Each block is one job of ``workers.run_blocks``, so no whole-signal
    int16 array is built and the file does not depend on the thread count.
    """
    with wav_writer(path, len(buffer), buffer.sample_rate) as write:
        run_blocks(lambda start: write(start, buffer.samples[start : start + BLOCK]), len(buffer))
