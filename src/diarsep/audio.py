"""Mono waveform buffer and 16-bit PCM WAV file I/O."""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import check_finite, output_file
from .workers import BLOCK, run_blocks

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_PCM, 00000001-0000-0010-8000-00aa00389b71, in file byte order
PCM_SUBFORMAT = bytes.fromhex("0100000000001000800000aa00389b71")


@dataclass(frozen=True)
class AudioBuffer:
    """Mono waveform: float32 samples (nominally in [-1, 1]) plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float32).reshape(-1)
        check_finite(samples, "audio samples")
        rate = int(self.sample_rate)
        if rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a mono 16-bit PCM RIFF/WAVE file.

    Samples are scaled by 1/32768, so the int16 range maps into [-1, 1).
    WAVE_FORMAT_EXTENSIBLE counts as PCM when its fmt chunk has the full 40
    bytes and its SubFormat GUID is KSDATAFORMAT_SUBTYPE_PCM.
    Raises ValueError with a distinct message for malformed headers, an
    odd-sized data chunk, multichannel audio, and non-PCM16 encodings.
    """
    raw = memoryview(Path(path).read_bytes())  # chunk bodies are views, not copies
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = bytes(raw[pos : pos + 4])
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: malformed WAV, truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise ValueError(f"{path}: malformed WAV, fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body)
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE and body[24:40] == PCM_SUBFORMAT:
                fmt = (WAVE_FORMAT_PCM,) + fmt[1:]
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

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

    if len(data) % 2:
        raise ValueError(f"{path}: malformed WAV, odd data size {len(data)} for 16-bit samples")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float32)
    samples /= 32768.0  # a power of two: exact, in place
    return AudioBuffer(samples, sample_rate)


def write_wav(buffer: AudioBuffer, path: str | Path) -> None:
    """Write a mono 16-bit PCM WAV file: the 44-byte header, then the samples.

    Samples are clipped to [-1, 1] and quantized as round(sample * 32767),
    halves to even, which stays inside the int16 range. Each BLOCK of samples
    is one job of ``workers.run_blocks``: it converts its slice in float64 to
    int16 and writes it at its own offset through ``features.output_file``,
    so no whole-signal int16 array is built and the file does not depend on
    the thread count. The file follows ``output_file``'s rule. Raises
    ValueError, before opening ``path``, when the byte rate or the RIFF size
    does not fit its 32-bit header field.
    """
    if 2 * buffer.sample_rate > 0xFFFFFFFF:
        raise ValueError(
            f"sample rate {buffer.sample_rate} Hz too high for WAV: "
            f"byte rate {2 * buffer.sample_rate} does not fit in 32 bits"
        )
    if 36 + 2 * len(buffer) > 0xFFFFFFFF:
        raise ValueError(
            f"{len(buffer)} samples too many for WAV: RIFF size {36 + 2 * len(buffer)} does not fit in 32 bits"
        )
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + 2 * len(buffer),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        buffer.sample_rate,
        buffer.sample_rate * 2,
        2,
        16,
        b"data",
        2 * len(buffer),
    )

    def job(start: int) -> None:
        x = np.clip(buffer.samples[start : start + BLOCK], -1.0, 1.0, dtype=np.float64)
        x *= 32767.0
        np.round(x, out=x)
        write(len(header) + 2 * start, x.astype("<i2"))

    with output_file(path, len(header) + 2 * len(buffer)) as write:
        write(0, header)
        run_blocks(job, len(buffer))
