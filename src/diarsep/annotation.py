"""Labeled speech intervals and the RTTM / UEM text formats."""

from dataclasses import dataclass, field
from typing import NamedTuple

import math


class Segment(NamedTuple):
    onset: float
    duration: float
    speaker: str


@dataclass(frozen=True)
class Annotation:
    """A set of labeled speech intervals for one recording.

    Onsets are non-negative, durations strictly positive, ends (onset +
    duration) finite, speaker labels non-empty and whitespace-free (they
    travel through whitespace-delimited RTTM).
    """

    uri: str
    segments: tuple[Segment, ...] = field(default_factory=tuple)

    def __post_init__(self):
        segments = tuple(Segment(float(o), float(d), str(s)) for o, d, s in self.segments)
        for onset, duration, speaker in segments:
            if not math.isfinite(onset + duration):  # also false when either one is not finite
                raise ValueError(f"non-finite segment onset, duration or end, got ({onset}, {duration})")
            if duration <= 0:
                raise ValueError(f"segment duration must be positive, got {duration}")
            if onset < 0:
                raise ValueError(f"segment onset must be >= 0, got {onset}")
            if speaker.split() != [speaker]:  # empty, or holds whitespace
                raise ValueError(f"speaker label must be non-empty without whitespace, got {speaker!r}")
        object.__setattr__(self, "segments", segments)

    def speakers(self) -> list[str]:
        """Distinct speaker labels, sorted."""
        return sorted({seg.speaker for seg in self.segments})

    def total_speech(self) -> float:
        """Sum of segment durations in seconds (overlaps counted per speaker)."""
        return sum(seg.duration for seg in self.segments)


def parse_rttm(text: str) -> dict[str, Annotation]:
    """Parse RTTM text into one Annotation per recording URI.

    Every non-empty line must be a SPEAKER record with at least 9
    whitespace-separated fields; fields 2, 4, 5 and 8 carry the URI, onset,
    duration and speaker label. The record structure is checked here and the
    values once, by Annotation. Errors report the lowest offending line number.
    """
    try:
        segments: dict[str, list[tuple[float, float, str]]] = {}
        for line in text.splitlines():
            fields = line.split()
            if fields:
                uri, onset, duration, speaker = _speaker_record(fields)
                segments.setdefault(uri, []).append((onset, duration, speaker))
        return {uri: Annotation(uri, tuple(segs)) for uri, segs in segments.items()}
    except ValueError:
        _raise_first_bad_line(text)
        raise


def _raise_first_bad_line(text: str) -> None:
    """Check RTTM text line by line and raise the error of the first line at fault."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            uri, onset, duration, speaker = _speaker_record(fields)
            Annotation(uri, ((onset, duration, speaker),))
        except ValueError as exc:
            raise ValueError(f"RTTM line {lineno}: {exc}") from None


def _speaker_record(fields: list[str]) -> tuple[str, float, float, str]:
    """URI, onset, duration and label of one split RTTM line; ValueError unless it is a SPEAKER record."""
    if fields[0] != "SPEAKER":
        raise ValueError(f"expected a SPEAKER record, got {fields[0]!r}")
    if len(fields) < 9:
        raise ValueError(f"expected at least 9 fields, got {len(fields)}")
    try:
        return fields[1], float(fields[3]), float(fields[4]), fields[7]
    except ValueError:
        raise ValueError("non-numeric onset or duration") from None


def emit_rttm(annotation: Annotation) -> str:
    """Serialize an Annotation as RTTM text.

    One SPEAKER line per segment, sorted by onset then label, times at
    millisecond precision. An empty annotation yields empty text. Raises
    ValueError rather than write a record that does not parse back to its
    segment: a URI that is empty or holds whitespace, or a duration under
    0.5 ms, which would print as 0.000.
    """
    ordered = sorted(annotation.segments, key=lambda s: (s.onset, s.speaker, s.duration))
    if ordered and annotation.uri.split() != [annotation.uri]:
        raise ValueError(f"RTTM uri must be non-empty without whitespace, got {annotation.uri!r}")
    lines = []
    for seg in ordered:
        duration = f"{seg.duration:.3f}"
        if float(duration) <= 0:
            raise ValueError(f"segment {tuple(seg)} is shorter than 0.5 ms; RTTM would print duration {duration}")
        lines.append(
            f"SPEAKER {annotation.uri} 1 {seg.onset:.3f} {duration} <NA> <NA> {seg.speaker} <NA> <NA>"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_uem(text: str) -> dict[str, list[tuple[float, float]]]:
    """Parse UEM-style evaluation regions: lines of "uri channel onset offset".

    Returns a map from URI to a list of (onset, offset) intervals.
    """
    regions: dict[str, list[tuple[float, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 4:
            raise ValueError(f"UEM line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            onset = float(fields[2])
            offset = float(fields[3])
        except ValueError:
            raise ValueError(f"UEM line {lineno}: non-numeric onset or offset") from None
        if not (math.isfinite(onset) and math.isfinite(offset)) or offset <= onset or onset < 0:
            raise ValueError(f"UEM line {lineno}: invalid interval [{onset}, {offset})")
        regions.setdefault(fields[0], []).append((onset, offset))
    return regions
