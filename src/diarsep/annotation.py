"""Labeled speech intervals and the RTTM / UEM text formats."""

import math
from typing import NamedTuple

import numpy as np


class Segment(NamedTuple):
    onset: float
    duration: float
    speaker: str


class Annotation:
    """A set of labeled speech intervals for one recording, stored as columns.

    ``onsets`` and ``durations`` are read-only float64 arrays, ``codes`` a
    read-only integer array indexing each segment's label in ``labels``, the
    sorted tuple of distinct labels. Onsets are non-negative, durations
    strictly positive, ends (onset + duration) finite and, in float64,
    greater than their onsets, speaker labels non-empty and whitespace-free
    (they travel through whitespace-delimited RTTM); each value is checked
    once, and an error names the first segment at fault. ``segments`` is a
    view: a tuple of Segment of Python floats, built from the columns in
    input order. Two annotations are equal when their URIs and segments are.
    """

    def __init__(self, uri: str, segments=()):
        onsets, durations, speakers = [], [], []
        for onset, duration, speaker in segments:
            onsets.append(float(onset))
            durations.append(float(duration))
            speakers.append(str(speaker))
        labels = sorted(set(speakers))
        index = {label: code for code, label in enumerate(labels)}
        codes = np.array([index[s] for s in speakers], dtype=np.intp)
        self._store(uri, np.array(onsets), np.array(durations), codes, labels)

    @classmethod
    def _from_columns(cls, uri: str, onsets, durations, codes, labels) -> "Annotation":
        """An annotation of float64 columns whose ``codes`` index the sorted ``labels``.

        Labels without a segment are dropped and the codes renumbered.
        """
        annotation = cls.__new__(cls)
        annotation._store(uri, onsets, durations, codes, labels)
        return annotation

    def _store(self, uri, onsets, durations, codes, labels) -> None:
        onsets = np.asarray(onsets, dtype=np.float64)
        durations = np.asarray(durations, dtype=np.float64)
        codes = np.asarray(codes, dtype=np.intp)
        present = np.bincount(codes, minlength=len(labels)) > 0
        if not present.all():
            codes = (np.cumsum(present) - 1)[codes]
            labels = [label for label, kept in zip(labels, present.tolist()) if kept]
        labels = tuple(labels)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are what the check looks for
            ends = onsets + durations
            bad = ~np.isfinite(ends) | (durations <= 0) | (onsets < 0) | (ends <= onsets)
        bad_label = np.array([label.split() != [label] for label in labels], dtype=bool)
        if bad_label.any():
            bad |= bad_label[codes]
        if bad.any():
            first = int(np.argmax(bad))
            _check_segment(float(onsets[first]), float(durations[first]), labels[codes[first]])
        for name, column in (("onsets", onsets), ("durations", durations), ("codes", codes)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "uri", uri)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen Annotation")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen Annotation")

    @property
    def segments(self) -> tuple[Segment, ...]:
        labels = self.labels
        speakers = [labels[code] for code in self.codes.tolist()]
        return tuple(map(Segment, self.onsets.tolist(), self.durations.tolist(), speakers))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.uri == other.uri
            and self.labels == other.labels
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.onsets, other.onsets)
            and np.array_equal(self.durations, other.durations)
        )

    def __hash__(self):
        return hash((self.uri, self.segments))

    def __repr__(self):
        return f"Annotation(uri={self.uri!r}, segments={self.segments!r})"

    def speakers(self) -> list[str]:
        """Distinct speaker labels, sorted."""
        return list(self.labels)

    def total_speech(self) -> float:
        """Sum of segment durations in seconds (overlaps counted per speaker), added in input order."""
        return sum(self.durations.tolist())


def _check_segment(onset: float, duration: float, speaker: str) -> None:
    """Raise the ValueError of the first check that one segment fails."""
    if not math.isfinite(onset + duration):  # also false when either one is not finite
        raise ValueError(f"non-finite segment onset, duration or end, got ({onset}, {duration})")
    if duration <= 0:
        raise ValueError(f"segment duration must be positive, got {duration}")
    if onset < 0:
        raise ValueError(f"segment onset must be >= 0, got {onset}")
    if onset + duration <= onset:  # the duration is lost in rounding the end to float64
        raise ValueError(f"segment end must exceed its onset in float64, got ({onset}, {duration})")
    if speaker.split() != [speaker]:  # empty, or holds whitespace
        raise ValueError(f"speaker label must be non-empty without whitespace, got {speaker!r}")


def parse_rttm(text: str) -> dict[str, Annotation]:
    """Parse RTTM text into one Annotation per recording URI, in order of first appearance.

    Every non-empty line must be a SPEAKER record with at least 9
    whitespace-separated fields; fields 2, 4, 5 and 8 carry the URI, onset,
    duration and speaker label. One pass over the lines checks each record's
    structure and collects four columns; numbers are converted and values
    checked per column, once. Errors report the lowest offending line number.
    """
    try:
        uri_index: dict[str, int] = {}
        label_index: dict[str, int] = {}
        uri_codes, onsets, durations, label_codes = [], [], [], []
        for line in text.splitlines():
            fields = line.split(None, 8)  # fields past the ninth are never read
            if fields:
                if fields[0] != "SPEAKER" or len(fields) < 9:
                    raise ValueError("not a SPEAKER record")
                uri_codes.append(uri_index.setdefault(fields[1], len(uri_index)))
                onsets.append(fields[3])
                durations.append(fields[4])
                label_codes.append(label_index.setdefault(fields[7], len(label_index)))
        onset = np.array(onsets, dtype=float)
        duration = np.array(durations, dtype=float)
        # renumber labels from first appearance to sorted order
        labels = sorted(label_index)
        rank = np.empty(len(labels), dtype=np.intp)
        rank[[label_index[label] for label in labels]] = np.arange(len(labels))
        label_code = rank[np.array(label_codes, dtype=np.intp)]
        # rows grouped by URI, each group in input order
        uri_code = np.array(uri_codes, dtype=np.intp)
        order = np.argsort(uri_code, kind="stable")
        stops = np.cumsum(np.bincount(uri_code, minlength=len(uri_index))).tolist()
        result = {}
        for uri, start, stop in zip(uri_index, [0] + stops, stops):
            rows = order[start:stop]
            result[uri] = Annotation._from_columns(uri, onset[rows], duration[rows], label_code[rows], labels)
        return result
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
            _, onset, duration, speaker = _speaker_record(fields)
            _check_segment(onset, duration, speaker)
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
