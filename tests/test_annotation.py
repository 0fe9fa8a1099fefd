import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarsep import Annotation, Segment, compute_der, emit_rttm, parse_rttm, parse_uem
from diarsep.cli import main
from oracles import parse_rttm_oracle, random_annotation

EXAMPLE_LINE = "SPEAKER rec1 1 0.50 2.00 <NA> <NA> spkA <NA> <NA>"


def test_parse_single_line():
    result = parse_rttm(EXAMPLE_LINE)
    assert list(result) == ["rec1"]
    assert result["rec1"].segments == (Segment(0.5, 2.0, "spkA"),)


def test_parse_empty_text():
    assert parse_rttm("") == {}
    assert parse_rttm("\n\n  \n") == {}


def test_emit_matches_parse_example():
    ann = Annotation("rec1", ((0.5, 2.0, "spkA"),))
    assert emit_rttm(ann) == "SPEAKER rec1 1 0.500 2.000 <NA> <NA> spkA <NA> <NA>\n"


def test_emit_empty():
    assert emit_rttm(Annotation("rec1", ())) == ""


def test_round_trip_three_segments():
    ann = Annotation(
        "rec9",
        ((0.123, 1.5, "alice"), (2.0, 0.75, "bob"), (2.5, 3.25, "alice")),
    )
    back = parse_rttm(emit_rttm(ann))["rec9"]
    assert back == ann


def test_emit_equal_onsets_sorted_by_label():
    ann = Annotation("u", ((1.0, 2.0, "zeta"), (1.0, 2.0, "alpha")))
    lines = emit_rttm(ann).splitlines()
    assert lines[0].split()[7] == "alpha"
    assert lines[1].split()[7] == "zeta"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1.*non-numeric"):
        parse_rttm("SPEAKER u 1 abc 2.0 <NA> <NA> spk <NA> <NA>")
    with pytest.raises(ValueError, match="line 2.*positive"):
        parse_rttm(EXAMPLE_LINE + "\nSPEAKER u 1 1.0 0.0 <NA> <NA> spk <NA> <NA>")
    with pytest.raises(ValueError, match="line 1.*9 fields"):
        parse_rttm("SPEAKER u 1 1.0 2.0 <NA> <NA> spk")
    with pytest.raises(ValueError, match="line 1.*SPEAKER"):
        parse_rttm("LEXEME u 1 1.0 2.0 <NA> <NA> spk <NA> <NA>")
    with pytest.raises(ValueError, match="non-finite"):
        parse_rttm("SPEAKER u 1 1.0 nan <NA> <NA> spk <NA> <NA>")


def test_annotation_validation():
    with pytest.raises(ValueError, match="onset"):
        Annotation("u", ((-1.0, 2.0, "spk"),))
    with pytest.raises(ValueError, match="duration"):
        Annotation("u", ((0.0, 0.0, "spk"),))
    with pytest.raises(ValueError, match="label"):
        Annotation("u", ((0.0, 1.0, ""),))
    with pytest.raises(ValueError, match="label"):
        Annotation("u", ((0.0, 1.0, "two words"),))


def test_speakers_and_total_speech():
    ann = Annotation("u", ((0.0, 1.0, "b"), (1.0, 2.0, "a"), (5.0, 1.0, "b")))
    assert ann.speakers() == ["a", "b"]
    assert ann.total_speech() == pytest.approx(4.0)


def test_columns_from_numpy_scalars_give_python_floats_in_input_order():
    rows = ((np.float32(2.5), np.float64(1.0), "b"), (np.int64(0), np.float32(0.25), np.str_("a")))
    ann = Annotation("u", rows)
    assert ann.segments == (Segment(2.5, 1.0, "b"), Segment(0.0, 0.25, "a"))
    assert [type(value) for seg in ann.segments for value in seg] == [float, float, str] * 2
    assert ann.onsets.dtype == ann.durations.dtype == np.float64
    assert ann.labels == ("a", "b") and ann.codes.tolist() == [1, 0]
    with pytest.raises(ValueError, match="read-only"):
        ann.onsets[0] = 1.0
    with pytest.raises(AttributeError):
        ann.uri = "v"


def test_speakers_and_total_speech_match_the_per_segment_values():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ann = random_annotation(rng, max_speakers=6, max_segments=30)
        assert ann.speakers() == sorted({seg.speaker for seg in ann.segments})
        assert ann.total_speech() == sum(seg.duration for seg in ann.segments)


def test_parsed_annotations_hold_only_their_own_labels():
    lines = [("a", 0, "zed"), ("b", 0, "amy"), ("a", 2, "bob")]
    parsed = parse_rttm("".join(f"SPEAKER {u} 1 {t} 1 <NA> <NA> {s} <NA> <NA>\n" for u, t, s in lines))
    assert parsed["a"].labels == ("bob", "zed") and parsed["a"].codes.tolist() == [1, 0]
    assert parsed["b"].speakers() == ["amy"]


def test_equality_is_uri_and_segments_in_order():
    rows = ((0.5, 2.0, "b"), (0.5, 2.0, "a"))
    ann = Annotation("u", rows)
    assert parse_rttm(emit_rttm(ann))["u"] == Annotation("u", rows[::-1])  # emit sorts a first
    assert ann != Annotation("u", rows[::-1]) and ann != Annotation("v", rows)
    assert hash(ann) == hash(Annotation("u", list(rows)))


def test_empty_annotation_scores_and_emits():
    empty = Annotation("u", ())
    assert (empty.segments, empty.speakers(), empty.total_speech(), empty.labels) == ((), [], 0, ())
    assert emit_rttm(empty) == ""
    report = compute_der(empty, empty, collar=0.25, eval_regions=[(0.0, 10.0)])
    assert (report.der_pct, report.total_speech, report.mapping) == (0.0, 0.0, {})
    assert compute_der(Annotation("u", ((1.0, 2.0, "A"),)), empty).md_pct == 100.0


def test_parse_uem():
    regions = parse_uem("rec1 1 0.0 30.5\nrec1 1 40.0 60.0\nrec2 1 0.0 10.0\n")
    assert regions["rec1"] == [(0.0, 30.5), (40.0, 60.0)]
    assert regions["rec2"] == [(0.0, 10.0)]


def test_parse_uem_errors():
    with pytest.raises(ValueError, match="line 1.*4 fields"):
        parse_uem("rec1 1 0.0")
    with pytest.raises(ValueError, match="line 1.*interval"):
        parse_uem("rec1 1 5.0 5.0")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_uem("rec1 1 x 5.0")


def test_parse_reports_the_lowest_faulty_line():
    text = "\n".join([
        EXAMPLE_LINE,
        "SPEAKER other 1 1.0 0.0 <NA> <NA> spk <NA> <NA>",  # a value error, in another recording
        "LEXEME u 1 1.0 2.0 <NA> <NA> spk <NA> <NA>",  # a structural error
        "SPEAKER rec1 1 -1.0 2.0 <NA> <NA> spk <NA> <NA>",
    ])
    with pytest.raises(ValueError, match="^RTTM line 2: segment duration must be positive, got 0.0$"):
        parse_rttm(text)
    with pytest.raises(ValueError, match="^RTTM line 3: expected a SPEAKER record"):
        parse_rttm("\n".join([EXAMPLE_LINE, ""] + text.splitlines()[2:]))


def test_segment_end_must_be_finite():
    # onset and duration are finite, but their sum overflows
    with pytest.raises(ValueError, match="non-finite segment onset, duration or end"):
        Annotation("u", ((1e308, 1e308, "spk"),))
    with pytest.raises(ValueError, match="line 1: non-finite"):
        parse_rttm("SPEAKER u 1 1e308 1e308 <NA> <NA> spk <NA> <NA>")


def test_segment_end_must_exceed_its_onset():
    # a positive duration lost in rounding the end to float64 would score no time
    with pytest.raises(ValueError, match=r"^segment end must exceed its onset in float64, got \(1.7e\+308, 1.0\)$"):
        Annotation("u", ((0.0, 1.0, "spk"), (1.7e308, 1.0, "spk")))
    assert Annotation("u", ((1e15, 0.5, "spk"),)).durations.tolist() == [0.5]  # an end that keeps some of it


def test_emit_rejects_records_that_would_not_parse_back():
    # a duration under 0.5 ms would print as 0.000, which parse_rttm rejects
    with pytest.raises(ValueError, match=r"segment \(1.0, 0.0004, 'A'\) is shorter than 0.5 ms"):
        emit_rttm(Annotation("r", ((1.0, 0.0004, "A"),)))
    assert emit_rttm(Annotation("r", ((1.0, 0.0005, "A"),))).split()[4] == "0.001"
    # a URI with whitespace would shift every field after it
    for uri in ("two words", ""):
        with pytest.raises(ValueError, match="RTTM uri must be non-empty without whitespace"):
            emit_rttm(Annotation(uri, ((1.0, 2.0, "A"),)))


_LABELS = st.text(min_size=1, max_size=8).filter(lambda s: s.split() == [s])


@settings(max_examples=200, deadline=None)
@given(uri=_LABELS, rows=st.lists(st.tuples(st.integers(0, 10**7), st.integers(1, 10**6), _LABELS), max_size=12))
def test_emit_parse_round_trip(uri, rows):
    """Millisecond-aligned times, any valid URI and any valid labels come back as given."""
    ann = Annotation(uri, tuple((onset / 1000, duration / 1000, label) for onset, duration, label in rows))
    back = parse_rttm(emit_rttm(ann))
    if not rows:
        assert back == {}
        return
    assert list(back) == [uri]
    assert sorted(back[uri].segments) == sorted(ann.segments)


# RTTM and UEM lines for the parser fuzz: each field, each line and its
# length are valid nine times in ten, else broken


def _mostly(valid, broken):
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: valid if ok else broken)


_NUMBER = _mostly(
    st.integers(0, 6000).map(lambda k: str(k / 100)),
    st.sampled_from(["-1", "-0.0", "nan", "inf", "1e308", "1e400", "0x10", "1_0", "x"]),
)
_WORD = _mostly(st.sampled_from(["u", "v", "A", "B"]), st.text(max_size=3))
_KEEP = _mostly(st.just(10), st.integers(0, 9))  # how many fields of the line are kept
_RTTM_LINE = st.builds(
    lambda kind, uri, onset, duration, label, keep: " ".join(
        [kind, uri, "1", onset, duration, "<NA>", "<NA>", label, "<NA>", "<NA>"][:keep]
    ),
    _mostly(st.just("SPEAKER"), st.sampled_from(["LEXEME", "speaker"])),
    _WORD,
    _NUMBER,
    _NUMBER,
    _WORD,
    _KEEP,
)
_UEM_LINE = st.builds(
    lambda uri, onset, offset, keep: " ".join([uri, "1", onset, offset][:keep]), _WORD, _NUMBER, _NUMBER, _KEEP
)


def _fuzz_text(line):
    return st.lists(_mostly(line, st.text(max_size=12)), max_size=6).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(_fuzz_text(_RTTM_LINE))
def test_parse_rttm_fuzz_returns_annotations_or_value_error(text):
    try:
        result = parse_rttm(text)
    except ValueError as exc:
        assert str(exc).startswith("RTTM line ")
        return
    assert all(isinstance(ann, Annotation) and ann.uri == uri for uri, ann in result.items())


@settings(max_examples=200, deadline=None)
@given(_fuzz_text(_UEM_LINE))
def test_parse_uem_fuzz_returns_regions_or_value_error(text):
    try:
        result = parse_uem(text)
    except ValueError as exc:
        assert str(exc).startswith("UEM line ")
        return
    for regions in result.values():
        assert all(0 <= onset < offset < float("inf") for onset, offset in regions)


@settings(max_examples=50, deadline=None)
@given(ref=_fuzz_text(_RTTM_LINE), hyp=_fuzz_text(_RTTM_LINE), uem=st.none() | _fuzz_text(_UEM_LINE))
def test_score_der_fuzz_exits_0_or_1(tmp_path_factory, ref, hyp, uem):
    """score-der on fuzzed files: a score or an error message, never a traceback."""
    # fresh files per example: rewriting one path stalls on some filesystems (ext4 truncate-on-rewrite)
    folder = tmp_path_factory.mktemp("fuzz")
    argv = ["score-der", str(folder / "ref.rttm"), str(folder / "hyp.rttm"), "--collar", "0.25"]
    (folder / "ref.rttm").write_text(ref)
    (folder / "hyp.rttm").write_text(hyp)
    if uem is not None:
        (folder / "eval.uem").write_text(uem)
        argv += ["--uem", str(folder / "eval.uem")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()[:7]) in ((0, ""), (1, "error: "))


# lines of 11 and more fields, fields joined by Unicode whitespace (some of
# which, like \x1c, \x85 and \u2028, also end a line) and lines ended by \r\n
_SPACE = st.sampled_from([" ", "\t", "\xa0", "\x1c", "\x85", "\u2028"])
_WIDE_RTTM_LINE = st.builds(
    lambda line, extra, space: space.join(line.split(" ") + extra),
    _RTTM_LINE,
    st.lists(st.sampled_from(["<NA>", "x", "1.5"]), min_size=1, max_size=3),
    _SPACE,
)
_WIDE_RTTM_TEXT = st.builds(
    lambda lines, end: end.join(lines),
    st.lists(_mostly(_RTTM_LINE | _WIDE_RTTM_LINE, st.text(max_size=12)), max_size=6),
    st.sampled_from(["\n", "\r\n", "\x1c", "\x85", "\u2028"]),
)


def _parsed(parse, text):
    """URIs in order with their segments and speakers, or the error message."""
    try:
        return [(uri, ann.segments, ann.speakers()) for uri, ann in parse(text).items()]
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(_fuzz_text(_RTTM_LINE) | _WIDE_RTTM_TEXT)
def test_parse_rttm_agrees_with_the_per_segment_oracle(text):
    assert _parsed(parse_rttm, text) == _parsed(parse_rttm_oracle, text)
