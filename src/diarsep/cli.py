"""Command-line interface: one deterministic, scriptable subcommand per pipeline stage.

Exit codes: 0 success, 1 input/validation error, 2 usage error. Results go to
stdout, diagnostics to stderr. An optional ``--config FILE`` (key=value lines)
sets flag defaults; explicit flags override the file. A key must name an
option of some subcommand, so one file can serve several, and its value is
checked like that flag; a misspelt key or a bad value is an error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .annotation import Annotation, emit_rttm, parse_rttm, parse_uem
from .audio import AudioBuffer, read_wav, write_wav
from .der import DerReport, compute_der, total_der
from .diarize import DEFAULT_AHC_THRESHOLD, DEFAULT_HOP, DEFAULT_MIN_SEG
from .diarize import chunks_from_stack, diarize_file, embeddings_from_stack
from .features import FeatureMatrix, FeatureStack, read_feature_stack, write_feature_stack
from .fusion import normalize_weights, weighted_sum
from .powerset import build_space, decode_class, encode_label
from .resample import DEFAULT_STOPBAND_DB, DEFAULT_TRANSITION_FRAC, SUPPORTED_RATES
from .resample import design_kaiser_sinc, resample
from .sepmetrics import sdr_improvement, si_sdr
from .tasnet import basis_from_stack, oracle_masks, random_basis, separate_with_masks


def _fmt_db(value: float, cap: float | None = None) -> str:
    if cap is not None:
        value = max(min(value, cap), -cap)
    if value == float("inf"):
        return "+inf"
    if value == float("-inf"):
        return "-inf"
    return f"{value:.3f}"


def _cmd_version(args) -> int:
    print(f"diarsep {__version__}")
    return 0


def _cmd_resample(args) -> int:
    buf = read_wav(args.input)
    fir = None
    if buf.sample_rate != args.rate:
        fir = design_kaiser_sinc(buf.sample_rate, args.rate, args.stopband_db, args.transition_frac)
    out = resample(buf, args.rate, fir)
    write_wav(out, args.output)
    print(
        f"resampled {len(buf)} samples @ {buf.sample_rate} Hz -> "
        f"{len(out)} samples @ {out.sample_rate} Hz: {args.output}"
    )
    return 0


def _cmd_powerset(args) -> int:
    space = build_space(args.num_speakers)
    if args.encode is not None:
        bits = args.encode.strip()
        if len(bits) != space.max_speakers or set(bits) - {"0", "1"}:
            raise ValueError(
                f"--encode expects {space.max_speakers} characters of 0/1, got {args.encode!r}"
            )
        print(encode_label(space, [int(b) for b in bits]))
        return 0
    if args.decode is not None:
        vec = decode_class(space, args.decode)
        print("".join(str(int(v)) for v in vec))
        return 0
    for idx, members in enumerate(space.classes):
        names = "+".join(f"s{k}" for k in members) or "-"
        print(f"{idx}\t{names}")
    return 0


def _cmd_fuse(args) -> int:
    stack = read_feature_stack(args.stack)
    logits = []
    for lineno, line in enumerate(Path(args.weights).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            logits.append(float(line.strip()))
        except ValueError:
            raise ValueError(f"{args.weights}: line {lineno}: expected one logit per line") from None
    alpha = normalize_weights(logits)
    fused = weighted_sum(stack, alpha)
    write_feature_stack(FeatureStack(fused.data[None], fused.frame_rate), args.output)
    print(
        f"fused {stack.n_layers} layers x {stack.n_frames} frames x {stack.dim} dims "
        f"-> {args.output}"
    )
    return 0


def _cmd_separate_oracle(args) -> int:
    sources = [read_wav(p) for p in args.sources]

    if args.basis:
        basis = basis_from_stack(read_feature_stack(args.basis), args.stride, args.nonlinearity)
    else:
        basis = random_basis(args.filters, args.kernel, args.stride, args.seed, args.nonlinearity)

    masks = oracle_masks(sources, basis)  # also checks that the sources share one rate and length
    mixture = AudioBuffer(np.sum([s.samples for s in sources], axis=0), sources[0].sample_rate)
    estimates = separate_with_masks(mixture, masks, basis)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (src, est) in enumerate(zip(sources, estimates)):
        # decoding yields (T - 1) * stride + kernel_len <= len(src) samples
        padded = np.pad(est.samples, (0, len(src) - len(est)))
        path = out_dir / f"est{i}.wav"
        write_wav(AudioBuffer(padded, est.sample_rate), path)
        quality = si_sdr(src.samples, padded)
        print(f"source {i}: si_sdr={_fmt_db(quality)} dB -> {path}")
    if args.save_masks:
        write_feature_stack(FeatureStack(masks, mixture.sample_rate / basis.stride), args.save_masks)
        print(f"masks -> {args.save_masks}")
    return 0


def _cmd_diarize(args) -> int:
    stack = read_feature_stack(args.scores)
    chunks = chunks_from_stack(stack, args.num_speakers, args.hop)
    if not (args.features or args.embeddings):
        raise ValueError("need --features or --embeddings to identify speakers across chunks")

    features = None
    embeddings = None
    if args.embeddings:
        embeddings = embeddings_from_stack(read_feature_stack(args.embeddings), chunks)
    if args.features:
        feat_stack = read_feature_stack(args.features)
        features = [
            FeatureMatrix(feat_stack.data[ci], feat_stack.frame_rate)
            for ci in range(feat_stack.n_layers)
        ]

    uri = args.uri or Path(args.scores).stem
    annotation = diarize_file(
        chunks,
        features,
        embeddings=embeddings,
        uri=uri,
        min_seg=args.min_seg,
        ahc_threshold=args.ahc_threshold,
    )
    rttm = emit_rttm(annotation)
    if args.output == "-":
        sys.stdout.write(rttm)
    else:
        Path(args.output).write_text(rttm)
        print(
            f"wrote {len(annotation.segments)} segments for "
            f"{len(annotation.speakers())} speakers -> {args.output}"
        )
    return 0


def _der_text_row(uri: str, r: DerReport) -> str:
    return (
        f"{uri} DER {r.der_pct:.3f}% FA {r.fa_pct:.3f}% MD {r.md_pct:.3f}% SC {r.sc_pct:.3f}% "
        f"speech {r.total_speech:.3f}s"
    )


def _der_csv_row(uri: str, r: DerReport) -> str:
    values = (r.false_alarm, r.missed, r.confusion, r.total_speech, r.fa_pct, r.md_pct, r.sc_pct, r.der_pct)
    return uri + "," + ",".join(f"{v:.6f}" for v in values)


def _cmd_score_der(args) -> int:
    ref_map = parse_rttm(Path(args.ref).read_text())
    hyp_map = parse_rttm(Path(args.hyp).read_text())
    uem = parse_uem(Path(args.uem).read_text()) if args.uem else {}
    uris = sorted(set(ref_map) | set(hyp_map))
    if not uris:
        raise ValueError("no recordings found in either RTTM file")

    reports = []
    for uri in uris:
        ref = ref_map.get(uri, Annotation(uri, ()))
        hyp = hyp_map.get(uri, Annotation(uri, ()))
        reports.append((uri, compute_der(ref, hyp, collar=args.collar, eval_regions=uem.get(uri))))

    rows = reports if args.mode != "aggregate" else []
    if args.mode != "per-file":
        rows = rows + [("OVERALL", total_der(r for _, r in reports))]
    if args.format == "csv":
        print("uri,false_alarm_s,missed_s,confusion_s,total_speech_s,fa_pct,md_pct,sc_pct,der_pct")
    format_row = _der_csv_row if args.format == "csv" else _der_text_row
    for uri, r in rows:
        print(format_row(uri, r))
    return 0


def _cmd_score_sdr(args) -> int:
    # "not > 0" also catches NaN, which min/max in _fmt_db would pass through unnoticed
    if args.cap_db is not None and not args.cap_db > 0:
        raise ValueError(f"--cap-db must be positive (inf for no cap), got {args.cap_db}")
    refs = [read_wav(p) for p in args.refs]
    ests = [read_wav(p) for p in args.ests]
    mixture = read_wav(args.mix)

    report = sdr_improvement(refs, ests, mixture, metric=args.metric, permute=not args.no_pit)
    perm = ",".join(str(p) for p in report.permutation)
    if args.format == "csv":
        print("source,estimate,sdr_db,sdri_db")
        for i, (v, vi) in enumerate(zip(report.per_source_sdr, report.per_source_sdri)):
            print(f"{i},{report.permutation[i]},{_fmt_db(v, args.cap_db)},{_fmt_db(vi, args.cap_db)}")
        print(f"mean,,{_fmt_db(report.mean_sdr, args.cap_db)},{_fmt_db(report.mean_sdri, args.cap_db)}")
    else:
        print(f"permutation: {perm}")
        for i, (v, vi) in enumerate(zip(report.per_source_sdr, report.per_source_sdri)):
            print(
                f"source {i}: {args.metric}={_fmt_db(v, args.cap_db)} dB "
                f"sdri={_fmt_db(vi, args.cap_db)} dB"
            )
        print(
            f"mean: {args.metric}={_fmt_db(report.mean_sdr, args.cap_db)} dB "
            f"sdri={_fmt_db(report.mean_sdri, args.cap_db)} dB"
        )
    return 0


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="diarsep",
        description="Diarization and separation evaluation toolkit.",
    )
    parser.add_argument("--config", metavar="FILE", help="key=value file of flag defaults")
    subs = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    fmt = argparse.ArgumentDefaultsHelpFormatter
    registry: dict[str, argparse.ArgumentParser] = {}

    def sub(name, help_text):
        p = subs.add_parser(name, help=help_text, formatter_class=fmt)
        registry[name] = p
        return p

    p = sub("version", "print the semantic version")
    p.set_defaults(func=_cmd_version)

    p = sub("resample", "Kaiser-sinc resampling between 8 and 16 kHz")
    p.add_argument("input", help="input WAV (PCM16 mono)")
    p.add_argument("output", help="output WAV path")
    p.add_argument("--rate", type=int, required=True, choices=SUPPORTED_RATES, help="target rate in Hz")
    p.add_argument("--stopband-db", type=float, default=DEFAULT_STOPBAND_DB, help="stopband attenuation")
    p.add_argument(
        "--transition-frac", type=float, default=DEFAULT_TRANSITION_FRAC, help="transition width fraction"
    )
    p.set_defaults(func=_cmd_resample)

    p = sub("powerset", "inspect the speaker-subset class catalog")
    p.add_argument("--num-speakers", type=int, default=3, help="tracked speakers K")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--encode", metavar="BITS", help="K-character 0/1 activity vector to encode")
    group.add_argument("--decode", metavar="INDEX", type=int, help="class index to decode")
    p.set_defaults(func=_cmd_powerset)

    p = sub("fuse", "weighted layer average of an SSLF stack")
    p.add_argument("stack", help="input SSLF feature stack")
    p.add_argument("weights", help="text file with one layer logit per line")
    p.add_argument("output", help="output SSLF path (single fused layer)")
    p.set_defaults(func=_cmd_fuse)

    p = sub("separate-oracle", "oracle-mask separation of summed sources")
    p.add_argument("--sources", nargs="+", required=True, help="clean source WAVs (mixture = their sum)")
    p.add_argument("--output-dir", required=True, help="directory for est<i>.wav files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--basis", help="SSLF basis file: layer 0 analysis, layer 1 synthesis")
    group.add_argument("--seed", type=int, help="seed for a random basis")
    p.add_argument("--filters", type=int, default=128, help="filters N for a random basis")
    p.add_argument("--kernel", type=int, default=16, help="kernel length L for a random basis")
    p.add_argument("--stride", type=int, default=8, help="encoder hop in samples")
    p.add_argument("--nonlinearity", choices=("relu", "linear"), default="relu", help="encoder nonlinearity")
    p.add_argument("--save-masks", metavar="FILE", help="also write the oracle masks as SSLF")
    p.set_defaults(func=_cmd_separate_oracle)

    p = sub("diarize", "stitch per-chunk segmentations into a file-level RTTM")
    p.add_argument("scores", help="SSLF tensor: chunks x frames x (powerset classes | K slots)")
    p.add_argument("--output", default="-", help="output RTTM path, - for stdout")
    p.add_argument("--features", help="SSLF per-chunk features for embedding pooling")
    p.add_argument("--embeddings", help="SSLF per-(chunk, slot) embeddings (zero rows = absent)")
    p.add_argument("--num-speakers", type=int, default=3, help="local speaker slots K")
    p.add_argument("--hop", type=float, default=DEFAULT_HOP, help="chunk hop in seconds (<= chunk span)")
    p.add_argument("--min-seg", type=float, default=DEFAULT_MIN_SEG, help="min single-speaker run for embeddings")
    p.add_argument(
        "--ahc-threshold", type=float, default=DEFAULT_AHC_THRESHOLD, help="cosine-distance merge threshold"
    )
    p.add_argument("--uri", help="recording identifier (default: scores file stem)")
    p.set_defaults(func=_cmd_diarize)

    p = sub("score-der", "diarization error rate between two RTTM files")
    p.add_argument("ref", help="reference RTTM")
    p.add_argument("hyp", help="hypothesis RTTM")
    p.add_argument("--uem", help="evaluation regions: lines of 'uri channel onset offset'")
    p.add_argument("--collar", type=float, default=0.0, help="exclusion collar in seconds")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--per-file", dest="mode", action="store_const", const="per-file",
        help="only per-recording rows",
    )
    group.add_argument(
        "--aggregate", dest="mode", action="store_const", const="aggregate",
        help="only the overall row",
    )
    p.add_argument("--format", choices=("text", "csv"), default="text", help="output format")
    p.set_defaults(func=_cmd_score_der, mode="both")

    p = sub("score-sdr", "separation quality of estimates against references")
    p.add_argument("--refs", nargs="+", required=True, help="reference WAVs")
    p.add_argument("--ests", nargs="+", required=True, help="estimated WAVs")
    p.add_argument("--mix", required=True, help="mixture WAV (improvement baseline)")
    p.add_argument("--metric", choices=("sdr", "si-sdr"), default="sdr", help="pairwise metric")
    p.add_argument("--no-pit", action="store_true", help="score in file order, no permutation search")
    p.add_argument("--cap-db", type=float, default=None, help="cap reported values at +-CAP dB (CAP > 0)")
    p.add_argument("--format", choices=("text", "csv"), default="text", help="output format")
    p.set_defaults(func=_cmd_score_sdr)

    return parser, registry


def _load_config(path: str) -> dict[str, str]:
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        overrides[key.strip().replace("-", "_")] = value.strip()
    return overrides


def _config_value(parser: argparse.ArgumentParser, actions: list[argparse.Action], text: str):
    """Convert ``text`` as ``parser`` converts the flags in ``actions`` (one dest).

    A switch takes true/false (store_true) or one of its flags' constants.
    """
    if actions[0].nargs != 0:
        try:
            return parser._get_values(actions[0], [text])
        except argparse.ArgumentError as exc:
            raise ValueError(exc.message) from None
    switch = actions[0].const is True  # store_true
    values = {"true": True, "false": False} if switch else {a.const: a.const for a in actions}
    choice = text.lower() if switch else text
    if choice not in values:
        raise ValueError(f"invalid value {text!r} (choose from {', '.join(values)})")
    return values[choice]


def _apply_config(path: str, parsers: list[argparse.ArgumentParser]) -> None:
    """Set flag defaults from a config file; each parser with a key's option checks its value."""
    overrides = _load_config(path)
    flags = [[a for a in p._actions if a.option_strings and a.dest != "help"] for p in parsers]
    unknown = sorted(set(overrides) - {a.dest for actions in flags for a in actions})
    if unknown:
        raise ValueError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    for p, actions in zip(parsers, flags):
        for key, text in overrides.items():
            named = [a for a in actions if a.dest == key]
            if named:
                try:
                    p.set_defaults(**{key: _config_value(p, named, text)})
                except ValueError as exc:
                    raise ValueError(f"{path}: {key}: {exc}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, rest = probe.parse_known_args(argv)

    parser, registry = _build_parser()
    try:
        if known.config:
            _apply_config(known.config, [parser, *registry.values()])
        args = parser.parse_args(rest)
    except SystemExit as exc:  # argparse usage errors (2) and --help (0)
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
