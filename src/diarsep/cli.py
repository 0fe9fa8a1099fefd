"""Command-line interface: one deterministic, scriptable subcommand per pipeline stage.

Exit codes: 0 success, 1 input/validation error, 2 usage error. Results go to
stdout, diagnostics to stderr. An optional ``--config FILE`` (key=value lines)
sets flag defaults; explicit flags override the file. A key must name an
option of some subcommand, so one file can serve several, and its value is
checked like that flag; a misspelt key or a bad value is an error.

This module imports only the stdlib and the numpy-free ``defaults`` at module
level; each ``_cmd_*`` imports what its subcommand runs, so a child loads no
numpy for ``version``, ``--help`` or a usage error, and no library module that
its subcommand does not call.
"""

import argparse
import gc
import os
import sys
from pathlib import Path

from . import __version__
from .defaults import DEFAULT_AHC_THRESHOLD, DEFAULT_HOP, DEFAULT_MIN_SEG
from .defaults import DEFAULT_STOPBAND_DB, DEFAULT_TRANSITION_FRAC, SUPPORTED_RATES, names_file


def _fmt_db(value: float, cap: float | None = None) -> str:
    if cap is not None:
        value = max(min(value, cap), -cap)
    if value == float("inf"):
        return "+inf"
    if value == float("-inf"):
        return "-inf"
    return f"{value:.3f}"


def _read_text(path: str) -> str:
    """The text of ``path`` decoded as UTF-8, whatever the locale; every error names the file.

    A byte that does not decode is a ValueError; an OSError that names no
    file (a failed read) is given ``path``.
    """
    try:
        with names_file(path):
            return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_file(parse, path: str):
    """``parse`` of the text of ``path``; its ValueError is prefixed with the path."""
    text = _read_text(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_version(args) -> int:
    print(f"diarsep {__version__}")
    return 0


def _cmd_resample(args) -> int:
    from .audio import wav_source, wav_writer
    from .resample import design_kaiser_sinc, resample_blocks, resampled_length

    # pool jobs read the input and write the output block by block; an output that
    # is the input would overwrite samples that later jobs read, so it is read whole first
    with wav_source(args.input) as source:
        # designed at the identity too, which runs without it, so the flags are checked at every rate
        fir = design_kaiser_sinc(source.sample_rate, args.rate, args.stopband_db, args.transition_frac)
        if source.same_file(args.output):
            source = source.collect()
        n_out = resampled_length(len(source), source.sample_rate, args.rate)
        with wav_writer(args.output, n_out, args.rate) as write:
            resample_blocks(source, args.rate, fir, write)
    print(
        f"resampled {len(source)} samples @ {source.sample_rate} Hz -> "
        f"{n_out} samples @ {args.rate} Hz: {args.output}"
    )
    return 0


def _cmd_powerset(args) -> int:
    from .powerset import build_space

    space = build_space(args.num_speakers)
    if args.encode is not None:
        bits = args.encode.strip()
        if len(bits) != space.max_speakers or set(bits) - {"0", "1"}:
            raise ValueError(
                f"--encode expects {space.max_speakers} characters of 0/1, got {args.encode!r}"
            )
        first = bits.find("1")  # index reads only the two lowest active slots
        second = bits.find("1", first + 1)
        print(space.index([slot for slot in (first, second) if slot >= 0]))
        return 0
    if args.decode is not None:
        members = space.members(args.decode)
        vector = bytearray(b"0") * space.max_speakers
        for slot in members:
            vector[slot] = ord("1")
        print(vector.decode())
        return 0
    for idx in range(space.n_classes):
        names = "+".join(f"s{k}" for k in space.members(idx)) or "-"
        print(f"{idx}\t{names}")
    return 0


def _cmd_fuse(args) -> int:
    from .features import FeatureStack, read_feature_stack, write_feature_stack
    from .fusion import normalize_weights, weighted_sum

    stack = read_feature_stack(args.stack)
    logits = []
    for lineno, line in enumerate(_read_text(args.weights).splitlines(), start=1):
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
    from contextlib import nullcontext

    import numpy as np

    from .audio import AudioBuffer, read_wav, write_wav
    from .features import read_feature_stack, sslf_writer
    from .sepmetrics import si_sdr
    from .tasnet import basis_from_stack, check_kernel_fits, masks_shape, oracle_separation, random_basis

    sources = [read_wav(p) for p in args.sources]

    if args.basis:
        basis = basis_from_stack(read_feature_stack(args.basis), args.stride, args.nonlinearity)
    else:
        check_kernel_fits(min(len(src) for src in sources), args.kernel)  # before the basis is allocated
        basis = random_basis(args.filters, args.kernel, args.stride, args.seed, args.nonlinearity)

    masks_file = nullcontext()
    if args.save_masks:  # masks_shape checks that the sources share one rate and length
        rate = sources[0].sample_rate / basis.stride
        shape = masks_shape(sources, basis)
        Path(args.save_masks).parent.mkdir(parents=True, exist_ok=True)  # as --output-dir is made
        masks_file = sslf_writer(args.save_masks, shape, rate)
    # the pass writes each block of masks to the file; a failure inside this block removes it
    with masks_file as on_masks:
        estimates = oracle_separation(sources, basis, on_masks)
        for i, src in enumerate(sources):  # in place, so one source at a time holds two copies
            # decoding yields (T - 1) * stride + kernel_len <= len(src) samples, checked as they were made
            est = estimates[i]
            estimates[i] = AudioBuffer._from_samples(np.pad(est.samples, (0, len(src) - len(est))), est.sample_rate)
        # every estimate is scored before any is written, so a scoring error leaves no estimate file
        qualities = [si_sdr(src, est) for src, est in zip(sources, estimates)]
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, (est, quality) in enumerate(zip(estimates, qualities)):
            path = out_dir / f"est{i}.wav"
            write_wav(est, path)
            print(f"source {i}: si_sdr={_fmt_db(quality)} dB -> {path}")
    if args.save_masks:
        print(f"masks -> {args.save_masks}")
    return 0


def _cmd_diarize(args) -> int:
    from .annotation import emit_rttm
    from .diarize import chunks_from_stack, diarize_file, embeddings_from_stack
    from .features import FeatureMatrix, output_file, read_feature_stack

    if not (args.features or args.embeddings):
        raise ValueError("need --features or --embeddings to identify speakers across chunks")
    chunks = chunks_from_stack(read_feature_stack(args.scores), args.num_speakers, args.hop)

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
        data = rttm.encode()
        with output_file(args.output, len(data)) as write:
            write(0, data)
        print(
            f"wrote {len(annotation.onsets)} segments for "
            f"{len(annotation.speakers())} speakers -> {args.output}"
        )
    return 0


def _der_text_row(uri: str, r) -> str:
    return (
        f"{uri} DER {r.der_pct:.3f}% FA {r.fa_pct:.3f}% MD {r.md_pct:.3f}% SC {r.sc_pct:.3f}% "
        f"speech {r.total_speech:.3f}s"
    )


def _der_csv_row(uri: str, r) -> str:
    values = (r.false_alarm, r.missed, r.confusion, r.total_speech, r.fa_pct, r.md_pct, r.sc_pct, r.der_pct)
    return uri + "," + ",".join(f"{v:.6f}" for v in values)


def _cmd_score_der(args) -> int:
    from .annotation import Annotation, parse_rttm, parse_uem
    from .der import compute_der, total_der
    from .workers import run_blocks

    ref_map = _parse_file(parse_rttm, args.ref)
    hyp_map = _parse_file(parse_rttm, args.hyp)
    uem = _parse_file(parse_uem, args.uem) if args.uem else {}
    uris = sorted(set(ref_map) | set(hyp_map))
    if not uris:
        raise ValueError("no recordings found in either RTTM file")
    uncovered = [uri for uri in uris if uri not in uem] if args.uem else []  # extra UEM URIs are allowed
    if uncovered:
        raise ValueError(f"{args.uem}: no UEM line for recording {uncovered[0]!r}")

    # one pool job per recording; run_blocks raises the error of the lowest failing one
    reports = [None] * len(uris)

    def score(k):
        uri = uris[k]
        ref = ref_map.get(uri, Annotation(uri, ()))
        hyp = hyp_map.get(uri, Annotation(uri, ()))
        reports[k] = (uri, compute_der(ref, hyp, collar=args.collar, eval_regions=uem.get(uri)))

    run_blocks(score, len(uris), 1)

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
    from .audio import read_wav
    from .sepmetrics import sdr_improvement

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
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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
    except MemoryError as exc:  # an allocation no input check bounds, e.g. a huge --filters
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console entry point: exit with main()'s code.

    OPENBLAS_NUM_THREADS=1, set before main() loads numpy, keeps OpenBLAS from
    starting a thread pool that diarsep never uses: the parallel passes run on
    workers.run_blocks, and an idle pool thread spins beside them. It also fixes
    how a long dot product is split, so the output bits do not depend on the
    CPU count or on the caller's environment. Stdout and stderr are UTF-8
    whatever the locale, as the text inputs are; a file name that does not
    decode is written back as its bytes. gc.freeze() after main() moves
    every object still alive, the subcommand's modules included, into the
    permanent generation, so the collections at exit do not walk them.
    main() itself stays free of these side effects for in-process callers.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    sys.stderr.reconfigure(encoding="utf-8", errors="surrogateescape")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
