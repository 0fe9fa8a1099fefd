"""The four workloads: CLI calls per op, output checks, and the traced mirror.

Each workload names the ``diarsep`` CLI calls that make one op, checks what
they print and write, and mirrors the same calls in-process for the traced
run: each public function the CLI calls is called directly, in the CLI's
order and with the CLI's arguments, inside a span named after its layer.
The mirror's RTTM, WAV and CSV outputs must equal the CLI's byte for byte.

Paths handed to the CLI are relative to the checkout root, where the CLI
runs.
"""

import hashlib
import math
import wave
from pathlib import Path

import numpy as np

from inputs import read_pcm16

COLLAR = 0.25
# Output-check thresholds, fixed with margin from the seed code on seeds 1 and
# 11-14: DER 0.0%, SI-SDR 4.2-6.8 dB, round-trip SNR 90.6-90.7 dB.
DIARIZE_MAX_DER_PCT = 1.0
SEPARATE_MIN_SI_SDR_DB = 3.0
RESAMPLE_MIN_SNR_DB = 80.0
RESAMPLE_EDGE = 2000  # samples skipped at each end of the round trip


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def wav_shape(path: Path) -> tuple[int, int]:
    """(sample rate, sample count) of a WAV file."""
    with wave.open(str(path), "rb") as src:
        return src.getframerate(), src.getnframes()


def parse_rttm_lines(text: str):
    """(uri, onset, duration, label) tuples of an RTTM text."""
    rows = []
    for line in text.splitlines():
        fields = line.split()
        if fields:
            rows.append((fields[1], float(fields[3]), float(fields[4]), fields[7]))
    return rows


def annotation(uri: str, rows):
    from diarsep import Annotation

    return Annotation(uri, tuple((on, dur, label) for u, on, dur, label in rows if u == uri))


def _merged(intervals):
    out = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return out


def elementary_intervals(ref_rows, hyp_rows, regions, collar: float) -> int:
    """Intervals between the distinct sweep boundaries of one recording.

    Boundaries are the ends of each speaker's merged activity on either side,
    of the merged collar zones around reference segment ends, and of the
    merged scoring regions.
    """
    boundaries = set()
    for rows in (ref_rows, hyp_rows):
        per_speaker = {}
        for _, on, dur, label in rows:
            per_speaker.setdefault(label, []).append((on, on + dur))
        for intervals in per_speaker.values():
            for start, end in _merged(intervals):
                boundaries.update((start, end))
    zones = []
    for _, on, dur, _ in ref_rows:
        end = on + dur
        zones += [(on - collar, on + collar), (end - collar, end + collar)]
    for start, end in _merged(zones) + _merged(regions):
        boundaries.update((start, end))
    return max(0, len(boundaries) - 1)


class Workload:
    name = ""

    def __init__(self, root: Path, inp: Path, out: Path, truth: dict, seed: int):
        self.root, self.inp, self.out, self.truth, self.seed = root, inp, out, truth, seed

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def calls(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, stdout: str) -> list[str]:
        """Cheap checks of one op's stdout and files; returns the problems found."""
        return []

    def deep_check(self, stdout: str) -> list[str]:
        """Costlier checks, run once per run on the last op's outputs."""
        return []

    def outputs(self, stdout: str, out: Path) -> dict[str, str]:
        """Digests of the files (and CSV) one op produced under ``out``."""
        raise NotImplementedError

    def mirror(self, tr, out: Path) -> tuple[dict[str, str], dict[str, float]]:
        """Run the op in-process under ``tr``; return output digests and counts."""
        raise NotImplementedError

    def input_counts(self) -> dict[str, int]:
        """Counts the benchmark derives from the inputs themselves, outside any timing."""
        return {}

    def apply_fault(self) -> None:
        raise NotImplementedError(f"{self.name} has no fault case")


# ---------------------------------------------------------------- der-corpus


class DerCorpus(Workload):
    name = "der-corpus"
    HEADER = "uri,false_alarm_s,missed_s,confusion_s,total_speech_s,fa_pct,md_pct,sc_pct,der_pct"

    def calls(self):
        return [[
            "score-der", self.rel(self.inp / "ref.rttm"), self.rel(self.inp / "hyp.rttm"),
            "--uem", self.rel(self.inp / "eval.uem"), "--collar", str(COLLAR), "--format", "csv",
        ]]

    def _rows(self, stdout: str) -> dict[str, list[float]]:
        lines = stdout.splitlines()
        if not lines or lines[0] != self.HEADER:
            raise ValueError("missing CSV header")
        return {line.split(",")[0]: [float(v) for v in line.split(",")[1:]] for line in lines[1:]}

    def check(self, stdout):
        try:
            rows = self._rows(stdout)
        except ValueError as exc:
            return [f"unreadable CSV: {exc}"]
        problems = []
        if list(rows) != sorted(self.truth["uris"]) + ["OVERALL"]:
            return [f"CSV rows {list(rows)[:3]}... do not match the corpus"]
        for uri, (fa, md, sc, speech, fa_p, md_p, sc_p, der_p) in rows.items():
            if abs(fa_p + md_p + sc_p - der_p) > 3e-6:
                problems.append(f"{uri}: decomposition identity fails")
            if speech <= 0 or any(
                abs(100.0 * s / speech - p) > 1e-5 for s, p in ((fa, fa_p), (md, md_p), (sc, sc_p))
            ):
                problems.append(f"{uri}: percentages disagree with seconds")
        files = [v for uri, v in rows.items() if uri != "OVERALL"]
        overall = rows["OVERALL"]
        for k in range(4):
            if abs(sum(v[k] for v in files) - overall[k]) > 1e-4:
                problems.append(f"OVERALL column {k} is not the sum of the rows")
        weighted = sum(v[7] * v[3] for v in files) / sum(v[3] for v in files)
        if abs(weighted - overall[7]) > 1e-5:
            problems.append("OVERALL DER is not the speech-weighted mean of the rows")
        return problems

    def deep_check(self, stdout):
        """One recording, chosen by the seed, against the 1 ms grid oracle."""
        from oracles import grid_der

        uri = self.truth["check_uri"]
        row = self._rows(stdout)[uri]
        ref = annotation(uri, parse_rttm_lines("\n".join(self.truth["check_ref"])))
        hyp = annotation(uri, parse_rttm_lines("\n".join(self.truth["check_hyp"])))
        regions = [(float(line.split()[2]), float(line.split()[3])) for line in self.truth["check_uem"]]
        fa, md, sc, speech, der, _ = grid_der(ref, hyp, collar=COLLAR, regions=regions)
        if any(abs(a - b) > 1e-5 for a, b in zip(row[:4], (fa, md, sc, speech))):
            return [f"{uri}: CLI row {row[:4]} disagrees with the grid oracle {(fa, md, sc, speech)}"]
        return []

    def outputs(self, stdout, out):
        return {"score.csv": digest(stdout.encode())}

    def mirror(self, tr, out):
        from diarsep.annotation import Annotation, parse_rttm, parse_uem
        from diarsep.der import compute_der

        ref_text = (self.inp / "ref.rttm").read_text()
        hyp_text = (self.inp / "hyp.rttm").read_text()
        uem_text = (self.inp / "eval.uem").read_text()
        with tr.span("annotation.parse_rttm"):
            ref_map = parse_rttm(ref_text)
        with tr.span("annotation.parse_rttm"):
            hyp_map = parse_rttm(hyp_text)
        with tr.span("annotation.parse_uem"):
            uem = parse_uem(uem_text)
        uris = sorted(set(ref_map) | set(hyp_map))
        reports = []
        for uri in uris:
            ref = ref_map.get(uri, Annotation(uri, ()))
            hyp = hyp_map.get(uri, Annotation(uri, ()))
            with tr.span("der.compute_der"):
                reports.append((uri, compute_der(ref, hyp, collar=COLLAR, eval_regions=uem.get(uri))))

        # the CLI's CSV, line for line
        fa = sum(r.false_alarm for _, r in reports)
        md = sum(r.missed for _, r in reports)
        sc = sum(r.confusion for _, r in reports)
        speech = sum(r.total_speech for _, r in reports)
        fa_pct, md_pct, sc_pct = (100.0 * v / speech for v in (fa, md, sc))
        overall = (fa, md, sc, speech, fa_pct, md_pct, sc_pct, fa_pct + md_pct + sc_pct)
        lines = [self.HEADER]
        for uri, r in reports:
            lines.append(
                f"{uri},{r.false_alarm:.6f},{r.missed:.6f},{r.confusion:.6f},"
                f"{r.total_speech:.6f},{r.fa_pct:.6f},{r.md_pct:.6f},{r.sc_pct:.6f},"
                f"{r.der_pct:.6f}"
            )
        lines.append("OVERALL," + ",".join(f"{v:.6f}" for v in overall))
        csv = "\n".join(lines) + "\n"

        counts = {
            "annotation.segments": sum(len(a.segments) for a in (*ref_map.values(), *hyp_map.values())),
            "der.recordings": len(uris),
            "der.speakers_max": max(
                max(len(ref_map[u].speakers()) if u in ref_map else 0,
                    len(hyp_map[u].speakers()) if u in hyp_map else 0)
                for u in uris
            ),
        }
        return {"score.csv": digest(csv.encode())}, counts

    def input_counts(self):
        """Elementary intervals of the DER sweep, counted from the input files."""
        by_uri = {}
        for name in ("ref.rttm", "hyp.rttm"):
            for row in parse_rttm_lines((self.inp / name).read_text()):
                by_uri.setdefault(row[0], ([], []))[name == "hyp.rttm"].append(row)
        regions = {}
        for line in (self.inp / "eval.uem").read_text().splitlines():
            uri, _, on, off = line.split()
            regions.setdefault(uri, []).append((float(on), float(off)))
        edges = sum(
            elementary_intervals(ref, hyp, regions.get(uri, []), COLLAR)
            for uri, (ref, hyp) in by_uri.items()
        )
        return {"der.edges": edges}

    def apply_fault(self):
        """Swap the hypothesis of the checked recording with the next one's."""
        path = self.inp / "hyp.rttm"
        uris = self.truth["uris"]
        a = self.truth["check_uri"]
        b = uris[(uris.index(a) + 1) % len(uris)]
        swap = {a: b, b: a}
        lines = []
        for line in path.read_text().splitlines():
            fields = line.split()
            fields[1] = swap.get(fields[1], fields[1])
            lines.append(" ".join(fields))
        path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------- diarize-5min


class Diarize(Workload):
    name = "diarize-5min"

    def calls(self):
        return [[
            "diarize", self.rel(self.inp / "rec.sslf"),
            "--features", self.rel(self.inp / "feats.sslf"),
            "--output", self.rel(self.out / "cli" / "rec.rttm"),
        ]]

    def check(self, stdout):
        rows = parse_rttm_lines((self.out / "cli" / "rec.rttm").read_text())
        found = len({label for *_, label in rows})
        if found != self.truth["speakers"]:
            return [f"RTTM has {found} speakers, truth has {self.truth['speakers']}"]
        return []

    def deep_check(self, stdout):
        from oracles import grid_der

        truth = annotation("rec", parse_rttm_lines((self.inp / "truth.rttm").read_text()))
        hyp = annotation("rec", parse_rttm_lines((self.out / "cli" / "rec.rttm").read_text()))
        der = grid_der(truth, hyp, step=0.01)[4]
        if der > DIARIZE_MAX_DER_PCT:
            return [f"DER against the constructed truth is {der:.2f}% > {DIARIZE_MAX_DER_PCT}%"]
        return []

    def outputs(self, stdout, out):
        return {"rec.rttm": digest((out / "rec.rttm").read_bytes())}

    def mirror(self, tr, out):
        from diarsep.annotation import emit_rttm
        from diarsep.diarize import ChunkSegmentation, ahc_cluster, pooled_embeddings, stitch
        from diarsep.features import FeatureMatrix, read_feature_stack
        from diarsep.powerset import build_space, decode_frames

        # cli._chunks_from_stack with the CLI defaults: K=3, 10 s window, 5 s hop
        hop, min_seg, threshold = 5.0, 0.25, 0.5
        with tr.span("features.read"):
            stack = read_feature_stack(self.inp / "rec.sslf")
        space = build_space(3)
        chunks = []
        for ci in range(stack.n_layers):
            with tr.span("powerset.decode_frames"):
                activity = decode_frames(space, stack.data[ci])
            with tr.span("diarize.chunk_build"):
                chunks.append(ChunkSegmentation(ci * hop, stack.frame_rate, activity))
        with tr.span("features.read"):
            feat_stack = read_feature_stack(self.inp / "feats.sslf")
            features = [
                FeatureMatrix(feat_stack.data[ci], feat_stack.frame_rate)
                for ci in range(feat_stack.n_layers)
            ]
        total = (len(chunks) - 1) * hop + stack.n_frames / stack.frame_rate

        # diarize.diarize_file, step by step
        frame_rate = chunks[0].frame_rate
        with tr.span("diarize.pooled_embeddings"):
            vectors = pooled_embeddings(chunks, features, min_seg)
        with tr.span("diarize.ahc_cluster"):
            labels = ahc_cluster([e.vector for e in vectors], threshold)
        assignment = {e.source: f"spk{label}" for e, label in zip(vectors, labels)}
        with tr.span("diarize.stitch"):
            result = stitch(chunks, assignment, frame_rate, total, "rec")
        with tr.span("annotation.emit_rttm"):
            rttm = emit_rttm(result)
        (out / "rec.rttm").write_text(rttm)

        counts = {
            "annotation.segments": len(result.segments),
            "powerset.frames": sum(c.n_frames for c in chunks),
            "features.bytes_read": sum((self.inp / f).stat().st_size for f in ("rec.sslf", "feats.sslf")),
            "diarize.embeddings": len(vectors),
            "diarize.clusters": len(set(labels)),
        }
        return self.outputs("", out), counts

    def apply_fault(self):
        """Cut the score file short, so the program must reject it."""
        path = self.inp / "rec.sslf"
        path.write_bytes(path.read_bytes()[:-1000])


# ------------------------------------------------------------- separate-60s


class Separate(Workload):
    name = "separate-60s"

    def _sources(self):
        return [self.rel(self.inp / "s0.wav"), self.rel(self.inp / "s1.wav")]

    def calls(self):
        sep = self.out / "cli"
        return [
            ["separate-oracle", "--sources", *self._sources(),
             "--seed", str(self.truth["basis_seed"]), "--output-dir", self.rel(sep)],
            ["score-sdr", "--metric", "si-sdr", "--refs", *self._sources(),
             "--ests", self.rel(sep / "est1.wav"), self.rel(sep / "est0.wav"),
             "--mix", self.rel(self.inp / "mix.wav")],
        ]

    def check(self, stdout):
        problems = []
        lines = stdout.splitlines()
        if "permutation: 1,0" not in lines:
            problems.append("score-sdr did not recover the shuffle (expected permutation 1,0)")
        values = []
        for line in lines:
            if line.startswith("source ") and "si_sdr=" in line:
                values.append(float(line.split("si_sdr=")[1].split()[0]))
            elif line.startswith("source ") and "si-sdr=" in line:
                values.append(float(line.split("si-sdr=")[1].split()[0]))
        if len(values) != 4:
            problems.append(f"expected 4 SI-SDR values, found {len(values)}")
        elif min(values) < SEPARATE_MIN_SI_SDR_DB:
            problems.append(f"SI-SDR {min(values):.2f} dB < floor {SEPARATE_MIN_SI_SDR_DB} dB")
        for i in range(2):
            if wav_shape(self.out / "cli" / f"est{i}.wav") != (16000, self.truth["samples"]):
                problems.append(f"est{i}.wav does not have the source rate and length")
        return problems

    def outputs(self, stdout, out):
        return {f"est{i}.wav": digest((out / f"est{i}.wav").read_bytes()) for i in range(2)}

    def mirror(self, tr, out):
        from diarsep.audio import AudioBuffer, read_wav, write_wav
        from diarsep.sepmetrics import sdr_improvement, si_sdr
        from diarsep.tasnet import apply_masks, decode, encode, oracle_masks, random_basis

        read = written = 0
        # cli._cmd_separate_oracle with the default basis
        sources = []
        for name in ("s0.wav", "s1.wav"):
            with tr.span("audio.read_wav"):
                sources.append(read_wav(self.inp / name))
            read += len(sources[-1])
        mixture = AudioBuffer(np.sum([s.samples for s in sources], axis=0), sources[0].sample_rate)
        with tr.span("tasnet.random_basis"):
            basis = random_basis(128, 16, 8, self.truth["basis_seed"], "relu")
        with tr.span("tasnet.oracle_masks"):
            masks = oracle_masks(sources, basis)
        # tasnet.separate_with_masks, step by step
        with tr.span("tasnet.encode"):
            latent = encode(mixture, basis)
        with tr.span("tasnet.apply_masks"):
            masked = apply_masks(latent, masks)
        estimates = []
        for m in masked:
            with tr.span("tasnet.decode"):
                estimates.append(decode(m, basis))
        for i, (src, est) in enumerate(zip(sources, estimates)):
            trimmed = est.samples[: len(src)]
            if trimmed.size < len(src):
                trimmed = np.pad(trimmed, (0, len(src) - trimmed.size))
            with tr.span("audio.write_wav"):
                write_wav(AudioBuffer(trimmed, est.sample_rate), out / f"est{i}.wav")
            written += len(src)
            with tr.span("sepmetrics.si_sdr"):
                si_sdr(src.samples, trimmed)

        # cli._cmd_score_sdr on the shuffled estimates
        buffers = []
        for path in (self.inp / "s0.wav", self.inp / "s1.wav", out / "est1.wav", out / "est0.wav",
                     self.inp / "mix.wav"):
            with tr.span("audio.read_wav"):
                buffers.append(read_wav(path))
            read += len(buffers[-1])
        with tr.span("sepmetrics.sdr_improvement"):
            report = sdr_improvement(buffers[:2], buffers[2:4], buffers[4], metric="si-sdr")
        if report.permutation != (1, 0):
            raise ValueError(f"traced run found permutation {report.permutation}")

        frames = latent.n_frames
        n, k = basis.n_filters, basis.kernel_len
        # three encodes (two sources, the mixture) and two decodes
        counts = {
            "audio.samples_read": read,
            "audio.samples_written": written,
            "tasnet.macs": 5 * frames * n * k + 2 * frames * n,
            "tasnet.bytes": 5 * 8 * frames * (n + k),
            "sepmetrics.sources": len(sources),
        }
        return self.outputs("", out), counts

    def apply_fault(self):
        """Truncate one source WAV inside its data chunk."""
        path = self.inp / "s1.wav"
        path.write_bytes(path.read_bytes()[:-1000])


# ----------------------------------------------------------- resample-20min


class Resample(Workload):
    name = "resample-20min"

    def calls(self):
        up, back = self.out / "cli" / "up16k.wav", self.out / "cli" / "back8k.wav"
        return [
            ["resample", self.rel(self.inp / "in8k.wav"), self.rel(up), "--rate", "16000"],
            ["resample", self.rel(up), self.rel(back), "--rate", "8000"],
        ]

    def check(self, stdout):
        n = self.truth["samples"]
        problems = []
        # round(n * fs_out / fs_in): 2n up, then round(2n / 2) = n down
        for name, rate, length in (("up16k.wav", 16000, 2 * n), ("back8k.wav", 8000, n)):
            found = wav_shape(self.out / "cli" / name)
            if found != (rate, length):
                problems.append(f"{name}: {found[1]} samples at {found[0]} Hz, expected {length} at {rate} Hz")
        return problems

    def deep_check(self, stdout):
        x, _ = read_pcm16(self.inp / "in8k.wav")
        y, rate = read_pcm16(self.out / "cli" / "back8k.wav")
        if rate != 8000 or y.size != x.size:
            return ["round trip changed the rate or length"]
        core = slice(RESAMPLE_EDGE, x.size - RESAMPLE_EDGE)
        snr = 10 * math.log10(np.sum(x[core] ** 2) / np.sum((x[core] - y[core]) ** 2))
        if snr < RESAMPLE_MIN_SNR_DB:
            return [f"round-trip SNR {snr:.1f} dB < floor {RESAMPLE_MIN_SNR_DB} dB"]
        return []

    def outputs(self, stdout, out):
        return {name: digest((out / name).read_bytes()) for name in ("up16k.wav", "back8k.wav")}

    def mirror(self, tr, out):
        from diarsep.audio import read_wav, write_wav
        from diarsep.resample import design_kaiser_sinc, resample

        read = written = macs = moved = 0
        src = self.inp / "in8k.wav"
        for direction, target, dst in (("up", 16000, out / "up16k.wav"), ("down", 8000, out / "back8k.wav")):
            # cli._cmd_resample with the default filter settings
            with tr.span("audio.read_wav"):
                buf = read_wav(src)
            with tr.span("resample.design"):
                fir = design_kaiser_sinc(buf.sample_rate, target, 80.0, 0.05)
            with tr.span(f"resample.{direction}"):
                result = resample(buf, target, fir)
            with tr.span("audio.write_wav"):
                write_wav(result, dst)
            read += len(buf)
            written += len(result)
            taps = fir.taps.size
            # up: 2n outputs from taps/2 nonzero products each; down: n/2 outputs from all taps
            macs += len(buf) * taps if direction == "up" else math.ceil(len(buf) / 2) * taps
            moved += 8 * (len(buf) + len(result))
            src = dst
        counts = {
            "audio.samples_read": read,
            "audio.samples_written": written,
            "resample.macs": macs,
            "resample.bytes": moved,
        }
        return self.outputs("", out), counts

    def apply_fault(self):
        """Truncate the input WAV inside its data chunk."""
        path = self.inp / "in8k.wav"
        path.write_bytes(path.read_bytes()[:-1000])


WORKLOADS = {w.name: w for w in (DerCorpus, Diarize, Separate, Resample)}
