"""Seeded end-to-end and per-layer benchmark of the ``diarsep`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload der-corpus --seed 1 --seconds 24 --trace 0

The seed generates the workload's inputs (cached per seed under
``.perfbench/``, generation untimed). One client runs ops back to back, one
CLI child process at a time, for the whole number of ops that best fills
``--seconds``; ``diarsep version`` calls between the first ops time set-up.
Every op's output is checked. A host probe (``hostprobe.py``) runs between
ops; the timed end-to-end metrics are wall times scaled by the probe's
speed, so that the shared host's drift cancels, and the raw wall times are
printed beside them. With ``--trace 1`` the run adds, per op, the same
calls made in-process with and without spans, and reports per-layer metrics
instead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The lines before it print every metric with its unit and sample count.
"""

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostprobe import REFERENCE_S, SHARE

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench"
KEEP_SEEDS = 3  # cached input sets kept per workload and size
CALL_TIMEOUT_S = 150
SETUP_SAMPLES = 3
PYTHON_START_SAMPLES = 5
IMPORT_SAMPLES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diarsep.cli; "
    "print(repr(time.perf_counter() - t))"
)

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "audio_x_rt": "audio-s/wall-s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "annotation.parse_rttm_s": "s",
    "annotation.parse_uem_s": "s",
    "annotation.emit_rttm_s": "s",
    "annotation.segments": "count",
    "der.compute_der_s": "s",
    "der.recordings": "count",
    "der.edges": "count",
    "der.speakers_max": "count",
    "powerset.decode_frames_s": "s",
    "powerset.frames": "count",
    "features.read_s": "s",
    "features.bytes_read": "B",
    "diarize.chunk_build_s": "s",
    "diarize.pooled_embeddings_s": "s",
    "diarize.ahc_cluster_s": "s",
    "diarize.stitch_s": "s",
    "diarize.embeddings": "count",
    "diarize.clusters": "count",
    "audio.read_wav_s": "s",
    "audio.write_wav_s": "s",
    "audio.samples_read": "count",
    "audio.samples_written": "count",
    "resample.design_s": "s",
    "resample.up_s": "s",
    "resample.down_s": "s",
    "resample.macs": "MAC-computed",
    "resample.bytes": "B-computed",
    "tasnet.random_basis_s": "s",
    "tasnet.oracle_masks_s": "s",
    "tasnet.encode_s": "s",
    "tasnet.apply_masks_s": "s",
    "tasnet.decode_s": "s",
    "tasnet.macs": "MAC-computed",
    "tasnet.bytes": "B-computed",
    "sepmetrics.si_sdr_s": "s",
    "sepmetrics.sdr_improvement_s": "s",
    "sepmetrics.sources": "count",
    "host.python_start_s": "s",
    "host.probe_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unaccounted_frac": "fraction",
    "trace.errors": "count",
}


def blas_threads() -> str:
    """The OpenBLAS thread count numpy runs with, or the env setting if unreadable."""
    import numpy  # noqa: F401  loads the BLAS library

    setting = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"{fn()} (OPENBLAS_NUM_THREADS={setting})"
    return f"unknown (OPENBLAS_NUM_THREADS={setting})"


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it, and its label.

    With 10 samples or fewer no percentile qualifies; the maximum is reported
    and labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of n={n} (fewer than 11 ops, no percentile has 10 beyond it)"
    rank = n - 11  # 10 samples above this order statistic
    return ordered[rank], f"p{100 * (rank + 1) / n:.1f} of n={n}"


class Runner:
    """Spawns CLI children one at a time and times each from spawn to exit."""

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, argv: list[str], tag: str) -> tuple[float, float, int, str]:
        """Run one child; return wall seconds, peak RSS in MB, exit code, stdout."""
        out_path, err_path = self.log_dir / f"{tag}.out", self.log_dir / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text()

    def cli(self, args: list[str], tag: str):
        return self.spawn([sys.executable, "-m", "diarsep.cli", *args], tag)

    def probe(self, seconds: float) -> list[float]:
        """Times of the host probe's repeats, run for about ``seconds``."""
        argv = [sys.executable, str(ROOT / "perfbench" / "hostprobe.py"), repr(seconds)]
        _, _, code, text = self.spawn(argv, "probe")
        if code != 0:
            raise RuntimeError(f"host probe exited {code}")
        return [float(t) for t in text.split()]

    def python_start(self) -> list[float]:
        return [self.spawn([sys.executable, "-c", "pass"], "python")[0] for _ in range(PYTHON_START_SAMPLES)]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def run_op(runner: Runner, wl) -> tuple[float, float, str, list[str]]:
    """One op: the workload's CLI calls in order. Returns wall, peak RSS, stdout, problems."""
    wall = peak = 0.0
    stdout = ""
    for i, call in enumerate(wl.calls()):
        seconds, rss, code, text = runner.cli(call, f"call{i}")
        wall += seconds
        peak = max(peak, rss)
        stdout += text
        if code != 0:
            err = (runner.log_dir / f"call{i}.err").read_text().strip()
            return wall, peak, stdout, [f"{call[0]} exited {code}: {err[-300:]}"]
    return wall, peak, stdout, wl.check(stdout)


def measure(runner: Runner, wl, seconds: float, tally: Tally, between_ops=None):
    """Closed loop of ops, as many as best fills ``seconds``.

    A ``diarsep version`` call runs before each of the first
    ``SETUP_SAMPLES`` ops (and after the loop, if it ran fewer ops). The host
    probe runs before each op, for ``SHARE`` of the op before it, and once
    after the last op. The loop stops once another op would end more than
    half an op past ``seconds``, so a run's length averages ``seconds``
    whatever the op time. Returns set-up, op and probe times and peak RSS.
    """
    setup, walls, peaks, probes = [], [], [], []

    def version() -> None:
        took, _, code, text = runner.cli(["version"], "version")
        setup.append(took)
        if code != 0 or not text.startswith("diarsep "):
            tally.problems.append(f"version exited {code} printing {text!r}")

    first_stdout = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if len(setup) < SETUP_SAMPLES:
            version()
        probes += runner.probe(SHARE * walls[-1] if walls else 0.0)
        wall, peak, stdout, problems = run_op(runner, wl)
        first_stdout = stdout if first_stdout is None else first_stdout
        if stdout != first_stdout:
            problems.append("stdout differs from the first op of the run")
        if between_ops is not None and not problems:
            problems += between_ops(len(walls), stdout)
        tally.record(problems)
        walls.append(wall)
        peaks.append(peak)
        last = time.perf_counter() - began
        if time.perf_counter() - start + last / 2 > seconds:
            break
    probes += runner.probe(0.0)
    while len(setup) < SETUP_SAMPLES:
        version()
    if not tally.problems:
        deep = wl.deep_check(stdout)
        if deep:
            tally.failed += 1
            tally.problems += deep
    return setup, walls, peaks, probes


def end_to_end(runner, wl, seconds, tally, lines):
    starts = runner.python_start()
    setup, walls, peaks, probes = measure(runner, wl, seconds, tally)
    host_s = statistics.mean(probes)
    scale = REFERENCE_S / host_s  # host-normalised seconds per wall second
    op_tail, tail_label = tail(walls)
    raw = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(walls),
        "audio_x_rt": wl.truth["audio_s"] * len(walls) / sum(walls),
    }
    values = {name: value / scale if name == "audio_x_rt" else value * scale
              for name, value in raw.items()}
    values["peak_rss_mb"] = max(peaks)
    notes = {
        "setup_s": f"median of n={len(setup)} `diarsep version` calls",
        "op_p50_s": f"median of n={len(walls)} ops",
        "audio_x_rt": f"{wl.truth['audio_s']:.0f} audio-s per op",
        "peak_rss_mb": "largest child ru_maxrss over all ops",
    }
    lines.append(f"host.python_start_s {statistics.median(starts):.6f} s (control, median of n={len(starts)})")
    lines.append(
        f"host.probe_s {host_s:.6f} s (mean of n={len(probes)} probe repeats); timed metrics "
        f"below are wall times scaled by {REFERENCE_S:g} s / host.probe_s = {scale:.4f}"
    )
    lines.append("op walls, s: " + " ".join(f"{w:.3f}" for w in walls))
    lines.append("setup walls, s: " + " ".join(f"{w:.3f}" for w in setup))
    for name, value in values.items():
        wall = f"; raw {raw[name]:.6f}" if name in raw else ""
        lines.append(f"{name} {value:.6f} {END_TO_END[name]} ({notes[name]}{wall})")
    # Printed, not in the result: no percentile of a run's few ops has ten
    # samples beyond it, and the maximum of a handful is too noisy to gate on.
    lines.append(f"op_tail_s {op_tail * scale:.6f} s ({tail_label}; raw {op_tail:.6f})")
    return values


def traced(runner, wl, seconds, tally, lines):
    import diarsep.cli  # noqa: F401  imported before timing in-process ops
    from tracer import NullTracer, Tracer

    starts = runner.python_start()
    imports = []
    for _ in range(IMPORT_SAMPLES):
        _, _, code, text = runner.spawn([sys.executable, "-c", IMPORT_PROBE], "import")
        if code != 0:
            raise RuntimeError("importing diarsep.cli failed")
        imports.append(float(text))

    tracer, null = Tracer(), NullTracer()
    traced_walls, plain_walls, layer_sums, self_times = [], [], [], []
    counts: dict = {}
    mirror_dirs = {"traced": wl.out / "traced", "plain": wl.out / "plain"}
    for path in mirror_dirs.values():
        path.mkdir(parents=True, exist_ok=True)

    def in_process(index: int, stdout: str) -> list[str]:
        """After each CLI op: the mirror with and without spans, order alternating."""
        expected = wl.outputs(stdout, wl.out / "cli")
        problems = []
        for kind in (("traced", "plain") if index % 2 == 0 else ("plain", "traced")):
            tr = tracer if kind == "traced" else null
            op = tr.begin_op()
            began = time.perf_counter()
            try:
                with tr.span("op"):
                    digests, found = wl.mirror(tr, mirror_dirs[kind])
            except ValueError as exc:
                problems.append(f"{kind} in-process op raised ValueError: {exc}")
                continue
            took = time.perf_counter() - began
            counts.update(found)
            if digests != expected:
                problems.append(f"{kind} in-process outputs differ from the CLI's")
            if kind == "traced":
                traced_walls.append(took)
                per_name = tracer.self_times(op)
                per_name.pop("op", None)
                self_times.append(per_name)
                layer_sums.append(sum(per_name.values()))
            else:
                plain_walls.append(took)
        return problems

    _, walls, _, probes = measure(runner, wl, seconds, tally, between_ops=in_process)

    def median(samples) -> float:  # 0 when every traced op failed
        samples = list(samples)
        return statistics.median(samples) if samples else 0.0

    import_s = median(imports)
    op_p50 = median(walls)
    values = {name: 0.0 if PER_LAYER[name] == "s" else 0 for name in PER_LAYER}
    for name in {n for per_op in self_times for n in per_op}:
        values[f"{name}_s"] = median(per_op.get(name, 0.0) for per_op in self_times)
    values.update(counts)
    values.update(wl.input_counts())
    calls = len(wl.calls())
    values.update({
        "cli.import_s": import_s,
        "host.python_start_s": median(starts),
        "host.probe_s": statistics.mean(probes),
        "trace.overhead_frac": median(traced_walls) / median(plain_walls) - 1.0 if plain_walls else 0.0,
        "trace.unaccounted_frac": 1.0 - (calls * import_s + median(layer_sums)) / op_p50,
        "trace.errors": tracer.errors,
    })
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"span or count names missing from PER_LAYER: {sorted(unknown)}")
    lines.append(
        f"traced ops n={len(traced_walls)}; op_p50_s {op_p50:.6f} s over n={len(walls)} CLI ops; "
        f"{calls} CLI call(s) per op, each paying cli.import_s"
    )
    for name, value in values.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        lines.append(f"{name} {shown} {PER_LAYER[name]}")
    tracer.dump(wl.out / "spans.json", {"workload": wl.name, "seed": wl.seed})
    return values


def prepare_inputs(workload: str, size: str, seed: int, fault: bool) -> tuple[Path, dict]:
    from inputs import generate

    base = CACHE / "inputs" / workload
    inp = base / f"{size}-{seed}{'-fault' if fault else ''}"
    marker = inp / "truth.json"
    if fault and inp.exists():
        shutil.rmtree(inp)
    if not marker.exists():
        if base.exists():  # keep the cache small: drop the oldest input sets
            cached = sorted((p for p in base.iterdir() if p.is_dir()), key=lambda p: p.stat().st_mtime)
            for old in cached[: max(0, len(cached) - KEEP_SEEDS + 1)]:
                shutil.rmtree(old)
        partial = inp.with_name(inp.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        generate(workload, size, seed, partial)
        partial.rename(inp)
    inp.touch()
    return inp, json.loads(marker.read_text())


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs are for the benchmark's own tests")
    parser.add_argument("--fault", action="store_true",
                        help="corrupt the generated inputs; every op should then fail its check")
    args = parser.parse_args(argv)

    for needed in ("src/diarsep/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a diarsep checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    inp, truth = prepare_inputs(args.workload, args.size, args.seed, args.fault)
    out = CACHE / "work" / f"{args.workload}-{args.size}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "cli").mkdir(parents=True)
    wl = WORKLOADS[args.workload](ROOT, inp, out, truth, args.seed)
    if args.fault:
        wl.apply_fault()

    lines = [
        f"workload {args.workload} size {args.size} seed {args.seed} trace {args.trace} "
        f"seconds {args.seconds:g}; nproc {os.cpu_count()}; blas threads {blas_threads()}"
    ]
    runner = Runner(out / "cli")
    tally = Tally()
    # untimed: compiles bytecode, which users pay once per install
    if not (ROOT / "src" / "diarsep" / "__pycache__").is_dir():
        if runner.cli(["version"], "warmup")[2] != 0:
            tally.problems.append("warm-up `diarsep version` failed")
    report = traced if args.trace else end_to_end
    values = report(runner, wl, args.seconds, tally, lines)
    lines.append(
        f"error_rate {tally.failed / tally.attempted:.6f} fraction "
        f"({tally.failed} of {tally.attempted} ops failed)"
    )
    lines += [f"problem: {p}" for p in tally.problems[:20]]
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
