import contextlib
import gc
import io
import json
import os
import re
import stat
import struct
import subprocess
import sys
import time
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diarsep
from diarsep import (
    AudioBuffer,
    FeatureStack,
    mirrored_dct_basis,
    oracle_masks,
    random_basis,
    read_feature_stack,
    read_wav,
    write_feature_stack,
    write_wav,
)
from diarsep import Annotation, emit_rttm
from diarsep.cli import main
from diarsep.der import compute_der, total_der
from diarsep.powerset import build_space
from diarsep.audio import BLOCK
from diarsep.tasnet import BLOCK_FRAMES, basis_to_stack
from diarsep.workers import worker_count
from oracles import perturbed_hypothesis, powerset_matrix_oracle, random_annotation, write_wav_oracle
from test_resample import cpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sine(path, freq, rate=8000, seconds=0.5, amp=0.4):
    t = np.arange(int(rate * seconds)) / rate
    write_wav(AudioBuffer((amp * np.sin(2 * np.pi * freq * t)).astype(np.float32), rate), path)


def fresh_python(script, *argv, env=None):
    """Run ``script`` in a new interpreter that imports this checkout's diarsep.

    ``env`` adds to or overrides the caller's environment variables.
    """
    package_root = str(Path(diarsep.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **(env or {}), "PYTHONPATH": pythonpath},
    )


def test_version(capsys):
    code, out, err = run(capsys, "version")
    assert code == 0
    assert re.fullmatch(r"diarsep \d+\.\d+\.\d+\n", out)
    assert err == ""


def test_usage_error_exit_code(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "score-der")[0] == 2  # missing positionals
    assert run(capsys)[0] == 2  # no subcommand


def test_help_exits_zero_and_lists_defaults(capsys):
    code, out, _ = run(capsys, "diarize", "--help")
    assert code == 0
    for token in ("--hop", "5.0", "--min-seg", "0.25", "--ahc-threshold", "0.5"):
        assert token in out
    code, out, _ = run(capsys, "resample", "--help")
    assert code == 0
    assert "80.0" in out and "0.05" in out
    code, out, _ = run(capsys, "score-der", "--help")
    assert code == 0
    assert "--collar" in out and "--per-file" in out and "--aggregate" in out
    for command in ("version", "powerset", "fuse", "separate-oracle", "score-sdr"):
        assert run(capsys, command, "--help")[0] == 0


def test_validation_error_exit_code(capsys):
    code, out, err = run(capsys, "score-der", "missing_ref.rttm", "missing_hyp.rttm")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_score_der_identical_files(tmp_path, capsys):
    rttm = tmp_path / "ref.rttm"
    rttm.write_text("SPEAKER rec1 1 0.500 2.000 <NA> <NA> spkA <NA> <NA>\n")
    code, out, err = run(capsys, "score-der", str(rttm), str(rttm))
    assert code == 0
    assert "DER 0.000%" in out
    assert err == ""


def test_score_der_modes_and_csv(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    ref.write_text(
        "SPEAKER a 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER b 1 0.000 4.000 <NA> <NA> B <NA> <NA>\n"
    )
    hyp.write_text(
        "SPEAKER a 1 0.000 8.000 <NA> <NA> X <NA> <NA>\n"
        "SPEAKER b 1 0.000 4.000 <NA> <NA> Y <NA> <NA>\n"
    )
    code, out, _ = run(capsys, "score-der", str(ref), str(hyp))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # two files + overall
    assert lines[0].startswith("a DER 20.000%")
    assert lines[1].startswith("b DER 0.000%")
    assert lines[2].startswith("OVERALL DER")

    code, out, _ = run(capsys, "score-der", str(ref), str(hyp), "--per-file")
    assert len(out.splitlines()) == 2
    code, out, _ = run(capsys, "score-der", str(ref), str(hyp), "--aggregate")
    assert out.splitlines()[0].startswith("OVERALL")

    code, out, _ = run(capsys, "score-der", str(ref), str(hyp), "--format", "csv")
    rows = out.splitlines()
    assert rows[0] == "uri,false_alarm_s,missed_s,confusion_s,total_speech_s,fa_pct,md_pct,sc_pct,der_pct"
    assert rows[1].startswith("a,0.000000,2.000000,")
    assert rows[-1].startswith("OVERALL,")


def test_score_der_with_uem_and_collar(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    uem = tmp_path / "regions.uem"
    ref.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    hyp.write_text(
        "SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER rec 1 20.000 5.000 <NA> <NA> A <NA> <NA>\n"
    )
    uem.write_text("rec 1 0.0 15.0\n")
    code, out, _ = run(capsys, "score-der", str(ref), str(hyp), "--uem", str(uem), "--collar", "0.25")
    assert code == 0
    assert "DER 0.000%" in out


def test_score_der_uem_must_cover_every_recording(tmp_path, capsys):
    ref, hyp, uem = tmp_path / "ref.rttm", tmp_path / "hyp.rttm", tmp_path / "regions.uem"
    ref.write_text("".join(f"SPEAKER {uri} 1 0.0 10.0 <NA> <NA> A <NA> <NA>\n" for uri in ("c", "b")))
    hyp.write_text("".join(f"SPEAKER {uri} 1 0.0 10.0 <NA> <NA> A <NA> <NA>\n" for uri in ("b", "d")))
    argv = ("score-der", str(ref), str(hyp), "--uem", str(uem), "--format", "csv")
    # "z" is in neither RTTM: extra UEM lines are allowed
    for covered, missing in ((["b"], "c"), (["b", "c"], "d"), (["d", "b"], "c")):
        uem.write_text("".join(f"{uri} 1 0.0 15.0\n" for uri in [*covered, "z"]))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {uem}: no UEM line for recording {missing!r}\n"
    # d's region holds none of its hypothesis speech, so d scores zeros rather than an undefined rate
    uem.write_text("d 1 20.0 30.0\nb 1 0.0 15.0\nz 1 0.0 5.0\nc 1 0.0 15.0\n")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()] == ["uri", "b", "c", "d", "OVERALL"]


def test_score_der_rejects_a_segment_whose_end_rounds_to_its_onset(tmp_path, capsys):
    ref, hyp = tmp_path / "ref.rttm", tmp_path / "hyp.rttm"
    ref.write_text("SPEAKER a 1 0 1 <NA> <NA> s1 <NA> <NA>\n")
    hyp.write_text("SPEAKER a 1 0 1 <NA> <NA> s1 <NA> <NA>\nSPEAKER a 1 1.7e308 1 <NA> <NA> s1 <NA> <NA>\n")
    code, out, err = run(capsys, "score-der", str(ref), str(hyp))
    assert (code, out) == (1, "")
    assert err == f"error: {hyp}: RTTM line 2: segment end must exceed its onset in float64, got (1.7e+308, 1.0)\n"


def test_score_sdr_swapped_inputs(tmp_path, capsys):
    rng = np.random.default_rng(0)
    r1 = rng.uniform(-0.4, 0.4, 4000).astype(np.float32)
    r2 = rng.uniform(-0.4, 0.4, 4000).astype(np.float32)
    paths = {}
    for name, data in (("r1", r1), ("r2", r2), ("mix", r1 + r2)):
        paths[name] = tmp_path / f"{name}.wav"
        write_wav(AudioBuffer(data, 8000), paths[name])

    code, out, _ = run(
        capsys,
        "score-sdr",
        "--refs", str(paths["r1"]), str(paths["r2"]),
        "--ests", str(paths["r2"]), str(paths["r1"]),  # swapped
        "--mix", str(paths["mix"]),
        "--metric", "si-sdr",
    )
    assert code == 0
    assert "permutation: 1,0" in out
    assert "+inf" in out


def test_score_sdr_cap_and_csv_and_no_pit(tmp_path, capsys):
    rng = np.random.default_rng(1)
    r1 = rng.uniform(-0.4, 0.4, 2000).astype(np.float32)
    r2 = rng.uniform(-0.4, 0.4, 2000).astype(np.float32)
    files = {}
    for name, data in (("r1", r1), ("r2", r2), ("mix", r1 + r2)):
        files[name] = tmp_path / f"{name}.wav"
        write_wav(AudioBuffer(data, 8000), files[name])
    base = [
        "score-sdr",
        "--refs", str(files["r1"]), str(files["r2"]),
        "--ests", str(files["r1"]), str(files["r2"]),
        "--mix", str(files["mix"]),
    ]
    code, out, _ = run(capsys, *base, "--cap-db", "80")
    assert code == 0
    assert "+inf" not in out
    assert "80.000" in out

    code, out, _ = run(capsys, *base, "--format", "csv")
    rows = out.splitlines()
    assert rows[0] == "source,estimate,sdr_db,sdri_db"
    assert rows[1].startswith("0,0,+inf")
    assert rows[-1].startswith("mean,,")

    code, out, _ = run(capsys, *base, "--no-pit")
    assert "permutation: 0,1" in out


def test_score_sdr_rejects_bad_cap(tmp_path, capsys):
    rng = np.random.default_rng(2)
    r1 = rng.uniform(-0.4, 0.4, 2000).astype(np.float32)
    r2 = rng.uniform(-0.4, 0.4, 2000).astype(np.float32)
    files = {}
    for name, data in (("r1", r1), ("r2", r2), ("e1", r1 + 0.1 * r2), ("mix", r1 + r2)):
        files[name] = tmp_path / f"{name}.wav"
        write_wav(AudioBuffer(data, 8000), files[name])
    base = [
        "score-sdr",
        "--refs", str(files["r1"]), str(files["r2"]),
        "--ests", str(files["e1"]), str(files["r2"]),
        "--mix", str(files["mix"]),
    ]
    for cap in ("-5", "0", "nan"):
        code, out, err = run(capsys, *base, "--cap-db", cap)
        assert (code, out) == (1, "")
        assert "--cap-db must be positive" in err
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(f"cap_db={cap}\n")
        code, out, err = run(capsys, "--config", str(cfg), *base)
        assert (code, out) == (1, "")
        assert "--cap-db must be positive" in err

    code, uncapped, _ = run(capsys, *base)
    assert code == 0 and "+inf" in uncapped
    code, out, _ = run(capsys, *base, "--cap-db", "inf")
    assert (code, out) == (0, uncapped)


def test_resample_command(tmp_path, capsys):
    src = tmp_path / "in.wav"
    dst = tmp_path / "out.wav"
    write_sine(src, 1000, rate=8000, seconds=0.5)
    code, out, _ = run(capsys, "resample", str(src), str(dst), "--rate", "16000")
    assert code == 0
    assert "8000 Hz -> 8000 samples @ 16000 Hz" in out
    assert read_wav(dst).sample_rate == 16000
    assert len(read_wav(dst)) == 8000


def test_resample_rejects_oversized_filter_designs(tmp_path, capsys):
    # these designs used to ask np.arange for 10^13 and 3 * 10^12 taps and
    # exit with a MemoryError traceback
    src = tmp_path / "in.wav"
    write_sine(src, 1000, rate=8000, seconds=0.1)
    argv = ["resample", str(src), str(tmp_path / "out.wav"), "--rate", "16000"]
    for flag, value in (("--transition-frac", "1e-12"), ("--stopband-db", "1e12")):
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "taps, more than the limit of 65536" in err
        assert "Traceback" not in err
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("flag, value", [("stopband-db", "nan"), ("transition-frac", "7")])
def test_resample_checks_the_filter_flags_at_the_input_rate_too(tmp_path, capsys, flag, value):
    # the identity runs without a filter, yet a bad flag is the error it is at 8 -> 16 kHz
    src = tmp_path / "in.wav"
    write_sine(src, 1000, rate=8000, seconds=0.1)
    config = tmp_path / "resample.cfg"
    config.write_text(f"{flag}={value}\n")
    argv = ["resample", str(src), str(tmp_path / "out.wav")]
    want = run(capsys, *argv, "--rate", "16000", f"--{flag}", value)
    assert want[:2] == (1, "") and want[2].startswith(f"error: {flag.replace('-', '_')} must be ")
    assert run(capsys, *argv, "--rate", "8000", f"--{flag}", value) == want
    assert run(capsys, "--config", str(config), *argv, "--rate", "8000") == want
    assert not (tmp_path / "out.wav").exists()


def cli_child(argv, stdin=None, env=None):
    """Run ``diarsep *argv`` in a child process that imports this checkout's diarsep.

    ``env`` adds to or overrides the caller's environment variables.
    """
    package_root = str(Path(diarsep.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "diarsep.cli", *argv],
        stdin=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **(env or {}), "PYTHONPATH": package_root},
    )


def piped_cli_child(path, argv):
    """Run ``diarsep *argv`` in a child whose stdin is a pipe that ``cat path`` feeds."""
    cat = subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE)
    child = cli_child(argv, stdin=cat.stdout)
    cat.stdout.close()
    assert cat.wait(timeout=120) == 0
    return child


def assert_a_pipe_reads_as_the_file(tmp_path, path, argv):
    """``diarsep argv(src, out)`` gives the same stdout and output files with ``path`` as src and with a pipe of it.

    ``out`` is a new directory for the output files of each run; the piped run
    reads /dev/stdin, fed by ``cat path``.
    """
    want, got = tmp_path / "want", tmp_path / "got"
    want.mkdir()
    got.mkdir()
    child = cli_child([str(arg) for arg in argv(path, want)])
    assert (child.returncode, child.stderr) == (0, "")
    piped = piped_cli_child(path, [str(arg) for arg in argv("/dev/stdin", got)])
    assert (piped.returncode, piped.stderr) == (0, "")
    assert piped.stdout == child.stdout.replace(str(want), str(got))
    assert sorted(os.listdir(got)) == sorted(os.listdir(want))
    for name in os.listdir(want):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("role", ["resample", "refs", "ests", "mix", "sources"])
def test_resample_reads_a_pipe_whole(tmp_path, role):
    # /dev/stdin fed by cat cannot be read at an offset: its bytes are read first;
    # the piped input is in0.wav, in every WAV input of every subcommand
    rng = np.random.default_rng(20)
    paths = [tmp_path / f"in{k}.wav" for k in range(3)]
    for path in paths:
        write_wav(AudioBuffer(rng.uniform(-0.9, 0.9, 3 * BLOCK).astype(np.float32), 8000), path)
    _, b, c = paths
    argv = {
        "resample": lambda src, out: ["resample", src, out / "out.wav", "--rate", "16000"],
        "refs": lambda src, out: ["score-sdr", "--refs", src, b, "--ests", b, c, "--mix", c],
        "ests": lambda src, out: ["score-sdr", "--refs", b, c, "--ests", c, src, "--mix", c],
        "mix": lambda src, out: ["score-sdr", "--refs", b, c, "--ests", c, b, "--mix", src],
        "sources": lambda src, out: ["separate-oracle", "--sources", src, b, "--output-dir", out, "--seed", "3"],
    }[role]
    assert_a_pipe_reads_as_the_file(tmp_path, paths[0], argv)


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("link", ["same path", "hard link", "symlink"])
def test_resample_onto_its_own_input_reads_it_whole_first(tmp_path, capsys, monkeypatch, link, n_cpus):
    # up and down; streamed, job 0 of an upsampling would write its outputs over
    # the input samples that job 1 reads
    cpus(monkeypatch, n_cpus)
    rng = np.random.default_rng(21)
    for rate, other in ((8000, "16000"), (16000, "8000")):
        src = tmp_path / "in.wav"
        write_wav(AudioBuffer(rng.uniform(-0.9, 0.9, 3 * BLOCK + 5).astype(np.float32), rate), src)
        code, want_out, _ = run(capsys, "resample", str(src), str(tmp_path / "want.wav"), "--rate", other)
        assert code == 0
        work = tmp_path / "work.wav"
        work.write_bytes(src.read_bytes())
        output = {"same path": work, "hard link": tmp_path / "hard.wav", "symlink": tmp_path / "soft.wav"}[link]
        if link == "hard link":
            os.link(work, output)
        elif link == "symlink":
            output.symlink_to(work)
        code, out, err = run(capsys, "resample", str(work), str(output), "--rate", other)
        assert (code, err) == (0, "")
        assert out == want_out.replace(str(tmp_path / "want.wav"), str(output))
        assert work.read_bytes() == (tmp_path / "want.wav").read_bytes()
        for path in (work, output):
            path.unlink(missing_ok=True)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_resample_to_the_input_rate_writes_what_write_wav_writes(tmp_path, capsys, monkeypatch, n_cpus):
    # the identity runs the one Toeplitz job, whose matrix is the identity times 1/32768:
    # its products are the input samples exactly, so they meet the same quantization
    cpus(monkeypatch, n_cpus)
    src = tmp_path / "in.wav"
    n = 2 * BLOCK + 3
    write_wav(AudioBuffer(np.random.default_rng(22).uniform(-1, 1, n).astype(np.float32), 16000), src)
    write_wav_oracle(read_wav(src), tmp_path / "want.wav")
    code, out, err = run(capsys, "resample", str(src), str(tmp_path / "got.wav"), "--rate", "16000")
    assert (code, err) == (0, "")
    assert out == f"resampled {n} samples @ 16000 Hz -> {n} samples @ 16000 Hz: {tmp_path / 'got.wav'}\n"
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()


def test_resample_command_imports_no_scipy(tmp_path):
    # a fresh interpreter, since this one has scipy loaded by other tests;
    # score-der, 7-source score-sdr (the assignment path of PIT), diarize
    # with two embeddings to cluster, the mirrored DCT basis and
    # separate-oracle on a file of it load none either
    scores_path, feats_path = diarize_fixtures(tmp_path)
    src = tmp_path / "in.wav"
    write_sine(src, 1000, rate=8000, seconds=0.1)
    (tmp_path / "ref.rttm").write_text("SPEAKER u 1 0.0 2.0 <NA> <NA> A <NA> <NA>\n")
    (tmp_path / "hyp.rttm").write_text("SPEAKER u 1 0.5 2.0 <NA> <NA> X <NA> <NA>\n")
    sources = [tmp_path / f"s{k}.wav" for k in range(7)]
    for k, path in enumerate(sources):
        write_sine(path, 300 + 200 * k, rate=8000, seconds=0.1)
    write_sine(tmp_path / "mix.wav", 1000, rate=8000, seconds=0.1)
    basis_path = tmp_path / "dct16.sslf"
    calls = [
        ["resample", str(src), str(tmp_path / "out.wav"), "--rate", "16000"],
        ["score-der", str(tmp_path / "ref.rttm"), str(tmp_path / "hyp.rttm")],
        ["score-sdr", "--refs", *map(str, sources), "--ests", *map(str, sources[::-1]),
         "--mix", str(tmp_path / "mix.wav")],
        ["diarize", str(scores_path), "--features", str(feats_path), "--output", str(tmp_path / "out.rttm")],
        ["separate-oracle", "--sources", *map(str, sources[:2]), "--output-dir", str(tmp_path / "est"),
         "--basis", str(basis_path)],
    ]
    script = (
        "import sys\n"
        "import diarsep, diarsep.cli\n"
        "from diarsep.tasnet import basis_to_stack\n"
        f"diarsep.write_feature_stack(basis_to_stack(diarsep.mirrored_dct_basis(16)), {str(basis_path)!r})\n"
        f"code = max(diarsep.cli.main(argv) for argv in {calls!r})\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    result = fresh_python(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


# prints main(argv)'s code (None without argv) and the numpy and diarsep modules loaded
LOADED_MODULES = (
    "import contextlib, io, json, sys\n"
    "from diarsep.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:]) if sys.argv[1:] else None\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'diarsep')]))\n"
)


def loaded_modules(*argv):
    result = fresh_python(LOADED_MODULES, *argv)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


CLI_MODULES = ["diarsep", "diarsep.cli", "diarsep.defaults"]


def test_cli_without_a_subcommand_to_run_loads_no_numpy():
    for argv, code in (((), None), (("version",), 0), (("--help",), 0), (("no-such-command",), 2)):
        assert loaded_modules(*argv) == [code, CLI_MODULES], argv


def test_each_subcommand_loads_only_the_modules_it_calls(tmp_path):
    scores_path, feats_path = diarize_fixtures(tmp_path)
    wavs = [tmp_path / f"s{k}.wav" for k in range(3)]
    for k, path in enumerate(wavs):
        write_sine(path, 300 + 200 * k, seconds=0.1)
    (tmp_path / "weights.txt").write_text("0.0\n0.0\n")  # one logit per layer of feats_path
    (tmp_path / "ref.rttm").write_text("SPEAKER u 1 0.0 2.0 <NA> <NA> A <NA> <NA>\n")
    cases = [
        (["resample", str(wavs[0]), str(tmp_path / "up.wav"), "--rate", "16000"],
         ["audio", "defaults", "features", "resample", "workers"]),
        (["powerset", "--num-speakers", "2"], ["powerset"]),
        (["fuse", str(feats_path), str(tmp_path / "weights.txt"), str(tmp_path / "fused.sslf")],
         ["features", "fusion"]),
        (["separate-oracle", "--sources", str(wavs[0]), str(wavs[1]), "--output-dir", str(tmp_path / "est"),
          "--seed", "7"],
         ["assignment", "audio", "features", "sepmetrics", "tasnet", "workers"]),
        (["diarize", str(scores_path), "--features", str(feats_path), "--output", str(tmp_path / "out.rttm")],
         ["annotation", "defaults", "diarize", "features", "powerset"]),
        (["score-der", str(tmp_path / "ref.rttm"), str(tmp_path / "ref.rttm")],
         ["annotation", "assignment", "der", "features", "workers"]),
        (["score-sdr", "--refs", *map(str, wavs), "--ests", *map(str, wavs), "--mix", str(wavs[0])],
         ["assignment", "audio", "features", "sepmetrics", "workers"]),
    ]
    for argv, modules in cases:
        # every subcommand but powerset loads features, which imports numpy at module level
        numpy = ["numpy"] if "features" in modules else []
        expected = sorted({*CLI_MODULES, *(f"diarsep.{m}" for m in modules), *numpy})
        assert loaded_modules(*argv) == [0, expected], argv[0]


def test_powerset_command(capsys):
    code, out, _ = run(capsys, "powerset", "--num-speakers", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[0] == "0\t-"
    assert lines[4] == "4\ts0+s1"

    code, out, _ = run(capsys, "powerset", "--num-speakers", "3", "--encode", "101")
    assert out == "5\n"
    code, out, _ = run(capsys, "powerset", "--num-speakers", "3", "--decode", "4")
    assert out == "110\n"
    code, _, err = run(capsys, "powerset", "--num-speakers", "3", "--encode", "10")
    assert code == 1 and "error:" in err


def test_powerset_decode_prints_the_class_indicator_vector(capsys):
    last = build_space(1000).n_classes - 1
    cases = [(k, range(-1, build_space(k).n_classes + 1)) for k in range(1, 9)]
    cases.append((1000, (-1, 0, 1, 1000, 1001, 1998, 1999, 250000, last, last + 1)))
    for k, indices in cases:
        space = build_space(k)
        for index in indices:
            code, out, err = run(capsys, "powerset", "--num-speakers", str(k), "--decode", str(index))
            if 0 <= index < space.n_classes:
                if k <= 8:
                    row = "".join(map(str, powerset_matrix_oracle(k)[index]))
                else:
                    row = "".join("1" if slot in space.members(index) else "0" for slot in range(k))
                assert (code, out, err) == (0, row + "\n", "")
            else:
                assert (code, out) == (1, "") and "out of range" in err


def test_fuse_command(tmp_path, capsys):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((3, 5, 4)).astype(np.float32)
    stack_path = tmp_path / "stack.sslf"
    write_feature_stack(FeatureStack(data, 50.0), stack_path)
    weights = tmp_path / "weights.txt"
    weights.write_text("0.0\n0.0\n0.0\n")
    out_path = tmp_path / "fused.sslf"
    code, out, _ = run(capsys, "fuse", str(stack_path), str(weights), str(out_path))
    assert code == 0
    fused = read_feature_stack(out_path)
    assert fused.n_layers == 1
    assert np.allclose(fused.data[0], data.mean(axis=0), atol=1e-6)


def test_separate_oracle_command(tmp_path, capsys):
    n = 8000
    t = np.arange(n // 2) / 8000.0
    s1 = np.zeros(n, np.float32)
    s2 = np.zeros(n, np.float32)
    s1[: n // 2] = (0.4 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    s2[n // 2 :] = (0.4 * np.sin(2 * np.pi * 660 * t)).astype(np.float32)
    p1, p2 = tmp_path / "s1.wav", tmp_path / "s2.wav"
    write_wav(AudioBuffer(s1, 8000), p1)
    write_wav(AudioBuffer(s2, 8000), p2)
    basis_path = tmp_path / "basis.sslf"
    write_feature_stack(basis_to_stack(mirrored_dct_basis(16)), basis_path)

    out_dir = tmp_path / "est"
    code, out, _ = run(
        capsys,
        "separate-oracle",
        "--sources", str(p1), str(p2),
        "--output-dir", str(out_dir),
        "--basis", str(basis_path),
        "--stride", "16",
        "--save-masks", str(tmp_path / "masks.sslf"),
    )
    assert code == 0
    assert (out_dir / "est0.wav").exists() and (out_dir / "est1.wav").exists()
    quality = [float(m) for m in re.findall(r"si_sdr=(-?[\d.]+)", out)]
    assert len(quality) == 2
    assert min(quality) >= 20.0
    masks = read_feature_stack(tmp_path / "masks.sslf")
    assert masks.n_layers == 2

    code, out, _ = run(
        capsys,
        "separate-oracle",
        "--sources", str(p1), str(p2),
        "--output-dir", str(out_dir),
        "--seed", "7",
    )
    assert code == 0


def test_save_masks_changes_no_estimate(tmp_path, capsys):
    """--save-masks adds the masks file and its line; the estimates and the other lines stay byte-identical."""
    rng = np.random.default_rng(12)
    paths = []
    for i in range(2):
        paths.append(tmp_path / f"s{i}.wav")
        write_wav(AudioBuffer(rng.uniform(-0.4, 0.4, 3000).astype(np.float32), 8000), paths[-1])
    argv = ["separate-oracle", "--sources", *map(str, paths), "--output-dir", str(tmp_path / "est"), "--seed", "7"]
    masks_path = tmp_path / "masks.sslf"

    runs = []
    for extra in ([], ["--save-masks", str(masks_path)]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        runs.append((out, [(tmp_path / "est" / f"est{i}.wav").read_bytes() for i in range(2)]))
    (plain_out, plain_wavs), (saved_out, saved_wavs) = runs
    assert saved_wavs == plain_wavs
    assert saved_out == plain_out + f"masks -> {masks_path}\n"
    assert plain_out.count("source ") == 2

    sources = [read_wav(p) for p in paths]
    expected = tmp_path / "expected.sslf"
    write_feature_stack(FeatureStack(oracle_masks(sources, random_basis(128, 16, 8, 7)), 8000 / 8), expected)
    assert masks_path.read_bytes() == expected.read_bytes()


def test_save_masks_inside_a_new_output_dir(tmp_path, capsys):
    """The masks file may lie in the --output-dir that the run creates."""
    rng = np.random.default_rng(15)
    paths = []
    for i in range(2):
        paths.append(tmp_path / f"s{i}.wav")
        write_wav(AudioBuffer(rng.uniform(-0.4, 0.4, 3000).astype(np.float32), 8000), paths[-1])
    out_dir = tmp_path / "est"
    masks_path = out_dir / "masks.sslf"
    code, out, err = run(
        capsys, "separate-oracle", "--sources", *map(str, paths), "--output-dir", str(out_dir),
        "--seed", "7", "--save-masks", str(masks_path),
    )
    assert (code, err) == (0, "") and out.endswith(f"masks -> {masks_path}\n")
    assert (out_dir / "est0.wav").exists() and (out_dir / "est1.wav").exists()
    expected = tmp_path / "expected.sslf"
    sources = [read_wav(p) for p in paths]
    write_feature_stack(FeatureStack(oracle_masks(sources, random_basis(128, 16, 8, 7)), 8000 / 8), expected)
    assert masks_path.read_bytes() == expected.read_bytes()


def test_separate_oracle_rejects_non_finite_source_encodings(tmp_path, capsys):
    # 16-bit PCM cannot hold NaN, but finite weights can overflow the float32 encodings
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    write_sine(paths[0], 440)
    write_sine(paths[1], 660)
    basis_path = tmp_path / "basis.sslf"
    write_feature_stack(FeatureStack(np.full((2, 4, 16), 3e38, np.float32), 1.0), basis_path)
    # no caller np.errstate: the encoder ignores the overflow itself, so stderr is the error
    # line alone (under this suite's warnings-as-errors, a numpy warning would raise instead)
    code, out, err = run(
        capsys,
        "separate-oracle",
        "--sources", *map(str, paths),
        "--output-dir", str(tmp_path / "est"),
        "--basis", str(basis_path),
        "--save-masks", str(tmp_path / "masks.sslf"),
    )
    assert (code, out, err) == (1, "", "error: source encodings must be finite, got non-finite values\n")
    assert not (tmp_path / "est").exists() and not (tmp_path / "masks.sslf").exists()


def test_mixed_sample_rates_exit_1(tmp_path, capsys):
    narrow, wide = tmp_path / "narrow.wav", tmp_path / "wide.wav"
    write_sine(narrow, 440, rate=8000)
    write_sine(wide, 660, rate=16000)
    for argv in (
        ("separate-oracle", "--sources", str(narrow), str(wide),
         "--output-dir", str(tmp_path / "est"), "--seed", "7", "--save-masks", str(tmp_path / "masks.sslf")),
        ("score-sdr", "--refs", str(narrow), "--ests", str(narrow), "--mix", str(wide)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "disagree on sample rate: [8000, 16000]" in err
    assert not (tmp_path / "est").exists() and not (tmp_path / "masks.sslf").exists()


def test_separate_oracle_rejects_unequal_lengths(tmp_path, capsys):
    rng = np.random.default_rng(3)
    paths = []
    for i, n in enumerate((1600, 1700)):
        paths.append(tmp_path / f"s{i}.wav")
        write_wav(AudioBuffer(rng.uniform(-0.4, 0.4, n).astype(np.float32), 8000), paths[-1])
    code, out, err = run(
        capsys,
        "separate-oracle",
        "--sources", *map(str, paths),
        "--output-dir", str(tmp_path / "est"),
        "--seed", "7",
        "--save-masks", str(tmp_path / "masks.sslf"),
    )
    assert (code, out) == (1, "")
    assert "sources must have equal lengths, got [1600, 1700]" in err
    assert not (tmp_path / "est").exists() and not (tmp_path / "masks.sslf").exists()


def test_save_masks_runs_no_second_masks_pass(tmp_path, capsys, monkeypatch):
    """The fused pass writes the masks file: oracle_masks is never called, and the
    traced peak with --save-masks stays that of the run without it, below the whole masks."""
    cpus(monkeypatch, 2)
    rng = np.random.default_rng(14)
    n = 8 * 16000  # 15999 frames: 16 blocks
    paths = []
    for i in range(2):
        paths.append(tmp_path / f"s{i}.wav")
        write_wav(AudioBuffer(rng.uniform(-0.4, 0.4, n).astype(np.float32), 16000), paths[-1])
    sources = [read_wav(p) for p in paths]
    masks = oracle_masks(sources, random_basis(128, 16, 8, 7))
    expected = tmp_path / "expected.sslf"
    write_feature_stack(FeatureStack(masks, 16000 / 8), expected)

    def no_second_pass(*args):
        raise AssertionError("separate-oracle called oracle_masks")

    monkeypatch.setattr("diarsep.tasnet.oracle_masks", no_second_pass)
    argv = ["separate-oracle", "--sources", *map(str, paths), "--output-dir", str(tmp_path / "est"), "--seed", "7"]
    masks_path = tmp_path / "masks.sslf"
    peaks = []
    for extra in ([], ["--save-masks", str(masks_path)]):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv, *extra)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
    assert masks_path.read_bytes() == expected.read_bytes()
    assert peaks[1] < peaks[0] + 1e6 and peaks[1] < masks.nbytes, (peaks, masks.nbytes)


def test_failed_separation_leaves_no_masks_file(tmp_path, capsys, monkeypatch):
    """Silent sources fill the first two blocks of masks; a loud late block overflows
    the encodings of a 3e38 basis. The file begun by the pass is removed."""
    cpus(monkeypatch, 2)  # the failing block may run on a worker thread
    n = 3 * BLOCK_FRAMES * 8 + 8  # three blocks of frames at kernel 16, stride 8
    t = np.arange(2000) / 8000
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    for path, freq in zip(paths, (440, 660)):
        samples = np.zeros(n, np.float32)
        samples[-2000:] = 0.4 * np.sin(2 * np.pi * freq * t)
        write_wav(AudioBuffer(samples, 8000), path)
    basis_path = tmp_path / "basis.sslf"
    write_feature_stack(FeatureStack(np.full((2, 4, 16), 3e38, np.float32), 1.0), basis_path)
    writes = []
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: writes.append(offset) or pwrite(fd, data, offset))
    masks_path = tmp_path / "masks.sslf"
    code, out, err = run(
        capsys, "separate-oracle", "--sources", *map(str, paths), "--output-dir", str(tmp_path / "est"),
        "--basis", str(basis_path), "--save-masks", str(masks_path),
    )
    assert (code, out) == (1, "")
    assert "source encodings must be finite" in err
    assert len(writes) == 1 + 2 * 2  # the header, then two blocks of two sources
    assert not masks_path.exists() and not (tmp_path / "est").exists()


def test_failed_scoring_leaves_no_estimate_and_no_masks_file(tmp_path, capsys):
    # all-zero sources separate, but their SI-SDR has no reference to scale:
    # every estimate is scored before the first is written
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    for path in paths:
        write_wav(AudioBuffer(np.zeros(4000, np.float32), 8000), path)
    out_dir = tmp_path / "est"
    code, out, err = run(
        capsys, "separate-oracle", "--sources", *map(str, paths), "--output-dir", str(out_dir),
        "--seed", "1", "--save-masks", str(out_dir / "masks.sslf"),
    )
    assert (code, out, err) == (1, "", "error: reference signal is all zeros\n")
    assert not list(out_dir.glob("est*.wav")) and not (out_dir / "masks.sslf").exists()


BASIS_ERRORS = [("--kernel", "0", "kernel_len must be >= 1, got 0"),
                ("--filters", "0", "n_filters must be >= 1, got 0"),
                ("--seed", "-1", "seed must be >= 0, got -1")]


@pytest.mark.parametrize("flag, value, message", BASIS_ERRORS, ids=[f"{f}-{m}" for f, _, m in BASIS_ERRORS])
def test_separate_oracle_rejects_a_zero_basis_size_naming_it(tmp_path, capsys, flag, value, message):
    # they used to fail later, on what the value broke: "stride must be in [1, 0], got 8",
    # "analysis must be (n_filters, kernel_len), got (0, 16)" and numpy's "expected
    # non-negative integer", which names no parameter
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    write_sine(paths[0], 440)
    write_sine(paths[1], 660)
    code, out, err = run(
        capsys, "separate-oracle", "--sources", *map(str, paths), "--output-dir", str(tmp_path / "est"),
        "--seed", "7", flag, value,
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "est").exists()


def test_separate_oracle_rejects_a_rate_beyond_the_wav_header(tmp_path, capsys):
    # 3 GHz fits the 32-bit rate field that read_wav parses, but not the byte
    # rate field of the estimates; write_wav used to raise struct.error
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    for path, freq in zip(paths, (440, 660)):
        write_sine(path, freq)
        raw = bytearray(path.read_bytes())
        raw[24:28] = (3_000_000_000).to_bytes(4, "little")
        path.write_bytes(raw)
    code, out, err = run(
        capsys, "separate-oracle", "--sources", *map(str, paths), "--output-dir", str(tmp_path / "est"),
        "--seed", "7",
    )
    assert (code, out) == (1, "")
    assert err == "error: sample rate 3000000000 Hz too high for WAV: byte rate 6000000000 does not fit in 32 bits\n"
    assert not list((tmp_path / "est").iterdir())


def test_separate_oracle_checks_the_kernel_before_allocating_the_basis(tmp_path, capsys):
    # 128 filters x 10^8 taps used to ask numpy for 95.4 GiB: a MemoryError traceback
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    write_sine(paths[0], 440)
    write_sine(paths[1], 660)
    code, out, err = run(
        capsys, "separate-oracle", "--sources", *map(str, paths), "--output-dir", str(tmp_path / "est"),
        "--seed", "7", "--kernel", "100000000",
    )
    assert (code, out) == (1, "")
    assert err == "error: audio (4000 samples) shorter than one kernel (100000000)\n"
    assert not (tmp_path / "est").exists()


def test_separate_oracle_maps_an_allocation_beyond_memory_to_exit_1(tmp_path, capsys):
    # 10^15 filters x 16 taps of float64 is 114 PiB, beyond any 47-bit address space
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    write_sine(paths[0], 440)
    write_sine(paths[1], 660)
    code, out, err = run(
        capsys, "separate-oracle", "--sources", *map(str, paths), "--output-dir", str(tmp_path / "est"),
        "--seed", "7", "--filters", str(10**15),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory: ") and err.endswith("\n") and err.count("\n") == 1, err


def diarize_fixtures(tmp_path):
    fr = 50.0
    n = 500
    scores = np.zeros((2, n, 3), np.float32)  # 2 chunks, binary activity, K=3
    feats = np.zeros((2, n, 4), np.float32)
    scores[0, 0:400, 0] = 1
    feats[0, 0:400] = [1, 0, 0, 0]
    scores[1, 100:500, 0] = 1
    feats[1, 100:500] = [0, 1, 0, 0]
    scores_path = tmp_path / "scores.sslf"
    feats_path = tmp_path / "feats.sslf"
    write_feature_stack(FeatureStack(scores, fr), scores_path)
    write_feature_stack(FeatureStack(feats, fr), feats_path)
    return scores_path, feats_path


def test_diarize_command(tmp_path, capsys):
    scores_path, feats_path = diarize_fixtures(tmp_path)
    code, out, _ = run(
        capsys, "diarize", str(scores_path), "--features", str(feats_path), "--uri", "rec"
    )
    assert code == 0
    assert out.startswith("SPEAKER rec 1 0.000 8.000")
    assert "spk0" in out and "spk1" in out

    out_path = tmp_path / "out.rttm"
    code, msg, _ = run(
        capsys, "diarize", str(scores_path), "--features", str(feats_path),
        "--uri", "rec", "--output", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == out

    code, _, err = run(capsys, "diarize", str(scores_path))
    assert code == 1 and "need --features or --embeddings" in err


def test_diarize_checks_embedding_flags_before_reading_scores(tmp_path, capsys):
    scores_path, _ = diarize_fixtures(tmp_path)
    truncated = tmp_path / "truncated.sslf"
    truncated.write_bytes(scores_path.read_bytes()[:-7])
    code, out, err = run(capsys, "diarize", str(truncated))
    assert (code, out) == (1, "")
    assert "need --features or --embeddings" in err
    code, _, err = run(capsys, "diarize", str(truncated), "--embeddings", str(truncated))
    assert code == 1 and "size mismatch" in err


@pytest.mark.parametrize("role", ["scores", "stack", "basis", "embeddings"])
def test_sslf_inputs_read_from_a_pipe_as_from_a_file(tmp_path, role):
    # /dev/stdin fed by cat has no size and cannot seek: its bytes come in order, once
    scores_path, feats_path = diarize_fixtures(tmp_path)
    weights = tmp_path / "weights.txt"
    weights.write_text("0.5\n-1.0\n")
    basis_path, emb_path = tmp_path / "basis.sslf", tmp_path / "emb.sslf"
    write_feature_stack(basis_to_stack(mirrored_dct_basis(16)), basis_path)
    emb = np.zeros((2, 3, 4), np.float32)
    emb[0, 0], emb[1, 0] = [1, 0, 0, 0], [0, 1, 0, 0]
    write_feature_stack(FeatureStack(emb, 1.0), emb_path)
    sources = [tmp_path / "s1.wav", tmp_path / "s2.wav"]
    write_sine(sources[0], 440)
    write_sine(sources[1], 660)
    path, argv = {
        "scores": (scores_path, lambda src, out: ["diarize", src, "--features", feats_path, "--uri", "rec"]),
        "stack": (feats_path, lambda src, out: ["fuse", src, weights, out / "fused.sslf"]),
        "basis": (basis_path, lambda src, out: [
            "separate-oracle", "--sources", *sources, "--output-dir", out, "--basis", src, "--stride", "16",
            "--save-masks", out / "masks.sslf",
        ]),
        "embeddings": (emb_path, lambda src, out: [
            "diarize", scores_path, "--embeddings", src, "--uri", "rec", "--output", out / "out.rttm",
        ]),
    }[role]
    assert_a_pipe_reads_as_the_file(tmp_path, path, argv)
    if role != "scores":
        return

    child = piped_cli_child(scores_path, ["diarize", "/dev/stdin", "--embeddings", "/dev/stdin"])
    assert (child.returncode, child.stdout) == (1, "")  # the pipe is spent: its second reading has no header
    assert child.stderr == "error: /dev/stdin: truncated SSLF header\n"

    # a pipe's size is known once it has been read, and checked against its header
    for sizes, expected in (((10**5, 10**5, 10**5), 4 * 10**15), ((100, 100, 100), 4 * 10**6)):
        short = tmp_path / "short.sslf"
        short.write_bytes(struct.pack("<4sIIIIf", b"SSLF", 1, *sizes, 50.0) + bytes(8))
        child = piped_cli_child(short, ["fuse", "/dev/stdin", str(weights), str(tmp_path / "fused.sslf")])
        error = f"size mismatch, header declares {expected} payload bytes but file has 8"
        assert (child.returncode, child.stdout, child.stderr) == (1, "", f"error: /dev/stdin: {error}\n")


@pytest.mark.parametrize("role", ["ref", "hyp", "uem", "weights", "config"])
def test_a_text_input_that_does_not_decode_names_the_file(tmp_path, capsys, role):
    rttm = tmp_path / "ok.rttm"
    rttm.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    _, feats_path = diarize_fixtures(tmp_path)
    bad = tmp_path / f"bad-{role}.txt"
    bad.write_bytes(b"\xff\n")
    argv = {
        "ref": ["score-der", bad, rttm],
        "hyp": ["score-der", rttm, bad],
        "uem": ["score-der", rttm, rttm, "--uem", bad],
        "weights": ["fuse", feats_path, bad, tmp_path / "fused.sslf"],
        "config": ["--config", bad, "score-der", rttm, rttm],
    }[role]
    code, out, err = run(capsys, *map(str, argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: ") and "codec can't decode byte 0xff in position 0" in err
    assert not (tmp_path / "fused.sslf").exists()


@pytest.mark.parametrize("role", ["resample", "score-sdr ref", "rttm", "uem", "weights", "config"])
def test_a_failed_read_names_the_input(tmp_path, capsys, role):
    # reading a process's memory at address 0 fails with EIO, an OSError without a file name
    rttm = tmp_path / "ok.rttm"
    rttm.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    wav = tmp_path / "ok.wav"
    write_sine(wav, 500)
    _, feats_path = diarize_fixtures(tmp_path)
    bad = "/proc/self/mem"
    argv = {
        "resample": ["resample", bad, tmp_path / "out.wav", "--rate", "16000"],
        "score-sdr ref": ["score-sdr", "--refs", bad, "--ests", wav, "--mix", wav],
        "rttm": ["score-der", rttm, bad],
        "uem": ["score-der", rttm, rttm, "--uem", bad],
        "weights": ["fuse", feats_path, bad, tmp_path / "fused.sslf"],
        "config": ["--config", bad, "score-der", rttm, rttm],
    }[role]
    code, out, err = run(capsys, *map(str, argv))
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: \[Errno 5\] .*: '/proc/self/mem'\n", err)
    assert not (tmp_path / "out.wav").exists() and not (tmp_path / "fused.sslf").exists()


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_failed_read_in_a_pool_job_names_the_input(tmp_path, capsys, monkeypatch, n_cpus):
    # the header reads, then a sample read fails inside a resample job
    cpus(monkeypatch, n_cpus)
    src = tmp_path / "in.wav"
    write_wav(AudioBuffer(np.zeros(3 * BLOCK, np.float32), 8000), src)
    preadv = os.preadv

    def failing(fd, buffers, offset):
        if offset >= 44:
            raise OSError(5, "Input/output error")
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", failing)
    code, out, err = run(capsys, "resample", str(src), str(tmp_path / "out.wav"), "--rate", "16000")
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 5] Input/output error: {str(src)!r}\n"
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("role", ["ref", "hyp", "uem"])
def test_a_parse_error_names_the_file(tmp_path, capsys, role):
    rttm = tmp_path / "ok.rttm"
    rttm.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    bad = tmp_path / f"bad-{role}.txt"
    if role == "uem":
        bad.write_text("rec 1 0.0\n")
        error = "UEM line 1: expected 4 fields, got 3"
    else:
        bad.write_text("SPEAKER rec 1 0.000 1.000 <NA> <NA> A <NA> <NA>\nSPEAKER rec 1 x 1 <NA> <NA> A <NA> <NA>\n")
        error = "RTTM line 2: non-numeric onset or duration"
    argv = {
        "ref": ["score-der", bad, rttm],
        "hyp": ["score-der", rttm, bad],
        "uem": ["score-der", rttm, rttm, "--uem", bad],
    }[role]
    code, out, err = run(capsys, *map(str, argv))
    assert (code, out, err) == (1, "", f"error: {bad}: {error}\n")


def test_text_inputs_and_stdout_are_utf8_in_any_locale(tmp_path):
    # in the C locale, with neither UTF-8 mode nor locale coercion, Python's
    # default text encoding is ASCII, for files and for stdout and stderr alike;
    # an error names a file by its name's own bytes
    rttm = tmp_path / "u8.rttm"
    rttm.write_text("SPEAKER réc 1 0.000 10.000 <NA> <NA> éa <NA> <NA>\n", encoding="utf-8")
    bad = tmp_path / "bé.rttm"
    bad.write_text("x\n")
    for argv, want in (([rttm, rttm], "réc DER 0.000%"), ([bad, bad], f"error: {bad}: RTTM line 1: ")):
        argv = ["score-der", *map(str, argv)]
        utf8 = cli_child(argv, env={"LC_ALL": "C.UTF-8"})
        plain_c = cli_child(argv, env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
        assert want in utf8.stdout + utf8.stderr
        assert (plain_c.returncode, plain_c.stdout, plain_c.stderr) == (utf8.returncode, utf8.stdout, utf8.stderr)


def test_diarize_output_overwrites_a_longer_file(tmp_path, capsys):
    scores_path, feats_path = diarize_fixtures(tmp_path)
    argv = ["diarize", str(scores_path), "--features", str(feats_path), "--uri", "rec"]
    code, rttm, _ = run(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "out.rttm"
    out_path.write_bytes(b"SPEAKER old 1 0.000 1.000 <NA> <NA> x <NA> <NA>\n" * 1000)
    assert out_path.stat().st_size > len(rttm)
    code, _, _ = run(capsys, *argv, "--output", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == rttm.encode()


@pytest.mark.parametrize("output", ["resample", "diarize", "fuse", "save-masks"])
def test_outputs_to_dev_null_exit_0(tmp_path, capsys, output):
    # /dev/null takes every write, but it is not a regular file: cutting it (ftruncate)
    # fails with EINVAL, so the writer leaves it as it is
    scores_path, feats_path = diarize_fixtures(tmp_path)
    wav = tmp_path / "in.wav"
    write_sine(wav, 440)
    (tmp_path / "weights.txt").write_text("0\n0\n")
    argv = {
        "resample": ["resample", str(wav), os.devnull, "--rate", "16000"],
        "diarize": ["diarize", str(scores_path), "--features", str(feats_path), "--output", os.devnull],
        "fuse": ["fuse", str(feats_path), str(tmp_path / "weights.txt"), os.devnull],
        "save-masks": [
            "separate-oracle", "--sources", str(wav), str(wav), "--output-dir", str(tmp_path / "est"),
            "--seed", "7", "--save-masks", os.devnull,
        ],
    }[output]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith(f"{os.devnull}\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_output_to_a_pipe_exits_1_with_a_clear_error(tmp_path):
    # `diarsep resample s.wav /dev/stdout | head` used to end in "[Errno 29] Illegal seek"
    wav = tmp_path / "in.wav"
    write_sine(wav, 440)
    package_root = str(Path(diarsep.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-m", "diarsep.cli", "resample", str(wav), "/dev/stdout", "--rate", "16000"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == "error: /dev/stdout: block output needs a seekable file, not a pipe, socket or terminal\n"


def test_diarize_command_with_embeddings(tmp_path, capsys):
    scores_path, _ = diarize_fixtures(tmp_path)
    emb = np.zeros((2, 3, 4), np.float32)
    emb[0, 0] = [1, 0, 0, 0]
    emb[1, 0] = [0, 1, 0, 0]
    emb_path = tmp_path / "emb.sslf"
    write_feature_stack(FeatureStack(emb, 1.0), emb_path)
    code, out, _ = run(
        capsys, "diarize", str(scores_path), "--embeddings", str(emb_path), "--uri", "rec"
    )
    assert code == 0
    assert "spk0" in out and "spk1" in out


def test_diarize_rejects_features_whose_span_disagrees_with_the_chunk(tmp_path, capsys):
    # 37 frames at 3 Hz (12.3 s) against 500 score frames at 50 Hz (10 s): rows
    # used to be mapped by proportion and the run exited 0 with one speaker
    scores_path, _ = diarize_fixtures(tmp_path)
    feats_path = tmp_path / "coarse.sslf"
    write_feature_stack(FeatureStack(np.ones((2, 37, 4), np.float32), 3.0), feats_path)
    code, out, err = run(capsys, "diarize", str(scores_path), "--features", str(feats_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: chunk 0: features span 12.3333 s (37 frames at 3 Hz) but the chunk spans 10 s")


def test_diarize_rejects_embedding_slot_count_mismatch(tmp_path, capsys):
    # K=3 binary scores; a 5-slot file's slots 3 and 4 match no local speaker
    scores_path, _ = diarize_fixtures(tmp_path)
    emb = np.zeros((2, 5, 4), np.float32)
    emb[0, 0] = [1, 0, 0, 0]
    emb[1, 0] = [0, 1, 0, 0]
    emb[:, 4] = [0, 0, 1, 0]
    emb_path = tmp_path / "emb.sslf"
    write_feature_stack(FeatureStack(emb, 1.0), emb_path)
    code, out, err = run(capsys, "diarize", str(scores_path), "--embeddings", str(emb_path))
    assert (code, out) == (1, "")
    assert "embedding file has 5 slots per chunk, chunk 0 has 3" in err


def test_config_file_sets_defaults_flags_override(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    ref.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    hyp = tmp_path / "hyp.rttm"
    hyp.write_text("SPEAKER rec 1 0.200 9.800 <NA> <NA> A <NA> <NA>\n")
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("# scoring defaults\ncollar=0.5\nformat=text\n")

    _, strict, _ = run(capsys, "score-der", str(ref), str(hyp), "--per-file")
    assert "DER 2.000%" in strict
    _, relaxed, _ = run(capsys, "--config", str(cfg), "score-der", str(ref), str(hyp), "--per-file")
    assert "DER 0.000%" in relaxed
    _, overridden, _ = run(
        capsys, "--config", str(cfg), "score-der", str(ref), str(hyp), "--per-file", "--collar", "0"
    )
    assert overridden == strict


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    ref.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    hyp = tmp_path / "hyp.rttm"
    hyp.write_text("SPEAKER rec 1 0.150 9.850 <NA> <NA> A <NA> <NA>\n")

    typo = tmp_path / "typo.cfg"
    typo.write_text("colar=0.25\n")
    code, out, err = run(capsys, "--config", str(typo), "score-der", str(ref), str(hyp))
    assert code == 1 and out == ""
    assert "colar" in err

    # keys of other subcommands stay accepted, so one file serves several
    shared = tmp_path / "shared.cfg"
    shared.write_text("collar=0.25\nhop=2.5\nstopband-db=60\n")
    code, out, _ = run(capsys, "--config", str(shared), "score-der", str(ref), str(hyp), "--aggregate")
    assert code == 0 and "DER 0.000%" in out


def test_config_file_rejects_bad_values(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    ref.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    hyp = tmp_path / "hyp.rttm"
    hyp.write_text(
        "SPEAKER rec 1 0.300 9.700 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER rec 1 12.000 0.300 <NA> <NA> A <NA> <NA>\n"
    )
    _, uncollared, _ = run(capsys, "score-der", str(ref), str(hyp), "--aggregate")
    assert "DER 6.000%" in uncollared

    # format=xml used to print text; collar=true used to score with a 1 s collar
    for line, key in (("format=xml", "format"), ("collar=true", "collar")):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "--config", str(cfg), "score-der", str(ref), str(hyp))
        assert code == 1 and out == ""
        assert key in err

    # a switch takes a true/false literal, checked whichever subcommand runs
    cfg = tmp_path / "switch.cfg"
    cfg.write_text("no_pit=true\n")
    code, out, _ = run(capsys, "--config", str(cfg), "score-der", str(ref), str(hyp), "--aggregate")
    assert code == 0 and out == uncollared
    cfg.write_text("no_pit=maybe\n")
    code, out, err = run(capsys, "--config", str(cfg), "score-der", str(ref), str(hyp))
    assert code == 1 and out == "" and "no_pit" in err


def test_diarize_rejects_nan_threshold(tmp_path, capsys):
    scores_path, feats_path = diarize_fixtures(tmp_path)
    # all-silent scores: nothing to cluster, and still an error
    silent_path = tmp_path / "silent.sslf"
    write_feature_stack(FeatureStack(np.zeros((2, 500, 3), np.float32), 50.0), silent_path)
    assert run(capsys, "diarize", str(silent_path), "--features", str(feats_path)) == (0, "", "")
    for scores in (scores_path, silent_path):
        code, out, err = run(
            capsys, "diarize", str(scores), "--features", str(feats_path),
            "--ahc-threshold", "nan",
        )
        assert code == 1 and out == ""
        assert "nan" in err


def test_score_der_rejects_non_finite_collar(tmp_path, capsys):
    rttm = tmp_path / "a.rttm"
    rttm.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    for collar in ("nan", "inf"):
        code, out, err = run(capsys, "score-der", str(rttm), str(rttm), "--collar", collar)
        assert code == 1 and out == ""
        assert "collar must be finite" in err


def der_corpus(tmp_path, n_recordings=6):
    """Reference and hypothesis RTTM files and a UEM file over several recordings."""
    rng = np.random.default_rng(21)
    refs = [random_annotation(rng, uri=f"rec{k}") for k in range(n_recordings)]
    paths = tmp_path / "ref.rttm", tmp_path / "hyp.rttm", tmp_path / "all.uem"
    paths[0].write_text("".join(emit_rttm(r) for r in refs))
    paths[1].write_text("".join(emit_rttm(perturbed_hypothesis(rng, r)) for r in refs))
    paths[2].write_text("".join(f"rec{k} 1 1.0 55.0\n" for k in range(n_recordings)))
    return [str(p) for p in paths]


def test_score_der_output_does_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch):
    ref, hyp, uem = der_corpus(tmp_path)
    outputs = []
    for n_cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n_cpus: set(range(n)), raising=False)
        assert worker_count(6, 1) == n_cpus
        argv = ("score-der", ref, hyp, "--uem", uem, "--collar", "0.25", "--format", "csv")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 8  # header, six recordings, OVERALL


def test_score_der_reports_the_lowest_failing_recording(tmp_path, capsys, monkeypatch):
    # rec1 fails last in time on two workers, rec3 first; the serial order reports rec1
    ref, hyp, _ = der_corpus(tmp_path)

    def failing_compute_der(ref, hyp, **kwargs):
        if ref.uri == "rec1":
            time.sleep(0.2)
        if ref.uri in ("rec1", "rec3"):
            raise ValueError(f"{ref.uri} is broken")
        return compute_der(ref, hyp, **kwargs)

    monkeypatch.setattr("diarsep.der.compute_der", failing_compute_der)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, out, err = run(capsys, "score-der", ref, hyp)
    assert (code, out, err) == (1, "", "error: rec1 is broken\n")


def test_score_der_names_the_lowest_recording_without_reference_speech(tmp_path, capsys):
    # two recordings with hypothesis speech and no reference: both fail, the lower URI is named
    ref, hyp, _ = der_corpus(tmp_path)
    with open(hyp, "a") as f:
        for uri in ("solo_b", "solo_a"):
            f.write(emit_rttm(Annotation(uri, ((1.0, 2.0, "A"),))))
    code, out, err = run(capsys, "score-der", ref, hyp)
    message = "solo_a: no scored reference speech but hypothesis speech present; rates undefined"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_score_der_rejects_totals_and_collar_zones_beyond_float64_range(tmp_path, capsys):
    # every value is finite, but a percentage or a collar zone edge overflows float64;
    # the suite turns every numpy RuntimeWarning into an error, so none is raised here
    small, huge = tmp_path / "small.rttm", tmp_path / "huge.rttm"
    small.write_text(emit_rttm(Annotation("a", ((0.0, 1.0, "s1"),))))
    huge.write_text(emit_rttm(Annotation("a", ((0.0, 1e308, "s1"),))))
    zones = "a: collar zones and evaluation regions must have finite edges and spans"
    cases = (
        ((small, huge), "a: a DER total or percentage is not finite in float64"),
        ((huge, huge, "--collar", "1e308"), zones),
    )
    for argv, message in cases:
        code, out, err = run(capsys, "score-der", *map(str, argv))
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_score_der_loads_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma on its first call; the DER sweep does not use it
    ref, hyp, uem = der_corpus(tmp_path)
    script = (
        "import contextlib, io, sys\n"
        "from diarsep.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    result = fresh_python(script, "score-der", ref, hyp, "--uem", uem, "--collar", "0.25")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"


def test_diarize_rejects_bad_hop(tmp_path, capsys):
    scores_path, feats_path = diarize_fixtures(tmp_path)  # 10 s chunks
    base = ("diarize", str(scores_path), "--features", str(feats_path), "--uri", "rec")
    for extra in (("--hop", "0"), ("--hop", "-5"), ("--hop", "15")):
        code, out, err = run(capsys, *base, *extra)
        assert code == 1 and out == ""
        assert "0 < hop <= window" in err


def test_diarize_hop_beyond_chunk_span_is_rejected(tmp_path, capsys):
    # 3 chunks x 250 frames at 50 Hz (5 s each), one speaker throughout: a 7 s
    # hop used to write 5 s segments at 0, 7 and 14 s, with 2 s holes between
    scores = np.zeros((3, 250, 3), np.float32)
    scores[:, :, 0] = 1
    scores_path, feats_path = tmp_path / "short.sslf", tmp_path / "feats.sslf"
    write_feature_stack(FeatureStack(scores, 50.0), scores_path)
    write_feature_stack(FeatureStack(np.ones((3, 250, 4), np.float32), 50.0), feats_path)
    base = ("diarize", str(scores_path), "--features", str(feats_path), "--uri", "rec")
    code, out, err = run(capsys, *base, "--hop", "7")
    assert (code, out) == (1, "")
    assert "hop=7.0 window=5.0" in err
    code, out, _ = run(capsys, *base, "--hop", "5")
    assert (code, out) == (0, "SPEAKER rec 1 0.000 15.000 <NA> <NA> spk0 <NA> <NA>\n")


def test_diarize_window_option_is_gone(tmp_path, capsys):
    scores_path, feats_path = diarize_fixtures(tmp_path)
    base = ("diarize", str(scores_path), "--features", str(feats_path))
    assert run(capsys, *base, "--window", "10")[0] == 2
    cfg = tmp_path / "window.cfg"
    cfg.write_text("window=10\n")
    code, out, err = run(capsys, "--config", str(cfg), *base)
    assert (code, out) == (1, "")
    assert "unknown config key(s): window" in err


def test_diarize_rejects_malformed_inputs_naming_the_chunk(tmp_path, capsys):
    scores_path, feats_path = diarize_fixtures(tmp_path)  # 2 chunks, K=3 binary activity
    scores = read_feature_stack(scores_path).data
    non_binary = scores.copy()
    non_binary[1, 7, 2] = 0.5
    three_active = scores.copy()
    three_active[0, 3] = 1
    cases = (
        (np.zeros((2, 500, 4), np.float32), "tensor dim 4 matches neither 7 powerset classes"),
        (non_binary, "chunk 1: activity must be binary"),
        (three_active, "chunk 0: at most 2 speakers may be active per frame"),
        (np.concatenate([scores, scores[:1]]), "got 3 chunks but 2 feature matrices"),
    )
    for data, message in cases:
        bad_path = tmp_path / "bad.sslf"
        write_feature_stack(FeatureStack(data, 50.0), bad_path)
        code, out, err = run(capsys, "diarize", str(bad_path), "--features", str(feats_path))
        assert (code, out) == (1, "")
        assert message in err
    emb_path = tmp_path / "emb.sslf"
    write_feature_stack(FeatureStack(np.ones((3, 3, 4), np.float32), 1.0), emb_path)
    code, out, err = run(capsys, "diarize", str(scores_path), "--embeddings", str(emb_path))
    assert (code, out) == (1, "")
    assert "embedding file has 3 chunks, scores have 2" in err


def test_diarize_rejects_both_embedding_sources(tmp_path, capsys):
    scores_path, feats_path = diarize_fixtures(tmp_path)
    emb_path = tmp_path / "emb.sslf"
    write_feature_stack(FeatureStack(np.ones((2, 3, 4), np.float32), 1.0), emb_path)
    cfg = tmp_path / "features.cfg"
    cfg.write_text(f"features={feats_path}\n")
    for argv in (
        ("diarize", str(scores_path), "--features", str(feats_path), "--embeddings", str(emb_path)),
        ("--config", str(cfg), "diarize", str(scores_path), "--embeddings", str(emb_path)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "not both" in err


def test_stdout_deterministic_across_runs(tmp_path, capsys):
    scores_path, feats_path = diarize_fixtures(tmp_path)
    ref = tmp_path / "ref.rttm"
    ref.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    invocations = [
        ("version",),
        ("powerset", "--num-speakers", "4"),
        ("score-der", str(ref), str(ref)),
        ("diarize", str(scores_path), "--features", str(feats_path), "--uri", "rec"),
    ]
    for argv in invocations:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_non_finite_float_options_exit_1_naming_the_value(tmp_path, capsys):
    wav = tmp_path / "in.wav"
    write_sine(wav, 440.0)
    scores_path, feats_path = diarize_fixtures(tmp_path)
    # all-silent scores: min_seg is checked even when nothing is pooled
    silent_path = tmp_path / "silent.sslf"
    write_feature_stack(FeatureStack(np.zeros((2, 500, 3), np.float32), 50.0), silent_path)
    for value in ("inf", "nan", "-inf"):
        invocations = [
            ("resample", str(wav), str(tmp_path / "out.wav"), "--rate", "16000", f"--stopband-db={value}"),
            ("diarize", str(scores_path), "--features", str(feats_path), f"--min-seg={value}"),
            ("diarize", str(silent_path), "--features", str(feats_path), f"--min-seg={value}"),
        ]
        for argv in invocations:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err.startswith("error: ") and f"got {value}" in err, err
            assert "Traceback" not in err


def test_total_der_matches_cli_overall_row(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    # in recording "c" the 0.25 s collars cover all of its 0.4 s of speech
    ref.write_text(
        "SPEAKER a 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER a 1 4.000 3.000 <NA> <NA> B <NA> <NA>\n"
        "SPEAKER b 1 1.000 5.500 <NA> <NA> C <NA> <NA>\n"
        "SPEAKER c 1 0.000 0.400 <NA> <NA> D <NA> <NA>\n"
    )
    hyp.write_text(
        "SPEAKER a 1 0.500 9.000 <NA> <NA> x <NA> <NA>\n"
        "SPEAKER a 1 3.000 2.000 <NA> <NA> y <NA> <NA>\n"
        "SPEAKER b 1 2.000 6.000 <NA> <NA> x <NA> <NA>\n"
        "SPEAKER c 1 0.000 0.400 <NA> <NA> z <NA> <NA>\n"
    )
    refs, hyps = diarsep.parse_rttm(ref.read_text()), diarsep.parse_rttm(hyp.read_text())
    reports = [compute_der(refs[uri], hyps[uri], collar=0.25) for uri in ("a", "b", "c")]
    assert reports[2].total_speech == 0.0 and reports[2].der_pct == 0.0
    total = total_der(reports)
    assert total.mapping == {}
    assert total.total_speech == reports[0].total_speech + reports[1].total_speech > 0
    assert total.der_pct == total.fa_pct + total.md_pct + total.sc_pct
    assert total.fa_pct == 100.0 * (reports[0].false_alarm + reports[1].false_alarm) / total.total_speech

    argv = ("score-der", str(ref), str(hyp), "--collar", "0.25")
    code, csv, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = csv.splitlines()
    assert [row.split(",")[0] for row in rows] == ["uri", "a", "b", "c", "OVERALL"]
    assert rows[3] == "c," + ",".join(["0.000000"] * 8)
    values = (total.false_alarm, total.missed, total.confusion, total.total_speech,
              total.fa_pct, total.md_pct, total.sc_pct, total.der_pct)
    assert rows[4] == "OVERALL," + ",".join(f"{v:.6f}" for v in values)
    code, text, _ = run(capsys, *argv, "--aggregate")
    assert code == 0
    assert text == (
        f"OVERALL DER {total.der_pct:.3f}% FA {total.fa_pct:.3f}% MD {total.md_pct:.3f}% "
        f"SC {total.sc_pct:.3f}% speech {total.total_speech:.3f}s\n"
    )

    # a corpus without scored speech totals to zeros, as each of its recordings does
    empty = total_der([reports[2], reports[2]])
    assert (empty.total_speech, empty.der_pct, empty.fa_pct) == (0.0, 0.0, 0.0)


# config lines for the --config fuzz: known keys of several subcommands with
# valid, malformed or non-finite values, plus broken lines
_CONFIG_LINE = st.one_of(
    st.builds(
        lambda key, value: f"{key}={value}",
        st.sampled_from(["collar", "format", "per_file", "mode", "uem", "no_pit", "hop", "stopband-db", "cap_db"]),
        st.sampled_from(["0", "0.25", "-1", "nan", "inf", "csv", "text", "xml", "true", "false", "", "1e400"]),
    ),
    st.sampled_from(["# comment", "", "=", "novalue", "unknown_key=1", "collar = 0.5"]),
    st.text(max_size=10),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_CONFIG_LINE, max_size=5).map("\n".join))
def test_config_fuzz_exits_0_or_1(tmp_path_factory, text):
    """score-der under a fuzzed --config file: a score or an error message, never a traceback."""
    # fresh files per example: rewriting one path stalls on some filesystems (ext4 truncate-on-rewrite)
    folder = tmp_path_factory.mktemp("fuzz")
    rttm = folder / "ref.rttm"
    rttm.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    cfg = folder / "fuzz.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "score-der", str(rttm), str(rttm)])
    assert (code, err.getvalue()[:7]) in ((0, ""), (1, "error: "))


def test_main_leaves_the_collector_alone_and_the_script_entry_freezes_it(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "version") == (0, f"diarsep {diarsep.__version__}\n", "")
    assert gc.get_freeze_count() == before
    pyproject = Path(diarsep.__file__).resolve().parents[2] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["scripts"] == {"diarsep": "diarsep.cli:run"}
    # at exit: was anything frozen, and is the namespace of every diarsep module, the ones
    # the subcommand loaded included, in the permanent generation (gc.get_objects() omits it)
    script = (
        "import atexit, gc, sys\n"
        "from diarsep.cli import run\n"
        "def report():\n"
        "    live = {id(o) for o in gc.get_objects()}\n"
        "    names = sorted(m for m in sys.modules if m.startswith('diarsep'))\n"
        "    print('frozen', gc.get_freeze_count() > 0, [m for m in names if id(vars(sys.modules[m])) in live])\n"
        "atexit.register(report)\n"
        "sys.argv = ['diarsep', *sys.argv[1:]]\n"
        "run()\n"
    )
    for argv, code, out in (
        (["version"], 0, f"diarsep {diarsep.__version__}\n"),
        (["no-such-command"], 2, ""),
        (["powerset", "--num-speakers", "1"], 0, "0\t-\n1\ts0\n"),
    ):
        result = fresh_python(script, *argv)
        assert (result.returncode, result.stdout) == (code, out + "frozen True []\n"), result.stderr


def run_with_main(body, openblas_threads):
    """Call cli.run() in a new interpreter whose cli.main runs ``body``, with the caller's
    OPENBLAS_NUM_THREADS set to ``openblas_threads``; return its stdout."""
    script = (
        "import os\n"
        "from diarsep import cli\n"
        f"assert os.environ['OPENBLAS_NUM_THREADS'] == {openblas_threads!r}  # import sets nothing\n"
        "def main():\n"
        "    import numpy as np\n"
        f"    {body}\n"
        "    return 0\n"
        "cli.main = main\n"
        "cli.run()\n"
    )
    result = fresh_python(script, env={"OPENBLAS_NUM_THREADS": openblas_threads})
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.skipif(worker_count(2, 1) < 2, reason="OpenBLAS starts no pool thread on one usable CPU")
def test_run_pins_the_blas_pool_to_one_thread_before_numpy_loads(monkeypatch, capsys):
    assert run_with_main("print(len(os.listdir('/proc/self/task')))", "2") == "1\n"
    # main() itself, for in-process callers, leaves the environment alone
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run(capsys, "version")[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_cli_blas_results_do_not_depend_on_the_callers_environment():
    # OpenBLAS splits a ddot over more than 10,000 elements across its threads
    body = (
        "rng = np.random.default_rng(3); x, y = rng.standard_normal((2, 20_000)); "
        "print(np.dot(x, y).hex())"
    )
    assert run_with_main(body, "1") == run_with_main(body, "2")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="sets the usable CPUs of each child")
def test_every_subcommand_writes_the_same_bytes_on_one_and_two_cpus(tmp_path):
    """Each subcommand runs in a CLI child whose usable CPUs are set before it starts, with
    inputs of several pool jobs each; stdout and every output file match byte for byte.
    The 2-CPU half is skipped where fewer CPUs are usable."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    scores_path, feats_path = diarize_fixtures(inputs)
    rng = np.random.default_rng(24)
    # 9 s at 8 kHz: 4 resample jobs up, 2 at the identity, 9 blocks of frames, 2 score blocks
    wavs = [inputs / f"s{k}.wav" for k in range(2)]
    for path in wavs:
        write_wav(AudioBuffer(rng.uniform(-0.4, 0.4, 9 * 8000).astype(np.float32), 8000), path)
    (inputs / "weights.txt").write_text("0.3\n-0.2\n")
    for name in ("ref", "hyp"):
        annotations = [random_annotation(rng, uri=f"u{k}") for k in range(4)]
        (inputs / f"{name}.rttm").write_text("".join(emit_rttm(a) for a in annotations))
    commands = [
        ["version"],
        ["resample", str(wavs[0]), "up.wav", "--rate", "16000"],
        ["resample", "up.wav", "back.wav", "--rate", "8000"],
        ["resample", "back.wav", "same.wav", "--rate", "8000"],
        ["powerset", "--num-speakers", "3"],
        ["fuse", str(feats_path), str(inputs / "weights.txt"), "fused.sslf"],
        ["separate-oracle", "--sources", *map(str, wavs), "--output-dir", "est", "--seed", "7",
         "--save-masks", "masks.sslf"],
        ["diarize", str(scores_path), "--features", str(feats_path), "--output", "out.rttm"],
        ["score-der", str(inputs / "ref.rttm"), str(inputs / "hyp.rttm"), "--collar", "0.25"],
        ["score-sdr", "--refs", *map(str, wavs), "--ests", "est/est1.wav", "est/est0.wav", "--mix", str(wavs[0])],
    ]
    package_root = str(Path(diarsep.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    usable = sorted(os.sched_getaffinity(0))
    results = {}
    for n_cpus in (1, 2)[: len(usable)]:
        work = tmp_path / f"cpus-{n_cpus}"
        work.mkdir()
        stdout = []
        for argv in commands:
            result = subprocess.run(
                [sys.executable, "-m", "diarsep.cli", *argv],
                cwd=work,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                preexec_fn=lambda: os.sched_setaffinity(0, usable[:n_cpus]),
            )
            assert (result.returncode, result.stderr) == (0, ""), argv
            stdout.append(result.stdout)
        files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
        assert sorted(files) == ["back.wav", "est/est0.wav", "est/est1.wav", "fused.sslf", "masks.sslf",
                                 "out.rttm", "same.wav", "up.wav"]
        results[n_cpus] = stdout, files
    assert all(result == results[1] for result in results.values())
