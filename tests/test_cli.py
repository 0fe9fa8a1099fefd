import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import diarsep
from diarsep import (
    AudioBuffer,
    FeatureStack,
    mirrored_dct_basis,
    read_feature_stack,
    read_wav,
    write_feature_stack,
    write_wav,
)
from diarsep.cli import main
from diarsep.der import compute_der, total_der
from diarsep.tasnet import basis_to_stack


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sine(path, freq, rate=8000, seconds=0.5, amp=0.4):
    t = np.arange(int(rate * seconds)) / rate
    write_wav(AudioBuffer((amp * np.sin(2 * np.pi * freq * t)).astype(np.float32), rate), path)


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


def test_resample_command_imports_no_scipy(tmp_path):
    # a fresh interpreter, since this one has scipy loaded by other tests;
    # score-der, 7-source score-sdr (the assignment path of PIT) and diarize
    # with two embeddings to cluster load none either
    scores_path, feats_path = diarize_fixtures(tmp_path)
    src = tmp_path / "in.wav"
    write_sine(src, 1000, rate=8000, seconds=0.1)
    (tmp_path / "ref.rttm").write_text("SPEAKER u 1 0.0 2.0 <NA> <NA> A <NA> <NA>\n")
    (tmp_path / "hyp.rttm").write_text("SPEAKER u 1 0.5 2.0 <NA> <NA> X <NA> <NA>\n")
    sources = [tmp_path / f"s{k}.wav" for k in range(7)]
    for k, path in enumerate(sources):
        write_sine(path, 300 + 200 * k, rate=8000, seconds=0.1)
    write_sine(tmp_path / "mix.wav", 1000, rate=8000, seconds=0.1)
    calls = [
        ["resample", str(src), str(tmp_path / "out.wav"), "--rate", "16000"],
        ["score-der", str(tmp_path / "ref.rttm"), str(tmp_path / "hyp.rttm")],
        ["score-sdr", "--refs", *map(str, sources), "--ests", *map(str, sources[::-1]),
         "--mix", str(tmp_path / "mix.wav")],
        ["diarize", str(scores_path), "--features", str(feats_path), "--output", str(tmp_path / "out.rttm")],
    ]
    script = (
        "import sys\n"
        "import diarsep, diarsep.cli\n"
        f"code = max(diarsep.cli.main(argv) for argv in {calls!r})\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    package_root = str(Path(diarsep.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


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


def test_mixed_sample_rates_exit_1(tmp_path, capsys):
    narrow, wide = tmp_path / "narrow.wav", tmp_path / "wide.wav"
    write_sine(narrow, 440, rate=8000)
    write_sine(wide, 660, rate=16000)
    for argv in (
        ("separate-oracle", "--sources", str(narrow), str(wide),
         "--output-dir", str(tmp_path / "est"), "--seed", "7"),
        ("score-sdr", "--refs", str(narrow), "--ests", str(narrow), "--mix", str(wide)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "disagree on sample rate: [8000, 16000]" in err
    assert not (tmp_path / "est").exists()


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
    )
    assert (code, out) == (1, "")
    assert "sources must have equal lengths, got [1600, 1700]" in err
    assert not (tmp_path / "est").exists()


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
    folder = tmp_path_factory.getbasetemp()
    rttm = folder / "ref.rttm"
    rttm.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    cfg = folder / "fuzz.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "score-der", str(rttm), str(rttm)])
    assert (code, err.getvalue()[:7]) in ((0, ""), (1, "error: "))
