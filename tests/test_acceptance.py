"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they stream.
"""

import contextlib
import time

import numpy as np
import pytest
from scipy.fft import dct

from diarsep import (
    Annotation,
    AudioBuffer,
    ChunkSegmentation,
    EncoderBasis,
    FeatureMatrix,
    FeatureStack,
    align_frames,
    build_space,
    compute_der,
    diarize_file,
    emit_rttm,
    mirrored_dct_basis,
    normalize_weights,
    oracle_masks,
    parse_rttm,
    pit,
    resample,
    sdr,
    separate_with_masks,
    si_sdr,
    weighted_sum,
    write_feature_stack,
    write_wav,
)
from diarsep.cli import main as cli_main
from diarsep.tasnet import apply_masks, decode, encode
from oracles import grid_der, perturbed_hypothesis, pit_oracle, random_annotation
from test_der import brute_force_value, naive_matrix


@contextlib.contextmanager
def criterion(number, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_der_decomposition_identity():
    with criterion(1, "DER decomposition identity", budget_s=1.0):
        # worked example: FA 4.8 + MD 7.7 + SC 7.9 = DER 20.4 over 100 s
        ref = Annotation("u", ((0.0, 100.0, "A"),))
        hyp = Annotation("u", ((0.0, 84.4, "h1"), (84.4, 7.9, "h2"), (100.0, 4.8, "h1")))
        report = compute_der(ref, hyp)
        assert report.fa_pct == pytest.approx(4.8, abs=1e-9)
        assert report.md_pct == pytest.approx(7.7, abs=1e-9)
        assert report.sc_pct == pytest.approx(7.9, abs=1e-9)
        assert report.der_pct == pytest.approx(20.4, abs=1e-9)
        assert abs(report.der_pct - (report.fa_pct + report.md_pct + report.sc_pct)) <= 1e-9

        rng = np.random.default_rng(100)
        for i in range(30):
            ref = random_annotation(rng)
            hyp = perturbed_hypothesis(rng, ref) if i % 2 else random_annotation(rng)
            r = compute_der(ref, hyp)
            assert abs(r.der_pct - (r.fa_pct + r.md_pct + r.sc_pct)) <= 1e-9


def test_criterion_2_der_oracle_equivalence():
    with criterion(2, "DER oracle equivalence, 200 random pairs", budget_s=30.0):
        rng = np.random.default_rng(200)
        for i in range(200):
            ref = random_annotation(rng, max_speakers=5, max_segments=20, max_time=60.0)
            hyp = (
                perturbed_hypothesis(rng, ref)
                if i % 2
                else random_annotation(rng, max_speakers=5, max_segments=20, max_time=60.0)
            )
            report = compute_der(ref, hyp)
            assert abs(report.der_pct - (report.fa_pct + report.md_pct + report.sc_pct)) <= 1e-9

            der_grid = grid_der(ref, hyp)[4]
            assert report.der_pct == pytest.approx(der_grid, abs=0.1)

            ref_speakers, hyp_speakers, matrix = naive_matrix(ref, hyp)
            achieved = sum(
                matrix[ref_speakers.index(r), hyp_speakers.index(h)]
                for r, h in report.mapping.items()
            )
            assert achieved == pytest.approx(brute_force_value(matrix), abs=1e-9)


def test_criterion_3_pit_oracle_equivalence():
    with criterion(3, "PIT assignment = exhaustive oracle, 100 x S=4", budget_s=10.0):
        rng = np.random.default_rng(300)
        for _ in range(100):
            refs = [rng.standard_normal(256) for _ in range(4)]
            mixture = np.sum(refs, axis=0)
            ests = [refs[i] + 0.4 * mixture + 0.1 * rng.standard_normal(256) for i in range(4)]
            order = rng.permutation(4)
            shuffled = [ests[i] for i in order]
            perm, mean = pit(refs, shuffled, metric="sdr")
            oracle_perm, oracle_mean = pit_oracle(refs, shuffled, metric="sdr")
            # the oracle scores with whole-array dot products, pit with block partials
            assert perm == oracle_perm
            assert mean == pytest.approx(oracle_mean, abs=1e-9)


def test_criterion_4_sdr_analytic_values():
    with criterion(4, "SDR / SI-SDR analytic values"):
        assert sdr([1.0, 0.0], [1.0, 0.1]) == pytest.approx(20.0, abs=1e-9)

        rng = np.random.default_rng(400)
        ref = rng.standard_normal(128)
        est = ref + 0.2 * rng.standard_normal(128)
        base = si_sdr(ref, est)
        # random power-of-two factors keep the scaling exact in binary floats
        for _ in range(20):
            factor = float(rng.choice([-1.0, 1.0])) * 2.0 ** int(rng.integers(-12, 13))
            assert si_sdr(ref, factor * est) == base

        assert sdr(ref, 2.0 * ref) == 0.0


def test_criterion_5_resampler_fidelity():
    with criterion(5, "resampler fidelity", budget_s=5.0):
        n = 4000
        x = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(n) / 8000)
        up = resample(AudioBuffer(x.astype(np.float32), 8000), 16000)
        ref = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(2 * n) / 16000)
        lo, hi = len(up) // 10, len(up) - len(up) // 10
        err = ref[lo:hi] - up.samples[lo:hi].astype(np.float64)
        snr = 10 * np.log10(np.dot(ref[lo:hi], ref[lo:hi]) / np.dot(err, err))
        assert snr >= 80.0

        rng = np.random.default_rng(500)
        m = 8000
        spectrum = np.zeros(m // 2 + 1, dtype=complex)
        cut = int(3400 / 8000 * m)
        spectrum[1:cut] = rng.standard_normal(cut - 1) + 1j * rng.standard_normal(cut - 1)
        noise = np.fft.irfft(spectrum, m)
        noise = (0.5 * noise / np.abs(noise).max()).astype(np.float32)
        back = resample(resample(AudioBuffer(noise, 8000), 16000), 8000)
        lo, hi = m // 10, m - m // 10
        err = noise[lo:hi].astype(np.float64) - back.samples[lo:hi].astype(np.float64)
        ref_e = np.dot(noise[lo:hi].astype(np.float64), noise[lo:hi].astype(np.float64))
        snr_rt = 10 * np.log10(ref_e / np.dot(err, err))
        assert snr_rt >= 60.0


def test_criterion_6_powerset_codec():
    with criterion(6, "powerset codec", budget_s=1.0):
        import itertools

        for k in range(1, 7):
            space = build_space(k)
            assert space.n_classes == 1 + k + k * (k - 1) // 2
            for idx in range(space.n_classes):
                assert space.index(space.members(idx)) == idx
            for bits in itertools.product((0, 1), repeat=k):
                active = [slot for slot, bit in enumerate(bits) if bit]
                assert len(space.members(space.index(active))) <= 2

        space3 = build_space(3)
        assert space3.index([0, 1, 2]) == 4  # the activity vector [1, 1, 1]
        assert space3.members(4) == (0, 1)


def test_criterion_7_fusion():
    with criterion(7, "fusion"):
        rng = np.random.default_rng(700)
        stack = FeatureStack(rng.standard_normal((6, 40, 8)).astype(np.float32), 50.0)
        for j in range(6):
            one_hot = np.zeros(6)
            one_hot[j] = 1.0
            assert np.array_equal(weighted_sum(stack, one_hot).data, stack.data[j])

        uniform = weighted_sum(stack, np.full(6, 1 / 6))
        assert np.allclose(uniform.data, stack.data.mean(axis=0), atol=1e-6)

        for _ in range(1000):
            logits = rng.uniform(-25, 25, size=rng.integers(1, 30))
            assert abs(normalize_weights(logits).sum() - 1.0) <= 1e-6

        feats = FeatureMatrix(np.array([[0.0], [1.0], [2.0]], np.float32), 50.0)
        assert align_frames(feats, 7).data[:, 0].tolist() == [0, 0, 0, 1, 1, 2, 2]


def test_criterion_8_tasnet_core():
    with criterion(8, "tasnet core", budget_s=10.0):
        rng = np.random.default_rng(800)

        # orthonormal non-overlapping basis: perfect reconstruction
        q = dct(np.eye(8), norm="ortho", axis=0)
        ortho = EncoderBasis(q, q, 8, "linear")
        x = rng.uniform(-0.5, 0.5, 1600).astype(np.float32)
        out = decode(encode(AudioBuffer(x, 8000), ortho), ortho)
        assert np.abs(out.samples - x).max() < 1e-6

        # complementary masks reconstruct the mixture latent exactly
        basis = mirrored_dct_basis(16)
        mixture = AudioBuffer(rng.uniform(-0.5, 0.5, 1600).astype(np.float32), 8000)
        latent = encode(mixture, basis)
        m = rng.choice([0.0, 0.5, 1.0], size=latent.data.shape).astype(np.float32)
        parts = apply_masks(latent, np.stack([m, 1.0 - m]))
        assert np.array_equal(parts[0].data + parts[1].data, latent.data)

        # time-disjoint oracle-mask separation
        n = 16000
        t = np.arange(n // 2) / 8000.0
        s1 = np.zeros(n, np.float32)
        s2 = np.zeros(n, np.float32)
        s1[: n // 2] = (0.4 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
        s2[n // 2 :] = (0.4 * np.sin(2 * np.pi * 660 * t)).astype(np.float32)
        sources = [AudioBuffer(s1, 8000), AudioBuffer(s2, 8000)]
        mix = AudioBuffer(s1 + s2, 8000)
        masks = oracle_masks(sources, basis)
        estimates = separate_with_masks(mix, masks, basis)
        assert si_sdr(s1[: n // 2], estimates[0].samples[: n // 2]) >= 30.0
        assert si_sdr(s2[n // 2 :], estimates[1].samples[n // 2 : n]) >= 30.0


def _two_speaker_pipeline_inputs():
    """A speaks on [0, 8) s, B on [12, 18) s of a 20 s file; chunks hop 5 s."""
    fr = 50.0
    vectors = {"A": np.array([1.0, 0, 0, 0], np.float32), "B": np.array([0, 1.0, 0, 0], np.float32)}
    truth = {"A": (0.0, 8.0), "B": (12.0, 18.0)}
    chunks, feats = [], []
    for onset in (0.0, 5.0, 10.0, 15.0):
        n = 500 if onset < 15.0 else 250
        activity = np.zeros((n, 2), np.int8)
        features = np.zeros((n, 4), np.float32)
        slot = 0
        for name, (t0, t1) in truth.items():
            f0 = int(round(max(t0 - onset, 0.0) * fr))
            f1 = int(round(min(t1 - onset, n / fr) * fr))
            if f1 > f0:
                activity[f0:f1, slot] = 1
                features[f0:f1] = vectors[name]
                slot += 1
        chunks.append(ChunkSegmentation(onset, fr, activity))
        feats.append(FeatureMatrix(features, fr))
    reference = Annotation("u", ((0.0, 8.0, "A"), (12.0, 6.0, "B")))
    return chunks, feats, reference


def test_criterion_9_end_to_end_diarization():
    with criterion(9, "end-to-end synthetic diarization", budget_s=5.0):
        chunks, feats, reference = _two_speaker_pipeline_inputs()

        hypothesis = diarize_file(chunks, feats, uri="u", ahc_threshold=0.5)
        via_rttm = parse_rttm(emit_rttm(hypothesis))["u"]
        report = compute_der(reference, via_rttm)
        assert f"{report.der_pct:.3f}" == "0.000"
        assert report.der_pct == 0.0

        merged = diarize_file(chunks, feats, uri="u", ahc_threshold=2.0)
        assert len(merged.speakers()) == 1
        merged_report = compute_der(reference, parse_rttm(emit_rttm(merged))["u"])
        # minority speaker B carries 6 of 14 s: all of it becomes confusion
        assert merged_report.confusion == pytest.approx(6.0, abs=1e-9)
        assert merged_report.der_pct == pytest.approx(100.0 * 6.0 / 14.0, abs=1e-9)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(1000)

    sine = tmp_path / "tone.wav"
    t = np.arange(4000) / 8000.0
    write_wav(AudioBuffer((0.4 * np.sin(2 * np.pi * 500 * t)).astype(np.float32), 8000), sine)

    s1 = np.zeros(8000, np.float32)
    s2 = np.zeros(8000, np.float32)
    s1[:4000] = (0.4 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    s2[4000:] = (0.4 * np.sin(2 * np.pi * 660 * t)).astype(np.float32)
    src1, src2, mix = tmp_path / "s1.wav", tmp_path / "s2.wav", tmp_path / "mix.wav"
    write_wav(AudioBuffer(s1, 8000), src1)
    write_wav(AudioBuffer(s2, 8000), src2)
    write_wav(AudioBuffer(s1 + s2, 8000), mix)

    stack_path = tmp_path / "stack.sslf"
    write_feature_stack(FeatureStack(rng.standard_normal((4, 20, 6)).astype(np.float32), 50.0), stack_path)
    weights_path = tmp_path / "weights.txt"
    weights_path.write_text("0.5\n-1.0\n2.0\n0.0\n")

    scores = np.zeros((2, 500, 3), np.float32)
    feats = np.zeros((2, 500, 4), np.float32)
    scores[0, 0:400, 0] = 1
    feats[0, 0:400] = [1, 0, 0, 0]
    scores[1, 100:500, 0] = 1
    feats[1, 100:500] = [0, 1, 0, 0]
    scores_path, feats_path = tmp_path / "scores.sslf", tmp_path / "feats.sslf"
    write_feature_stack(FeatureStack(scores, 50.0), scores_path)
    write_feature_stack(FeatureStack(feats, 50.0), feats_path)

    rttm_path = tmp_path / "ref.rttm"
    rttm_path.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")

    out_dir = tmp_path / "est"
    invocations = [
        ("version",),
        ("powerset", "--num-speakers", "3"),
        ("resample", str(sine), str(tmp_path / "tone16.wav"), "--rate", "16000"),
        ("fuse", str(stack_path), str(weights_path), str(tmp_path / "fused.sslf")),
        (
            "separate-oracle", "--sources", str(src1), str(src2),
            "--output-dir", str(out_dir), "--seed", "7",
            "--save-masks", str(tmp_path / "masks.sslf"),
        ),
        (
            "diarize", str(scores_path), "--features", str(feats_path),
            "--uri", "rec", "--output", str(tmp_path / "hyp.rttm"),
        ),
        ("score-der", str(rttm_path), str(rttm_path)),
        (
            "score-sdr", "--refs", str(src1), str(src2),
            "--ests", str(src2), str(src1), "--mix", str(mix), "--metric", "si-sdr",
        ),
    ]
    outputs = [
        tmp_path / "tone16.wav",
        tmp_path / "fused.sslf",
        out_dir / "est0.wav",
        out_dir / "est1.wav",
        tmp_path / "masks.sslf",
        tmp_path / "hyp.rttm",
    ]

    with criterion(10, "CLI determinism"):
        for argv in invocations:
            code_a = cli_main(list(argv))
            captured_a = capsys.readouterr()
            files_a = [p.read_bytes() for p in outputs if p.exists()]
            code_b = cli_main(list(argv))
            captured_b = capsys.readouterr()
            files_b = [p.read_bytes() for p in outputs if p.exists()]
            assert code_a == code_b == 0, argv
            assert captured_a.out == captured_b.out, argv
            assert captured_a.out, argv  # every subcommand reports on stdout
            assert files_a == files_b, argv
