import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.fft import dct

from diarsep import (
    AudioBuffer,
    EncoderBasis,
    FeatureMatrix,
    FeatureStack,
    mirrored_dct_basis,
    oracle_masks,
    oracle_separation,
    random_basis,
    si_sdr,
    write_feature_stack,
)
from diarsep.features import sslf_writer
from diarsep.tasnet import (
    BLOCK_FRAMES,
    _mixture,
    apply_masks,
    basis_from_stack,
    basis_to_stack,
    decode,
    encode,
    masks_shape,
    separate_with_masks,
)
from diarsep.workers import spans, worker_count
from oracles import decode_oracle, encode_oracle, oracle_masks_oracle, separate_oracle
from test_cli import fresh_python
from test_resample import count_checks, count_thread_starts, cpus


def ortho_basis(kernel_len, nonlinearity="linear"):
    q = dct(np.eye(kernel_len), norm="ortho", axis=0)
    return EncoderBasis(q, q, kernel_len, nonlinearity)


def test_mirrored_dct_basis_equals_scipy_dct_bit_for_bit():
    for kernel_len in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 512):
        q = dct(np.eye(kernel_len), norm="ortho", axis=0)
        bank = np.vstack([q, -q])
        expected = EncoderBasis(bank, bank, kernel_len)
        basis = mirrored_dct_basis(kernel_len)
        assert basis.analysis.tobytes() == expected.analysis.tobytes(), kernel_len
        assert basis.synthesis.tobytes() == expected.synthesis.tobytes(), kernel_len
    for kernel_len in (0, -1):
        with pytest.raises(ValueError, match=f"kernel_len must be >= 1, got {kernel_len}"):
            mirrored_dct_basis(kernel_len)


def test_encode_identity_basis():
    basis = EncoderBasis([[1.0]], [[1.0]], 1, "linear")
    x = AudioBuffer(np.array([0.5, -0.25, 0.125], np.float32), 8000)
    latent = encode(x, basis)
    assert latent.data.shape == (3, 1)
    assert np.array_equal(latent.data[:, 0], x.samples)


def test_encode_zero_audio():
    basis = random_basis(4, 8, 4, seed=0)
    latent = encode(AudioBuffer(np.zeros(64, np.float32), 8000), basis)
    assert np.array_equal(latent.data, np.zeros_like(latent.data))


def test_encode_matches_sliding_dot_oracle():
    rng = np.random.default_rng(1)
    basis = EncoderBasis(rng.standard_normal((4, 8)), rng.standard_normal((4, 8)), 4, "linear")
    x = rng.uniform(-0.5, 0.5, 41).astype(np.float32)
    latent = encode(AudioBuffer(x, 8000), basis)
    t_expected = (41 - 8) // 4 + 1
    assert latent.data.shape == (t_expected, 4)
    for t in range(t_expected):
        window = x[t * 4 : t * 4 + 8].astype(np.float64)
        for n in range(4):
            expected = float(np.dot(basis.analysis[n].astype(np.float64), window))
            assert latent.data[t, n] == pytest.approx(expected, abs=1e-5)


def test_encode_relu():
    basis = EncoderBasis([[1.0]], [[1.0]], 1, "relu")
    latent = encode(AudioBuffer(np.array([0.5, -0.5], np.float32), 8000), basis)
    assert latent.data[:, 0].tolist() == [0.5, 0.0]


def test_encode_too_short():
    basis = random_basis(4, 16, 8, seed=0)
    with pytest.raises(ValueError, match="shorter than one kernel"):
        encode(AudioBuffer(np.zeros(8, np.float32), 8000), basis)


def test_apply_masks_ones_and_zeros():
    rng = np.random.default_rng(2)
    basis = random_basis(6, 8, 4, seed=1, nonlinearity="linear")
    latent = encode(AudioBuffer(rng.uniform(-0.5, 0.5, 64).astype(np.float32), 8000), basis)
    ones = np.ones((1,) + latent.data.shape, np.float32)
    assert np.array_equal(apply_masks(latent, ones)[0].data, latent.data)
    zeros = np.zeros((1,) + latent.data.shape, np.float32)
    assert np.array_equal(apply_masks(latent, zeros)[0].data, np.zeros_like(latent.data))


def test_complementary_dyadic_masks_reconstruct_exactly():
    # masks from {0, 0.5, 1} make latent*m + latent*(1-m) exact in float
    rng = np.random.default_rng(3)
    basis = random_basis(6, 8, 4, seed=2, nonlinearity="linear")
    latent = encode(AudioBuffer(rng.uniform(-0.5, 0.5, 64).astype(np.float32), 8000), basis)
    m = rng.choice([0.0, 0.5, 1.0], size=latent.data.shape).astype(np.float32)
    out = apply_masks(latent, np.stack([m, 1.0 - m]))
    assert np.array_equal(out[0].data + out[1].data, latent.data)


def test_complementary_continuous_masks_reconstruct_within_float():
    rng = np.random.default_rng(4)
    basis = random_basis(6, 8, 4, seed=3, nonlinearity="linear")
    latent = encode(AudioBuffer(rng.uniform(-0.5, 0.5, 64).astype(np.float32), 8000), basis)
    m = rng.uniform(0, 1, latent.data.shape).astype(np.float32)
    out = apply_masks(latent, np.stack([m, 1.0 - m]))
    assert np.allclose(out[0].data + out[1].data, latent.data, atol=1e-6)


def test_apply_masks_shape_mismatch():
    basis = random_basis(4, 8, 4, seed=4)
    latent = encode(AudioBuffer(np.zeros(64, np.float32), 8000), basis)
    with pytest.raises(ValueError, match="masks must be"):
        apply_masks(latent, np.ones((2, 3, 3), np.float32))


def test_decode_zero_latent_length():
    basis = random_basis(4, 8, 4, seed=5)
    latent = encode(AudioBuffer(np.zeros(64, np.float32), 8000), basis)
    out = decode(latent, basis)
    assert len(out) == (latent.n_frames - 1) * 4 + 8
    assert np.array_equal(out.samples, np.zeros(len(out), np.float32))
    assert out.sample_rate == 8000


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_decode_rejects_a_latent_of_another_dim(dim):
    # a 1-dim latent would broadcast across all filters instead of failing
    basis = random_basis(4, 8, 4, seed=5)
    latent = FeatureMatrix(np.ones((6, dim), np.float32), 2000.0)
    with pytest.raises(ValueError, match=f"latent dim {dim} != basis n_filters 4"):
        decode(latent, basis)


def test_decode_linearity():
    rng = np.random.default_rng(6)
    basis = random_basis(5, 8, 4, seed=6, nonlinearity="linear")
    from diarsep import FeatureMatrix

    a = FeatureMatrix(rng.standard_normal((9, 5)).astype(np.float32), 1000.0)
    b = FeatureMatrix(rng.standard_normal((9, 5)).astype(np.float32), 1000.0)
    combo = FeatureMatrix(2.0 * a.data - 0.5 * b.data, 1000.0)
    lhs = decode(combo, basis).samples.astype(np.float64)
    rhs = 2.0 * decode(a, basis).samples.astype(np.float64) - 0.5 * decode(b, basis).samples.astype(np.float64)
    assert np.linalg.norm(lhs - rhs) <= 1e-5 * max(np.linalg.norm(rhs), 1.0)


def test_orthonormal_basis_perfect_reconstruction():
    rng = np.random.default_rng(7)
    basis = ortho_basis(8)
    x = rng.uniform(-0.5, 0.5, 800).astype(np.float32)  # frame-aligned: 100 frames of 8
    out = decode(encode(AudioBuffer(x, 8000), basis), basis)
    assert len(out) == 800
    assert np.abs(out.samples - x).max() < 1e-6


def test_shape_contract():
    basis = random_basis(4, 16, 8, seed=8)
    x = AudioBuffer(np.zeros(100, np.float32), 8000)
    latent = encode(x, basis)
    t = (100 - 16) // 8 + 1
    assert latent.n_frames == t
    assert len(decode(latent, basis)) == (t - 1) * 8 + 16  # 96, not the original 100


def test_oracle_masks_single_source_saturates():
    rng = np.random.default_rng(9)
    basis = mirrored_dct_basis(8)
    src = AudioBuffer(rng.uniform(-0.5, 0.5, 80).astype(np.float32), 8000)
    masks = oracle_masks([src], basis)
    latent = encode(src, basis).data
    strong = latent > 1e-4
    assert masks.shape == (1,) + latent.shape
    assert (masks[0][strong] > 1 - 1e-3).all()


def test_oracle_masks_identical_sources_split_evenly():
    rng = np.random.default_rng(10)
    basis = mirrored_dct_basis(8)
    src = AudioBuffer(rng.uniform(-0.5, 0.5, 80).astype(np.float32), 8000)
    masks = oracle_masks([src, src], basis)
    strong = encode(src, basis).data > 1e-4
    assert np.allclose(masks[0][strong], 0.5, atol=1e-3)
    assert np.allclose(masks[1][strong], 0.5, atol=1e-3)


def test_oracle_masks_length_mismatch():
    basis = mirrored_dct_basis(8)
    a = AudioBuffer(np.zeros(80, np.float32), 8000)
    b = AudioBuffer(np.zeros(72, np.float32), 8000)
    with pytest.raises(ValueError, match="equal lengths"):
        oracle_masks([a, b], basis)


def test_oracle_masks_rate_mismatch():
    basis = mirrored_dct_basis(8)
    a = AudioBuffer(np.ones(80, np.float32), 8000)
    b = AudioBuffer(np.ones(80, np.float32), 16000)
    with pytest.raises(ValueError, match=r"sources disagree on sample rate: \[8000, 16000\]"):
        oracle_masks([a, b], basis)


def test_time_disjoint_oracle_separation():
    n = 16000
    t = np.arange(n // 2) / 8000.0
    s1 = np.zeros(n, np.float32)
    s2 = np.zeros(n, np.float32)
    s1[: n // 2] = (0.4 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    s2[n // 2 :] = (0.4 * np.sin(2 * np.pi * 660 * t)).astype(np.float32)
    sources = [AudioBuffer(s1, 8000), AudioBuffer(s2, 8000)]
    mixture = AudioBuffer(s1 + s2, 8000)

    basis = mirrored_dct_basis(16)
    masks = oracle_masks(sources, basis)
    estimates = separate_with_masks(mixture, masks, basis)
    assert si_sdr(s1[: n // 2], estimates[0].samples[: n // 2]) >= 30.0
    assert si_sdr(s2[n // 2 :], estimates[1].samples[n // 2 : n]) >= 30.0


def test_partition_of_unity_reconstructs_mixture_latent():
    rng = np.random.default_rng(11)
    basis = mirrored_dct_basis(8)
    a = AudioBuffer(rng.uniform(-0.3, 0.3, 160).astype(np.float32), 8000)
    b = AudioBuffer(rng.uniform(-0.3, 0.3, 160).astype(np.float32), 8000)
    mixture = AudioBuffer(a.samples + b.samples, 8000)
    latent = encode(mixture, basis)
    m = rng.choice([0.0, 0.5, 1.0], size=latent.data.shape).astype(np.float32)
    parts = apply_masks(latent, np.stack([m, 1.0 - m]))
    assert np.array_equal(parts[0].data + parts[1].data, latent.data)


def test_basis_validation():
    with pytest.raises(ValueError, match="stride"):
        EncoderBasis(np.ones((2, 4)), np.ones((2, 4)), 5)
    with pytest.raises(ValueError, match="synthesis shape"):
        EncoderBasis(np.ones((2, 4)), np.ones((3, 4)), 2)
    with pytest.raises(ValueError, match="nonlinearity"):
        EncoderBasis(np.ones((2, 4)), np.ones((2, 4)), 2, "tanh")
    with pytest.raises(ValueError, match="finite"):
        EncoderBasis(np.full((2, 4), np.nan), np.ones((2, 4)), 2)


def test_basis_stack_round_trip():
    basis = random_basis(6, 12, 6, seed=12, nonlinearity="linear")
    back = basis_from_stack(basis_to_stack(basis), 6, "linear")
    assert np.array_equal(back.analysis, basis.analysis)
    assert np.array_equal(back.synthesis, basis.synthesis)
    assert back.stride == 6


def test_random_basis_is_seed_deterministic():
    a = random_basis(8, 16, 8, seed=99)
    b = random_basis(8, 16, 8, seed=99)
    c = random_basis(8, 16, 8, seed=100)
    assert np.array_equal(a.analysis, b.analysis)
    assert not np.array_equal(a.analysis, c.analysis)


BLOCKWISE_BASES = {
    "random": lambda nl: random_basis(128, 16, 8, seed=13, nonlinearity=nl),
    "stride-5": lambda nl: random_basis(24, 16, 5, seed=14, nonlinearity=nl),
    "mirrored-dct": lambda nl: mirrored_dct_basis(8, 4, nonlinearity=nl),
}


@pytest.mark.parametrize("n_frames", [1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 3])
@pytest.mark.parametrize("kind", sorted(BLOCKWISE_BASES))
@pytest.mark.parametrize("nonlinearity", ["relu", "linear"])
def test_blockwise_equals_whole_array_oracles(n_frames, kind, nonlinearity):
    basis = BLOCKWISE_BASES[kind](nonlinearity)
    rng = np.random.default_rng(n_frames)
    # a few spare samples, fewer than one hop, so the frame count is floored
    n = (n_frames - 1) * basis.stride + basis.kernel_len + int(rng.integers(basis.stride))
    for n_sources in (1, 2, 3):
        sources = [AudioBuffer(rng.uniform(-0.5, 0.5, n).astype(np.float32), 8000) for _ in range(n_sources)]
        mixture = AudioBuffer(np.sum([s.samples for s in sources], axis=0), 8000)

        latent = encode(mixture, basis)
        expected = encode_oracle(mixture, basis)
        assert latent.n_frames == n_frames
        assert np.array_equal(latent.data, expected.data)
        assert latent.frame_rate == expected.frame_rate
        assert np.array_equal(decode(latent, basis).samples, decode_oracle(expected, basis).samples)

        masks = oracle_masks(sources, basis)
        expected_masks = oracle_masks_oracle(sources, basis)
        assert np.array_equal(masks, expected_masks)
        fused = oracle_separation(sources, basis)
        for est, ref in zip(fused, separate_oracle(mixture, expected_masks, basis), strict=True):
            assert est.sample_rate == ref.sample_rate == 8000
            assert np.array_equal(est.samples, ref.samples)
        # masks outside [0, 1] as well, as a masks file may hold
        for m in (masks, rng.uniform(-0.5, 1.5, masks.shape).astype(np.float32)):
            estimates = separate_with_masks(mixture, m, basis)
            stepwise = [decode(part, basis) for part in apply_masks(encode(mixture, basis), m)]
            for est, ref, step in zip(estimates, separate_oracle(mixture, m, basis), stepwise, strict=True):
                assert est.sample_rate == ref.sample_rate == step.sample_rate == 8000
                assert np.array_equal(est.samples, ref.samples)
                assert np.array_equal(est.samples, step.samples)


@pytest.mark.parametrize("n_frames", [1, 5, BLOCK_FRAMES, BLOCK_FRAMES + 1, 3 * BLOCK_FRAMES - 1])
def test_frame_blocks_share_one_row_count(n_frames):
    """Every block of frames, a workers.spans slice, has min(T, BLOCK_FRAMES) rows, so each
    float64 matmul takes the BLAS path of the whole-array product. A 1-row tail (gemv)
    rounds differently in float64, which the float32 outputs compared by the equality
    test almost never reveal. The k-th block holds the rows of the job of start k * size."""
    blocks = list(spans(n_frames, BLOCK_FRAMES))
    size = min(n_frames, BLOCK_FRAMES)
    assert {b.stop - b.start for b in blocks} == {size}
    assert [b.start for b in blocks] == [min(k, n_frames - size) for k in range(0, n_frames, size)]
    covered = np.zeros(n_frames, dtype=bool)
    for b in blocks:
        covered[b] = True
    assert covered.all()
    assert blocks[-1].stop == n_frames


def test_separate_with_masks_checks_masks():
    basis = random_basis(4, 8, 4, seed=15)
    mixture = AudioBuffer(np.zeros(64, np.float32), 8000)
    n_frames = encode(mixture, basis).n_frames
    with pytest.raises(ValueError, match="masks must be"):
        separate_with_masks(mixture, np.ones((2, n_frames + 1, 4), np.float32), basis)
    mixture = AudioBuffer(np.ones(64, np.float32), 8000)
    with pytest.raises(ValueError, match="finite"):
        separate_with_masks(mixture, np.full((1, n_frames, 4), np.nan, np.float32), basis)


def test_separation_transient_memory_does_not_grow_with_length(monkeypatch):
    """Peak traced bytes beyond the returned masks and estimates, 2 s vs 8 s at 16 kHz.

    tracemalloc sees numpy's buffers. Whole-array float64 latents add about
    73 MB from 2 s to 8 s; blockwise evaluation holds one block of frames
    (plus its halo) per worker and grows by under 1 MB. The whole
    (S, T, kernel_len) synthesis frames would grow by only 3.1 MB, below the
    peak of oracle_masks, so test_oracle_separation_holds_no_synthesis_frames
    bounds them instead. Both lengths run on two usable CPUs: the buffers
    grow with the worker count, not with the length, and
    test_oracle_separation_holds_one_block_of_masks bounds them per worker.
    """
    cpus(monkeypatch, 2)
    basis = random_basis(128, 16, 8, seed=0)

    def transient_bytes(seconds):
        rng = np.random.default_rng(seconds)
        sources = [
            AudioBuffer(rng.uniform(-0.3, 0.3, seconds * 16000).astype(np.float32), 16000) for _ in range(2)
        ]
        mixture = AudioBuffer(sources[0].samples + sources[1].samples, 16000)
        tracemalloc.start()
        try:
            masks = oracle_masks(sources, basis)
            estimates = separate_with_masks(mixture, masks, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - masks.nbytes - sum(e.samples.nbytes for e in estimates)

    assert transient_bytes(8) - transient_bytes(2) <= 4e6


def test_oracle_separation_checks_sources():
    basis = mirrored_dct_basis(8)
    a = AudioBuffer(np.ones(80, np.float32), 8000)
    with pytest.raises(ValueError, match="need at least one source"):
        oracle_separation([], basis)
    with pytest.raises(ValueError, match=r"equal lengths, got \[72, 80\]"):
        oracle_separation([a, AudioBuffer(np.ones(72, np.float32), 8000)], basis)
    with pytest.raises(ValueError, match=r"sources disagree on sample rate: \[8000, 16000\]"):
        oracle_separation([a, AudioBuffer(np.ones(80, np.float32), 16000)], basis)
    with pytest.raises(ValueError, match="shorter than one kernel"):
        oracle_separation([AudioBuffer(np.ones(4, np.float32), 8000)] * 2, basis)


def test_oracle_separation_rejects_non_finite_source_encodings(monkeypatch):
    # finite float32 weights whose products overflow float32: the relu source
    # encodings, rounded once to float32, become inf. No caller np.errstate: on two
    # CPUs a block runs on a worker thread, which a caller's errstate would not reach,
    # and under warnings-as-errors a numpy overflow warning would raise there instead
    basis = EncoderBasis(np.full((2, 4), 3e38), np.ones((2, 4)), 4, "linear")
    for n_samples, n_cpus in ((16, 1), (4 * 3 * BLOCK_FRAMES, 2)):
        cpus(monkeypatch, n_cpus)
        sources = [AudioBuffer(np.full(n_samples, 0.5, np.float32), 8000)] * 2
        with pytest.raises(ValueError, match="source encodings must be finite"):
            oracle_separation(sources, basis)
    with pytest.raises(ValueError, match="matrix data must be finite"):  # the linear encoder
        encode(sources[0], basis)


def test_oracle_separation_holds_one_block_of_masks(monkeypatch):
    """Peak traced bytes of oracle_separation beyond its estimates, 2 sources of 8 s at 16 kHz.

    The whole (S, T, N) float32 masks are 16.4 MB here; masks built whole first,
    then applied, exceed them. The fused pass holds the float32 mixture (and,
    while AudioBuffer checks it, one byte per sample) and, per worker, the
    buffers of one block of frames plus its halo: 3.2 MB, since the
    whole-block product, the mask denominator and the synthesis input share
    one float64 buffer. So the bound
    is four blocks of masks (4.2 MB) per worker of this host, plus two: below
    the whole masks on one to three workers.
    """
    basis = random_basis(128, 16, 8, seed=0)
    rng = np.random.default_rng(8)
    n = 8 * 16000
    sources = [AudioBuffer(rng.uniform(-0.3, 0.3, n).astype(np.float32), 16000) for _ in range(2)]
    n_frames = (n - 16) // 8 + 1
    masks_nbytes = len(sources) * n_frames * 128 * 4
    workers = worker_count(n_frames, BLOCK_FRAMES)
    tracemalloc.start()
    try:
        estimates = oracle_separation(sources, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 5 * n + (4 * workers + 2) * masks_nbytes * BLOCK_FRAMES // n_frames
    assert peak - sum(e.samples.nbytes for e in estimates) < bound


PARALLEL_BASES = {
    "stride-8": random_basis(128, 16, 8, seed=16),  # the CLI's default basis shape
    "stride-1": random_basis(32, 16, 1, seed=17),  # a halo of 15 frames
    "stride-5": random_basis(24, 16, 5, seed=18),  # a stride that does not divide L
    "stride-16": random_basis(64, 16, 16, seed=19),  # stride == L: no halo
}


def bits(buffers):
    return [b.samples.view(np.int32) for b in buffers]


@pytest.mark.parametrize("kind", sorted(PARALLEL_BASES))
def test_parallel_pass_is_bit_identical_for_any_cpu_count(monkeypatch, kind):
    basis = PARALLEL_BASES[kind]
    rng = np.random.default_rng(20)
    frame_counts = [k * BLOCK_FRAMES + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    cases = []
    for n_frames in frame_counts:
        n = (n_frames - 1) * basis.stride + basis.kernel_len
        sources = [AudioBuffer(rng.uniform(-0.5, 0.5, n).astype(np.float32), 8000) for _ in range(2)]
        mixture = AudioBuffer(sources[0].samples + sources[1].samples, 8000)
        masks = oracle_masks_oracle(sources, basis)
        latent = encode_oracle(mixture, basis)
        want = bits(separate_oracle(mixture, masks, basis))
        cases.append((sources, mixture, masks, latent, want, bits([decode_oracle(latent, basis)])))
    interval = sys.getswitchinterval()
    for n_cpus in (1, 2, 4):
        cpus(monkeypatch, n_cpus)
        started = count_thread_starts(monkeypatch)
        sys.setswitchinterval(1e-5)  # switch threads often, so overlapping writes would show
        try:
            for sources, mixture, masks, latent, want, want_decoded in cases:
                for got in (oracle_separation(sources, basis), separate_with_masks(mixture, masks, basis)):
                    for g, w in zip(bits(got), want, strict=True):
                        np.testing.assert_array_equal(g, w)
                np.testing.assert_array_equal(bits([decode(latent, basis)])[0], want_decoded[0])
        finally:
            sys.setswitchinterval(interval)
        blocks = [-(-n_frames // BLOCK_FRAMES) for n_frames in frame_counts]
        assert len(started) == 3 * sum(min(n_cpus, b) - 1 for b in blocks), n_cpus


@pytest.mark.parametrize("n_frames", [k * BLOCK_FRAMES + d for k in (1, 3) for d in (-1, 1)])
@pytest.mark.parametrize("kind", ["stride-1", "stride-8"])
def test_on_masks_writes_the_masks_file_of_oracle_masks(monkeypatch, tmp_path, kind, n_frames):
    """Each frame's masks reach on_masks once, without halo or overlap rows, so the
    blocks written at their offsets give the file of the whole oracle_masks array."""
    basis = PARALLEL_BASES[kind]
    rng = np.random.default_rng(n_frames)
    n = (n_frames - 1) * basis.stride + basis.kernel_len
    sources = [AudioBuffer(rng.uniform(-0.5, 0.5, n).astype(np.float32), 8000) for _ in range(2)]
    rate = 8000 / basis.stride
    expected = tmp_path / "expected.sslf"
    write_feature_stack(FeatureStack(oracle_masks(sources, basis), rate), expected)
    for n_cpus in (1, 2, 4):
        cpus(monkeypatch, n_cpus)
        path = tmp_path / f"masks-{n_cpus}.sslf"
        seen = np.zeros(n_frames, dtype=int)
        lock = threading.Lock()
        with sslf_writer(path, masks_shape(sources, basis), rate) as write:

            def on_masks(start, masks):
                with lock:
                    seen[start : start + masks.shape[1]] += 1
                write(start, masks)

            oracle_separation(sources, basis, on_masks)
        assert (seen == 1).all(), n_cpus
        assert path.read_bytes() == expected.read_bytes(), n_cpus


def test_worker_error_reaches_the_caller_after_every_thread_joins(monkeypatch):
    cpus(monkeypatch, 4)
    basis = random_basis(16, 8, 4, seed=21)
    n_frames = 6 * BLOCK_FRAMES
    mixture = AudioBuffer(np.ones((n_frames - 1) * 4 + 8, np.float32), 8000)
    masks = np.ones((2, n_frames, 16), np.float32)
    masks[1, 4 * BLOCK_FRAMES + 7, 3] = np.nan  # in block 4
    before = threading.active_count()
    started = count_thread_starts(monkeypatch)
    with pytest.raises(ValueError, match="masked latent must be finite"):
        separate_with_masks(mixture, masks, basis)
    assert len(started) == 3
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


@pytest.mark.parametrize("n_sources", [1, 2, 3])
def test_mixture_equals_numpy_sum_bit_for_bit(n_sources):
    rng = np.random.default_rng(n_sources)
    # magnitudes far apart, so that another summation order would round differently
    scales = rng.choice([1e-8, 1e-3, 1.0, 1e4, 1e8], size=(n_sources, 4096))
    samples = (rng.standard_normal((n_sources, 4096)) * scales).astype(np.float32)
    samples[:, :3] = [-0.0, 0.0, -0.0]
    mixture = _mixture([AudioBuffer(row, 16000) for row in samples])
    assert mixture.sample_rate == 16000
    np.testing.assert_array_equal(mixture.samples.view(np.int32), np.sum(samples, axis=0).view(np.int32))


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_oracle_separation_holds_no_synthesis_frames(monkeypatch, n_cpus):
    """Peak traced bytes of oracle_separation beyond its estimates, 2 sources of 60 s at 16 kHz.

    The (S, T, kernel_len) float64 synthesis frames of the whole input would be
    30.7 MB here. The pass holds the float32 mixture (3.8 MB) and the buffers
    of one block of frames, with its halo, per worker: 3.2 MB at N=128.
    """
    cpus(monkeypatch, n_cpus)
    basis = random_basis(128, 16, 8, seed=0)
    rng = np.random.default_rng(22)
    sources = [AudioBuffer(rng.uniform(-0.3, 0.3, 60 * 16000).astype(np.float32), 16000) for _ in range(2)]
    frames_nbytes = len(sources) * ((60 * 16000 - 16) // 8 + 1) * 16 * 8
    tracemalloc.start()
    try:
        estimates = oracle_separation(sources, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(e.samples.nbytes for e in estimates) < frames_nbytes


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_each_estimate_sample_is_checked_once(monkeypatch, n_cpus):
    # each job checks the samples it writes, not its halo or the frames it shares with
    # the block before; the mixture is checked once (a float32 sum of finite library
    # sources may overflow)
    cpus(monkeypatch, n_cpus)
    basis = PARALLEL_BASES["stride-8"]
    n = 3 * BLOCK_FRAMES * 8 + 16
    rng = np.random.default_rng(25)
    sources = [AudioBuffer(rng.uniform(-0.5, 0.5, n).astype(np.float32), 8000) for _ in range(2)]
    mixture = _mixture(sources)
    latent = encode(mixture, basis)
    seen = count_checks(monkeypatch)
    estimates = oracle_separation(sources, basis)
    assert seen["audio samples"] == n + sum(len(e) for e in estimates)
    seen.clear()
    assert len(decode(latent, basis)) == n
    assert seen == {"audio samples": n}


def test_samples_beyond_float32_are_reported_after_every_job(monkeypatch):
    cpus(monkeypatch, 4)
    # finite float32 weights whose sums overflow float32: every sample rounds to inf
    basis = EncoderBasis(np.eye(4, 8), np.full((4, 8), 3e38), 4, "linear")
    n_frames = 6 * BLOCK_FRAMES
    mixture = AudioBuffer(np.full((n_frames - 1) * 4 + 8, 0.5, np.float32), 8000)
    masks = np.ones((2, n_frames, 4), np.float32)
    with pytest.raises(ValueError, match="audio samples must be finite"):
        separate_with_masks(mixture, masks, basis)
    with pytest.raises(ValueError, match="audio samples must be finite"):
        decode(encode(mixture, basis), basis)
    masks[1, 4 * BLOCK_FRAMES + 7, 3] = np.nan  # in block 4: its error wins over the overflow in blocks 0-3
    with pytest.raises(ValueError, match="masked latent must be finite"):
        separate_with_masks(mixture, masks, basis)
    big = AudioBuffer(np.full(64, 3e38, np.float32), 8000)
    with pytest.raises(ValueError, match="audio samples must be finite"):  # the mixture's sum
        oracle_separation([big, big], mirrored_dct_basis(8))
    with pytest.raises(ValueError, match="sample_rate must be positive, got 0"):
        decode(FeatureMatrix(np.ones((6, 4), np.float32), 0.1), random_basis(4, 8, 4, seed=5))


def in_fresh_interpreters(script, *argv):
    """Run ``script`` with ``argv`` and the usable CPU count last, in a fresh interpreter per
    setting: OPENBLAS_NUM_THREADS=1 (the CLI's pool) and unset (a pool of one thread per
    CPU), on 1 and 2 usable CPUs. OpenBLAS reads the variable as numpy loads. Return
    each run's stdout by setting."""
    outputs = {}
    for env in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        for n_cpus in (1, 2):
            child = fresh_python(script, *argv, str(n_cpus), env=env)
            assert (child.returncode, child.stderr) == (0, ""), (env, n_cpus)
            outputs[str(env), n_cpus] = child.stdout
    return outputs


def test_bits_do_not_depend_on_cpu_count_or_openblas_pool(monkeypatch, tmp_path):
    # one whole-block product per step on any pool: OpenBLAS splits a product over its
    # rows and columns, not over the sum, so its threads do not change the bits
    basis = PARALLEL_BASES["stride-8"]
    n = (3 * BLOCK_FRAMES + 1) * 8 + 16
    rng = np.random.default_rng(26)
    sources = [AudioBuffer(rng.uniform(-0.5, 0.5, n).astype(np.float32), 8000) for _ in range(2)]
    mixture = AudioBuffer(sources[0].samples + sources[1].samples, 8000)
    masks = oracle_masks_oracle(sources, basis)
    latent = encode_oracle(mixture, basis)
    np.save(tmp_path / "sources.npy", np.stack([s.samples for s in sources]))
    np.save(tmp_path / "masks.npy", masks)
    np.save(tmp_path / "latent.npy", latent.data)
    script = (
        "import hashlib, os, sys\n"
        "import numpy as np\n"
        "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))\n"
        "from diarsep import AudioBuffer, FeatureMatrix, oracle_separation, random_basis\n"
        "from diarsep.tasnet import decode, separate_with_masks\n"
        "d = sys.argv[1]\n"
        "basis = random_basis(128, 16, 8, seed=16)\n"
        "sources = [AudioBuffer(row, 8000) for row in np.load(f'{d}/sources.npy')]\n"
        "mixture = AudioBuffer(sources[0].samples + sources[1].samples, 8000)\n"
        "masks = np.load(f'{d}/masks.npy')\n"
        "estimates = oracle_separation(sources, basis) + separate_with_masks(mixture, masks, basis)\n"
        "estimates.append(decode(FeatureMatrix(np.load(f'{d}/latent.npy'), 1000.0), basis))\n"
        "for e in estimates:\n"
        "    print(hashlib.sha256(e.samples.tobytes()).hexdigest())\n"
    )
    want = bits(separate_oracle(mixture, masks, basis)) * 2 + bits([decode_oracle(latent, basis)])
    want = "".join(hashlib.sha256(w.tobytes()).hexdigest() + "\n" for w in want)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    for setting, got in in_fresh_interpreters(script, str(tmp_path)).items():
        assert got == want, setting


def test_products_run_whole_block_on_any_blas_pool(monkeypatch):
    # per block of frames: one encode product per source, one for the mixture and one
    # synthesis product per source; block 0 has no halo frame before it
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    script = (
        "import os, sys\n"
        "import numpy as np\n"
        "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
        "from diarsep import AudioBuffer, oracle_separation, random_basis\n"
        "rows, matmul = [], np.matmul\n"
        "def counting(a, b, out):\n"
        "    rows.append(len(a))\n"
        "    return matmul(a, b, out=out)\n"
        "np.matmul = counting\n"
        "n = (2 * 1024 + 5 - 1) * 8 + 16\n"
        "rng = np.random.default_rng(27)\n"
        "sources = [AudioBuffer(rng.uniform(-0.5, 0.5, n).astype(np.float32), 8000) for _ in range(2)]\n"
        "oracle_separation(sources, random_basis(128, 16, 8, seed=16))\n"
        "print(sorted(rows))\n"
    )
    assert BLOCK_FRAMES == 1024
    want = f"{5 * [BLOCK_FRAMES] + 10 * [BLOCK_FRAMES + 1]}\n"
    for setting, got in in_fresh_interpreters(script).items():
        assert got == want, setting
