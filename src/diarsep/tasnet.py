"""Inference-only TasNet skeleton: strided-conv encoder, latent masking, overlap-add decoder.

No masking network lives here; masks come from files or from oracle ratios of
per-source encodings.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .features import FeatureMatrix, FeatureStack, check_finite

DEFAULT_EPS = 1e-8
# frames per block: a block's float64 windows and latent, 1024 x (16 + 128) x 8 B = 1.2 MB
# at L=16, N=128, fit a 2 MB L2 cache (on a 2-vCPU Xeon with 2 MB L2 per core, 60 s of
# 2-source separation ran fastest at 512-1024 of the sizes 256-4096)
BLOCK_FRAMES = 1024
NONLINEARITIES = ("relu", "linear")


@dataclass(frozen=True)
class EncoderBasis:
    """Analysis/synthesis filterbanks of shape (n_filters, kernel_len) plus hop and nonlinearity."""

    analysis: np.ndarray
    synthesis: np.ndarray
    stride: int
    nonlinearity: str = "relu"

    def __post_init__(self):
        analysis = np.asarray(self.analysis, dtype=np.float32)
        synthesis = np.asarray(self.synthesis, dtype=np.float32)
        if analysis.ndim != 2 or analysis.shape[0] < 1:
            raise ValueError(f"analysis must be (n_filters, kernel_len), got {analysis.shape}")
        if synthesis.shape != analysis.shape:
            raise ValueError(f"synthesis shape {synthesis.shape} != analysis shape {analysis.shape}")
        check_finite(analysis, "analysis weights")
        check_finite(synthesis, "synthesis weights")
        if not 1 <= self.stride <= analysis.shape[1]:
            raise ValueError(f"stride must be in [1, {analysis.shape[1]}], got {self.stride}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}, got {self.nonlinearity!r}")
        object.__setattr__(self, "analysis", analysis)
        object.__setattr__(self, "synthesis", synthesis)
        object.__setattr__(self, "stride", int(self.stride))

    @property
    def n_filters(self) -> int:
        return self.analysis.shape[0]

    @property
    def kernel_len(self) -> int:
        return self.analysis.shape[1]


def _frame_count(x: np.ndarray, basis: EncoderBasis) -> int:
    if x.size < basis.kernel_len:
        raise ValueError(f"audio ({x.size} samples) shorter than one kernel ({basis.kernel_len})")
    return (x.size - basis.kernel_len) // basis.stride + 1


def _frame_blocks(n_frames: int):
    """Slices of min(n_frames, BLOCK_FRAMES) frames covering range(n_frames).

    The last block ends at n_frames and may overlap the one before it, so every
    matmul has the same row count: BLAS may take another kernel for a short
    tail (a single row goes to gemv), which rounds differently from the
    whole-array product.
    """
    size = min(n_frames, BLOCK_FRAMES)
    for start in range(0, n_frames, size):
        start = min(start, n_frames - size)
        yield slice(start, start + size)


def _latent_blocks(x: np.ndarray, basis: EncoderBasis):
    """Yield (frame slice, float32 latent block) with latent[t] = g(analysis @ window(t)).

    Each block is computed in float64 and rounded once to float32, as a
    whole-array encode would; only blocks of frames are held at a time.
    """
    windows = sliding_window_view(x, basis.kernel_len)[:: basis.stride]
    analysis_t = basis.analysis.T.astype(np.float64)
    for block in _frame_blocks(len(windows)):
        latent = windows[block].astype(np.float64) @ analysis_t
        if basis.nonlinearity == "relu":
            np.maximum(latent, 0.0, out=latent)
        # rebound before the yield, so a waiting generator holds no float64 block
        latent = latent.astype(np.float32)
        yield block, latent


def _masks_array(masks, n_frames: int, n_filters: int) -> np.ndarray:
    m = np.asarray(masks, dtype=np.float32)
    if m.ndim != 3 or m.shape[1:] != (n_frames, n_filters):
        raise ValueError(f"masks must be (n_sources, {n_frames}, {n_filters}), got {m.shape}")
    return m


def _overlap_add(frames: np.ndarray, basis: EncoderBasis, frame_rate: float) -> AudioBuffer:
    """Sum synthesis frames (T, kernel_len) placed at t * stride, in float64."""
    n_frames = len(frames)
    out = np.zeros((n_frames - 1) * basis.stride + basis.kernel_len, dtype=np.float64)
    for k in range(basis.kernel_len):
        out[k : k + n_frames * basis.stride : basis.stride] += frames[:, k]
    return AudioBuffer(out.astype(np.float32), round(frame_rate * basis.stride))


def encode(audio: AudioBuffer, basis: EncoderBasis) -> FeatureMatrix:
    """Strided sliding-window analysis: out[t] = g(analysis @ window(t)).

    T = floor((len - kernel_len) / stride) + 1 frames; g is relu or identity.
    """
    latent = np.empty((_frame_count(audio.samples, basis), basis.n_filters), dtype=np.float32)
    for block, values in _latent_blocks(audio.samples, basis):
        latent[block] = values
    return FeatureMatrix(latent, audio.sample_rate / basis.stride)


def apply_masks(latent: FeatureMatrix, masks) -> list[FeatureMatrix]:
    """Elementwise per-source masking: out_s[t, n] = latent[t, n] * masks[s, t, n]."""
    m = _masks_array(masks, latent.n_frames, latent.dim)
    return [FeatureMatrix(latent.data * m[s], latent.frame_rate) for s in range(m.shape[0])]


def decode(latent: FeatureMatrix, basis: EncoderBasis) -> AudioBuffer:
    """Transposed-conv synthesis by overlap-add of synthesis^T @ latent[t] at t * stride.

    Output length is (T - 1) * stride + kernel_len.
    """
    synthesis = basis.synthesis.astype(np.float64)
    frames = np.empty((latent.n_frames, basis.kernel_len), dtype=np.float64)
    for block in _frame_blocks(latent.n_frames):
        np.matmul(latent.data[block].astype(np.float64), synthesis, out=frames[block])
    return _overlap_add(frames, basis, latent.frame_rate)


def _check_sources(sources: list[AudioBuffer]) -> None:
    if not sources:
        raise ValueError("need at least one source")
    rates = {s.sample_rate for s in sources}
    if len(rates) != 1:
        raise ValueError(f"sources disagree on sample rate: {sorted(rates)}")
    lengths = {len(s) for s in sources}
    if len(lengths) != 1:
        raise ValueError(f"sources must have equal lengths, got {sorted(lengths)}")


def _mask_blocks(sources: list[AudioBuffer], basis: EncoderBasis):
    """Yield (frame slice, float32 (S, frames, N) block) of oracle ratio masks.

    Each block is computed from relu source encodings in float64 and rounded
    once to float32, as a whole-array evaluation would.
    """
    relu_basis = replace(basis, nonlinearity="relu")
    for parts in zip(*(_latent_blocks(s.samples, relu_basis) for s in sources)):
        yield parts[0][0], _ratio_masks([latent for _, latent in parts])


def _ratio_masks(encodings: list[np.ndarray]) -> np.ndarray:
    """float32 enc_s / (sum_j enc_j + DEFAULT_EPS), clipped to [0, 1], from float32 source encodings."""
    ratio = np.array(encodings, dtype=np.float64)
    check_finite(ratio, "source encodings")
    denominator = ratio.sum(axis=0)
    denominator += DEFAULT_EPS
    ratio /= denominator
    np.clip(ratio, 0.0, 1.0, out=ratio)
    return ratio.astype(np.float32)


def _separate_blocks(mixture: AudioBuffer, mask_blocks, n_sources: int, basis: EncoderBasis) -> list[AudioBuffer]:
    """Mask each latent block of the mixture with the matching (S, frames, N) mask block, then decode.

    ``mask_blocks`` yields (frame slice, mask block) over ``_frame_blocks`` of the
    mixture's frame count; when it is a generator, one block of masks is alive at a time.
    """
    synthesis = basis.synthesis.astype(np.float64)
    frames = np.empty((n_sources, _frame_count(mixture.samples, basis), basis.kernel_len), dtype=np.float64)
    for (block, latent), (_, masks) in zip(_latent_blocks(mixture.samples, basis), mask_blocks, strict=True):
        for s in range(n_sources):
            # a non-finite latent makes the masked latent non-finite too
            masked = latent * masks[s]
            check_finite(masked, "masked latent")
            np.matmul(masked.astype(np.float64), synthesis, out=frames[s, block])
    frame_rate = mixture.sample_rate / basis.stride
    return [_overlap_add(source_frames, basis, frame_rate) for source_frames in frames]


def oracle_masks(sources: list[AudioBuffer], basis: EncoderBasis) -> np.ndarray:
    """Ratio masks from per-source relu encodings.

    mask[s, t, n] = enc(source_s)[t, n] / (sum_j enc(source_j)[t, n] + DEFAULT_EPS),
    clipped to [0, 1]. Sources must share one sample rate and one length.
    """
    _check_sources(sources)
    n_frames = _frame_count(sources[0].samples, basis)
    masks = np.empty((len(sources), n_frames, basis.n_filters), dtype=np.float32)
    for block, values in _mask_blocks(sources, basis):
        masks[:, block] = values
    return masks


def separate_with_masks(mixture: AudioBuffer, masks, basis: EncoderBasis) -> list[AudioBuffer]:
    """Encode the mixture, apply per-source masks, decode each source.

    Equal to decode(m, basis) for m in apply_masks(encode(mixture, basis), masks),
    computed block by block without the whole latent.
    """
    m = _masks_array(masks, _frame_count(mixture.samples, basis), basis.n_filters)
    mask_blocks = ((block, m[:, block]) for block in _frame_blocks(m.shape[1]))
    return _separate_blocks(mixture, mask_blocks, m.shape[0], basis)


def oracle_separation(sources: list[AudioBuffer], basis: EncoderBasis) -> list[AudioBuffer]:
    """Separate the sum of ``sources`` with their oracle ratio masks, one block of masks at a time.

    Equal to separate_with_masks(mixture, oracle_masks(sources, basis), basis)
    for the float32 sum ``mixture`` of the sources, without the (S, T, N) masks.
    """
    _check_sources(sources)
    mixture = AudioBuffer(np.sum([s.samples for s in sources], axis=0), sources[0].sample_rate)
    return _separate_blocks(mixture, _mask_blocks(sources, basis), len(sources), basis)


def random_basis(
    n_filters: int,
    kernel_len: int,
    stride: int,
    seed: int,
    nonlinearity: str = "relu",
) -> EncoderBasis:
    """Seeded Gaussian analysis with least-squares synthesis (pseudo-inverse)."""
    rng = np.random.default_rng(seed)
    analysis = rng.standard_normal((n_filters, kernel_len)) / np.sqrt(kernel_len)
    synthesis = np.linalg.pinv(analysis).T
    return EncoderBasis(analysis, synthesis, stride, nonlinearity)


def mirrored_dct_basis(kernel_len: int, stride: int | None = None, nonlinearity: str = "relu") -> EncoderBasis:
    """Orthonormal DCT rows stacked with their negations: 2 * kernel_len filters.

    With relu, positive and negative projections land in separate filters, so
    synthesis^T @ relu(analysis @ x) reconstructs x exactly; handy for
    deterministic oracle-mask experiments.
    """
    if kernel_len < 1:
        raise ValueError(f"kernel_len must be >= 1, got {kernel_len}")
    # orthonormal DCT-II: q[k, n] = s_k cos(pi k (2n + 1) / 2L), s_0 = sqrt(1/L), s_k = sqrt(2/L)
    # for k > 0; an odd multiple of pi/2 is set to exactly 0, where np.cos leaves ~1e-16
    k = np.arange(kernel_len)[:, None]
    m = k * (2 * np.arange(kernel_len) + 1)
    scale = np.where(k == 0, np.sqrt(1.0 / kernel_len), np.sqrt(2.0 / kernel_len))
    q = scale * np.cos(np.pi * m / (2 * kernel_len))
    q[m % (2 * kernel_len) == kernel_len] = 0.0
    bank = np.vstack([q, -q])
    return EncoderBasis(bank, bank, kernel_len if stride is None else stride, nonlinearity)


def basis_to_stack(basis: EncoderBasis) -> FeatureStack:
    """Pack a basis as an SSLF-compatible stack: layer 0 analysis, layer 1 synthesis."""
    return FeatureStack(np.stack([basis.analysis, basis.synthesis]), frame_rate=1.0)


def basis_from_stack(stack: FeatureStack, stride: int, nonlinearity: str = "relu") -> EncoderBasis:
    """Unpack a 2-layer stack (analysis, synthesis) into an EncoderBasis."""
    if stack.n_layers != 2:
        raise ValueError(f"basis stack must have 2 layers (analysis, synthesis), got {stack.n_layers}")
    return EncoderBasis(stack.data[0], stack.data[1], stride, nonlinearity)
