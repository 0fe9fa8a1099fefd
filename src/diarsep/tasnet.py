"""Inference-only TasNet skeleton: strided-conv encoder, latent masking, overlap-add decoder.

No masking network lives here; masks come from files or from oracle ratios of
per-source encodings.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .features import FeatureMatrix, FeatureStack

DEFAULT_EPS = 1e-8
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
        if not (np.all(np.isfinite(analysis)) and np.all(np.isfinite(synthesis))):
            raise ValueError("basis weights must be finite")
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


def encode(audio: AudioBuffer, basis: EncoderBasis) -> FeatureMatrix:
    """Strided sliding-window analysis: out[t] = g(analysis @ window(t)).

    T = floor((len - kernel_len) / stride) + 1 frames; g is relu or identity.
    """
    x = audio.samples
    if x.size < basis.kernel_len:
        raise ValueError(f"audio ({x.size} samples) shorter than one kernel ({basis.kernel_len})")
    frames = sliding_window_view(x, basis.kernel_len)[:: basis.stride]
    latent = frames.astype(np.float64) @ basis.analysis.T.astype(np.float64)
    if basis.nonlinearity == "relu":
        latent = np.maximum(latent, 0.0)
    return FeatureMatrix(latent.astype(np.float32), audio.sample_rate / basis.stride)


def apply_masks(latent: FeatureMatrix, masks) -> list[FeatureMatrix]:
    """Elementwise per-source masking: out_s[t, n] = latent[t, n] * masks[s, t, n]."""
    m = np.asarray(masks, dtype=np.float32)
    if m.ndim != 3 or m.shape[1:] != latent.data.shape:
        raise ValueError(f"masks must be (n_sources, {latent.n_frames}, {latent.dim}), got {m.shape}")
    return [FeatureMatrix(latent.data * m[s], latent.frame_rate) for s in range(m.shape[0])]


def decode(latent: FeatureMatrix, basis: EncoderBasis) -> AudioBuffer:
    """Transposed-conv synthesis by overlap-add of synthesis^T @ latent[t] at t * stride.

    Output length is (T - 1) * stride + kernel_len.
    """
    frames = latent.data.astype(np.float64) @ basis.synthesis.astype(np.float64)
    n_frames = latent.n_frames
    out = np.zeros((n_frames - 1) * basis.stride + basis.kernel_len, dtype=np.float64)
    for k in range(basis.kernel_len):
        out[k : k + n_frames * basis.stride : basis.stride] += frames[:, k]
    sample_rate = round(latent.frame_rate * basis.stride)
    return AudioBuffer(out.astype(np.float32), sample_rate)


def oracle_masks(sources: list[AudioBuffer], basis: EncoderBasis, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Ratio masks from per-source relu encodings.

    mask[s, t, n] = enc(source_s)[t, n] / (sum_j enc(source_j)[t, n] + eps),
    clipped to [0, 1]. Sources must share one length.
    """
    if not sources:
        raise ValueError("need at least one source")
    lengths = {len(s) for s in sources}
    if len(lengths) != 1:
        raise ValueError(f"sources must have equal lengths, got {sorted(lengths)}")
    relu_basis = replace(basis, nonlinearity="relu")
    encodings = np.stack([encode(s, relu_basis).data.astype(np.float64) for s in sources])
    denom = encodings.sum(axis=0) + eps
    return np.clip(encodings / denom, 0.0, 1.0).astype(np.float32)


def separate_with_masks(mixture: AudioBuffer, masks, basis: EncoderBasis) -> list[AudioBuffer]:
    """Encode the mixture, apply per-source masks, decode each source."""
    latent = encode(mixture, basis)
    return [decode(masked, basis) for masked in apply_masks(latent, masks)]


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
    # imported here, not at module level: only this basis needs a DCT
    from scipy.fft import dct

    q = dct(np.eye(kernel_len), norm="ortho", axis=0)
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
