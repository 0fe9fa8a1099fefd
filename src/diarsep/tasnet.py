"""Inference-only TasNet skeleton: strided-conv encoder, latent masking, overlap-add decoder.

No masking network lives here; masks come from files or from oracle ratios of
per-source encodings.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .features import FeatureMatrix, FeatureStack, check_finite
from .workers import Scratch, run_blocks, spans

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


def check_kernel_fits(n_samples: int, kernel_len: int) -> None:
    """Raise ValueError when audio of n_samples holds no whole analysis window."""
    if n_samples < kernel_len:
        raise ValueError(f"audio ({n_samples} samples) shorter than one kernel ({kernel_len})")


def _windows(x: np.ndarray, basis: EncoderBasis) -> np.ndarray:
    """Strided (T, kernel_len) view of the analysis windows of x."""
    check_kernel_fits(x.size, basis.kernel_len)
    return sliding_window_view(x, basis.kernel_len)[:: basis.stride]


def _encode_rows(windows, analysis_t, relu: bool, rows: slice, scratch: Scratch, out) -> None:
    """Write float32 g(analysis @ window(t)) for the frames t in ``rows`` into ``out``.

    One float64 product of all the rows, rounded once to float32, as a
    whole-array encode would.
    """
    w = scratch.get("windows", (rows.stop - rows.start, windows.shape[1]))
    np.copyto(w, windows[rows])
    product = scratch.get("float64", (len(w), analysis_t.shape[1]))
    np.matmul(w, analysis_t, out=product)
    # a product beyond float32 range rounds to inf, which the caller's check_finite
    # reports; errstate is per thread, so a caller's setting would miss pool workers
    with np.errstate(over="ignore"):
        if relu:
            np.maximum(product, 0.0, out=out, casting="same_kind")
        else:
            np.copyto(out, product, casting="same_kind")


def _oracle_mask_rows(source_windows, analysis_t, rows: slice, scratch: Scratch, out) -> None:
    """Write the float32 (S, frames, N) oracle ratio masks of the frames in ``rows`` into ``out``.

    out[s] = enc_s / (sum_j enc_j + DEFAULT_EPS), clipped to [0, 1], from the
    float32 relu source encodings: the sum (in source order) and the ratio in
    float64, rounded once to float32. Clipping after that rounding gives what
    clipping before it would: rounding is monotonic and keeps 0 and 1.
    """
    for w, encoding in zip(source_windows, out, strict=True):
        _encode_rows(w, analysis_t, True, rows, scratch, encoding)
    check_finite(out, "source encodings")
    denominator = scratch.get("float64", out.shape[1:])  # the encode products are done
    np.copyto(denominator, out[0])
    for encoding in out[1:]:
        denominator += encoding
    denominator += DEFAULT_EPS
    for encoding in out:
        np.divide(encoding, denominator, out=encoding, casting="same_kind")
        np.clip(encoding, 0.0, 1.0, out=encoding)


def _masks_array(masks, n_frames: int, n_filters: int) -> np.ndarray:
    m = np.asarray(masks, dtype=np.float32)
    if m.ndim != 3 or m.shape[1:] != (n_frames, n_filters):
        raise ValueError(f"masks must be (n_sources, {n_frames}, {n_filters}), got {m.shape}")
    return m


def _synthesize(
    masked_rows, n_sources: int, n_frames: int, basis: EncoderBasis, frame_rate: float
) -> list[AudioBuffer]:
    """Overlap-add synthesis^T @ latent[t] at t * stride for each source's masked latent.

    ``masked_rows(rows, start, scratch)`` returns the (S, frames, N) float32
    masked latents of the frame slice ``rows``; the job owns frames
    [start, rows.stop). Each ``workers.spans`` block of frames is one job of
    ``workers.run_blocks``: it also takes the ceil(kernel_len / stride) - 1
    frames before the block as a halo, synthesises each source in one
    float64 product, adds the taps k = 0..kernel_len-1 in ascending order
    from 0.0, and writes the samples whose latest frame starts in the block
    (the last block also the tail) into the float32 outputs. So every
    sample sums the same terms in the same order as one whole-array
    overlap-add, whatever the thread count. Each job checks the samples it
    writes; a non-finite one is reported once every job has finished, so
    an error that a job raises takes precedence.
    """
    stride, kernel_len = basis.stride, basis.kernel_len
    rate = round(frame_rate * stride)
    size = min(n_frames, BLOCK_FRAMES)
    blocks = list(spans(n_frames, size))
    halo = -(-kernel_len // stride) - 1
    synthesis = basis.synthesis.astype(np.float64)
    n_out = (n_frames - 1) * stride + kernel_len
    outputs = [np.empty(n_out, dtype=np.float32) for _ in range(n_sources)]
    scratch = Scratch()
    non_finite = []

    def job(start):
        block = blocks[start // size]
        rows = slice(max(0, block.start - halo), block.stop)
        offset = rows.start * stride
        first, last = start * stride, (block.stop * stride if block.stop < n_frames else n_out)
        masked = masked_rows(rows, start, scratch)
        n_rows = masked.shape[1]
        # masked_rows is done with its float64 products, and the mask denominator
        latent = scratch.get("float64", masked.shape[1:])
        frames = scratch.get("frames", (n_rows, kernel_len))
        # span[row, r] is sample offset + row * stride + r; tap k = q * stride + r of
        # frame t lands in row t + q, so adding q = 0, 1, ... adds each sample's taps
        # in ascending k
        span = scratch.get("span", (n_rows + halo, stride))
        for out, m in zip(outputs, masked, strict=True):
            np.copyto(latent, m)
            np.matmul(latent, synthesis, out=frames)
            span.fill(0.0)
            for q in range(halo + 1):
                taps = frames[:, q * stride : (q + 1) * stride]
                span[q : q + n_rows, : taps.shape[1]] += taps
            # a sample beyond float32 range rounds to inf, which the check reports;
            # errstate is per thread, so a caller's setting would miss pool workers
            with np.errstate(over="ignore"):
                out[first:last] = span.reshape(-1)[first - offset : last - offset]
            try:
                check_finite(out[first:last], "audio samples")
            except ValueError as exc:
                non_finite.append(exc)

    run_blocks(job, n_frames, size)
    if non_finite:
        raise non_finite[0]
    if rate < 1:
        raise ValueError(f"sample_rate must be positive, got {rate}")
    return [AudioBuffer._from_samples(out, rate) for out in outputs]


def encode(audio: AudioBuffer, basis: EncoderBasis) -> FeatureMatrix:
    """Strided sliding-window analysis: out[t] = g(analysis @ window(t)).

    T = floor((len - kernel_len) / stride) + 1 frames; g is relu or identity.
    """
    windows = _windows(audio.samples, basis)
    analysis_t = basis.analysis.T.astype(np.float64)
    relu = basis.nonlinearity == "relu"
    scratch = Scratch()
    latent = np.empty((len(windows), basis.n_filters), dtype=np.float32)
    for block in spans(len(windows), BLOCK_FRAMES):
        _encode_rows(windows, analysis_t, relu, block, scratch, latent[block])
    return FeatureMatrix(latent, audio.sample_rate / basis.stride)


def apply_masks(latent: FeatureMatrix, masks) -> list[FeatureMatrix]:
    """Elementwise per-source masking: out_s[t, n] = latent[t, n] * masks[s, t, n]."""
    m = _masks_array(masks, latent.n_frames, latent.dim)
    return [FeatureMatrix(latent.data * m[s], latent.frame_rate) for s in range(m.shape[0])]


def decode(latent: FeatureMatrix, basis: EncoderBasis) -> AudioBuffer:
    """Transposed-conv synthesis by overlap-add of synthesis^T @ latent[t] at t * stride.

    Output length is (T - 1) * stride + kernel_len.
    """
    if latent.dim != basis.n_filters:
        raise ValueError(f"latent dim {latent.dim} != basis n_filters {basis.n_filters}")
    (out,) = _synthesize(
        lambda rows, start, scratch: latent.data[None, rows], 1, latent.n_frames, basis, latent.frame_rate
    )
    return out


def _check_sources(sources: list[AudioBuffer]) -> None:
    if not sources:
        raise ValueError("need at least one source")
    rates = {s.sample_rate for s in sources}
    if len(rates) != 1:
        raise ValueError(f"sources disagree on sample rate: {sorted(rates)}")
    lengths = {len(s) for s in sources}
    if len(lengths) != 1:
        raise ValueError(f"sources must have equal lengths, got {sorted(lengths)}")


def masks_shape(sources: list[AudioBuffer], basis: EncoderBasis) -> tuple[int, int, int]:
    """The (S, T, N) shape of oracle_masks(sources, basis), after its checks of the sources."""
    _check_sources(sources)
    return len(sources), len(_windows(sources[0].samples, basis)), basis.n_filters


def oracle_masks(sources: list[AudioBuffer], basis: EncoderBasis) -> np.ndarray:
    """Ratio masks from per-source relu encodings.

    mask[s, t, n] = enc(source_s)[t, n] / (sum_j enc(source_j)[t, n] + DEFAULT_EPS),
    clipped to [0, 1]. Sources must share one sample rate and one length.
    """
    masks = np.empty(masks_shape(sources, basis), dtype=np.float32)
    windows = [_windows(s.samples, basis) for s in sources]
    analysis_t = basis.analysis.T.astype(np.float64)
    scratch = Scratch()
    for block in spans(len(windows[0]), BLOCK_FRAMES):
        _oracle_mask_rows(windows, analysis_t, block, scratch, masks[:, block])
    return masks


def _separate(mixture: AudioBuffer, n_sources: int, basis: EncoderBasis, write_masks) -> list[AudioBuffer]:
    """Encode the mixture, mask its latent and decode each source, one block of frames per job.

    ``write_masks(rows, start, scratch, out)`` writes the float32
    (S, frames, N) masks of the frame slice ``rows``, of which the job owns
    [start, rows.stop), into ``out``, which is then masked in place.
    """
    windows = _windows(mixture.samples, basis)
    analysis_t = basis.analysis.T.astype(np.float64)
    relu = basis.nonlinearity == "relu"

    def masked_rows(rows, start, scratch):
        masked = scratch.get("masked", (n_sources, rows.stop - rows.start, basis.n_filters), np.float32)
        write_masks(rows, start, scratch, masked)
        latent = scratch.get("mixture", masked.shape[1:], np.float32)
        _encode_rows(windows, analysis_t, relu, rows, scratch, latent)
        np.multiply(latent, masked, out=masked)
        # a non-finite latent makes the masked latent non-finite too
        check_finite(masked, "masked latent")
        return masked

    return _synthesize(masked_rows, n_sources, len(windows), basis, mixture.sample_rate / basis.stride)


def separate_with_masks(mixture: AudioBuffer, masks, basis: EncoderBasis) -> list[AudioBuffer]:
    """Encode the mixture, apply per-source masks, decode each source.

    Equal to decode(m, basis) for m in apply_masks(encode(mixture, basis), masks),
    computed block by block without the whole latent.
    """
    m = _masks_array(masks, len(_windows(mixture.samples, basis)), basis.n_filters)
    return _separate(mixture, len(m), basis, lambda rows, start, scratch, out: np.copyto(out, m[:, rows]))


def _mixture(sources: list[AudioBuffer]) -> AudioBuffer:
    """The float32 sum of the sources, added in source order into one array of zeros.

    Bit-identical to np.sum([s.samples for s in sources], axis=0), which also
    starts from 0.0 (so -0.0 + -0.0 gives 0.0), without its (S, n) copy. The
    sum is checked: finite library sources may add up beyond float32 range
    (3e38 + 3e38), which rounds to inf.
    """
    total = np.zeros(len(sources[0]), dtype=np.float32)
    with np.errstate(over="ignore"):
        for source in sources:
            total += source.samples
    return AudioBuffer(total, sources[0].sample_rate)


def oracle_separation(sources: list[AudioBuffer], basis: EncoderBasis, on_masks=None) -> list[AudioBuffer]:
    """Separate the sum of ``sources`` with their oracle ratio masks, one block of masks at a time.

    Equal to separate_with_masks(mixture, oracle_masks(sources, basis), basis)
    for the float32 sum ``mixture`` of the sources, without the (S, T, N) masks.
    ``on_masks(start, masks)``, if given, receives every frame's masks once:
    the float32 (S, k, N) rows of frames [start, start + k) of
    oracle_masks(sources, basis), one call per block, from a worker thread,
    in no fixed order. ``masks`` is a scratch buffer that is masked in place
    after the call returns, so a callback that keeps the rows copies them.
    """
    _check_sources(sources)
    mixture = _mixture(sources)
    source_windows = [_windows(s.samples, basis) for s in sources]
    analysis_t = basis.analysis.T.astype(np.float64)

    def write_masks(rows, start, scratch, out):
        _oracle_mask_rows(source_windows, analysis_t, rows, scratch, out)
        if on_masks is not None:
            on_masks(start, out[:, start - rows.start :])

    return _separate(mixture, len(sources), basis, write_masks)


def random_basis(
    n_filters: int,
    kernel_len: int,
    stride: int,
    seed: int,
    nonlinearity: str = "relu",
) -> EncoderBasis:
    """Seeded Gaussian analysis with least-squares synthesis (pseudo-inverse).

    Raises ValueError, naming the parameter, for a size below 1 or a negative seed.
    """
    for name, size in (("n_filters", n_filters), ("kernel_len", kernel_len)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
