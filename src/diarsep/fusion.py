"""Layer-weight normalization, weighted layer averaging, frame alignment, concatenation."""

import numpy as np

from .features import FeatureMatrix, FeatureStack, check_finite


def normalize_weights(logits) -> np.ndarray:
    """Softmax of per-layer logits, computed with max subtraction.

    Returns a strictly positive float64 vector summing to 1.
    """
    w = np.asarray(logits, dtype=np.float64).reshape(-1)
    if w.size == 0:
        raise ValueError("logits must be non-empty")
    check_finite(w, "logits")
    z = np.exp(w - w.max())
    return z / z.sum()


def weighted_sum(stack: FeatureStack, alpha) -> FeatureMatrix:
    """Collapse a layer stack into one matrix: out[t, d] = sum_i alpha[i] * stack[i, t, d]."""
    a = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if a.size != stack.n_layers:
        raise ValueError(f"expected {stack.n_layers} weights, got {a.size}")
    if abs(a.sum() - 1.0) > 1e-4:
        raise ValueError(f"weights must sum to 1 within 1e-4, got {a.sum()}")
    out = np.tensordot(a, stack.data.astype(np.float64), axes=([0], [0]))
    return FeatureMatrix(out.astype(np.float32), stack.frame_rate)


def align_frames(features: FeatureMatrix, target_frames: int) -> FeatureMatrix:
    """Replicate rows to reach ``target_frames``: out[j] = features[floor(j * T / target)].

    Pure selection, never interpolation; when the target is an integer
    multiple r of the source, each row appears exactly r times consecutively.
    """
    if target_frames < 1:
        raise ValueError(f"target_frames must be >= 1, got {target_frames}")
    idx = (np.arange(target_frames) * features.n_frames) // target_frames
    rate = features.frame_rate * (target_frames / features.n_frames)
    return FeatureMatrix(features.data[idx], rate)


def concat_features(latent: FeatureMatrix, ssl: FeatureMatrix) -> FeatureMatrix:
    """Row-wise concatenation with latent columns first; frame counts must match."""
    if latent.n_frames != ssl.n_frames:
        raise ValueError(f"frame-count mismatch: {latent.n_frames} vs {ssl.n_frames}")
    return FeatureMatrix(np.hstack([latent.data, ssl.data]), latent.frame_rate)
