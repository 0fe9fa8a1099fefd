"""Independent brute-force oracles for the DER, assignment, PIT, AHC, linkage, resampling, WAV, TasNet and acceptance tests."""

import itertools
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from diarsep import Annotation, AudioBuffer, EncoderBasis, FeatureMatrix, FirFilter
from diarsep.sepmetrics import INF_SUBSTITUTE_DB, sdr, si_sdr
from diarsep.tasnet import DEFAULT_EPS, apply_masks


def random_annotation(rng, uri="u", max_speakers=5, max_segments=20, max_time=60.0):
    """Random annotation with millisecond-aligned boundaries."""
    n_speakers = int(rng.integers(1, max_speakers + 1))
    n_segments = int(rng.integers(1, max_segments + 1))
    segments = []
    for _ in range(n_segments):
        onset = round(float(rng.uniform(0.0, max_time - 0.5)), 3)
        duration = round(float(rng.uniform(0.1, 8.0)), 3)
        speaker = f"spk{int(rng.integers(0, n_speakers))}"
        segments.append((onset, duration, speaker))
    return Annotation(uri, tuple(segments))


def perturbed_hypothesis(rng, ref: Annotation, max_speakers=5):
    """Hypothesis derived from a reference by dropping, jittering and relabeling."""
    n_labels = int(rng.integers(1, max_speakers + 1))
    relabel = {s: f"hyp{int(rng.integers(0, n_labels))}" for s in ref.speakers()}
    segments = []
    for seg in ref.segments:
        if rng.uniform() < 0.2:
            continue
        onset = max(0.0, round(seg.onset + float(rng.uniform(-0.3, 0.3)), 3))
        duration = max(0.05, round(seg.duration + float(rng.uniform(-0.3, 0.3)), 3))
        segments.append((onset, duration, relabel[seg.speaker]))
    if not segments:
        segments.append((0.0, 1.0, "hyp0"))
    return Annotation(ref.uri, tuple(segments))


def _grid_masks(annotation: Annotation, speakers, n, step):
    masks = np.zeros((len(speakers), n), dtype=bool)
    index = {s: i for i, s in enumerate(speakers)}
    for seg in annotation.segments:
        a = int(round(seg.onset / step))
        b = int(round((seg.onset + seg.duration) / step))
        masks[index[seg.speaker], a:b] = True
    return masks


def _best_matching(overlap: np.ndarray):
    """Exhaustive injective matching maximizing total overlap; returns (pairs, value)."""
    n_ref, n_hyp = overlap.shape
    best_pairs, best_value = [], 0.0
    if n_ref <= n_hyp:
        for cols in itertools.permutations(range(n_hyp), n_ref):
            value = sum(overlap[i, c] for i, c in enumerate(cols))
            if value > best_value:
                best_value = value
                best_pairs = list(enumerate(cols))
    else:
        for rows in itertools.permutations(range(n_ref), n_hyp):
            value = sum(overlap[r, j] for j, r in enumerate(rows))
            if value > best_value:
                best_value = value
                best_pairs = [(r, j) for j, r in enumerate(rows)]
    return best_pairs, float(best_value)


def grid_der(ref: Annotation, hyp: Annotation, collar=0.0, regions=None, step=0.001):
    """1 ms frame-grid DER scorer with exhaustive-search speaker matching.

    Returns (false_alarm_s, missed_s, confusion_s, total_speech_s, der_pct,
    matched_seconds). The matching is computed on region-cropped but
    non-collared counts, mirroring the scorer's mapping convention.
    """
    ends = [s.onset + s.duration for s in ref.segments + hyp.segments]
    if regions:
        ends.extend(e for _, e in regions)
    horizon = max(ends, default=0.0) + collar + step
    n = int(round(horizon / step)) + 1

    ref_speakers = ref.speakers()
    hyp_speakers = hyp.speakers()
    ref_masks = _grid_masks(ref, ref_speakers, n, step)
    hyp_masks = _grid_masks(hyp, hyp_speakers, n, step)

    region_mask = np.ones(n, dtype=bool)
    if regions is not None:
        region_mask = np.zeros(n, dtype=bool)
        for a, b in regions:
            region_mask[int(round(a / step)) : int(round(b / step))] = True

    # matching from region-cropped, non-collared co-activity
    overlap = (ref_masks[:, None, :] & hyp_masks[None, :, :] & region_mask).sum(axis=2).astype(float)
    pairs, matched_frames = _best_matching(overlap)

    scored = region_mask.copy()
    if collar > 0:
        for seg in ref.segments:
            for boundary in (seg.onset, seg.onset + seg.duration):
                a = max(0, int(round((boundary - collar) / step)))
                b = int(round((boundary + collar) / step))
                scored[a:b] = False

    ref_scored = ref_masks & scored
    hyp_scored = hyp_masks & scored
    n_ref = ref_scored.sum(axis=0)
    n_hyp = hyp_scored.sum(axis=0)
    n_correct = np.zeros(n, dtype=np.int64)
    for i, j in pairs:
        n_correct += ref_scored[i] & hyp_scored[j]

    missed = float(np.maximum(n_ref - n_hyp, 0).sum()) * step
    false_alarm = float(np.maximum(n_hyp - n_ref, 0).sum()) * step
    confusion = float((np.minimum(n_ref, n_hyp) - n_correct).sum()) * step
    speech = float(n_ref.sum()) * step
    der_pct = 100.0 * (false_alarm + missed + confusion) / speech if speech else 0.0
    return false_alarm, missed, confusion, speech, der_pct, matched_frames * step


def assignment_oracle(weights):
    """Reference maximum-weight assignment: scipy's ``linear_sum_assignment``.

    Same contract as ``diarsep.assignment.max_weight_assignment`` (rows
    ascending), computed by the scipy routine that the in-repo solver
    replaced. scipy also rejects NaN, but accepts some infinite weights.
    """
    from scipy.optimize import linear_sum_assignment  # only the oracle needs scipy.optimize

    return linear_sum_assignment(weights, maximize=True)


def pit_oracle(refs, ests, metric: str = "si_sdr") -> tuple[tuple[int, ...], float]:
    """Exhaustive permutation-invariant matching: the n! reference for ``diarsep.pit``.

    Scores every (reference, estimate) pair with the public metric, then tries
    every permutation of the +-300 dB substituted scores; ties resolve to the
    lexicographically smallest permutation. Returns (permutation, mean score)
    like ``pit``, the mean being +inf if any matched score is +inf, else -inf
    if any is -inf.
    """
    fn = {"sdr": sdr, "si_sdr": si_sdr}[metric]
    scores = np.array([[fn(r, e) for e in ests] for r in refs])
    n = len(scores)
    selectable = np.clip(scores, -INF_SUBSTITUTE_DB, INF_SUBSTITUTE_DB)
    best_perm = None
    best_score = -np.inf
    for perm in itertools.permutations(range(n)):
        score = selectable[np.arange(n), perm].mean()
        if score > best_score:
            best_score = score
            best_perm = perm
    matched = scores[np.arange(n), best_perm]
    if np.any(matched == np.inf):
        return best_perm, float("inf")
    if np.any(matched == -np.inf):
        return best_perm, float("-inf")
    return best_perm, float(np.mean(matched))


def ahc_oracle(embeddings, threshold: float) -> list[int]:
    """Greedy average-linkage agglomerative clustering on cosine distance.

    The O(n^4) reference for ``diarsep.ahc_cluster``: every merge recomputes
    every pairwise block mean. Merges the closest cluster pair (ties:
    lexicographically smallest index pair) while the minimum linkage stays
    within ``threshold``; labels are 0-based in order of first member
    appearance.
    """
    vectors = np.asarray([np.asarray(e, dtype=np.float64).reshape(-1) for e in embeddings])
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("need at least one embedding")
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding")
    unit = vectors / norms[:, None]
    distances = 1.0 - unit @ unit.T

    clusters: list[list[int]] = [[i] for i in range(vectors.shape[0])]
    while len(clusters) > 1:
        best = None
        best_linkage = math.inf
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                linkage = float(np.mean(distances[np.ix_(clusters[i], clusters[j])]))
                if linkage < best_linkage:
                    best_linkage = linkage
                    best = (i, j)
        if best_linkage > threshold:
            break
        i, j = best
        clusters[i].extend(clusters[j])
        del clusters[j]

    member_cluster = {}
    for pos, members in enumerate(clusters):
        for m in members:
            member_cluster[m] = pos
    labels = []
    relabel: dict[int, int] = {}
    for idx in range(vectors.shape[0]):
        pos = member_cluster[idx]
        if pos not in relabel:
            relabel[pos] = len(relabel)
        labels.append(relabel[pos])
    return labels


def linkage_oracle(embeddings, threshold: float) -> list[int]:
    """Reference AHC: scipy's average-linkage tree cut by ``fcluster``.

    Same contract as ``diarsep.ahc_cluster`` (labels 0-based in order of
    first member appearance), computed by the scipy ``linkage``/``fcluster``
    calls that the in-repo nearest-neighbour chain replaced.
    """
    from scipy.cluster.hierarchy import fcluster, linkage  # only the oracle needs scipy.cluster

    vectors = np.asarray([np.asarray(e, dtype=np.float64).reshape(-1) for e in embeddings])
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("need at least one embedding")
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding")
    if vectors.shape[0] == 1:
        return [0]
    unit = vectors / norms[:, None]
    # rounding leaves duplicates near -1e-16, and fcluster rejects negative heights
    distances = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
    tree = linkage(distances[np.triu_indices(len(unit), 1)], method="average")
    clusters = fcluster(tree, threshold, criterion="distance").tolist()
    relabel: dict[int, int] = {}
    return [relabel.setdefault(c, len(relabel)) for c in clusters]


def resample_oracle(audio: AudioBuffer, fs_out: int, fir: FirFilter) -> AudioBuffer:
    """Reference 1:2 / 2:1 resampler: scipy's upfirdn on the full tap set.

    Same contract as ``diarsep.resample`` (group-delay compensated, output
    length round(len * fs_out / fs_in) with halves up), computed by the
    direct upsample-filter-downsample routine the two-phase np.convolve
    implementation replaced.
    """
    from scipy.signal import upfirdn  # only the oracle needs scipy.signal

    fs_in = audio.sample_rate
    if len(audio) == 0:
        return AudioBuffer(np.zeros(0, dtype=np.float32), fs_out)

    h = fir.taps.astype(np.float64)
    x = audio.samples.astype(np.float64)
    n = x.size
    delay = (h.size - 1) // 2

    if fs_out > fs_in:
        n_out = 2 * n
        y = upfirdn(h, x, up=2, down=1)[delay : delay + n_out]
    else:
        n_out = (n + 1) // 2  # round(n / 2), halves up
        if delay % 2:
            # shift by one input sample so the compensated index lands on the
            # decimated phase
            x = np.concatenate([[0.0], x])
            delay += 1
        y = upfirdn(h, x, up=1, down=2)[delay // 2 : delay // 2 + n_out]
    if y.size < n_out:
        y = np.pad(y, (0, n_out - y.size))
    return AudioBuffer(y.astype(np.float32), fs_out)


def polyphase_oracle(audio: AudioBuffer, fs_out: int, fir: FirFilter) -> AudioBuffer:
    """Reference two-phase np.convolve resampler on whole-signal float64 arrays.

    Same contract and arithmetic as ``diarsep.resample``, which runs the same
    convolutions in blocks of outputs, so the results must be identical.
    """
    fs_in = audio.sample_rate
    if len(audio) == 0:
        return AudioBuffer(np.zeros(0, dtype=np.float32), fs_out)

    h = fir.taps.astype(np.float64)
    delay = (h.size - 1) // 2
    # Polyphase: each output sample is one np.convolve phase of the even or
    # the odd taps; the phase and offset follow from the group delay.
    if fs_out > fs_in:
        # output 2i + r = convolve(x, h[p::2])[i + s] with delay + r = 2s + p
        x = audio.samples.astype(np.float64)
        y = np.empty(2 * x.size)
        for r in (0, 1):
            s, p = divmod(delay + r, 2)
            y[r::2] = np.convolve(x, h[p::2])[s : s + x.size]
    else:
        # output i = sum over p of convolve(x[q::2], h[p::2])[i + s] with
        # delay - p = 2s + q; the odd input phase is empty for a 1-sample input
        y = np.zeros((len(audio) + 1) // 2)  # round(n / 2), halves up
        for p in (0, 1):
            s, q = divmod(delay - p, 2)
            x = audio.samples[q::2].astype(np.float64)
            if x.size:
                y += np.convolve(x, h[p::2])[s : s + y.size]
    return AudioBuffer(y.astype(np.float32), fs_out)


def write_wav_oracle(buffer: AudioBuffer, path: str | Path) -> None:
    """Reference 16-bit PCM WAV writer on whole-signal float64 arrays.

    Same file as ``diarsep.write_wav``, which quantizes in blocks of samples,
    so the bytes must be identical.
    """
    x = np.clip(buffer.samples.astype(np.float64), -1.0, 1.0)
    pcm = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(data),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        buffer.sample_rate,
        buffer.sample_rate * 2,
        2,
        16,
        b"data",
        len(data),
    )
    Path(path).write_bytes(header + data)


def encode_oracle(audio: AudioBuffer, basis: EncoderBasis) -> FeatureMatrix:
    """Reference TasNet encoder: one float64 matmul over every frame at once.

    Same contract as ``diarsep.tasnet.encode``, which computes the same
    per-element arithmetic in blocks of frames.
    """
    x = audio.samples
    if x.size < basis.kernel_len:
        raise ValueError(f"audio ({x.size} samples) shorter than one kernel ({basis.kernel_len})")
    frames = sliding_window_view(x, basis.kernel_len)[:: basis.stride]
    latent = frames.astype(np.float64) @ basis.analysis.T.astype(np.float64)
    if basis.nonlinearity == "relu":
        latent = np.maximum(latent, 0.0)
    return FeatureMatrix(latent.astype(np.float32), audio.sample_rate / basis.stride)


def decode_oracle(latent: FeatureMatrix, basis: EncoderBasis) -> AudioBuffer:
    """Reference TasNet decoder: whole-array float64 synthesis, then overlap-add."""
    frames = latent.data.astype(np.float64) @ basis.synthesis.astype(np.float64)
    n_frames = latent.n_frames
    out = np.zeros((n_frames - 1) * basis.stride + basis.kernel_len, dtype=np.float64)
    for k in range(basis.kernel_len):
        out[k : k + n_frames * basis.stride : basis.stride] += frames[:, k]
    sample_rate = round(latent.frame_rate * basis.stride)
    return AudioBuffer(out.astype(np.float32), sample_rate)


def oracle_masks_oracle(sources: list[AudioBuffer], basis: EncoderBasis, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Reference ratio masks from whole-array float64 copies of every source encoding."""
    if not sources:
        raise ValueError("need at least one source")
    lengths = {len(s) for s in sources}
    if len(lengths) != 1:
        raise ValueError(f"sources must have equal lengths, got {sorted(lengths)}")
    relu_basis = replace(basis, nonlinearity="relu")
    encodings = np.stack([encode_oracle(s, relu_basis).data.astype(np.float64) for s in sources])
    denom = encodings.sum(axis=0) + eps
    return np.clip(encodings / denom, 0.0, 1.0).astype(np.float32)


def separate_oracle(mixture: AudioBuffer, masks, basis: EncoderBasis) -> list[AudioBuffer]:
    """Reference separation: encode the whole mixture, mask it, decode each source."""
    latent = encode_oracle(mixture, basis)
    return [decode_oracle(masked, basis) for masked in apply_masks(latent, masks)]
