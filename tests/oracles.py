"""Independent brute-force oracles for the RTTM parser, DER, assignment, PIT, AHC, linkage, resampling, WAV, TasNet, powerset codec and acceptance tests."""

import itertools
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from diarsep import Annotation, AudioBuffer, EncoderBasis, FeatureMatrix, FirFilter, Segment
from diarsep.resample import ROW
from diarsep.sepmetrics import INF_SUBSTITUTE_DB
from diarsep.tasnet import DEFAULT_EPS, apply_masks


def parse_rttm_oracle(text: str) -> dict[str, Annotation]:
    """The per-segment RTTM parser: one record tuple per line, then each Segment rebuilt and checked alone.

    Same contract as ``parse_rttm``: one Annotation per URI in order of first
    appearance, and "RTTM line N: ..." naming the lowest faulty line.
    """
    try:
        segments: dict[str, list[tuple[float, float, str]]] = {}
        for line in text.splitlines():
            fields = line.split()
            if fields:
                uri, onset, duration, speaker = _speaker_record_oracle(fields)
                segments.setdefault(uri, []).append((onset, duration, speaker))
        return {uri: Annotation(uri, _checked_segments(segs)) for uri, segs in segments.items()}
    except ValueError:
        _raise_first_bad_line_oracle(text)
        raise


def _checked_segments(segments) -> tuple[Segment, ...]:
    """Each segment rebuilt as a Segment of Python values and checked in turn."""
    segments = tuple(Segment(float(o), float(d), str(s)) for o, d, s in segments)
    for onset, duration, speaker in segments:
        if not math.isfinite(onset + duration):  # also false when either one is not finite
            raise ValueError(f"non-finite segment onset, duration or end, got ({onset}, {duration})")
        if duration <= 0:
            raise ValueError(f"segment duration must be positive, got {duration}")
        if onset < 0:
            raise ValueError(f"segment onset must be >= 0, got {onset}")
        if onset + duration <= onset:
            raise ValueError(f"segment end must exceed its onset in float64, got ({onset}, {duration})")
        if speaker.split() != [speaker]:  # empty, or holds whitespace
            raise ValueError(f"speaker label must be non-empty without whitespace, got {speaker!r}")
    return segments


def _raise_first_bad_line_oracle(text: str) -> None:
    """Check RTTM text line by line and raise the error of the first line at fault."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            uri, onset, duration, speaker = _speaker_record_oracle(fields)
            _checked_segments(((onset, duration, speaker),))
        except ValueError as exc:
            raise ValueError(f"RTTM line {lineno}: {exc}") from None


def _speaker_record_oracle(fields: list[str]) -> tuple[str, float, float, str]:
    """URI, onset, duration and label of one split RTTM line; ValueError unless it is a SPEAKER record."""
    if fields[0] != "SPEAKER":
        raise ValueError(f"expected a SPEAKER record, got {fields[0]!r}")
    if len(fields) < 9:
        raise ValueError(f"expected at least 9 fields, got {len(fields)}")
    try:
        return fields[1], float(fields[3]), float(fields[4]), fields[7]
    except ValueError:
        raise ValueError("non-numeric onset or duration") from None


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


def sweep_oracle(ref: Annotation, hyp: Annotation, collar=0.0, regions=None):
    """``der._sweep`` and ``der._coactivity`` from per-segment lists and one ``np.add.at`` per span set.

    Returns (ref_active, hyp_active, length, in_region, scored, coactivity);
    the float additions happen in the same order, so every array is equal bit for bit.
    """

    def spans(annotation):
        speakers = annotation.speakers()
        index = {s: i for i, s in enumerate(speakers)}
        onsets = np.array([seg.onset for seg in annotation.segments])
        offsets = np.array([seg.onset + seg.duration for seg in annotation.segments])
        labels = np.array([index[seg.speaker] for seg in annotation.segments], dtype=np.intp)
        return speakers, onsets, offsets, labels

    ref_speakers, ref_on, ref_off, ref_label = spans(ref)
    hyp_speakers, hyp_on, hyp_off, hyp_label = spans(hyp)
    boundaries = np.concatenate([ref_on, ref_off]) if collar > 0 else np.empty(0)
    zone_on, zone_off = boundaries - collar, boundaries + collar
    bounds = np.array(regions or [], dtype=float).reshape(-1, 2)
    region_on, region_off = bounds[:, 0], np.maximum(bounds[:, 0], bounds[:, 1])
    edges = np.unique(
        np.concatenate([ref_on, ref_off, hyp_on, hyp_off, zone_on, zone_off, region_on, region_off])
    )

    def covered(onsets, offsets, labels=None, width=1):
        column = 0 if labels is None else labels
        counts = np.zeros((len(edges), width), dtype=np.int32)
        np.add.at(counts, (np.searchsorted(edges, onsets), column), 1)
        np.add.at(counts, (np.searchsorted(edges, offsets), column), -1)
        return np.cumsum(counts, axis=0, out=counts)[:-1] > 0

    in_region = covered(region_on, region_off)[:, 0]
    if regions is None:
        in_region[:] = True
    ref_active = covered(ref_on, ref_off, ref_label, len(ref_speakers))
    hyp_active = covered(hyp_on, hyp_off, hyp_label, len(hyp_speakers))
    length = np.diff(edges)
    weighted = ref_active * (length * in_region)[:, None]
    interval, hyp_index = np.nonzero(hyp_active)
    matrix = np.zeros((len(ref_speakers), len(hyp_speakers)))
    np.add.at(matrix.T, hyp_index, weighted[interval])
    scored = in_region & ~covered(zone_on, zone_off)[:, 0]
    return ref_active, hyp_active, length, in_region, scored, matrix


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


def powerset_classes_oracle(max_speakers: int) -> tuple[tuple[int, ...], ...]:
    """The powerset class catalogue: the empty set, each speaker, then every pair in lexicographic order."""
    classes: list[tuple[int, ...]] = [()]
    classes.extend((k,) for k in range(max_speakers))
    classes.extend(itertools.combinations(range(max_speakers), 2))
    return tuple(classes)


def powerset_matrix_oracle(max_speakers: int) -> np.ndarray:
    """(n_classes, max_speakers) 0/1 int8 indicator matrix of the catalogue, one row per class."""
    classes = powerset_classes_oracle(max_speakers)
    matrix = np.zeros((len(classes), max_speakers), dtype=np.int8)
    for idx, members in enumerate(classes):
        matrix[idx, list(members)] = 1
    return matrix


def powerset_encode_oracle(max_speakers: int, vector) -> int:
    """The first catalogue class at minimum Hamming distance from a 0/1 activity vector."""
    active = [int(bool(v)) for v in vector]
    distances = [sum(a != b for a, b in zip(active, row)) for row in powerset_matrix_oracle(max_speakers)]
    return distances.index(min(distances))


_TINY = np.finfo(np.float64).tiny  # smallest normal float64


def _oracle_signal(x) -> np.ndarray:
    return np.asarray(x.samples if isinstance(x, AudioBuffer) else x, dtype=np.float64).reshape(-1)


def _check_pair(ref: np.ndarray, est: np.ndarray) -> None:
    if ref.size != est.size:
        raise ValueError(f"length mismatch: {ref.size} vs {est.size}")
    if ref.size == 0:
        raise ValueError("signals must be non-empty")


def _check_energies(*energies: float) -> None:
    if not all(map(math.isfinite, energies)):
        raise ValueError("signal energy overflows float64")


def _unit_peak(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x * 2**-e, e) with the scaled peak magnitude in [0.5, 1); an all-zero x gives (x, 0)."""
    if not x.any():
        return x, 0
    exponent = int(np.frexp(np.abs(x).max())[1])
    return np.ldexp(x, -exponent), exponent


def _energy_db(x: np.ndarray) -> float:
    unit, exponent = _unit_peak(x)
    return 10.0 * np.log10(np.dot(unit, unit)) + 20.0 * math.log10(2.0) * exponent


def _ratio_db(num: np.ndarray, num_energy: float, den: np.ndarray, den_energy: float) -> float:
    if num_energy >= _TINY and den_energy >= _TINY and _TINY <= num_energy / den_energy < math.inf:
        return 10.0 * np.log10(num_energy / den_energy)
    return _energy_db(num) - _energy_db(den)


def sdr_oracle(ref, est) -> float:
    """Whole-array SDR, the reference for ``diarsep.sdr``: float64 copies, one ``np.dot`` per energy.

    Same special cases: +inf for a zero residual, ValueError for an all-zero
    reference or an energy beyond float64, unit-peak rescaling for energies
    or ratios outside float64's normal range.
    """
    s, s_hat = _oracle_signal(ref), _oracle_signal(est)
    _check_pair(s, s_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        ref_energy = float(np.dot(s, s))
        residual = s - s_hat
        res_energy = float(np.dot(residual, residual))
    _check_energies(ref_energy, res_energy)
    if not s.any():
        raise ValueError("reference signal is all zeros")
    if not residual.any():
        return float("inf")
    return _ratio_db(s, ref_energy, residual, res_energy)


def si_sdr_oracle(ref, est) -> float:
    """Whole-array SI-SDR, the reference for ``diarsep.si_sdr``, with the same special cases."""
    s, s_hat = _oracle_signal(ref), _oracle_signal(est)
    _check_pair(s, s_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        ref_energy = float(np.dot(s, s))
        projection = float(np.dot(s_hat, s))
        _check_energies(ref_energy, projection)
        if not s.any():
            raise ValueError("reference signal is all zeros")
        if ref_energy < _TINY or abs(projection) < _TINY:
            s, s_hat = _unit_peak(s)[0], _unit_peak(s_hat)[0]
            ref_energy = float(np.dot(s, s))
            projection = float(np.dot(s_hat, s))
        if projection == 0.0:
            return float("-inf")
        target = (projection / ref_energy) * s
        residual = s_hat - target
        target_energy = float(np.dot(target, target))
        res_energy = float(np.dot(residual, residual))
    _check_energies(target_energy, res_energy)
    if not residual.any():
        return float("inf")
    if not target.any():
        raise ValueError("signal energy underflows float64")
    return _ratio_db(target, target_energy, residual, res_energy)


def pit_oracle(refs, ests, metric: str = "si_sdr") -> tuple[tuple[int, ...], float]:
    """Exhaustive permutation-invariant matching: the n! reference for ``diarsep.pit``.

    Scores every (reference, estimate) pair with the whole-array oracles, then tries
    every permutation of the +-300 dB substituted scores; ties resolve to the
    lexicographically smallest permutation. Returns (permutation, mean score)
    like ``pit``, the mean being +inf if any matched score is +inf, else -inf
    if any is -inf.
    """
    fn = {"sdr": sdr_oracle, "si_sdr": si_sdr_oracle}[metric]
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


def toeplitz_products(audio: AudioBuffer, fs_out: int, fir: FirFilter) -> np.ndarray:
    """Float64 (rows, ROW) products of the whole signal: every zero-padded window times one Toeplitz matrix.

    Output m is sum_k h[k] u[m * down + delay - k], u the input zero-stuffed
    by ``up``. Row f holds outputs [f * ROW, (f + 1) * ROW) and reads the
    input samples from f * ROW * down / up + first on, where first is the
    earliest sample that output 0 reads; column p of the matrix holds the
    taps that meet output p of a row. One np.matmul multiplies all the
    windows at once: ``diarsep.resample`` runs the same products in blocks
    of rows, so the values must be identical.
    """
    fs_in = audio.sample_rate
    up, down = (2, 1) if fs_out > fs_in else (1, 2)
    h = fir.taps.astype(np.float64)
    delay = (h.size - 1) // 2
    n = len(audio)
    n_out = 2 * n if up == 2 else (n + 1) // 2  # round(n * fs_out / fs_in), halves up
    first = math.ceil((delay - (h.size - 1)) / up)
    width = ((ROW - 1) * down + delay) // up - first + 1
    t = np.zeros((width, ROW))
    for p in range(ROW):
        k = p * down + delay - (first + np.arange(width)) * up  # the tap each input sample meets
        inside = (k >= 0) & (k < h.size)
        t[inside, p] = h[k[inside]]
    step = ROW * down // up
    n_rows = -(-n_out // ROW)
    padded = np.zeros((n_rows - 1) * step + width)  # padded[i] = x[first + i], 0 outside x
    src = np.arange(max(first, 0), min(n, first + padded.size))
    padded[src - first] = audio.samples[src]
    return np.matmul(sliding_window_view(padded, width)[::step], t)


def toeplitz_oracle(audio: AudioBuffer, fs_out: int, fir: FirFilter) -> AudioBuffer:
    """Reference resampler: the first round(len * fs_out / fs_in) of ``toeplitz_products``, rounded to float32."""
    if len(audio) == 0:
        return AudioBuffer(np.zeros(0, dtype=np.float32), fs_out)
    n_out = 2 * len(audio) if fs_out > audio.sample_rate else (len(audio) + 1) // 2
    return AudioBuffer(toeplitz_products(audio, fs_out, fir).reshape(-1)[:n_out].astype(np.float32), fs_out)


def polyphase_oracle(audio: AudioBuffer, fs_out: int, fir: FirFilter) -> AudioBuffer:
    """Reference two-phase np.convolve resampler on whole-signal float64 arrays.

    Same contract as ``diarsep.resample``, with the same products summed in
    np.convolve's order: the float64 values differ from the Toeplitz
    products' by far less than a float32 spacing, so the float32 results
    differ by at most one spacing where the two sums fall on either side of a
    rounding boundary.
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
