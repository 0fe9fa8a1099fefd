"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and a size preset and
writes the files the program under test receives (RTTM, UEM, SSLF, WAV) plus
the ground truth the output checks need. Nothing here imports the program, so
the inputs do not depend on the code being measured.
"""

import json
import struct
import wave
from pathlib import Path

import numpy as np

# Size presets: "full" is the measured workload, "tiny" the self-test input.
SIZES = {
    "der-corpus": {
        "full": {"recordings": 100, "min_s": 1200, "max_s": 2400},
        "tiny": {"recordings": 4, "min_s": 60, "max_s": 120},
    },
    "diarize-5min": {
        "full": {"chunks": 59, "speakers": 5, "extra_turns": 4},
        "tiny": {"chunks": 7, "speakers": 3, "extra_turns": 1},
    },
    "separate-60s": {"full": {"seconds": 60}, "tiny": {"seconds": 2}},
    "resample-20min": {"full": {"seconds": 1200}, "tiny": {"seconds": 5}},
}

FEATURE_DIM = 256
FRAME_RATE = 50
WINDOW_S = 10
HOP_S = 5
# Powerset class order for K=3 local slots: silence, singletons, pairs.
POWERSET_K3 = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


def write_pcm16(path: Path, samples: np.ndarray, rate: int) -> None:
    """Write float samples in [-1, 1] as a mono 16-bit PCM WAV."""
    pcm = np.clip(np.round(np.asarray(samples, dtype=np.float64) * 32767.0), -32768, 32767)
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(rate)
        out.writeframes(pcm.astype("<i2").tobytes())


def read_pcm16(path: Path) -> tuple[np.ndarray, int]:
    """Read a mono 16-bit PCM WAV as float64 samples scaled by 1/32768."""
    with wave.open(str(path), "rb") as src:
        if src.getnchannels() != 1 or src.getsampwidth() != 2:
            raise ValueError(f"{path}: expected mono 16-bit PCM")
        rate = src.getframerate()
        raw = src.readframes(src.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def write_sslf(path: Path, data: np.ndarray, frame_rate: float) -> None:
    """Write a (layers, frames, dim) float32 array in the SSLF container."""
    layers, frames, dim = data.shape
    header = struct.pack("<4sIIIIf", b"SSLF", 1, layers, frames, dim, frame_rate)
    Path(path).write_bytes(header + np.ascontiguousarray(data, dtype="<f4").tobytes())


def rttm_lines(uri: str, segments) -> list[str]:
    """RTTM SPEAKER lines for (onset_ms, end_ms, label) segments."""
    return [
        f"SPEAKER {uri} 1 {on / 1000:.3f} {(off - on) / 1000:.3f} <NA> <NA> {label} <NA> <NA>"
        for on, off, label in segments
    ]


# ---------------------------------------------------------------- der-corpus


def _conversation_ms(rng, duration_ms: int, n_speakers: int):
    """Turn-taking segments (onset_ms, end_ms, speaker index), ms-aligned.

    Turns alternate between speakers with short gaps or overlapping starts,
    and some turns carry a backchannel from another speaker, which gives
    roughly 15% overlapped speech.
    """
    segments = []
    t = int(rng.integers(200, 3000))
    prev = -1
    while True:
        length = int(rng.integers(1400, 6800))
        if t + length > duration_ms - 200:
            break
        speaker = int(rng.integers(0, n_speakers - 1))
        speaker += speaker >= prev >= 0
        segments.append((t, t + length, speaker))
        if rng.uniform() < 0.3 and length > 1500:
            other = (speaker + 1 + int(rng.integers(0, n_speakers - 1))) % n_speakers
            on = t + int(rng.integers(300, length - 1000))
            segments.append((on, on + int(rng.integers(300, 1200)), other))
        prev = speaker
        if rng.uniform() < 0.5:
            t += length - int(rng.integers(100, 1500))  # next turn starts early
        else:
            t += length + int(rng.integers(50, 1200))
    return segments


def _hypothesis_ms(rng, segments, n_speakers: int):
    """The reference with 10% of segments dropped, +-0.3 s jitter and renamed labels."""
    rename = rng.permutation(n_speakers)
    out = []
    for on, off, speaker in segments:
        if rng.uniform() < 0.10:
            continue
        new_on = max(0, on + int(rng.integers(-300, 301)))
        new_off = max(new_on + 50, off + int(rng.integers(-300, 301)))
        out.append((new_on, new_off, int(rename[speaker])))
    return out


def make_der_corpus(out: Path, rng, recordings: int, min_s: int, max_s: int) -> dict:
    """Reference and hypothesis RTTM plus a two-region UEM per recording."""
    ref_lines, hyp_lines, uem_lines = [], [], []
    truth = {"uris": [], "segments": 0, "audio_s": 0.0}
    check = int(rng.integers(0, recordings))  # the recording the grid oracle re-scores
    # Evenly spread lengths and speaker counts, shuffled: every seed gets the
    # same total audio and speaker mix, so op times differ little by seed.
    durations_ms = rng.permutation(np.linspace(min_s * 1000, max_s * 1000, recordings).round().astype(int))
    speaker_counts = rng.permutation(np.arange(recordings) % 7 + 2)
    for k in range(recordings):
        uri = f"rec{k:03d}"
        duration_ms = int(durations_ms[k])
        n_speakers = int(speaker_counts[k])
        ref = _conversation_ms(rng, duration_ms, n_speakers)
        hyp = _hypothesis_ms(rng, ref, n_speakers)
        ref_rec = rttm_lines(uri, [(a, b, f"spk{s}") for a, b, s in ref])
        hyp_rec = rttm_lines(uri, [(a, b, f"hyp{s}") for a, b, s in hyp])
        # two scored regions with an unscored stretch between them
        cut = int(rng.integers(duration_ms // 3, 2 * duration_ms // 3))
        gap = int(rng.integers(5000, 30000))
        lead = int(rng.integers(0, 5000))
        uem_rec = [
            f"{uri} 1 {lead / 1000:.3f} {cut / 1000:.3f}",
            f"{uri} 1 {(cut + gap) / 1000:.3f} {duration_ms / 1000:.3f}",
        ]
        if k == check:
            truth.update(check_uri=uri, check_ref=ref_rec, check_hyp=hyp_rec, check_uem=uem_rec)
        ref_lines += ref_rec
        hyp_lines += hyp_rec
        uem_lines += uem_rec
        truth["uris"].append(uri)
        truth["segments"] += len(ref) + len(hyp)
        truth["audio_s"] += duration_ms / 1000
    (out / "ref.rttm").write_text("\n".join(ref_lines) + "\n")
    (out / "hyp.rttm").write_text("\n".join(hyp_lines) + "\n")
    (out / "eval.uem").write_text("\n".join(uem_lines) + "\n")
    return truth


# ------------------------------------------------------------- diarize-5min


def _turn_boundaries(rng, total_s: float, extra_turns: int) -> list[float]:
    """Speaker-change times kept at least 1.5 s from every chunk edge.

    Main changes sit near 10 j + 2.5 s, so every 10 s window holds exactly
    one; ``extra_turns`` more sit near 10 j + 7.5 s and add a third speaker to
    the two windows that contain them. The embedding count is thereby fixed
    by the size preset, whatever the seed.
    """
    main = [10 * j + 2.5 for j in range(int(total_s // 10) + 1) if 10 * j + 2.5 < total_s - 2]
    spare = [10 * j + 7.5 for j in range(int(total_s // 10)) if 10 * j + 7.5 < total_s - 7]
    extra = sorted(rng.choice(spare, size=extra_turns, replace=False).tolist())
    return sorted(b + float(rng.uniform(-0.9, 0.9)) for b in main + extra)


def make_diarize(out: Path, rng, chunks: int, speakers: int, extra_turns: int) -> dict:
    """Powerset chunk scores and per-chunk features of one recording, plus its true RTTM.

    Features are the active speakers' centroids plus unit Gaussian noise.
    """
    total_s = (chunks - 1) * HOP_S + WINDOW_S
    n_frames = total_s * FRAME_RATE
    bounds = _turn_boundaries(rng, total_s, extra_turns)

    # one speaker per turn, distinct from the two before it, every speaker used
    while True:
        who = []
        for _ in range(len(bounds) + 1):
            choices = [s for s in range(speakers) if s not in who[-2:]]
            who.append(int(rng.choice(choices)))
        if len(set(who)) == speakers:
            break

    edges = [0.0] + bounds + [float(total_s)]
    activity = np.zeros((speakers, n_frames), dtype=bool)
    for i, speaker in enumerate(who):
        start, end = edges[i], edges[i + 1]
        if i == 0:
            start += rng.uniform(0.2, 0.8)
        else:  # overlap with the previous turn, or leave a gap
            start += -rng.uniform(0.1, 0.4) if rng.uniform() < 0.35 else rng.uniform(0.1, 0.5)
        if i == len(who) - 1:
            end -= rng.uniform(0.2, 0.8)
        else:
            end += rng.uniform(0.1, 0.4) if rng.uniform() < 0.35 else -rng.uniform(0.1, 0.5)
        activity[speaker, round(start * FRAME_RATE) : round(end * FRAME_RATE)] = True
        # a pause inside the turn, clear of its ends
        if end - start > 4.0:
            pause = rng.uniform(start + 1.5, end - 2.5)
            length = rng.uniform(0.4, 1.0)
            activity[speaker, round(pause * FRAME_RATE) : round((pause + length) * FRAME_RATE)] = False

    if activity.sum(axis=0).max() > 2:
        raise RuntimeError("generator bug: more than two simultaneous speakers")

    window = WINDOW_S * FRAME_RATE
    scores = np.empty((chunks, window, len(POWERSET_K3)), dtype=np.float32)
    for c in range(chunks):
        local = activity[:, c * HOP_S * FRAME_RATE :][:, :window]
        present = [s for s in range(speakers) if local[s].any()]
        present.sort(key=lambda s: int(np.argmax(local[s])))
        if len(present) > 3:
            raise RuntimeError("generator bug: more than three speakers in a window")
        slot_bits = np.zeros((window, 3), dtype=bool)
        for slot, s in enumerate(present):
            slot_bits[:, slot] = local[s]
        classes = [POWERSET_K3.index(tuple(np.flatnonzero(row))) for row in slot_bits]
        scores[c] = rng.uniform(0.0, 1.0, (window, len(POWERSET_K3)))
        scores[c, np.arange(window), classes] += 2.0
    embeddings = sum(
        sum(activity[s, c * HOP_S * FRAME_RATE :][:window].any() for s in range(speakers))
        for c in range(chunks)
    )

    centroids = rng.standard_normal((speakers, FEATURE_DIM))
    global_feats = activity.T.astype(np.float64) @ centroids
    global_feats += rng.standard_normal(global_feats.shape)
    features = np.stack(
        [global_feats[c * HOP_S * FRAME_RATE :][:window] for c in range(chunks)]
    )

    write_sslf(out / "rec.sslf", scores, FRAME_RATE)
    write_sslf(out / "feats.sslf", features, FRAME_RATE)
    truth_segments = []
    for s in range(speakers):
        padded = np.concatenate([[False], activity[s], [False]])
        change = np.flatnonzero(np.diff(padded.astype(np.int8)))
        for f0, f1 in zip(change[::2], change[1::2]):
            truth_segments.append((int(f0) * 20, int(f1) * 20, f"true{s}"))
    truth_segments.sort()
    (out / "truth.rttm").write_text("\n".join(rttm_lines("rec", truth_segments)) + "\n")
    return {
        "speakers": speakers,
        "embeddings": int(embeddings),
        "frames": chunks * window,
        "silence_frac": float(1.0 - activity.any(axis=0).mean()),
        "audio_s": float(total_s),
    }


# ------------------------------------------------------------- separate-60s


def _speech_like(rng, n: int, rate: int, f0: float) -> np.ndarray:
    """Harmonic voice with a wandering pitch, syllable envelope and pauses."""
    t = np.arange(n) / rate
    pitch = f0 * (1.0 + 0.12 * np.sin(2 * np.pi * rng.uniform(0.1, 0.4) * t + rng.uniform(0, 6.3)))
    phase = 2 * np.pi * np.cumsum(pitch) / rate
    voice = np.zeros(n)
    for k in range(1, int(3800 // (1.15 * f0)) + 1):
        voice += np.sin(k * phase + rng.uniform(0, 6.3)) / k
    syllable = np.abs(np.sin(2 * np.pi * rng.uniform(3.0, 5.0) * t + rng.uniform(0, 6.3))) ** 0.5
    gate_len = rate // 2
    gates = (rng.uniform(size=n // gate_len + 1) < 0.8).astype(np.float64)
    gate = np.convolve(np.repeat(gates, gate_len)[:n], np.ones(400) / 400, mode="same")
    signal = voice * syllable * gate
    signal += 0.01 * rng.standard_normal(n)
    return 0.45 * signal / np.max(np.abs(signal))


def make_separate(out: Path, rng, seconds: int) -> dict:
    """Two 16 kHz sources, one low and one high voice, and their mixture."""
    rate = 16000
    n = seconds * rate
    sources = [_speech_like(rng, n, rate, f0) for f0 in (rng.uniform(95, 140), rng.uniform(180, 260))]
    pcm = []
    for i, src in enumerate(sources):
        write_pcm16(out / f"s{i}.wav", src, rate)
        pcm.append(read_pcm16(out / f"s{i}.wav")[0])
    # the exact int16 sum of the two written sources
    write_pcm16(out / "mix.wav", (pcm[0] + pcm[1]) * (32768.0 / 32767.0), rate)
    return {"basis_seed": int(rng.integers(0, 2**31 - 1)), "sources": 2, "samples": n, "audio_s": float(seconds)}


# ----------------------------------------------------------- resample-20min


def make_resample(out: Path, rng, seconds: int) -> dict:
    """Noise band-limited to 50-3000 Hz at 8 kHz, well inside the passband."""
    rate = 8000
    n = seconds * rate
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spectrum[(freqs < 50) | (freqs > 3000)] = 0.0
    signal = np.fft.irfft(spectrum, n)
    write_pcm16(out / "in8k.wav", 0.5 * signal / np.max(np.abs(signal)), rate)
    return {"samples": n, "audio_s": float(seconds)}


GENERATORS = {
    "der-corpus": make_der_corpus,
    "diarize-5min": make_diarize,
    "separate-60s": make_separate,
    "resample-20min": make_resample,
}


def generate(workload: str, size: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload for one seed; return its truth record."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    truth = GENERATORS[workload](out, rng, **SIZES[workload][size])
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True))
    return truth
