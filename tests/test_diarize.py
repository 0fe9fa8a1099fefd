import numpy as np
import pytest

from diarsep import (
    Annotation,
    ChunkSegmentation,
    FeatureMatrix,
    ahc_cluster,
    compute_der,
    diarize_file,
    pooled_embeddings,
    single_speaker_segments,
    slide_chunks,
    stitch,
)
from oracles import ahc_oracle


def test_slide_single_window():
    assert slide_chunks(10.0, window=10.0, hop=5.0) == [(0.0, 10.0)]


def test_slide_zero_duration():
    assert slide_chunks(0.0) == []


def test_slide_23s():
    assert slide_chunks(23.0, window=10.0, hop=5.0) == [
        (0.0, 10.0),
        (5.0, 10.0),
        (10.0, 10.0),
        (15.0, 8.0),
        (20.0, 3.0),
    ]


def test_slide_covers_exactly():
    for total in (0.5, 7.0, 10.0, 12.3, 31.0):
        chunks = slide_chunks(total, window=10.0, hop=5.0)
        assert chunks[0][0] == 0.0
        assert max(o + d for o, d in chunks) == pytest.approx(total)
        onsets = [o for o, _ in chunks]
        assert onsets == [i * 5.0 for i in range(len(onsets))]


def test_slide_errors():
    with pytest.raises(ValueError, match="hop"):
        slide_chunks(10.0, window=10.0, hop=0.0)
    with pytest.raises(ValueError, match="hop"):
        slide_chunks(10.0, window=5.0, hop=6.0)
    with pytest.raises(ValueError, match="total_duration"):
        slide_chunks(-1.0)


def make_chunk(onset, activity, frame_rate=50.0):
    return ChunkSegmentation(onset, frame_rate, np.asarray(activity, dtype=np.int8))


def test_chunk_validation():
    with pytest.raises(ValueError, match="binary"):
        make_chunk(0.0, [[2, 0]])
    with pytest.raises(ValueError, match="at most 2"):
        make_chunk(0.0, [[1, 1, 1]])
    with pytest.raises(ValueError, match="frame_rate"):
        ChunkSegmentation(0.0, 0.0, np.zeros((5, 2), np.int8))


def test_single_speaker_silent_chunk():
    chunk = make_chunk(0.0, np.zeros((100, 2)))
    assert single_speaker_segments(chunk) == []


def test_single_speaker_unit_conversion():
    activity = np.zeros((100, 2), np.int8)
    activity[0:50, 0] = 1
    chunk = make_chunk(10.0, activity)
    assert single_speaker_segments(chunk, min_duration=0.25) == [(10.0, 1.0, 0)]


def test_single_speaker_excludes_overlap():
    activity = np.zeros((50, 2), np.int8)
    activity[0:50, 0] = 1  # speaker 0 active throughout
    activity[20:31, 1] = 1  # speaker 1 overlaps frames 20..30
    chunk = make_chunk(0.0, activity)
    segs = single_speaker_segments(chunk, min_duration=0.1)
    assert segs == [(0.0, 0.4, 0), (0.62, 0.38, 0)]


def test_single_speaker_min_duration_filter():
    activity = np.zeros((100, 1), np.int8)
    activity[0:5, 0] = 1  # 0.1 s, below the default threshold
    assert single_speaker_segments(make_chunk(0.0, activity)) == []


def test_non_finite_minimum_run_rejected():
    activity = np.zeros((100, 1), np.int8)
    activity[0:50, 0] = 1
    chunk = make_chunk(0.0, activity)
    feats = [FeatureMatrix(np.ones((100, 2), np.float32), 50.0)]
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"minimum single-speaker run must be finite, got {value}"):
            single_speaker_segments(chunk, min_duration=value)
        with pytest.raises(ValueError, match="must be finite"):
            pooled_embeddings([chunk], feats, min_seg=value)
        with pytest.raises(ValueError, match="must be finite"):
            diarize_file([chunk], feats, min_seg=value)
        with pytest.raises(ValueError, match="must be finite"):
            diarize_file([], min_seg=value)  # checked before the early return


def test_ahc_single_embedding():
    assert ahc_cluster([np.array([1.0, 0.0])], threshold=0.5) == [0]


def test_ahc_two_orthogonal_pairs():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    labels = ahc_cluster([e1, e1, e2, e2], threshold=0.5)
    assert labels == [0, 0, 1, 1]


def test_ahc_threshold_zero_keeps_distinct_apart():
    vectors = [np.array([1.0, 0.0]), np.array([0.9, 0.1]), np.array([0.0, 1.0])]
    assert ahc_cluster(vectors, threshold=0.0) == [0, 1, 2]


def test_ahc_huge_threshold_merges_all():
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(8) for _ in range(6)]
    assert set(ahc_cluster(vectors, threshold=2.0)) == {0}


def test_ahc_labels_in_first_appearance_order():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert ahc_cluster([e2, e1, e2], threshold=0.5) == [0, 1, 0]


def test_ahc_average_linkage_hand_case():
    # distances: d(a,b)=0, d(x,y)=0, d(cross)=1; threshold 0.5 merges copies only
    a = np.array([2.0, 0.0])
    b = np.array([5.0, 0.0])  # parallel to a: distance 0
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 3.0])
    assert ahc_cluster([a, x, b, y], threshold=0.5) == [0, 1, 0, 1]


def test_ahc_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        ahc_cluster([np.zeros(3)], threshold=0.5)


def test_ahc_linkage_equal_to_threshold_merges():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])  # cosine distance exactly 1
    assert ahc_cluster([e1, e2], threshold=1.0) == [0, 0]
    assert ahc_cluster([e1, e2], threshold=np.nextafter(1.0, 0.0)) == [0, 1]


def test_ahc_nan_threshold_rejected():
    vectors = [np.array([1.0, 0.0]), np.array([0.9, 0.1]), np.array([0.0, 1.0])]
    with pytest.raises(ValueError, match="nan"):
        ahc_cluster(vectors, threshold=float("nan"))


def test_ahc_matches_oracle():
    """Tree cut == greedy loop on clustered embeddings, with and without duplicates.

    A case where an oracle merge height lies within 1e-9 of the threshold may
    differ, because the two paths round the same linkage differently; it is
    skipped, and at least 200 cases must match.
    """
    rng = np.random.default_rng(3)
    thresholds = [0.0, *np.round(np.arange(0.1, 1.0, 0.1), 1), 2.0]
    checked = 0
    for case in range(220):
        # the oracle is O(n^4): mostly small cases, every eighth up to n = 25
        n = int(rng.integers(1, 26 if case % 8 == 0 else 13))
        dim = int(rng.integers(2, 17))
        centers = rng.standard_normal((int(rng.integers(1, 6)), dim))
        vectors = centers[rng.integers(0, len(centers), n)]
        vectors = vectors + rng.uniform(0.05, 1.0) * rng.standard_normal((n, dim))
        if case % 3 == 0:  # exact duplicate rows: zero-distance ties
            copies = int(rng.integers(1, n + 1))
            vectors[rng.integers(0, n, copies)] = vectors[rng.integers(0, n, copies)]
        threshold = float(thresholds[case % len(thresholds)])
        if ahc_cluster(vectors, threshold) != ahc_oracle(vectors, threshold):
            # only allowed where some oracle merge height lies within 1e-9 of the threshold
            assert ahc_oracle(vectors, threshold - 1e-9) != ahc_oracle(vectors, threshold + 1e-9), case
            continue
        checked += 1
    assert checked >= 200


def test_stitch_single_chunk_identity():
    activity = np.zeros((500, 2), np.int8)
    activity[100:200, 0] = 1
    activity[300:400, 1] = 1
    chunk = make_chunk(0.0, activity)
    ann = stitch([chunk], {(0, 0): "A", (0, 1): "B"}, 50.0, 10.0)
    assert ann.segments == ((2.0, 2.0, "A"), (6.0, 2.0, "B"))


def test_stitch_overlapping_chunks_agree():
    # two 50%-overlapping chunks both mark the speaker on [4, 6) seconds
    act0 = np.zeros((500, 1), np.int8)
    act0[200:400, 0] = 1  # 4..8 s in chunk at onset 0 -> marks 4..8? no: frames 200..400 = 4..8 s
    act0[:, 0] = 0
    act0[200:300, 0] = 1  # 4..6 s absolute
    act1 = np.zeros((500, 1), np.int8)
    act1[0:50, 0] = 1  # chunk onset 5 -> 5..6 s absolute
    chunks = [make_chunk(0.0, act0), make_chunk(5.0, act1)]
    ann = stitch(chunks, {(0, 0): "A", (1, 0): "A"}, 50.0, 15.0)
    # 4..5 s: only chunk 0 covers and votes 1 -> active
    # 5..6 s: both cover, both vote 1 -> active
    # beyond 6 s: votes 0
    assert ann.segments == ((4.0, 2.0, "A"),)


def test_stitch_tie_counts_as_active():
    act0 = np.zeros((500, 1), np.int8)
    act0[250:300, 0] = 1  # 5..6 s absolute, chunk onset 0
    act1 = np.zeros((500, 1), np.int8)  # silent chunk at onset 5 covering 5..15 s
    chunks = [make_chunk(0.0, act0), make_chunk(5.0, act1)]
    ann = stitch(chunks, {(0, 0): "A"}, 50.0, 15.0)
    # on 5..6 s one chunk votes 1, one votes 0 -> mean 0.5 -> active
    assert ann.segments == ((5.0, 1.0, "A"),)


def test_stitch_slots_merged_to_one_label_vote_once():
    # both slots of the one covering chunk map to the same speaker; their
    # overlapping activity must count as a single vote, not two
    activity = np.zeros((500, 2), np.int8)
    activity[0:100, 0] = 1
    activity[50:150, 1] = 1
    chunk = make_chunk(0.0, activity)
    ann = stitch([chunk], {(0, 0): "A", (0, 1): "A"}, 50.0, 10.0)
    assert ann.segments == ((0.0, 3.0, "A"),)


def test_stitch_missing_assignment():
    activity = np.zeros((10, 1), np.int8)
    activity[0, 0] = 1
    with pytest.raises(ValueError, match="missing assignment"):
        stitch([make_chunk(0.0, activity)], {}, 50.0, 0.2)


def test_stitch_no_same_speaker_overlap():
    rng = np.random.default_rng(1)
    chunks = []
    assignment = {}
    for ci in range(4):
        activity = (rng.uniform(size=(250, 2)) < 0.4).astype(np.int8)
        # enforce the powerset row constraint trivially with 2 slots
        chunks.append(make_chunk(ci * 2.5, activity))
        assignment[(ci, 0)] = "A"
        assignment[(ci, 1)] = "B"
    ann = stitch(chunks, assignment, 50.0, 10.0)
    for speaker in ("A", "B"):
        segs = sorted(s for s in ann.segments if s.speaker == speaker)
        for first, second in zip(segs, segs[1:]):
            assert first.onset + first.duration <= second.onset + 1e-12


def two_speaker_setup():
    """20 s file, speaker A on [0, 8) s, speaker B on [12, 18) s, chunks hop 5 s."""
    fr = 50.0
    vectors = {"A": np.array([1.0, 0, 0, 0], np.float32), "B": np.array([0, 1.0, 0, 0], np.float32)}
    truth = {"A": (0.0, 8.0), "B": (12.0, 18.0)}
    chunks, feats = [], []
    for onset in (0.0, 5.0, 10.0, 15.0):
        n = 500 if onset < 15.0 else 250  # final chunk shortened to the file end
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


def test_diarize_single_chunk_round_trip():
    activity = np.zeros((500, 2), np.int8)
    activity[50:250, 0] = 1
    chunk = make_chunk(0.0, activity)
    feats = FeatureMatrix(np.tile(np.array([0.0, 1.0], np.float32), (500, 1)), 50.0)
    ann = diarize_file([chunk], [feats], uri="u")
    reference = Annotation("u", ((1.0, 4.0, "spk0"),))
    assert compute_der(reference, ann).der_pct == 0.0


def test_diarize_two_speakers_exact():
    chunks, feats, reference = two_speaker_setup()
    ann = diarize_file(chunks, feats, uri="u", ahc_threshold=0.5)
    assert len(ann.speakers()) == 2
    assert compute_der(reference, ann).der_pct == 0.0


def test_diarize_merge_all_threshold_confuses_minority():
    chunks, feats, reference = two_speaker_setup()
    ann = diarize_file(chunks, feats, uri="u", ahc_threshold=2.0)
    assert len(ann.speakers()) == 1
    report = compute_der(reference, ann)
    # A carries 8 s, B 6 s; the single output speaker maps to A, so B's 6 s
    # of 14 s total become confusion
    assert report.confusion == pytest.approx(6.0, abs=1e-9)
    assert report.der_pct == pytest.approx(100.0 * 6.0 / 14.0, abs=1e-9)


def test_diarize_chunk_order_invariance():
    chunks, feats, reference = two_speaker_setup()
    ann_forward = diarize_file(chunks, feats, uri="u")
    order = [2, 0, 3, 1]
    ann_shuffled = diarize_file([chunks[i] for i in order], [feats[i] for i in order], uri="u")
    assert compute_der(ann_forward, ann_shuffled).der_pct == 0.0
    assert len(ann_forward.speakers()) == len(ann_shuffled.speakers())


def test_diarize_speaker_count_equals_cluster_count():
    chunks, feats, _ = two_speaker_setup()
    embeddings = pooled_embeddings(chunks, feats)
    labels = ahc_cluster([e.vector for e in embeddings], 0.5)
    ann = diarize_file(chunks, feats, uri="u", ahc_threshold=0.5)
    assert len(ann.speakers()) == len(set(labels))


def test_diarize_with_embedding_map():
    chunks, feats, reference = two_speaker_setup()
    embeddings = {e.source: e.vector for e in pooled_embeddings(chunks, feats)}
    ann = diarize_file(chunks, embeddings=embeddings, uri="u")
    assert compute_der(reference, ann).der_pct == 0.0
    missing = dict(embeddings)
    missing.pop((0, 0))
    with pytest.raises(ValueError, match="no embedding"):
        diarize_file(chunks, embeddings=missing, uri="u")


def test_diarize_empty_chunks():
    assert diarize_file([], uri="u").segments == ()
    silent = make_chunk(0.0, np.zeros((500, 2), np.int8))
    feats = FeatureMatrix(np.ones((500, 4), np.float32), 50.0)
    assert diarize_file([silent], [feats], uri="u").segments == ()


def test_diarize_nan_threshold_rejected_without_embeddings():
    silent = make_chunk(0.0, np.zeros((500, 2), np.int8))
    feats = FeatureMatrix(np.ones((500, 4), np.float32), 50.0)
    for chunks, features in (([], None), ([silent], [feats])):
        with pytest.raises(ValueError, match="nan"):
            diarize_file(chunks, features, uri="u", ahc_threshold=float("nan"))


def test_pooled_embeddings_overlap_only_slot_falls_back():
    # slot 1 is never alone: embeddings still produced from its active frames
    activity = np.zeros((500, 2), np.int8)
    activity[0:250, 0] = 1
    activity[100:200, 1] = 1
    chunk = make_chunk(0.0, activity)
    features = np.zeros((500, 2), np.float32)
    features[:, 0] = 1.0
    features[100:200, 1] = 2.0
    embeddings = pooled_embeddings([chunk], [FeatureMatrix(features, 50.0)])
    assert {e.source for e in embeddings} == {(0, 0), (0, 1)}


def test_pooled_embeddings_fallback_tiers():
    """Each tier of the frame choice: long solo runs, all solo frames, all active frames.

    One-hot features (row t = e_t) make each embedding's support the frames it pooled.
    """
    activity = np.zeros((60, 3), np.int8)
    activity[0:20, 0] = 1  # 20 solo frames: a run of at least min_seg (13 frames at 50 Hz)
    activity[40:45, 0] = 1  # overlapped by slot 2, so not solo
    activity[20:30, 1] = 1  # 5 solo frames, then overlapped by slot 2
    activity[25:30, 2] = 1
    activity[40:45, 2] = 1  # slot 2 is never alone
    chunk = make_chunk(0.0, activity)
    embeddings = pooled_embeddings([chunk], [FeatureMatrix(np.eye(60, dtype=np.float32), 50.0)])
    support = {e.source[1]: np.flatnonzero(e.vector).tolist() for e in embeddings}
    assert support == {
        0: list(range(0, 20)),
        1: list(range(20, 25)),
        2: list(range(25, 30)) + list(range(40, 45)),
    }
    # the same solo runs, with single_speaker_segments' own threshold in seconds
    assert single_speaker_segments(chunk, 0.25) == [(0.0, 0.4, 0)]
    assert single_speaker_segments(chunk, 0.0) == [(0.0, 0.4, 0), (0.4, 0.1, 1)]
