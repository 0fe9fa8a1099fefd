import itertools
import tracemalloc

import numpy as np
import pytest

from diarsep import build_space, decode_class, decode_frames, encode_label


def naive_encode(space, vector):
    """Scalar projection oracle: first class at minimum Hamming distance."""
    best_idx, best_dist = 0, None
    for idx, members in enumerate(space.classes):
        indicator = [1 if k in members else 0 for k in range(space.max_speakers)]
        dist = sum(int(bool(v)) != i for v, i in zip(vector, indicator))
        if best_dist is None or dist < best_dist:
            best_idx, best_dist = idx, dist
    return best_idx


def test_k3_catalog():
    space = build_space(3)
    assert space.classes == ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
    assert space.n_classes == 7


def test_k1_catalog():
    assert build_space(1).classes == ((), (0,))


def test_k5_count():
    assert build_space(5).n_classes == 16  # 1 + 5 + C(5, 2)


def test_class_count_formula():
    for k in range(1, 9):
        space = build_space(k)
        assert space.n_classes == 1 + k + k * (k - 1) // 2
        assert len(set(space.classes)) == space.n_classes


def test_build_errors():
    with pytest.raises(ValueError, match="max_speakers"):
        build_space(0)


def test_encode_examples():
    space = build_space(3)
    assert encode_label(space, [1, 0, 1]) == 5
    assert encode_label(space, [0, 0, 0]) == 0
    # triple overlap: distance 1 to every pair, lowest index wins
    assert encode_label(space, [1, 1, 1]) == 4


def test_encode_matches_naive_oracle():
    space = build_space(4)
    for bits in itertools.product((0, 1), repeat=4):
        assert encode_label(space, bits) == naive_encode(space, bits)


def test_encode_wrong_length():
    with pytest.raises(ValueError, match="length 3"):
        encode_label(build_space(3), [1, 0])


def test_decode_examples():
    space = build_space(3)
    assert np.array_equal(decode_class(space, 0), [0, 0, 0])
    assert np.array_equal(decode_class(space, 4), [1, 1, 0])


def test_decode_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        decode_class(build_space(3), 7)


def test_decode_class_equals_the_class_matrix_rows():
    for k in range(1, 9):
        space = build_space(k)
        for idx in range(space.n_classes):
            row = decode_class(space, idx)
            assert row.dtype == np.int8
            assert np.array_equal(row, space.class_matrix[idx])


def test_decode_class_builds_no_class_matrix():
    # the dense class matrix at K = 200 is 20101 x 200 int8, about 4 MB
    space = build_space(200)
    tracemalloc.start()
    try:
        rows = [decode_class(space, idx) for idx in (0, 1, 200, space.n_classes - 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert [np.flatnonzero(row).tolist() for row in rows] == [[], [0], [199], [198, 199]]
    assert "class_matrix" not in vars(space)  # the cached property was never computed


def test_decode_encode_identity():
    space = build_space(4)
    for idx in range(space.n_classes):
        assert encode_label(space, decode_class(space, idx)) == idx


def test_projection_caps_active_speakers():
    for k in range(1, 7):
        space = build_space(k)
        for bits in itertools.product((0, 1), repeat=k):
            projected = decode_class(space, encode_label(space, bits))
            assert projected.sum() <= 2


def test_decode_frames_one_hot():
    space = build_space(3)
    scores = np.eye(7)
    out = decode_frames(space, scores)
    assert np.array_equal(out, space.class_matrix)


def test_decode_frames_tie_goes_to_non_speech():
    space = build_space(3)
    out = decode_frames(space, np.ones((5, 7)))
    assert np.array_equal(out, np.zeros((5, 3)))


def test_decode_frames_matches_loop_oracle():
    space = build_space(3)
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((100, 7))
    out = decode_frames(space, scores)
    for t in range(100):
        best, best_score = 0, scores[t, 0]
        for c in range(1, 7):
            if scores[t, c] > best_score:
                best, best_score = c, scores[t, c]
        assert np.array_equal(out[t], decode_class(space, best))
    assert out.sum(axis=1).max() <= 2


def test_decode_frames_rejects_non_finite():
    space = build_space(2)
    scores = np.zeros((3, space.n_classes))
    scores[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decode_frames(space, scores)
