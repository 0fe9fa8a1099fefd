import itertools
import random
import tracemalloc

import numpy as np
import pytest

from diarsep import PowersetSpace, build_space, decode_frames
from diarsep.cli import main
from oracles import powerset_classes_oracle, powerset_encode_oracle, powerset_matrix_oracle


def test_k3_catalog():
    space = build_space(3)
    members = [space.members(idx) for idx in range(space.n_classes)]
    assert members == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert space.n_classes == 7


def test_k1_catalog():
    space = build_space(1)
    assert [space.members(idx) for idx in range(space.n_classes)] == [(), (0,)]


def test_k5_count():
    assert build_space(5).n_classes == 16  # 1 + 5 + C(5, 2)


def test_class_count_formula():
    # index and members against the catalogue they replace, for every class up to K = 8
    for k in range(1, 9):
        space = build_space(k)
        assert space.n_classes == 1 + k + k * (k - 1) // 2
        classes = powerset_classes_oracle(k)
        assert [space.members(idx) for idx in range(space.n_classes)] == list(classes)
        assert [space.index(list(members)) for members in classes] == list(range(space.n_classes))


def test_build_errors():
    with pytest.raises(ValueError, match="max_speakers"):
        build_space(0)
    with pytest.raises(ValueError, match="max_speakers must be >= 1, got -2"):
        PowersetSpace(-2)


def test_space_stores_nothing_per_class():
    space = build_space(10**6)
    assert vars(space) == {"max_speakers": 10**6}
    assert space.n_classes == 500000500001


@pytest.mark.parametrize("k", [1000, 10**6])
def test_sampled_round_trips_at_large_k(k):
    space = build_space(k)
    rand = random.Random(k)
    last = space.n_classes - 1
    anchors = [0, 1, k, k + 1, k + 2, last - 1, last]
    for idx in anchors + [rand.randrange(space.n_classes) for _ in range(2000)]:
        members = space.members(idx)
        assert list(members) == sorted(set(members)) and all(0 <= m < k for m in members)
        assert space.index(list(members)) == idx
    assert space.members(k + 1) == (0, 1)
    assert space.members(2 * k - 1) == (0, k - 1)
    assert space.members(2 * k) == (1, 2)
    assert space.members(last) == (k - 2, k - 1)


def test_index_rejects_slots_that_are_not_ascending_or_in_range():
    space = build_space(4)
    for active in ([4], [-1], [2, 1], [1, 1], [0, 4]):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            space.index(active)
    assert space.index([1, 3, 0]) == space.index([1, 3])  # only the first two are read


def active_slots(bits) -> list[int]:
    return [slot for slot, bit in enumerate(bits) if bit]


def test_encode_examples():
    space = build_space(3)
    assert space.index(active_slots([1, 0, 1])) == 5
    assert space.index(active_slots([0, 0, 0])) == 0
    # triple overlap: distance 1 to every pair, lowest index wins
    assert space.index(active_slots([1, 1, 1])) == 4


def test_encode_matches_naive_oracle(capsys):
    for k in range(1, 9):
        for bits in itertools.product((0, 1), repeat=k):
            code = main(["powerset", "--num-speakers", str(k), "--encode", "".join(map(str, bits))])
            assert (code, capsys.readouterr()) == (0, (f"{powerset_encode_oracle(k, bits)}\n", "")), bits


def test_decode_examples():
    space = build_space(3)
    assert space.members(0) == ()
    assert space.members(4) == (0, 1)


def test_decode_out_of_range():
    for index in (-1, 7):
        with pytest.raises(ValueError, match="out of range"):
            build_space(3).members(index)


def test_decode_class_builds_no_class_matrix():
    # decoding a class builds no class matrix: the dense one at K = 200 is 20101 x 200
    # int8, about 4 MB; decode_frames of four frames decodes only the four classes
    # they take, and its finite check holds one bool per score
    space = build_space(200)
    indices = (0, 1, 200, space.n_classes - 1)
    scores = np.zeros((len(indices), space.n_classes))
    scores[range(len(indices)), indices] = 1.0
    decoders = (
        (lambda: [space.members(idx) for idx in indices], 64 * 1024),
        (lambda: [np.flatnonzero(row).tolist() for row in decode_frames(space, scores)], 64 * 1024 + scores.size),
    )
    for decode, bound in decoders:
        tracemalloc.start()
        try:
            rows = decode()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert [list(row) for row in rows] == [[], [0], [199], [198, 199]]


def test_powerset_command_at_k1000_allocates_nothing_per_class(capsys):
    # a dense (n_classes, K) class matrix at K = 1000 would be 500500 x 1000 int8, 500 MB
    for argv, want in (("--encode", "1" * 1000), "1001\n"), (("--decode", "1"), "1" + "0" * 999 + "\n"):
        tracemalloc.start()
        try:
            code = main(["powerset", "--num-speakers", "1000", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().out) == (0, want)
        assert peak < 1024 * 1024


def test_decode_encode_identity():
    space = build_space(4)
    for idx in range(space.n_classes):
        assert space.index(space.members(idx)) == idx


def test_projection_caps_active_speakers():
    for k in range(1, 7):
        space = build_space(k)
        for bits in itertools.product((0, 1), repeat=k):
            assert len(space.members(space.index(active_slots(bits)))) <= 2


def test_decode_frames_one_hot():
    for k in range(1, 9):
        space = build_space(k)
        out = decode_frames(space, np.eye(space.n_classes))
        assert out.dtype == np.int8 and out.flags.c_contiguous
        assert np.array_equal(out, powerset_matrix_oracle(k))


def test_decode_frames_tie_goes_to_non_speech():
    space = build_space(3)
    out = decode_frames(space, np.ones((5, 7)))
    assert np.array_equal(out, np.zeros((5, 3)))


def test_decode_frames_matches_loop_oracle():
    space = build_space(3)
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((100, 7))
    out = decode_frames(space, scores)
    matrix = powerset_matrix_oracle(3)
    for t in range(100):
        best, best_score = 0, scores[t, 0]
        for c in range(1, 7):
            if scores[t, c] > best_score:
                best, best_score = c, scores[t, c]
        assert np.array_equal(out[t], matrix[best])
    assert out.sum(axis=1).max() <= 2


def test_decode_frames_rejects_non_finite():
    space = build_space(2)
    scores = np.zeros((3, space.n_classes))
    scores[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decode_frames(space, scores)
