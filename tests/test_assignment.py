import numpy as np
import pytest

from diarsep.assignment import max_weight_assignment
from oracles import assignment_oracle


def check_against_oracle(weights):
    rows, cols = max_weight_assignment(weights)
    oracle_rows, oracle_cols = assignment_oracle(weights)
    n, m = weights.shape
    # a partial permutation of min(n, m) pairs, rows ascending
    assert len(rows) == len(cols) == min(n, m)
    assert np.all(np.diff(rows) > 0)
    assert len(set(cols.tolist())) == len(cols)
    assert np.all((0 <= rows) & (rows < n)) and np.all((0 <= cols) & (cols < m))
    assert weights[rows, cols].sum() == pytest.approx(weights[oracle_rows, oracle_cols].sum(), abs=1e-9)


def test_optimum_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(30)
    for trial in range(2000):
        n, m = (int(k) for k in rng.integers(1, 9, size=2))
        if trial % 2:
            weights = rng.integers(0, 4, size=(n, m)).astype(float)  # many tied optima
        else:
            weights = rng.uniform(-50.0, 50.0, size=(n, m))
        check_against_oracle(weights)


def test_empty_and_thin_shapes():
    rng = np.random.default_rng(31)
    for shape in ((0, 4), (4, 0), (0, 0), (1, 500), (500, 1), (4, 500), (500, 4)):
        check_against_oracle(rng.uniform(0.0, 10.0, size=shape))


def test_tie_rule():
    # one row of the smaller side with equal weights on two columns takes the lower index
    assert [a.tolist() for a in max_weight_assignment(np.ones((2, 1)))] == [[0], [0]]
    assert [a.tolist() for a in max_weight_assignment(np.ones((1, 3)))] == [[0], [0]]
    assert [a.tolist() for a in max_weight_assignment(np.zeros((3, 3)))] == [[0, 1, 2], [0, 1, 2]]
    assert [a.tolist() for a in max_weight_assignment(np.array([[1.0, 1.0], [0.0, 0.0]]))] == [[0, 1], [0, 1]]


def test_non_finite_weights_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        weights = np.ones((3, 4))
        weights[1, 2] = bad
        with pytest.raises(ValueError, match="assignment weights must be finite"):
            max_weight_assignment(weights)

