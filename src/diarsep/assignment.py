"""Dense maximum-weight assignment for the DER speaker mapping and PIT."""

import numpy as np

from .features import check_finite


def max_weight_assignment(weights) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a one-to-one matching of min(n, m) pairs of maximum total weight.

    Returns (rows, cols) with rows ascending, like
    ``scipy.optimize.linear_sum_assignment(weights, maximize=True)``; any
    non-finite weight (NaN included) raises ValueError. Solved by shortest
    augmenting paths over dual potentials (the Jonker-Volgenant / e-maxx form
    of the Hungarian method), O(n^2 m) for n <= m; a matrix with more rows
    than columns is solved transposed.

    Tie rule: among equal optima, the one this order reaches first is
    returned. The rows of the smaller side (rows on a square matrix) join the
    matching one at a time in index order, and each path search extends to
    the lowest-index column among equal reduced costs. So a single row of the
    smaller side with equal weight on two columns takes the lower index.
    """
    weights = np.asarray(weights, dtype=np.float64)
    check_finite(weights, "assignment weights")
    transposed = weights.shape[0] > weights.shape[1]
    n, m = weights.shape[::-1] if transposed else weights.shape
    # 1-based costs: row 0 and column 0 are the virtual start of every path
    cost = np.zeros((n + 1, m + 1))
    cost[1:, 1:] = -(weights.T if transposed else weights)
    u, v = np.zeros(n + 1), np.zeros(m + 1)
    row_of = np.zeros(m + 1, dtype=np.intp)  # row matched to each column, 0 for none
    way = np.zeros(m + 1, dtype=np.intp)  # previous column on the shortest path
    for row in range(1, n + 1):
        row_of[0] = row
        col = 0
        min_slack = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[col]:
            used[col] = True
            slack = cost[row_of[col]] - (u[row_of[col]] + v)
            slack[used] = np.inf
            closer = slack < min_slack
            min_slack[closer] = slack[closer]
            way[closer] = col
            col = int(min_slack.argmin())  # the lowest index among equal slacks
            delta = min_slack[col]
            u[row_of[used]] += delta
            v[used] -= delta
            min_slack -= delta
            min_slack[col] = np.inf  # used columns stay out of the search
        while col:  # flip the matching along the path back to the virtual column
            row_of[col] = row_of[way[col]]
            col = way[col]
    cols = np.flatnonzero(row_of[1:])
    rows = row_of[1:][cols] - 1
    if transposed:
        rows, cols = cols, rows
    order = np.argsort(rows)
    return rows[order], cols[order]
