"""The bottleneck distance between eigenvalue multisets, a test oracle.

Criterion 6 and the truncated-generator tests compare the dense eigenvalues
of two matrices with it; `test_spectral.py` checks it against brute force
over all pairings.
"""

import bisect

import numpy as np

from gaussgauge import DimensionError
from gaussgauge.errors import require_finite


def eigenvalue_multiset_distance(a, b):
    """Bottleneck distance between two eigenvalue multisets of one size.

    The least, over all pairings of a with b, of the largest matched
    |a_i - b_j|; two empty multisets are at distance 0. A level admits a
    pairing when the graph of costs <= level has a perfect matching; no
    pairing beats the largest row or column minimum, so that level is tried
    first and the sorted distinct costs above it are bisected only if it
    fails. Raises DimensionError for multisets of different sizes and
    NonFiniteInputError for a NaN or infinite value.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    a, b = np.ravel(a), np.ravel(b)
    if a.size != b.size:
        raise DimensionError(f"multisets of sizes {a.size} and {b.size} cannot be paired")
    require_finite(a=a, b=b)
    if not a.size:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    row_ends = np.arange(a.size + 1)

    def pairs(level):
        # CSR straight from the row-major nonzero indices: scipy's conversion
        # of the dense boolean mask costs more than the matching itself
        rows, cols = np.nonzero(cost <= level)
        indptr = np.searchsorted(rows, row_ends)
        graph = csr_array((np.ones(cols.size, dtype=bool), cols, indptr), shape=cost.shape)
        return bool(np.all(maximum_bipartite_matching(graph) >= 0))

    floor = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    if pairs(floor):
        return float(floor)
    # pairs() turns True at one level and stays True; the largest cost pairs anything
    levels = np.unique(cost[cost > floor])
    return float(levels[bisect.bisect_left(levels, True, key=pairs)])
