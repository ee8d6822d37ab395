"""Per-vertex references for ``colorwalk.graphs.greedy_mis`` and the scan
behind it, ``graphs._scan_mis``.

``reference_greedy_mis`` is the loop ``greedy_mis`` ran before it and the
greedy rounds shared one scan. ``reference_scan_mis`` is that scan's loop
before it ran as windowed rank rounds. Both are kept as the oracles the
library is checked against; they are not imported by the package.
"""

from __future__ import annotations

import numpy as np


def reference_greedy_mis(g, order) -> np.ndarray:
    """Same contract and result as ``greedy_mis``."""
    order = np.asarray(order, dtype=np.int64)
    if order.shape[0] != g.n or (g.n and not np.array_equal(np.sort(order), np.arange(g.n))):
        raise ValueError("order must be a permutation of the vertices")
    blocked = np.zeros(g.n, dtype=bool)
    member = np.zeros(g.n, dtype=bool)
    for v in order.tolist():
        if not blocked[v]:
            member[v] = True
            blocked[g.neighbors(v)] = True
            blocked[v] = True
    return np.flatnonzero(member)


def reference_scan_mis(g, order: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Same result as ``_scan_mis``: walk ``order`` and take each vertex that
    is still free; a taken vertex and its neighbors stop being free
    (``free`` is updated in place). Returns the taken vertices in scan
    order and the free count before the scan and after each take."""
    indptr, nbrs = g.indptr, g.nbrs
    taken: list[int] = []
    counts = [int(np.count_nonzero(free))]
    for v in order[free[order]].tolist():
        if free[v]:
            row = nbrs[indptr[v]:indptr[v + 1]]
            counts.append(counts[-1] - 1 - int(np.count_nonzero(free[row])))
            free[v] = False
            free[row] = False
            taken.append(v)
    return np.array(taken, dtype=np.int64), counts
