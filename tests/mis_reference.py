"""Per-vertex reference for ``colorwalk.graphs.greedy_mis``.

This is the loop ``greedy_mis`` ran before it and the greedy rounds shared
one scan (``graphs._scan_mis``). It is kept as the oracle the library is
checked against; it is not imported by the package.
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
