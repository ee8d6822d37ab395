"""Per-vertex references for the residual pass.

``reference_degeneracy_order`` is the lazy-deletion heap on ``(deg, v)``
tuples that ``colorwalk.graphs.degeneracy_order`` ran before it emitted the
isolated vertices first and keyed its heap on plain ints.
``reference_degeneracy_recolor_greedy`` is the set-based first-fit loop of
``colorwalk.residual.degeneracy_recolor_greedy`` before it ran as
Jones–Plassmann rounds. Both are kept as the oracles the library is
checked against; they are not imported by the package.
"""

from __future__ import annotations

import heapq

import numpy as np

from colorwalk.coloring import Coloring, move_array
from colorwalk.errors import FreshColorError, InternalInvariantError
from colorwalk.graphs import Graph


def reference_degeneracy_order(g: Graph) -> tuple[int, np.ndarray]:
    """Same contract and result as ``degeneracy_order``."""
    n = g.n
    deg = g.degrees.astype(np.int64).copy()
    removed = np.zeros(n, dtype=bool)
    heap = [(int(deg[v]), v) for v in range(n)]
    heapq.heapify(heap)
    peel: list[int] = []
    delta = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        delta = max(delta, d)
        peel.append(v)
        for u in g.neighbors(v).tolist():
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (int(deg[u]), u))
    order = np.array(peel[::-1], dtype=np.int64)
    return delta, order


def _check_fresh(fresh: list[int]) -> list[int]:
    out = [int(c) for c in fresh]
    if len(set(out)) != len(out):
        raise FreshColorError("fresh colors must be distinct")
    if any(c < 0 for c in out):
        raise FreshColorError("fresh colors must be nonnegative")
    return out


def reference_degeneracy_recolor_greedy(g_u: Graph, vmap: np.ndarray, current: Coloring,
                                        fresh: list[int]) -> tuple[np.ndarray, int]:
    """Same contract and result as ``degeneracy_recolor_greedy``."""
    fresh = _check_fresh(fresh)
    fresh_set = set(fresh)
    present = set(np.unique(current.colors).tolist()) if current.n else set()
    clash = fresh_set & present
    if clash:
        raise FreshColorError(f"fresh colors already in use: {sorted(clash)[:5]}")
    delta, order = reference_degeneracy_order(g_u)
    if len(fresh) <= delta:
        raise FreshColorError(
            f"need at least degeneracy+1 = {delta + 1} fresh colors, got {len(fresh)}")
    assigned = np.full(g_u.n, -1, dtype=np.int64)
    for v in order.tolist():
        banned = {int(assigned[u]) for u in g_u.neighbors(v).tolist() if assigned[u] >= 0}
        assigned[v] = next(c for c in fresh if c not in banned)
    if order.shape[0] != g_u.n:
        raise InternalInvariantError("residual pass must move every vertex exactly once")
    return move_array(np.column_stack((vmap[order], assigned[order]))), delta
