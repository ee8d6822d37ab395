"""Recolor a residual vertex set onto fresh colors via single-vertex moves.

``degeneracy_recolor_greedy`` emits one move per vertex, processed in
degeneracy order, each to the lowest fresh color absent from its
already-processed neighbors. It needs degeneracy+1 fresh colors, and every
prefix stays proper. The first fit runs as one greedy independent-set scan
(``graphs._scan_mis``) per fresh color.
"""

from __future__ import annotations

import numpy as np

from .coloring import Coloring, move_array
from .errors import FreshColorError, InternalInvariantError
from .graphs import Graph, _distinct, _scan_mis, degeneracy_order


def _check_fresh(fresh) -> np.ndarray:
    out = np.asarray(fresh, dtype=np.int64)
    if _distinct(out).shape[0] != out.shape[0]:
        raise FreshColorError("fresh colors must be distinct")
    if out.shape[0] and out.min() < 0:
        raise FreshColorError("fresh colors must be nonnegative")
    return out


def _first_fit(g_u: Graph, order: np.ndarray, delta: int) -> np.ndarray:
    """Index into the fresh list of each vertex's color under the
    sequential first fit along ``order``: the lowest index that none of
    its earlier neighbors holds.

    Scan i walks ``order`` with ``graphs._scan_mis`` over the vertices
    without an index and gives index i to those it takes. A vertex gets i
    exactly when it has no lower index and no earlier neighbor got i,
    which is the first fit's rule. Each vertex has at most ``delta``
    earlier neighbors, so scan delta+1 leaves nothing without an index.
    """
    index = np.full(g_u.n, -1, dtype=np.int64)
    free = np.ones(g_u.n, dtype=bool)
    for i in range(delta + 1):
        if not free.any():
            break
        taken, _ = _scan_mis(g_u, order, free)
        index[taken] = i
        free[taken] = False
    if free.any():
        raise InternalInvariantError("first fit needs more than degeneracy+1 colors")
    return index


def degeneracy_recolor_greedy(g_u: Graph, vmap: np.ndarray, current: Coloring,
                              fresh: list[int]) -> tuple[np.ndarray, int]:
    """Move every vertex of the induced subgraph to a fresh color.

    ``vmap[i]`` is the global label of local vertex i; ``current`` is the
    global coloring. Emits exactly one move per vertex of g_u, in
    degeneracy order, each to the first fresh color (in list order) that
    none of its earlier neighbors took. Returns (moves with global labels,
    degeneracy of g_u). Fails loudly if the fresh list is too small or not
    actually unused.
    """
    fresh = _check_fresh(fresh)
    clash = _distinct(fresh[np.isin(fresh, current.colors)])
    if clash.shape[0]:
        raise FreshColorError(f"fresh colors already in use: {clash[:5].tolist()}")
    delta, order = degeneracy_order(g_u)
    if fresh.shape[0] <= delta:
        raise FreshColorError(
            f"need at least degeneracy+1 = {delta + 1} fresh colors, got {fresh.shape[0]}")
    if order.shape[0] != g_u.n:
        raise InternalInvariantError("residual pass must move every vertex exactly once")
    assigned = fresh[_first_fit(g_u, order, delta)]
    return move_array(np.column_stack((vmap[order], assigned[order]))), delta
