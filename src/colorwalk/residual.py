"""Recolor a residual vertex set onto fresh colors via single-vertex moves.

``degeneracy_recolor_greedy`` emits one move per vertex, processed in
degeneracy order, each to the lowest fresh color absent from its
already-processed neighbors. It needs degeneracy+1 fresh colors, and every
prefix stays proper.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coloring import Coloring, move_array
from .errors import FreshColorError, InternalInvariantError
from .graphs import Graph, _distinct, _gather, degeneracy_order

# a Jones–Plassmann round with fewer ready vertices than this (at least 1)
# hands the rest of the order to the sequential first fit; on an order
# that chains, such as a path in id order, each round would color one vertex
FIRST_FIT_MIN_READY = 64


class _Csr(NamedTuple):
    """Rows of neighbor entries, in the layout ``graphs._gather`` reads."""

    indptr: np.ndarray
    nbrs: np.ndarray


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

    Runs as Jones–Plassmann rounds with priority = position in ``order``:
    a vertex is ready once all its earlier neighbors have an index, and
    every ready vertex takes the argmin of a (ready x (delta+1)) table of
    the indices those neighbors hold (at most delta of them, so a free
    index exists). Those are the neighbors the sequential rule sees, so the
    indices are the same. Once a round has fewer than FIRST_FIT_MIN_READY
    vertices, the rest follows the sequential rule in order: the indexed
    set is closed under earlier neighbors, so nothing changes.
    """
    n = g_u.n
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    degrees = g_u.degrees.astype(np.int64)
    back = pos[g_u.nbrs] < np.repeat(pos, degrees)  # entry is an earlier neighbor
    # the rows split into a CSR of earlier and one of later neighbors
    seen = np.zeros(back.shape[0] + 1, dtype=np.int64)
    np.cumsum(back, out=seen[1:])
    back_ptr = seen[g_u.indptr]
    earlier = _Csr(back_ptr, g_u.nbrs[back])
    later = _Csr(g_u.indptr - back_ptr, g_u.nbrs[~back])
    left = np.diff(back_ptr)  # earlier neighbors without an index yet
    index = np.full(n, -1, dtype=np.int64)
    ready = np.flatnonzero(left == 0)
    while ready.shape[0] >= FIRST_FIT_MIN_READY:
        row, u = _gather(earlier, ready)
        held = np.zeros((ready.shape[0], delta + 1), dtype=bool)
        held[row, index[u]] = True
        index[ready] = held.argmin(axis=1)
        _, w = _gather(later, ready)
        np.subtract.at(left, w, 1)
        ready = _distinct(w[left[w] == 0])
    rest = order[index[order] < 0]
    if rest.shape[0]:
        _, u = _gather(earlier, rest)
        ends = np.cumsum(back_ptr[rest + 1] - back_ptr[rest]).tolist()
        idx, u, lo = index.tolist(), u.tolist(), 0
        for v, hi in zip(rest.tolist(), ends):
            held = {idx[w] for w in u[lo:hi]}
            c = 0
            while c in held:
                c += 1
            idx[v], lo = c, hi
        index = np.array(idx, dtype=np.int64)
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
