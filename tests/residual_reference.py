"""Per-vertex references for the residual pass.

``reference_degeneracy_order`` is the lazy-deletion heap on ``(deg, v)``
tuples that ``colorwalk.graphs.degeneracy_order`` ran before it peeled in
batched k-core passes (it still does on graphs whose first pass is below
``PEEL_MIN_BATCH`` vertices). ``reference_degeneracy_recolor_greedy`` is
the set-based first-fit loop of ``colorwalk.residual.degeneracy_recolor_greedy``
before it ran as array passes, along the heap's order;
``reference_first_fit`` is that loop along any given order, which
``residual._first_fit`` (one greedy scan per fresh color) must match. They are kept
as the oracles the library is checked against; they are not imported by
the package.

``inductive_replay_recolor`` and ``inductive_recolor`` are the paper-style
inductive construction of the residual recoloring: peel one low-degree
vertex, recolor the rest, and replay that move sequence with the vertex
moved aside whenever it blocks a move. Its output length can roughly
double per vertex, hence the hard size cap. It serves as a second
construction that the degeneracy-greedy pass is checked against, so it
takes its order from ``reference_degeneracy_order``, not from the library.
"""

from __future__ import annotations

import heapq

import numpy as np

from colorwalk.coloring import Coloring, move_array
from colorwalk.errors import CapError, FreshColorError, InternalInvariantError
from colorwalk.graphs import Graph, induced_subgraph

INDUCTIVE_CAP = 20


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
    if order.shape[0] != g_u.n:
        raise InternalInvariantError("residual pass must move every vertex exactly once")
    return reference_first_fit(g_u, vmap, order, fresh), delta


def reference_first_fit(g_u: Graph, vmap: np.ndarray, order: np.ndarray,
                        fresh: list[int]) -> np.ndarray:
    """The moves of the sequential first fit along ``order``: each vertex,
    in turn, to the first fresh color (in list order) that none of its
    earlier neighbors took, labelled through ``vmap``."""
    assigned = np.full(g_u.n, -1, dtype=np.int64)
    for v in order.tolist():
        banned = {int(assigned[u]) for u in g_u.neighbors(v).tolist() if assigned[u] >= 0}
        assigned[v] = next(c for c in fresh if c not in banned)
    return move_array(np.column_stack((vmap[order], assigned[order])))


def inductive_replay_recolor(g_u: Graph, vmap: np.ndarray, current: Coloring,
                             fresh: list[int], base_path,
                             cap: int = INDUCTIVE_CAP) -> np.ndarray:
    """One inductive extension step of the replay construction.

    Let v be the final vertex of the degeneracy order of g_u (a minimum
    degree vertex). ``base_path`` must recolor the subgraph minus v onto
    fresh colors, starting from ``current``. The step replays base_path on
    all of g_u; whenever a replayed move collides with v's current color,
    v is first moved to a fresh color valid in its neighborhood, then the
    replayed move proceeds. If v still lacks a fresh color afterwards one
    closing move is appended. Output length <= 2*len(base_path) + 1.

    Vertices outside g_u must not hold fresh colors; vertices inside g_u
    may (that is how tests stage the collision case).
    """
    fresh = _check_fresh(fresh)
    if g_u.n > cap:
        raise CapError(f"inductive replay capped at {cap} vertices, got {g_u.n}")
    if g_u.n == 0:
        return move_array([])
    fresh_set = set(fresh)
    _, order = reference_degeneracy_order(g_u)
    v_new = int(order[-1])
    v_new_global = int(vmap[v_new])

    colors = {int(vmap[i]): int(current.colors[vmap[i]]) for i in range(g_u.n)}
    nbrs_global = {int(vmap[i]): [int(vmap[j]) for j in g_u.neighbors(i).tolist()]
                   for i in range(g_u.n)}

    if g_u.n == 1:
        # base case: a single vertex moves straight to a fresh color
        return move_array([] if colors[v_new_global] in fresh_set
                          else [(v_new_global, fresh[0])])

    def valid_fresh_for(v: int) -> int:
        banned = {colors[u] for u in nbrs_global[v]}
        banned.add(colors[v])
        for c in fresh:
            if c not in banned:
                return c
        raise FreshColorError(f"no valid fresh color for vertex {v}")

    out: list[tuple[int, int]] = []

    def emit(v: int, c: int) -> None:
        if colors[v] == c:
            raise InternalInvariantError("replay produced a no-op move")
        blockers = [u for u in nbrs_global[v] if colors[u] == c]
        if blockers:
            raise InternalInvariantError(
                f"replay produced an improper move: {v} -> {c} blocked by {blockers}")
        colors[v] = c
        out.append((v, c))

    for w, c in move_array(base_path).tolist():
        blockers = [u for u in nbrs_global[w] if colors[u] == c]
        if blockers:
            if blockers != [v_new_global]:
                raise InternalInvariantError(
                    f"replayed move {w} -> {c} blocked by {blockers}, "
                    f"expected only the new vertex {v_new_global}")
            emit(v_new_global, valid_fresh_for(v_new_global))
        emit(w, c)

    if colors[v_new_global] not in fresh_set:
        emit(v_new_global, valid_fresh_for(v_new_global))
    if len(out) > 2 * len(base_path) + 1:
        raise InternalInvariantError("replay exceeded the 2r+1 length bound")
    return move_array(out)


def inductive_recolor(g_u: Graph, vmap: np.ndarray, current: Coloring,
                      fresh: list[int], cap: int = INDUCTIVE_CAP) -> np.ndarray:
    """Full inductive construction: peel the graph down one minimum-degree
    vertex at a time, then extend the move sequence back up step by step.
    Endpoint matches the greedy pass's palette usage; length can be
    exponential in the vertex count, hence the cap.
    """
    if g_u.n > cap:
        raise CapError(f"inductive replay capped at {cap} vertices, got {g_u.n}")
    if g_u.n == 0:
        return move_array([])
    if g_u.n == 1:
        return inductive_replay_recolor(g_u, vmap, current, fresh, [], cap)
    _, order = reference_degeneracy_order(g_u)
    v_new = int(order[-1])
    rest_local = np.array([i for i in range(g_u.n) if i != v_new], dtype=np.int64)
    sub, sub_map_local = induced_subgraph(g_u, rest_local)
    sub_vmap = vmap[sub_map_local]
    base = inductive_recolor(sub, sub_vmap, current, fresh, cap)
    return inductive_replay_recolor(g_u, vmap, current, fresh, base, cap)
