"""Per-vertex reference for ``colorwalk.greedy.run_greedy_recolor``.

This is the heap-based round loop the library used before every selector
became one precomputed candidate order. Each round it heapifies the
candidate set under the selector's key and pops it one vertex at a time,
with separate passes for the line-A batch, the candidate set and the
candidate loop. It is kept as the oracle the library is checked against
field for field; it is not imported by the package.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import numpy as np

from colorwalk.coloring import Coloring, Move, Trace
from colorwalk.errors import InternalInvariantError, PaletteError
from colorwalk.graphs import induced_subgraph
from colorwalk.greedy import SELECTORS, _check_palette, derive_params
from colorwalk.residual import degeneracy_recolor_greedy
from colorwalk.rng import make_rng


class _IdentityPalette:
    """Unbounded palette where color r is used for round r."""

    def __getitem__(self, i: int) -> int:
        return i


def reference_greedy_recolor(inst, palette=None, L=None, selector="lowest",
                             selector_seed=None, strict=False) -> SimpleNamespace:
    """Same contract as ``run_greedy_recolor``. The report is a namespace
    holding every value of a ``GreedyReport`` under its name, the ones the
    library derives included, each built by this loop."""
    g = inst.graph
    part = inst.partition
    n, q = g.n, part.q
    params = derive_params(n, g.m, q, part.cross_pair_count())
    if L is None:
        L = params.l_cutoff
    if L < 0:
        raise ValueError("L must be >= 0")

    colors = part.class_of.astype(np.int64).copy()
    auto_palette = palette is None
    if auto_palette:
        pal = _IdentityPalette()
    else:
        _check_palette(palette, colors, q)
        pal = list(palette)

    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}")
    priority = None
    if selector == "random":
        priority = make_rng(selector_seed if selector_seed is not None else 0).random(n)
    degrees = g.degrees

    in_u = np.ones(n, dtype=bool)
    u_count = n
    classes = [np.flatnonzero(part.class_of == j) for j in range(q)]
    class_remaining = np.array([c.shape[0] for c in classes], dtype=np.int64)
    trajectory = [n]
    round_pools: list[list[int]] = []
    round_classes: list[int] = []
    finalized: list[int] = []
    moves: list[Move] = []
    indptr, nbrs = g.indptr, g.nbrs
    rounds = 0
    k_ptr = 0

    def heap_key(v: int):
        if selector == "lowest":
            return v
        if selector == "random":
            return (priority[v], v)
        return (-int(degrees[v]), v)

    while u_count > L:
        while k_ptr < q and class_remaining[k_ptr] == 0:
            k_ptr += 1
        if k_ptr == q:
            raise InternalInvariantError("uncolored vertices left but all classes empty")
        if not auto_palette and rounds >= len(pal):
            raise PaletteError(
                f"palette exhausted after {rounds} rounds with {u_count} vertices uncolored",
                rounds_completed=rounds)
        target = int(pal[rounds])
        k = k_ptr

        members = classes[k]
        batch = members[in_u[members]]
        pool = [u_count]
        in_pool = in_u.copy()

        # line A: the whole remaining class becomes this round's color
        in_u[batch] = False
        class_remaining[k] = 0
        for v in batch.tolist():
            if strict:
                row = nbrs[indptr[v]:indptr[v + 1]]
                if row.shape[0] and bool(np.any(colors[row] == target)):
                    raise InternalInvariantError(f"move of {v} would be improper")
            if colors[v] != target:
                moves.append(Move(v, target))
                colors[v] = target
            finalized.append(v)
            u_count -= 1
            trajectory.append(u_count)
            # round pool: the finalized vertex leaves, and so do its
            # still-pooled neighbors (same-class members are never neighbors)
            removed = 1 if in_pool[v] else 0
            in_pool[v] = False
            row = nbrs[indptr[v]:indptr[v + 1]]
            if row.shape[0]:
                removed += int(np.count_nonzero(in_pool[row]))
                in_pool[row] = False
            pool.append(pool[-1] - removed)

        # candidate set: uncolored vertices with no neighbor in the batch
        in_cand = in_u.copy()
        for v in batch.tolist():
            in_cand[nbrs[indptr[v]:indptr[v + 1]]] = False
        cand = np.flatnonzero(in_cand)
        if selector == "lowest":
            heap = cand.tolist()  # ascending list is already a valid min-heap
        else:
            heap = [(heap_key(int(v)), int(v)) for v in cand.tolist()]
            heapq.heapify(heap)

        while heap:
            if selector == "lowest":
                v = heapq.heappop(heap)
            else:
                _, v = heapq.heappop(heap)
            if not in_cand[v]:
                continue
            if strict:
                row = nbrs[indptr[v]:indptr[v + 1]]
                if row.shape[0] and bool(np.any(colors[row] == target)):
                    raise InternalInvariantError(f"move of {v} would be improper")
            in_cand[v] = False
            in_u[v] = False
            u_count -= 1
            class_remaining[part.class_of[v]] -= 1
            moves.append(Move(v, target))
            colors[v] = target
            finalized.append(v)
            trajectory.append(u_count)
            removed = 1 if in_pool[v] else 0
            in_pool[v] = False
            row = nbrs[indptr[v]:indptr[v + 1]]
            if row.shape[0]:
                removed += int(np.count_nonzero(in_pool[row]))
                in_pool[row] = False
                in_cand[row] = False
            pool.append(pool[-1] - removed)
        rounds += 1
        round_pools.append(pool)
        round_classes.append(k)

    # residual pass on the leftover set
    residual_vertices = np.flatnonzero(in_u)
    residual_size = int(residual_vertices.shape[0])
    residual_moves: list[Move] = []
    residual_degeneracy = 0
    fresh_used: list[int] = []
    if residual_size:
        g_u, vmap = induced_subgraph(g, residual_vertices)
        current = Coloring(colors, max(int(colors.max()) + 1, q))
        present = set(np.unique(colors).tolist())
        if auto_palette:
            first_fresh = max(q, (max(present) + 1) if present else 0)
            fresh = list(range(first_fresh, first_fresh + residual_size + 1))
        else:
            fresh = [c for c in pal[rounds:] if c not in present]
        residual_moves, residual_degeneracy = degeneracy_recolor_greedy(
            g_u, vmap, current, fresh)
        fresh_used = sorted({c for _, c in residual_moves})
        for v, c in residual_moves:
            colors[v] = c

    trace = Trace(start=inst.sigma, moves=moves + list(residual_moves))
    phase1 = rounds
    residual_colors = len(fresh_used)
    total = phase1 + residual_colors
    report = SimpleNamespace(
        trace=trace, rounds=rounds, phase1_colors=phase1,
        residual_colors=residual_colors, total_colors=total,
        residual_size=residual_size, residual_degeneracy=residual_degeneracy,
        trajectory=trajectory, round_pools=round_pools,
        round_classes=round_classes, finalized=finalized,
        params=params, l_used=int(L), residual_fresh_used=fresh_used)
    return report
