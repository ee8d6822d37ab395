"""Exhaustive ground truth on tiny instances.

Enumerates every proper q-coloring by backtracking, builds the exact
solution-space graph (colorings adjacent iff they differ at one vertex),
labels its connected components, and certifies traces against it. All of
it is sized for n around 8 and a few thousand colorings; the point is an
independent check of the constructive machinery, not scale.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .coloring import Coloring, Trace, iter_moves
from .errors import CapError, InfeasibleError
from .graphs import Graph
from .rng import make_rng

ENUMERATION_CAP = 10 ** 8


def enumerate_colorings(g: Graph, q: int) -> list[tuple[int, ...]]:
    """All proper q-colorings of g in lexicographic order.

    Backtracking over vertices 0..n-1 with ascending colors, pruning any
    partial assignment that already clashes with a lower-indexed neighbor.
    ENUMERATION_CAP guards the raw q**n assignment space.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    n = g.n
    if q ** max(n, 1) > ENUMERATION_CAP:
        raise CapError(f"q^n = {q}^{n} exceeds enumeration cap {ENUMERATION_CAP}")
    if n == 0:
        return [()]
    back_nbrs = [g.neighbors(v)[g.neighbors(v) < v].tolist() for v in range(n)]
    out: list[tuple[int, ...]] = []
    assign = [0] * n

    def backtrack(v: int) -> None:
        if v == n:
            out.append(tuple(assign))
            return
        for c in range(q):
            if all(assign[u] != c for u in back_nbrs[v]):
                assign[v] = c
                backtrack(v + 1)
        assign[v] = 0

    backtrack(0)
    return out


@dataclass(eq=False)
class HqGraph:
    """Exact solution-space graph over an enumerated coloring list."""

    q: int
    colorings: list[tuple[int, ...]]
    adjacency: list[list[int]]
    component_id: np.ndarray
    index: dict[tuple[int, ...], int]

    @property
    def z_q(self) -> int:
        return len(self.colorings)

    @property
    def component_count(self) -> int:
        return int(self.component_id.max()) + 1 if self.z_q else 0

    def component_sizes(self) -> list[int]:
        return np.bincount(self.component_id, minlength=self.component_count).tolist()

    def component_of(self, coloring: tuple[int, ...]) -> int:
        return int(self.component_id[self.index[coloring]])


def build_hq(colorings: list[tuple[int, ...]], q: int) -> HqGraph:
    """Assemble the solution-space graph from an enumerated coloring list.

    Neighbors are generated by mutating one vertex at a time and looking
    the result up, so the cost is Z * n * q rather than Z^2. Components
    come from a breadth-first sweep over the same neighbor generator.
    """
    index = {c: i for i, c in enumerate(colorings)}
    if len(index) != len(colorings):
        raise ValueError("duplicate colorings in input")
    z = len(colorings)
    adjacency: list[list[int]] = [[] for _ in range(z)]
    for i, col in enumerate(colorings):
        lst = list(col)
        for v in range(len(lst)):
            orig = lst[v]
            for c in range(q):
                if c == orig:
                    continue
                lst[v] = c
                j = index.get(tuple(lst))
                if j is not None:
                    adjacency[i].append(j)
            lst[v] = orig
        adjacency[i].sort()
    component_id = np.full(z, -1, dtype=np.int64)
    comp = 0
    for s in range(z):
        if component_id[s] >= 0:
            continue
        stack = [s]
        component_id[s] = comp
        while stack:
            i = stack.pop()
            for j in adjacency[i]:
                if component_id[j] < 0:
                    component_id[j] = comp
                    stack.append(j)
        comp += 1
    return HqGraph(q=q, colorings=colorings, adjacency=adjacency,
                   component_id=component_id, index=index)


def enumerate_hq(g: Graph, q: int) -> HqGraph:
    return build_hq(enumerate_colorings(g, q), q)


def giant_fraction(h: HqGraph) -> float:
    """Size of the largest component over the number of colorings."""
    if h.z_q == 0:
        raise InfeasibleError("no proper colorings (Z_q = 0)")
    return max(h.component_sizes()) / h.z_q


def sample_uniform_coloring(g: Graph, q: int, seed: int) -> Coloring:
    """Uniformly random proper q-coloring via full enumeration."""
    colorings = enumerate_colorings(g, q)
    if not colorings:
        raise InfeasibleError("no proper colorings (Z_q = 0)")
    rng = make_rng(seed)
    pick = colorings[int(rng.integers(len(colorings)))]
    return Coloring(np.asarray(pick, dtype=np.int64), q)


def certify_trace(h: HqGraph, trace: Trace) -> bool:
    """True iff every coloring along the trace is a vertex of h and each
    consecutive pair is one of h's edges."""
    current = list(trace.start.as_tuple())
    if any(c >= h.q or c < 0 for c in current):
        raise ValueError(f"start coloring uses a color outside [0, {h.q})")
    i = h.index.get(tuple(current))
    if i is None:
        return False
    for s, (v, c) in enumerate(iter_moves(trace.moves)):
        if not 0 <= v < len(current):
            raise ValueError(f"step {s}: vertex {v} out of range")
        if not 0 <= c < h.q:
            raise ValueError(f"move color {c} outside [0, {h.q})")
        current[v] = c
        j = h.index.get(tuple(current))
        if j is None:
            return False
        row = h.adjacency[i]
        pos = _bisect(row, j)
        if pos is None:
            return False
        i = j
    return True


def _bisect(row: list[int], x: int) -> int | None:
    import bisect
    k = bisect.bisect_left(row, x)
    if k < len(row) and row[k] == x:
        return k
    return None
