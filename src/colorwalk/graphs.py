"""Immutable simple undirected graphs, random generators, and peeling tools.

Vertices are 0-based contiguous ints. Edges are stored canonically
(u < v, ascending lexicographic) next to a CSR adjacency structure, so
edge iteration, neighbor scans and membership tests are all cheap at the
scales the recoloring runs need (n up to a few 10^5, m in the millions).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .rng import make_rng

PARTITION_RESAMPLE_CAP = 1000
MAX_ID = 2**31 - 1  # vertex ids and class indices are int32


def _comb2(k: int) -> int:
    return k * (k - 1) // 2


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, sorted: ``np.unique`` by one sort.
    numpy 2.4's ``np.unique`` hashes int64 input, which took 0.2 s where
    this takes 4 ms on 0.46M distinct vertex ids (2-vCPU x86 host)."""
    return _dedupe_sorted(np.sort(a))


def _check_n(n: int) -> None:
    # _comb2 of a negative n is positive, so without this the generators
    # fail deep inside numpy; past MAX_ID they would allocate before failing
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > MAX_ID:
        raise ValueError(f"n={n} exceeds the int32 vertex id range")


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with canonical edge arrays and CSR adjacency."""

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    indptr: np.ndarray
    nbrs: np.ndarray

    @property
    def m(self) -> int:
        return int(self.edge_u.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of v (a view, do not mutate)."""
        return self.nbrs[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and int(row[i]) == v

    def edges(self) -> np.ndarray:
        """(m, 2) array of canonical edges, ascending lexicographic."""
        return np.stack([self.edge_u, self.edge_v], axis=1)


def build_graph(n: int, edges) -> Graph:
    """Build a Graph from an iterable/array of vertex pairs.

    Rejects self-loops, duplicate edges and out-of-range endpoints.
    """
    _check_n(n)
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be pairs")
    if arr.shape[0] > 0:
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ValueError("self-loops are not allowed")
    u = np.minimum(arr[:, 0], arr[:, 1])
    v = np.maximum(arr[:, 0], arr[:, 1])
    codes = u * n + v
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    if codes.shape[0] > 1 and np.any(np.diff(codes) == 0):
        raise ValueError("duplicate edges are not allowed")
    return _graph_from_sorted_codes(n, codes)


def _graph_from_sorted_codes(n: int, codes: np.ndarray,
                             ub: np.ndarray | None = None,
                             vb: np.ndarray | None = None) -> Graph:
    """Assemble CSR structure from strictly increasing canonical pair codes.

    ``ub``/``vb`` may carry the already-decoded endpoints of ``codes``.
    """
    m = int(codes.shape[0])
    if n == 0 or m == 0:
        return Graph(n=n, edge_u=np.zeros(0, np.int32), edge_v=np.zeros(0, np.int32),
                     indptr=np.zeros(n + 1, np.int64), nbrs=np.zeros(0, np.int32))
    if ub is None:
        ub, vb = np.divmod(codes, n)
    edge_u = ub.astype(np.int32)
    edge_v = vb.astype(np.int32)
    # both directions as src*n+dst codes; one sort groups by src with dst ascending
    alldir = np.empty(2 * m, np.int64)
    alldir[:m] = codes
    half = alldir[m:]
    np.multiply(vb, n, out=half)
    np.add(half, ub, out=half)
    alldir.sort()
    nbrs = np.empty(2 * m, np.int32)
    np.remainder(alldir, n, out=nbrs, casting="unsafe")
    counts = np.bincount(edge_u, minlength=n) + np.bincount(edge_v, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Graph(n=n, edge_u=edge_u, edge_v=edge_v, indptr=indptr, nbrs=nbrs)


_GEN_CHUNK = 6_000_000


def _tri_block(n: int, k: int) -> int:
    """The block of triangular code k: the largest u with u*(2n-1-u)/2 <= k.
    With s = isqrt((2n-1)**2 - 8k) the real root lies in
    ((2n-2-s)/2, (2n-1-s)/2], so (2n-1-s)//2 is u or u + 1."""
    b = 2 * n - 1
    u = (b - math.isqrt(b * b - 8 * k)) // 2
    return u - 1 if u * (b - u) // 2 > k else u


def _decode_sorted_tri(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (u, v) of ascending triangular pair codes, exactly.

    Code k enumerates the pairs (u, v), u < v, in ascending lexicographic
    order; block u starts at offset u*(2n-1-u)/2. Only the blocks from the
    first code's to the last code's get an offset.
    """
    if codes.shape[0] == 0:
        return codes[:0], codes[:0]
    u = np.arange(_tri_block(n, int(codes[0])), _tri_block(n, int(codes[-1])) + 1)
    off = u * (2 * n - 1 - u) // 2
    counts = np.diff(np.searchsorted(codes, off), append=codes.shape[0])
    vb = np.repeat(off - u - 1, counts)
    np.subtract(codes, vb, out=vb)
    return np.repeat(u, counts), vb


def _draw_tri_codes(rng, n: int, count: int, class_of: np.ndarray | None) -> np.ndarray:
    """``count`` uniform triangular pair codes, sorted, filtered to
    cross-class pairs when class_of is given."""
    allpairs = _comb2(n)
    codes = np.empty(count, np.int64)
    for lo in range(0, count, _GEN_CHUNK):
        f = rng.random(min(_GEN_CHUNK, count - lo))
        np.multiply(f, allpairs, out=f)
        codes[lo:lo + f.shape[0]] = f
    codes.sort()
    if class_of is None:
        return codes
    kept = 0  # the filter keeps a subsequence, so it compacts in place
    for lo in range(0, count, _GEN_CHUNK):
        chunk = codes[lo:lo + _GEN_CHUNK]
        ub, vb = _decode_sorted_tri(n, chunk)
        cross = chunk[class_of[ub] != class_of[vb]]
        codes[kept:kept + cross.shape[0]] = cross
        kept += cross.shape[0]
    return codes[:kept]


def _dedupe_sorted(codes: np.ndarray) -> np.ndarray:
    if codes.shape[0] <= 1:
        return codes
    keep = np.empty(codes.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _uniform_distinct_ints(rng, upper: int, k: int) -> np.ndarray:
    """Uniform k-subset of range(upper), unsorted."""
    if k >= upper:
        return np.arange(upper)
    if k > upper // 3:
        return rng.permutation(upper)[:k]
    picked = np.zeros(0, dtype=np.int64)
    while picked.shape[0] < k:
        draw = rng.integers(0, upper, size=int((k - picked.shape[0]) * 1.3) + 8)
        picked = _distinct(np.concatenate([picked, draw]))
    return picked[rng.permutation(picked.shape[0])[:k]]


def _sample_distinct_tri(rng, n: int, m: int, total: int,
                         class_of: np.ndarray | None) -> np.ndarray:
    """m distinct triangular pair codes forming a uniform m-subset of the
    acceptable pairs (all pairs, or cross-class pairs when class_of given).

    Batched rejection: candidates are drawn exchangeably, so replacing each
    batch's surplus by a uniformly chosen subset keeps the final set exactly
    uniform over m-subsets. ``total`` is the acceptable-pair count.
    """
    if m > total:
        raise InfeasibleError(f"requested {m} edges but only {total} pairs available")
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    allpairs = _comb2(n)
    batches: list[np.ndarray] = []
    merged: np.ndarray | None = None
    have = 0
    while have < m:
        need = m - have
        # expected acceptance = (valid fraction) * (fraction not yet chosen)
        frac = max((total / allpairs) * (1 - have / total), 1e-3)
        want = min(int(need / frac * 1.03) + 16, 6 * total + 64, 60_000_000)
        codes = _dedupe_sorted(_draw_tri_codes(rng, n, want, class_of))
        if merged is not None and merged.shape[0]:
            pos = np.searchsorted(merged, codes)
            pos[pos == merged.shape[0]] = merged.shape[0] - 1
            codes = codes[merged[pos] != codes]
        excess = codes.shape[0] - need
        if excess > 0:
            keep = np.ones(codes.shape[0], dtype=bool)
            keep[_uniform_distinct_ints(rng, codes.shape[0], excess)] = False
            codes = codes[keep]
        batches.append(codes)
        have += codes.shape[0]
        merged = batches[0] if len(batches) == 1 else np.sort(np.concatenate(batches))
    return merged


def _graph_from_tri_codes(n: int, tri_sorted: np.ndarray) -> Graph:
    ub, vb = _decode_sorted_tri(n, tri_sorted)
    codes = ub * n
    codes += vb
    return _graph_from_sorted_codes(n, codes, ub, vb)


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniformly random simple graph with exactly m edges."""
    _check_n(n)
    total = _comb2(n)
    if not 0 <= m <= total:
        raise InfeasibleError(f"m={m} outside [0, {total}] for n={n}")
    rng = make_rng(seed)
    return _graph_from_tri_codes(n, _sample_distinct_tri(rng, n, m, total, None))


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Each of the C(n,2) pairs included independently with probability p.

    Implemented as Bin(C(n,2), p) edges followed by a uniform subset draw,
    which yields exactly the independent-inclusion distribution.
    """
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise InfeasibleError(f"p={p} outside [0, 1]")
    total = _comb2(n)
    rng = make_rng(seed)
    m = int(rng.binomial(total, p)) if total else 0
    return _graph_from_tri_codes(n, _sample_distinct_tri(rng, n, m, total, None))


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint classes covering [n]; class_of maps vertex -> class index.
    Class members, sizes and pair counts are all derived from class_of."""

    q: int
    class_of: np.ndarray

    @property
    def n(self) -> int:
        return int(self.class_of.shape[0])

    @property
    def class_sizes(self) -> list[int]:
        return np.bincount(self.class_of, minlength=self.q).tolist()

    def internal_pair_count(self) -> int:
        # the sizes of the nonempty classes only, so q never sets the cost
        s = np.sort(self.class_of)
        cuts = np.flatnonzero(s[1:] != s[:-1]) + 1
        sizes = np.diff(np.concatenate(([0], cuts, [s.shape[0]])))
        return int((sizes * (sizes - 1) // 2).sum())

    def cross_pair_count(self) -> int:
        return _comb2(self.n) - self.internal_pair_count()


def partition_from_class_of(class_of, q: int | None = None) -> Partition:
    arr = np.asarray(class_of)
    if (not np.can_cast(arr.dtype, np.int32) and arr.size
            and (arr.min() < -MAX_ID - 1 or arr.max() > MAX_ID)):
        raise ValueError("class index beyond the int32 range")  # the cast would wrap it
    arr = arr.astype(np.int32, copy=False)
    if q is None:
        q = int(arr.max()) + 1 if arr.size else 0
    if q < 1:
        raise InfeasibleError("q must be >= 1")
    if arr.size and (arr.min() < 0 or arr.max() >= q):
        raise ValueError("class index out of range")
    return Partition(q=q, class_of=arr)


def balanced_partition(n: int, q: int, seed: int) -> Partition:
    """Random partition with class sizes differing by at most one."""
    _check_n(n)
    if q < 1:
        raise InfeasibleError("q must be >= 1")
    rng = make_rng(seed)
    perm = rng.permutation(n)
    class_of = np.empty(n, dtype=np.int32)
    class_of[perm] = np.arange(n, dtype=np.int32) % q
    return partition_from_class_of(class_of, q)


def min_internal_pairs(n: int, q: int) -> int:
    """Minimum of sum_i C(|V_i|,2) over all partitions of [n] into q classes."""
    base, extra = divmod(n, q)
    return extra * _comb2(base + 1) + (q - extra) * _comb2(base)


def random_partition(n: int, q: int, m: int, seed: int) -> Partition:
    """Uniform class per vertex, resampled until the planted-size constraint
    sum_i C(|V_i|,2) <= C(n,2) - m holds.

    Raises InfeasibleError when no partition at all can satisfy it, and after
    PARTITION_RESAMPLE_CAP failed resamples (violations are vanishingly rare
    at sane parameters).
    """
    _check_n(n)
    if q < 1:
        raise InfeasibleError("q must be >= 1")
    budget = _comb2(n) - m
    if m < 0 or budget < 0:
        raise InfeasibleError(f"m={m} outside [0, C({n},2)]")
    if min_internal_pairs(n, q) > budget:
        raise InfeasibleError(
            f"no partition of {n} vertices into {q} classes leaves room for {m} cross edges")
    rng = make_rng(seed)
    for _ in range(PARTITION_RESAMPLE_CAP):
        class_of = rng.integers(0, q, size=n, dtype=np.int32)
        part = partition_from_class_of(class_of, q)
        if part.internal_pair_count() <= budget:
            return part
    raise InfeasibleError(
        f"partition constraint still violated after {PARTITION_RESAMPLE_CAP} resamples")


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    """Graph + partition + the planted coloring sigma (class index per vertex)."""

    graph: Graph
    partition: Partition

    def __post_init__(self):
        g, part = self.graph, self.partition
        if g.n != part.n:
            raise ValueError("graph and partition sizes differ")
        from .coloring import is_proper
        if not is_proper(g, self.sigma):
            raise ValueError("planted instance has an edge inside a color class")

    @property
    def sigma(self):
        from .coloring import Coloring
        return Coloring(self.partition.class_of.astype(np.int64),
                        palette_hint=self.partition.q)


def _planted_edges(rng, part: Partition, m: int) -> np.ndarray:
    return _sample_distinct_tri(rng, part.n, m, part.cross_pair_count(),
                                part.class_of)


def gen_planted_m(partition: Partition, m: int, seed: int) -> PlantedInstance:
    """m distinct edges drawn uniformly from the cross-class pairs."""
    rng = make_rng(seed)
    codes = _planted_edges(rng, partition, m)
    return PlantedInstance(graph=_graph_from_tri_codes(partition.n, codes),
                           partition=partition)


def gen_planted_p(partition: Partition, p_hat: float, seed: int) -> PlantedInstance:
    """Each cross-class pair included independently with probability p_hat."""
    if not 0.0 <= p_hat <= 1.0:
        raise InfeasibleError(f"p_hat={p_hat} outside [0, 1]")
    rng = make_rng(seed)
    total = partition.cross_pair_count()
    m = int(rng.binomial(total, p_hat)) if total else 0
    codes = _planted_edges(rng, partition, m)
    return PlantedInstance(graph=_graph_from_tri_codes(partition.n, codes),
                           partition=partition)


def gen_planted(n: int, q: int, m: int, seed: int,
                model: str = "m") -> PlantedInstance:
    """Random partition (constraint-checked) plus planted edges in one call.

    model "m": exactly m uniform cross edges. model "p": independent cross
    pairs with probability p_hat = d_hat / n computed from the partition.
    """
    part = random_partition(n, q, m, seed)
    if model == "m":
        return gen_planted_m(part, m, seed + 1)
    if model == "p":
        nq = part.cross_pair_count()
        if nq == 0:
            raise InfeasibleError("no cross-class pairs")
        p_hat = min(m / nq, 1.0)
        return gen_planted_p(part, p_hat, seed + 1)
    raise ValueError(f"unknown planted model {model!r}")


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by ``vertices``.

    Returns (subgraph, vmap) where vmap[i] is the original label of local
    vertex i; local labels follow ascending original labels.
    """
    vmap = _distinct(np.asarray(vertices, dtype=np.int64).reshape(-1))
    if vmap.size and (vmap[0] < 0 or vmap[-1] >= g.n):
        raise ValueError("vertex out of range")
    keep = _inner_edges(g, vmap)
    k = int(vmap.size)
    local = np.empty(g.n, dtype=np.int64)
    local[vmap] = np.arange(k)
    # the relabelling is monotone, so canonical edges stay canonical and
    # their codes stay ascending
    codes = np.take(local, g.edge_u[keep]) * k
    codes += np.take(local, g.edge_v[keep])
    return _graph_from_sorted_codes(k, codes), vmap


def count_edges_within(g: Graph, vertices) -> int:
    """Number of edges with both endpoints in ``vertices``."""
    idx = np.asarray(vertices, dtype=np.int64)
    if idx.size == 0:
        return 0
    if idx.min() < 0 or idx.max() >= g.n:
        raise ValueError("vertex out of range")
    return int(np.count_nonzero(_inner_edges(g, idx)))


def _inner_edges(g: Graph, vertices: np.ndarray) -> np.ndarray:
    """Mask of the edges with both ends in ``vertices``, which are in range."""
    in_s = np.zeros(g.n, dtype=bool)
    in_s[vertices] = True
    return np.take(in_s, g.edge_u) & np.take(in_s, g.edge_v)


# a peel pass that would remove fewer vertices than this (at least 1) hands
# the rest of the graph to the heap; on a chained input, such as a long
# path, each pass would remove two vertices
PEEL_MIN_BATCH = 64


def degeneracy_order(g: Graph) -> tuple[int, np.ndarray]:
    """Degeneracy and a matching vertex order.

    Returns the reversed peel sequence, so each vertex has at most
    ``degeneracy`` neighbors among its predecessors in the order, and the
    last vertex has minimum degree.

    The peel runs as batched k-core passes. Each pass sets
    k = max(k, min live degree) and removes every live vertex of degree
    <= k at once, in index order; their live neighbors lose one degree per
    removed neighbor. A vertex removed at level k has at most k live
    neighbors, batch-mates included, and the live graph has minimum degree
    k whenever k rises, so the largest k is the degeneracy. Only the
    neighbors a pass touched can join the next batch; the live vertices
    are scanned again only when k rises.

    Once a pass would remove fewer than PEEL_MIN_BATCH vertices, the
    subgraph of the live vertices peels one minimum-degree vertex at a
    time (lowest index on ties) through ``_heap_peel``. A graph whose
    first pass is that small, such as any graph below PEEL_MIN_BATCH
    vertices, gets exactly the heap's order. Larger graphs get a different
    order than the heap alone would give, with the same degeneracy and the
    same bound on earlier neighbors.
    """
    n = g.n
    deg = g.degrees.astype(np.int64)
    removed = np.zeros(n, dtype=bool)
    live = np.arange(n)  # a superset of the live vertices, ascending
    peel: list[np.ndarray] = []
    delta = 0  # the level k; its last value is the degeneracy
    batch = live[:0]
    while True:
        if not batch.shape[0]:  # k rises: scan the live vertices again
            live = live[~removed[live]]
            if not live.shape[0]:
                break
            live_deg = deg[live]
            delta = max(delta, int(live_deg.min()))
            batch = live[live_deg <= delta]
        if batch.shape[0] < PEEL_MIN_BATCH:
            rest = live[~removed[live]]
            if rest.shape[0] == n:
                return _heap_peel(g)
            sub, vmap = induced_subgraph(g, rest)
            sub_delta, tail = _heap_peel(sub)
            delta = max(delta, sub_delta)
            peel.append(vmap[tail[::-1]])
            break
        removed[batch] = True
        peel.append(batch)
        _, u = _gather(g, batch)
        u = u[~np.take(removed, u)]
        np.subtract.at(deg, u, 1)
        touched = _distinct(u)
        batch = touched[deg[touched] <= delta]
    order = np.concatenate(peel)[::-1] if peel else np.zeros(0, dtype=np.int64)
    return delta, order.astype(np.int64)


def _heap_peel(g: Graph) -> tuple[int, np.ndarray]:
    """``degeneracy_order`` one vertex at a time: peel a minimum-degree
    vertex repeatedly, lowest index on ties.

    One lazy-deletion heap of int keys ``deg*n + v``, which pop in the
    same order as ``(deg, v)`` pairs; a peeled vertex's degree is set to
    -1.
    """
    n = g.n
    deg = g.degrees.astype(np.int64)
    heap = (deg * n + np.arange(n)).tolist()
    heapq.heapify(heap)
    indptr, nbrs, deg = g.indptr.tolist(), g.nbrs.tolist(), deg.tolist()
    pop, push = heapq.heappop, heapq.heappush
    peel: list[int] = []
    delta = 0
    while heap:
        d, v = divmod(pop(heap), n)
        if d != deg[v]:
            continue
        deg[v] = -1
        if d > delta:
            delta = d
        peel.append(v)
        for u in nbrs[indptr[v]:indptr[v + 1]]:
            du = deg[u]
            if du > 0:
                deg[u] = du - 1
                push(heap, (du - 1) * n + u)
    return delta, np.array(peel[::-1], dtype=np.int64)


def _gather(g: Graph, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, u): u runs over the neighbor lists of ``vs`` in order, and
    u[i] is a neighbor of vs[row[i]]. Callers pass fewer than 2**31
    rows."""
    start = g.indptr[vs]
    deg = g.indptr[vs + 1] - start
    ends = np.cumsum(deg)
    row = np.repeat(np.arange(vs.shape[0], dtype=np.int32), deg)
    total = int(ends[-1]) if ends.shape[0] else 0
    u = g.nbrs[np.arange(total) + np.repeat(start - ends + deg, deg)]
    return row, u


# ranked vertices the scan settles per window: a window gathers only the
# rows still undecided when it starts, where one pass over every rank would
# gather every row of the round
MIS_WINDOW = 4096
# the first window's size; each next window doubles up to MIS_WINDOW, so an
# order whose first window stalls has read at most this many rows in vain
MIS_FIRST_WINDOW = 256
# a pass that decides less than 1/MIS_STALL of its window's undecided
# vertices stalls the window, which then settles by the sequential rule
MIS_STALL = 4


def _window_bounds(r: int) -> Iterator[tuple[int, int]]:
    """The scan's windows over ranks [0, r), as (lo, hi)."""
    lo, size = 0, min(MIS_FIRST_WINDOW, MIS_WINDOW)
    while lo < r:
        yield lo, min(lo + size, r)
        lo, size = lo + size, min(2 * size, MIS_WINDOW)


def _rank_rounds(size: int, live: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Rank rounds on a window of ``size`` positions: ``live`` holds the
    undecided ones and (a[i], b[i]), a[i] < b[i], the edges between them.
    Each pass, an undecided position with no undecided lower neighbor
    joins and its neighbors are decided. Returns (joined, rest, passes):
    the joiner mask; the positions still undecided after a pass that
    decided less than 1/MIS_STALL of them, which ends the rounds (empty if
    none did); and the number of passes run."""
    undecided = np.zeros(size, dtype=bool)
    undecided[live] = True
    joined = np.zeros(size, dtype=bool)
    left, passes = live.shape[0], 0
    while a.shape[0]:
        blocked = np.zeros(size, dtype=bool)
        blocked[b] = True
        join = undecided & ~blocked
        joined |= join
        undecided &= ~join
        undecided[b[join[a]]] = False
        keep = undecided[a] & undecided[b]
        a, b = a[keep], b[keep]
        passes += 1
        before, left = left, int(np.count_nonzero(undecided))
        if a.shape[0] and left * MIS_STALL > before * (MIS_STALL - 1):
            return joined, np.flatnonzero(undecided), passes
    return joined | undecided, live[:0], passes


def _walk(g: Graph, vs: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """The sequential rule over ``vs``, in order: each vertex not in
    ``dead`` joins, and its neighbors join ``dead``. Returns the joiners.
    Only their rows are read."""
    ptr, nbrs, is_dead = memoryview(g.indptr), memoryview(g.nbrs), memoryview(dead)
    joins: list[int] = []
    for v in memoryview(vs):  # makes each int as it goes, unlike tolist
        if not is_dead[v]:
            joins.append(v)
            lo, hi = ptr[v], ptr[v + 1]
            if hi - lo > 32:  # past about 32 entries one numpy call is faster
                dead[g.nbrs[lo:hi]] = True
            else:
                for u in nbrs[lo:hi]:
                    is_dead[u] = True
    return np.array(joins, dtype=np.int64)


def _scan_mis(g: Graph, order: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk ``order`` and take each vertex that is still free; a taken
    vertex and its neighbors stop being free. ``free`` is not modified.

    Returns the taken vertices in scan order and the free count before the
    scan and after each take.

    The walk runs as rank rounds (Blelloch, Fineman and Shun, SPAA 2012).
    Each free vertex is ranked by its first position in ``order``, and the
    ranked vertices are settled a window of ranks at a time: the first
    holds MIS_FIRST_WINDOW ranks, and each next one twice as many as the
    last, up to MIS_WINDOW. Inside a window, a vertex joins once no
    undecided window neighbor has a lower rank; the joiners and their
    neighbors are decided, and passes repeat until the whole window is.
    Lower ranks outside the window were decided by earlier windows, so the
    joiners are exactly the walk's takes, in rank order. A free vertex
    stops being free at the first take in its closed neighborhood, which
    gives the free counts. A window gathers its rows' neighbor entries
    once and keeps only those to free, undecided vertices; the passes and
    the free counts read that subset.

    Few passes suffice when the order is unrelated to the edges. An order
    that follows them chains the ranks: on a path in id order each pass
    joins one vertex, and on a dense band most gathered rows belong to
    vertices an earlier take in the same window knocks out. So once a pass
    decides less than 1/MIS_STALL of the window's undecided vertices, the
    rest of the window is settled by the sequential rule (``_walk``), which
    reads only the joiners' rows. If that happens in a window's first pass,
    every later window is settled by it from the start.
    """
    n = g.n
    cand = order[free[order]]
    pos = np.arange(cand.shape[0])
    first = np.full(n, cand.shape[0])  # first position of each vertex in cand
    np.minimum.at(first, cand, pos)
    ranked = cand[first[cand] == pos]
    r = ranked.shape[0]
    # rank of each undecided ranked vertex; r marks a free vertex missing
    # from ``order``, and r + 1 a vertex that is not free or is decided
    rank = np.where(free, r, r + 1)
    rank[ranked] = np.arange(r)
    leave = np.full(n, n)  # take index at which a free vertex stops being free
    dead = np.zeros(n, dtype=bool)  # neighbors of the sequential rule's joiners
    chained = False  # a window's first pass stalled: walk every later window
    taken: list[np.ndarray] = []
    t = 0
    for lo, hi in _window_bounds(r):
        window = ranked[lo:hi]
        live = np.flatnonzero(rank[window] < r)
        if not live.shape[0]:
            continue
        if chained:
            joined = np.zeros(window.shape[0], dtype=bool)
            joined[rank[_walk(g, window[live], dead)] - lo] = True
            rows = np.flatnonzero(joined)
        else:
            rows = live
        row, u = _gather(g, window[rows])
        # np.take reads through int32 indices about twice as fast as rank[u]
        ru = np.take(rank, u)
        # only entries to free, undecided vertices matter below: the rest
        # are dropped once, before any pass over the entries
        keep = np.flatnonzero(ru <= r)
        u, ru = u[keep], ru[keep]
        src = rows[row[keep]]  # window positions, rank - lo
        if not chained:
            # each undecided window edge once, from its lower-ranked end
            inner = ru < src + lo
            joined, rest, passes = _rank_rounds(window.shape[0], live,
                                                ru[inner] - lo, src[inner])
            if rest.shape[0]:
                joined[rank[_walk(g, window[rest], dead)] - lo] = True
                chained = passes == 1
        takes = window[joined]
        index = np.cumsum(joined) + (t - 1)  # take index of each joiner
        hit = joined[src]
        lost = u[hit]  # the joiners' still-free neighbors, one entry per joiner
        # explicit minimum: numpy does not promise which repeated index wins
        np.minimum.at(leave, lost, index[src[hit]])
        leave[takes] = index[joined]
        rank[lost] = r + 1
        rank[takes] = r + 1
        taken.append(takes)
        t += takes.shape[0]
    gone = leave[free]
    dropped = np.zeros(t + 1, dtype=np.int64)  # frees lost up to each take
    np.cumsum(np.bincount(gone[gone < t], minlength=t), out=dropped[1:])
    taken_arr = np.concatenate(taken) if taken else order[:0]
    return taken_arr.astype(np.int64, copy=False), gone.shape[0] - dropped


def greedy_mis(g: Graph, order) -> np.ndarray:
    """Greedy maximal independent set: scan ``order``, add each vertex with
    no previously added neighbor. Returns the sorted member array."""
    order = np.asarray(order, dtype=np.int64)
    if order.shape[0] != g.n or (g.n and not np.array_equal(np.sort(order), np.arange(g.n))):
        raise ValueError("order must be a permutation of the vertices")
    taken, _ = _scan_mis(g, order, np.ones(g.n, dtype=bool))
    return np.sort(taken)
