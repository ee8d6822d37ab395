"""Differential tests: ``degeneracy_order`` and the scan-per-color first
fit behind ``degeneracy_recolor_greedy`` against the heap and the
per-vertex loop they replaced (``residual_reference``).

At the default ``PEEL_MIN_BATCH`` the graphs drawn here are small enough
that the batched peel hands them to the heap at once, so the order must
equal the heap's. With the threshold at 4 or 1, passes are batched and
the order differs from the heap's; it is checked by its properties
instead, and the first fit along it against the per-vertex loop along the
same order. The first fit is also checked along random orders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import colorwalk.graphs as graphs
import colorwalk.residual as residual
from colorwalk import (FreshColorError, build_graph, coloring_of, degeneracy_order,
                       degeneracy_recolor_greedy, gen_planted, induced_subgraph,
                       run_greedy_recolor)
from residual_reference import (reference_degeneracy_order,
                                reference_degeneracy_recolor_greedy, reference_first_fit)

# PEEL_MIN_BATCH values: the heap peels the whole graph, the rest after
# some batched passes on most graphs drawn here, or nothing
PEEL_THRESHOLDS = (10**9, 4, 1)


def random_graph(rng, n, density):
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.shape[0]) < density
    return build_graph(n, np.stack([u[keep], v[keep]], axis=1))


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, edges)


def band(n, width):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + width + 1))])


def with_isolated(g, extra):
    """g plus ``extra`` isolated vertices spread between its vertices."""
    n = g.n + extra
    label = np.sort(np.random.default_rng(extra).permutation(n)[:g.n])
    return build_graph(n, np.stack([label[g.edge_u], label[g.edge_v]], axis=1))


def check(g, rng):
    delta, order = degeneracy_order(g)
    want_delta, want_order = reference_degeneracy_order(g)
    assert delta == want_delta
    assert order.dtype == want_order.dtype
    assert np.array_equal(order, want_order)
    # a residual inside a larger graph: vmap is not the identity, the fresh
    # list is out of order and has room to spare
    outside = int(rng.integers(0, 4))
    host = build_graph(g.n + outside, np.stack([g.edge_u + outside, g.edge_v + outside], axis=1))
    g_u, vmap = induced_subgraph(host, np.arange(outside, host.n))
    current = coloring_of(rng.integers(0, 5, size=host.n), 5)
    fresh = (5 + rng.permutation(delta + 1 + int(rng.integers(0, 3)))).tolist()
    want_moves, want_delta = reference_degeneracy_recolor_greedy(g_u, vmap, current, fresh)
    moves, got_delta = degeneracy_recolor_greedy(g_u, vmap, current, fresh)
    assert got_delta == want_delta
    assert moves.dtype == want_moves.dtype
    assert np.array_equal(moves, want_moves)
    for peel_threshold in PEEL_THRESHOLDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "PEEL_MIN_BATCH", peel_threshold)
            delta, order = degeneracy_order(g)
            assert_valid_order(g, delta, order, want_delta)
            again = degeneracy_order(g)
            assert again[0] == delta and np.array_equal(again[1], order)
            if peel_threshold == 10**9:
                assert np.array_equal(order, want_order)
            # the first fit along the library's own order
            _, local_order = degeneracy_order(g_u)
            along = reference_first_fit(g_u, vmap, local_order, fresh)
            moves, got_delta = degeneracy_recolor_greedy(g_u, vmap, current, fresh)
            assert got_delta == want_delta
            assert np.array_equal(moves, along), peel_threshold


def assert_valid_order(g, delta, order, want_delta):
    """``order`` is a permutation of the vertices in which each vertex has
    at most ``delta`` earlier neighbors, ``delta`` is the heap's
    degeneracy, and the last vertex has minimum degree."""
    assert delta == want_delta
    assert order.dtype == np.int64
    assert np.array_equal(np.sort(order), np.arange(g.n))
    if g.n:
        assert earlier_counts(g, order).max() <= delta
        assert g.degrees[order[-1]] == g.degrees.min()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, 0.9]),
       isolated=st.integers(0, 5))
def test_random_graphs_match_reference(n, seed, density, isolated):
    rng = np.random.default_rng(seed)
    check(with_isolated(random_graph(rng, n, density), isolated), rng)


@pytest.mark.parametrize("g", [
    path(1), path(2), path(40), path(300), grid(1, 7), grid(5, 6), grid(12, 15),
    band(30, 1), band(30, 3), band(200, 6), with_isolated(path(20), 10),
    with_isolated(grid(4, 4), 7), build_graph(0, []), build_graph(12, []),
], ids=lambda g: f"n{g.n}-m{g.m}")
def test_id_ordered_shapes_match_reference(g):
    check(g, np.random.default_rng(g.n))


def earlier_counts(g, order):
    """Each vertex's number of neighbors before it in ``order``."""
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(g.n)
    src = np.repeat(np.arange(g.n), g.degrees)
    return np.bincount(src[pos[g.nbrs] < pos[src]], minlength=g.n)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.3, 0.9]))
def test_first_fit_along_random_orders_matches_reference(n, seed, density):
    # any order, not only a degeneracy order: delta is the order's own
    # largest count of earlier neighbors, so scan delta+1 must finish
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, density)
    order = rng.permutation(n)
    delta = int(earlier_counts(g, order).max()) if n else 0
    index = residual._first_fit(g, order, delta)
    want = reference_first_fit(g, np.arange(n), order, list(range(delta + 1)))
    assert index.dtype == np.int64
    assert np.array_equal(index[order], want[:, 1])


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 6), copies=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_many_ties_match_reference(k, copies, seed):
    # disjoint copies of K_k, K_{k,k} and a k-star: equal degrees everywhere,
    # so the tie rule decides the whole order
    edges, base = [], 0
    for _ in range(copies):
        edges += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
        base += k
        edges += [(base + i, base + k + j) for i in range(k) for j in range(k)]
        base += 2 * k
        edges += [(base, base + 1 + i) for i in range(k)]
        base += k + 1
    perm = np.random.default_rng(seed).permutation(base)
    shuffled = [(int(perm[a]), int(perm[b])) for a, b in edges]
    for g in (build_graph(base, edges), build_graph(base, shuffled)):
        check(g, np.random.default_rng(seed))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
       fresh=st.lists(st.integers(-2, 12), max_size=6))
def test_errors_match_reference(n, seed, fresh):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, 0.4)
    g_u, vmap = induced_subgraph(g, np.arange(n))
    current = coloring_of(rng.integers(0, 6, size=n), 6)

    def outcome(f):
        try:
            moves, delta = f(g_u, vmap, current, fresh)
        except FreshColorError as exc:
            return str(exc)
        return moves.tolist(), delta

    assert outcome(degeneracy_recolor_greedy) == outcome(reference_degeneracy_recolor_greedy)


def test_in_use_message_lists_the_first_five_sorted():
    g_u, vmap = induced_subgraph(build_graph(8, []), np.arange(8))
    current = coloring_of(np.arange(8), 8)
    with pytest.raises(FreshColorError) as exc:
        degeneracy_recolor_greedy(g_u, vmap, current, [20, 7, 6, 1, 0, 3, 21, 4])
    assert str(exc.value) == "fresh colors already in use: [0, 1, 3, 4, 6]"


def paths(*lengths):
    """Disjoint id-ordered paths of the given lengths, one after another."""
    ends = np.cumsum(lengths)
    u = np.arange(ends[-1] - 1)
    return build_graph(int(ends[-1]), np.stack([u, u + 1], axis=1)[~np.isin(u, ends - 1)])


def planted_residual(n, d, seed):
    inst = gen_planted(n, 3, round(d * n / 2), seed=seed)
    rep = run_greedy_recolor(inst)
    left = np.ones(n, dtype=bool)
    left[rep.finalized] = False
    g_u, _ = induced_subgraph(inst.graph, np.flatnonzero(left))
    return g_u


@pytest.mark.parametrize("make, heap_share", [
    # a forest: batched passes, then the heap on a tail of a few vertices
    (lambda: planted_residual(20_000, 2, 5), "tail"),
    # 400 vertices a pass, down to the paths' middle edges: never the heap
    (lambda: paths(*[500] * 200), "none"),
    # the short paths peel in batches; the long one is left to the heap
    (lambda: paths(*[500] * 200, 2000), "tail"),
    # 120 ends peel at k = 1, and the 30 middles left are isolated: the
    # heap's own degeneracy is 0, below k
    (lambda: paths(*[3] * 30, *[2] * 30), "tail"),
], ids=["planted-n2e4-d2", "paths-200x500", "paths-200x500-and-2000", "paths-30x3-30x2"])
def test_orders_on_both_sides_of_the_fallback(make, heap_share, monkeypatch):
    g = make()
    heap_sizes = []
    heap_peel = graphs._heap_peel

    def spy(h):
        heap_sizes.append(h.n)
        return heap_peel(h)

    monkeypatch.setattr(graphs, "_heap_peel", spy)
    delta, order = degeneracy_order(g)
    monkeypatch.undo()
    want_delta, _ = reference_degeneracy_order(g)
    assert_valid_order(g, delta, order, want_delta)
    if heap_share == "none":
        assert heap_sizes == []
    else:
        assert len(heap_sizes) == 1 and 0 < heap_sizes[0] < g.n // 4
