"""Differential test: ``transform_with_report`` against the per-vertex
detour test and class-by-class sweep of ``transform_reference``, under the
chosen sweep order and under forced ones."""

import numpy as np
from hypothesis import given, settings, strategies as st

from colorwalk import (apply_trace, build_graph, coloring_of, hamming,
                       transform_with_report, verify_trace)
from colorwalk.transform import _detour_walk, _sweep_rank
from report_check import assert_same_report
from transform_reference import (reference_rank, reference_sweep_rank,
                                 reference_transform_with_report)


def outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except Exception as exc:  # both sides must fail the same way
        return exc


def assert_same(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    (trace, report), (ref_trace, ref_report) = got, want
    assert np.array_equal(trace.start.colors, ref_trace.start.colors)
    assert trace.start.palette_hint == ref_trace.start.palette_hint
    assert np.array_equal(trace.moves, ref_trace.moves)
    assert (report is None) == (ref_report is None)
    if report is not None:
        assert_same_report(report, ref_report)


def first_fit(g, order):
    colors = np.full(g.n, -1, dtype=np.int64)
    for v in order.tolist():
        taken = set(colors[g.neighbors(v)].tolist())
        colors[v] = next(c for c in range(g.n + 1) if c not in taken)
    return colors


@st.composite
def problems(draw):
    """A graph, two proper colorings on arbitrary (not dense) color ids, a
    work palette and L. A "low" work palette starts with the dense class
    indices the detour run works on, so some palette entries equal a class
    index. With "shared" ids both colorings name their first-fit colors
    alike, so many targets are start colors and many vertices are
    threatened."""
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.shape[0]) < density
    g = build_graph(n, np.stack([u[keep], v[keep]], axis=1))
    kind = draw(st.sampled_from(["above", "low", "any"]))
    low = n + 1 if kind == "low" else 0  # colorings use ids in [low, low + n + 12)
    ids = low + rng.permutation(n + 12)
    shared = draw(st.booleans())
    sigma, tau = ((ids if shared else low + rng.permutation(n + 12))
                  [first_fit(g, rng.permutation(n))] for _ in range(2))
    top = low + n + 12
    if kind == "any":
        palette = rng.permutation(top + 2)[:draw(st.integers(0, top + 2))].tolist()
    else:
        palette = list(range(low)) + list(range(top, top + n + 2))
    L = draw(st.one_of(st.none(), st.integers(0, n)))
    return g, coloring_of(sigma), coloring_of(tau), palette, L


def assert_walk(g, sigma, tau, got):
    """The walk verifies, ends at tau and has hamming + |detour| <= 2n moves."""
    trace, report = got
    ok, failure = verify_trace(g, trace)
    assert ok, failure
    assert np.array_equal(apply_trace(g, trace).colors, tau.colors)
    detour = 0 if report is None else len(report.trace)
    assert len(trace) == hamming(sigma, tau) + detour <= 2 * g.n


@settings(max_examples=300, deadline=None)
@given(problem=problems())
def test_matches_reference_hypothesis(problem):
    # the library's order against the reference's own count and greedy order
    g, sigma, tau, palette, L = problem
    got = outcome(transform_with_report, g, sigma, tau, palette, L=L)
    assert_same(got, outcome(reference_transform_with_report, g, sigma, tau, palette, L=L))
    if not isinstance(got, Exception):
        assert_walk(g, sigma, tau, got)


@settings(max_examples=300, deadline=None)
@given(problem=problems(), which=st.sampled_from(["chosen", "reverse", "random"]),
       seed=st.integers(0, 2**32 - 1))
def test_forced_orders_match_reference(problem, which, seed):
    # the reverse of the chosen order breaks every wish the chosen order
    # keeps, so its detour set is large, up to every threatened vertex
    g, sigma, tau, palette, L = problem
    rank = np.asarray(reference_rank(g, sigma, tau))
    k = rank.shape[0]
    if which == "reverse":
        rank = k - 1 - rank
    elif which == "random":
        rank = np.random.default_rng(seed).permutation(k)
    got = outcome(_detour_walk, g, sigma, tau, palette, L, rank=rank)
    assert_same(got, outcome(reference_transform_with_report, g, sigma, tau, palette,
                             L=L, rank=rank.tolist()))
    if not isinstance(got, Exception):
        assert_walk(g, sigma, tau, got)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.1, 0.3, 0.7]), heavy=st.booleans())
def test_sweep_rank_matches_reference(k, seed, density, heavy):
    # random weighted wish graphs, cycles and two-way wishes included
    rng = np.random.default_rng(seed)
    a, b = np.divmod(np.arange(k * k), k)
    keep = (a != b) & (rng.random(k * k) < density)
    tail, head = a[keep], b[keep]
    weight = rng.integers(1, 50 if heavy else 3, tail.shape[0])
    rank = _sweep_rank(k, tail, head, weight)
    want = reference_sweep_rank(k, dict(zip(zip(tail.tolist(), head.tolist()),
                                            weight.tolist())))
    assert rank.dtype == np.int64 and rank.tolist() == want


def test_sweep_rank_keeps_every_wish_of_an_acyclic_graph():
    tail, head = np.array([0, 0, 2, 4]), np.array([3, 4, 1, 3])
    rank = _sweep_rank(6, tail, head, np.array([1, 2, 3, 4]))
    # class 5 is named by no wish and leads; 2 before 1, 0 before 4 before 3
    assert rank.tolist() == [1, 5, 4, 3, 2, 0]
    assert np.all(rank[tail] < rank[head])


def test_round_color_equal_to_class_index_still_moves():
    # vertex 0 wants class 6 before class 5 and its neighbours want the
    # reverse, twice as strongly, so 5 goes first and vertex 0 alone
    # detours. Its one-vertex detour graph has class index 0, so with the
    # work palette [0, 1] its round color equals its class index: the
    # detour must still move it off 5, or it blocks vertices 1 and 2
    g = build_graph(3, [(0, 1), (0, 2)])
    sigma, tau = coloring_of([5, 6, 6]), coloring_of([6, 5, 5])
    got = transform_with_report(g, sigma, tau, [0, 1], L=0)
    trace = got[0]
    assert trace.moves.tolist() == [[0, 0], [1, 5], [2, 5], [0, 6]]
    ok, failure = verify_trace(g, trace)
    assert ok, failure
    assert apply_trace(g, trace).colors.tolist() == [6, 5, 5]
    assert_same(got, reference_transform_with_report(g, sigma, tau, [0, 1], L=0))
