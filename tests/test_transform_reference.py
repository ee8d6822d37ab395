"""Differential test: ``transform_with_report`` against the per-vertex
target sweep it replaced (``transform_reference``)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from colorwalk import (apply_trace, build_graph, coloring_of, transform_with_report,
                       verify_trace)
from report_check import assert_same_report
from transform_reference import reference_transform_with_report


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
    indices phase 1 runs on, so some palette entries equal a class
    index."""
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.shape[0]) < density
    g = build_graph(n, np.stack([u[keep], v[keep]], axis=1))
    kind = draw(st.sampled_from(["above", "low", "any"]))
    low = n + 1 if kind == "low" else 0  # colorings use ids in [low, low + n + 12)
    sigma, tau = (low + rng.permutation(n + 12)[first_fit(g, rng.permutation(n))]
                  for _ in range(2))
    top = low + n + 12
    if kind == "any":
        palette = rng.permutation(top + 2)[:draw(st.integers(0, top + 2))].tolist()
    else:
        palette = list(range(low)) + list(range(top, top + n + 2))
    L = draw(st.one_of(st.none(), st.integers(0, n)))
    return g, coloring_of(sigma), coloring_of(tau), palette, L


@settings(max_examples=300, deadline=None)
@given(problem=problems())
def test_matches_reference_hypothesis(problem):
    g, sigma, tau, palette, L = problem
    got = outcome(transform_with_report, g, sigma, tau, palette, L=L)
    assert_same(got, outcome(reference_transform_with_report, g, sigma, tau, palette, L=L))
    if not isinstance(got, Exception):
        ok, failure = verify_trace(g, got[0])
        assert ok, failure


def test_round_color_equal_to_class_index_still_moves():
    # sigma's classes renumber to 0 and 1, so with the work palette [0, 1]
    # each round color equals its class index; phase 1 must still move both
    # classes off sigma's colors, or vertex 0 keeps 5 and blocks vertex 1
    g = build_graph(3, [(0, 1), (0, 2)])
    sigma, tau = coloring_of([5, 6, 6]), coloring_of([6, 5, 5])
    got = transform_with_report(g, sigma, tau, [0, 1], L=0)
    trace = got[0]
    assert trace.moves.tolist() == [[0, 0], [1, 1], [2, 1], [1, 5], [2, 5], [0, 6]]
    ok, failure = verify_trace(g, trace)
    assert ok, failure
    assert apply_trace(g, trace).colors.tolist() == [6, 5, 5]
    assert_same(got, reference_transform_with_report(g, sigma, tau, [0, 1], L=0))
