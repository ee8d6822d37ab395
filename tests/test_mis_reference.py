"""Differential tests: ``greedy_mis`` and the windowed rank-round scan
behind it (``graphs._scan_mis``) against the per-vertex loops they
replaced (``mis_reference``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import colorwalk.graphs as graphs
from colorwalk import build_graph, greedy_mis
from mis_reference import reference_greedy_mis, reference_scan_mis


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]))
def test_matches_reference_hypothesis(n, seed, density):
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.shape[0]) < density
    g = build_graph(n, np.stack([u[keep], v[keep]], axis=1))
    order = rng.permutation(n)
    got = greedy_mis(g, order)
    want = reference_greedy_mis(g, order)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def scan_order(rng, n, kind):
    """A scan order with repeated entries: a class prefix followed by a full
    permutation (as the greedy rounds build it), draws with replacement
    that may miss free vertices, or a plain permutation."""
    if kind == "prefix":
        prefix = rng.permutation(n)[:rng.integers(0, n + 1)]
        return np.concatenate((np.sort(prefix), rng.permutation(n)))
    if kind == "draws" and n:
        return rng.integers(0, n, size=rng.integers(0, 2 * n + 1))
    return rng.permutation(n)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]),
       free_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       kind=st.sampled_from(["prefix", "draws", "permutation"]))
def test_scan_matches_reference_hypothesis(n, seed, density, free_share, kind):
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.shape[0]) < density
    g = build_graph(n, np.stack([u[keep], v[keep]], axis=1))
    free = rng.random(n) < free_share
    order = scan_order(rng, n, kind)
    want_taken, want_counts = reference_scan_mis(g, order, free.copy())
    # windows of 1, 2 or 3 ranks, windows doubling from 1, and the default;
    # MIS_STALL 1 stalls the first pass that leaves an undecided edge, after
    # which the sequential rule settles the rest of the scan; 10**9 never stalls
    for first, window in ((None, 1), (None, 2), (None, 3), (1, None), (None, None)):
        for stall in (1, None, 10**9):
            with pytest.MonkeyPatch.context() as mp:
                if first is not None:
                    mp.setattr(graphs, "MIS_FIRST_WINDOW", first)
                if window is not None:
                    mp.setattr(graphs, "MIS_WINDOW", window)
                if stall is not None:
                    mp.setattr(graphs, "MIS_STALL", stall)
                given_free = free.copy()
                taken, counts = graphs._scan_mis(g, order, given_free)
            case = (first, window, stall)
            assert taken.dtype == want_taken.dtype
            assert np.array_equal(taken, want_taken), case
            assert counts.dtype == np.int64
            assert np.array_equal(counts, want_counts), case
            assert np.array_equal(given_free, free)  # the scan leaves ``free`` alone


def test_scan_on_a_path_with_a_class_prefix():
    # 0-1-2-3-4: the prefix takes 1 and 3, then the permutation adds nothing
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    free = np.ones(5, dtype=bool)
    order = np.array([3, 1, 0, 1, 2, 3, 4])
    for window in (1, 2, 3, None):
        with pytest.MonkeyPatch.context() as mp:
            if window is not None:
                mp.setattr(graphs, "MIS_WINDOW", window)
            taken, counts = graphs._scan_mis(g, order, free)
        assert taken.tolist() == [3, 1]
        assert np.array_equal(counts, [5, 2, 0])


def test_windows_double_from_the_first_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(graphs, "MIS_FIRST_WINDOW", 3)
    monkeypatch.setattr(graphs, "MIS_WINDOW", 10)
    assert list(graphs._window_bounds(40)) == [(0, 3), (3, 9), (9, 19), (19, 29),
                                                (29, 39), (39, 40)]
    assert list(graphs._window_bounds(0)) == []


def chained_graphs(windows):
    """Graphs whose id order chains the ranks, ``windows`` default windows
    long: a path, a row-major grid and a band joining each vertex to the
    next twenty (rows past the walk's 32-entry cut)."""
    n = windows * graphs.MIS_WINDOW
    ids = np.arange(n)
    side = 64
    cells = np.arange(side * (n // side)).reshape(-1, side)
    yield "path", build_graph(n, np.column_stack((ids[:-1], ids[1:])))
    yield "grid", build_graph(cells.size, np.concatenate((
        np.column_stack((cells[:, :-1].ravel(), cells[:, 1:].ravel())),
        np.column_stack((cells[:-1].ravel(), cells[1:].ravel())))))
    yield "band", build_graph(n, np.concatenate(
        [np.column_stack((ids[:-k], ids[k:])) for k in range(1, 21)]))


@pytest.mark.parametrize("name, g", list(chained_graphs(3)))
def test_id_order_reads_one_window_then_only_the_takes(monkeypatch, name, g):
    # In id order each pass of these graphs decides a handful of vertices,
    # so pass-by-pass settling would take thousands of passes per window,
    # and each window's rows would mostly belong to vertices knocked out
    # inside it. The first window's first pass stalls and the sequential
    # rule settles the rest; later windows use it from the start and read
    # only the takes' rows.
    gathered = []
    gather = graphs._gather

    def spy(g, vs):
        gathered.append(vs.shape[0])
        return gather(g, vs)

    monkeypatch.setattr(graphs, "_gather", spy)
    order = np.arange(g.n)
    free = np.ones(g.n, dtype=bool)
    want_taken, want_counts = reference_scan_mis(g, order, free.copy())
    taken, counts = graphs._scan_mis(g, order, free)
    assert np.array_equal(taken, want_taken)
    assert np.array_equal(counts, want_counts)
    assert gathered[0] == graphs.MIS_FIRST_WINDOW
    assert sum(gathered[1:]) < taken.shape[0]
