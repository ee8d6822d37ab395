import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorwalk import (Coloring, Move, Trace, apply_trace, build_graph,
                       coloring_of, colors_used, gen_gnm, gen_planted, hamming, is_proper,
                       verify_trace)
from colorwalk.coloring import (CHUNK, REASON_BAD_START, REASON_MONOCHROMATIC,
                                REASON_NOOP)


def k3():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


class TestIsProper:
    def test_k3_rainbow(self):
        assert is_proper(k3(), coloring_of([0, 1, 2]))

    def test_monochromatic_edge(self):
        g = build_graph(2, [(0, 1)])
        assert not is_proper(g, coloring_of([0, 0]))

    def test_empty_graph_any_coloring(self):
        g = build_graph(4, [])
        assert is_proper(g, coloring_of([5, 5, 5, 5]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_proper(k3(), coloring_of([0, 1]))


def path(m):
    """The path 0 - 1 - ... - m: its edges are canonical in path order."""
    return build_graph(m + 1, np.column_stack((np.arange(m), np.arange(1, m + 1))))


def flipped_after(n, k):
    """0, 1, 0, 1, ... on the path's n vertices, flipped after vertex k:
    the path edge (k, k + 1) is its only monochromatic edge."""
    colors = np.arange(n) % 2
    colors[k + 1:] ^= 1
    return coloring_of(colors, 3)


class TestStartCheckInBlocks:
    """``is_proper`` and the start check of ``verify_trace`` read the edge
    arrays CHUNK edges at a time; a monochromatic edge is found in any
    block, a full last block included."""

    @staticmethod
    def outcomes(g, start):
        trace = Trace(start=start, moves=[Move(0, 2)])
        return is_proper(g, start), verify_trace(g, trace)

    @pytest.mark.parametrize("m, k", [(2 * CHUNK + 5, 2 * CHUNK + 4), (2 * CHUNK, 2 * CHUNK - 1),
                                      (2 * CHUNK + 1, 2 * CHUNK), (2 * CHUNK, CHUNK),
                                      (2 * CHUNK + 5, CHUNK - 1), (1, 0)])
    def test_only_monochromatic_edge(self, m, k):
        # edge k is the last of a partial block, of a full last block (m a
        # multiple of CHUNK), alone in the last block, first or last of a
        # full block, or the only edge
        g = path(m)
        assert self.outcomes(g, flipped_after(m + 1, m)) == (True, (True, None))
        assert self.outcomes(g, flipped_after(m + 1, k)) == (
            False, (False, (-1, REASON_BAD_START)))

    def test_no_edges(self):
        g = build_graph(4, [])
        assert g.m == 0
        assert self.outcomes(g, coloring_of([0, 0, 0, 0], 3)) == (True, (True, None))

    def test_edges_hidden_from_the_arrays(self):
        # the edge arrays show only the even path edges (2i, 2i+1), as a
        # graph from cases() in test_verify_reference may hide edges its
        # CSR keeps; the last block of shown edges is partial. The start
        # makes every hidden edge monochromatic and no shown one
        m = 2 * CHUNK + 6
        full = path(m)
        g = dataclasses.replace(full, edge_u=full.edge_u[::2], edge_v=full.edge_v[::2])
        colors = (np.arange(m + 1) + 1) // 2 % 2
        start = coloring_of(colors, 9)
        assert not is_proper(full, start)
        assert self.outcomes(g, start) == (True, (True, None))
        # a move still sees the CSR: vertex 3 onto the color of vertex 2
        assert verify_trace(g, Trace(start=start, moves=[(1, 5), (3, int(colors[2]))])) == (
            False, (1, REASON_MONOCHROMATIC))
        colors[m - 1] = colors[m - 2]  # the last shown edge, (m - 2, m - 1)
        assert self.outcomes(g, coloring_of(colors, 9)) == (
            False, (False, (-1, REASON_BAD_START)))


class TestHamming:
    def test_identical(self):
        c = coloring_of([0, 1, 2])
        assert hamming(c, c) == 0

    def test_all_differ(self):
        assert hamming(coloring_of([0] * 7), coloring_of([1] * 7)) == 7

    def test_single(self):
        assert hamming(coloring_of([0, 0, 0]), coloring_of([0, 1, 0])) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming(coloring_of([0]), coloring_of([0, 1]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_metric_properties(self, data):
        n = data.draw(st.integers(1, 8))
        cols = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        a = coloring_of(data.draw(cols))
        b = coloring_of(data.draw(cols))
        c = coloring_of(data.draw(cols))
        assert hamming(a, b) == hamming(b, a)
        assert (hamming(a, b) == 0) == np.array_equal(a.colors, b.colors)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestColorsUsed:
    def test_constant(self):
        assert colors_used(coloring_of([0, 0, 0])) == 1

    def test_identity(self):
        assert colors_used(coloring_of(list(range(9)))) == 9

    def test_gaps(self):
        assert colors_used(coloring_of([0, 2, 2, 5])) == 3


def naive_verify(g, trace):
    """Re-check the whole coloring after every prefix; oracle for the
    streaming verifier."""
    colors = trace.start.colors.copy()
    if not is_proper(g, Coloring(colors, max(int(colors.max(initial=0)) + 1, 1))):
        return False, -1
    for step, (v, c) in enumerate(trace.moves):
        if colors[v] == c:
            return False, step
        colors[v] = c
        hint = max(int(colors.max(initial=0)) + 1, 1)
        if not is_proper(g, Coloring(colors.copy(), hint)):
            return False, step
    return True, None


class TestVerifyTrace:
    def test_empty_trace(self):
        g = k3()
        ok, failure = verify_trace(g, Trace(start=coloring_of([0, 1, 2])))
        assert ok and failure is None

    def test_monochromatic_failure(self):
        g = build_graph(2, [(0, 1)])
        t = Trace(start=coloring_of([0, 1]), moves=[Move(0, 1)])
        ok, failure = verify_trace(g, t)
        assert not ok
        assert failure.step == 0 and failure.reason == REASON_MONOCHROMATIC

    def test_noop_failure(self):
        g = build_graph(2, [(0, 1)])
        t = Trace(start=coloring_of([0, 1]), moves=[Move(0, 0)])
        ok, failure = verify_trace(g, t)
        assert not ok and failure.reason == REASON_NOOP

    def test_improper_start(self):
        g = build_graph(2, [(0, 1)])
        ok, failure = verify_trace(g, Trace(start=coloring_of([1, 1])))
        assert not ok and failure.reason == REASON_BAD_START

    def test_k3_walk(self):
        g = k3()
        t = Trace(start=coloring_of([0, 1, 2]),
                  moves=[Move(0, 3), Move(1, 0), Move(0, 1)])
        ok, failure = verify_trace(g, t)
        assert ok
        end = apply_trace(g, t)
        assert end.colors.tolist() == [1, 0, 2]

    def test_scratch_does_not_grow_with_m(self):
        """The start check reads CHUNK edges at a time and a pass at most
        NEIGHBOR_BUDGET neighbor entries, so verify's peak at m = 2e6 is
        within 1 MB of its peak at m = 2e5 (n = 1e5 for both): two m-long
        gathers for the start check would add 29 MB."""
        peaks = []
        for m in (200_000, 2_000_000):
            inst = gen_planted(100_000, 20, m, 5)
            moves = np.column_stack((np.arange(300), 20 + np.arange(300)))
            trace = Trace(start=inst.sigma, moves=moves)
            tracemalloc.start()
            try:
                assert verify_trace(inst.graph, trace) == (True, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 ** 20, peaks

    def test_vertex_out_of_range(self):
        g = k3()
        with pytest.raises(ValueError):
            verify_trace(g, Trace(start=coloring_of([0, 1, 2]), moves=[Move(9, 0)]))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_agrees_with_naive_verifier(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)) if pairs else st.just([]))
        g = build_graph(n, edges)
        q = data.draw(st.integers(1, 4))
        start = coloring_of(data.draw(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n)), q + 2)
        k = data.draw(st.integers(0, 8))
        moves = [Move(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, q + 1)))
                 for _ in range(k)]
        t = Trace(start=start, moves=moves)
        ok_fast, failure = verify_trace(g, t)
        ok_naive, step_naive = naive_verify(g, t)
        assert ok_fast == ok_naive
        if not ok_fast:
            assert failure.step == step_naive

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_accepted_traces_have_unit_hamming_steps(self, data):
        n = data.draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)) if pairs else st.just([]))
        g = build_graph(n, edges)
        start = coloring_of(list(range(n)), n + 5)
        k = data.draw(st.integers(0, 6))
        moves = [Move(data.draw(st.integers(0, n - 1)),
                      data.draw(st.integers(0, n + 4))) for _ in range(k)]
        t = Trace(start=start, moves=moves)
        ok, _ = verify_trace(g, t)
        if ok:
            prev = start
            for i in range(len(moves)):
                cur = apply_trace(g, Trace(start=start, moves=moves[:i + 1]))
                assert hamming(prev, cur) == 1
                prev = cur


class TestApplyTrace:
    def test_empty(self):
        g = k3()
        start = coloring_of([0, 1, 2])
        assert apply_trace(g, Trace(start=start)).colors.tolist() == [0, 1, 2]

    def test_single_move(self):
        g = build_graph(3, [])
        end = apply_trace(g, Trace(start=coloring_of([0, 0, 0]), moves=[Move(1, 4)]))
        assert end.colors.tolist() == [0, 4, 0]
        assert end.palette_hint >= 5

    def test_strict_rejects_invalid(self):
        g = build_graph(2, [(0, 1)])
        t = Trace(start=coloring_of([0, 1]), moves=[Move(0, 1)])
        with pytest.raises(ValueError):
            apply_trace(g, t, strict=True)

    def test_streaming_memory_contract(self):
        # verify consumes an iterator of move blocks without materializing it
        g = build_graph(2, [])
        start = coloring_of([0, 0], 10)

        def gen():
            for i in range(100):
                yield np.column_stack((np.zeros(100, dtype=np.int64),
                                       np.arange(100 * i, 100 * i + 100) % 9 + 1))

        ok, _ = verify_trace(g, Trace(start=start), moves=gen())
        assert ok

    def test_stream_stops_within_one_chunk_of_a_failure(self):
        # a million-move source failing at step 5 is read one block deep
        g = build_graph(2, [(0, 1)])
        pulled = 0

        def gen():
            nonlocal pulled
            for b in range(1000):
                pulled += 1
                colors = 2 + np.arange(1000 * b, 1000 * b + 1000) % 2
                if b == 0:
                    colors[5] = 1
                yield np.column_stack((np.zeros(1000, dtype=np.int64), colors))

        ok, failure = verify_trace(g, Trace(start=coloring_of([0, 1])), moves=gen())
        assert (ok, failure) == (False, (5, REASON_MONOCHROMATIC))
        assert pulled == 1


class TestTraceConstruction:
    def test_empty(self):
        t = Trace(start=coloring_of([0, 1]))
        assert t.moves.shape == (0, 2) and t.moves.dtype == np.int64
        assert len(t) == 0

    def test_move_list(self):
        t = Trace(start=coloring_of([0, 1]), moves=[Move(0, 2), Move(1, 3)])
        assert t.moves.tolist() == [[0, 2], [1, 3]]
        assert t.moves.dtype == np.int64 and len(t) == 2

    def test_array_kept(self):
        moves = np.array([[1, 4]], dtype=np.int64)
        t = Trace(start=coloring_of([0, 1]), moves=moves)
        assert t.moves is moves

    @pytest.mark.parametrize("moves", [[1, 2, 3], [(0, 1, 2)], np.zeros((2, 3)),
                                       np.zeros((0, 3)), np.zeros((1, 2, 2))])
    def test_wrong_shape_raises(self, moves):
        with pytest.raises(ValueError, match="shape"):
            Trace(start=coloring_of([0, 1]), moves=moves)


class TestColoringType:
    def test_palette_hint_default(self):
        assert coloring_of([0, 3, 1]).palette_hint == 4

    def test_palette_hint_violation(self):
        with pytest.raises(ValueError):
            Coloring(np.array([0, 5]), palette_hint=3)

    def test_negative_color(self):
        with pytest.raises(ValueError):
            coloring_of([-1, 0])
