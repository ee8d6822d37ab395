import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colorwalk.graphs as graphs
from colorwalk import (CapError, FreshColorError, Move, Trace, apply_trace,
                       build_graph, coloring_of, degeneracy_order,
                       degeneracy_recolor_greedy, enumerate_hq, gen_planted_m,
                       induced_subgraph, random_partition, verify_trace)
from residual_reference import inductive_recolor, inductive_replay_recolor


def whole(g):
    return induced_subgraph(g, list(range(g.n)))


class TestDegeneracyRecolorGreedy:
    def test_star(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        gu, vmap = whole(g)
        current = coloring_of([0, 1, 1, 1], 10)
        moves, delta = degeneracy_recolor_greedy(gu, vmap, current, [8, 9])
        assert delta == 1
        assert len(moves) == 4
        end = apply_trace(g, Trace(start=current, moves=moves))
        assert set(end.colors.tolist()) <= {8, 9}
        ok, _ = verify_trace(g, Trace(start=current, moves=moves))
        assert ok

    def test_edgeless_one_fresh_color(self):
        g = build_graph(5, [])
        gu, vmap = whole(g)
        current = coloring_of([0, 1, 2, 0, 1], 10)
        moves, delta = degeneracy_recolor_greedy(gu, vmap, current, [7])
        assert delta == 0
        assert sorted(moves.tolist()) == [[v, 7] for v in range(5)]

    def test_triangle_needs_three(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        gu, vmap = whole(g)
        current = coloring_of([0, 1, 2], 10)
        with pytest.raises(FreshColorError, match="degeneracy"):
            degeneracy_recolor_greedy(gu, vmap, current, [5, 6])

    def test_fresh_color_in_use_rejected(self):
        g = build_graph(2, [])
        gu, vmap = whole(g)
        with pytest.raises(FreshColorError, match="in use"):
            degeneracy_recolor_greedy(gu, vmap, coloring_of([0, 1], 9), [1, 5])

    def test_partial_residual_leaves_rest_untouched(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        gu, vmap = induced_subgraph(g, [2, 3, 4])
        current = coloring_of([0, 1, 0, 1, 0], 12)
        moves, delta = degeneracy_recolor_greedy(gu, vmap, current, [8, 9])
        assert {v for v, _ in moves} == {2, 3, 4}
        end = apply_trace(g, Trace(start=current, moves=moves))
        assert end.colors[0] == 0 and end.colors[1] == 1
        assert set(end.colors[[2, 3, 4]].tolist()) <= {8, 9}
        ok, _ = verify_trace(g, Trace(start=current, moves=moves))
        assert ok

    def test_uses_at_most_degeneracy_plus_one(self):
        part = random_partition(40, 4, 100, seed=1)
        inst = gen_planted_m(part, 100, seed=2)
        gu, vmap = induced_subgraph(inst.graph, list(range(20)))
        delta, _ = degeneracy_order(gu)
        fresh = list(range(100, 100 + delta + 1))
        moves, d2 = degeneracy_recolor_greedy(gu, vmap, inst.sigma, fresh)
        assert d2 == delta
        assert len({c for _, c in moves}) <= delta + 1


    def test_long_id_ordered_path_takes_the_sequential_rule(self, monkeypatch):
        # the degeneracy order of 0-1-...-(n-1) is n-1, ..., 0: the first
        # color's scan chains, one vertex per rank-round pass, so its first
        # window stalls and the scan's sequential rule walks the rest
        n = 100_000
        g = build_graph(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))
        gu, vmap = whole(g)
        walked = []
        walk = graphs._walk

        def spy(h, vs, dead):
            walked.append(vs.shape[0])
            return walk(h, vs, dead)

        monkeypatch.setattr(graphs, "_walk", spy)
        moves, delta = degeneracy_recolor_greedy(gu, vmap, coloring_of([0] * n, 1), [1, 2])
        assert delta == 1
        assert sum(walked) >= n - graphs.MIS_FIRST_WINDOW
        assert moves[:, 0].tolist() == list(range(n - 1, -1, -1))
        assert moves[:, 1].tolist() == [1, 2] * (n // 2)


class TestInductiveReplayStep:
    def test_single_vertex_ignores_base(self):
        g = build_graph(1, [])
        gu, vmap = whole(g)
        out = inductive_replay_recolor(gu, vmap, coloring_of([3], 10), [5],
                                       base_path=[Move(0, 9)])
        assert np.array_equal(out, [Move(0, 5)])

    def test_two_isolated_base_replayed_unchanged(self):
        g = build_graph(2, [])
        gu, vmap = whole(g)
        # the new vertex (0) already carries a fresh color, so the base path
        # for vertex 1 replays with no insertion and no closing move
        current = coloring_of([8, 3], 10)
        base = [Move(1, 8)]
        out = inductive_replay_recolor(gu, vmap, current, [8, 9], base)
        assert np.array_equal(out, base)

    def test_path_graph_forced_insertion(self):
        # degeneracy order of 0-1-2 is [2, 1, 0]; vertex 0 is the new vertex
        g = build_graph(3, [(0, 1), (1, 2)])
        gu, vmap = whole(g)
        current = coloring_of([5, 1, 0], 10)
        base = [Move(2, 6), Move(1, 5)]
        out = inductive_replay_recolor(gu, vmap, current, [5, 6], base)
        assert len(out) == len(base) + 1
        assert np.array_equal(out, [Move(2, 6), Move(0, 6), Move(1, 5)])
        ok, _ = verify_trace(g, Trace(start=current, moves=out))
        assert ok
        end = apply_trace(g, Trace(start=current, moves=out))
        assert set(end.colors.tolist()) <= {5, 6}

    def test_closing_move_when_never_blocked(self):
        g = build_graph(2, [])
        gu, vmap = whole(g)
        current = coloring_of([3, 4], 10)
        base = [Move(1, 8)]
        out = inductive_replay_recolor(gu, vmap, current, [8, 9], base)
        assert np.array_equal(out, [Move(1, 8), Move(0, 8)])

    def test_length_bound(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        gu, vmap = whole(g)
        current = coloring_of([5, 1, 0], 10)
        base = [Move(2, 6), Move(1, 5)]
        out = inductive_replay_recolor(gu, vmap, current, [5, 6], base)
        assert len(out) <= 2 * len(base) + 1

    def test_cap(self):
        g = build_graph(25, [])
        gu, vmap = whole(g)
        with pytest.raises(CapError):
            inductive_replay_recolor(gu, vmap, coloring_of([0] * 25, 60),
                                     list(range(30, 56)), [])


class TestInductiveFull:
    def test_empty(self):
        g = build_graph(0, [])
        gu, vmap = whole(g)
        assert inductive_recolor(gu, vmap, coloring_of([], 5), [2]).tolist() == []

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_greedy_palette_usage(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)) if pairs else st.just([]))
        g = build_graph(n, edges)
        gu, vmap = whole(g)
        delta, _ = degeneracy_order(g)
        fresh = list(range(10, 11 + delta))
        # proper start via distinct colors
        current = coloring_of(list(range(n)), 20)
        ind = inductive_recolor(gu, vmap, current, fresh)
        grd, _ = degeneracy_recolor_greedy(gu, vmap, current, fresh)
        for moves in (ind, grd):
            ok, failure = verify_trace(g, Trace(start=current, moves=moves))
            assert ok, failure
            end = apply_trace(g, Trace(start=current, moves=moves))
            assert set(end.colors.tolist()) <= set(fresh)

    def test_oracle_co_component_tiny(self):
        # both constructions land in the same solution-space component
        part = random_partition(6, 2, 5, seed=3)
        inst = gen_planted_m(part, 5, seed=4)
        g = inst.graph
        gu, vmap = whole(g)
        delta, _ = degeneracy_order(g)
        fresh = list(range(2, 3 + delta))
        current = inst.sigma
        ind = inductive_recolor(gu, vmap, current, fresh)
        grd, _ = degeneracy_recolor_greedy(gu, vmap, current, fresh)
        q_total = 3 + delta
        h = enumerate_hq(g, q_total)
        end_i = apply_trace(g, Trace(start=current, moves=ind))
        end_g = apply_trace(g, Trace(start=current, moves=grd))
        assert h.component_of(end_i.as_tuple()) == h.component_of(end_g.as_tuple())
        assert h.component_of(end_i.as_tuple()) == h.component_of(current.as_tuple())
