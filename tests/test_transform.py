import numpy as np
import pytest

from colorwalk import (Move, PaletteError, Trace, apply_trace, build_graph,
                       coloring_of, connect_pair, enumerate_colorings,
                       enumerate_hq, gen_planted_m, hamming,
                       random_partition, reverse_trace, run_greedy_recolor,
                       sample_uniform_coloring,
                       transform_to_target, verify_trace)
from colorwalk.transform import classes_from_coloring, color_budget_arithmetic


def tiny_planted(n=8, q=4, m=8, seed=2):
    part = random_partition(n, q, m, seed=seed)
    return gen_planted_m(part, m, seed=seed + 100)


def first_coloring_with_fewest_colors(g, q_max):
    for q in range(1, q_max + 1):
        found = enumerate_colorings(g, q)
        if found:
            return coloring_of(found[0], q)
    raise AssertionError("no coloring found")


class TestTransformToTarget:
    def test_identical_colorings_empty_trace(self):
        g = build_graph(4, [(0, 1)])
        c = coloring_of([0, 1, 0, 0])
        t = transform_to_target(g, c, c, [5, 6])
        assert t.moves.tolist() == []

    def test_edgeless_all_zero_to_all_one(self):
        g = build_graph(4, [])
        sigma = coloring_of([0] * 4, 3)
        tau = coloring_of([1] * 4, 3)
        t = transform_to_target(g, sigma, tau, [2])
        ok, failure = verify_trace(g, t)
        assert ok, failure
        end = apply_trace(g, t)
        assert hamming(end, tau) == 0
        # no vertex has a neighbour, so none detours through the work color:
        # each moves once, straight to its target
        assert np.array_equal(t.moves, [Move(v, 1) for v in range(4)])

    def test_planted_with_brute_force_target(self):
        # planted 8-vertex instance at average degree 2, walked onto the
        # lexicographically first proper 2-coloring with a 2-color work set
        inst = tiny_planted(n=8, q=4, m=8, seed=2)
        g = inst.graph
        sigma = inst.sigma
        tau = first_coloring_with_fewest_colors(g, 4)
        work = [4, 5]
        t = transform_to_target(g, sigma, tau, work, L=0)
        ok, failure = verify_trace(g, t)
        assert ok, failure
        end = apply_trace(g, t)
        assert hamming(end, tau) == 0
        # endpoints both fit the planted palette; check their component there
        h4 = enumerate_hq(g, 4)
        assert h4.component_of(sigma.as_tuple()) == h4.component_of(tau.as_tuple())

    def test_trace_certified_by_oracle(self):
        # q=2 classes with L=0 need at most 2 work colors, and the full
        # walk palette of 4 colors stays enumerable
        inst = tiny_planted(n=7, q=2, m=7, seed=4)
        g = inst.graph
        sigma = inst.sigma
        tau = first_coloring_with_fewest_colors(g, 2)
        t = transform_to_target(g, sigma, tau, [2, 3], L=0)
        ok, failure = verify_trace(g, t)
        assert ok, failure
        h = enumerate_hq(g, 4)
        from colorwalk import certify_trace
        assert certify_trace(h, t)
        assert h.component_of(sigma.as_tuple()) == h.component_of(tau.as_tuple())

    def test_work_palette_overlapping_tau_rejected(self):
        g = build_graph(2, [])
        with pytest.raises(PaletteError, match="target"):
            transform_to_target(g, coloring_of([0, 0], 5), coloring_of([1, 1], 5), [1, 3])

    def test_work_palette_overlapping_sigma_rejected(self):
        g = build_graph(2, [])
        with pytest.raises(PaletteError, match="start"):
            transform_to_target(g, coloring_of([0, 0], 5), coloring_of([1, 1], 5), [0, 3])

    @pytest.mark.parametrize("palette, match", [([3, 3], "distinct"),
                                                ([3, -4, 5], "nonnegative"),
                                                ([0, 1], "target")])
    def test_work_palette_checked_when_sigma_is_tau(self, palette, match):
        # the empty walk needs no work colors, but a faulty palette is
        # refused as it would be for any other target
        g = build_graph(4, [(0, 1)])
        c = coloring_of([0, 1, 0, 0])
        with pytest.raises(PaletteError, match=match):
            transform_to_target(g, c, c, palette)

    def test_improper_input_rejected(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            transform_to_target(g, coloring_of([0, 0], 5), coloring_of([0, 1], 5), [2])

    @pytest.mark.parametrize("selector", ["lowest", "random", "highest_degree"])
    def test_walk_to_a_recolor_end_is_a_geodesic(self, selector):
        # the recolor trace is valid and enters each color in one block, so
        # every wish orders two of its colors by round: the wishes are
        # acyclic, the sweep order breaks none and nothing detours
        inst = gen_planted_m(random_partition(2000, 5, 8000, seed=3), 8000, seed=4)
        g, sigma = inst.graph, inst.sigma
        rep = run_greedy_recolor(inst, selector=selector, selector_seed=7, L=200)
        assert rep.rounds > 0 and rep.residual_size > 0
        tau = apply_trace(g, rep.trace)
        top = int(tau.colors.max()) + 1
        t = transform_to_target(g, sigma, tau, range(top, top + 4))
        ok, failure = verify_trace(g, t)
        assert ok, failure
        assert np.array_equal(apply_trace(g, t).colors, tau.colors)
        assert len(t) == hamming(sigma, tau) > 0

    def test_phase2_order_ascending(self):
        g = build_graph(4, [])
        sigma = coloring_of([0, 0, 0, 0], 6)
        tau = coloring_of([2, 1, 2, 1], 6)
        # no wishes order the classes, so the sweep takes them by ascending
        # color; nothing detours, so the sweep is the whole walk
        t = transform_to_target(g, sigma, tau, [5])
        assert np.array_equal(t.moves, [Move(1, 1), Move(3, 1), Move(0, 2), Move(2, 2)])


class TestReverseTrace:
    def test_empty(self):
        g = build_graph(3, [])
        c = coloring_of([0, 1, 2])
        r = reverse_trace(g, Trace(start=c))
        assert r.moves.tolist() == [] and r.start.colors.tolist() == [0, 1, 2]

    def test_single_move(self):
        g = build_graph(1, [])
        t = Trace(start=coloring_of([0], 5), moves=[Move(0, 3)])
        r = reverse_trace(g, t)
        assert r.start.colors.tolist() == [3]
        assert np.array_equal(r.moves, [Move(0, 0)])

    def test_k3_three_moves(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        t = Trace(start=coloring_of([0, 1, 2], 4),
                  moves=[Move(0, 3), Move(1, 0), Move(0, 1)])
        r = reverse_trace(g, t)
        ok, failure = verify_trace(g, r)
        assert ok, failure
        assert len(r.moves) == 3
        assert apply_trace(g, r).colors.tolist() == [0, 1, 2]

    def test_involution(self):
        inst = tiny_planted(seed=5)
        g = inst.graph
        tau = first_coloring_with_fewest_colors(g, 4)
        t = transform_to_target(g, inst.sigma, tau, [4, 5, 6, 7], L=0)
        rr = reverse_trace(g, reverse_trace(g, t))
        assert rr.start.colors.tolist() == t.start.colors.tolist()
        assert apply_trace(g, rr).colors.tolist() == apply_trace(g, t).colors.tolist()

    def test_invalid_input_rejected(self):
        g = build_graph(2, [(0, 1)])
        bad = Trace(start=coloring_of([0, 1]), moves=[Move(0, 1)])
        with pytest.raises(ValueError):
            reverse_trace(g, bad)


class TestConnectPair:
    def test_all_equal_empty(self):
        g = build_graph(3, [(0, 1)])
        c = coloring_of([0, 1, 0])
        t = connect_pair(g, c, c, c, [5, 6])
        assert t.moves.tolist() == []

    def test_sigma_equals_tau(self):
        g = build_graph(3, [])
        tau = coloring_of([0, 0, 0], 6)
        sigma_prime = coloring_of([1, 1, 1], 6)
        t = connect_pair(g, tau, sigma_prime, tau, [4])
        leg = transform_to_target(g, sigma_prime, tau, [4])
        rev = reverse_trace(g, leg)
        assert np.array_equal(t.moves, rev.moves)
        end = apply_trace(g, t)
        assert hamming(end, sigma_prime) == 0

    def test_tiny_pair_through_target(self):
        inst = tiny_planted(n=7, q=2, m=7, seed=9)
        g = inst.graph
        sigma = inst.sigma
        sigma_prime = sample_uniform_coloring(g, 2, seed=33)
        tau = first_coloring_with_fewest_colors(g, 2)
        t = connect_pair(g, sigma, sigma_prime, tau, [2, 3], L=0)
        ok, failure = verify_trace(g, t)
        assert ok, failure
        assert apply_trace(g, t).colors.tolist() == sigma_prime.colors.tolist()
        h = enumerate_hq(g, 4)
        assert h.component_of(sigma.as_tuple()) == h.component_of(sigma_prime.as_tuple())


class TestHelpers:
    def test_classes_from_coloring_dense_ranks(self):
        part = classes_from_coloring(coloring_of([5, 2, 5, 9]))
        assert part.q == 3
        assert part.class_of.tolist() == [1, 0, 1, 2]

    def test_color_budget_arithmetic(self):
        tau = coloring_of([0, 1, 0])
        out = color_budget_arithmetic([7, 8], tau, q=4)
        assert out["work_colors"] == 2 and out["target_colors"] == 2
        assert out["fits_in_q"] is True
        out2 = color_budget_arithmetic([7, 8, 9], tau, q=4)
        assert out2["fits_in_q"] is False
