import json
import math

import numpy as np
import pytest

import colorwalk.greedy as greedy
from colorwalk import (InfeasibleError, InternalInvariantError,
                       PaletteError, PlantedInstance, build_graph, coloring_of,
                       derive_params, gen_planted_m, partition_from_class_of,
                       random_partition, run_greedy_recolor,
                       simulate_recurrence, transform_with_report, verify_trace)
from colorwalk.rng import derived_rng


def make_instance(graph, class_of):
    part = partition_from_class_of(class_of)
    return PlantedInstance(graph=graph, partition=part)


class TestDeriveParams:
    def test_q0_absent_at_desk_scale(self):
        # ln 100 = 4.6052 < 7 ln ln 100 = 10.69
        part = random_partition(1000, 30, 50_000, seed=1)
        p = derive_params(1000, 50_000, 30, part.cross_pair_count())
        assert p.q0 is None
        assert "denominator" in p.q0_note

    @pytest.mark.parametrize("m", [30_000, 40_774])  # d = 2 and d just below e
    def test_q0_absent_at_d_up_to_e(self, m):
        # ln ln d <= 0 here, so ln d > 7 ln ln d holds for no reason and the
        # formula gave q0 = 0.92 at d = 2, below one color
        n, q = 30_000, 3
        p = derive_params(n, m, q, n * (n - 1) // 2 - 3 * 10_000 * 9_999 // 2)
        assert 1 < p.d <= math.e
        assert p.q0 is None
        assert p.q0_note == "q0 undefined: d <= e (ln ln d <= 0)"

    def test_q0_defined_at_huge_d(self):
        # d = e^30: denominator = 30 - 7 ln 30 = 6.19 > 0
        d = math.exp(30)
        n = 10
        m = round(d * n / 2)  # absurd but only the formula matters
        part = partition_from_class_of([0, 1] * 5)
        # bypass p_hat feasibility by computing the formula directly
        denom = math.log(d) - 7 * math.log(math.log(d))
        assert denom == pytest.approx(30 - 7 * math.log(30))
        q = 2
        q0 = q / (q - 1) * d / denom
        assert q0 > 0

    def test_hand_counted_small_case(self):
        part = partition_from_class_of([0, 0, 1, 1])
        p = derive_params(4, 4, 2, part.cross_pair_count())
        assert p.n_q == 4
        assert p.d_hat == pytest.approx(4.0)
        assert p.p_hat == pytest.approx(1.0)

    def test_m_exceeding_pairs_rejected(self):
        part = partition_from_class_of([0, 0, 1, 1])
        with pytest.raises(InfeasibleError):
            derive_params(4, 5, 2, part.cross_pair_count())

    def test_single_class_with_edges_rejected(self):
        part = partition_from_class_of([0, 0, 0])
        with pytest.raises(InfeasibleError):
            derive_params(3, 1, 1, part.cross_pair_count())

    def test_degenerate_edgeless(self):
        part = partition_from_class_of([0, 0, 0])
        p = derive_params(3, 0, 1, part.cross_pair_count())
        assert p.d_hat == 0.0 and p.l_cutoff == 3

    def test_d_hat_dominates_d(self):
        for seed in range(5):
            part = random_partition(60, 4, 150, seed=seed)
            p = derive_params(60, 150, 4, part.cross_pair_count())
            assert p.d_hat >= p.d


class TestGreedyRecolor:
    def test_edgeless_single_round(self):
        g = build_graph(9, [])
        inst = make_instance(g, [0, 1, 2] * 3)
        rep = run_greedy_recolor(inst, L=0)
        assert rep.rounds == 1
        assert rep.phase1_colors == 1
        # every vertex not already carrying color 0 moves to it
        assert len(rep.trace.moves) == 6
        assert all(c == 0 for _, c in rep.trace.moves)
        ok, _ = verify_trace(g, rep.trace)
        assert ok

    def test_complete_bipartite_no_moves(self):
        g = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        inst = make_instance(g, [0, 0, 1, 1])
        rep = run_greedy_recolor(inst, L=0)
        assert rep.rounds == 2
        assert rep.phase1_colors == 2
        assert rep.trace.moves.tolist() == []
        assert rep.residual_size == 0
        assert rep.total_colors == 2

    def test_round_structure_invariants(self):
        part = random_partition(3000, 12, 15_000, seed=7)
        inst = gen_planted_m(part, 15_000, seed=8)
        rep = run_greedy_recolor(inst, strict=True)
        ok, failure = verify_trace(inst.graph, rep.trace)
        assert ok, failure
        # class indices strictly increase round over round, and stay >= round
        ks = rep.round_classes
        assert all(ks[i] < ks[i + 1] for i in range(len(ks) - 1))
        assert all(k >= r for r, k in enumerate(ks))
        assert rep.residual_size <= rep.l_used
        traj = rep.trajectory
        assert traj[0] == 3000
        assert all(traj[i + 1] == traj[i] - 1 for i in range(len(traj) - 1))
        assert rep.total_colors == rep.phase1_colors + rep.residual_colors

    def test_strict_reports_first_bad_step(self, monkeypatch):
        # a scan that ignores adjacency finalizes the whole path in round 0
        def take_all(g, order, free):
            taken = np.flatnonzero(free)
            return taken, np.arange(taken.shape[0], -1, -1)

        monkeypatch.setattr(greedy, "_scan_mis", take_all)
        inst = make_instance(build_graph(3, [(0, 1), (1, 2)]), [0, 1, 0])
        rep = run_greedy_recolor(inst, L=0)
        assert verify_trace(inst.graph, rep.trace) == (False, (0, "monochromatic edge created"))
        with pytest.raises(InternalInvariantError,
                           match="^trace step 0 invalid: monochromatic edge created$"):
            run_greedy_recolor(inst, L=0, strict=True)

    def test_pool_drop_bounded_by_degree(self):
        part = random_partition(400, 5, 1200, seed=3)
        inst = gen_planted_m(part, 1200, seed=4)
        rep = run_greedy_recolor(inst)
        degs = inst.graph.degrees
        i = 0
        for pool, k in zip(rep.round_pools, rep.round_classes):
            for t in range(len(pool) - 1):
                v = rep.finalized[i]
                assert pool[t + 1] >= pool[t] - 1 - int(degs[v])
                i += 1
        assert i == len(rep.finalized)

    def test_l_stops_rounds(self):
        part = random_partition(500, 5, 1000, seed=1)
        inst = gen_planted_m(part, 1000, seed=2)
        rep = run_greedy_recolor(inst, L=400)
        assert rep.residual_size <= 400
        full = run_greedy_recolor(inst, L=0)
        assert full.residual_size == 0
        assert full.rounds >= rep.rounds

    def test_palette_exhaustion_reports_rounds(self):
        part = random_partition(60, 6, 150, seed=2)
        inst = gen_planted_m(part, 150, seed=3)
        with pytest.raises(PaletteError) as exc:
            run_greedy_recolor(inst, palette=[0], L=0)
        assert exc.value.rounds_completed == 1

    def test_disjoint_palette_moves_every_vertex(self):
        g = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        inst = make_instance(g, [0, 0, 1, 1])
        rep = run_greedy_recolor(inst, palette=[7, 9], L=0)
        assert len(rep.trace.moves) == 4
        ok, _ = verify_trace(g, rep.trace)
        assert ok
        end_colors = {c for _, c in rep.trace.moves}
        assert end_colors == {7, 9}

    def test_mixed_palette_rejected_on_sigma_overlap(self):
        g = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        inst = make_instance(g, [0, 0, 1, 1])
        with pytest.raises(PaletteError):
            run_greedy_recolor(inst, palette=[7, 0], L=0)

    def test_selectors_all_valid(self):
        part = random_partition(300, 4, 900, seed=5)
        inst = gen_planted_m(part, 900, seed=6)
        reports = {}
        for sel in ("lowest", "random", "highest_degree"):
            rep = run_greedy_recolor(inst, selector=sel, selector_seed=11)
            ok, failure = verify_trace(inst.graph, rep.trace)
            assert ok, (sel, failure)
            reports[sel] = rep
        again = run_greedy_recolor(inst, selector="random", selector_seed=11)
        assert np.array_equal(again.trace.moves, reports["random"].trace.moves)
        other = run_greedy_recolor(inst, selector="random", selector_seed=12)
        assert not np.array_equal(other.trace.moves, reports["random"].trace.moves)

    def test_determinism(self):
        part = random_partition(200, 4, 500, seed=5)
        inst = gen_planted_m(part, 500, seed=6)
        a = run_greedy_recolor(inst)
        b = run_greedy_recolor(inst)
        assert np.array_equal(a.trace.moves, b.trace.moves)
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_report_shape_after_transform(self):
        # transform_with_report replaces residual_fresh_used with palette
        # colors; the derived counts must follow it
        part = random_partition(300, 4, 900, seed=5)
        inst = gen_planted_m(part, 900, seed=6)
        tau = coloring_of(inst.sigma.colors + 100)
        _, rep = transform_with_report(inst.graph, inst.sigma, tau, range(200, 520), L=150)
        assert rep.residual_size > 0 and rep.residual_colors > 0
        assert all(c >= 200 for c in rep.residual_fresh_used)
        assert isinstance(rep.finalized, np.ndarray) and rep.finalized.dtype == np.int64
        assert rep.finalized.shape[0] == 300 - rep.residual_size
        assert len(rep.round_pools) == rep.rounds
        for pool in rep.round_pools:
            assert isinstance(pool, np.ndarray) and pool.dtype == np.int64
        counts = {name: getattr(rep, name) for name in (
            "rounds", "phase1_colors", "residual_colors", "total_colors",
            "residual_size", "residual_degeneracy", "l_used")}
        assert json.loads(json.dumps(counts)) == counts
        assert rep.residual_colors == len(rep.residual_fresh_used)
        assert rep.total_colors == rep.rounds + rep.residual_colors
        assert rep.trajectory.tolist() == list(range(300, rep.residual_size - 1, -1))

    def test_residual_only_when_l_is_n(self):
        part = random_partition(50, 5, 100, seed=1)
        inst = gen_planted_m(part, 100, seed=2)
        rep = run_greedy_recolor(inst, L=50)
        assert rep.rounds == 0
        assert rep.residual_size == 50
        ok, _ = verify_trace(inst.graph, rep.trace)
        assert ok
        # every vertex ends on a fresh color >= q
        assert all(c >= 5 for _, c in rep.trace.moves)
        assert len(rep.trace.moves) == 50


class TestSimulateRecurrence:
    def test_p_zero_counts_down(self):
        assert simulate_recurrence(10, 0.0, seed=1) == list(range(10, -1, -1))

    def test_p_one_clamps(self):
        assert simulate_recurrence(10, 1.0, seed=1) == [10, 0]

    def test_zero_start(self):
        assert simulate_recurrence(0, 0.5, seed=1) == [0]

    def test_monotone_strictly_decreasing(self):
        seq = simulate_recurrence(500, 0.01, seed=3)
        assert all(b < a for a, b in zip(seq, seq[1:]))
        assert seq[-1] == 0

    def test_against_independent_loop_implementation(self):
        # same recurrence, written independently with vectorized replicates
        u0, p = 100_000, 5e-4
        reps = 200
        rng = derived_rng(999, 0)
        u = np.full(reps, u0, dtype=np.int64)
        lengths = np.zeros(reps, dtype=np.int64)
        alive = u > 0
        while alive.any():
            draws = rng.binomial(u[alive], p)
            u[alive] = np.maximum(u[alive] - draws - 1, 0)
            lengths[alive] += 1
            alive = u > 0
        mean_len = lengths.mean()
        sd_len = lengths.std(ddof=1)
        seq = simulate_recurrence(u0, p, seed=1)
        steps = len(seq) - 1
        assert abs(steps - mean_len) <= 5 * max(sd_len, 1.0)

    def test_against_uniform_counting_oracle(self):
        # binomial realized by counting uniform draws under the threshold
        u0, p = 2000, 0.002
        reps = 100
        rng = derived_rng(777, 0)
        lengths = []
        for _ in range(reps):
            u, steps = u0, 0
            while u > 0:
                hits = int(np.count_nonzero(rng.random(u) < p))
                u = max(u - hits - 1, 0)
                steps += 1
            lengths.append(steps)
        mean_len = float(np.mean(lengths))
        sd_len = float(np.std(lengths, ddof=1))
        seq = simulate_recurrence(u0, p, seed=5)
        assert abs((len(seq) - 1) - mean_len) <= 5 * max(sd_len, 1.0)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            simulate_recurrence(5, 1.5, seed=1)
