"""Acceptance suite.

Each test enforces one numbered acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line (run with -s to see them).
The heavy planted campaigns at n = 10^5 are shared between criteria via
module-scoped fixtures, so the whole file stays inside its time budget.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from colorwalk import (FreshColorError, Move, Trace, apply_trace, build_graph,
                       certify_trace, coloring_of, connect_pair, derive_params,
                       enumerate_colorings, enumerate_hq, gen_planted_m,
                       gen_planted_p, giant_fraction, random_partition,
                       run_greedy_recolor, sample_uniform_coloring,
                       transform_to_target, verify_trace)
from colorwalk.cli import main as cli_main
from colorwalk.experiments import (ExperimentConfig, pointwise_median_dominance,
                                   run_mis_experiment, run_scaling_experiment)
from colorwalk.graphs import degeneracy_order, induced_subgraph
from colorwalk.greedy import simulate_recurrence
from colorwalk.experiments import derive_seed


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: trace soundness across the parameter grid


GRID_SEEDS = {1_000: 13, 10_000: 6, 100_000: 3}
BASE_SEED = 20_260_808


def _instance_grid():
    combos = []
    for n, reps in GRID_SEEDS.items():
        for d in (10, 30, 50):
            for q_factor in (0.5, 1.0, 2.0):
                q = int(round(d * q_factor))
                for r in range(reps):
                    combos.append((n, d, q, r))
    # top up to exactly 200 instances with extra small-n seeds
    extra = 0
    while len(combos) < 200:
        combos.append((1_000, 10, 5, GRID_SEEDS[1_000] + extra))
        extra += 1
    return combos[:200]


def test_criterion_1_trace_soundness():
    t0 = time.time()
    combos = _instance_grid()
    assert len(combos) == 200
    failures = []
    checked = 0
    for idx, (n, d, q, r) in enumerate(combos):
        seed = derive_seed(BASE_SEED, 1, idx)
        m = n * d // 2
        part = random_partition(n, q, m, seed=seed)
        inst = gen_planted_m(part, m, seed=seed + 1)
        rep = run_greedy_recolor(inst)
        ok, failure = verify_trace(inst.graph, rep.trace)
        checked += 1
        if not ok:
            failures.append(("recolor", n, d, q, r, failure))
        # target coloring from an independent run on a disjoint palette
        tau_rep = run_greedy_recolor(inst, palette=list(range(q, 2 * q + 64)))
        tau = apply_trace(inst.graph, tau_rep.trace)
        base = int(tau.colors.max()) + 1
        work = list(range(base, base + q + 64))
        trace = transform_to_target(inst.graph, inst.sigma, tau, work)
        ok, failure = verify_trace(inst.graph, trace)
        checked += 1
        if not ok:
            failures.append(("transform", n, d, q, r, failure))
        end = apply_trace(inst.graph, trace)
        if end.colors.tolist() != tau.colors.tolist():
            failures.append(("transform-endpoint", n, d, q, r, None))
    elapsed = time.time() - t0
    ok = not failures
    report(1, "trace-soundness", ok,
           f"{checked - len(failures)}/{checked} traces valid over 200 instances, "
           f"{elapsed:.0f}s")
    assert ok, failures[:5]
    assert elapsed < 600, f"criterion 1 runtime {elapsed:.0f}s exceeds 10 minutes"


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence on tiny instances


def _tiny_oracle_instances():
    """100 planted instances with q_total <= 5 and Z(q_total) <= 5000, each
    bundled with its target coloring and both walk traces. Instances whose
    2-color work palette cannot finish (possible at 3 planted classes) are
    skipped during the deterministic search."""
    from colorwalk import PaletteError

    out = []
    attempt = 0
    while len(out) < 100 and attempt < 3000:
        attempt += 1
        seed = derive_seed(BASE_SEED, 2, attempt)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 9))
        q = int(rng.integers(2, 4))  # planted classes: 2 or 3
        work = [q, q + 1]
        q_total = q + 2
        if q_total > 5:
            continue
        m_max = min(2 * n, n * (n - 1) // 2 - 5)
        m = int(rng.integers(n, max(m_max, n + 1)))
        try:
            part = random_partition(n, q, m, seed=seed)
            inst = gen_planted_m(part, m, seed=seed + 1)
        except Exception:
            continue
        if q_total ** n > 10 ** 7:
            continue
        colorings = enumerate_colorings(inst.graph, q_total)
        if not 0 < len(colorings) <= 5000:
            continue
        # fewest-colors target
        tau = None
        for qq in range(1, q + 1):
            found = enumerate_colorings(inst.graph, qq)
            if found:
                tau = coloring_of(found[0], q_total)
                break
        if tau is None:
            continue
        sigma = inst.sigma
        try:
            sigma_prime = sample_uniform_coloring(inst.graph, q, seed=seed + 7)
            t_transform = transform_to_target(inst.graph, sigma, tau, work, L=0)
            t_connect = connect_pair(inst.graph, sigma, sigma_prime, tau, work, L=0)
        except PaletteError:
            continue
        out.append((inst, tau, work, q_total, colorings, seed,
                    t_transform, t_connect))
    return out


def test_criterion_2_oracle_equivalence():
    instances = _tiny_oracle_instances()
    assert len(instances) == 100, f"only {len(instances)} usable tiny instances"
    from colorwalk.oracle import build_hq

    cert_failures = []
    agree_failures = []
    traces_checked = 0
    for inst, tau, work, q_total, colorings, seed, t_transform, t_connect in instances:
        g = inst.graph
        h = build_hq(colorings, q_total)
        sigma = inst.sigma
        for kind, tr in (("transform", t_transform), ("connect", t_connect)):
            if not certify_trace(h, tr):
                cert_failures.append((kind, seed))
            start_c = h.component_of(tr.start.as_tuple())
            end_c = h.component_of(apply_trace(g, tr).as_tuple())
            if start_c != end_c:
                cert_failures.append((kind + "-components", seed))

        # five traces per instance: the two valid ones plus three corruptions
        rng = np.random.default_rng(seed + 13)
        variants = [t_transform, t_connect,
                    _corrupt_monochromatic(g, t_transform, rng),
                    _corrupt_noop(g, t_transform, rng),
                    _random_junk_trace(g, sigma, q_total, rng)]
        for tr in variants:
            ok_stream, _ = verify_trace(g, tr)
            ok_oracle = certify_trace(h, tr)
            traces_checked += 1
            if ok_stream != ok_oracle:
                agree_failures.append((seed, ok_stream, ok_oracle))
    ok = not cert_failures and not agree_failures and traces_checked == 500
    report(2, "oracle-equivalence", ok,
           f"100 instances certified, {traces_checked} mixed traces, "
           f"{len(agree_failures)} disagreements")
    assert ok, (cert_failures[:3], agree_failures[:3], traces_checked)


def _replay_colors(trace, upto):
    colors = trace.start.colors.copy()
    for v, c in trace.moves[:upto]:
        colors[v] = c
    return colors


def _corrupt_monochromatic(g, trace, rng):
    """Flip one move's color to a neighbor's current color."""
    moves = list(trace.moves)
    order = rng.permutation(len(moves)) if moves else []
    for idx in order:
        v, _ = moves[idx]
        nbrs = g.neighbors(v)
        if nbrs.shape[0] == 0:
            continue
        colors = _replay_colors(trace, idx)
        target = int(colors[nbrs[int(rng.integers(nbrs.shape[0]))]])
        if target == int(colors[v]):
            continue
        moves[idx] = Move(v, target)
        return Trace(start=trace.start, moves=moves)
    # no corruptible move: fall back to an immediate monochromatic move
    u = int(g.edge_u[0])
    w = int(g.edge_v[0])
    return Trace(start=trace.start,
                 moves=[Move(u, int(trace.start.colors[w]))] + moves)


def _corrupt_noop(g, trace, rng):
    """Insert a move that repeats the vertex's current color."""
    moves = list(trace.moves)
    idx = int(rng.integers(len(moves) + 1))
    colors = _replay_colors(trace, idx)
    v = int(rng.integers(g.n))
    moves.insert(idx, Move(v, int(colors[v])))
    return Trace(start=trace.start, moves=moves)


def _random_junk_trace(g, sigma, q_total, rng):
    moves = [Move(int(rng.integers(g.n)), int(rng.integers(q_total)))
             for _ in range(8)]
    return Trace(start=sigma, moves=moves)


# ---------------------------------------------------------------------------
# criterion 3: exact oracle fixtures


def test_criterion_3_oracle_fixtures():
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    h3 = enumerate_hq(k3, 3)
    h4 = enumerate_hq(k3, 4)
    p3 = build_graph(3, [(0, 1), (1, 2)])
    hp = enumerate_hq(p3, 2)
    checks = [
        h3.z_q == 6,
        h3.component_count == 6,
        abs(giant_fraction(h3) - 1 / 6) < 1e-12,
        h4.component_count == 1,
        hp.component_count == 2,
    ]
    ok = all(checks)
    report(3, "oracle-fixtures", ok,
           f"K3 q=3: Z={h3.z_q} comps={h3.component_count} giant={giant_fraction(h3):.4f}; "
           f"K3 q=4 comps={h4.component_count}; P3 q=2 comps={hp.component_count}")
    assert ok, checks


# ---------------------------------------------------------------------------
# criteria 4 and 6 share a 100-trial campaign at n = 10^5, d = 50, q = 30


CAMPAIGN = dict(n=100_000, d=50.0, q=30)


@pytest.fixture(scope="module")
def planted_campaign():
    n, d, q = CAMPAIGN["n"], CAMPAIGN["d"], CAMPAIGN["q"]
    m = round(d * n / 2)
    trials = []
    for i in range(100):
        part = random_partition(n, q, m, seed=derive_seed(BASE_SEED, 4, i, 0))
        params = derive_params(n, m, q, part.cross_pair_count())
        inst = gen_planted_p(part, params.p_hat, seed=derive_seed(BASE_SEED, 4, i, 1))
        rep = run_greedy_recolor(inst)
        # residual degeneracy from the induced leftover subgraph
        leftover = rep.finalized
        mask = np.ones(n, dtype=bool)
        mask[leftover] = False
        u_set = np.flatnonzero(mask)
        assert u_set.shape[0] == rep.residual_size
        if rep.residual_size:
            g_u, _ = induced_subgraph(inst.graph, u_set)
            delta, _ = degeneracy_order(g_u)
        else:
            delta = 0
        assert delta == rep.residual_degeneracy
        trials.append({
            "residual_size": rep.residual_size,
            "l_used": rep.l_used,
            "delta": delta,
            "k_bound": rep.params.k_core_bound,
            "residual_colors": rep.residual_colors,
            "p_hat": rep.params.p_hat,
            "trajectory": np.asarray(rep.trajectory, dtype=np.int64),
        })
        del inst, rep
    return trials


def test_criterion_4_degeneracy_residual(planted_campaign):
    trials = planted_campaign
    within_l = sum(t["residual_size"] <= t["l_used"] for t in trials)
    within_core = sum(t["delta"] + 1 <= t["k_bound"] for t in trials)
    budget_ok = all(t["residual_colors"] <= t["delta"] + 1 for t in trials)
    ok = within_l == 100 and within_core >= 95 and budget_ok
    report(4, "degeneracy-residual", ok,
           f"|U|<=L in {within_l}/100, degeneracy+1<=K in {within_core}/100, "
           f"fresh budget respected: {budget_ok}")
    assert within_l == 100
    assert within_core >= 95
    assert budget_ok


def test_criterion_4_budget_hard_assert():
    # the residual pass refuses to run past its fresh budget
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    gu, vmap = induced_subgraph(g, [0, 1, 2])
    from colorwalk import degeneracy_recolor_greedy
    with pytest.raises(FreshColorError):
        degeneracy_recolor_greedy(gu, vmap, coloring_of([0, 1, 2], 10), [5, 6])


def test_criterion_6_coupling(planted_campaign):
    trials = planted_campaign[:50]
    upper = [t["trajectory"].tolist() for t in trials]
    lower = [simulate_recurrence(CAMPAIGN["n"], t["p_hat"],
                                 seed=derive_seed(BASE_SEED, 6, i))
             for i, t in enumerate(trials)]
    frac, steps = pointwise_median_dominance(upper, lower)
    ok = frac == 1.0
    report(6, "coupling-dominance", ok,
           f"median dominance at {frac:.4f} of {steps} steps over 50 paired runs")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: maximal independent set statistics


MIS_BAND = (0.5, 2.0)  # calibration band factors around n ln(D) / D (pilot run)


def test_criterion_5_mis_statistics():
    n, delta = 100_000, 100.0
    cfg = ExperimentConfig(name="mis", n=n, d=delta, trials=100,
                           seed=derive_seed(BASE_SEED, 5))
    rep = run_mis_experiment(cfg)
    summary = rep.summary_dict()
    bound = summary["bound"]
    meet = round(summary["fraction_meeting_bound"] * 100)
    center = n * math.log(delta) / delta
    lo, hi = MIS_BAND[0] * center, MIS_BAND[1] * center
    sizes = [row[3] for row in rep.rows]
    in_band = sum(lo <= s <= hi for s in sizes)
    ok = meet >= 99 and in_band == 100
    report(5, "mis-statistics", ok,
           f"bound {bound:.1f} met in {meet}/100 trials, "
           f"sizes in [{lo:.0f}, {hi:.0f}] in {in_band}/100")
    assert meet >= 99
    assert in_band == 100


# ---------------------------------------------------------------------------
# criterion 7: color usage across the degree sweep


def test_criterion_7_scaling():
    cfg = ExperimentConfig(name="scaling", n=200_000, d=16.0, trials=2,
                           seed=derive_seed(BASE_SEED, 7),
                           d_sweep=(16.0, 32.0, 64.0, 128.0))
    rep = run_scaling_experiment(cfg)
    summary = rep.summary_dict()
    ratios = [row[7] for row in rep.rows]
    means = [summary[f"mean_ratio_d_{d:g}"] for d in (16, 32, 64, 128)]
    band_ok = all(0.5 <= r <= 3.0 for r in ratios)
    rho = summary["spearman_rho"]
    pvalue = summary["spearman_p"]
    trend_ok = rho <= 0
    ok = band_ok and trend_ok
    report(7, "scaling", ok,
           f"ratios {['%.2f' % r for r in means]} in [0.5, 3.0]: {band_ok}; "
           f"Spearman rho={rho:.3f} (p={pvalue:.3f}, reported not gated)")
    assert band_ok, ratios
    assert trend_ok, (means, rho)


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns of CLI commands


def test_criterion_8_cli_determinism(tmp_path):
    def h(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def build_commands(root):
        root.mkdir(exist_ok=True)
        cmds = []
        for s in (1, 2, 3):
            cmds.append(([f"gg{s}"], ["gen", "gnm", "--n", "60", "--m", "150",
                                      "--seed", str(s), "--out-graph",
                                      str(root / f"gg{s}")]))
        for s in (1, 2):
            cmds.append(([f"gp{s}"], ["gen", "gnp", "--n", "60", "--p", "0.08",
                                      "--seed", str(s), "--out-graph",
                                      str(root / f"gp{s}")]))
        for s, model in ((1, "m"), (2, "m"), (3, "p")):
            tag = f"pl{s}{model}"
            cmds.append(([f"{tag}g", f"{tag}p", f"{tag}c"],
                         ["gen", "planted", "--n", "60", "--q", "4", "--m", "120",
                          "--seed", str(s), "--planted-model", model,
                          "--out-graph", str(root / f"{tag}g"),
                          "--out-partition", str(root / f"{tag}p"),
                          "--out-coloring", str(root / f"{tag}c")]))
        # a planted instance to feed recolor / transform / connect; small
        # enough that the oracle can draw the target coloring
        cmds.append((["baseg", "basep", "basec"],
                     ["gen", "planted", "--n", "8", "--q", "3", "--m", "10",
                      "--seed", "9", "--out-graph", str(root / "baseg"),
                      "--out-partition", str(root / "basep"),
                      "--out-coloring", str(root / "basec")]))
        for s in (1, 2):
            cmds.append(([f"rt{s}", f"rr{s}", f"rj{s}"],
                         ["recolor", "--graph", str(root / "baseg"),
                          "--partition", str(root / "basep"),
                          "--selector", "random", "--selector-seed", str(s),
                          "--out-trace", str(root / f"rt{s}"),
                          "--out-report", str(root / f"rr{s}"),
                          "--out-trajectory", str(root / f"rj{s}")]))
        cmds.append((["k3"], None))  # placeholder replaced below
        cmds.pop()
        # oracle outputs
        (root / "k3.txt").write_text("3 3\n0 1\n0 2\n1 2\n")
        cmds.append((["comp.csv"], ["oracle", "--graph", str(root / "k3.txt"),
                                    "--q", "3", "--components-csv",
                                    str(root / "comp.csv")]))
        cmds.append((["samp"], ["oracle", "--graph", str(root / "k3.txt"),
                                "--q", "3", "--sample-coloring", "--seed", "5",
                                "--out-coloring", str(root / "samp")]))
        # transform and connect
        cmds.append((["tau"], ["oracle", "--graph", str(root / "baseg"),
                               "--q", "3", "--sample-coloring", "--seed", "21",
                               "--out-coloring", str(root / "tau")]))
        cmds.append((["tt", "tr"], ["transform", "--graph", str(root / "baseg"),
                                    "--sigma", str(root / "basec"),
                                    "--tau", str(root / "tau"),
                                    "--work-palette", "6,7,8,9,10,11",
                                    "--out-trace", str(root / "tt"),
                                    "--out-report", str(root / "tr")]))
        cmds.append((["ct"], ["connect", "--graph", str(root / "baseg"),
                              "--sigma", str(root / "basec"),
                              "--sigma-prime", str(root / "tau"),
                              "--tau", str(root / "tau"),
                              "--work-palette", "6,7,8,9,10,11",
                              "--out-trace", str(root / "ct")]))
        # experiments, one of each kind at small size
        cmds.append((["e1"], ["experiment", "mis", "--n", "400", "--d", "100",
                              "--trials", "2", "--seed", "3",
                              "--out", str(root / "e1")]))
        cmds.append((["e2"], ["experiment", "density", "--n", "400", "--d", "20",
                              "--q", "8", "--trials", "1", "--seed", "3",
                              "--subset-samples", "50",
                              "--out", str(root / "e2")]))
        cmds.append((["e3"], ["experiment", "coupling", "--n", "400", "--d", "10",
                              "--q", "5", "--trials", "2", "--seed", "3",
                              "--format", "records", "--out", str(root / "e3")]))
        cmds.append((["e4"], ["experiment", "scaling", "--n", "500", "--d", "16",
                              "--trials", "1", "--seed", "3",
                              "--d-sweep", "16,32", "--out", str(root / "e4")]))
        return cmds

    digests = []
    for rep_dir in ("runA", "runB"):
        root = tmp_path / rep_dir
        cmds = build_commands(root)
        run_digest = {}
        for outputs, argv in cmds:
            assert cli_main(argv) == 0, argv
            for name in outputs:
                run_digest[name] = h(root / name)
        digests.append(run_digest)
    assert len(build_commands(tmp_path / "count_check")) == 20
    mismatched = [k for k in digests[0] if digests[0][k] != digests[1][k]]
    ok = not mismatched
    report(8, "cli-determinism", ok,
           f"20 commands rerun, {len(digests[0])} artifacts hashed, "
           f"{len(mismatched)} mismatches")
    assert ok, mismatched
