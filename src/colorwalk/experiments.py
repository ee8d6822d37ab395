"""Seeded statistical campaigns over the generators and recoloring runs.

Each experiment is a pure function of its config: per-trial generators are
seeded from (base seed, trial index), and reports serialize to identical
bytes on rerun. Randomized claims are always reported as pass fractions
over the trial count, never asserted per trial, because the underlying
guarantees only hold with high probability.

The size-dependent correction terms (3 ln ln and 6 ln ln subtractions)
are negative at desk-scale average degrees; wherever that happens the
affected bound is reported as inactive instead of passing vacuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .graphs import (Graph, Partition, _check_n, balanced_partition, count_edges_within,
                     gen_gnm, gen_planted_p, greedy_mis, random_partition)
from .greedy import derive_params, run_greedy_recolor, simulate_recurrence
from .io import write_csv, write_records
from .rng import derive_seed, derived_rng


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    n: int
    d: float
    q: int | None = None
    trials: int = 1
    seed: int = 0
    m: int | None = None  # override for the edge count (else round(d*n/2))
    subset_samples: int = 10_000
    d_sweep: tuple[float, ...] = ()
    jobs: int = 1
    l_override: int | None = None  # residual threshold override for runs

    def __post_init__(self):
        _check_n(self.n)  # before any bound on the degree, so n decides the exit
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.subset_samples < 0:
            raise ValueError("subset_samples must be >= 0")

    @property
    def edge_count(self) -> int:
        return self.m if self.m is not None else round(self.d * self.n / 2)


@dataclass(eq=False)
class ExperimentReport:
    name: str
    schema: list[str]
    rows: list[list]
    summary: list[tuple[str, object]]

    def summary_dict(self) -> dict:
        return dict(self.summary)

    def write(self, path: str, fmt: str = "csv") -> None:
        if fmt == "csv":
            write_csv(path, self.schema, [
                *self.rows, *(["summary", key, value] for key, value in self.summary)])
        elif fmt == "records":
            write_records(path, [
                ("experiment", self.name),
                *((f"trial.{row[0]}.{col}", value) for row in self.rows
                  for col, value in zip(self.schema[1:], row[1:])),
                *((f"summary.{key}", value) for key, value in self.summary)])
        else:
            raise ValueError(f"unknown format {fmt!r}")


def _run_trials(cfg: ExperimentConfig, worker, payload) -> list:
    indices = list(range(cfg.trials))
    # the pool starts every worker at once, so never more than there are trials
    workers = min(cfg.jobs, cfg.trials)
    if workers > 1:
        # imported here: the pool machinery is most of this module's import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, [(payload, i) for i in indices]))
    return [worker((payload, i)) for i in indices]


def _planted_p(part: Partition, m: int, seed: int):
    """(instance, params): the planted instance on ``part`` that takes each
    cross pair with the probability p_hat of m edges, and the
    ``DerivedParams`` that p_hat comes from."""
    params = derive_params(part.n, m, part.q, part.cross_pair_count())
    return gen_planted_p(part, params.p_hat, seed), params


# ---------------------------------------------------------------------------
# maximal independent set sizes vs the lower-bound formula


def mis_bound(delta: float, n: int) -> float:
    """(ln D - 3 ln ln D) * n / D; requires the difference to be positive."""
    if delta <= 1:
        raise InfeasibleError("average degree must exceed 1 for the bound")
    value = math.log(delta) - 3 * math.log(math.log(delta))
    if value <= 0:
        raise InfeasibleError(
            f"bound inactive at degree {delta}: 3 ln ln exceeds ln")
    return value * n / delta


def _mis_trial(args):
    cfg, i = args
    g = gen_gnm(cfg.n, cfg.edge_count, derive_seed(cfg.seed, i, 0))
    order = derived_rng(cfg.seed, i, 1).permutation(cfg.n)
    size = int(greedy_mis(g, order).shape[0])
    return [i, g.m, size]


def run_mis_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Greedy maximal independent sets under random orders on G(n, m).

    Any maximal independent set is at least as large as the minimum one,
    so every sample can be tested against the lower-bound formula directly.
    """
    bound = mis_bound(cfg.d, cfg.n)
    results = _run_trials(cfg, _mis_trial, cfg)
    rows = []
    meet = 0
    sizes = []
    for i, m, size in results:
        ok = size >= bound
        meet += ok
        sizes.append(size)
        rows.append([i, cfg.n, m, size, bound, ok])
    summary = [
        ("trials", cfg.trials),
        ("bound", bound),
        ("fraction_meeting_bound", meet / cfg.trials),
        ("min_size", min(sizes)),
        ("median_size", float(np.median(sizes))),
        ("max_size", max(sizes)),
    ]
    return ExperimentReport(
        name="mis",
        schema=["trial", "n", "m", "mis_size", "bound", "meets_bound"],
        rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# subset edge density and residual-set degeneracy


def subset_density_check(g: Graph, subset, delta: float) -> tuple[int, float, bool]:
    """Edges inside ``subset`` against the s*D/ln^2(D) cap."""
    idx = np.asarray(subset, dtype=np.int64)
    edges = count_edges_within(g, idx)
    bound = idx.shape[0] * delta / math.log(delta) ** 2
    return edges, bound, edges <= bound


def _density_trial(args):
    cfg, i = args
    log2 = math.log(cfg.d) ** 2
    violations = 0
    samples = cfg.subset_samples
    if samples > 0:
        g = gen_gnm(cfg.n, cfg.edge_count, derive_seed(cfg.seed, i, 0))
        rng = derived_rng(cfg.seed, i, 1)
        smax = max(int(cfg.n / log2), 1)
        for _ in range(samples):
            s = int(rng.integers(1, smax + 1))
            subset = rng.permutation(cfg.n)[:s]
            _, _, ok = subset_density_check(g, subset, cfg.d)
            violations += not ok
    # residual set of a full greedy run on a planted instance
    part = random_partition(cfg.n, cfg.q, cfg.edge_count, derive_seed(cfg.seed, i, 2))
    inst, _ = _planted_p(part, cfg.edge_count, derive_seed(cfg.seed, i, 3))
    report = run_greedy_recolor(inst)
    u_ok = report.residual_size <= report.l_used
    k_bound = report.params.k_core_bound
    core_ok = report.residual_degeneracy + 1 <= k_bound
    return [i, samples, violations, report.residual_size, report.l_used,
            u_ok, report.residual_degeneracy, k_bound, core_ok]


def run_density_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Random-subset edge counts on G(n, m) plus the degeneracy of the
    residual set left by a greedy run on a planted instance.

    ``subset_samples`` controls the per-trial subset draw count (0 skips the
    subset pass entirely, keeping only the residual-degeneracy clause).
    """
    if cfg.q is None:
        raise ValueError("density experiment needs q")
    if cfg.d <= 0 or math.log(cfg.d) ** 2 <= 0:
        raise InfeasibleError("degree too small for the subset size cap")
    results = _run_trials(cfg, _density_trial, cfg)
    rows = list(results)
    total_subsets = sum(r[1] for r in rows)
    total_violations = sum(r[2] for r in rows)
    u_frac = sum(r[5] for r in rows) / cfg.trials
    core_frac = sum(r[8] for r in rows) / cfg.trials
    summary = [
        ("trials", cfg.trials),
        ("subsets_checked", total_subsets),
        ("subset_violations", total_violations),
        ("fraction_residual_within_l", u_frac),
        ("fraction_degeneracy_within_core_bound", core_frac),
    ]
    return ExperimentReport(
        name="density",
        schema=["trial", "subsets", "subset_violations", "residual_size",
                "l_cutoff", "residual_within_l", "residual_degeneracy",
                "k_core_bound", "degeneracy_within_bound"],
        rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# coupling: run trajectories vs the binomial-decay recurrence


def _coupling_trial(args):
    cfg, i = args
    part = random_partition(cfg.n, cfg.q, cfg.edge_count, derive_seed(cfg.seed, i, 2))
    inst, params = _planted_p(part, cfg.edge_count, derive_seed(cfg.seed, i, 3))
    report = run_greedy_recolor(inst, L=cfg.l_override)
    recur = simulate_recurrence(cfg.n, params.p_hat, derive_seed(cfg.seed, i, 4))
    pool1 = report.round_pools[0] if report.round_pools else [cfg.n]
    return {
        "trial": i,
        "p_hat": params.p_hat,
        "trajectory": report.trajectory,
        "round1_pool": pool1,
        "recurrence": recur,
    }


def pointwise_median_dominance(upper: list, lower: list) -> tuple[float, int]:
    """Fraction of positions where median(upper curves) >= median(lower
    curves); short curves are padded with their final value."""
    length = max(max(len(s) for s in upper), max(len(s) for s in lower))
    up, lo = ([np.pad(s, (0, length - len(s)), "edge") for s in curves]
              for curves in (upper, lower))
    ok = int(np.count_nonzero(np.median(up, axis=0) >= np.median(lo, axis=0)))
    return ok / length, length


def run_coupling_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Pair greedy-run uncolored-count trajectories with the recurrence at
    matched (u0 = n, p_hat); report pointwise median dominance.

    The recurrence removes an extra binomial batch per step, so the planted
    trajectory should sit above it everywhere. The first round's candidate
    pool is compared the same way as a secondary diagnostic, since that is
    the series the recurrence models step for step.
    """
    if cfg.q is None:
        raise ValueError("coupling experiment needs q")
    results = _run_trials(cfg, _coupling_trial, cfg)
    rows = []
    for r in results:
        rows.append([r["trial"], r["p_hat"], len(r["trajectory"]),
                     int(r["trajectory"][-1]), len(r["round1_pool"]),
                     len(r["recurrence"])])
    traj_frac, traj_steps = pointwise_median_dominance(
        [r["trajectory"] for r in results], [r["recurrence"] for r in results])
    pool_frac, pool_steps = pointwise_median_dominance(
        [r["round1_pool"] for r in results], [r["recurrence"] for r in results])
    summary = [
        ("trials", cfg.trials),
        ("dominance_fraction", traj_frac),
        ("steps_compared", traj_steps),
        ("round1_pool_dominance_fraction", pool_frac),
        ("round1_pool_steps_compared", pool_steps),
    ]
    return ExperimentReport(
        name="coupling",
        schema=["trial", "p_hat", "trajectory_len", "trajectory_final",
                "round1_pool_len", "recurrence_len"],
        rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# color usage across a degree sweep


def per_round_pool_bound(d_hat: float, p_hat: float, u_start: int, n: int) -> float | None:
    """Lower-bound estimate for one round's recoloring count, with the
    effective degree scaled by the surviving fraction u_start/n. Returns
    None when the correction terms drive it nonpositive (inactive).

    Interpretation choice: the bound is stated for a full random graph, and
    scaling its degree parameter by the surviving fraction is how it gets
    transplanted onto the shrinking pool; recorded as such, never gated.
    """
    delta_eff = d_hat * u_start / n
    if delta_eff <= 1:
        return None
    value = math.log(delta_eff) - 3 * math.log(math.log(delta_eff))
    if value <= 0 or p_hat <= 0:
        return None
    return value / p_hat


def _scaling_q(d: float) -> int:
    return math.ceil(2 * d / math.log(d))


def _scaling_trial(args):
    (cfg, d), i = args
    n = cfg.n
    q = _scaling_q(d)
    m = round(d * n / 2)
    # an integral degree is its own seed index, a fractional one its exact
    # ratio, so no two swept degrees share a stream
    key = (int(d),) if d.is_integer() else d.as_integer_ratio()
    part = balanced_partition(n, q, derive_seed(cfg.seed, i, 5, *key))
    inst, params = _planted_p(part, m, derive_seed(cfg.seed, i, 6, *key))
    report = run_greedy_recolor(inst)
    ratio = report.total_colors * math.log(d) / d
    # the asymptotic per-round lower bound; negative at desk-scale degrees
    raw = math.log(d) - 6 * math.log(math.log(d))
    per_round_raw = (q - 1) / q * raw / d * n if raw > 0 else None
    recolored = [len(p) - 1 for p in report.round_pools]
    bounds = [per_round_pool_bound(params.d_hat, params.p_hat, pool[0], n)
              for pool in report.round_pools]
    active = sum(b is not None for b in bounds)
    active_met = sum(b is not None and r >= b for r, b in zip(recolored, bounds))
    return [i, d, q, report.total_colors, report.rounds, report.residual_colors,
            report.residual_size, ratio,
            min(recolored) if recolored else 0,
            per_round_raw if per_round_raw is not None else "inactive",
            active, active_met]


def run_scaling_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Sweep average degree d; for each d run greedy on a balanced planted
    instance with q = ceil(2 d / ln d) and record total colors against the
    d / ln d yardstick."""
    from scipy import stats  # its only user; keeps it out of CLI start-up
    sweep = cfg.d_sweep or (cfg.d,)
    if min(sweep) <= 1:  # q = ceil(2d / ln d) needs ln d > 0
        raise InfeasibleError(f"average degree must exceed 1, got {min(sweep):g}")
    for d in sweep:  # a planted instance needs a vertex in every class
        if _scaling_q(d) > cfg.n:
            raise InfeasibleError(f"q={_scaling_q(d)} exceeds n={cfg.n} at average degree {d:g}")
    rows = []
    ratios_by_d = []
    for d in sweep:
        trial_rows = _run_trials(cfg, _scaling_trial, (cfg, float(d)))
        rows.extend(trial_rows)
        ratios_by_d.append((float(d), float(np.mean([r[7] for r in trial_rows]))))
    summary = [("trials_per_d", cfg.trials)]
    for d, ratio in ratios_by_d:
        summary.append((f"mean_ratio_d_{d:g}", ratio))
    if len(ratios_by_d) >= 2:
        ds = [d for d, _ in ratios_by_d]
        rs = [r for _, r in ratios_by_d]
        rho, pvalue = stats.spearmanr(ds, rs)
        summary.append(("spearman_rho", float(rho)))
        summary.append(("spearman_p", float(pvalue)))
    return ExperimentReport(
        name="scaling",
        schema=["trial", "d", "q", "total_colors", "rounds", "residual_colors",
                "residual_size", "ratio_colors_lnd_over_d", "min_round_recolored",
                "per_round_bound", "scaled_bound_rounds_active",
                "scaled_bound_rounds_met"],
        rows=rows, summary=summary)


EXPERIMENTS = {
    "mis": run_mis_experiment,
    "density": run_density_experiment,
    "coupling": run_coupling_experiment,
    "scaling": run_scaling_experiment,
}
