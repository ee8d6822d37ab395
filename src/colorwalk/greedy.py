"""Greedy recoloring of planted instances, emitting verifiable traces.

A run sweeps rounds. Round r picks the lowest-indexed class k with
uncolored members, finalizes all of them to the round's palette color
(an independent set, so the batch is always safe), then repeatedly
extends with candidate vertices that have no neighbor already holding
the round color, until no candidate remains. Rounds stop once at most L
vertices are uncolored; the leftover set is recolored with fresh colors
by the residual pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import Coloring, Trace, verify_trace
from .errors import InfeasibleError, InternalInvariantError, PaletteError
from .graphs import PlantedInstance, _distinct, _scan_mis, induced_subgraph
from .rng import make_rng

SELECTORS = ("lowest", "random", "highest_degree")


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from (n, m, q) and the actual class sizes.

    n_q is the exact cross-class pair count, d_hat = m*n/n_q the effective
    average degree of the independent-pair model, p_hat = d_hat/n its pair
    probability. l_cutoff is the residual threshold n/ln^2(d_hat), clamped
    to [0, n], k_core_bound = 2*d_hat/ln^2(d_hat) + 1, and
    formula_residual_budget = d_hat/ln^2(d_hat) + 2 the closed-form residual
    color budget (a run budgets from the measured degeneracy). q0 (the color
    budget the construction is compared against) exists only when q > 1,
    d > e and ln d > 7 ln ln d; q0_note says why it is absent otherwise.
    Natural logarithms throughout.
    """

    n: int
    m: int
    q: int
    d: float
    n_q: int
    d_hat: float
    p_hat: float
    l_cutoff: int
    k_core_bound: float
    formula_residual_budget: float
    q0: float | None
    q0_note: str | None


def derive_params(n: int, m: int, q: int, n_q: int) -> DerivedParams:
    """The quantities of ``DerivedParams``; ``n_q`` is the cross-class pair
    count of the partition, ``Partition.cross_pair_count()``."""
    if q < 1:
        raise InfeasibleError("q must be >= 1")
    if m < 0:
        raise InfeasibleError(f"m={m} outside [0, C({n},2)]")
    if n_q == 0 and m > 0:
        raise InfeasibleError("no cross-class pairs but m > 0")
    d = 2 * m / n if n else 0.0
    if n_q == 0 or m == 0:
        d_hat, p_hat = 0.0, 0.0
    else:
        d_hat = m * n / n_q
        p_hat = m / n_q
    if p_hat > 1.0:
        raise InfeasibleError(f"m={m} exceeds cross-pair count {n_q}")

    if d_hat > 1.0:
        log2 = math.log(d_hat) ** 2
        l_cutoff = min(math.ceil(n / log2), n)
        k_core_bound = 2 * d_hat / log2 + 1
        formula_residual_budget = d_hat / log2 + 2
    else:
        # ln^2 is zero or meaningless here; only the residual pass makes sense
        l_cutoff = n
        k_core_bound = math.inf if d_hat == 1.0 else 1.0
        formula_residual_budget = math.inf if d_hat == 1.0 else 2.0

    q0 = None
    q0_note = None
    if q <= 1:
        q0_note = "q0 undefined: q <= 1"
    elif d <= 1.0:
        q0_note = "q0 undefined: d <= 1"
    elif d <= math.e:
        # ln ln d <= 0 makes the denominator positive for no reason: the
        # formula is asymptotic in d and says nothing this low
        q0_note = "q0 undefined: d <= e (ln ln d <= 0)"
    else:
        denom = math.log(d) - 7 * math.log(math.log(d))
        if denom <= 0:
            q0_note = "q0 undefined: denominator <= 0 (ln d <= 7 ln ln d)"
        else:
            q0 = q / (q - 1) * d / denom
    return DerivedParams(n=n, m=m, q=q, d=d, n_q=n_q, d_hat=d_hat, p_hat=p_hat,
                         l_cutoff=l_cutoff, k_core_bound=k_core_bound,
                         formula_residual_budget=formula_residual_budget,
                         q0=q0, q0_note=q0_note)


@dataclass(eq=False)
class GreedyReport:
    """Everything a run produced, plus accounting for the color budget.

    finalized lists the finalized vertices in take order; trajectory[t] is
    the uncolored count after t of them (trajectory[0] = n). round_pools
    holds, per round, the round's candidate pool size after each
    finalization in it, from the uncolored count at round entry: the series
    the binomial-decay recurrence models. Series are int64 arrays, and the
    values derived from the stored fields are properties.
    """

    trace: Trace
    rounds: int
    residual_size: int
    residual_degeneracy: int
    finalized: np.ndarray
    round_pools: list[np.ndarray]
    round_classes: list[int]
    params: DerivedParams
    l_used: int
    residual_fresh_used: list[int]

    @property
    def phase1_colors(self) -> int:
        return self.rounds

    @property
    def residual_colors(self) -> int:
        return len(self.residual_fresh_used)

    @property
    def total_colors(self) -> int:
        return self.phase1_colors + self.residual_colors

    @property
    def trajectory(self) -> np.ndarray:
        return np.arange(self.params.n, self.residual_size - 1, -1, dtype=np.int64)


def _check_palette(palette, sigma_colors: np.ndarray, q: int) -> None:
    pal = list(palette)
    if len(set(pal)) != len(pal):
        raise PaletteError("palette colors must be distinct")
    if any(c < 0 for c in pal):
        raise PaletteError("palette colors must be nonnegative")
    # pal[r] == r is safe (class r is empty among uncolored vertices once
    # round r runs); any other entry must avoid the start coloring's colors,
    # or a round could recolor a vertex next to an untouched same-color one
    present = set(_distinct(sigma_colors).tolist())
    bad = sorted({c for i, c in enumerate(pal) if c != i and c in present})
    if bad:
        raise PaletteError(
            "palette entries off the identity must be disjoint from the start "
            f"coloring's colors; offending colors: {bad[:5]}")


def run_greedy_recolor(inst: PlantedInstance, palette=None, L: int | None = None,
                       selector: str = "lowest", selector_seed: int | None = None,
                       strict: bool = False) -> GreedyReport:
    """Run the full recoloring (rounds plus residual pass) on a planted
    instance, returning the trace and per-step statistics.

    palette: ordered color list; rounds consume a prefix, the residual pass
    draws its fresh colors from the unused remainder. None means the
    identity palette on class indices extended with fresh colors q, q+1, ...
    as needed. L overrides the derived residual threshold. selector picks
    the candidate order inside a round: "lowest" vertex id (the default),
    "random" priorities drawn from selector_seed (0 when None), or
    "highest_degree" first; ties go to the lower vertex id. strict
    verifies the finished trace and raises InternalInvariantError at its
    first bad step.
    """
    from .residual import degeneracy_recolor_greedy

    g = inst.graph
    part = inst.partition
    n, q = g.n, part.q
    params = derive_params(n, g.m, q, part.cross_pair_count())
    if L is None:
        L = params.l_cutoff
    if L < 0:
        raise ValueError("L must be >= 0")

    colors = part.class_of.astype(np.int64).copy()
    auto_palette = palette is None
    if auto_palette:
        # each round empties its class, so a round starts only while rounds < q
        pal = range(q)
    else:
        _check_palette(palette, colors, q)
        pal = list(palette)

    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}")
    # the candidate order every round walks; nothing changes it mid-run
    if selector == "lowest":
        order = np.arange(n)
    elif selector == "random":
        priority = make_rng(selector_seed if selector_seed is not None else 0).random(n)
        order = np.argsort(priority, kind="stable")
    else:
        order = np.argsort(-g.degrees, kind="stable")

    in_u = np.ones(n, dtype=bool)
    u_count = n
    round_pools: list[np.ndarray] = []
    round_classes: list[int] = []
    takes: list[np.ndarray] = []
    rounds = 0

    while u_count > L:
        if rounds >= len(pal):
            raise PaletteError(
                f"palette exhausted after {rounds} rounds with {u_count} vertices uncolored",
                rounds_completed=rounds)
        target = int(pal[rounds])

        # line A: the round's class k is the lowest among uncolored vertices.
        # The scan takes its remaining members first (they are independent),
        # then the candidates in selector order. Its free set is the round's
        # pool: a neighbor of a round-color vertex cannot join
        uncolored = np.flatnonzero(in_u)
        uncolored_class = part.class_of[uncolored]
        k = int(uncolored_class.min())
        members = uncolored[uncolored_class == k]
        taken, pool = _scan_mis(g, np.concatenate((members, order)), in_u)
        colors[taken] = target
        in_u[taken] = False
        u_count -= taken.shape[0]
        takes.append(taken)
        rounds += 1
        round_pools.append(pool)
        round_classes.append(k)

    # each vertex moved at most once, when finalized, if its color changed
    finalized = np.concatenate(takes) if takes else np.zeros(0, dtype=np.int64)
    moved = finalized[colors[finalized] != part.class_of[finalized]]

    # residual pass on the leftover set
    residual_vertices = np.flatnonzero(in_u)
    residual_size = int(residual_vertices.shape[0])
    residual_moves = np.empty((0, 2), dtype=np.int64)
    residual_degeneracy = 0
    fresh_used: list[int] = []
    if residual_size:
        g_u, vmap = induced_subgraph(g, residual_vertices)
        current = Coloring(colors, max(int(colors.max()) + 1, q))
        if auto_palette:
            # every color from max(q, max color + 1) on is unused
            fresh = np.arange(current.palette_hint,
                              current.palette_hint + residual_size + 1)
        else:
            fresh = np.asarray(pal[rounds:], dtype=np.int64)
            fresh = fresh[~np.isin(fresh, colors)]
        residual_moves, residual_degeneracy = degeneracy_recolor_greedy(
            g_u, vmap, current, fresh)
        fresh_used = _distinct(residual_moves[:, 1]).tolist()

    phase1_moves = np.column_stack((moved, colors[moved]))
    trace = Trace(start=inst.sigma, moves=np.concatenate((phase1_moves, residual_moves)))
    if strict:
        ok, failure = verify_trace(g, trace)
        if not ok:
            raise InternalInvariantError(
                f"trace step {failure.step} invalid: {failure.reason}")
    return GreedyReport(
        trace=trace, rounds=rounds, residual_size=residual_size,
        residual_degeneracy=residual_degeneracy, finalized=finalized,
        round_pools=round_pools, round_classes=round_classes, params=params,
        l_used=int(L), residual_fresh_used=fresh_used)


def simulate_recurrence(u0: int, p_hat: float, seed: int) -> list[int]:
    """Binomial-decay pool model: u_{t+1} = u_t - Bin(u_t, p_hat) - 1,
    iterated until the value reaches 0 (negative values clamp to 0).
    Returns the full sequence starting at u0.
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError("p_hat outside [0, 1]")
    if u0 < 0:
        raise ValueError("u0 must be >= 0")
    rng = make_rng(seed)
    seq = [int(u0)]
    while seq[-1] > 0:
        u = seq[-1]
        nxt = u - int(rng.binomial(u, p_hat)) - 1
        seq.append(max(nxt, 0))
    return seq
