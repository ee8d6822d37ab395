"""Coloring-to-coloring transformations through single-vertex moves.

``transform_to_target`` first moves every vertex of the start coloring
onto a work palette (greedy rounds plus residual pass), then walks the
target's color classes in ascending color order, switching each vertex to
its target color. Because the work palette avoids the target's colors,
and vertices of one target class are pairwise non-adjacent, every
intermediate coloring stays proper. ``connect_pair`` joins two colorings
through a common target by reversing the second leg.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .coloring import Coloring, Trace, colors_used, hamming, is_proper, reverse_moves
from .errors import PaletteError
from .graphs import (Graph, PlantedInstance, Partition, _distinct,
                     partition_from_class_of)
from .greedy import GreedyReport, run_greedy_recolor


def classes_from_coloring(c: Coloring) -> Partition:
    """Partition whose classes are the coloring's color classes, ordered by
    color id and renumbered densely from 0."""
    used, class_of = np.unique(c.colors, return_inverse=True)
    return partition_from_class_of(class_of, len(used))


def instance_from_coloring(g: Graph, sigma: Coloring) -> PlantedInstance:
    """Wrap an arbitrary proper coloring as a planted-style instance; the
    greedy rounds only need the classes to be independent sets."""
    return PlantedInstance(graph=g, partition=classes_from_coloring(sigma))


def _check_work_palette(work_palette, sigma: Coloring, tau: Coloring) -> list[int]:
    pal = [int(c) for c in work_palette]
    if len(set(pal)) != len(pal):
        raise PaletteError("work palette colors must be distinct")
    tau_colors = set(_distinct(tau.colors).tolist())
    overlap = tau_colors.intersection(pal)
    if overlap:
        raise PaletteError(f"work palette overlaps target colors: {sorted(overlap)[:5]}")
    sigma_colors = set(_distinct(sigma.colors).tolist())
    overlap = sigma_colors.intersection(pal)
    if overlap:
        raise PaletteError(f"work palette overlaps start colors: {sorted(overlap)[:5]}")
    if any(c < 0 for c in pal):
        raise PaletteError("palette colors must be nonnegative")
    return pal


def transform_to_target(g: Graph, sigma: Coloring, tau: Coloring, work_palette,
                        L: int | None = None) -> Trace:
    """Trace from sigma to exactly tau.

    Phase 1 moves every vertex onto ``work_palette`` (greedy rounds, then
    the residual pass on whatever colors of the palette are left). Phase 2
    processes tau's color classes in ascending color order, each class in
    ascending vertex order, moving every vertex to its tau color. A class
    is an independent set and no vertex holds its color yet, so the whole
    class can move. The work palette must avoid both sigma's and tau's
    colors, so a walk has exactly 2n moves; identical colorings
    short-circuit to the empty trace once the palette passes those checks.
    """
    trace, _ = transform_with_report(g, sigma, tau, work_palette, L=L)
    return trace


def transform_with_report(g: Graph, sigma: Coloring, tau: Coloring, work_palette,
                          L: int | None = None) -> tuple[Trace, GreedyReport | None]:
    if sigma.n != g.n or tau.n != g.n:
        raise ValueError("coloring length does not match graph")
    if not is_proper(g, sigma):
        raise ValueError("sigma is not a proper coloring")
    if not is_proper(g, tau):
        raise ValueError("tau is not a proper coloring")
    pal = _check_work_palette(work_palette, sigma, tau)
    if hamming(sigma, tau) == 0:
        return Trace(start=sigma.copy()), None

    inst = instance_from_coloring(g, sigma)
    # greedy runs on the class indices 0..k-1, which may share ids with the
    # palette, so it gets the stand-in palette k, k+1, ...; stand-in k+i is
    # pal[i]. No stand-in is a class index, so every greedy move changes a
    # color, and the greedy trace in real colors is phase 1 on sigma: each
    # finalized vertex to its round color, then each residual vertex
    k = inst.partition.q
    report = run_greedy_recolor(inst, palette=range(k, k + len(pal)), L=L)
    stand_in = report.trace.moves
    phase1 = np.column_stack((stand_in[:, 0], np.array(pal, dtype=np.int64)[stand_in[:, 1] - k]))
    report = dataclasses.replace(
        report, trace=Trace(start=sigma.copy(), moves=phase1),
        residual_fresh_used=sorted(pal[c - k] for c in report.residual_fresh_used))
    # phase 2: every vertex now holds a work color, which no target class uses
    sweep = np.argsort(tau.colors, kind="stable")
    moves = np.concatenate((phase1, np.column_stack((sweep, tau.colors[sweep]))))
    return Trace(start=sigma.copy(), moves=moves), report


def reverse_trace(g: Graph, trace: Trace) -> Trace:
    """Trace from the end of ``trace`` back to its start: prior colors are
    restored in reverse move order. The input must itself be valid."""
    from .coloring import verify_trace
    ok, failure = verify_trace(g, trace)
    if not ok:
        raise ValueError(f"cannot reverse an invalid trace "
                         f"(step {failure.step}: {failure.reason})")
    end, rev = reverse_moves(trace.start, trace.moves)
    return Trace(start=end, moves=rev)


def connect_pair(g: Graph, sigma: Coloring, sigma_prime: Coloring, tau: Coloring,
                 work_palette, work_palette_prime=None,
                 L: int | None = None) -> Trace:
    """Trace from sigma to sigma_prime through tau: the forward leg
    sigma -> tau concatenated with the reversed leg sigma_prime -> tau."""
    if work_palette_prime is None:
        work_palette_prime = work_palette
    first = transform_to_target(g, sigma, tau, work_palette, L=L)
    second = transform_to_target(g, sigma_prime, tau, work_palette_prime, L=L)
    _, rev = reverse_moves(second.start, second.moves)
    return Trace(start=sigma.copy(), moves=np.concatenate((first.moves, rev)))


def color_budget_arithmetic(work_palette, tau: Coloring, q: int) -> dict:
    """Diagnostic for the color-budget arithmetic: does the work palette
    plus the target's colors fit inside q colors overall?"""
    work = len(set(int(c) for c in work_palette))
    target = colors_used(tau)
    return {
        "work_colors": work,
        "target_colors": target,
        "q": q,
        "fits_in_q": work + target <= q,
    }


def contiguity_hypothesis_ok(d: float, q: int) -> bool:
    """d <= 2 (q-1) ln(q-1), the regime the planted-vs-uniform comparison
    assumes; surfaced as a warning only, never a gate."""
    if q <= 2:
        return d <= 0
    return d <= 2 * (q - 1) * math.log(q - 1)
