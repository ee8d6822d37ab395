"""Coloring-to-coloring transformations through single-vertex moves.

``transform_to_target`` walks tau's color classes in a sweep order pi,
switching each vertex whose color is not yet its target to that target.
A vertex v is threatened when a neighbour's target is sigma(v); if pi
visits tau(v) after sigma(v), that neighbour would enter sigma(v) while v
still holds it, so v first detours onto a work palette (greedy rounds
plus residual pass on the detour set). The work palette avoids the
target's and the start's colors, and vertices of one target class are
pairwise non-adjacent, so every intermediate coloring stays proper. pi
is an Eades-Lin-Smyth order that breaks few of these wishes, and a walk
has hamming(sigma, tau) + |detour| <= 2n moves. ``connect_pair`` joins
two colorings through a common target by reversing the second leg.
"""

from __future__ import annotations

import dataclasses
import heapq
import math

import numpy as np

from .coloring import (CHUNK, Coloring, Trace, colors_used, hamming, is_proper,
                       reverse_moves)
from .errors import PaletteError
from .graphs import (Graph, PlantedInstance, Partition, _distinct, induced_subgraph,
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

    tau's color classes are swept in an order pi, each class in ascending
    vertex order, moving every vertex whose color is not yet its target.
    A vertex v with a neighbour whose target is sigma(v) detours first
    when pi visits tau(v) after sigma(v): the detour set goes onto
    ``work_palette`` (greedy rounds, then the residual pass on whatever
    colors of the palette are left) before the sweep. The work palette
    must avoid both sigma's and tau's colors. A walk has hamming(sigma,
    tau) + |detour| <= 2n moves, and none when the colorings are equal,
    once the palette passes those checks.
    """
    trace, _ = transform_with_report(g, sigma, tau, work_palette, L=L)
    return trace


def transform_with_report(g: Graph, sigma: Coloring, tau: Coloring, work_palette,
                          L: int | None = None) -> tuple[Trace, GreedyReport | None]:
    """The walk of ``transform_to_target`` plus the report of its detour
    run, whose trace holds the detour moves; None when nothing detours."""
    return _detour_walk(g, sigma, tau, work_palette, L)


def _threatened(g: Graph, tau_of: np.ndarray, sig_of: np.ndarray) -> np.ndarray:
    """Mask of the vertices v with a neighbour w where tau_of[w] ==
    sig_of[v], read CHUNK edges at a time."""
    hit = np.zeros(g.n, dtype=bool)
    for lo in range(0, g.m, CHUNK):
        eu, ev = g.edge_u[lo:lo + CHUNK], g.edge_v[lo:lo + CHUNK]
        hit[eu[np.take(tau_of, ev) == np.take(sig_of, eu)]] = True
        hit[ev[np.take(tau_of, eu) == np.take(sig_of, ev)]] = True
    return hit


def _sweep_rank(k: int, tail: np.ndarray, head: np.ndarray,
                weight: np.ndarray) -> np.ndarray:
    """Position of each of k classes in the sweep, given distinct weighted
    wishes "tail before head", sorted by tail and then head.

    The greedy of Eades, Lin and Smyth (Inf. Process. Lett. 47, 1993) for
    a small feedback arc set. Classes that no wish names come first, in
    ascending order. Of the rest, a sink goes to the back, else a source
    to the front, else the class with the largest out-weight minus
    in-weight to the front; each time the lowest index wins a tie.
    """
    named = np.zeros(k, dtype=bool)
    named[tail] = True
    named[head] = True
    front = np.flatnonzero(~named).tolist()
    nodes = np.flatnonzero(named).tolist()
    out_w = np.bincount(tail, weight, k).astype(np.int64).tolist()
    in_w = np.bincount(head, weight, k).astype(np.int64).tolist()
    bounds = np.arange(k + 1)
    out_ptr = np.searchsorted(tail, bounds).tolist()
    by_head = np.argsort(head, kind="stable")
    in_ptr = np.searchsorted(head[by_head], bounds).tolist()
    out_to, out_wt = head.tolist(), weight.tolist()
    in_from, in_wt = tail[by_head].tolist(), weight[by_head].tolist()

    gone = bytearray(k)
    sinks = [c for c in nodes if out_w[c] == 0]
    sources = [c for c in nodes if in_w[c] == 0]
    best = [(in_w[c] - out_w[c], c) for c in nodes]
    for h in (sinks, sources, best):
        heapq.heapify(h)
    back = []
    for _ in nodes:
        while sinks and gone[sinks[0]]:
            heapq.heappop(sinks)
        while sources and gone[sources[0]]:
            heapq.heappop(sources)
        if sinks:
            c = heapq.heappop(sinks)
            back.append(c)
        else:
            if sources:
                c = heapq.heappop(sources)
            else:  # every live class has both kinds of wish; stale keys skip
                key, c = heapq.heappop(best)
                while gone[c] or key != in_w[c] - out_w[c]:
                    key, c = heapq.heappop(best)
            front.append(c)
        gone[c] = 1
        for i in range(out_ptr[c], out_ptr[c + 1]):
            y = out_to[i]
            if not gone[y]:
                in_w[y] -= out_wt[i]
                if in_w[y] == 0:
                    heapq.heappush(sources, y)
                heapq.heappush(best, (in_w[y] - out_w[y], y))
        for i in range(in_ptr[c], in_ptr[c + 1]):
            z = in_from[i]
            if not gone[z]:
                out_w[z] -= in_wt[i]
                if out_w[z] == 0:
                    heapq.heappush(sinks, z)
                heapq.heappush(best, (in_w[z] - out_w[z], z))
    rank = np.empty(k, dtype=np.int64)
    rank[front + back[::-1]] = np.arange(k)
    return rank


def _detour_walk(g: Graph, sigma: Coloring, tau: Coloring, work_palette,
                 L: int | None = None, rank=None) -> tuple[Trace, GreedyReport | None]:
    """``transform_with_report`` with the sweep order given: rank[c] is the
    position of tau's class c, classes numbered by ascending color. None
    takes the Eades-Lin-Smyth order of ``_sweep_rank``."""
    if sigma.n != g.n or tau.n != g.n:
        raise ValueError("coloring length does not match graph")
    if not is_proper(g, sigma):
        raise ValueError("sigma is not a proper coloring")
    if not is_proper(g, tau):
        raise ValueError("tau is not a proper coloring")
    pal = _check_work_palette(work_palette, sigma, tau)
    if hamming(sigma, tau) == 0:
        return Trace(start=sigma.copy()), None

    # tau_of[v] is tau(v)'s class index; sig_of[v] is sigma(v)'s, or k when
    # no target class has that color. A neighbour w with tau(w) = sigma(v)
    # has tau(w) != tau(v), so a threatened v always moves in the sweep
    used = _distinct(tau.colors)
    k = int(used.shape[0])
    tau_of = np.searchsorted(used, tau.colors).astype(np.int32)
    pos = np.minimum(np.searchsorted(used, sigma.colors), k - 1)
    sig_of = np.where(used[pos] == sigma.colors, pos, k).astype(np.int32)
    threat = np.flatnonzero(_threatened(g, tau_of, sig_of))
    a = tau_of[threat].astype(np.int64)
    b = sig_of[threat].astype(np.int64)
    if rank is None:
        # each threatened vertex wishes its class a before b, so that it
        # leaves sigma(v) before a neighbour enters it; counted per pair
        codes, weight = np.unique(a * k + b, return_counts=True)
        rank = _sweep_rank(k, codes // k, codes % k, weight)
    rank = np.asarray(rank, dtype=np.int64)
    detour = threat[rank[a] > rank[b]]

    report = None
    moves = np.empty((0, 2), dtype=np.int64)
    if detour.shape[0]:
        sub, vmap = induced_subgraph(g, detour)
        inst = instance_from_coloring(sub, Coloring(sigma.colors[vmap]))
        # greedy runs on the class indices 0..kd-1, which may share ids with
        # the palette, so it gets the stand-in palette kd, kd+1, ...; stand-in
        # kd+i is pal[i]. No stand-in is a class index, so every detour vertex
        # moves, and onto a work color, which no other vertex holds
        kd = inst.partition.q
        report = run_greedy_recolor(inst, palette=range(kd, kd + len(pal)), L=L)
        stand_in = report.trace.moves
        moves = np.column_stack((vmap[stand_in[:, 0]],
                                 np.array(pal, dtype=np.int64)[stand_in[:, 1] - kd]))
        report = dataclasses.replace(
            report, trace=Trace(start=sigma.copy(), moves=moves),
            finalized=vmap[report.finalized],
            residual_fresh_used=sorted(pal[c - kd] for c in report.residual_fresh_used))
    # the sweep moves each vertex not on its target. At v's turn a neighbour u
    # could hold tau(v) only as sigma(u) with a later turn; but then v
    # threatens u and pi puts tau(u) after sigma(u), so u has detoured
    movers = np.flatnonzero(sigma.colors != tau.colors)
    sweep = movers[np.argsort(rank[tau_of[movers]], kind="stable")]
    moves = np.concatenate((moves, np.column_stack((sweep, tau.colors[sweep]))))
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
