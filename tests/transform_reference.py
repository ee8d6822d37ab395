"""Per-vertex reference for ``colorwalk.transform.transform_with_report``.

Built from neighbour-by-neighbour loops. A vertex v is threatened when a
neighbour's target color is sigma(v). Given the sweep order (rank[c] is
the position of tau's class c, classes numbered by ascending color), a
threatened v detours when its target class comes after sigma(v)'s. The
detour set's induced subgraph is built edge by edge and recolored by
greedy on the stand-in palette kd, kd+1, ... for its kd sigma classes,
mapped back to the work palette. Then every target class, in rank order,
has each vertex not yet on its target checked against its neighbourhood
and moved on its own, in ascending vertex order. With no rank given the
order is ``reference_rank``. It is kept as the oracle the library is
checked against; it is not imported by the package.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from colorwalk.coloring import Move, Trace, apply_trace, coloring_of, hamming, is_proper
from colorwalk.errors import InternalInvariantError
from colorwalk.graphs import build_graph
from colorwalk.greedy import run_greedy_recolor
from colorwalk.transform import _check_work_palette, instance_from_coloring


def reference_sweep_rank(k, wishes):
    """rank of each of k classes from ``wishes``, a mapping (a, b) -> weight
    for "a before b", by the Eades-Lin-Smyth greedy with the library's
    tie rules, recounting the live wishes at every step."""
    named = {c for pair in wishes for c in pair}
    front = [c for c in range(k) if c not in named]
    back = []
    live = sorted(named)
    while live:
        out_w = {c: 0 for c in live}
        in_w = {c: 0 for c in live}
        for (a, b), w in wishes.items():
            if a in out_w and b in in_w:
                out_w[a] += w
                in_w[b] += w
        sinks = [c for c in live if out_w[c] == 0]
        sources = [c for c in live if in_w[c] == 0]
        if sinks:
            c = sinks[0]
            back.append(c)
        else:
            c = sources[0] if sources else max(live, key=lambda c: out_w[c] - in_w[c])
            front.append(c)
        live.remove(c)
    order = front + back[::-1]
    rank = [0] * k
    for position, c in enumerate(order):
        rank[c] = position
    return rank


def _threatened(g, s, t):
    """Vertices v with a neighbour w whose target t[w] is s[v]."""
    return [v for v in range(g.n) if any(t[w] == s[v] for w in g.neighbors(v).tolist())]


def reference_rank(g, sigma, tau):
    """The chosen sweep order: each threatened vertex wishes its target
    class before the class of its start color, counted vertex by vertex."""
    s, t = sigma.colors.tolist(), tau.colors.tolist()
    index = {c: i for i, c in enumerate(sorted(set(t)))}
    wishes = Counter((index[t[v]], index[s[v]]) for v in _threatened(g, s, t))
    return reference_sweep_rank(len(index), wishes)


def reference_transform_with_report(g, sigma, tau, work_palette, L=None, rank=None):
    """Same contract and result as ``transform._detour_walk``."""
    if sigma.n != g.n or tau.n != g.n:
        raise ValueError("coloring length does not match graph")
    if not is_proper(g, sigma):
        raise ValueError("sigma is not a proper coloring")
    if not is_proper(g, tau):
        raise ValueError("tau is not a proper coloring")
    pal = _check_work_palette(work_palette, sigma, tau)
    if hamming(sigma, tau) == 0:
        return Trace(start=sigma.copy(), moves=[]), None

    s, t = sigma.colors.tolist(), tau.colors.tolist()
    tau_colors = sorted(set(t))
    index = {c: i for i, c in enumerate(tau_colors)}
    if rank is None:
        rank = reference_rank(g, sigma, tau)
    detour = [v for v in _threatened(g, s, t) if rank[index[t[v]]] > rank[index[s[v]]]]

    moves, report = [], None
    if detour:
        local = {v: i for i, v in enumerate(detour)}
        edges = [(local[v], local[w]) for v in detour
                 for w in g.neighbors(v).tolist() if v < w and w in local]
        sub = build_graph(len(detour), edges)
        inst = instance_from_coloring(sub, coloring_of([s[v] for v in detour]))
        kd = inst.partition.q  # greedy colors with stand-in kd + i for pal[i]
        report = run_greedy_recolor(inst, palette=list(range(kd, kd + len(pal))), L=L)
        end = apply_trace(sub, report.trace).colors
        residual = report.trace.moves.tolist()[len(report.trace.moves) - report.residual_size:]
        moves = ([Move(detour[v], pal[int(end[v]) - kd]) for v in report.finalized.tolist()]
                 + [Move(detour[v], pal[c - kd]) for v, c in residual])
        report = dataclasses.replace(
            report, trace=Trace(start=sigma.copy(), moves=list(moves)),
            finalized=np.array([detour[v] for v in report.finalized.tolist()],
                               dtype=np.int64),
            residual_fresh_used=sorted(pal[c - kd] for c in report.residual_fresh_used))
    colors = list(s)
    for v, c in moves:
        colors[v] = c

    for i in sorted(range(len(tau_colors)), key=lambda i: rank[i]):
        color = tau_colors[i]
        for v in range(g.n):
            if t[v] != color or colors[v] == color:
                continue
            if any(colors[w] == color for w in g.neighbors(v).tolist()):
                raise InternalInvariantError(
                    f"target-class move of vertex {v} would be improper")
            moves.append(Move(v, color))
            colors[v] = color
    if colors != t:
        raise InternalInvariantError("transform did not reach the target coloring")
    return Trace(start=sigma.copy(), moves=moves), report
