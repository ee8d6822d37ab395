"""Per-vertex reference for ``colorwalk.transform.transform_with_report``.

This is the target sweep the library used before each target class moved
as one batch: phase 1 (every finalized vertex to its round color, then the
residual moves, with greedy run on the stand-in palette k, k+1, ... for
sigma's k classes and mapped back to the work palette) is replayed move by
move onto sigma, then every vertex of every target class is checked
against its neighborhood and moved on its own, ascending color then
vertex. It is kept as the oracle the library is
checked against; it is not imported by the package.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from colorwalk.coloring import Move, Trace, apply_trace, hamming, is_proper
from colorwalk.errors import InternalInvariantError
from colorwalk.greedy import run_greedy_recolor
from colorwalk.transform import _check_work_palette, instance_from_coloring


def reference_transform_with_report(g, sigma, tau, work_palette, L=None):
    """Same contract and result as ``transform_with_report``."""
    if sigma.n != g.n or tau.n != g.n:
        raise ValueError("coloring length does not match graph")
    if not is_proper(g, sigma):
        raise ValueError("sigma is not a proper coloring")
    if not is_proper(g, tau):
        raise ValueError("tau is not a proper coloring")
    pal = _check_work_palette(work_palette, sigma, tau)
    if hamming(sigma, tau) == 0:
        return Trace(start=sigma.copy(), moves=[]), None

    inst = instance_from_coloring(g, sigma)
    k = inst.partition.q  # greedy colors with stand-in k + i for pal[i]
    report = run_greedy_recolor(inst, palette=list(range(k, k + len(pal))), L=L)
    end = apply_trace(g, report.trace).colors
    residual = report.trace.moves.tolist()[len(report.trace.moves) - report.residual_size:]
    moves = ([Move(v, pal[int(end[v]) - k]) for v in report.finalized]
             + [Move(v, pal[c - k]) for v, c in residual])
    report = dataclasses.replace(
        report, trace=Trace(start=sigma.copy(), moves=list(moves)),
        residual_fresh_used=sorted(pal[c - k] for c in report.residual_fresh_used))
    colors = sigma.colors.copy()
    for v, c in moves:
        colors[v] = c

    indptr, nbrs = g.indptr, g.nbrs
    tau_arr = tau.colors
    for color in np.unique(tau_arr).tolist():
        members = np.flatnonzero(tau_arr == color)
        for v in members.tolist():
            if colors[v] == color:
                continue
            row = nbrs[indptr[v]:indptr[v + 1]]
            if row.shape[0] and bool(np.any(colors[row] == color)):
                raise InternalInvariantError(
                    f"target-class move of vertex {v} would be improper")
            moves.append(Move(v, int(color)))
            colors[v] = color
    if np.any(colors != tau_arr):
        raise InternalInvariantError("transform did not reach the target coloring")
    return Trace(start=sigma.copy(), moves=moves), report
