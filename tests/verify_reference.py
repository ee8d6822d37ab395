"""Per-move references for ``colorwalk.coloring``.

``reference_verify_trace`` is the streaming loop the library used before
the chunked replay kernel: one move at a time, checking the moved
vertex's old color and its neighborhood. ``reference_apply_colors`` and
``reference_reverse_moves`` are the loops ``apply_trace`` and
``reverse_moves`` ran before they were vectorized. They are kept as the
oracles the library is checked against; they are not imported by the
package.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from colorwalk.coloring import (REASON_BAD_START, REASON_MONOCHROMATIC, REASON_NOOP,
                                Coloring, Move, Trace, TraceFailure, iter_moves)
from colorwalk.graphs import Graph


def reference_verify_trace(g: Graph, trace: Trace,
                           moves: Iterable[Move] | None = None) -> tuple[bool, TraceFailure | None]:
    """Streaming validity check of a trace.

    Walks the moves once, keeping only the current coloring (O(n) memory)
    and inspecting just the moved vertex's neighborhood per step. Reports
    the first violating step: a move that recreates a monochromatic edge,
    or a move that does not change its vertex's color. ``moves`` overrides
    ``trace.moves`` so callers can stream from disk.
    """
    if trace.start.n != g.n:
        raise ValueError("start coloring length does not match graph")
    colors = trace.start.colors.copy()
    if g.m and np.any(colors[g.edge_u] == colors[g.edge_v]):
        return False, TraceFailure(-1, REASON_BAD_START)
    seq = iter_moves(trace.moves) if moves is None else moves
    indptr, nbrs = g.indptr, g.nbrs
    for step, (v, c) in enumerate(seq):
        if not 0 <= v < g.n:
            raise ValueError(f"step {step}: vertex {v} out of range")
        if c < 0:
            raise ValueError(f"step {step}: negative color")
        if colors[v] == c:
            return False, TraceFailure(step, REASON_NOOP)
        row = nbrs[indptr[v]:indptr[v + 1]]
        if row.shape[0] and bool(np.any(colors[row] == c)):
            return False, TraceFailure(step, REASON_MONOCHROMATIC)
        colors[v] = c
    return True, None


def reference_apply_colors(trace: Trace) -> np.ndarray:
    """End colors of a trace, one move at a time (the old ``apply_trace`` loop)."""
    colors = trace.start.colors.copy()
    for v, c in iter_moves(trace.moves):
        colors[v] = c
    return colors


def reference_reverse_moves(start: Coloring, moves: np.ndarray) -> tuple[Coloring, np.ndarray]:
    """Same contract and result as ``reverse_moves``, one move at a time."""
    colors = start.colors.copy()
    prior = np.empty(moves.shape[0], dtype=np.int64)
    for i, (v, c) in enumerate(iter_moves(moves)):
        prior[i] = colors[v]
        colors[v] = c
    hint = max(start.palette_hint, int(moves[:, 1].max(initial=-1)) + 1)
    return Coloring(colors, hint), np.column_stack((moves[::-1, 0], prior[::-1]))
