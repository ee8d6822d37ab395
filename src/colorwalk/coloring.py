"""Colorings, single-vertex moves, traces, and streaming trace verification.

A trace is a start coloring plus a (k, 2) int64 array whose rows are
(vertex, new_color) moves. Valid traces keep the coloring proper after
every prefix and never contain no-op moves, so consecutive colorings
always sit at Hamming distance exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .graphs import Graph, _distinct, _gather

REASON_MONOCHROMATIC = "monochromatic edge created"
REASON_NOOP = "no-op move"
REASON_BAD_START = "start coloring improper"
CHUNK = 1 << 16  # rows per verify pass, per .tolist() conversion and per file block
NEIGHBOR_BUDGET = 1 << 18  # neighbor entries one verify pass gathers at most


@dataclass(frozen=True, eq=False)
class Coloring:
    """Total color assignment; palette_hint is an upper bound on color ids."""

    colors: np.ndarray
    palette_hint: int = -1

    def __post_init__(self):
        arr = np.asarray(self.colors, dtype=np.int64)
        object.__setattr__(self, "colors", arr)
        if self.palette_hint < 0:
            hint = int(arr.max()) + 1 if arr.size else 0
            object.__setattr__(self, "palette_hint", hint)
        if arr.size and (arr.min() < 0 or arr.max() >= self.palette_hint):
            raise ValueError("color outside [0, palette_hint)")

    @property
    def n(self) -> int:
        return int(self.colors.shape[0])

    def copy(self) -> "Coloring":
        return Coloring(self.colors.copy(), self.palette_hint)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.colors)


def coloring_of(values, palette_hint: int = -1) -> Coloring:
    return Coloring(np.asarray(values, dtype=np.int64), palette_hint)


class Move(NamedTuple):
    vertex: int
    new_color: int


def move_array(moves) -> np.ndarray:
    """The (k, 2) int64 array of a sequence of (vertex, new_color) pairs."""
    arr = np.asarray(moves, dtype=np.int64)
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"moves must be (vertex, new_color) rows, got shape {arr.shape}")
    return arr


def iter_moves(moves: np.ndarray) -> Iterator[list[int]]:
    """The rows of a move array as [vertex, new_color] int lists, CHUNK at a time."""
    for lo in range(0, moves.shape[0], CHUNK):
        yield from moves[lo:lo + CHUNK].tolist()


@dataclass(eq=False)
class Trace:
    """Start coloring plus a (k, 2) int64 move array (a walk when valid)."""

    start: Coloring
    moves: np.ndarray = ()

    def __post_init__(self):
        self.moves = move_array(self.moves)

    def __len__(self) -> int:
        return int(self.moves.shape[0])


class TraceFailure(NamedTuple):
    step: int  # -1 means the start coloring itself
    reason: str


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge of g is monochromatic under c."""
    if c.n != g.n:
        raise ValueError(f"coloring length {c.n} does not match n={g.n}")
    if g.m == 0:
        return True
    return not bool(np.any(c.colors[g.edge_u] == c.colors[g.edge_v]))


def hamming(a: Coloring, b: Coloring) -> int:
    """Number of vertices where the two colorings disagree."""
    if a.n != b.n:
        raise ValueError("colorings have different lengths")
    return int(np.count_nonzero(a.colors != b.colors))


def colors_used(c: Coloring) -> int:
    """Number of distinct color ids present."""
    return int(_distinct(c.colors).shape[0])


def _pass_entries(g: Graph, v: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(p, row, u): the first p vertices of ``v`` hold at most
    NEIGHBOR_BUDGET neighbor entries (p >= 1), and u[i] is a neighbor of
    v[row[i]], over all of them in row order."""
    ends = np.cumsum(g.indptr[v + 1] - g.indptr[v])
    p = max(1, int(np.searchsorted(ends, NEIGHBOR_BUDGET, side="right")))
    row, u = _gather(g, v[:p])
    return p, row, u


def _replay(colors: np.ndarray, v: np.ndarray,
            c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, prior, last) of the moves v[j] -> c[j] made from ``colors``,
    which is not modified. ``order`` sorts the moves stably by vertex, so
    each move comes right after the same vertex's previous one; prior[j] is
    the color v[j] holds just before move j: the new color of that previous
    move, or its color in ``colors``. ``last`` marks, in sorted position,
    each vertex's last move: vertex v[order[last]] ends on c[order[last]]."""
    order = np.argsort(v, kind="stable")
    seen = v[order]
    again = seen[1:] == seen[:-1]  # sorted position i + 1 repeats i's vertex
    prior = colors[v]
    prior[order[1:][again]] = c[order[:-1][again]]
    last = np.ones(v.shape[0], dtype=bool)
    last[:-1] = ~again
    return order, prior, last


def _end_coloring(start: Coloring, moves: np.ndarray, order: np.ndarray,
                  last: np.ndarray) -> Coloring:
    """The coloring ``moves`` leave from ``start``, with ``order`` and
    ``last`` from ``_replay``."""
    colors = start.colors.copy()
    final = moves[order[last]]
    colors[final[:, 0]] = final[:, 1]
    hint = max(start.palette_hint, int(moves[:, 1].max(initial=-1)) + 1)
    return Coloring(colors, hint)


def _check_pass(g: Graph, colors: np.ndarray, v: np.ndarray,
                c: np.ndarray) -> tuple[int, TraceFailure | None]:
    """(p, failure): one pass over the first p moves v[j] -> c[j], and its
    first failing row as ``failure.step``. If none fails, ``colors`` takes
    the p moves; if one does, ``colors`` is left with its movers flagged
    and must be dropped.

    A vertex may move any number of times in the pass. The color it holds
    just before row j is the new color of its latest earlier row, or its
    color in ``colors``. The pass's movers are flagged by flipping their
    colors negative for one gather, and only their neighbor entries are
    looked up, by one searchsorted on the keys vertex * p + row. The
    scratch lives only for the call.
    """
    p, row, u = _pass_entries(g, v)
    v, c = v[:p], c[:p]
    order, held_v, last = _replay(colors, v, c)
    seen = v[order]
    keys = seen * p + order  # ascending: by vertex, then by row
    moved = seen[last]
    # colors are >= 0, so a negative color marks a mover; a pass that
    # passes writes every mover's new color below
    colors[moved] = ~colors[moved]
    held = colors[u]
    hit = np.flatnonzero(held < 0)  # entries whose vertex moves in the pass
    held[hit] = ~held[hit]
    query = u[hit].astype(np.int64)
    query *= p
    query += row[hit]
    k = np.searchsorted(keys, query)
    k -= 1  # the latest key below u's at row
    earlier = (k >= 0) & (seen[k] == u[hit])  # it is u's: u moved before row
    held[hit[earlier]] = c[order[k[earlier]]]
    noop = np.flatnonzero(held_v == c)
    clash = row[np.flatnonzero(held == c[row])]
    first_noop = int(noop[0]) if noop.size else p
    first_clash = int(clash[0]) if clash.size else p
    if first_noop < p and first_noop <= first_clash:
        return p, TraceFailure(first_noop, REASON_NOOP)
    if first_clash < p:
        return p, TraceFailure(first_clash, REASON_MONOCHROMATIC)
    colors[moved] = c[order[last]]
    return p, None


def verify_trace(g: Graph, trace: Trace,
                 moves: Iterable[np.ndarray] | None = None) -> tuple[bool, TraceFailure | None]:
    """Validity check of a trace in bounded chunks.

    Keeps only the current coloring and one pass's scratch (at most CHUNK
    moves and NEIGHBOR_BUDGET neighbor entries, or one vertex's
    neighborhood, ``_check_pass``), whatever the trace's length. Reports
    the first violating step: a move that recreates a monochromatic edge,
    or a move that does not change its vertex's color (a no-op wins a tie).
    A move with a vertex outside [0, n) or a negative color raises a
    ValueError once every move before it has passed. ``moves`` overrides
    the one block ``(trace.moves,)`` with an iterable of (k, 2) move
    blocks, so callers can stream from disk; each block converts as
    ``Trace(moves=)`` would, and is pulled only once every move before it
    has passed.
    """
    if trace.start.n != g.n:
        raise ValueError("start coloring length does not match graph")
    colors = trace.start.colors.copy()
    if g.m and np.any(colors[g.edge_u] == colors[g.edge_v]):
        return False, TraceFailure(-1, REASON_BAD_START)
    step = 0  # of the next move to check
    for block in (trace.moves,) if moves is None else moves:
        block = move_array(block)
        while block.shape[0]:
            v, c = block[:CHUNK, 0], block[:CHUNK, 1]
            bad = (v < 0) | (v >= g.n) | (c < 0)
            if bad[0]:
                fault = f"vertex {v[0]} out of range" if not 0 <= v[0] < g.n else "negative color"
                raise ValueError(f"step {step}: {fault}")
            if bad.any():  # the pass ends before the first malformed move
                cut = int(np.argmax(bad))
                v, c = v[:cut], c[:cut]
            p, failure = _check_pass(g, colors, v, c)
            if failure is not None:
                return False, TraceFailure(step + failure.step, failure.reason)
            block, step = block[p:], step + p
    return True, None


def apply_trace(g: Graph, trace: Trace, strict: bool = False) -> Coloring:
    """End coloring of a trace. With strict=True the trace is verified and
    a ValueError raised on the first violation."""
    if strict:
        ok, failure = verify_trace(g, trace)
        if not ok:
            raise ValueError(f"invalid trace at step {failure.step}: {failure.reason}")
    moves = trace.moves
    order, _, last = _replay(trace.start.colors, moves[:, 0], moves[:, 1])
    return _end_coloring(trace.start, moves, order, last)


def reverse_moves(start: Coloring, moves: np.ndarray) -> tuple[Coloring, np.ndarray]:
    """Reverse a move array: returns (end coloring, moves undoing the
    sequence from that end back to ``start``).

    Undoing move j sets its vertex back to the color it held just before
    move j (``_replay``).
    """
    order, prior, last = _replay(start.colors, moves[:, 0], moves[:, 1])
    end = _end_coloring(start, moves, order, last)
    return end, np.column_stack((moves[::-1, 0], prior[::-1]))
