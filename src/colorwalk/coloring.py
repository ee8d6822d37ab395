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
NEIGHBOR_BUDGET = 1 << 17  # neighbor entries one verify pass gathers at most


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
    """True iff no edge of g is monochromatic under c. The edge arrays are
    scanned CHUNK edges at a time, so the scratch is one block's gathers
    whatever m is."""
    if c.n != g.n:
        raise ValueError(f"coloring length {c.n} does not match n={g.n}")
    colors = c.colors
    for lo in range(0, g.m, CHUNK):
        if np.any(np.take(colors, g.edge_u[lo:lo + CHUNK])
                  == np.take(colors, g.edge_v[lo:lo + CHUNK])):
            return False
    return True


def hamming(a: Coloring, b: Coloring) -> int:
    """Number of vertices where the two colorings disagree."""
    if a.n != b.n:
        raise ValueError("colorings have different lengths")
    return int(np.count_nonzero(a.colors != b.colors))


def colors_used(c: Coloring) -> int:
    """Number of distinct color ids present."""
    return int(_distinct(c.colors).shape[0])


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


def _check_pass(g: Graph, colors: np.ndarray, v: np.ndarray, c: np.ndarray,
                deg: np.ndarray) -> TraceFailure | None:
    """The first failing row of the pass of moves v[j] -> c[j], as
    ``failure.step``, or None; ``deg`` holds the degrees of ``v``. If none
    fails, ``colors`` takes the moves; if one does, ``colors`` is left with
    its movers marked and must be dropped.

    A vertex may move any number of times in the pass. The color it holds
    just before row j is the new color of its latest earlier row, or its
    color in ``colors``. The pass's distinct movers are numbered in vertex
    order, and mover i is marked by writing ~i into ``colors`` for the one
    gather of the neighbor entries. An entry that meets mover i reads the
    color i held before the pass if the entry's row comes before i's first
    row, and the new color of i's last row if it comes after that row.
    Only an entry whose row falls between a vertex's first and last rows,
    which needs a vertex that moves twice or more, is looked up, by a
    searchsorted on the keys vertex * p + row.

    Scratch, dropped once read and gone when the call returns: int32 and
    int64 arrays of the p rows (``_replay``'s, and each mover's first and
    last row), and of the pass's neighbor entries (at most
    NEIGHBOR_BUDGET, or one vertex's neighborhood); nothing of size n.
    """
    p = v.shape[0]
    row, u = _gather(g, v)
    order, held_v, last = _replay(colors, v, c)
    noop = np.flatnonzero(held_v == c)
    first_noop = int(noop[0]) if noop.size else p
    tail = np.flatnonzero(last)  # sorted position of each mover's last row
    moved = v[order[tail]]
    last_row = order[tail].astype(np.int32)
    first_row = order[np.concatenate(([0], tail[:-1] + 1))].astype(np.int32)
    del tail, last
    # colors are >= 0, so a negative value marks a mover; a pass that
    # passes writes every mover's new color below
    colors[moved] = ~np.arange(moved.shape[0])
    held = np.take(colors, u)
    del u
    hit = np.flatnonzero(held < 0)  # entries whose vertex moves in the pass
    mover = ~held[hit].astype(np.int32)
    at = row[hit]
    del row
    held[hit] = held_v[first_row[mover]]
    del held_v
    after = at > last_row[mover]
    held[hit[after]] = c[last_row[mover[after]]]
    if moved.shape[0] < p:  # some vertex moves twice or more
        between = np.flatnonzero(~after & (at > first_row[mover]))
        if between.size:
            keys = v[order] * p + order  # ascending: by vertex, then by row
            query = moved[mover[between]] * p
            query += at[between]
            k = np.searchsorted(keys, query) - 1  # the vertex's latest row before
            held[hit[between]] = c[order[k]]
    del hit, mover, at, after
    clash = np.flatnonzero(held == np.repeat(c, deg))
    first_clash = int(np.searchsorted(np.cumsum(deg), clash[0], side="right")) if clash.size else p
    if first_noop < p and first_noop <= first_clash:
        return TraceFailure(first_noop, REASON_NOOP)
    if first_clash < p:
        return TraceFailure(first_clash, REASON_MONOCHROMATIC)
    colors[moved] = c[last_row]
    return None


def verify_trace(g: Graph, trace: Trace,
                 moves: Iterable[np.ndarray] | None = None) -> tuple[bool, TraceFailure | None]:
    """Validity check of a trace in bounded chunks.

    Reports the first violating step: a move that recreates a
    monochromatic edge, or a move that does not change its vertex's color
    (a no-op wins a tie). A move with a vertex outside [0, n) or a
    negative color raises a ValueError once every move before it has
    passed. ``moves`` overrides the one block ``(trace.moves,)`` with an
    iterable of (k, 2) move blocks, so callers can stream from disk; each
    block converts as ``Trace(moves=)`` would, and is pulled only once
    every move before it has passed.

    Besides the current coloring, the scratch is bounded whatever the
    trace's length: the start check reads CHUNK edges at a time
    (``is_proper``); the moves are read in windows of CHUNK rows, each
    with its malformed-row mask, degrees and their prefix sums, taken once
    and cut into passes of at most NEIGHBOR_BUDGET neighbor entries (or
    one vertex's neighborhood); and a pass keeps its own scratch only for
    the call (``_check_pass``).
    """
    if trace.start.n != g.n:
        raise ValueError("start coloring length does not match graph")
    if not is_proper(g, trace.start):
        return False, TraceFailure(-1, REASON_BAD_START)
    colors = trace.start.colors.copy()
    step = 0  # of the window's first move
    for block in (trace.moves,) if moves is None else moves:
        block = move_array(block)
        for lo in range(0, block.shape[0], CHUNK):
            v, c = block[lo:lo + CHUNK, 0], block[lo:lo + CHUNK, 1]
            bad = (v < 0) | (v >= g.n) | (c < 0)
            cut = int(np.argmax(bad)) if bad.any() else v.shape[0]
            v, c = v[:cut], c[:cut]  # the window ends before the first malformed move
            deg = g.indptr[v + 1] - g.indptr[v]
            ends = np.cumsum(deg)
            a = 0  # the pass's first row in the window
            while a < cut:
                budget = NEIGHBOR_BUDGET + (int(ends[a - 1]) if a else 0)
                b = max(a + 1, int(np.searchsorted(ends, budget, side="right")))
                failure = _check_pass(g, colors, v[a:b], c[a:b], deg[a:b])
                if failure is not None:
                    return False, TraceFailure(step + a + failure.step, failure.reason)
                a = b
            step += cut
            if cut < bad.shape[0]:
                vertex = block[lo + cut, 0]
                fault = f"vertex {vertex} out of range" if not 0 <= vertex < g.n else "negative color"
                raise ValueError(f"step {step}: {fault}")
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
