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

from .graphs import Graph

REASON_MONOCHROMATIC = "monochromatic edge created"
REASON_NOOP = "no-op move"
REASON_BAD_START = "start coloring improper"
CHUNK = 1 << 16  # move rows per .tolist() conversion; bounds the Python-int copy


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
    return int(np.unique(c.colors).shape[0]) if c.n else 0


def verify_trace(g: Graph, trace: Trace,
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


def apply_trace(g: Graph, trace: Trace, strict: bool = False) -> Coloring:
    """End coloring of a trace. With strict=True the trace is verified and
    a ValueError raised on the first violation."""
    if strict:
        ok, failure = verify_trace(g, trace)
        if not ok:
            raise ValueError(f"invalid trace at step {failure.step}: {failure.reason}")
    colors = trace.start.colors.copy()
    for v, c in iter_moves(trace.moves):
        colors[v] = c
    hint = max(trace.start.palette_hint, int(trace.moves[:, 1].max(initial=-1)) + 1)
    return Coloring(colors, hint)


def reverse_moves(start: Coloring, moves: np.ndarray) -> tuple[Coloring, np.ndarray]:
    """Reverse a move array: returns (end coloring, moves undoing the
    sequence from that end back to ``start``)."""
    colors = start.colors.copy()
    prior = np.empty(moves.shape[0], dtype=np.int64)
    for i, (v, c) in enumerate(iter_moves(moves)):
        prior[i] = colors[v]
        colors[v] = c
    hint = max(start.palette_hint, int(moves[:, 1].max(initial=-1)) + 1)
    return Coloring(colors, hint), np.column_stack((moves[::-1, 0], prior[::-1]))
