"""Per-line references for the readers and writers of ``colorwalk.io``.

These are the readers the library used before its one block reader:
each file is parsed one line at a time, with its own loop and its own
checks. They are kept, verbatim, as the oracle the block readers are
checked against (``test_io_reference``); they are not imported by the
package. Their known differences: a coloring or partition file reports
its smallest negative value and lets a parse fault anywhere beat a value
beyond int64, where the library reports the first faulty line; and the
library rejects a class index beyond int32 at its line, which
``partition_from_class_of`` rejects here without one.

The writers are the ones the library used before it formatted a block of
rows per write: one f-string per line. The block writers must write the
same bytes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from colorwalk.coloring import Coloring, Move, Trace, iter_moves
from colorwalk.errors import FormatError
from colorwalk.io import _atomic_write
from colorwalk.graphs import (Graph, Partition, _comb2, _graph_from_sorted_codes,
                              partition_from_class_of)


def _parse_ints(path: str, lineno: int, text: str, count: int) -> list[int]:
    parts = text.split()
    if len(parts) != count:
        raise FormatError(path, lineno, f"expected {count} fields, found {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(path, lineno, f"non-integer field in {text!r}") from None


def read_graph(path: str) -> Graph:
    with open(path) as f:
        header = f.readline()
        if not header:
            raise FormatError(path, 1, "empty file")
        n, m = _parse_ints(path, 1, header, 2)
        if n < 0 or m < 0:
            raise FormatError(path, 1, "negative n or m")
        if n > 2 ** 31 - 1:  # Graph stores vertex ids as int32
            raise FormatError(path, 1, f"n={n} exceeds the int32 vertex id range")
        if m > _comb2(n):
            raise FormatError(path, 1, f"m={m} exceeds the {_comb2(n)} vertex pairs of n={n}")
        codes = np.empty(m, dtype=np.int64)
        prev = -1
        for i in range(m):
            lineno = i + 2
            line = f.readline()
            if not line:
                raise FormatError(path, lineno, f"expected {m} edge lines, file ended early")
            u, v = _parse_ints(path, lineno, line, 2)
            if not (0 <= u < v < n):
                raise FormatError(path, lineno, f"edge ({u}, {v}) violates 0 <= u < v < n")
            code = u * n + v
            if code <= prev:
                raise FormatError(path, lineno, "edges not in ascending lexicographic order")
            prev = code
            codes[i] = code
        if f.readline():
            raise FormatError(path, m + 2, "trailing content after edge list")
    return _graph_from_sorted_codes(n, codes)


def read_partition(path: str, q: int | None = None) -> Partition:
    values = _read_int_column(path)
    if values.size and values.min() < 0:
        raise FormatError(path, int(np.argmin(values)) + 1, "negative class index")
    return partition_from_class_of(values, q)


def read_coloring(path: str) -> Coloring:
    values = _read_int_column(path)
    if values.size and values.min() < 0:
        raise FormatError(path, int(np.argmin(values)) + 1, "negative color")
    return Coloring(values)


def _read_int_column(path: str) -> np.ndarray:
    out: list[int] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                raise FormatError(path, lineno, "blank line")
            (value,) = _parse_ints(path, lineno, line, 1)
            out.append(value)
    try:
        return np.asarray(out, dtype=np.int64)
    except OverflowError:
        i = next(i for i, x in enumerate(out) if not -2 ** 63 <= x < 2 ** 63)
        raise FormatError(path, i + 1, f"value {out[i]} outside the int64 range") from None


def read_trace_header(path: str) -> tuple[int, int]:
    with open(path) as f:
        header = f.readline()
        if not header:
            raise FormatError(path, 1, "empty file")
        n, k = _parse_ints(path, 1, header, 2)
    if n < 0 or k < 0:
        raise FormatError(path, 1, "negative n or k")
    return n, k


def iter_trace_moves(path: str) -> Iterator[Move]:
    """Stream moves from a trace file without materializing them."""
    n, k = read_trace_header(path)
    with open(path) as f:
        f.readline()
        for i in range(k):
            lineno = i + 2
            line = f.readline()
            if not line:
                raise FormatError(path, lineno, f"expected {k} move lines, file ended early")
            v, c = _parse_ints(path, lineno, line, 2)
            if not 0 <= v < n:
                raise FormatError(path, lineno, f"vertex {v} out of range")
            if c < 0:
                raise FormatError(path, lineno, "negative color")
            if c >= 2 ** 63:  # colorings are int64
                raise FormatError(path, lineno, f"color {c} outside the int64 range")
            yield Move(v, c)
        if f.readline():
            raise FormatError(path, k + 2, "trailing content after move list")


def read_trace(path: str, start: Coloring) -> Trace:
    n, _ = read_trace_header(path)
    if start.n != n:
        raise FormatError(path, 1, f"trace n={n} does not match start coloring n={start.n}")
    return Trace(start=start, moves=list(iter_trace_moves(path)))


def write_graph(path: str, g: Graph) -> None:
    def lines():
        yield f"{g.n} {g.m}"
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
            yield f"{u} {v}"
    _atomic_write(path, lines())


def write_partition(path: str, part: Partition) -> None:
    _atomic_write(path, (str(c) for c in part.class_of.tolist()))


def write_coloring(path: str, c: Coloring) -> None:
    _atomic_write(path, (str(x) for x in c.colors.tolist()))


def write_trace(path: str, trace: Trace) -> None:
    def lines():
        yield f"{trace.start.n} {len(trace.moves)}"
        for v, c in iter_moves(trace.moves):
            yield f"{v} {c}"
    _atomic_write(path, lines())
