r"""Text file formats.

Graph file:     "n m" then m lines "u v", 0 <= u < v < n, ascending
                lexicographic order.
Partition file: n lines, line i = class of vertex i.
Coloring file:  n lines, line i = color of vertex i.
Trace file:     "n k" then k lines "vertex new_color".

All values decimal, newline-terminated. Writers format CHUNK rows per
write and go through a temp file and rename, so a failed run never leaves
a partial artifact behind.

Every reader parses rows through one block reader (``_blocks``) and
reports the first faulty line of the file as ``FormatError(path, line,
message)``, whatever the fault: a wrong field count, a non-integer, a
blank line, a value beyond int64 or out of range, an edge out of order, a
missing line or trailing content. Text is UTF-8; a byte that is not UTF-8
makes its field a non-integer at its own line.

Files are opened in binary and read as one byte stream (``_reads``),
READ_BYTES at a time, with universal newlines applied to the bytes: each
``\r\n`` and each lone ``\r`` becomes ``\n``. Both are ASCII bytes, which
never occur inside a multi-byte UTF-8 sequence, so the lines are those a
UTF-8 text reader with universal newlines gives. ``_carve`` cuts the
stream at ``\n`` into the header line and then blocks of CHUNK lines, so
memory holds one block and one read whatever the file's size or line
ends. A block in the plain form that the writers produce (every line
``width`` runs of 1 to 18 ASCII digits, one space apart, ended by a
``\n`` that only the file's last line may lack, and no line past the
expected count) converts with numpy straight from its bytes. Any other
block (a non-ASCII byte, a sign, ``+3``, ``1_000``, tabs, padding, a
blank line, a 19-digit value, trailing content) is parsed line by line
with Python ``int()``, each line decoded as UTF-8 (``errors="replace"``),
as the header line is, so each fault's message comes from that one
per-line path and the values equal ``int()``'s either way.
"""

from __future__ import annotations

import os
import tempfile
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np

from .coloring import CHUNK, Coloring, Trace
from .errors import FormatError
from .graphs import (MAX_ID, Graph, Partition, _comb2, _graph_from_sorted_codes,
                     partition_from_class_of)

READ_BYTES = 1 << 18  # bytes per read of the block reader


def _atomic_write(path: str, line_iter: Iterable[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-colorwalk-")
    try:
        with os.fdopen(fd, "w") as f:
            for line in line_iter:
                f.write(line)
                f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _int_lines(*columns: np.ndarray) -> Iterator[str]:
    """The rows of equal-length integer ``columns``, values one space
    apart, as one ``_atomic_write`` line per CHUNK rows."""
    form = " ".join(["%d"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), CHUNK):
        block = np.column_stack([c[lo:lo + CHUNK] for c in columns])
        yield (form * len(block))[:-1] % tuple(block.ravel().tolist())


def _reads(f) -> Iterator[bytes]:
    r"""Binary file ``f``, READ_BYTES at a time, with each ``\r\n`` and each
    lone ``\r`` turned into ``\n``. A ``\r`` that ends a read waits for the
    next, whose first byte may be its ``\n``."""
    cr = b""
    while piece := f.read(READ_BYTES):
        piece = cr + piece
        cr = b"\r" if piece.endswith(b"\r") else b""
        if b"\r" in piece:  # a plain read skips the slower two-byte search
            piece = piece[:len(piece) - len(cr)].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        # a suspended frame would hold the read until the next one
        out = [piece]
        del piece
        yield out.pop()
    if cr:
        yield b"\n"


def _parse_ints(path: str, lineno: int, text: str, count: int) -> list[int]:
    parts = text.split()
    if len(parts) != count:
        raise FormatError(path, lineno, f"expected {count} fields, found {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(path, lineno, f"non-integer field in {text!r}") from None


def _header(path: str, f, names: str):
    """The two nonnegative integers on line 1 of binary file ``f``, a graph
    or trace file, and the reads (``_reads``) of the rest of the file,
    starting with the bytes read past line 1."""
    reads = _reads(f)
    header, lines, ahead = _carve(reads, b"", 1)
    if not lines:
        raise FormatError(path, 1, "empty file")
    a, b = _parse_ints(path, 1, header.decode("utf-8", "replace"), 2)
    if a < 0 or b < 0:
        raise FormatError(path, 1, f"negative {names}")
    return a, b, chain(iter((ahead,)), reads)  # an iterator frees ahead once read


def _carve(reads: Iterator[bytes], ahead: bytes, limit: int) -> tuple[bytes, int, bytes]:
    """The next ``limit`` lines of ``ahead`` and then ``reads``, fewer at
    the end of the file, cut after a newline: (their bytes, their line
    count, the bytes read past them)."""
    pieces, lines, piece = [], 0, ahead
    while True:
        newline = np.frombuffer(piece, np.uint8) == 10
        count = int(np.count_nonzero(newline))
        if lines + count >= limit:  # the block ends in this piece
            cut = int(np.flatnonzero(newline)[limit - lines - 1]) + 1
            pieces.append(piece[:cut])
            return b"".join(pieces), limit, piece[cut:]
        pieces.append(piece)
        lines += count
        piece = next(reads, None)
        if piece is None:
            data = b"".join(pieces)
            return data, lines + (data[-1:] not in (b"", b"\n")), b""


def _decimal_rows(data: bytes, lines: int, width: int) -> np.ndarray | None:
    """The (lines, width) int64 rows of ``data``, ``lines`` lines of text,
    if each line is ``width`` runs of 1 to 18 ASCII digits, one space
    apart, ended by a newline (the last line may lack it); None otherwise.
    18 digits always fit int64, and leading zeros read as ``int()`` reads
    them."""
    if not lines:
        return np.empty((0, width), np.int64)
    if not data.isascii():
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    raw = np.frombuffer(data, np.uint8)
    digit = raw - 48  # a byte below "0" wraps past 9 too
    ends = np.flatnonzero(digit >= 10)  # every byte that is not a digit
    if len(ends) != lines * width:
        return None
    if not (raw[ends].reshape(-1, width) == np.array([32] * (width - 1) + [10])).all():
        return None  # each line: width - 1 single spaces, then its newline
    before = np.concatenate(([-1], ends[:-1]))  # the separator before each token
    digits = ends - before - 1
    if digits.min() < 1 or digits.max() > 18:
        return None
    # Horner in base 100, right-aligned: pair[i] is the two digits ending at
    # byte i, and a token's leading pairs read 0s from the separator before it
    digit[ends] = 0
    pair = digit.copy()
    pair[1:] += digit[:-1] * 10
    pair[ends] = 0
    values = np.zeros(len(ends), np.int64)
    for k in range(int(digits.max()) | 1, 0, -2):
        values *= 100
        values += pair[np.maximum(ends - k, before)]
    return values.reshape(-1, width)


def _blocks(path: str, reads: Iterator[bytes], width: int,
            beyond: Callable[[list[int]], str], count: int | None = None,
            noun: str = "", headed: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """The rest of a file, given as its ``reads`` (``_reads``), as (line of
    the first row, (<=CHUNK, width) int64 block) pairs. The reads start
    past the header line when ``headed``, and at line 1 otherwise, where a
    blank line is a fault of its own. With ``count``, exactly ``count``
    lines of ``noun`` rows follow; without it, rows run to the end of the
    file. ``beyond(row)`` is the message of a row with a value outside
    int64. A faulty line raises its FormatError once the rows before it
    are yielded.

    Each block of CHUNK lines (``_carve``) converts as one array when it
    is plain (``_decimal_rows``) and no longer than the ``count`` lines
    left. Any other block goes line by line, each line decoded as UTF-8,
    through ``_parse_ints``, which gives every per-line message.
    """
    line = 2 if headed else 1
    end = None if count is None else line + count
    ahead = b""
    while True:
        first, error, block = line, None, None
        data, lines, ahead = _carve(reads, ahead, CHUNK)
        if end is None or first + lines <= end:
            block = _decimal_rows(data, lines, width)
        if block is None:
            flat: list[int] = []
            try:
                for raw in data.splitlines(keepends=True):
                    text_line = raw.decode("utf-8", "replace")
                    if line == end:
                        raise FormatError(path, line, f"trailing content after {noun} list")
                    if not headed and not text_line.strip():
                        raise FormatError(path, line, "blank line")
                    flat += _parse_ints(path, line, text_line, width)
                    line += 1
            except FormatError as exc:
                error = exc
            try:
                block = np.array(flat, dtype=np.int64).reshape(-1, width)
            except OverflowError:
                i = next(i for i, x in enumerate(flat) if not -2 ** 63 <= x < 2 ** 63) // width
                error = FormatError(path, first + i, beyond(flat[i * width:(i + 1) * width]))
                block = np.array(flat[:i * width], dtype=np.int64).reshape(-1, width)
        else:
            line += lines
        if error is None and lines < CHUNK and end is not None and line < end:
            error = FormatError(path, line, f"expected {count} {noun} lines, file ended early")
        if len(block):
            yield first, block
        if error is not None:
            raise error
        if lines < CHUNK:
            return


def write_graph(path: str, g: Graph) -> None:
    _atomic_write(path, chain([f"{g.n} {g.m}"], _int_lines(g.edge_u, g.edge_v)))


def read_graph(path: str) -> Graph:
    codes: list[np.ndarray] = []
    prev = -1
    with open(path, "rb") as f:
        n, m, rest = _header(path, f, "n or m")
        if n > MAX_ID:
            raise FormatError(path, 1, f"n={n} exceeds the int32 vertex id range")
        if m > _comb2(n):
            raise FormatError(path, 1, f"m={m} exceeds the {_comb2(n)} vertex pairs of n={n}")

        def fault(row: list[int]) -> str:  # of an edge out of range or out of order
            u, v = row
            if 0 <= u < v < n:
                return "edges not in ascending lexicographic order"
            return f"edge ({u}, {v}) violates 0 <= u < v < n"
        for line, block in _blocks(path, rest, 2, fault, m, "edge", headed=True):
            u, v = block[:, 0], block[:, 1]
            code = u * n + v  # may wrap only on a row the range check rejects
            bad = (u < 0) | (u >= v) | (v >= n) | (np.diff(code, prepend=prev) <= 0)
            if bad.any():
                i = int(np.argmax(bad))
                raise FormatError(path, line + i, fault(block[i].tolist()))
            codes.append(code)
            prev = code[-1]
    return _graph_from_sorted_codes(n, np.concatenate(codes) if codes else np.empty(0, np.int64))


def write_partition(path: str, part: Partition) -> None:
    _atomic_write(path, _int_lines(part.class_of))


def read_partition(path: str, q: int | None = None, n: int | None = None) -> Partition:
    """The partition of a class index file; with ``n``, the file must have
    exactly ``n`` lines. Class indices are int32, as ``Partition`` stores
    them."""
    return partition_from_class_of(
        _read_int_column(path, "class index", MAX_ID, n), q)


def write_coloring(path: str, c: Coloring) -> None:
    _atomic_write(path, _int_lines(c.colors))


def read_coloring(path: str, n: int | None = None) -> Coloring:
    """The coloring of a color file; with ``n``, the file must have exactly
    ``n`` lines."""
    return Coloring(_read_int_column(path, "color", np.iinfo(np.int64).max, n))


def _read_int_column(path: str, noun: str, top: int, count: int | None) -> np.ndarray:
    """The values of a one-integer-per-line file of ``count`` lines, or of
    any length without ``count``; each must lie in [0, top]."""
    values: list[np.ndarray] = []
    with open(path, "rb") as f:
        for line, block in _blocks(path, _reads(f), 1,
                                   lambda row: f"value {row[0]} outside the int64 range",
                                   count, noun):
            bad = (block < 0) | (block > top)
            if bad.any():
                i = int(np.argmax(bad))
                value = int(block[i, 0])
                raise FormatError(path, line + i, f"negative {noun}" if value < 0
                                  else f"{noun} {value} exceeds {top}")
            values.append(block[:, 0])
    return np.concatenate(values) if values else np.empty(0, np.int64)


def write_trace(path: str, trace: Trace) -> None:
    moves = trace.moves
    _atomic_write(path, chain([f"{trace.start.n} {len(moves)}"],
                              _int_lines(moves[:, 0], moves[:, 1])))


def read_trace_header(path: str) -> tuple[int, int]:
    with open(path, "rb") as f:
        return _header(path, f, "n or k")[:2]


def iter_trace_moves(path: str) -> Iterator[np.ndarray]:
    """Stream the moves of a trace file as checked (<=CHUNK, 2) int64
    blocks, without materializing them. A faulty line raises its
    FormatError once the moves before it are yielded."""
    with open(path, "rb") as f:
        n, k, rest = _header(path, f, "n or k")

        def fault(row: list[int]) -> str:  # of a move out of range or beyond int64
            v, c = row
            if not 0 <= v < n:
                return f"vertex {v} out of range"
            return "negative color" if c < 0 else f"color {c} outside the int64 range"
        for line, block in _blocks(path, rest, 2, fault, k, "move", headed=True):
            v, c = block[:, 0], block[:, 1]
            bad = (v < 0) | (v >= n) | (c < 0)
            if bad.any():
                i = int(np.argmax(bad))
                yield block[:i]
                raise FormatError(path, line + i, fault(block[i].tolist()))
            yield block


def read_trace(path: str, start: Coloring) -> Trace:
    n, _ = read_trace_header(path)
    if start.n != n:
        raise FormatError(path, 1, f"trace n={n} does not match start coloring n={start.n}")
    blocks = list(iter_trace_moves(path))
    return Trace(start=start, moves=np.concatenate(blocks) if blocks else ())


def write_records(path: str, items: list[tuple[str, object]]) -> None:
    """key=value lines, in the given order."""
    _atomic_write(path, (f"{k}={_fmt(v)}" for k, v in items))


def write_csv(path: str, header: list[str], rows: Iterable[list[object]]) -> None:
    def lines():
        yield ",".join(header)
        for row in rows:
            yield ",".join(_fmt(x) for x in row)
    _atomic_write(path, lines())


def _fmt(v) -> str:
    """The one value formatter of every record and CSV file: bools as 0/1,
    floats by repr (exact round trip), everything else by str."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)
