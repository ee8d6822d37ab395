"""Differential tests: the block readers and writers of ``colorwalk.io``
against the per-line readers and writers they replaced (``io_reference``),
with CHUNK and the reader's READ_BYTES each at 1, 3 and its default.

The reader inputs are small graph, trace, coloring and partition files
with at most one injected fault. About half are in the plain form the
block reader converts as one array (digits, one space, ``\n``); the rest
spell values in the forms ``int()`` accepts (a sign, ``-0``, underscores,
leading zeros, Arabic-Indic digits, tabs, padding on either side, CRLF and
bare CR line ends). Values include the 18/19-digit boundary and the int64
bounds, and a file may lack its final newline; with CHUNK at 1 and 3 a
file mixes plain blocks with blocks parsed line by line. Both sides must return the same result, or
fail at the same line with the same message; a streamed trace must also
yield the same moves before it fails."""

import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import io_reference as ref
from colorwalk import Trace, build_graph, coloring_of
from colorwalk import io as cwio
from colorwalk.graphs import partition_from_class_of

HUGE = 2 ** 63
# values around the longest plain token (18 digits) and the int64 bounds
BIG = [10 ** 17, 10 ** 18 - 1, 10 ** 18, HUGE - 1, HUGE, 10 ** 19]
FAULTS = ["none", "fields", "moved", "nonint", "range", "order", "blank", "truncated",
          "trailing", "int64", "negative", "big"]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # both sides must fail the same way
        return type(exc).__name__, str(exc)


@st.composite
def spelled(draw, x: int) -> str:
    """``x`` as one of the spellings ``int()`` accepts."""
    sign, digits = ("-" if x < 0 else ""), str(abs(x))
    form = draw(st.sampled_from(["plain", "plus", "minus", "zeros", "underscore", "arabic"]))
    if form == "plus" and not sign:
        sign = "+"
    elif form == "minus" and x == 0:
        sign = "-"
    elif form == "zeros":
        digits = "00" + digits
    elif form == "underscore" and len(digits) > 1:
        digits = digits[0] + "_" + digits[1:]
    elif form == "arabic":
        digits = "".join(chr(0x660 + int(d)) for d in digits)
    return sign + digits


@st.composite
def render(draw, rows: list[list[object]]) -> str:
    """Rows of ints or strings (kept) as text lines: in the plain form, or
    with ints spelled and separators and line ends drawn per line. The
    last line may lose its line end."""
    if draw(st.booleans()):
        text = "".join(" ".join(str(x) for x in row) + "\n" for row in rows)
    else:
        lines = []
        for row in rows:
            fields = [draw(spelled(x)) if isinstance(x, int) else x for x in row]
            sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
            lead, trail = (draw(st.sampled_from(["", " ", "\t"])) for _ in "lt")
            end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
            lines.append(lead + sep.join(fields) + trail + end)
        text = "".join(lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    return text


@st.composite
def files(draw):
    """(kind, rows): a valid file of ``kind`` as rows of ints, then at most
    one fault injected. The header, where there is one, is row 0."""
    kind = draw(st.sampled_from(["graph", "trace", "coloring", "partition"]))
    if kind == "graph":
        n = draw(st.integers(0, 7))
        pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
        body = [pairs[i] for i in sorted(draw(st.sets(st.integers(0, len(pairs) - 1),
                                                      max_size=8)))] if pairs else []
        rows = [[n, len(body)]] + body
    elif kind == "trace":
        n = draw(st.integers(1, 6))
        body = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 5)).map(list),
                             max_size=12))
        rows = [[n, len(body)]] + body
    else:
        rows = draw(st.lists(st.integers(0, 5).map(lambda x: [x]), max_size=12))
    fault = draw(st.sampled_from(FAULTS))
    headed = kind in ("graph", "trace")
    if not rows or fault == "none":
        return kind, rows
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    if fault == "fields":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
    elif fault == "moved" and i + 1 < len(rows):  # a line break one field late
        rows[i], rows[i + 1] = rows[i] + rows[i + 1][:1], rows[i + 1][1:]
    elif fault == "nonint":
        rows[i][j] = draw(st.sampled_from(["x", "1.5", "0x1", "--1", "1e3", "½"]))
    elif fault == "range" and headed and i > 0:
        if kind == "graph":
            rows[i] = draw(st.sampled_from([[rows[i][1], rows[i][0]], [rows[i][0], rows[0][0]],
                                            [rows[i][0], rows[i][0]]]))
        else:
            rows[i][0] = draw(st.sampled_from([rows[0][0], rows[0][0] + 5]))
    elif fault == "order" and kind == "graph" and len(rows) > 2:
        k = draw(st.integers(1, len(rows) - 2))
        rows[k], rows[k + 1] = rows[k + 1], (rows[k] if draw(st.booleans()) else rows[k + 1])
    elif fault == "blank":
        rows.insert(i + draw(st.integers(0, 1)), [draw(st.sampled_from(["", " ", "\t"]))])
    elif fault == "truncated" and headed:
        rows.pop(draw(st.integers(1, len(rows) - 1)) if len(rows) > 1 else 0)
    elif fault == "trailing" and headed:
        rows.append(draw(st.sampled_from([[0, 1], ["x"], [""]])))
    elif fault == "int64":
        rows[i][j] = draw(st.sampled_from([HUGE, HUGE + 7, -HUGE - 1, 10 ** 30]))
    elif fault == "negative":
        rows[i][j] = draw(st.integers(-3, -1))
    elif fault == "big" and kind != "partition":  # class indices beyond int32 differ
        rows[i][j] = draw(st.sampled_from(BIG))
    return kind, rows


def graph_result(read, path):
    g = read(path)
    return g.n, g.edge_u.tolist(), g.edge_v.tolist(), g.nbrs.tolist()


def streamed(rows_of, path):
    """The moves a trace stream yields before it ends, and how it ends."""
    got = []
    try:
        for item in rows_of(path):
            got.extend(np.asarray(item).reshape(-1, 2).tolist())
    except Exception as exc:
        return got, (type(exc).__name__, str(exc))
    return got, None


def results(module, kind, path, n):
    if kind == "graph":
        return [outcome(graph_result, module.read_graph, path)]
    if kind == "coloring":
        return [outcome(lambda p: module.read_coloring(p).colors.tolist(), path)]
    if kind == "partition":
        return [outcome(lambda p: (module.read_partition(p).class_of.tolist(),
                                   module.read_partition(p).q), path)]
    start = coloring_of([0] * n)
    return [outcome(lambda p: module.read_trace(p, start).moves.tolist(), path),
            streamed(module.iter_trace_moves, path)]


@settings(max_examples=800, deadline=None)
@given(case=files(), data=st.data())
def test_block_readers_match_line_readers(case, data):
    kind, rows = case
    n = rows[0][0] if rows and kind == "trace" and isinstance(rows[0][0], int) else 1
    same_as_line_readers(kind, data.draw(render(rows)), n if 0 < n < 100 else 1)


# plain files up to one spot where a loose byte-level check would go wrong
PINNED = [
    ("graph", "3 2\n0 1 1\n2\n"),  # a line break one field late
    ("trace", "3 2\n0 1 2\n1\n"),
    ("graph", "3 2\n0,1\n1 2\n"),  # a separator that is not a space
    ("graph", "2 1\n0 \n"),  # a trailing space instead of a field
    ("graph", "3 2\n0 1 \n1 2\n"),  # a trailing space int() ignores
    ("coloring", "0\n1 \n"),
    ("coloring", f"{10 ** 18 - 1}\n{10 ** 18}\n{HUGE - 1}\n"),  # 18 and 19 digits
    ("coloring", f"0\n{HUGE}\n"),
    ("coloring", "9999999999999999999\n"),  # 19 digits, beyond int64
    ("trace", f"2 1\n0 {HUGE}\n"),
    ("graph", "3 1\n0 1\n1 2\n"),  # trailing content in a plain block
    ("trace", "3 1\n0 1\n0 2"),
    ("graph", "3 2\n0 1\n1 2"),  # no final newline
    ("graph", "3 2\n00 01\n001 2\n"),
    ("coloring", "-0\n007\n"),
    ("graph", "3 2\r0 1\r1 2\r"),  # bare CR line ends
]


@pytest.mark.parametrize("kind, text", PINNED)
def test_pinned_files_match_line_readers(kind, text):
    same_as_line_readers(kind, text, 3)


def same_as_line_readers(kind, text, n):
    """The block readers give the line readers' results on ``text``, with
    CHUNK at 1, 3 and its default, each with READ_BYTES at 1, 3 and its
    default, so a read may end in a ``\r`` or split a ``\r\n``; ``n`` is a
    trace's start size."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        want = results(ref, kind, path, n)
        for chunk, read_bytes in itertools.product((1, 3, None), (1, 3, None)):
            with pytest.MonkeyPatch.context() as mp:
                if chunk is not None:
                    mp.setattr(cwio, "CHUNK", chunk)
                if read_bytes is not None:
                    mp.setattr(cwio, "READ_BYTES", read_bytes)
                assert results(cwio, kind, path, n) == want, (chunk, read_bytes)


# values at the int32 and int64 bounds, for the columns that hold them
INT64 = st.one_of(st.integers(-2, 9), st.sampled_from([-HUGE, -HUGE + 1, 2 ** 31 - 1,
                                                       2 ** 31, HUGE - 2, HUGE - 1]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_writers_match_line_writers(data):
    n = data.draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True))
                    if pairs else [])
    colors = coloring_of(data.draw(st.lists(INT64.filter(lambda x: x >= 0), max_size=12)))
    part = partition_from_class_of(data.draw(st.lists(st.integers(0, 4), min_size=1,
                                                      max_size=12)))
    trace = Trace(start=coloring_of([0] * n),
                  moves=data.draw(st.lists(st.tuples(INT64, INT64), max_size=12)))
    same_bytes_as_line_writers([("write_graph", g), ("write_coloring", colors),
                                ("write_partition", part), ("write_trace", trace)])


def test_edge_cases_match_line_writers():
    same_bytes_as_line_writers([
        ("write_graph", build_graph(0, [])), ("write_graph", build_graph(3, [])),
        ("write_trace", Trace(start=coloring_of([]))),
        ("write_trace", Trace(start=coloring_of([0]), moves=[(-HUGE, HUGE - 1), (0, 0)])),
        ("write_coloring", coloring_of([])), ("write_coloring", coloring_of([HUGE - 1, 0]))])


def same_bytes_as_line_writers(cases):
    """Each (writer name, value) writes the line writer's bytes, with CHUNK
    at 1, 3 and its default."""
    with tempfile.TemporaryDirectory() as tmp:
        want, got = os.path.join(tmp, "want.txt"), os.path.join(tmp, "got.txt")
        for name, value in cases:
            getattr(ref, name)(want, value)
            with open(want, "rb") as f:
                expected = f.read()
            for chunk in (1, 3, None):
                with pytest.MonkeyPatch.context() as mp:
                    if chunk is not None:
                        mp.setattr(cwio, "CHUNK", chunk)
                    getattr(cwio, name)(got, value)
                with open(got, "rb") as f:
                    assert f.read() == expected, (name, chunk)
