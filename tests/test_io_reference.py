"""Differential test: the block readers of ``colorwalk.io`` against the
per-line readers they replaced (``io_reference``), with CHUNK at 1, 3 and
its default. The inputs are small graph, trace, coloring and partition
files with at most one injected fault, whose values are spelled in the
forms ``int()`` accepts (a sign, underscores, leading zeros, Arabic-Indic
digits, tabs, padding and CRLF line ends). Both sides must return the same
result, or fail at the same line with the same message; a streamed trace
must also yield the same moves before it fails."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import io_reference as ref
from colorwalk import coloring_of
from colorwalk import io as cwio

HUGE = 2 ** 63
FAULTS = ["none", "fields", "nonint", "range", "order", "blank", "truncated",
          "trailing", "int64", "negative"]


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # both sides must fail the same way
        return type(exc).__name__, str(exc)


@st.composite
def spelled(draw, x: int) -> str:
    """``x`` as one of the spellings ``int()`` accepts."""
    sign, digits = ("-" if x < 0 else ""), str(abs(x))
    form = draw(st.sampled_from(["plain", "plus", "zeros", "underscore", "arabic"]))
    if form == "plus" and not sign:
        sign = "+"
    elif form == "zeros":
        digits = "00" + digits
    elif form == "underscore" and len(digits) > 1:
        digits = digits[0] + "_" + digits[1:]
    elif form == "arabic":
        digits = "".join(chr(0x660 + int(d)) for d in digits)
    return sign + digits


@st.composite
def render(draw, rows: list[list[object]]) -> str:
    """Rows of ints (spelled) or strings (kept) as text lines."""
    lines = []
    for row in rows:
        fields = [draw(spelled(x)) if isinstance(x, int) else x for x in row]
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        end = draw(st.sampled_from(["\n", "\r\n"]))
        lines.append(pad + sep.join(fields) + pad + end)
    return "".join(lines)


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


@settings(max_examples=600, deadline=None)
@given(case=files(), data=st.data())
def test_block_readers_match_line_readers(case, data):
    kind, rows = case
    text = data.draw(render(rows))
    n = rows[0][0] if rows and kind == "trace" and isinstance(rows[0][0], int) else 1
    n = n if 0 < n < 100 else 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        want = results(ref, kind, path, n)
        for chunk in (1, 3, None):
            with pytest.MonkeyPatch.context() as mp:
                if chunk is not None:
                    mp.setattr(cwio, "CHUNK", chunk)
                assert results(cwio, kind, path, n) == want

