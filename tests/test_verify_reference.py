"""Differential test: the chunked ``verify_trace`` kernel and the loop-free
``apply_trace`` against the per-move loops they replaced
(``verify_reference``), on the in-memory array and on a ``moves=`` source
of move blocks, with the pass limits shrunk so short traces span many
passes. The reference reads the same moves one at a time."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import colorwalk.coloring as coloring
from colorwalk import Move, Trace, apply_trace, build_graph, coloring_of, verify_trace
from colorwalk.coloring import (REASON_BAD_START, REASON_MONOCHROMATIC, REASON_NOOP,
                                move_array)
from verify_reference import reference_apply_colors, reference_verify_trace

SMALL = {"CHUNK": 3, "NEIGHBOR_BUDGET": 4}


class SourceError(Exception):
    pass


def outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except Exception as exc:  # both sides must fail the same way
        return type(exc), str(exc)


def failed(moves, raise_at):
    if raise_at == len(moves):
        return SourceError("source failed at the end")
    return SourceError(f"source failed before move {raise_at}")


def flat(moves, raise_at=None):
    """The moves one at a time; raises SourceError before move ``raise_at``."""
    for i, move in enumerate(moves):
        if i == raise_at:
            raise failed(moves, raise_at)
        yield Move(*move)
    if raise_at == len(moves):
        raise failed(moves, raise_at)


def source(moves, raise_at=None, cuts=None):
    """The moves in blocks split at ``cuts`` (random when None; a repeated
    cut makes an empty block), alternately arrays and lists of pairs;
    raises SourceError once the moves before ``raise_at`` are yielded."""
    if cuts is None:
        rng = np.random.default_rng(len(moves))
        cuts = rng.integers(0, len(moves) + 1, size=rng.integers(0, 6)).tolist()
    end = len(moves) if raise_at is None else raise_at
    bounds = sorted([0, end] + [c for c in cuts if c <= end])
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        yield moves[lo:hi] if i % 2 else np.array(moves[lo:hi], dtype=np.int64).reshape(-1, 2)
    if raise_at is not None:
        raise failed(moves, raise_at)


def both(g, start, moves, raise_at=None, cuts=None):
    """(kernel, reference) outcomes on the array and on the block source."""
    trace = Trace(start=start, moves=np.array(moves, dtype=np.int64).reshape(-1, 2))
    return [(outcome(verify_trace, g, trace), outcome(reference_verify_trace, g, trace)),
            (outcome(verify_trace, g, Trace(start=start), moves=source(moves, raise_at, cuts)),
             outcome(reference_verify_trace, g, Trace(start=start),
                     moves=flat(moves, raise_at)))]


@pytest.fixture(params=[SMALL, None], ids=["small-passes", "default-passes"])
def limits(request, monkeypatch):
    for name, value in (request.param or {}).items():
        monkeypatch.setattr(coloring, name, value)


@st.composite
def cases(draw):
    """A graph, a start coloring and a move list that is mostly a valid walk,
    so failures fall anywhere in it. Some graphs hide edges from the start
    check (their CSR keeps them), which makes a start improper only where a
    move looks, and a no-op and a clash can meet at one step."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(n, edges)
    if edges and draw(st.booleans()):
        shown = build_graph(n, draw(st.lists(st.sampled_from(edges), unique=True)))
        g = dataclasses.replace(g, edge_u=shown.edge_u, edge_v=shown.edge_v)
    q = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    start = coloring_of(colors, q + 2)
    moves = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["walk"] * 4 + ["any", "noop", "vertex", "color"]))
        v = draw(st.integers(0, n - 1))
        c = draw(st.integers(0, q + 1))
        if kind == "walk":
            free = [x for x in range(q + 2)
                    if x != colors[v] and all(colors[u] != x for u in g.neighbors(v).tolist())]
            c = draw(st.sampled_from(free)) if free else c
        elif kind == "noop":
            c = colors[v]
        elif kind == "vertex":
            v = draw(st.sampled_from([-1, n, n + 3]))
        elif kind == "color":
            c = -1
        moves.append((v, c))
        if 0 <= v < n and c >= 0:
            colors[v] = c
    raise_at = draw(st.one_of(st.none(), st.integers(0, len(moves))))
    cuts = draw(st.lists(st.integers(0, len(moves)), max_size=6))
    return g, start, moves, raise_at, cuts


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_matches_reference_hypothesis(case):
    g, start, moves, raise_at, cuts = case
    for limits in (SMALL, {"CHUNK": 1, "NEIGHBOR_BUDGET": 1},
                   {"CHUNK": 3, "NEIGHBOR_BUDGET": 64}, None):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in (limits or {}).items():
                mp.setattr(coloring, name, value)
            for got, want in both(g, start, moves, raise_at, cuts):
                assert got == want


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_apply_trace_matches_loop(case):
    g, start, moves, *_ = case
    moves = [(v, c) for v, c in moves if 0 <= v < g.n and c >= 0]
    trace = Trace(start=start, moves=moves)
    end = apply_trace(g, trace)
    assert np.array_equal(end.colors, reference_apply_colors(trace))
    assert end.palette_hint == max(start.palette_hint, max((c + 1 for _, c in moves), default=0))


def test_apply_trace_last_move_wins():
    g = build_graph(3, [])
    moves = [(0, 4), (1, 5), (0, 6), (0, 2), (2, 1), (1, 3)] * 3 + [(0, 7)]
    end = apply_trace(g, Trace(start=coloring_of([0, 0, 0]), moves=moves))
    assert end.colors.tolist() == [7, 3, 1]


def test_repeated_vertex_inside_a_chunk(limits):
    g = build_graph(3, [(0, 1), (1, 2)])
    start = coloring_of([0, 1, 0])
    walk = [(0, 2), (0, 3), (1, 2), (1, 4), (0, 1), (2, 4)]
    for got, want in both(g, start, walk):
        assert got == want == (False, (5, REASON_MONOCHROMATIC))
    for got, want in both(g, start, walk[:5]):
        assert got == want == (True, None)


def test_noop(limits):
    g = build_graph(3, [(0, 1)])
    for got, want in both(g, coloring_of([0, 1, 2]), [(2, 3), (0, 2), (1, 0), (1, 0)]):
        assert got == want == (False, (3, REASON_NOOP))


def test_noop_wins_a_tie_with_a_clash(limits):
    # the start check sees no edge, the move check sees 0-1: move 1 -> 0
    # is a no-op and clashes with vertex 0 at the same step
    full = build_graph(3, [(0, 1)])
    g = dataclasses.replace(full, edge_u=full.edge_u[:0], edge_v=full.edge_v[:0])
    for got, want in both(g, coloring_of([0, 0, 1]), [(2, 3), (2, 1), (1, 0)]):
        assert got == want == (False, (2, REASON_NOOP))


def test_marks_do_not_leak_between_passes(limits):
    # with three rows per pass, (1, 7) opens the second pass: vertex 1 must
    # see vertex 0's color 2 from the first pass, and the mover flags of the
    # first pass must be gone
    g = build_graph(4, [(0, 1)])
    for got, want in both(g, coloring_of([0, 1, 0, 0]),
                          [(2, 1), (0, 2), (2, 5), (3, 7), (1, 7), (1, 2)]):
        assert got == want == (False, (5, REASON_MONOCHROMATIC))


def test_long_walk_on_few_vertices(limits):
    # every vertex moves thousands of times, so each pass repeats vertices
    # (the shape of a replayed inductive recoloring on at most 20 vertices)
    rng = np.random.default_rng(7)
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
    first = [0, 1, 0, 1, 1, 0]
    colors, moves = list(first), []
    while len(moves) < 20000:
        v, c = int(rng.integers(6)), int(rng.integers(4))
        if c != colors[v] and all(colors[u] != c for u in g.neighbors(v).tolist()):
            colors[v] = c
            moves.append((v, c))
            if len(moves) == 12000:
                clash = (0, colors[1])  # vertex 0 onto its neighbor's color
    start = coloring_of(first, 4)
    for got, want in both(g, start, moves):
        assert got == want == (True, None)
    for got, want in both(g, start, moves[:15000] + [moves[14999]] + moves[15000:]):
        assert got == want == (False, (15000, REASON_NOOP))
    for got, want in both(g, start, moves[:12000] + [clash] + moves[12000:]):
        assert got == want == (False, (12000, REASON_MONOCHROMATIC))


def test_improper_start(limits):
    g = build_graph(2, [(0, 1)])
    for got, want in both(g, coloring_of([1, 1]), [(9, 0)]):
        assert got == want == (False, (-1, REASON_BAD_START))


@pytest.mark.parametrize("bad, text", [((-1, 0), "step 4: vertex -1 out of range"),
                                       ((5, 0), "step 4: vertex 5 out of range"),
                                       ((5, -2), "step 4: vertex 5 out of range"),
                                       ((1, -2), "step 4: negative color")])
def test_bad_row_raises_after_the_rows_before_it(limits, bad, text):
    g = build_graph(5, [(0, 1), (1, 2)])
    start = coloring_of([0, 1, 0, 0, 0])
    walk = [(0, 2), (3, 1), (0, 3), (4, 2)]
    for got, want in both(g, start, walk + [bad, (0, 0)]):
        assert got == want == (ValueError, text)
    # a failure before the bad row wins
    for got, want in both(g, start, walk[:2] + [(1, 2)] + walk[2:] + [bad]):
        assert got == want == (False, (2, REASON_MONOCHROMATIC))


def test_source_raising_partway(limits):
    g = build_graph(3, [(0, 1)])
    start = coloring_of([0, 1, 0])
    walk = [(2, 1), (0, 2), (2, 3), (1, 0), (0, 1), (2, 0)]
    for raise_at in range(len(walk) + 1):
        (_, (got, want)) = both(g, start, walk, raise_at)
        message = ("source failed at the end" if raise_at == len(walk)
                   else f"source failed before move {raise_at}")
        assert got == want == (SourceError, message)
    # rows read before the source fails are verified first: failure wins
    (_, (got, want)) = both(g, start, [(2, 1), (0, 1), (2, 3)], raise_at=2)
    assert got == want == (False, (1, REASON_MONOCHROMATIC))


def test_malformed_source_row_matches_loop(limits):
    # a block that is not (vertex, new_color) rows raises the ValueError of
    # move_array once the blocks before it pass; the loop raises a
    # ValueError on the same move
    g = build_graph(2, [(0, 1)])
    start = Trace(start=coloring_of([0, 1]))
    for bad in [[(1, 3, 4)], [(1, 3), (1, 3, 4)]]:
        got = outcome(verify_trace, g, start, moves=iter([[(0, 2)], bad]))
        want = outcome(reference_verify_trace, g, start, moves=iter([(0, 2)] + bad))
        assert got == outcome(move_array, bad)
        assert got[0] is want[0] is ValueError
        assert verify_trace(g, start, moves=iter([[(0, 1)], bad])) == (
            False, (0, REASON_MONOCHROMATIC))


@pytest.mark.parametrize("value", [None, float("nan"), 1.0, "1"])
def test_non_integer_from_an_iterator_is_held(limits, value):
    # a block converts as Trace(moves=) converts it: what move_array
    # rejects (None, NaN) raises only after the blocks before it pass, and
    # what it accepts (1.0, "1") verifies as the same moves in memory; an
    # earlier invalid step is reported first
    g = build_graph(3, [(0, 1)])
    start = coloring_of([0, 1, 0])
    for bad in [(value, 2), (2, value)]:
        blocks = [[(2, 1)], np.array([[0, 2]]), [bad, (0, 0)]]
        got = outcome(verify_trace, g, Trace(start=start), moves=iter(blocks))
        converted = outcome(move_array, blocks[2])
        if isinstance(converted, tuple):
            assert got == converted
        else:
            moves = np.concatenate([[(2, 1), (0, 2)], converted])
            assert got == verify_trace(g, Trace(start=start, moves=moves))
        assert verify_trace(g, Trace(start=start), moves=iter([[(2, 1)], [(0, 1)], [bad]])) == (
            False, (1, REASON_MONOCHROMATIC))


def test_move_beyond_int64_from_an_iterator():
    # a block holding a value beyond int64 raises move_array's
    # OverflowError once the blocks before it pass (a trace file names
    # the line instead, in io); an earlier invalid step is reported first
    g = build_graph(2, [(0, 1)])
    start = Trace(start=coloring_of([0, 1]))
    huge = 2 ** 70
    for bad in [(huge, 1), (1, -huge), (1, huge)]:
        got = outcome(verify_trace, g, start, moves=iter([[(0, 2)], [bad]]))
        assert got == outcome(move_array, [bad]) and got[0] is OverflowError
        assert verify_trace(g, start, moves=iter([[(0, 1)], [bad]])) == (
            False, (0, REASON_MONOCHROMATIC))


def test_vertex_moving_thrice_in_one_pass(limits):
    # vertex 0 moves three times; leaves of it move before its first move,
    # between its moves and after its last one, so the pass reads 0's
    # color before the pass, after each of its moves, and at its end
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    start = coloring_of([0, 1, 1, 1, 1, 1], 8)
    before, first, between, second, later, third, after = (
        (1, 2), (0, 3), (2, 4), (0, 5), (3, 6), (0, 7), (4, 3))
    walk = [before, first, between, second, later, third, after, (5, 0)]
    for got, want in both(g, start, walk):
        assert got == want == (True, None)
    # a leaf move onto the color 0 holds at that row fails there; onto a
    # color 0 holds at another row of the pass, it fails only where 0
    # later moves onto the leaf's color
    mono = REASON_MONOCHROMATIC
    for at, color, expect in [(0, 0, (False, (0, mono))), (0, 7, (False, (5, mono))),
                              (0, 5, (False, (3, mono))), (2, 3, (False, (2, mono))),
                              (2, 0, (True, None)), (2, 7, (False, (5, mono))),
                              (4, 5, (False, (4, mono))), (4, 3, (True, None)),
                              (4, 0, (True, None)), (6, 7, (False, (6, mono))),
                              (6, 5, (True, None)), (6, 0, (True, None))]:
        moves = list(walk)
        moves[at] = (moves[at][0], color)
        for got, want in both(g, start, moves):
            assert got == want == expect
    # a leaf that moves twice around 0's moves, and 0 moving back onto a
    # color a leaf has just left
    walk = [(1, 2), (0, 3), (1, 0), (0, 2), (1, 4), (0, 1), (1, 3)]
    for got, want in both(g, start, walk):
        assert got == want == (False, (5, REASON_MONOCHROMATIC))
    for got, want in both(g, start, walk[:5] + [(0, 5)] + walk[6:]):
        assert got == want == (True, None)


def test_pass_mixing_single_and_repeated_movers(limits):
    # ten vertices move a hundred times each and 900 others once, so one
    # default pass holds both kinds; a move is then made to clash with a
    # neighbor that moves before and after its row, only before it, only
    # after it, or not at all
    rng = np.random.default_rng(11)
    n = 1500
    edges = {tuple(sorted(e)) for e in rng.integers(0, n, (6000, 2)).tolist() if e[0] != e[1]}
    g = build_graph(n, sorted(edges))
    colors = [0] * n
    for v in range(n):  # first fit: a proper start
        taken = {colors[u] for u in g.neighbors(v).tolist() if u < v}
        colors[v] = min(set(range(len(taken) + 1)) - taken)
    start = coloring_of(colors, 40)
    busy = rng.choice(n, 10, replace=False).tolist()
    order = busy * 100 + rng.choice(np.setdiff1d(np.arange(n), busy), 900, replace=False).tolist()
    rng.shuffle(order)
    moves, rows = [], {}
    for i, v in enumerate(order):
        free = [x for x in range(40)
                if x != colors[v] and all(colors[u] != x for u in g.neighbors(v).tolist())]
        colors[v] = free[int(rng.integers(len(free)))]
        moves.append((v, colors[v]))
        rows.setdefault(v, []).append(i)
    for got, want in both(g, start, moves):
        assert got == want == (True, None)

    def color_at(u, i):
        earlier = [j for j in rows.get(u, []) if j < i]
        return moves[earlier[-1]][1] if earlier else int(start.colors[u])

    kinds = {}
    for i, (v, _) in enumerate(moves):
        for u in g.neighbors(v).tolist():
            at = rows.get(u, [])
            kind = ("between" if at and at[0] < i < at[-1] else "after" if at and at[-1] < i
                    else "before" if at else "still")
            kinds.setdefault(kind, []).append((i, u))
    assert sorted(kinds) == ["after", "before", "between", "still"]
    for pairs in kinds.values():
        for i, u in pairs[::len(pairs) // 4][:4]:
            bad = moves[:i] + [(moves[i][0], color_at(u, i))] + moves[i + 1:]
            for got, want in both(g, start, bad):
                assert got == want == (False, (i, REASON_MONOCHROMATIC))
