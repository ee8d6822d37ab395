"""Differential test: the sort-based ``reverse_moves`` and the end coloring
of ``apply_trace``, which share one replay, against the per-move loop
``reverse_moves`` replaced (``verify_reference.reference_reverse_moves``)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from colorwalk import Trace, apply_trace, build_graph, coloring_of
from colorwalk.coloring import move_array, reverse_moves
from verify_reference import reference_reverse_moves


@st.composite
def walks(draw):
    """A start coloring and moves that revisit a few vertices many times."""
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 4))
    start = coloring_of(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)),
                        draw(st.integers(q, q + 3)))
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, q + 5)),
                          max_size=30))
    return start, move_array(moves)


@settings(max_examples=400, deadline=None)
@given(case=walks())
def test_matches_reference_hypothesis(case):
    start, moves = case
    end, rev = reverse_moves(start, moves)
    want_end, want_rev = reference_reverse_moves(start, moves)
    assert np.array_equal(end.colors, want_end.colors)
    assert end.palette_hint == want_end.palette_hint
    assert rev.dtype == want_rev.dtype
    assert np.array_equal(rev, want_rev)
    applied = apply_trace(build_graph(start.n, []), Trace(start=start, moves=moves))
    assert np.array_equal(applied.colors, want_end.colors)
    assert applied.palette_hint == want_end.palette_hint


def test_repeated_vertex_restores_each_prior_color():
    start = coloring_of([0, 1, 2])
    moves = move_array([(0, 3), (1, 4), (0, 5), (0, 1), (2, 0), (1, 2)])
    end, rev = reverse_moves(start, moves)
    assert end.colors.tolist() == [1, 2, 0]
    assert end.palette_hint == 6
    assert rev.tolist() == [[1, 4], [2, 2], [0, 5], [0, 3], [1, 1], [0, 0]]
