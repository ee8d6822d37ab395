"""The field-for-field comparison of two greedy reports that the greedy
and transform differentials share. It compares every stored field of
``GreedyReport`` and each value the report derives, so a value moving
between the two kinds is still compared."""

import dataclasses

import numpy as np

from colorwalk.greedy import GreedyReport

DERIVED = ("phase1_colors", "residual_colors", "total_colors", "trajectory")
ARRAYS = ("finalized", "trajectory")


def assert_same_report(got, want):
    """``got`` is a library report; ``want`` is any object with the same
    attribute names, e.g. a reference's loop-built values."""
    assert isinstance(got, GreedyReport)
    assert np.array_equal(got.trace.start.colors, want.trace.start.colors)
    assert got.trace.start.palette_hint == want.trace.start.palette_hint
    assert np.array_equal(got.trace.moves, want.trace.moves)
    stored = [f.name for f in dataclasses.fields(GreedyReport) if f.name != "trace"]
    for name in stored + list(DERIVED):
        a, b = getattr(got, name), getattr(want, name)
        if name in ARRAYS:
            assert a.dtype == np.int64 and np.array_equal(a, b), name
        elif name == "round_pools":
            assert len(a) == len(b), name
            for pool, want_pool in zip(a, b):
                assert pool.dtype == np.int64 and np.array_equal(pool, want_pool), name
        else:
            assert type(a) is type(b) and a == b, name
