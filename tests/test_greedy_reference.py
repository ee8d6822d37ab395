"""Differential test: ``run_greedy_recolor`` against the per-vertex heap
loop it replaced (``greedy_reference.reference_greedy_recolor``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import colorwalk.graphs as graphs
from colorwalk import (PlantedInstance, build_graph, gen_planted_m,
                       partition_from_class_of, random_partition,
                       run_greedy_recolor)
from greedy_reference import reference_greedy_recolor
from report_check import assert_same_report

SELECTORS = ("lowest", "random", "highest_degree")
PALETTES = ("identity", "disjoint", "mixed", "short")


def palette_for(kind: str, n: int, q: int, short_len: int = 2):
    if kind == "identity":
        return None
    if kind == "disjoint":
        return list(range(q + 3, q + 3 + n + q))
    if kind == "mixed":
        # identity entries at even positions, off-identity colors above all of them
        return [i if i % 2 == 0 else n + q + i for i in range(n + q)]
    return list(range(q, q + short_len))


def outcome(fn, inst, **kw):
    try:
        return fn(inst, **kw)
    except Exception as exc:  # both sides must fail the same way
        return (type(exc), str(exc))


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert_same_report(got, want)


def check(inst, selector, strict, L, palette, selector_seed=None):
    kw = dict(palette=palette, L=L, selector=selector,
              selector_seed=selector_seed, strict=strict)
    assert_same(outcome(run_greedy_recolor, inst, **kw),
                outcome(reference_greedy_recolor, inst, **kw))


@pytest.fixture(scope="module")
def planted():
    part = random_partition(2000, 8, 10_000, seed=21)
    return gen_planted_m(part, 10_000, seed=22)


@pytest.mark.parametrize("palette", ["identity", "disjoint", "mixed"])
@pytest.mark.parametrize("L", [None, 0])
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("selector", SELECTORS)
def test_matches_reference_grid(planted, selector, strict, L, palette):
    n, q = planted.graph.n, planted.partition.q
    check(planted, selector, strict, L, palette_for(palette, n, q), selector_seed=5)


@st.composite
def instances(draw):
    n = draw(st.integers(0, 60))
    sparse = draw(st.booleans())
    q = draw(st.integers(1, 1000 if sparse else 6))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(seed)
    if sparse:  # at most 6 of the q classes have members
        present = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6, unique=True))
        class_of = np.array(present)[rng.integers(0, len(present), size=n)]
    else:
        class_of = rng.integers(0, q, size=n)
    u, v = np.triu_indices(n, 1)
    cross = class_of[u] != class_of[v]
    keep = cross & (rng.random(u.shape[0]) < density)
    g = build_graph(n, np.stack([u[keep], v[keep]], axis=1))
    return PlantedInstance(graph=g, partition=partition_from_class_of(class_of, q))


@settings(max_examples=300, deadline=None)
@given(inst=instances(), selector=st.sampled_from(SELECTORS),
       strict=st.booleans(), L=st.one_of(st.none(), st.integers(0, 60)),
       palette=st.sampled_from(PALETTES), short_len=st.integers(0, 8),
       selector_seed=st.one_of(st.none(), st.integers(0, 10)))
def test_matches_reference_hypothesis(inst, selector, strict, L, palette,
                                      short_len, selector_seed):
    n, q = inst.graph.n, inst.partition.q
    check(inst, selector, strict, L, palette_for(palette, n, q, short_len),
          selector_seed=selector_seed)


def id_structured_instance(n=3000, q=10, seed=31):
    """A planted path plus distance-2 chords, each vertex's class differing
    from the two before it: ids follow the edges, so id-ordered scans chain
    their ranks."""
    rng = np.random.default_rng(seed)
    class_of = np.empty(n, dtype=np.int64)
    for i in range(n):
        taken = set(class_of[max(0, i - 2):i].tolist())
        class_of[i] = rng.choice([k for k in range(q) if k not in taken])
    ids = np.arange(n)
    g = build_graph(n, np.concatenate((np.column_stack((ids[:-1], ids[1:])),
                                       np.column_stack((ids[:-2], ids[2:])))))
    return PlantedInstance(graph=g, partition=partition_from_class_of(class_of, q))


@pytest.mark.parametrize("stall", [1, None])
@pytest.mark.parametrize("selector", SELECTORS)
def test_matches_reference_on_id_structured_graph(monkeypatch, selector, stall):
    # MIS_STALL 1 stalls the first pass, and the sequential rule settles
    # the rest of each scan
    if stall is not None:
        monkeypatch.setattr(graphs, "MIS_STALL", stall)
    check(id_structured_instance(), selector, False, 0, None)
