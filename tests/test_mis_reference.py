"""Differential test: ``greedy_mis`` against the per-vertex loop it
replaced (``mis_reference``)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from colorwalk import build_graph, greedy_mis
from mis_reference import reference_greedy_mis


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]))
def test_matches_reference_hypothesis(n, seed, density):
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.shape[0]) < density
    g = build_graph(n, np.stack([u[keep], v[keep]], axis=1))
    order = rng.permutation(n)
    got = greedy_mis(g, order)
    want = reference_greedy_mis(g, order)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
