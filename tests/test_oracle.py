import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorwalk import (CapError, InfeasibleError, Move, Trace, build_graph,
                       build_hq, certify_trace, coloring_of,
                       enumerate_colorings, enumerate_hq, gen_planted_m,
                       giant_fraction, hamming, is_proper,
                       random_partition, sample_uniform_coloring, verify_trace)


def k3():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def brute_force_colorings(g, q):
    """Direct product-space filter; independent of the backtracking path."""
    out = []
    for assign in itertools.product(range(q), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in zip(g.edge_u.tolist(),
                                                      g.edge_v.tolist())):
            out.append(assign)
    return out


class TestEnumerate:
    def test_k3_six_colorings(self):
        found = enumerate_colorings(k3(), 3)
        assert len(found) == 6
        assert found == brute_force_colorings(k3(), 3)

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert enumerate_colorings(g, 3) == [(0,), (1,), (2,)]

    def test_edge_with_one_color(self):
        g = build_graph(2, [(0, 1)])
        assert enumerate_colorings(g, 1) == []

    def test_lexicographic_order(self):
        g = build_graph(3, [(0, 1)])
        found = enumerate_colorings(g, 2)
        assert found == sorted(found)

    def test_cap(self):
        g = build_graph(40, [])
        with pytest.raises(CapError):
            enumerate_colorings(g, 10)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_product_filter(self, data):
        n = data.draw(st.integers(1, 5))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)) if pairs else st.just([]))
        q = data.draw(st.integers(1, 4))
        g = build_graph(n, edges)
        assert enumerate_colorings(g, q) == brute_force_colorings(g, q)


class TestBuildHq:
    def test_k3_q3_isolated(self):
        h = enumerate_hq(k3(), 3)
        assert h.z_q == 6
        assert h.component_count == 6
        assert giant_fraction(h) == pytest.approx(1 / 6)

    def test_k3_q4_connected(self):
        h = enumerate_hq(k3(), 4)
        assert h.component_count == 1
        assert giant_fraction(h) == 1.0

    def test_path3_q2_two_components(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        h = enumerate_hq(g, 2)
        assert h.z_q == 2
        assert h.component_count == 2
        assert hamming(coloring_of(h.colorings[0]), coloring_of(h.colorings[1])) == 3

    def test_single_vertex_triangle(self):
        g = build_graph(1, [])
        h = enumerate_hq(g, 3)
        assert h.z_q == 3
        assert h.component_count == 1
        assert all(len(adj) == 2 for adj in h.adjacency)

    def test_edgeless_connected(self):
        g = build_graph(3, [])
        h = enumerate_hq(g, 2)
        assert h.z_q == 8
        assert giant_fraction(h) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_edges_are_exactly_hamming_one_pairs(self, data):
        n = data.draw(st.integers(1, 4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)) if pairs else st.just([]))
        q = data.draw(st.integers(1, 3))
        g = build_graph(n, edges)
        h = enumerate_hq(g, q)
        assert h.z_q <= 2000
        expected = set()
        for i in range(h.z_q):
            for j in range(i + 1, h.z_q):
                if hamming(coloring_of(h.colorings[i]),
                           coloring_of(h.colorings[j])) == 1:
                    expected.add((i, j))
        got = {(i, j) for i in range(h.z_q) for j in h.adjacency[i] if i < j}
        assert got == expected

    def test_giant_fraction_zero_colorings(self):
        g = build_graph(2, [(0, 1)])
        h = enumerate_hq(g, 1)
        with pytest.raises(InfeasibleError):
            giant_fraction(h)


class TestSampling:
    def test_both_colorings_of_a_vertex_appear(self):
        g = build_graph(1, [])
        seen = {sample_uniform_coloring(g, 2, seed=s).colors[0] for s in range(12)}
        assert seen == {0, 1}

    def test_multinomial_frequencies(self):
        g = k3()
        counts = {}
        for s in range(6000):
            c = sample_uniform_coloring(g, 3, seed=s)
            counts[c.as_tuple()] = counts.get(c.as_tuple(), 0) + 1
        assert len(counts) == 6
        # per-cell sd of multinomial(6000, 1/6)
        sd = (6000 * (1 / 6) * (5 / 6)) ** 0.5
        for v in counts.values():
            assert abs(v - 1000) <= 5 * sd

    def test_no_colorings_error(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(InfeasibleError):
            sample_uniform_coloring(g, 1, seed=1)

    def test_deterministic(self):
        g = k3()
        a = sample_uniform_coloring(g, 3, seed=7)
        b = sample_uniform_coloring(g, 3, seed=7)
        assert a.colors.tolist() == b.colors.tolist()


class TestCertify:
    def test_empty_trace(self):
        h = enumerate_hq(k3(), 3)
        assert certify_trace(h, Trace(start=coloring_of([0, 1, 2], 3)))

    def test_improper_coloring_rejected(self):
        h = enumerate_hq(k3(), 3)
        t = Trace(start=coloring_of([0, 1, 2], 3), moves=[Move(0, 1)])
        assert not certify_trace(h, t)

    def test_out_of_palette_raises(self):
        h = enumerate_hq(k3(), 3)
        t = Trace(start=coloring_of([0, 1, 2], 4), moves=[Move(0, 3)])
        with pytest.raises(ValueError):
            certify_trace(h, t)

    @pytest.mark.parametrize("v", [-1, 3])
    @pytest.mark.parametrize("step", [0, 1])
    def test_vertex_out_of_range_raises(self, v, step):
        # -1 must not wrap to vertex 2 as a negative index, nor 3 raise IndexError
        g = build_graph(3, [(0, 1)])
        h = enumerate_hq(g, 3)
        moves = [Move(2, 2)][:step] + [Move(v, 2)]
        t = Trace(start=coloring_of([0, 1, 0], 3), moves=moves)
        message = f"step {step}: vertex {v} out of range"
        with pytest.raises(ValueError) as certified:
            certify_trace(h, t)
        with pytest.raises(ValueError) as verified:
            verify_trace(g, t)
        assert str(certified.value) == str(verified.value) == message

    def test_valid_walk_certified(self):
        g = build_graph(1, [])
        h = enumerate_hq(g, 3)
        t = Trace(start=coloring_of([0], 3), moves=[Move(0, 1), Move(0, 2)])
        assert certify_trace(h, t)

    def test_noop_rejected(self):
        g = build_graph(2, [])
        h = enumerate_hq(g, 2)
        t = Trace(start=coloring_of([0, 0], 2), moves=[Move(0, 0)])
        assert not certify_trace(h, t)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_agreement_with_streaming_verifier(self, data):
        n = data.draw(st.integers(1, 5))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)) if pairs else st.just([]))
        q = data.draw(st.integers(1, 3))
        g = build_graph(n, edges)
        h = enumerate_hq(g, q)
        start_colors = data.draw(st.lists(st.integers(0, q - 1), min_size=n,
                                          max_size=n)) if q else [0] * n
        start = coloring_of(start_colors, q)
        k = data.draw(st.integers(0, 6))
        moves = [Move(data.draw(st.integers(0, n - 1)),
                      data.draw(st.integers(0, q - 1))) for _ in range(k)]
        t = Trace(start=start, moves=moves)
        ok_stream, _ = verify_trace(g, t)
        assert certify_trace(h, t) == ok_stream


class TestPlantedOracleInterplay:
    def test_planted_sigma_enumerated(self):
        part = random_partition(6, 3, 6, seed=1)
        inst = gen_planted_m(part, 6, seed=2)
        found = enumerate_colorings(inst.graph, 3)
        assert inst.sigma.as_tuple() in found


def test_package_serves_oracle_names_on_demand():
    # the package loads the oracle only when one of its names is asked for
    script = "\n".join([
        "import sys, colorwalk",
        "assert 'colorwalk.oracle' not in sys.modules",
        "from colorwalk import build_hq",
        "from colorwalk import oracle",
        "assert build_hq is oracle.build_hq",
        "names = {}",
        "exec('from colorwalk import *', names)",
        "assert all(names[k] is getattr(colorwalk, k) for k in colorwalk.__all__)",
        "assert len(set(colorwalk.__all__)) == len(colorwalk.__all__) == 51",
        "assert not hasattr(colorwalk, 'no_such_name')",
        "print('ok')",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
