import hashlib
import math
import tracemalloc
from unittest import mock
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorwalk import (InfeasibleError, balanced_partition, build_graph,
                       count_edges_within, degeneracy_order, gen_gnm, gen_gnp,
                       gen_planted_m, gen_planted_p, greedy_mis,
                       gen_planted, induced_subgraph,
                       partition_from_class_of, random_partition)
from colorwalk import coloring, graphs
from colorwalk.coloring import coloring_of, is_proper
from colorwalk.graphs import min_internal_pairs
from gen_reference import reference_decode_tri


def comb2(k):
    return k * (k - 1) // 2


def graph_invariants_ok(g):
    """Adjacency symmetric and consistent with the canonical edge list."""
    assert np.all(g.edge_u < g.edge_v)
    if g.m > 1:
        codes = g.edge_u.astype(np.int64) * g.n + g.edge_v
        assert np.all(np.diff(codes) > 0)  # sorted, no duplicates
    rebuilt = set()
    for v in range(g.n):
        row = g.neighbors(v)
        assert np.all(np.diff(row) > 0) if row.size > 1 else True
        assert not np.any(row == v)
        for u in row.tolist():
            assert g.has_edge(u, v) and g.has_edge(v, u)
            rebuilt.add((min(u, v), max(u, v)))
    assert rebuilt == set(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    return True


class TestBuildGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    def test_empty(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.m == 0


class TestOversizeN:
    """n past the int32 vertex ids is rejected before any array exists."""

    @pytest.mark.parametrize("make", [
        lambda n: build_graph(n, []),
        lambda n: gen_gnm(n, 1, seed=1),
        lambda n: gen_gnp(n, 0.0, seed=1),
        lambda n: gen_planted(n, 3, 1, seed=1),
        lambda n: balanced_partition(n, 3, seed=1),
    ])
    def test_rejected_without_allocating(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^n=2147483648 exceeds the int32 vertex id range$"):
                make(2**31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGnm:
    def test_empty_graph(self):
        assert gen_gnm(5, 0, seed=1).m == 0

    def test_complete_graph(self):
        g = gen_gnm(5, 10, seed=1)
        assert g.m == 10
        assert np.all(g.degrees == 4)

    def test_exact_count_and_determinism(self):
        a = gen_gnm(100, 250, seed=7)
        b = gen_gnm(100, 250, seed=7)
        assert a.m == 250
        assert np.array_equal(a.edges(), b.edges())
        c = gen_gnm(100, 250, seed=8)
        assert not np.array_equal(a.edges(), c.edges())

    def test_m_out_of_range(self):
        with pytest.raises(InfeasibleError):
            gen_gnm(5, 11, seed=1)
        with pytest.raises(InfeasibleError):
            gen_gnm(5, -1, seed=1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be nonnegative, got -5$"):
            gen_gnm(-5, 3, seed=1)


class TestGnp:
    def test_p_zero(self):
        assert gen_gnp(10, 0.0, seed=1).m == 0

    def test_p_one(self):
        g = gen_gnp(10, 1.0, seed=1)
        assert g.m == 45

    def test_p_out_of_range(self):
        with pytest.raises(InfeasibleError):
            gen_gnp(10, 1.5, seed=1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be nonnegative, got -5$"):
            gen_gnp(-5, 0.5, seed=1)

    def test_edge_count_concentration(self):
        # binomial moments: mean N*p, sd sqrt(N*p*(1-p)) with N = C(n,2)
        n, p = 10_000, 20 / 10_000
        total = comb2(n)
        mean = total * p
        sd = math.sqrt(total * p * (1 - p))
        g = gen_gnp(n, p, seed=42)
        assert abs(g.m - mean) <= 5 * sd


class TestInvariantSweep:
    def test_thousand_random_generations(self):
        # small instances across all three generators
        checked = 0
        for i in range(340):
            n = 2 + (i % 9)
            total = comb2(n)
            g = gen_gnm(n, (7 * i) % (total + 1), seed=1000 + i)
            assert graph_invariants_ok(g)
            g = gen_gnp(n, (i % 11) / 10.0, seed=2000 + i)
            assert graph_invariants_ok(g)
            q = 1 + (i % 4)
            part = random_partition(n, q, 0, seed=3000 + i)
            m_max = part.cross_pair_count()
            inst = gen_planted_m(part, (3 * i) % (m_max + 1), seed=4000 + i)
            assert graph_invariants_ok(inst.graph)
            cu = part.class_of[inst.graph.edge_u]
            cv = part.class_of[inst.graph.edge_v]
            assert not np.any(cu == cv)
            checked += 3
        assert checked >= 1000


class TestRandomPartition:
    def test_covers_all_vertices(self):
        # m = C(10,2) forces singleton classes; seed chosen so the resample
        # loop lands inside its retry cap
        part = random_partition(10, 10, 45, seed=5)
        assert sum(part.class_sizes) == 10
        assert all(s <= 1 for s in part.class_sizes)
        assert sorted(part.class_of.tolist()) == list(range(10))

    def test_resample_cap_error(self):
        with pytest.raises(InfeasibleError, match="resamples"):
            random_partition(10, 10, 45, seed=3)

    def test_single_class_boundary(self):
        part = random_partition(6, 1, 0, seed=1)
        assert part.class_sizes == [6]
        assert part.internal_pair_count() == comb2(6)

    def test_single_class_infeasible(self):
        with pytest.raises(InfeasibleError):
            random_partition(6, 1, 1, seed=1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be nonnegative, got -5$"):
            random_partition(-5, 2, 3, seed=1)
        with pytest.raises(ValueError, match="^n must be nonnegative, got -5$"):
            balanced_partition(-5, 2, seed=1)

    def test_constraint_enforced(self):
        for seed in range(30):
            part = random_partition(40, 3, 300, seed=seed)
            assert part.internal_pair_count() <= comb2(40) - 300
            assert part.internal_pair_count() == sum(comb2(s) for s in part.class_sizes)

    def test_min_internal_pairs_balanced(self):
        assert min_internal_pairs(10, 3) == comb2(4) + 2 * comb2(3)

    def test_determinism(self):
        a = random_partition(50, 4, 100, seed=9)
        b = random_partition(50, 4, 100, seed=9)
        assert np.array_equal(a.class_of, b.class_of)


class TestPartitionFromClassOf:
    @pytest.mark.parametrize("value", [2**31, 2**32 + 1, -2**31 - 1, -2**32])
    def test_rejects_index_beyond_int32(self, value):
        # the int32 cast would wrap 2**32 + 1 to 1 and -2**32 to 0; q is
        # given, so a wrapped value cannot make a class loop to 2**31
        with pytest.raises(ValueError, match="^class index beyond the int32 range$"):
            partition_from_class_of(np.array([0, value]), q=2)

    def test_int32_class_of(self):
        part = partition_from_class_of(np.array([0, 2, 1, 2], dtype=np.int64))
        assert part.class_of.dtype == np.int32 and part.class_sizes == [1, 1, 2]

    def test_largest_class_index_allocates_nothing_per_class(self):
        tracemalloc.start()
        try:
            part = partition_from_class_of(np.array([0, 2**31 - 1]))
            assert part.q == 2**31
            assert part.internal_pair_count() == 0 and part.cross_pair_count() == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPlanted:
    def test_forced_complete_bipartite(self):
        part = partition_from_class_of([0, 0, 1, 1])
        assert part.cross_pair_count() == 4
        inst = gen_planted_m(part, 4, seed=5)
        assert inst.graph.m == 4
        assert sorted(zip(inst.graph.edge_u.tolist(), inst.graph.edge_v.tolist())) == \
            [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_zero_edges(self):
        part = random_partition(20, 4, 0, seed=1)
        assert gen_planted_m(part, 0, seed=2).graph.m == 0

    def test_m_exceeds_cross_pairs(self):
        part = partition_from_class_of([0, 0, 1, 1])
        with pytest.raises(InfeasibleError):
            gen_planted_m(part, 5, seed=1)

    def test_sigma_proper_large(self):
        part = random_partition(1000, 10, 2500, seed=3)
        inst = gen_planted_m(part, 2500, seed=4)
        from colorwalk import is_proper
        assert is_proper(inst.graph, inst.sigma)

    def test_edge_inside_a_class_rejected(self):
        with pytest.raises(ValueError, match="edge inside a color class"):
            graphs.PlantedInstance(graph=build_graph(3, [(1, 2), (0, 1)]),
                                   partition=partition_from_class_of([0, 1, 1]))

    def test_check_scratch_does_not_grow_with_m(self):
        # the check reads the edges CHUNK at a time; gathering both class
        # arrays over all edges at once held 16 bytes per edge, 7.6 MiB here
        inst = gen_planted(20_000, 20, 500_000, seed=9)
        tracemalloc.start()
        try:
            graphs.PlantedInstance(graph=inst.graph, partition=inst.partition)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_planted_p_extremes(self):
        part = partition_from_class_of([0, 1])
        inst = gen_planted_p(part, 1.0, seed=1)
        assert inst.graph.m == 1
        inst0 = gen_planted_p(part, 0.0, seed=1)
        assert inst0.graph.m == 0

    def test_planted_p_degree_concentration(self):
        # mean edges = N_q * p_hat, sd = sqrt(N_q p (1-p)); degree = 2m/n
        n, q, d = 100_000, 30, 50.0
        part = balanced_partition(n, q, seed=11)
        n_q = part.cross_pair_count()
        d_hat = (d * n / 2) * n / n_q
        p_hat = d_hat / n
        inst = gen_planted_p(part, p_hat, seed=12)
        mean_m = n_q * p_hat
        sd_m = math.sqrt(n_q * p_hat * (1 - p_hat))
        assert abs(inst.graph.m - mean_m) <= 5 * sd_m
        avg_deg = 2 * inst.graph.m / n
        assert abs(avg_deg - 2 * mean_m / n) <= 5 * 2 * sd_m / n


class TestInduced:
    def test_complete_subgraph(self):
        k5 = gen_gnm(5, 10, seed=1)
        sub, vmap = induced_subgraph(k5, [1, 2, 3])
        assert sub.n == 3 and sub.m == 3
        assert vmap.tolist() == [1, 2, 3]

    def test_empty_selection(self):
        g = gen_gnm(5, 5, seed=1)
        sub, vmap = induced_subgraph(g, [])
        assert sub.n == 0 and sub.m == 0

    def test_cycle_selection(self):
        c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, vmap = induced_subgraph(c5, [0, 1, 3])
        assert sub.m == 1
        assert (vmap[sub.edge_u[0]], vmap[sub.edge_v[0]]) == (0, 1)


class TestCountEdgesWithin:
    def test_complete(self):
        k4 = gen_gnm(4, 6, seed=1)
        assert count_edges_within(k4, [0, 1, 2, 3]) == 6

    def test_singleton(self):
        k4 = gen_gnm(4, 6, seed=1)
        assert count_edges_within(k4, [2]) == 0
        assert count_edges_within(k4, []) == 0

    def test_cycle_prefix(self):
        c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert count_edges_within(c5, [0, 1, 2]) == 2

    @pytest.mark.parametrize("vertices", [[-1, 1], [1, 3], [0, 2**40]])
    def test_rejects_out_of_range(self, vertices):
        # without the check -1 would wrap to vertex 2 and count the edge 1-2
        g = build_graph(3, [(1, 2)])
        with pytest.raises(ValueError, match="vertex out of range"):
            count_edges_within(g, vertices)


@st.composite
def graph_and_vertices(draw):
    """(graph, its edges, a vertex list) with n <= 40; the list may be
    unsorted, hold repeats, be empty or hold every vertex."""
    n = draw(st.integers(0, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=min(len(pairs), 150))) if pairs else []
    kind = draw(st.sampled_from(["list", "empty", "full"]))
    vertices = []
    if n and kind == "list":
        vertices = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    elif kind == "full":  # every vertex, shuffled, then some again
        vertices = draw(st.permutations(range(n))) + draw(
            st.lists(st.integers(0, n - 1), max_size=n) if n else st.just([]))
    return build_graph(n, edges), edges, vertices


class TestGathersAgainstLoops:
    """``induced_subgraph``, ``count_edges_within`` and ``is_proper``
    against loops over the edges one at a time."""

    @settings(max_examples=200, deadline=None)
    @given(graph_and_vertices())
    def test_induced_subgraph(self, case):
        g, edges, vertices = case
        sub, vmap = induced_subgraph(g, vertices)
        members = sorted(set(vertices))
        assert vmap.tolist() == members and sub.n == len(members)
        local = {v: i for i, v in enumerate(members)}
        want = sorted((local[u], local[v]) for u, v in edges if u in local and v in local)
        assert list(zip(sub.edge_u.tolist(), sub.edge_v.tolist())) == want
        assert graph_invariants_ok(sub)

    @settings(max_examples=200, deadline=None)
    @given(graph_and_vertices())
    def test_count_edges_within(self, case):
        g, edges, vertices = case
        members = set(vertices)
        want = sum(1 for u, v in edges if u in members and v in members)
        assert count_edges_within(g, vertices) == want

    @settings(max_examples=200, deadline=None)
    @given(graph_and_vertices(), st.data())
    def test_is_proper(self, case, data):
        g, edges, _ = case
        k = data.draw(st.integers(1, 6))
        colors = data.draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n))
        chunk = data.draw(st.sampled_from([1, 2, 3, 7, coloring.CHUNK]))
        want = all(colors[u] != colors[v] for u, v in edges)
        with mock.patch.object(coloring, "CHUNK", chunk):  # blocks end anywhere
            assert is_proper(g, coloring_of(colors, k)) is want


class TestDegeneracy:
    def test_path(self):
        p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        delta, order = degeneracy_order(p4)
        assert delta == 1
        # peel 0, 1, 2 (each the lowest index of degree 1), then 3
        assert order.tolist() == [3, 2, 1, 0]

    def test_ties_go_to_the_lowest_index(self):
        # K_{2,3} on {1, 3} x {5, 6, 7}, the edge 4-8, isolated 0 and 2: the
        # isolated vertices peel first, then 4 and 8, then 5 among the
        # degree-2 vertices, 1 among the new degree-2 ones, and so on
        g = build_graph(9, [(1, 5), (1, 6), (1, 7), (3, 5), (3, 6), (3, 7), (4, 8)])
        delta, order = degeneracy_order(g)
        assert delta == 2
        assert order.tolist() == [7, 3, 6, 1, 5, 8, 4, 2, 0]

    def test_cycle(self):
        c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        delta, _ = degeneracy_order(c5)
        assert delta == 2

    def test_complete(self):
        delta, _ = degeneracy_order(gen_gnm(4, 6, seed=1))
        assert delta == 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_order_certificate_and_exactness(self, data):
        n = data.draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)) if pairs else st.just([]))
        g = build_graph(n, edges)
        delta, order = degeneracy_order(g)
        assert sorted(order.tolist()) == list(range(n))
        # certificate: each vertex has at most delta earlier neighbors
        position = {v: i for i, v in enumerate(order.tolist())}
        for v in range(n):
            back = sum(1 for u in g.neighbors(v).tolist() if position[u] < position[v])
            assert back <= delta
        # exactness: some induced subgraph has min degree delta
        found = False
        for keep_size in range(n, 0, -1):
            keep = order.tolist()[:keep_size]
            sub, _ = induced_subgraph(g, keep)
            if sub.n and sub.m and int(sub.degrees.min()) >= delta:
                found = True
                break
            if delta == 0 and sub.n:
                found = True
                break
        assert found


class TestGreedyMis:
    def test_empty_graph_takes_all(self):
        g = build_graph(6, [])
        assert greedy_mis(g, range(6)).tolist() == list(range(6))

    def test_complete_takes_one(self):
        g = gen_gnm(5, 10, seed=1)
        assert greedy_mis(g, [3, 1, 0, 2, 4]).tolist() == [3]

    def test_cycle_ascending(self):
        c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert greedy_mis(c5, range(5)).tolist() == [0, 2]

    def test_rejects_non_permutation(self):
        g = build_graph(3, [])
        with pytest.raises(ValueError):
            greedy_mis(g, [0, 0, 1])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_independent_and_maximal(self, data):
        n = data.draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)) if pairs else st.just([]))
        order = data.draw(st.permutations(list(range(n))))
        g = build_graph(n, edges)
        mis = set(greedy_mis(g, order).tolist())
        for u, v in edges:
            assert not (u in mis and v in mis)
        for v in range(n):
            if v not in mis:
                assert any(u in mis for u in g.neighbors(v).tolist())


class TestBalancedPartition:
    def test_sizes_differ_by_at_most_one(self):
        part = balanced_partition(20, 3, seed=1)
        sizes = sorted(part.class_sizes)
        assert sizes == [6, 7, 7]

    def test_determinism(self):
        a = balanced_partition(40, 7, seed=5)
        b = balanced_partition(40, 7, seed=5)
        assert np.array_equal(a.class_of, b.class_of)


class TestConcurrentGeneration:
    """Generators share no state, so threads with distinct seeds get
    exactly the graphs a serial run gives."""

    SEEDS = list(range(100, 112))

    @staticmethod
    def arrays(g):
        return (g.edge_u, g.edge_v, g.indptr, g.nbrs)

    def check(self, make):
        serial = [make(s) for s in self.SEEDS]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(make, self.SEEDS))
        for a, b in zip(serial, threaded):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_gen_planted_threaded_equals_serial(self):
        def make(seed):
            inst = gen_planted(20_000, 10, 100_000, seed)
            return self.arrays(inst.graph) + (inst.partition.class_of,)
        self.check(make)

    def test_gen_gnm_threaded_equals_serial(self):
        self.check(lambda seed: self.arrays(gen_gnm(20_000, 100_000, seed)))


def tri_offset(n, u):
    """First triangular code of block u."""
    return u * (2 * n - 1 - u) // 2


# the float reference decodes exactly up to this n (see gen_reference)
FLOAT_DECODE_EXACT_N = 10**8


@st.composite
def sorted_code_sets(draw):
    """(n, ascending distinct triangular codes) with n from 2 up to 2**31-1.

    The codes lie in a window of at most 1000 blocks, at the start, the end
    or anywhere in the code range, and are biased to block starts, block
    ends and the window's last code (C(n,2)-1 for a window at the end).
    The decode makes offsets for the blocks its codes span, so the window
    keeps every array small at any n."""
    n = draw(st.one_of(st.integers(2, 3), st.integers(2, 300),
                       st.integers(2, FLOAT_DECODE_EXACT_N),
                       st.integers(2**31 - 64, 2**31 - 1)))
    width = min(n - 1, 1000)
    first = draw(st.one_of(st.just(0), st.just(n - 1 - width),
                           st.integers(0, n - 1 - width)))
    lo, hi = tri_offset(n, first), tri_offset(n, first + width)
    block = st.integers(first, first + width - 1)
    code = st.one_of(st.integers(lo, hi - 1),
                     block.map(lambda u: tri_offset(n, u)),
                     block.map(lambda u: tri_offset(n, u + 1) - 1),
                     st.just(hi - 1))
    codes = draw(st.lists(code, max_size=40, unique=True))
    return n, np.array(sorted(codes), dtype=np.int64)


class TestDecodeSortedTri:
    """``graphs._decode_sorted_tri`` against the float decode it replaced
    (``gen_reference``) and against re-encoding."""

    @settings(max_examples=300, deadline=None)
    @given(sorted_code_sets())
    def test_matches_reference_and_reencodes(self, case):
        n, codes = case
        ub, vb = graphs._decode_sorted_tri(n, codes)
        assert ub.dtype == vb.dtype == np.int64
        assert np.all((0 <= ub) & (ub < vb) & (vb < n))
        assert np.array_equal(tri_offset(n, ub) + vb - ub - 1, codes)
        if n <= FLOAT_DECODE_EXACT_N:
            want_u, want_v = np.empty_like(codes), np.empty_like(codes)
            reference_decode_tri(n, codes, want_u, want_v)
            assert np.array_equal(ub, want_u) and np.array_equal(vb, want_v)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64])
    def test_every_code_in_lexicographic_order(self, n):
        ub, vb = graphs._decode_sorted_tri(n, np.arange(comb2(n), dtype=np.int64))
        want_u, want_v = np.triu_indices(n, 1)
        assert np.array_equal(ub, want_u) and np.array_equal(vb, want_v)

    def test_first_and_last_codes_near_int32_limit(self):
        n = 2**31 - 1
        ub, vb = graphs._decode_sorted_tri(n, np.array([0, n - 2, n - 1], dtype=np.int64))
        assert ub.tolist() == [0, 0, 1] and vb.tolist() == [1, n - 1, 2]
        last = np.array([comb2(n) - 3, comb2(n) - 2, comb2(n) - 1], dtype=np.int64)
        ub, vb = graphs._decode_sorted_tri(n, last)
        assert ub.tolist() == [n - 3, n - 3, n - 2] and vb.tolist() == [n - 2, n - 1, n - 1]


def digest(g):
    """sha256 over the dtype and bytes of each array of ``g``."""
    h = hashlib.sha256()
    for a in (g.edge_u, g.edge_v, g.indptr, g.nbrs):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


# one generator call per case, each on its own seed
GEN_CASES = {
    "gnm-n2": lambda: gen_gnm(2, 1, 1),
    "gnm-k3": lambda: gen_gnm(3, 3, 2),
    "gnm-k30": lambda: gen_gnm(30, 435, 3),  # complete: a second rejection batch
    "gnm-sparse": lambda: gen_gnm(1000, 3000, 4),
    "gnm-20k": lambda: gen_gnm(20_000, 100_000, 5),
    "gnp-n2": lambda: gen_gnp(2, 1.0, 6),
    "gnp-dense": lambda: gen_gnp(60, 0.5, 7),
    "gnp-sparse": lambda: gen_gnp(5000, 0.002, 8),
    "planted-m-n2": lambda: gen_planted(2, 2, 1, 9).graph,
    "planted-m-q-is-n": lambda: gen_planted(8, 8, 20, 10).graph,
    "planted-m": lambda: gen_planted(3000, 7, 12_000, 11).graph,
    "planted-p": lambda: gen_planted(3000, 7, 12_000, 12, model="p").graph,
    "planted-p-q-is-n": lambda: gen_planted(8, 8, 20, 13, model="p").graph,
    "planted_m-bipartite": lambda: gen_planted_m(
        partition_from_class_of([0, 0, 1, 1]), 4, 14).graph,
    "planted_m-balanced": lambda: gen_planted_m(
        balanced_partition(2000, 9, 15), 8000, 16).graph,
    "planted_p-balanced": lambda: gen_planted_p(
        balanced_partition(2000, 9, 17), 0.01, 18).graph,
}

# several _GEN_CHUNK slices per rejection batch
CHUNKED_CASES = {
    "gnm-chunked": lambda: gen_gnm(2000, 30_000, 19),
    "planted-m-chunked": lambda: gen_planted(2000, 5, 20_000, 20).graph,
}

PINNED_DIGESTS = {  # computed with the float decode the generators used before
    "gnm-n2": "eca64666081b9464",
    "gnm-k3": "0b02229d4deb39eb",
    "gnm-k30": "1b6a4cdd5db7da8b",
    "gnm-sparse": "b0a7a52f8090267c",
    "gnm-20k": "5d7a925abcdde87d",
    "gnp-n2": "eca64666081b9464",
    "gnp-dense": "86d7043b0593d22c",
    "gnp-sparse": "ded5b971aa93258d",
    "planted-m-n2": "eca64666081b9464",
    "planted-m-q-is-n": "cd5fe183652fda21",
    "planted-m": "321136a0930ad95f",
    "planted-p": "54207ce9331bf6a7",
    "planted-p-q-is-n": "97edfe227b39d0c9",
    "planted_m-bipartite": "80ba22191ae696bc",
    "planted_m-balanced": "adda4b9b14fe3ff1",
    "planted_p-balanced": "1f5bc2173d3bdbef",
    "gnm-chunked": "f93850f8ef4b163e",
    "planted-m-chunked": "f90a9ad8ea934216",
}


class TestPinnedDigests:
    """The generators' arrays, pinned by hash: a change to the sampling or
    decoding code that alters any generated graph fails here."""

    @pytest.mark.parametrize("name", sorted(GEN_CASES))
    def test_generator_digest(self, name):
        assert digest(GEN_CASES[name]()) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(CHUNKED_CASES))
    def test_chunked_draw_digest(self, name, monkeypatch):
        whole = digest(CHUNKED_CASES[name]())
        monkeypatch.setattr(graphs, "_GEN_CHUNK", 1000)
        assert digest(CHUNKED_CASES[name]()) == whole == PINNED_DIGESTS[name]
