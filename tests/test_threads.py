"""Library calls keep their state in locals, so the same calls give the same
results run one after another or on threads at once: the verifier (on
arrays and on move blocks, valid and failing), ``is_proper``, the greedy
recolor with each selector, the transform, ``induced_subgraph``,
``degeneracy_order`` and the file writers."""

import dataclasses
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from colorwalk import Coloring, Trace, gen_planted, is_proper, verify_trace
from colorwalk import io as cwio
from colorwalk.coloring import CHUNK, REASON_MONOCHROMATIC, REASON_NOOP
from colorwalk.graphs import degeneracy_order, induced_subgraph
from colorwalk.greedy import SELECTORS, run_greedy_recolor
from colorwalk.transform import transform_with_report

SEEDS = range(40, 46)


def plain(x):
    """Arrays, dataclasses, tuples and lists as nested tuples of bytes and
    reprs, so two results compare field by field."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        return tuple(plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(plain(y) for y in x)
    return repr(x)


def serial_equals_threaded(fn, args):
    """fn over args serially, then on more threads than cores with a short
    switch interval, so the threads interleave often."""
    serial = [plain(fn(*a)) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = [plain(f.result(timeout=300))
                        for f in [pool.submit(fn, *a) for a in args * 2]]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 2
    return serial


def instance(seed):
    return gen_planted(20_000, 8, 60_000, seed)


def walks(seed):
    """(graph, trace, what verify_trace returns) for the recolor trace of a
    planted instance, and for copies with a clash or a no-op spliced in."""
    inst = instance(seed)
    g, trace = inst.graph, run_greedy_recolor(inst).trace
    moves = trace.moves
    k = moves.shape[0] // 2 + seed
    while g.neighbors(int(moves[k, 0])).shape[0] == 0:
        k += 1
    colors = trace.start.colors.copy()  # the coloring before row k
    for w, c in moves[:k].tolist():
        colors[w] = c
    v = int(moves[k, 0])
    u = int(g.neighbors(v)[0])
    out = [(g, trace, (True, None))]
    for row, reason in [((v, colors[u]), REASON_MONOCHROMATIC), ((v, colors[v]), REASON_NOOP)]:
        bad = np.concatenate((moves[:k], [row], moves[k:]))
        out.append((g, Trace(start=trace.start, moves=bad), (False, (k, reason))))
    return out


@pytest.fixture(scope="module")
def cases():
    return [case for seed in SEEDS[:3] for case in walks(seed)]


def test_verify_on_arrays(cases):
    got = serial_equals_threaded(verify_trace, [(g, t) for g, t, _ in cases])
    assert got == [plain(want) for _, _, want in cases]


def test_verify_on_move_blocks(cases):
    def streamed(g, t):
        blocks = (t.moves[lo:lo + CHUNK // 4] for lo in range(0, len(t), CHUNK // 4))
        return verify_trace(g, Trace(start=t.start), moves=blocks)
    got = serial_equals_threaded(streamed, [(g, t) for g, t, _ in cases])
    assert got == [plain(want) for _, _, want in cases]


def test_is_proper():
    args = []
    for seed in SEEDS:
        inst = instance(seed)
        bad = inst.sigma.colors.copy()
        bad[inst.graph.edge_v[-1]] = bad[inst.graph.edge_u[-1]]
        args += [(inst.graph, inst.sigma), (inst.graph, Coloring(bad, 8))]
    assert serial_equals_threaded(is_proper, args) == [repr(True), repr(False)] * len(SEEDS)


@pytest.mark.parametrize("selector", SELECTORS)
def test_greedy_recolor(selector):
    serial_equals_threaded(lambda seed: run_greedy_recolor(instance(seed), selector=selector,
                                                           selector_seed=seed),
                           [(seed,) for seed in SEEDS])


def test_transform():
    def walk(seed):
        inst = instance(seed)
        tau = Coloring((inst.sigma.colors + 1) % 8, 8)
        return transform_with_report(inst.graph, inst.sigma, tau, list(range(8, 24)))
    serial_equals_threaded(walk, [(seed,) for seed in SEEDS])


def test_induced_subgraph():
    def sub(seed):
        inst = instance(seed)
        return induced_subgraph(inst.graph, np.flatnonzero(inst.partition.class_of < 3))
    serial_equals_threaded(sub, [(seed,) for seed in SEEDS])


def test_degeneracy_order():
    def order(seed):
        inst = instance(seed)
        return degeneracy_order(induced_subgraph(inst.graph, np.arange(0, 20_000, 2))[0])
    serial_equals_threaded(order, [(seed,) for seed in SEEDS])


@pytest.mark.parametrize("writer", ["graph", "trace", "coloring", "partition"])
def test_writers(tmp_path, writer):
    """Each call writes its own file and returns its bytes."""
    calls = itertools.count()

    def write(seed):
        inst = instance(seed)
        path = tmp_path / f"{writer}-{next(calls)}.txt"
        if writer == "graph":
            cwio.write_graph(str(path), inst.graph)
        elif writer == "trace":
            cwio.write_trace(str(path), run_greedy_recolor(inst).trace)
        elif writer == "coloring":
            cwio.write_coloring(str(path), inst.sigma)
        else:
            cwio.write_partition(str(path), inst.partition)
        return path.read_bytes()
    serial_equals_threaded(write, [(seed,) for seed in SEEDS[:3]])
