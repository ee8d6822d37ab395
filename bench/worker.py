"""One benchmark iteration in a fresh interpreter.

Library mode (dense-planted, sparse-residual) times the import of
colorwalk plus ``gen_planted`` from the parent's spawn time (setup_s),
then the walk: ``run_greedy_recolor``, ``verify_trace``,
``transform_with_report``, ``verify_trace`` (walk_s). With --trace 1 it
wraps the layer functions in spans first. With --cli-traced it runs the
colorwalk command pipeline in-process through ``colorwalk.cli.main``,
traced. It prints one JSON object as its last line of output.

    python3 bench/worker.py --workload NAME --seed N --t0 MONOTONIC
        [--trace 0|1] [--expect DIGEST] [--cli-traced DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import (CLI_SPANS, LIBRARY_SPANS, STEPS_PER_ITERATION, UNLIKE_FIRST,
                       StepFailed, WALK_COMMANDS, WORKLOADS, check_cli_files,
                       check_outputs, cli_commands, digest, negative_control,
                       target_of, write_target)

SRC = Path(__file__).resolve().parent.parent / "src"


def _moves_array(moves):
    """(vertices, colours) arrays of a list of Move pairs."""
    import numpy as np
    flat = np.fromiter(itertools.chain.from_iterable(moves), dtype=np.int64,
                       count=2 * len(moves))
    return flat[0::2], flat[1::2]


def install(tracer: Tracer, cli_mode: bool) -> None:
    """Wrap each layer function where its caller looks it up."""
    from colorwalk import coloring, graphs, greedy, io, residual, transform
    top = {"gen_planted": graphs, "run_greedy_recolor": greedy,
           "verify_trace": coloring, "transform_with_report": transform}
    if cli_mode:
        from colorwalk import cli
        top = dict.fromkeys(top, cli)
        for attr in ("read_graph", "read_coloring", "read_partition"):
            tracer.wrap(io, attr, f"io.{attr}",
                        (lambda a, k, r: {"edges": r.m}) if attr == "read_graph" else None)
        for attr in ("write_graph", "write_trace", "write_partition",
                     "write_coloring", "write_records"):
            tracer.wrap(io, attr, f"io.{attr}",
                        lambda a, k, r: {"bytes": os.path.getsize(a[0])})

    def recolor_counts(args, kwargs, report):
        return {"rounds": report.rounds,
                "round_moves": len(report.trace.moves) - report.residual_size}

    tracer.wrap(top["gen_planted"], "gen_planted", "graphs.gen_planted",
                lambda a, k, r: {"edges": r.graph.m})
    tracer.wrap(top["run_greedy_recolor"], "run_greedy_recolor", "greedy.recolor",
                recolor_counts)
    tracer.wrap(transform, "run_greedy_recolor", "greedy.recolor", recolor_counts)
    tracer.wrap(greedy, "induced_subgraph", "graphs.induced_subgraph")
    tracer.wrap(residual, "degeneracy_recolor_greedy", "residual.recolor",
                lambda a, k, r: {"vertices": a[0].n, "degeneracy": r[1]})
    tracer.wrap(residual, "degeneracy_order", "graphs.degeneracy_order",
                lambda a, k, r: {"vertices": a[0].n})
    tracer.wrap(top["verify_trace"], "verify_trace", "coloring.verify")
    tracer.wrap(top["transform_with_report"], "transform_with_report", "transform.total",
                lambda a, k, r: {"sweep_moves": len(r[0].moves) - len(r[1].trace.moves)})


def layer_metrics(tracer: Tracer, expected: tuple[str, ...], walk_t0: float,
                  walk_t1: float, verified_moves: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced iteration, plus a problem for each
    expected layer span that recorded no calls."""
    s = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
    get = lambda name: s.get(name, empty)  # noqa: E731
    rate = lambda x, t: x / t if t > 0 else 0.0  # noqa: E731
    gen, sub = get("graphs.gen_planted"), get("graphs.induced_subgraph")
    deg, rec = get("graphs.degeneracy_order"), get("greedy.recolor")
    res, tra = get("residual.recolor"), get("transform.total")
    ver = get("coloring.verify")
    rg = get("io.read_graph")
    writes = [v for k, v in s.items() if k.startswith("io.write_")]
    walk_s = walk_t1 - walk_t0
    out = {
        "graphs.gen_planted_s": gen["total_s"],
        "graphs.gen_edges_per_s": rate(gen["counts"].get("edges", 0), gen["total_s"]),
        "graphs.induced_subgraph_s": sub["total_s"],
        "graphs.degeneracy_order_s": deg["total_s"],
        "graphs.degeneracy_order_vertices": deg["counts"].get("vertices", 0),
        "greedy.recolor_s": rec["total_s"],
        "greedy.rounds_self_s": rec["self_s"],
        "greedy.rounds": rec["counts"].get("rounds", 0),
        "greedy.round_moves": rec["counts"].get("round_moves", 0),
        "greedy.round_moves_per_s": rate(rec["counts"].get("round_moves", 0), rec["self_s"]),
        "residual.recolor_s": res["total_s"],
        "residual.first_fit_self_s": res["self_s"],
        "residual.vertices": res["counts"].get("vertices", 0),
        "residual.degeneracy": res["counts"].get("degeneracy", 0),
        "residual.vertices_per_s": rate(res["counts"].get("vertices", 0), res["total_s"]),
        "transform.total_s": tra["total_s"],
        "transform.sweep_self_s": tra["self_s"],
        "transform.sweep_moves": tra["counts"].get("sweep_moves", 0),
        "coloring.verify_s": ver["total_s"],
        "coloring.verify_moves_per_s": rate(verified_moves, ver["total_s"]),
        "io.read_graph_s": rg["total_s"],
        "io.read_graph_edges_per_s": rate(rg["counts"].get("edges", 0), rg["total_s"]),
        "io.write_graph_s": get("io.write_graph")["total_s"],
        "io.write_trace_s": get("io.write_trace")["total_s"],
        "io.read_coloring_s": get("io.read_coloring")["total_s"],
        "io.bytes_written": sum(v["counts"].get("bytes", 0) for v in writes),
        "trace.walk_s": walk_s,
        "trace.glue_share": 1.0 - tracer.top_level_between(walk_t0, walk_t1) / walk_s,
    }
    missing = [f"traced run recorded no calls of layer span {name!r}"
               for name in expected if get(name)["calls"] == 0]
    return out, missing


def library_iteration(w, seed: int, t0: float, traced: bool, expect: str | None) -> dict:
    """Set-up and walk, timed. With ``expect`` None the outputs get every
    check and the negative control; otherwise they must hash to ``expect``,
    the digest of an earlier iteration of the same run that passed them."""
    from colorwalk import coloring, graphs, greedy, transform
    from colorwalk.coloring import Coloring, Move, Trace
    tracer = Tracer() if traced else None
    if tracer:
        install(tracer, cli_mode=False)
    done = 0
    try:
        inst = graphs.gen_planted(w.n, w.q, w.m, seed)
        setup_s = time.monotonic() - t0
        done += 1
        g, sigma = inst.graph, inst.sigma
        tau = Coloring(target_of(sigma.colors, w.q), w.q)
        walk_t0 = time.perf_counter()
        report = greedy.run_greedy_recolor(inst)
        done += 1
        ok, failure = coloring.verify_trace(g, report.trace)
        if not ok:
            raise StepFailed(f"verify_trace rejected the recolor trace: {failure}")
        done += 1
        trace, _ = transform.transform_with_report(g, sigma, tau, w.work_palette)
        done += 1
        ok, failure = coloring.verify_trace(g, trace)
        if not ok:
            raise StepFailed(f"verify_trace rejected the sigma->tau walk: {failure}")
        done += 1
        walk_t1 = time.perf_counter()
    except Exception:  # a failed step is counted, not fatal
        traceback.print_exc()
    out = {"attempted": STEPS_PER_ITERATION, "failed": STEPS_PER_ITERATION - done,
           "problems": []}
    if done < STEPS_PER_ITERATION:
        return out
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:  # before the negative control adds verify_trace spans
        out["layers"], out["problems"] = layer_metrics(
            tracer, LIBRARY_SPANS, walk_t0, walk_t1,
            len(report.trace.moves) + len(trace.moves))
    recolor, walk = _moves_array(report.trace.moves), _moves_array(trace.moves)
    numbers = {"total_colors": report.total_colors, "rounds": report.rounds,
               "residual_colors": report.residual_colors,
               "residual_degeneracy": report.residual_degeneracy}
    out["digest"] = digest(g.edge_u, g.edge_v, inst.partition.class_of, *recolor,
                           *walk, json.dumps(numbers).encode())
    if expect is not None:
        problems = [] if out["digest"] == expect else [UNLIKE_FIRST]
    else:
        check_t0 = time.monotonic()
        problems, adj, walks = check_outputs(
            w, g.edge_u, g.edge_v, inst.partition.class_of, sigma.colors,
            recolor, numbers, walk)

        def verify(name, walk, j, bad):
            moves = [Move(int(v), int(c)) for v, c in zip(walk.mv_v, bad)]
            ok, failure = coloring.verify_trace(g, Trace(start=sigma, moves=moves))
            return (not ok and failure.step == j
                    and failure.reason == coloring.REASON_MONOCHROMATIC), failure
        problems += negative_control(adj, walks, verify)
        out["check_s"] = time.monotonic() - check_t0
    out["problems"] += problems
    out["e2e"] = {"setup_s": setup_s, "walk_s": walk_t1 - walk_t0,
                  "peak_rss_mb": rss_mb, "colors_used": report.total_colors,
                  "walk_moves": len(trace.moves)}
    return out


def cli_traced_iteration(w, seed: int, d: Path) -> dict:
    """The command pipeline in-process through colorwalk.cli.main, traced."""
    from colorwalk import cli
    tracer = Tracer()
    install(tracer, cli_mode=True)
    cmds = cli_commands(w, seed, d)
    done = 0
    walk_t0 = walk_t1 = 0.0
    try:
        for name in ("gen",) + WALK_COMMANDS:
            if name == WALK_COMMANDS[0]:
                write_target(w, d)
                walk_t0 = time.perf_counter()
            buf = stdio.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(cmds[name])
            if code != 0 or (name.startswith("verify") and buf.getvalue() != "ok\n"):
                raise StepFailed(f"{name} exited {code}: {buf.getvalue()!r}")
            done += 1
        walk_t1 = time.perf_counter()
    except Exception:  # a failed step is counted, not fatal
        traceback.print_exc()
    out = {"attempted": STEPS_PER_ITERATION, "failed": STEPS_PER_ITERATION - done,
           "problems": []}
    if done < STEPS_PER_ITERATION:
        return out
    problems, _, walks, _ = check_cli_files(w, d)
    out["layers"], missing = layer_metrics(tracer, CLI_SPANS, walk_t0, walk_t1,
                                           sum(len(x) for x in walks.values()))
    out["problems"] = problems + missing
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expect")
    p.add_argument("--cli-traced", type=Path)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.cli_traced:
        out = cli_traced_iteration(w, args.seed, args.cli_traced)
    else:
        out = library_iteration(w, args.seed, args.t0, bool(args.trace), args.expect)
    import colorwalk
    if Path(colorwalk.__file__).resolve().parent != SRC / "colorwalk":
        out["problems"].append(f"colorwalk imported from {colorwalk.__file__}, not {SRC}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
