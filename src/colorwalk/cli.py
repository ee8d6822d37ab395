"""Command-line front end.

Exit codes: 0 success, 1 verification/certification failure, 2 usage or
input-format error, 3 infeasible parameters, exhausted palette, size cap or
out of memory, 4 internal error. Generating subcommands need an explicit --seed.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import io
from .coloring import Trace, colors_used, verify_trace
from .errors import (CapError, ColorwalkError, FormatError, FreshColorError,
                     InfeasibleError, PaletteError)
from .graphs import (PlantedInstance, _check_n, _comb2, gen_gnm, gen_gnp,
                     gen_planted, min_internal_pairs)
from .greedy import derive_params, run_greedy_recolor
from .transform import (connect_pair, contiguity_hypothesis_ok,
                        color_budget_arithmetic, transform_with_report)


# the keys of experiments.EXPERIMENTS, sorted: named here so that only the
# experiment subcommand imports that module
EXPERIMENT_KINDS = ("coupling", "density", "mis", "scaling")


def _parse_palette(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad color list {text!r}") from None
    bad = [x for x in values if not -2**63 <= x < 2**63]
    if bad:
        raise argparse.ArgumentTypeError(f"value {bad[0]} outside the int64 range")
    return values


def _parse_finite(text: str, what: str = "degree") -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{what} must be finite, got {text!r}")
    return value


def _parse_degree_list(text: str) -> list[float]:
    return [_parse_finite(x) for x in text.split(",") if x.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="colorwalk",
                                description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate graphs and planted instances")
    g.add_argument("model", choices=["gnm", "gnp", "planted"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int)
    g.add_argument("--d", type=_parse_finite)
    g.add_argument("--p", type=lambda text: _parse_finite(text, "p"))
    g.add_argument("--q", type=int)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--planted-model", choices=["m", "p"], default="m")
    g.add_argument("--out-graph", required=True)
    g.add_argument("--out-partition")
    g.add_argument("--out-coloring")

    pr = sub.add_parser("params", help="print derived parameters")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--m", type=int)
    pr.add_argument("--d", type=_parse_finite)
    pr.add_argument("--q", type=int, required=True)
    pr.add_argument("--partition", help="partition file; balanced split assumed otherwise")

    r = sub.add_parser("recolor", help="greedy recoloring run on a planted instance")
    r.add_argument("--graph", required=True)
    r.add_argument("--partition", required=True)
    r.add_argument("--L", type=int)
    r.add_argument("--palette", type=_parse_palette)
    r.add_argument("--selector", choices=["lowest", "random", "highest_degree"],
                   default="lowest")
    r.add_argument("--selector-seed", type=int)
    r.add_argument("--strict", action="store_true")
    r.add_argument("--out-trace", required=True)
    r.add_argument("--out-report")
    r.add_argument("--out-trajectory")

    t = sub.add_parser("transform", help="walk one coloring into another")
    t.add_argument("--graph", required=True)
    t.add_argument("--sigma", required=True)
    t.add_argument("--tau", required=True)
    t.add_argument("--work-palette", type=_parse_palette, required=True)
    t.add_argument("--L", type=int)
    t.add_argument("--out-trace", required=True)
    t.add_argument("--out-report")

    c = sub.add_parser("connect", help="connect two colorings through a target")
    c.add_argument("--graph", required=True)
    c.add_argument("--sigma", required=True)
    c.add_argument("--sigma-prime", required=True)
    c.add_argument("--tau", required=True)
    c.add_argument("--work-palette", type=_parse_palette, required=True)
    c.add_argument("--work-palette-prime", type=_parse_palette)
    c.add_argument("--L", type=int)
    c.add_argument("--out-trace", required=True)
    c.add_argument("--out-report")

    v = sub.add_parser("verify", help="verify a trace against a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--start", required=True)
    v.add_argument("--trace", required=True)

    o = sub.add_parser("oracle", help="exhaustive tiny-instance ground truth")
    o.add_argument("--graph", required=True)
    o.add_argument("--q", type=int, required=True)
    o.add_argument("--n", type=int, help="expected vertex count (validated)")
    o.add_argument("--certify-trace")
    o.add_argument("--start")
    o.add_argument("--components-csv")
    o.add_argument("--sample-coloring", action="store_true")
    o.add_argument("--seed", type=int)
    o.add_argument("--out-coloring")

    e = sub.add_parser("experiment", help="seeded statistical campaigns")
    e.add_argument("kind", choices=EXPERIMENT_KINDS)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--d", type=_parse_finite, required=True)
    e.add_argument("--q", type=int)
    e.add_argument("--trials", type=int, default=1)
    e.add_argument("--seed", type=int, required=True)
    e.add_argument("--m", type=int)
    e.add_argument("--subset-samples", type=int, default=10_000)
    e.add_argument("--d-sweep", type=_parse_degree_list)
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--l-override", type=int)
    e.add_argument("--format", choices=["csv", "records"], default="csv")
    e.add_argument("--out", required=True)
    return p


def _resolve_m(args) -> int:
    if args.m is not None:
        return args.m
    if args.d is not None:
        return round(args.d * args.n / 2)
    raise InfeasibleError("one of --m or --d is required")


def _cmd_gen(args) -> int:
    if args.model == "gnm":
        io.write_graph(args.out_graph, gen_gnm(args.n, _resolve_m(args), args.seed))
        return 0
    if args.model == "gnp":
        if args.p is None:
            raise InfeasibleError("--p is required for gnp")
        io.write_graph(args.out_graph, gen_gnp(args.n, args.p, args.seed))
        return 0
    if args.q is None:
        raise InfeasibleError("--q is required for planted")
    inst = gen_planted(args.n, args.q, _resolve_m(args), args.seed,
                       model=args.planted_model)
    io.write_graph(args.out_graph, inst.graph)
    if args.out_partition:
        io.write_partition(args.out_partition, inst.partition)
    if args.out_coloring:
        io.write_coloring(args.out_coloring, inst.sigma)
    return 0


def _cmd_params(args) -> int:
    _check_n(args.n)
    m = _resolve_m(args)
    if args.partition:
        n_q = io.read_partition(args.partition, args.q, n=args.n).cross_pair_count()
    else:
        if args.q < 1:  # before divmod sees it
            raise InfeasibleError("q must be >= 1")
        # the cross pairs of the balanced split arange(n) % q, without building it
        n_q = _comb2(args.n) - min_internal_pairs(args.n, args.q)
    params = derive_params(args.n, m, args.q, n_q)
    lines = [
        ("n", params.n), ("m", params.m), ("q", params.q), ("d", params.d),
        ("n_q", params.n_q), ("d_hat", params.d_hat), ("p_hat", params.p_hat),
        ("l_cutoff", params.l_cutoff), ("k_core_bound", params.k_core_bound),
        # q0, followed by the reason it is undefined when it is
        *([("q0", params.q0)] if params.q0 is not None
          else [("q0", "undefined"), ("q0_note", params.q0_note)]),
        ("contiguity_hypothesis_ok", int(contiguity_hypothesis_ok(params.d, params.q))),
    ]
    for key, value in lines:
        print(f"{key}={value}")
    return 0


def _report_items(report) -> list[tuple[str, object]]:
    params = report.params
    return [
        ("n", params.n), ("m", params.m), ("q", params.q),
        ("rounds", report.rounds),
        ("phase1_colors", report.phase1_colors),
        ("residual_colors", report.residual_colors),
        ("total_colors", report.total_colors),
        ("residual_size", report.residual_size),
        ("residual_degeneracy", report.residual_degeneracy),
        ("residual_fresh_used", ";".join(str(c) for c in report.residual_fresh_used)),
        ("l_used", report.l_used),
        ("d_hat", params.d_hat),
        ("p_hat", params.p_hat),
        ("k_core_bound", params.k_core_bound),
        ("formula_residual_budget", params.formula_residual_budget),
        ("trace_moves", len(report.trace.moves)),
    ]


def _cmd_recolor(args) -> int:
    g = io.read_graph(args.graph)
    part = io.read_partition(args.partition, n=g.n)
    inst = PlantedInstance(graph=g, partition=part)
    report = run_greedy_recolor(inst, palette=args.palette, L=args.L,
                                selector=args.selector,
                                selector_seed=args.selector_seed,
                                strict=args.strict)
    io.write_trace(args.out_trace, report.trace)
    if args.out_report:
        io.write_records(args.out_report, _report_items(report))
    if args.out_trajectory:
        io.write_csv(args.out_trajectory, ["t", "u_t"],
                     ([t, u] for t, u in enumerate(report.trajectory.tolist())))
    return 0


def _cmd_transform(args) -> int:
    g = io.read_graph(args.graph)
    sigma = io.read_coloring(args.sigma, n=g.n)
    tau = io.read_coloring(args.tau, n=g.n)
    if not contiguity_hypothesis_ok(2 * g.m / g.n if g.n else 0.0,
                                    colors_used(sigma)):
        print("warning: degree exceeds the planted-model comparison regime "
              "for this many colors", file=sys.stderr)
    trace, report = transform_with_report(g, sigma, tau, args.work_palette, L=args.L)
    io.write_trace(args.out_trace, trace)
    if args.out_report:
        items = [("moves", len(trace.moves))]
        arith = color_budget_arithmetic(
            args.work_palette, tau, q=max(colors_used(sigma), colors_used(tau)))
        items.extend(sorted(arith.items()))
        if report is not None:
            items.extend(_report_items(report))
        io.write_records(args.out_report, items)
    return 0


def _cmd_connect(args) -> int:
    g = io.read_graph(args.graph)
    sigma = io.read_coloring(args.sigma, n=g.n)
    sigma_prime = io.read_coloring(args.sigma_prime, n=g.n)
    tau = io.read_coloring(args.tau, n=g.n)
    trace = connect_pair(g, sigma, sigma_prime, tau, args.work_palette,
                         args.work_palette_prime, L=args.L)
    io.write_trace(args.out_trace, trace)
    if args.out_report:
        io.write_records(args.out_report, [("moves", len(trace.moves))])
    return 0


def _cmd_verify(args) -> int:
    g = io.read_graph(args.graph)
    start = io.read_coloring(args.start, n=g.n)
    n, _ = io.read_trace_header(args.trace)
    if n != g.n:
        raise FormatError(args.trace, 1, f"trace n={n} does not match graph n={g.n}")
    ok, failure = verify_trace(g, Trace(start=start), moves=io.iter_trace_moves(args.trace))
    if ok:
        print("ok")
        return 0
    print(f"invalid at step {failure.step}: {failure.reason}")
    return 1


def _cmd_oracle(args) -> int:
    from .oracle import certify_trace, enumerate_hq, giant_fraction, sample_uniform_coloring
    g = io.read_graph(args.graph)
    if args.n is not None and args.n != g.n:
        raise FormatError(args.graph, 1, f"graph has n={g.n}, expected {args.n}")
    h = enumerate_hq(g, args.q)
    print(f"Z_q={h.z_q}")
    print(f"components={h.component_count}")
    if h.z_q:
        print(f"giant={giant_fraction(h):.4f}")
    if args.components_csv:
        sizes = h.component_sizes()
        io.write_csv(args.components_csv, ["component_id", "size"],
                     ([i, s] for i, s in enumerate(sizes)))
    if args.sample_coloring:
        if args.seed is None:
            raise InfeasibleError("--seed is required to sample a coloring")
        c = sample_uniform_coloring(g, args.q, args.seed)
        if args.out_coloring:
            io.write_coloring(args.out_coloring, c)
        else:
            print("coloring=" + ",".join(str(x) for x in c.colors.tolist()))
    if args.certify_trace:
        if not args.start:
            raise InfeasibleError("--start is required with --certify-trace")
        start = io.read_coloring(args.start, n=g.n)
        trace = io.read_trace(args.certify_trace, start)
        if certify_trace(h, trace):
            print("certified")
        else:
            print("not certified")
            return 1
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import EXPERIMENTS, ExperimentConfig
    cfg = ExperimentConfig(
        name=args.kind, n=args.n, d=args.d, q=args.q, trials=args.trials,
        seed=args.seed, m=args.m, subset_samples=args.subset_samples,
        d_sweep=tuple(args.d_sweep or ()), jobs=args.jobs,
        l_override=args.l_override)
    report = EXPERIMENTS[args.kind](cfg)
    report.write(args.out, args.format)
    for key, value in report.summary:
        print(f"{key}={value}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "params": _cmd_params,
    "recolor": _cmd_recolor,
    "transform": _cmd_transform,
    "connect": _cmd_connect,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InfeasibleError, PaletteError, FreshColorError, CapError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ColorwalkError, ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never to be read as a failed verification
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
