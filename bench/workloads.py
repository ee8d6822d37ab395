"""Workload definitions and the checks every workload's outputs must pass.

Every workload runs the same walk: generate a planted instance (sigma is
the planted colouring), recolor sigma, verify that trace, transform sigma
into tau = (sigma + 1) mod q, and verify that walk. The work palette is
the block q .. 2q+7, disjoint from the colours of sigma and tau.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checker import (Adjacency, Walk, check_planted, corrupt, degeneracy, parse_ints,
                     read_graph_file, read_report_file, read_trace_file,
                     replay)

# gen, recolor, verify, transform, verify
STEPS_PER_ITERATION = 5


class StepFailed(Exception):
    """A pipeline step ran but reported failure (nonzero exit, rejected walk)."""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: float
    q: int
    library: bool  # False: the colorwalk command, run on text files

    @property
    def m(self) -> int:
        return round(self.d * self.n / 2)

    @property
    def work_palette(self) -> list[int]:
        return list(range(self.q, 2 * self.q + 8))


WORKLOADS = {w.name: w for w in (
    Workload("dense-planted", n=100_000, d=50, q=30, library=True),
    Workload("sparse-residual", n=100_000, d=2, q=3, library=True),
    Workload("cli-files", n=50_000, d=20, q=15, library=False),
)}

# layer spans that must record calls on every workload of a kind
LIBRARY_SPANS = ("graphs.gen_planted", "graphs.induced_subgraph",
                 "graphs.degeneracy_order", "greedy.recolor", "residual.recolor",
                 "transform.total", "coloring.verify")
CLI_SPANS = LIBRARY_SPANS + ("io.read_graph", "io.read_coloring",
                             "io.write_graph", "io.write_trace")


UNLIKE_FIRST = ("outputs differ from those of the run's first iteration, "
                "which passed every check")


def digest(*parts) -> str:
    """sha256 over arrays and byte strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def target_of(sigma: np.ndarray, q: int) -> np.ndarray:
    """tau: sigma's colours shifted cyclically; proper whenever sigma is,
    and different from sigma at every vertex."""
    return (sigma + 1) % q


def check_outputs(w: Workload, eu, ev, class_of, sigma, recolor, report: dict,
                  walk) -> tuple[list[str], Adjacency, dict[str, Walk]]:
    """Independent checks of one iteration's outputs.

    recolor and walk are (vertices, colours) move arrays; report holds the
    recolor run's total_colors, rounds, residual_colors and
    residual_degeneracy. Returns the problems found plus the adjacency and
    walks, for the negative control.
    """
    eu, ev = np.asarray(eu, np.int64), np.asarray(ev, np.int64)
    sigma = np.asarray(sigma, np.int64)
    problems = check_planted(w.n, w.m, eu, ev, np.asarray(class_of, np.int64))
    if not np.array_equal(sigma, class_of):
        problems.append("sigma is not the planted class assignment")
    adj = Adjacency(w.n, eu, ev)
    walks = {"recolor": Walk(sigma, *recolor), "walk": Walk(sigma, *walk)}

    end, problem = replay(adj, walks["recolor"])
    if problem:
        problems.append(f"recolor trace: {problem}")
    else:
        used = int(np.unique(end).shape[0])
        if used != report["total_colors"]:
            problems.append(f"recolor endpoint uses {used} colours, "
                            f"report says total_colors={report['total_colors']}")
        # identity palette: round r uses colour r < q, fresh colours are >= q
        residual = end >= w.q
        fresh = int(np.unique(end[residual]).shape[0])
        degen = degeneracy(adj, residual)
        if (fresh, degen) != (report["residual_colors"], report["residual_degeneracy"]):
            problems.append(f"residual uses {fresh} fresh colours at degeneracy {degen}, "
                            f"report says {report['residual_colors']} at "
                            f"{report['residual_degeneracy']}")
        if fresh > degen + 1:
            problems.append(f"residual used {fresh} fresh colours, degeneracy {degen} "
                            f"allows at most {degen + 1}")
    if report["rounds"] + report["residual_colors"] != report["total_colors"]:
        problems.append("rounds + residual_colors != total_colors")

    end, problem = replay(adj, walks["walk"])
    if problem:
        problems.append(f"sigma->tau walk: {problem}")
    elif not np.array_equal(end, target_of(sigma, w.q)):
        problems.append("sigma->tau walk does not end at tau")
    if len(walks["walk"]) > 2 * w.n:
        problems.append(f"sigma->tau walk has {len(walks['walk'])} moves, more than 2n")
    return problems, adj, walks


def negative_control(adj, walks, verify, map_=map) -> list[str]:
    """verify(name, walk, j, bad_colours) -> (rejected, detail); every
    corrupted walk must be rejected exactly at its corrupted step j.
    ``map_`` may run the verifications concurrently."""
    cases = [(name, walk, *corrupt(adj, walk)) for name, walk in walks.items()]
    problems = []
    for (name, _, j, _), (rejected, detail) in zip(cases, map_(lambda c: verify(*c), cases)):
        if not rejected:
            problems.append(f"negative control: {name} with move {j} corrupted "
                            f"was not rejected at step {j} ({detail})")
    return problems


# -- the colorwalk command pipeline, through text files -----------------------

WALK_COMMANDS = ("recolor", "verify_recolor", "transform", "verify_walk")
# the command pipeline's output files, all but tau, which the benchmark writes
CLI_OUTPUTS = ("graph.txt", "partition.txt", "sigma.txt", "recolor-trace.txt",
               "recolor-report.txt", "walk-trace.txt", "walk-report.txt")


def cli_commands(w: Workload, seed: int, d: Path) -> dict[str, list[str]]:
    """argv (after ``colorwalk``) of each pipeline command, in order."""
    f = {k: str(d / v) for k, v in (
        ("graph", "graph.txt"), ("partition", "partition.txt"),
        ("sigma", "sigma.txt"), ("tau", "tau.txt"),
        ("recolor", "recolor-trace.txt"), ("recolor_report", "recolor-report.txt"),
        ("walk", "walk-trace.txt"), ("walk_report", "walk-report.txt"))}
    return {
        "gen": ["gen", "planted", "--n", str(w.n), "--q", str(w.q), "--m", str(w.m),
                "--seed", str(seed), "--out-graph", f["graph"],
                "--out-partition", f["partition"], "--out-coloring", f["sigma"]],
        "recolor": ["recolor", "--graph", f["graph"], "--partition", f["partition"],
                    "--out-trace", f["recolor"], "--out-report", f["recolor_report"]],
        "verify_recolor": ["verify", "--graph", f["graph"], "--start", f["sigma"],
                           "--trace", f["recolor"]],
        "transform": ["transform", "--graph", f["graph"], "--sigma", f["sigma"],
                      "--tau", f["tau"],
                      "--work-palette", ",".join(map(str, w.work_palette)),
                      "--out-trace", f["walk"], "--out-report", f["walk_report"]],
        "verify_walk": ["verify", "--graph", f["graph"], "--start", f["sigma"],
                        "--trace", f["walk"]],
    }


def write_target(w: Workload, d: Path) -> None:
    sigma = parse_ints(d / "sigma.txt")
    np.savetxt(d / "tau.txt", target_of(sigma, w.q), fmt="%d")


def check_cli_files(w: Workload, d: Path
                    ) -> tuple[list[str], Adjacency, dict[str, Walk], dict]:
    """check_outputs on the parsed text files; also returns the recolor report."""
    n, eu, ev = read_graph_file(d / "graph.txt")
    problems = [] if n == w.n else [f"graph file has n={n}, expected {w.n}"]
    traces = {}
    for name, file in (("recolor", "recolor-trace.txt"), ("walk", "walk-trace.txt")):
        tn, mv_v, mv_c = read_trace_file(d / file)
        if tn != n:
            problems.append(f"{file} header has n={tn}, graph has n={n}")
        traces[name] = (mv_v, mv_c)
    raw = read_report_file(d / "recolor-report.txt")
    report = {k: int(raw[k]) for k in ("total_colors", "rounds", "residual_colors",
                                       "residual_degeneracy")}
    more, adj, walks = check_outputs(
        w, eu, ev, parse_ints(d / "partition.txt"), parse_ints(d / "sigma.txt"),
        traces["recolor"], report, traces["walk"])
    return problems + more, adj, walks, report
