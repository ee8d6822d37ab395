"""colorwalk benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a colorwalk checkout; the program is imported from
its ``src/``. The run repeats whole iterations of the walk pipeline
(gen, recolor, verify, transform, verify) for about S seconds: an
iteration starts only when one as long as the last would end in time.
It checks the first complete iteration's outputs independently, requires
every later iteration to reproduce them exactly, and prints one JSON
object as its last line: correct, attempted and failed pipeline steps,
and the medians over iterations of the end-to-end metrics (--trace 0)
or of the per-layer metrics (--trace 1) named in BENCHMARK.json. See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from checker import read_report_file, write_trace_file
from workloads import (CLI_OUTPUTS, STEPS_PER_ITERATION, UNLIKE_FIRST, WALK_COMMANDS,
                       WORKLOADS, StepFailed, check_cli_files, cli_commands, digest,
                       negative_control, write_target)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
# every child is killed by then, so the run ends within 180 s
HARD_LIMIT_S = 165.0


class Runner:
    """Starts children with colorwalk on the path and a common deadline."""

    def __init__(self, started: float):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = started + HARD_LIMIT_S

    def run(self, argv: list[str]) -> tuple[int, str, float]:
        """(exit code, stdout, wall seconds) of a child run from the root."""
        t0 = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=max(1.0, self.deadline - t0))
        wall = time.monotonic() - t0
        sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout, wall

    def colorwalk(self, argv: list[str]) -> tuple[int, str, float]:
        return self.run([sys.executable, "-m", "colorwalk", *argv])

    def worker(self, *args: str) -> dict:
        """One bench/worker.py iteration; a crashed worker fails every step."""
        t0 = time.monotonic()
        try:
            code, out, _ = self.run([sys.executable, str(BENCH / "worker.py"),
                                     "--t0", repr(t0), *args])
        except subprocess.TimeoutExpired:
            code, out = "timeout", ""
        if code != 0 or not out.strip():
            print(f"worker failed: {code}", file=sys.stderr)
            return {"attempted": STEPS_PER_ITERATION, "failed": STEPS_PER_ITERATION,
                    "problems": []}
        return json.loads(out.strip().splitlines()[-1])


def cli_iteration(r: Runner, w, seed: int, d: Path, traced: bool,
                  expect: str | None) -> dict:
    """The colorwalk command pipeline, one child process per command.
    ``expect`` as for the worker's library iterations."""
    cmds = cli_commands(w, seed, d)
    walls: dict[str, float] = {}
    done = 0
    try:
        for name in ("gen",) + WALK_COMMANDS:
            if name == WALK_COMMANDS[0]:
                write_target(w, d)
            code, out, walls[name] = r.colorwalk(cmds[name])
            if code != 0 or (name.startswith("verify") and out != "ok\n"):
                raise StepFailed(f"colorwalk {name} exited {code}: {out!r}")
            done += 1
    except (StepFailed, subprocess.TimeoutExpired) as exc:
        print(f"failed step: {exc}", file=sys.stderr)
    out = {"attempted": STEPS_PER_ITERATION, "failed": STEPS_PER_ITERATION - done,
           "problems": []}
    if done < STEPS_PER_ITERATION:
        return out
    out["digest"] = digest(*((d / f).read_bytes() for f in CLI_OUTPUTS))
    if expect is not None:
        out["problems"] = [] if out["digest"] == expect else [UNLIKE_FIRST]
    else:
        check_t0 = time.monotonic()
        problems, adj, walks, _ = check_cli_files(w, d)

        def verify(name, walk, j, bad):
            path = d / f"corrupt-{name}.txt"
            write_trace_file(path, w.n, walk.mv_v, bad)
            code, text, _ = r.colorwalk(["verify", "--graph", str(d / "graph.txt"),
                                         "--start", str(d / "sigma.txt"),
                                         "--trace", str(path)])
            return code == 1 and text.startswith(f"invalid at step {j}: "), (code, text)
        # outside the timed region, so both corrupted walks check at once
        with ThreadPoolExecutor(len(walks)) as pool:
            out["problems"] = problems + negative_control(adj, walks, verify, pool.map)
        out["check_s"] = time.monotonic() - check_t0
    report = read_report_file(d / "recolor-report.txt")
    with open(d / "walk-trace.txt") as f:
        walk_moves = int(f.readline().split()[1])
    out["e2e"] = {
        "setup_s": walls["gen"],
        "walk_s": sum(walls[name] for name in WALK_COMMANDS),
        # largest child so far; every iteration runs the same commands
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "colors_used": int(report["total_colors"]),
        "walk_moves": walk_moves,
    }
    if traced:
        code, _, startup = r.colorwalk(["--help"])
        if code != 0:
            out["problems"].append(f"colorwalk --help exited {code}")
        traced_dir = d / "traced"
        traced_dir.mkdir(exist_ok=True)
        inner = r.worker("--workload", w.name, "--seed", str(seed),
                         "--cli-traced", str(traced_dir))
        out["attempted"] += inner["attempted"]
        out["failed"] += inner["failed"]
        out["problems"] += inner["problems"]
        out["layers"] = dict(inner.get("layers", {}), **{
            "cli.startup_s": startup, "cli.gen_s": walls["gen"],
            "cli.recolor_s": walls["recolor"],
            "cli.verify_s": walls["verify_recolor"] + walls["verify_walk"],
            "cli.transform_s": walls["transform"]})
    return out


def library_iteration(r: Runner, w, seed: int, _d: Path, traced: bool,
                      expect: str | None) -> dict:
    """One bench/worker.py process: set-up and walk in the library."""
    out = r.worker("--workload", w.name, "--seed", str(seed), "--trace", str(int(traced)),
                   *(["--expect", expect] if expect else []))
    if traced and "layers" in out:
        out["layers"].update(dict.fromkeys(
            ("cli.startup_s", "cli.gen_s", "cli.recolor_s", "cli.verify_s",
             "cli.transform_s"), 0.0))
    return out


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "colorwalk" / "__init__.py").is_file():
        print(f"error: no colorwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    key = "layers" if args.trace else "e2e"
    w = WORKLOADS[args.workload]
    workdir = BENCH / "work" / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(started)

    # the first complete iteration gets every check; later ones must match it.
    # An iteration starts only if one as long as the last, without the checks
    # that only the first makes, ends by the deadline, so a run lasts about
    # --seconds whatever the workload's iteration length.
    results, expect, last = [], None, 0.0
    deadline = started + args.seconds
    while not results or time.monotonic() + last <= deadline:
        iteration = library_iteration if w.library else cli_iteration
        t0 = time.monotonic()
        res = iteration(runner, w, args.seed, workdir, bool(args.trace), expect)
        last = time.monotonic() - t0 - res.get("check_s", 0.0)
        expect = expect or res.get("digest")
        results.append(res)
        print(f"iteration {len(results)}: " + json.dumps(res.get(key)), file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run's files are still there
        pass

    problems = [p for res in results for p in res["problems"]]
    complete = [res[key] for res in results if key in res]
    metrics = {}
    for m in wanted:
        values = [c[m["name"]] for c in complete if m["name"] in c]
        if len(values) != len(complete) or not values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{len(results)} iterations, {len(complete)} complete", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(res["attempted"] for res in results),
                      "failed": sum(res["failed"] for res in results),
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
