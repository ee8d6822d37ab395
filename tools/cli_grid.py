"""Run a fixed grid of ``colorwalk`` commands and write a manifest of what
they produced, so two versions of the program can be compared byte for byte.

Usage::

    python tools/cli_grid.py DIR

DIR must not exist yet. Each command runs as ``python -m colorwalk`` with
DIR as its working directory, so messages name files by relative paths.
The package comes from ``PYTHONPATH`` when it is set, and from the ``src``
directory next to this script otherwise. To compare a change with its
parent, run the script once with each version's ``src`` on ``PYTHONPATH``
and diff the two ``DIR/manifest.txt`` files.

The grid covers every subcommand (gen, params, recolor, transform,
connect, verify, oracle and the four experiments, with mis and coupling
also in records form), the generators at the edges of their pair decode
(n = 2, a complete graph, one vertex per planted class, an n beyond
int32), a one-class planted graph with no edges in the p model, a
recolor whose partition file names class 3,000,000 for one of its two
vertices, a recolor whose whole graph is residual on a
3,000-vertex path, a 60x60 grid and a 2,000-vertex band of width 8
numbered along their edges (the band's residual has degeneracy 8, so its
first fit runs nine chained scans), params at d = 2 (below e, where q0
is undefined), a fractional --d-sweep and one whose two degrees share
their integer part, option values out of range (a palette color beyond
int64, an infinite --d, a NaN and an infinite --p), faulty work palettes
for a transform whose start is its target, one malformed file per reader
and fault kind, and files in the plain one-space form up to an unusual
spot: a 19-digit value, no final newline, a bad line after more than one
block of lines, a class index beyond int32, and column files shorter or
longer than the graph. Other line ends: a graph with bare-CR line ends,
a graph whose header ends in a bare CR before a faulty LF line, and the
trace with a bad line after more than one block again with CRLF and with
bare-CR line ends. The manifest has one block per command (its
arguments, exit code, stdout and stderr), then the sha256 of every file
in DIR.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HUGE = "100000000000000000000000"  # beyond int64
DIGITS19 = "1000000000000000000"  # one digit past the longest plain token
LONG = 70_000  # moves, more than one block of CHUNK = 65,536 lines

# small valid files the malformed ones are read against
FIXTURES = {
    "k3.txt": "3 3\n0 1\n0 2\n1 2\n",
    "path.txt": "3 2\n0 1\n1 2\n",
    "path_c.txt": "0\n1\n0\n",
    "path_p.txt": "0\n1\n0\n",
    "path_t.txt": "3 2\n0 2\n2 2\n",
    "path_bad_step.txt": "3 2\n0 2\n1 2\n",
    "k3_c.txt": "0\n1\n2\n",
    "k3_t.txt": "3 2\n0 3\n2 0\n",
    "edge.txt": "2 1\n0 1\n",
    "edge_p_sparse.txt": "0\n3000000\n",
}


def _id_ordered(n: int, edges: list[tuple[int, int]], class_of: list[int]) -> tuple[str, str]:
    """A graph file and a partition file for a graph numbered along its
    edges; ``edges`` are canonical and ascending."""
    return (f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges),
            "".join(f"{c}\n" for c in class_of))


PATH_N, GRID_SIDE, BAND_N, BAND_WIDTH = 3000, 60, 2000, 8
FIXTURES["path3000.txt"], FIXTURES["path3000_p.txt"] = _id_ordered(
    PATH_N, [(i, i + 1) for i in range(PATH_N - 1)], [i % 2 for i in range(PATH_N)])
FIXTURES["grid60.txt"], FIXTURES["grid60_p.txt"] = _id_ordered(
    GRID_SIDE ** 2,
    sorted([(v, v + 1) for v in range(GRID_SIDE ** 2) if (v + 1) % GRID_SIDE]
           + [(v, v + GRID_SIDE) for v in range(GRID_SIDE ** 2 - GRID_SIDE)]),
    [(v // GRID_SIDE + v % GRID_SIDE) % 2 for v in range(GRID_SIDE ** 2)])
FIXTURES["band2000.txt"], FIXTURES["band2000_p.txt"] = _id_ordered(
    BAND_N, [(u, v) for u in range(BAND_N) for v in range(u + 1, min(BAND_N, u + BAND_WIDTH + 1))],
    [v % (BAND_WIDTH + 1) for v in range(BAND_N)])

LONG_THEN_NONINT = f"3 {LONG + 1}\n" + "0 2\n0 0\n" * (LONG // 2) + "0 x\n"

# (name, reader, content): one file per reader and fault kind
MALFORMED = [
    ("empty", "graph", ""),
    ("header-fields", "graph", "3\n"),
    ("header-negative", "graph", "-3 2\n0 1\n1 2\n"),
    ("header-pairs", "graph", "3 4\n0 1\n0 2\n1 2\n"),
    ("header-int32", "graph", "3000000000 0\n"),
    ("fields", "graph", "3 2\n0 1 2\n1 2\n"),
    ("nonint", "graph", "3 2\n0 x\n1 2\n"),
    ("range", "graph", "3 2\n0 1\n2 1\n"),
    ("range-n", "graph", "3 2\n0 1\n1 3\n"),
    ("order", "graph", "3 2\n1 2\n0 1\n"),
    ("duplicate", "graph", "3 2\n0 1\n0 1\n"),
    ("blank", "graph", "3 2\n0 1\n\n1 2\n"),
    ("truncated", "graph", "3 2\n0 1\n"),
    ("trailing", "graph", "3 2\n0 1\n1 2\nextra\n"),
    ("int64", "graph", f"3 2\n0 1\n1 {HUGE}\n"),
    ("negative", "graph", "3 2\n-1 1\n1 2\n"),
    ("two-faults", "graph", "3 2\n1 0\n0 x\n"),
    ("non-utf8", "graph", b"3 2\n0 1\n1 \xff\n"),
    ("tokens", "graph", "+3 \t2\r\n0 0_1\n ١ 2 \n"),
    ("19-digit", "graph", f"3 2\n0 1\n1 {DIGITS19}\n"),
    ("no-final-newline", "graph", "3 2\n0 1\n1 2"),
    ("cr", "graph", "3 2\r0 1\r1 2\r"),
    ("header-cr-then-nonint", "graph", "3 2\r0 1\n1 x\n"),
    ("fields", "coloring", "0\n1 1\n0\n"),
    ("nonint", "coloring", "0\n1.5\n0\n"),
    ("blank", "coloring", "0\n\n1\n0\n"),
    ("int64", "coloring", f"0\n{HUGE}\n0\n"),
    ("negative", "coloring", "0\n-1\n0\n"),
    ("two-negatives", "coloring", "0\n-1\n-5\n"),
    ("negative-then-nonint", "coloring", "0\n-1\nx\n"),
    ("int64-then-nonint", "coloring", f"0\n{HUGE}\nx\n"),
    ("short", "coloring", "0\n1\n"),
    ("empty", "coloring", ""),
    ("long", "coloring", "0\n1\n0\n1\n"),
    ("no-final-newline", "coloring", "0\n1\n0"),
    ("non-utf8", "coloring", b"0\n\xff\n0\n"),
    ("tokens", "coloring", "+0\r\n 0_1\n\t٠\n"),
    ("fields", "partition", "0\n1 1\n0\n"),
    ("nonint", "partition", "0\nx\n0\n"),
    ("blank", "partition", "0\n1\n\n"),
    ("int64", "partition", f"0\n-{HUGE}\n0\n"),
    ("negative", "partition", "0\n-1\n0\n"),
    ("two-negatives", "partition", "0\n-1\n-5\n"),
    ("negative-then-nonint", "partition", "0\n-1\nx\n"),
    ("non-utf8", "partition", b"0\n\xff\n0\n"),
    ("int32", "partition", "0\n4294967297\n0\n"),
    ("short", "partition", "0\n1\n"),
    ("empty", "partition", ""),
    ("long", "partition", "0\n1\n0\n1\n"),
    ("empty", "trace", ""),
    ("header-negative", "trace", "3 -1\n"),
    ("header-other-n", "trace", "5 1\n0 2\n"),
    ("fields", "trace", "3 2\n0 2\n2\n"),
    ("nonint", "trace", "3 2\n0 2\n2 x\n"),
    ("range", "trace", "3 2\n0 2\n3 1\n"),
    ("blank", "trace", "3 2\n0 2\n\n2 1\n"),
    ("truncated", "trace", "3 2\n0 2\n"),
    ("trailing", "trace", "3 2\n0 2\n2 1\n0 1\n"),
    ("int64", "trace", f"3 2\n0 2\n2 {HUGE}\n"),
    ("int64-vertex", "trace", f"3 2\n0 2\n{HUGE} 1\n"),
    ("negative", "trace", "3 2\n0 2\n2 -1\n"),
    ("step-then-nonint", "trace", "3 3\n0 1\n2 x\n2 1\n"),
    ("nonint-then-step", "trace", "3 3\n0 2\nx 1\n0 1\n"),
    ("non-utf8", "trace", b"3 2\n0 2\n2 \xff\n"),
    ("tokens", "trace", "3 2\r\n+0\t2\n ٢ 0_2 \n"),
    ("19-digit", "trace", f"3 2\n0 2\n2 {DIGITS19}\n"),
    ("long-then-nonint", "trace", LONG_THEN_NONINT),
    ("long-then-nonint-crlf", "trace", LONG_THEN_NONINT.replace("\n", "\r\n")),
    ("long-then-nonint-cr", "trace", LONG_THEN_NONINT.replace("\n", "\r")),
]


def reader_commands(name: str, reader: str, path: str) -> list[tuple[str, list[str]]]:
    """The commands that read ``path`` through ``reader``."""
    verify = {"graph": ["--graph", path, "--start", "path_c.txt", "--trace", "path_t.txt"],
              "coloring": ["--graph", "path.txt", "--start", path, "--trace", "path_t.txt"],
              "trace": ["--graph", "path.txt", "--start", "path_c.txt", "--trace", path]}
    tag = f"{reader}-{name}"
    if reader == "partition":
        return [(f"params-{tag}", ["params", "--n", "3", "--m", "2", "--q", "2",
                                   "--partition", path]),
                (f"recolor-{tag}", ["recolor", "--graph", "path.txt", "--partition", path,
                                    "--out-trace", f"out-{tag}.txt"])]
    commands = [(f"verify-{tag}", ["verify", *verify[reader]])]
    if reader == "trace":  # read_trace, not the stream
        commands.append((f"certify-{tag}", ["oracle", "--graph", "path.txt", "--q", "3",
                                            "--certify-trace", path, "--start", "path_c.txt"]))
    if reader == "graph":
        commands.append((f"oracle-{tag}", ["oracle", "--graph", path, "--q", "3"]))
    if reader == "coloring":
        commands.append((f"transform-{tag}", ["transform", "--graph", "path.txt",
                                              "--sigma", path, "--tau", "path_c.txt",
                                              "--work-palette", "2,3",
                                              "--out-trace", f"out-{tag}.txt"]))
    return commands


def shifted(src: Path, dst: Path, by: int, q: int) -> None:
    """A coloring file whose colors are those of ``src`` plus ``by`` mod q."""
    dst.write_text("".join(f"{(int(x) + by) % q}\n" for x in src.read_text().split()))


def pipeline(work: Path) -> list:
    """The valid commands, in order; a callable entry writes derived files."""
    planted = ["--n", "300", "--q", "5", "--d", "8"]
    return [
        ("gen-gnm", ["gen", "gnm", "--n", "200", "--m", "500", "--seed", "1",
                     "--out-graph", "gnm.txt"]),
        ("gen-gnp", ["gen", "gnp", "--n", "200", "--p", "0.02", "--seed", "2",
                     "--out-graph", "gnp.txt"]),
        ("gen-planted-m", ["gen", "planted", *planted, "--seed", "3", "--out-graph", "g.txt",
                           "--out-partition", "p.txt", "--out-coloring", "c.txt"]),
        ("gen-planted-p", ["gen", "planted", *planted, "--seed", "4", "--planted-model", "p",
                           "--out-graph", "gp.txt", "--out-partition", "pp.txt",
                           "--out-coloring", "cp.txt"]),
        ("gen-gnm-n2", ["gen", "gnm", "--n", "2", "--m", "1", "--seed", "5",
                        "--out-graph", "gnm_n2.txt"]),
        ("gen-gnm-complete", ["gen", "gnm", "--n", "3", "--m", "3", "--seed", "6",
                              "--out-graph", "gnm_k3.txt"]),
        ("gen-planted-q-is-n", ["gen", "planted", "--n", "8", "--q", "8", "--m", "20",
                                "--seed", "7", "--out-graph", "g_qn.txt",
                                "--out-partition", "p_qn.txt", "--out-coloring", "c_qn.txt"]),
        ("gen-planted-p-one-class-no-edges", ["gen", "planted", "--n", "5", "--q", "1",
                                              "--m", "0", "--seed", "7", "--planted-model", "p",
                                              "--out-graph", "gp_q1.txt"]),
        ("gen-n-beyond-int32", ["gen", "gnm", "--n", "2147483648", "--m", "1", "--seed", "8",
                                "--out-graph", "gnm_huge.txt"]),
        ("gen-d-inf", ["gen", "gnm", "--n", "10", "--d", "inf", "--seed", "9",
                       "--out-graph", "gnm_inf.txt"]),
        *[(f"gen-gnp-p-{value}", ["gen", "gnp", "--n", "10", "--p", value, "--seed", "10",
                                  "--out-graph", f"gnp_{value}.txt"])
          for value in ("nan", "inf")],
        lambda: (shifted(work / "c.txt", work / "tau.txt", 1, 5),
                 shifted(work / "c.txt", work / "c2.txt", 2, 5)),
        ("params", ["params", *planted]),
        ("params-partition", ["params", *planted, "--partition", "p.txt"]),
        ("params-d2", ["params", "--n", "30000", "--q", "3", "--d", "2"]),
        ("params-d-inf", ["params", "--n", "10", "--q", "3", "--d", "inf"]),
        ("recolor-lowest", ["recolor", "--graph", "g.txt", "--partition", "p.txt",
                            "--out-trace", "t.txt", "--out-report", "r.txt",
                            "--out-trajectory", "traj.csv"]),
        ("recolor-random", ["recolor", "--graph", "g.txt", "--partition", "p.txt",
                            "--selector", "random", "--selector-seed", "5",
                            "--out-trace", "t_random.txt", "--out-report", "r_random.txt"]),
        ("recolor-degree-L", ["recolor", "--graph", "gp.txt", "--partition", "pp.txt",
                              "--selector", "highest_degree", "--L", "2", "--strict",
                              "--out-trace", "t_degree.txt", "--out-report", "r_degree.txt"]),
        ("recolor-palette", ["recolor", "--graph", "g.txt", "--partition", "p.txt",
                             "--palette", "0,1,2,3,4,5,6,7,8,9", "--out-trace", "t_pal.txt"]),
        ("recolor-sparse-class", ["recolor", "--graph", "edge.txt",
                                  "--partition", "edge_p_sparse.txt", "--L", "0",
                                  "--out-trace", "t_sparse.txt", "--out-report", "r_sparse.txt"]),
        ("recolor-path-all-residual", ["recolor", "--graph", "path3000.txt",
                                       "--partition", "path3000_p.txt", "--L", str(PATH_N),
                                       "--strict", "--out-trace", "t_path3000.txt",
                                       "--out-report", "r_path3000.txt"]),
        ("recolor-grid-all-residual", ["recolor", "--graph", "grid60.txt",
                                       "--partition", "grid60_p.txt",
                                       "--L", str(GRID_SIDE ** 2), "--strict",
                                       "--out-trace", "t_grid60.txt",
                                       "--out-report", "r_grid60.txt"]),
        ("recolor-band-all-residual", ["recolor", "--graph", "band2000.txt",
                                       "--partition", "band2000_p.txt", "--L", str(BAND_N),
                                       "--strict", "--out-trace", "t_band2000.txt",
                                       "--out-report", "r_band2000.txt"]),
        ("recolor-exhausted", ["recolor", "--graph", "g.txt", "--partition", "p.txt",
                               "--palette", "0,1", "--out-trace", "t_exhausted.txt"]),
        ("recolor-palette-beyond-int64", ["recolor", "--graph", "g.txt", "--partition", "p.txt",
                                          "--palette", f"5,{HUGE}",
                                          "--out-trace", "t_huge.txt"]),
        ("verify-recolor", ["verify", "--graph", "g.txt", "--start", "c.txt",
                            "--trace", "t.txt"]),
        ("verify-recolor-other-start", ["verify", "--graph", "g.txt", "--start", "tau.txt",
                                        "--trace", "t.txt"]),
        ("transform", ["transform", "--graph", "g.txt", "--sigma", "c.txt", "--tau", "tau.txt",
                       "--work-palette", "5,6,7,8,9,10,11,12", "--out-trace", "tt.txt",
                       "--out-report", "tr.txt"]),
        ("verify-transform", ["verify", "--graph", "g.txt", "--start", "c.txt",
                              "--trace", "tt.txt"]),
        ("transform-low-palette", ["transform", "--graph", "g.txt", "--sigma", "c.txt",
                                   "--tau", "tau.txt", "--work-palette", "1,0",
                                   "--out-trace", "tt_low.txt"]),
        ("transform-work-palette-beyond-int64", ["transform", "--graph", "g.txt",
                                                 "--sigma", "c.txt", "--tau", "tau.txt",
                                                 "--work-palette", f"5,6,7,8,9,10,11,{HUGE}",
                                                 "--out-trace", "tt_huge.txt"]),
        *[(f"transform-same-{tag}-palette", ["transform", "--graph", "g.txt", "--sigma", "c.txt",
                                             "--tau", "c.txt", "--work-palette", pal,
                                             "--out-trace", f"tt_same_{tag}.txt"])
          for tag, pal in [("repeated", "5,5"), ("negative", "5,-4,6"), ("overlap", "0,1")]],
        ("connect", ["connect", "--graph", "g.txt", "--sigma", "c.txt",
                     "--sigma-prime", "c2.txt", "--tau", "tau.txt",
                     "--work-palette", "5,6,7,8,9,10,11,12", "--out-trace", "tc.txt",
                     "--out-report", "tcr.txt"]),
        ("verify-connect", ["verify", "--graph", "g.txt", "--start", "c.txt",
                            "--trace", "tc.txt"]),
        ("verify-path", ["verify", "--graph", "path.txt", "--start", "path_c.txt",
                         "--trace", "path_t.txt"]),
        ("verify-path-bad-step", ["verify", "--graph", "path.txt", "--start", "path_c.txt",
                                  "--trace", "path_bad_step.txt"]),
        ("oracle-k3", ["oracle", "--graph", "k3.txt", "--q", "3", "--n", "3",
                       "--components-csv", "k3_comp.csv"]),
        ("oracle-k3-wrong-n", ["oracle", "--graph", "k3.txt", "--q", "3", "--n", "4"]),
        ("oracle-sample", ["oracle", "--graph", "k3.txt", "--q", "4", "--sample-coloring",
                           "--seed", "1", "--out-coloring", "k3_sample.txt"]),
        ("oracle-certify", ["oracle", "--graph", "k3.txt", "--q", "4",
                            "--certify-trace", "k3_t.txt", "--start", "k3_c.txt"]),
        ("experiment-mis", ["experiment", "mis", "--n", "200", "--d", "5", "--trials", "2",
                            "--seed", "1", "--out", "e_mis.csv"]),
        ("experiment-mis-records", ["experiment", "mis", "--n", "200", "--d", "5",
                                    "--trials", "2", "--seed", "1", "--format", "records",
                                    "--out", "e_mis.txt"]),
        ("experiment-density", ["experiment", "density", "--n", "60", "--d", "3", "--q", "3",
                                "--trials", "2", "--seed", "1", "--subset-samples", "50",
                                "--out", "e_density.csv"]),
        ("experiment-coupling", ["experiment", "coupling", "--n", "300", "--d", "8",
                                 "--q", "5", "--trials", "2", "--seed", "1",
                                 "--format", "records", "--out", "e_coupling.txt"]),
        ("experiment-scaling", ["experiment", "scaling", "--n", "300", "--d", "6",
                                "--d-sweep", "4,6", "--seed", "1", "--out", "e_scaling.csv"]),
        ("experiment-scaling-fractional-sweep", ["experiment", "scaling", "--n", "200",
                                                 "--d", "6", "--d-sweep", "4.5,6",
                                                 "--seed", "1", "--out", "e_scaling_frac.csv"]),
        ("experiment-scaling-same-integer-part", ["experiment", "scaling", "--n", "200",
                                                  "--d", "6", "--d-sweep", "5.1,5.6",
                                                  "--seed", "1",
                                                  "--out", "e_scaling_same_int.csv"]),
        ("experiment-scaling-q-beyond-n", ["experiment", "scaling", "--n", "200", "--d", "1.01",
                                           "--seed", "1", "--out", "e_scaling_low.csv"]),
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/cli_grid.py DIR", file=sys.stderr)
        return 2
    work = Path(argv[0])
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
    for name, text in FIXTURES.items():
        (work / name).write_text(text)
    commands = pipeline(work)
    for name, reader, content in MALFORMED:
        path = f"bad-{reader}-{name}.txt"
        data = content if isinstance(content, bytes) else content.encode()
        (work / path).write_bytes(data)
        commands.extend(reader_commands(name, reader, path))
    blocks = []
    for entry in commands:
        if callable(entry):
            entry()
            continue
        name, args = entry
        proc = subprocess.run([sys.executable, "-m", "colorwalk", *args], cwd=work, env=env,
                              capture_output=True, text=True)
        blocks.append(f"## {name}\nargs: {' '.join(args)}\nexit: {proc.returncode}\n"
                      f"stdout: {proc.stdout!r}\nstderr: {proc.stderr!r}\n")
    files = sorted(p for p in work.iterdir() if p.is_file())
    blocks.append("## files\n" + "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in files))
    (work / "manifest.txt").write_text("\n".join(blocks))
    print(f"{len(blocks) - 1} commands, {len(files)} files: {work / 'manifest.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
