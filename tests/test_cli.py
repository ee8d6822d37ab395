import hashlib
import os
import subprocess
import sys
import tracemalloc

import pytest

from colorwalk import cli, verify_trace
from colorwalk import io as cwio
from colorwalk.cli import main

HUGE = "100000000000000000000000"  # beyond int64


def run_cli(args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "colorwalk", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def write_k3_files(tmp_path):
    g = tmp_path / "k3.txt"
    g.write_text("3 3\n0 1\n0 2\n1 2\n")
    return g


class TestGenAndVerifyPipeline:
    def test_gen_recolor_verify_round_trip(self, tmp_path):
        code = main(["gen", "planted", "--n", "60", "--q", "4", "--m", "120",
                     "--seed", "5",
                     "--out-graph", str(tmp_path / "g.txt"),
                     "--out-partition", str(tmp_path / "p.txt"),
                     "--out-coloring", str(tmp_path / "c.txt")])
        assert code == 0
        code = main(["recolor", "--graph", str(tmp_path / "g.txt"),
                     "--partition", str(tmp_path / "p.txt"),
                     "--out-trace", str(tmp_path / "t.txt"),
                     "--out-report", str(tmp_path / "r.txt"),
                     "--out-trajectory", str(tmp_path / "traj.csv")])
        assert code == 0
        code = main(["verify", "--graph", str(tmp_path / "g.txt"),
                     "--start", str(tmp_path / "c.txt"),
                     "--trace", str(tmp_path / "t.txt")])
        assert code == 0
        report = (tmp_path / "r.txt").read_text()
        assert "total_colors=" in report and "residual_size=" in report
        traj = (tmp_path / "traj.csv").read_text().splitlines()
        assert traj[0] == "t,u_t" and traj[1] == "0,60"

    @pytest.mark.parametrize("extra", [[], ["--L", "0"]], ids=["residual", "rounds"])
    def test_recolor_largest_class_index(self, tmp_path, extra):
        # q = 2**31 with two classes present: nothing is built or walked per class
        (tmp_path / "g.txt").write_text("2 1\n0 1\n")
        (tmp_path / "p.txt").write_text("0\n2147483647\n")
        assert main(["recolor", "--graph", str(tmp_path / "g.txt"),
                     "--partition", str(tmp_path / "p.txt"),
                     "--out-trace", str(tmp_path / "t.txt"), *extra]) == 0
        start = cwio.read_coloring(str(tmp_path / "p.txt"))
        ok, failure = verify_trace(cwio.read_graph(str(tmp_path / "g.txt")),
                                   cwio.read_trace(str(tmp_path / "t.txt"), start))
        assert ok, failure

    def test_round_trip_hundred_seeds(self, tmp_path):
        # 100 seeded parameter sets; each gen -> recolor -> verify closes cleanly
        combos = [(n, q, d) for n in (30, 60, 90) for q in (3, 5) for d in (2, 6)]
        combos = combos * 3  # cycled; the loop stops at 100 round trips
        count = 0
        for i, (n, q, d) in enumerate(combos):
            for seed in range(4):
                tag = f"{i}_{seed}"
                m = n * d // 2
                assert main(list(map(str, ["gen", "planted", "--n", n, "--q", q,
                                           "--m", m, "--seed", 100 + 17 * i + seed,
                                           "--out-graph", tmp_path / f"g{tag}",
                                           "--out-partition", tmp_path / f"p{tag}",
                                           "--out-coloring", tmp_path / f"c{tag}"]))
                            ) == 0
                assert main(["recolor", "--graph", str(tmp_path / f"g{tag}"),
                             "--partition", str(tmp_path / f"p{tag}"),
                             "--out-trace", str(tmp_path / f"t{tag}")]) == 0
                assert main(["verify", "--graph", str(tmp_path / f"g{tag}"),
                             "--start", str(tmp_path / f"c{tag}"),
                             "--trace", str(tmp_path / f"t{tag}")]) == 0
                count += 1
                if count == 100:
                    return
        assert count == 100

    def test_corrupted_trace_exits_one(self, tmp_path, capsys):
        assert main(["gen", "planted", "--n", "40", "--q", "4", "--m", "80",
                     "--seed", "3",
                     "--out-graph", str(tmp_path / "g.txt"),
                     "--out-partition", str(tmp_path / "p.txt"),
                     "--out-coloring", str(tmp_path / "c.txt")]) == 0
        assert main(["recolor", "--graph", str(tmp_path / "g.txt"),
                     "--partition", str(tmp_path / "p.txt"),
                     "--out-trace", str(tmp_path / "t.txt")]) == 0
        # flip one move's color to its vertex's neighbor color
        g = cwio.read_graph(str(tmp_path / "g.txt"))
        start = cwio.read_coloring(str(tmp_path / "c.txt"))
        trace = cwio.read_trace(str(tmp_path / "t.txt"), start)
        assert len(trace.moves), "need a nonempty trace to corrupt"
        v, _ = trace.moves[-1]
        colors = start.colors.copy()
        for vv, cc in trace.moves[:-1]:
            colors[vv] = cc
        nbr = g.neighbors(v)[0]
        from colorwalk import Move
        trace.moves[-1] = Move(v, int(colors[nbr]))
        cwio.write_trace(str(tmp_path / "bad.txt"), trace)
        code = main(["verify", "--graph", str(tmp_path / "g.txt"),
                     "--start", str(tmp_path / "c.txt"),
                     "--trace", str(tmp_path / "bad.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert "invalid at step" in captured.out

    @pytest.mark.parametrize("lines, code, out, err", [
        ("0 1\n2 2\n1 x\n0 2\n", 1, "invalid at step 0: monochromatic edge created\n", ""),
        ("0 2\n1 x\n0 1\n0 2\n", 2, "", "error: {trace}:3: non-integer field in '1 x\\n'\n"),
        ("0 2\n1 2 3\n2 1\n2 0\n", 2, "", "error: {trace}:3: expected 2 fields, found 3\n"),
    ], ids=["invalid-step-first", "malformed-line-first", "wrong-field-count-first"])
    def test_streaming_order(self, tmp_path, capsys, lines, code, out, err):
        # verify reads the trace in chunks, yet reports what comes first in
        # the file: an invalid step before a malformed line, or the reverse
        (tmp_path / "g.txt").write_text("3 2\n0 1\n1 2\n")
        (tmp_path / "c.txt").write_text("0\n1\n0\n")
        (tmp_path / "t.txt").write_text("3 4\n" + lines)
        assert main(["verify", "--graph", str(tmp_path / "g.txt"),
                     "--start", str(tmp_path / "c.txt"),
                     "--trace", str(tmp_path / "t.txt")]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err.format(trace=tmp_path / "t.txt"))


class TestOracleCommand:
    def test_k3_fixture_output(self, tmp_path, capsys):
        g = write_k3_files(tmp_path)
        code = main(["oracle", "--graph", str(g), "--q", "3", "--n", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Z_q=6" in out
        assert "components=6" in out
        assert "giant=0.1667" in out

    def test_components_csv(self, tmp_path):
        g = write_k3_files(tmp_path)
        out = tmp_path / "comp.csv"
        assert main(["oracle", "--graph", str(g), "--q", "3",
                     "--components-csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "component_id,size"
        assert len(lines) == 7

    def test_certify_round_trip(self, tmp_path, capsys):
        g = write_k3_files(tmp_path)
        (tmp_path / "start.txt").write_text("0\n1\n2\n")
        (tmp_path / "walk.txt").write_text("3 3\n0 3\n1 0\n0 1\n")
        code = main(["oracle", "--graph", str(g), "--q", "4",
                     "--certify-trace", str(tmp_path / "walk.txt"),
                     "--start", str(tmp_path / "start.txt")])
        assert code == 0
        assert "certified" in capsys.readouterr().out

    def test_sample_coloring(self, tmp_path):
        g = write_k3_files(tmp_path)
        out = tmp_path / "sample.txt"
        assert main(["oracle", "--graph", str(g), "--q", "3",
                     "--sample-coloring", "--seed", "8",
                     "--out-coloring", str(out)]) == 0
        values = [int(x) for x in out.read_text().split()]
        assert sorted(values) == [0, 1, 2]


class TestTransformCommands:
    def test_transform_and_connect(self, tmp_path):
        assert main(["gen", "planted", "--n", "30", "--q", "3", "--m", "40",
                     "--seed", "2",
                     "--out-graph", str(tmp_path / "g.txt"),
                     "--out-partition", str(tmp_path / "p.txt"),
                     "--out-coloring", str(tmp_path / "sigma.txt")]) == 0
        # a second planted coloring as the target via a fresh gen
        sigma = cwio.read_coloring(str(tmp_path / "sigma.txt"))
        tau_colors = [(c + 3) for c in sigma.colors.tolist()]
        (tmp_path / "tau.txt").write_text("".join(f"{c}\n" for c in tau_colors))
        assert main(["transform", "--graph", str(tmp_path / "g.txt"),
                     "--sigma", str(tmp_path / "sigma.txt"),
                     "--tau", str(tmp_path / "tau.txt"),
                     "--work-palette", "10,11,12",
                     "--out-trace", str(tmp_path / "t.txt"),
                     "--out-report", str(tmp_path / "rep.txt")]) == 0
        assert main(["verify", "--graph", str(tmp_path / "g.txt"),
                     "--start", str(tmp_path / "sigma.txt"),
                     "--trace", str(tmp_path / "t.txt")]) == 0
        g = cwio.read_graph(str(tmp_path / "g.txt"))
        end = cwio.read_coloring(str(tmp_path / "tau.txt"))
        trace = cwio.read_trace(str(tmp_path / "t.txt"), sigma)
        from colorwalk import apply_trace
        assert apply_trace(g, trace).colors.tolist() == end.colors.tolist()

    def test_round_color_equal_to_class_index(self, tmp_path):
        # sigma's classes renumber to 0 and 1, the round colors of palette 0,1
        (tmp_path / "g.txt").write_text("3 2\n0 1\n0 2\n")
        (tmp_path / "sigma.txt").write_text("5\n6\n6\n")
        (tmp_path / "tau.txt").write_text("6\n5\n5\n")
        assert main(["transform", "--graph", str(tmp_path / "g.txt"),
                     "--sigma", str(tmp_path / "sigma.txt"),
                     "--tau", str(tmp_path / "tau.txt"),
                     "--work-palette", "0,1", "--L", "0",
                     "--out-trace", str(tmp_path / "t.txt")]) == 0
        assert main(["verify", "--graph", str(tmp_path / "g.txt"),
                     "--start", str(tmp_path / "sigma.txt"),
                     "--trace", str(tmp_path / "t.txt")]) == 0
        assert (tmp_path / "t.txt").read_text() == "3 6\n0 0\n1 1\n2 1\n1 5\n2 5\n0 6\n"

    @pytest.mark.parametrize("palette", ["1,0", "7,0,1"])
    def test_palette_below_class_count(self, tmp_path, capsys, palette):
        # palettes disjoint from sigma's and tau's colors whose entries equal
        # the class indices 0, 1 that sigma's two classes renumber to
        (tmp_path / "g.txt").write_text("3 2\n0 1\n0 2\n")
        (tmp_path / "sigma.txt").write_text("5\n6\n6\n")
        (tmp_path / "tau.txt").write_text("6\n5\n5\n")
        assert main(["transform", "--graph", str(tmp_path / "g.txt"),
                     "--sigma", str(tmp_path / "sigma.txt"),
                     "--tau", str(tmp_path / "tau.txt"),
                     "--work-palette", palette, "--L", "0",
                     "--out-trace", str(tmp_path / "t.txt")]) == 0
        capsys.readouterr()
        assert main(["verify", "--graph", str(tmp_path / "g.txt"),
                     "--start", str(tmp_path / "sigma.txt"),
                     "--trace", str(tmp_path / "t.txt")]) == 0
        assert capsys.readouterr().out == "ok\n"
        g = cwio.read_graph(str(tmp_path / "g.txt"))
        trace = cwio.read_trace(str(tmp_path / "t.txt"),
                                cwio.read_coloring(str(tmp_path / "sigma.txt")))
        from colorwalk import apply_trace
        assert apply_trace(g, trace).colors.tolist() == [6, 5, 5]

    def test_palette_overlap_exits_three(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text("2 0\n")
        (tmp_path / "a.txt").write_text("0\n0\n")
        (tmp_path / "b.txt").write_text("1\n1\n")
        code = main(["transform", "--graph", str(tmp_path / "g.txt"),
                     "--sigma", str(tmp_path / "a.txt"),
                     "--tau", str(tmp_path / "b.txt"),
                     "--work-palette", "1,2",
                     "--out-trace", str(tmp_path / "t.txt")])
        assert code == 3

    @pytest.mark.parametrize("palette, message", [
        ("3,3", "work palette colors must be distinct"),
        ("3,-4,5", "palette colors must be nonnegative"),
        ("0,1", "work palette overlaps target colors: [0, 1]")])
    def test_palette_checked_when_sigma_is_tau(self, tmp_path, capsys, palette, message):
        (tmp_path / "g.txt").write_text("2 0\n")
        (tmp_path / "s.txt").write_text("0\n1\n")
        code = main(["transform", "--graph", str(tmp_path / "g.txt"),
                     "--sigma", str(tmp_path / "s.txt"), "--tau", str(tmp_path / "s.txt"),
                     "--work-palette", palette, "--out-trace", str(tmp_path / "t.txt")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t.txt").exists()


class TestUsageAndErrors:
    def test_unknown_flag_exits_two(self):
        code, _, err = run_cli(["gen", "gnm", "--n", "5", "--m", "3",
                                "--seed", "1", "--bogus", "x",
                                "--out-graph", "/tmp/nope.txt"])
        assert code == 2

    def test_missing_file_exits_two(self, tmp_path):
        code = main(["verify", "--graph", str(tmp_path / "absent.txt"),
                     "--start", str(tmp_path / "c.txt"),
                     "--trace", str(tmp_path / "t.txt")])
        assert code == 2

    def test_malformed_graph_exits_two(self, tmp_path):
        (tmp_path / "g.txt").write_text("2 1\n1 0\n")
        (tmp_path / "c.txt").write_text("0\n1\n")
        (tmp_path / "t.txt").write_text("2 0\n")
        code = main(["verify", "--graph", str(tmp_path / "g.txt"),
                     "--start", str(tmp_path / "c.txt"),
                     "--trace", str(tmp_path / "t.txt")])
        assert code == 2

    def test_trace_for_other_graph_size_exits_two(self, tmp_path):
        (tmp_path / "g.txt").write_text("3 2\n0 1\n1 2\n")
        (tmp_path / "c.txt").write_text("0\n1\n0\n")
        (tmp_path / "t.txt").write_text("5 1\n0 2\n")
        code, out, err = run_cli(["verify", "--graph", tmp_path / "g.txt",
                                  "--start", tmp_path / "c.txt",
                                  "--trace", tmp_path / "t.txt"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: {tmp_path / 't.txt'}:1: trace n=5 does not match graph n=3"]

    def test_edge_count_beyond_pairs_exits_two(self, tmp_path):
        (tmp_path / "g.txt").write_text("10 999999999999\n")
        (tmp_path / "c.txt").write_text("0\n" * 10)
        (tmp_path / "t.txt").write_text("10 0\n")
        code, out, err = run_cli(["verify", "--graph", tmp_path / "g.txt",
                                  "--start", tmp_path / "c.txt",
                                  "--trace", tmp_path / "t.txt"])
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {tmp_path / 'g.txt'}:1: m=999999999999 exceeds")

    def test_vertex_count_beyond_int32_exits_two(self, tmp_path):
        (tmp_path / "g.txt").write_text("1000000000000 0\n")
        (tmp_path / "c.txt").write_text("0\n")
        (tmp_path / "t.txt").write_text("1 0\n")
        code, out, err = run_cli(["verify", "--graph", tmp_path / "g.txt",
                                  "--start", tmp_path / "c.txt",
                                  "--trace", tmp_path / "t.txt"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: {tmp_path / 'g.txt'}:1: n=1000000000000 exceeds the int32 vertex id range"]

    def test_failed_allocation_exits_three(self, monkeypatch, capsys):
        import colorwalk.cli as cli

        def no_memory(args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setitem(cli._COMMANDS, "params", no_memory)
        assert main(["params", "--n", "10", "--d", "2", "--q", "3"]) == 3
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"

    def test_internal_error_exits_four(self, monkeypatch, capsys):
        import colorwalk.cli as cli

        def broken(args):
            raise RuntimeError("something broke")
        monkeypatch.setitem(cli._COMMANDS, "params", broken)
        assert main(["params", "--n", "10", "--d", "2", "--q", "3"]) == 4
        assert capsys.readouterr().err == "error: internal: RuntimeError: something broke\n"

    @pytest.mark.parametrize("coloring, trace, bad, what", [
        (f"0\n{HUGE}\n", "2 0\n", "c.txt", "value"),
        ("0\n1\n", f"2 1\n0 {HUGE}\n", "t.txt", "color")], ids=["coloring", "trace"])
    def test_value_beyond_int64_exits_two(self, tmp_path, capsys, coloring, trace, bad, what):
        (tmp_path / "g.txt").write_text("2 1\n0 1\n")
        (tmp_path / "c.txt").write_text(coloring)
        (tmp_path / "t.txt").write_text(trace)
        code = main(["verify", "--graph", str(tmp_path / "g.txt"),
                     "--start", str(tmp_path / "c.txt"),
                     "--trace", str(tmp_path / "t.txt")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / bad}:2: {what} {HUGE} outside the int64 range"]

    @pytest.mark.parametrize("bad", ["g.txt", "c.txt", "t.txt", "p.txt"],
                             ids=["graph", "coloring", "trace", "partition"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys, bad):
        files = {"g.txt": b"2 1\n0 1\n", "c.txt": b"0\n1\n", "t.txt": b"2 1\n0 2\n",
                 "p.txt": b"0\n1\n"}
        files[bad] = files[bad][:-2] + b"\xff\n"  # the last value of line 2
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        if bad == "p.txt":
            args = ["params", "--n", "2", "--m", "1", "--q", "2", "--partition", tmp_path / bad]
        else:
            args = ["verify", "--graph", tmp_path / "g.txt", "--start", tmp_path / "c.txt",
                    "--trace", tmp_path / "t.txt"]
        assert main([str(a) for a in args]) == 2
        text = files[bad].decode(errors="replace").splitlines(keepends=True)[1]
        assert capsys.readouterr().err == (
            f"error: {tmp_path / bad}:2: non-integer field in {text!r}\n")

    def test_partition_class_beyond_int64_exits_two(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text("2 0\n")
        (tmp_path / "p.txt").write_text(f"0\n-{HUGE}\n")
        code = main(["recolor", "--graph", str(tmp_path / "g.txt"),
                     "--partition", str(tmp_path / "p.txt"),
                     "--out-trace", str(tmp_path / "t.txt")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'p.txt'}:2: value -{HUGE} outside the int64 range"]

    def test_partition_class_beyond_int32_exits_two(self, tmp_path, capsys):
        # 4294967297 = 2**32 + 1 would wrap to class 1 as an int32
        (tmp_path / "g.txt").write_text("2 0\n")
        (tmp_path / "p.txt").write_text("0\n4294967297\n")
        code = main(["recolor", "--graph", str(tmp_path / "g.txt"),
                     "--partition", str(tmp_path / "p.txt"),
                     "--out-trace", str(tmp_path / "t.txt")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'p.txt'}:2: class index 4294967297 exceeds 2147483647"]
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("command, text, line, message", [
        ("verify", "0\n1\n", 3, "expected 3 color lines, file ended early"),
        ("verify", "0\n1\n0\n1\n", 4, "trailing content after color list"),
        ("certify", "0\n1\n", 3, "expected 3 color lines, file ended early"),
        ("transform", "0\n1\n", 3, "expected 3 color lines, file ended early"),
        ("connect", "0\n1\n0\n1\n", 4, "trailing content after color list"),
        ("recolor", "0\n1\n", 3, "expected 3 class index lines, file ended early"),
        ("recolor", "", 1, "expected 3 class index lines, file ended early"),
        ("recolor", "0\n1\n0\n1\n", 4, "trailing content after class index list"),
        ("params", "0\n1\n0\n1\n", 4, "trailing content after class index list"),
    ], ids=["verify-short", "verify-long", "certify-short", "transform-short",
            "connect-long", "recolor-short", "recolor-empty", "recolor-long", "params-long"])
    def test_column_file_length_names_file_and_line(self, tmp_path, capsys, command, text,
                                                     line, message):
        (tmp_path / "g.txt").write_text("3 2\n0 1\n1 2\n")
        (tmp_path / "c.txt").write_text("0\n1\n0\n")
        (tmp_path / "t.txt").write_text("3 0\n")
        (tmp_path / "bad.txt").write_text(text)
        g, c, bad = (str(tmp_path / name) for name in ("g.txt", "c.txt", "bad.txt"))
        args = {
            "verify": ["verify", "--graph", g, "--start", bad, "--trace", tmp_path / "t.txt"],
            "certify": ["oracle", "--graph", g, "--q", "3", "--start", bad,
                        "--certify-trace", tmp_path / "t.txt"],
            "transform": ["transform", "--graph", g, "--sigma", bad, "--tau", c,
                          "--work-palette", "2,3", "--out-trace", tmp_path / "out.txt"],
            "connect": ["connect", "--graph", g, "--sigma", c, "--sigma-prime", c,
                        "--tau", bad, "--work-palette", "2,3",
                        "--out-trace", tmp_path / "out.txt"],
            "recolor": ["recolor", "--graph", g, "--partition", bad,
                        "--out-trace", tmp_path / "out.txt"],
            "params": ["params", "--n", "3", "--m", "2", "--q", "2", "--partition", bad],
        }[command]
        assert main([str(a) for a in args]) == 2
        assert capsys.readouterr().err == f"error: {bad}:{line}: {message}\n"

    def test_startup_does_not_import_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, colorwalk.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_startup_imports_only_what_the_walk_commands_use(self):
        # experiments, the oracle and the process pool load on demand
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, colorwalk.cli; print(sorted({'colorwalk.experiments', "
             "'colorwalk.oracle', 'concurrent.futures.process'} & set(sys.modules)))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_experiment_kinds_are_the_experiments(self):
        from colorwalk.experiments import EXPERIMENTS
        assert cli.EXPERIMENT_KINDS == tuple(sorted(EXPERIMENTS))

    @pytest.mark.parametrize("model", ["gnm", "gnp", "planted"])
    def test_gen_negative_n_exits_two(self, tmp_path, capsys, model):
        out = tmp_path / "g.txt"
        code = main(["gen", model, "--n", "-5", "--m", "3", "--p", "0.5", "--q", "2",
                     "--seed", "1", "--out-graph", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: n must be nonnegative, got -5\n"
        assert not out.exists()

    def test_gen_oversize_n_exits_two(self, tmp_path, capsys):
        # rejected before any n-sized array is allocated, not a MemoryError
        out = tmp_path / "g.txt"
        code = main(["gen", "gnm", "--n", "2147483648", "--m", "1", "--seed", "1",
                     "--out-graph", str(out)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: n=2147483648 exceeds the int32 vertex id range\n"
        assert not out.exists()

    def test_params_oversize_n_exits_two(self, capsys):
        # the vertex id bound holds for params as it does for gen
        code = main(["params", "--n", "3000000000", "--q", "3", "--d", "2"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: n=3000000000 exceeds the int32 vertex id range\n"

    @pytest.mark.parametrize("n, q", [(0, 3), (1, 1), (2, 5), (7, 3), (12, 4), (10, 10),
                                      (101, 7)])
    def test_params_balanced_split_matches_its_file(self, tmp_path, capsys, n, q):
        # without --partition, params counts the cross pairs of the split
        # arange(n) % q in closed form; the same split read from a file agrees
        path = tmp_path / "p.txt"
        path.write_text("".join(f"{v % q}\n" for v in range(n)))
        args = ["params", "--n", str(n), "--q", str(q), "--m", "0"]
        assert main(args) == 0
        closed = capsys.readouterr().out
        assert main([*args, "--partition", str(path)]) == 0
        assert capsys.readouterr().out == closed

    def test_params_balanced_split_builds_no_class_array(self, capsys):
        tracemalloc.start()
        try:
            assert main(["params", "--n", "30000000", "--q", "3", "--d", "2"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "n_q=300000000000000\n" in capsys.readouterr().out

    @pytest.mark.parametrize("option, value", [("--d", "-3"), ("--m", "-15")])
    def test_params_negative_edge_count_exits_three(self, option, value):
        # gen rejects the same m; params printed m=-15 and a negative d_hat
        code, out, err = run_cli(["params", "--n", "10", "--q", "3", option, value])
        assert (code, out, err) == (3, "", "error: m=-15 outside [0, C(10,2)]\n")

    def test_params_q_zero_exits_three_without_warning(self):
        code, out, err = run_cli(["params", "--n", "10", "--q", "0", "--d", "2"])
        assert (code, out, err) == (3, "", "error: q must be >= 1\n")

    @pytest.mark.parametrize("option, value, bad", [
        ("--palette", f"5,{HUGE}", HUGE), ("--palette", f"5,-{HUGE}", f"-{HUGE}"),
        ("--work-palette", f"5,{HUGE}", HUGE), ("--work-palette-prime", f"{HUGE},7", HUGE)])
    def test_palette_beyond_int64_exits_two(self, tmp_path, option, value, bad):
        # valid files, so only the color list can fail
        g, s, t, out = (tmp_path / name for name in ("g.txt", "s.txt", "t.txt", "o.txt"))
        g.write_text("3 2\n0 1\n1 2\n")
        s.write_text("0\n1\n0\n")
        t.write_text("1\n0\n1\n")
        if option == "--palette":
            args = ["recolor", "--graph", g, "--partition", s]
        elif option == "--work-palette":
            args = ["transform", "--graph", g, "--sigma", s, "--tau", t]
        else:
            args = ["connect", "--graph", g, "--sigma", s, "--sigma-prime", s, "--tau", t,
                    "--work-palette", "5,6"]
        code, stdout, err = run_cli([*args, option, value, "--out-trace", out])
        assert code == 2
        assert stdout == ""
        assert f"argument {option}: value {bad} outside the int64 range" in err
        assert "internal:" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    @pytest.mark.parametrize("args", [
        ["gen", "gnm", "--n", "10", "--seed", "1", "--out-graph", "OUT"],
        ["params", "--n", "10", "--q", "3"],
        ["experiment", "mis", "--n", "100", "--seed", "1", "--out", "OUT"],
        ["experiment", "coupling", "--n", "100", "--q", "3", "--seed", "1", "--out", "OUT"],
    ], ids=["gen", "params", "experiment-mis", "experiment-coupling"])
    def test_non_finite_degree_exits_two(self, tmp_path, args, value):
        out = tmp_path / "o.txt"
        code, stdout, err = run_cli([out if a == "OUT" else a for a in args] + ["--d", value])
        assert code == 2
        assert stdout == ""
        assert f"argument --d: degree must be finite, got '{value}'" in err
        assert "internal:" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_p_exits_two(self, tmp_path, capsys, value):
        out = tmp_path / "g.txt"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "gnp", "--n", "10", "--p", value, "--seed", "1",
                  "--out-graph", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"colorwalk gen: error: argument --p: p must be finite, got '{value}'"]
        assert not out.exists()

    def test_infeasible_exits_three(self, tmp_path):
        code = main(["gen", "planted", "--n", "6", "--q", "1", "--m", "1",
                     "--seed", "1", "--out-graph", str(tmp_path / "g.txt")])
        assert code == 3

    def test_params_output(self, capsys):
        code = main(["params", "--n", "100", "--d", "10", "--q", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "d_hat=" in out and "l_cutoff=" in out
        assert "q0=undefined" in out

    def test_experiment_command(self, tmp_path, capsys):
        out = tmp_path / "mis.csv"
        code = main(["experiment", "mis", "--n", "500", "--d", "100",
                     "--trials", "2", "--seed", "4", "--out", str(out)])
        assert code == 0
        assert "fraction_meeting_bound=1.0" in capsys.readouterr().out
        assert out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_experiment_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "mis.csv"
        code = main(["experiment", "mis", "--n", "500", "--d", "100", "--trials", "2",
                     "--seed", "4", "--jobs", jobs, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"
        assert not out.exists()


    @pytest.mark.parametrize("d", ["30", "3000"])
    def test_experiment_negative_n_exits_two_at_any_degree(self, tmp_path, capsys, d):
        # n is checked before the degree bound, which is inactive at d = 30
        out = tmp_path / "x.csv"
        code = main(["experiment", "mis", "--n", "-100", "--d", d, "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: n must be nonnegative, got -100\n"
        assert not out.exists()

    def test_experiment_rejects_negative_subset_samples(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        code = main(["experiment", "density", "--n", "50", "--d", "2", "--q", "3",
                     "--seed", "1", "--subset-samples", "-3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: subset_samples must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, extra, message", [
        ("scaling", ["--d", "1"], "average degree must exceed 1, got 1"),
        ("scaling", ["--d", "3", "--d-sweep", "1,3"], "average degree must exceed 1, got 1"),
        ("scaling", ["--d", "0"], "average degree must exceed 1, got 0"),
        ("density", ["--d", "0", "--q", "3"], "degree too small for the subset size cap"),
        ("scaling", ["--d", "1.01"], "q=204 exceeds n=200 at average degree 1.01"),
    ], ids=["scaling-d1", "scaling-sweep", "scaling-d0", "density-d0", "scaling-q-beyond-n"])
    def test_experiment_rejects_low_degree(self, tmp_path, capsys, kind, extra, message):
        # ln d is zero or undefined here: no ZeroDivisionError or math domain
        # error; or q = ceil(2d / ln d) exceeds n, so a class would be empty
        out = tmp_path / "o.csv"
        code = main(["experiment", kind, "--n", "200", "--seed", "1", *extra,
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_d_sweep_takes_fractional_degrees(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["experiment", "scaling", "--n", "200", "--d", "6", "--d-sweep", "4.5,6",
                     "--seed", "1", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert "mean_ratio_d_4.5=" in printed and "mean_ratio_d_6=" in printed
        assert out.exists()

    @pytest.mark.parametrize("sweep, message", [
        ("4.5,x", "invalid float value: 'x'"),
        ("4.5,inf", "degree must be finite, got 'inf'"),
        ("nan,6", "degree must be finite, got 'nan'"),
    ], ids=["nonfloat", "inf", "nan"])
    def test_d_sweep_checks_each_degree(self, tmp_path, sweep, message):
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(["experiment", "scaling", "--n", "200", "--d", "6",
                                     "--d-sweep", sweep, "--seed", "1", "--out", out])
        assert code == 2
        assert stdout == ""
        assert f"argument --d-sweep: {message}" in err
        assert not out.exists()


class TestQ0Note:
    """q0 is followed by q0_note exactly when it is undefined, in ``params``;
    the recolor and transform reports carry neither."""

    def test_params_note_follows_undefined_q0(self, capsys):
        assert main(["params", "--n", "300", "--q", "3", "--d", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("q0=undefined")
        assert lines[at + 1] == "q0_note=q0 undefined: d <= e (ln ln d <= 0)"

    def test_params_defined_q0_has_no_note(self, capsys):
        # every vertex its own class and every pair an edge: d = n - 1 is
        # just past e^21.46, where ln d > 7 ln ln d
        n = 2**31 - 1
        assert main(["params", "--n", str(n), "--q", str(n),
                     "--m", str(n * (n - 1) // 2)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [x for x in lines if x.startswith("q0")] == ["q0=140886877686.0421"]

    def test_reports_have_no_q0(self, tmp_path):
        # a path numbered along its edges: d = 2 * 29 / 30, in (1, e], where
        # q0 is undefined, as it is for every graph that fits in memory
        (tmp_path / "g.txt").write_text("30 29\n" + "".join(f"{i} {i + 1}\n"
                                                            for i in range(29)))
        (tmp_path / "c.txt").write_text("".join(f"{i % 2}\n" for i in range(30)))
        (tmp_path / "tau.txt").write_text("".join(f"{i % 2 + 3}\n" for i in range(30)))
        assert main(["recolor", "--graph", str(tmp_path / "g.txt"),
                     "--partition", str(tmp_path / "c.txt"),
                     "--out-trace", str(tmp_path / "t.txt"),
                     "--out-report", str(tmp_path / "r.txt")]) == 0
        assert main(["transform", "--graph", str(tmp_path / "g.txt"),
                     "--sigma", str(tmp_path / "c.txt"), "--tau", str(tmp_path / "tau.txt"),
                     "--work-palette", "10,11,12", "--out-trace", str(tmp_path / "tt.txt"),
                     "--out-report", str(tmp_path / "tr.txt")]) == 0
        for report in ("r.txt", "tr.txt"):
            keys = [x.split("=")[0] for x in (tmp_path / report).read_text().splitlines()]
            assert "total_colors" in keys, report
            assert not [key for key in keys if key.startswith("q0")], report


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        # the same command twice produces byte-identical artifacts
        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        commands = []
        for seed in (1, 2):
            commands.append((f"gnm{seed}", ["gen", "gnm", "--n", "50", "--m", "100",
                                            "--seed", seed]))
            commands.append((f"gnp{seed}", ["gen", "gnp", "--n", "50", "--p", "0.1",
                                            "--seed", seed]))
        hashes = {}
        for rep in ("x", "y"):
            for tag, cmd in commands:
                out = tmp_path / f"{tag}_{rep}.txt"
                assert main([*map(str, cmd), "--out-graph", str(out)]) == 0
                hashes.setdefault(tag, []).append(digest(out))
        for tag, (a, b) in hashes.items():
            assert a == b, tag
