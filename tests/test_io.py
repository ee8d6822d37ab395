import io
import os
import tracemalloc
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from colorwalk import FormatError, Move, Trace, build_graph, coloring_of, gen_gnm
from colorwalk import io as cwio
from colorwalk.coloring import CHUNK
from colorwalk.graphs import partition_from_class_of


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = gen_gnm(30, 80, seed=3)
        path = tmp_path / "g.txt"
        cwio.write_graph(str(path), g)
        back = cwio.read_graph(str(path))
        assert back.n == g.n
        assert np.array_equal(back.edges(), g.edges())
        assert np.array_equal(back.nbrs, g.nbrs)

    def test_header_format(self, tmp_path):
        g = build_graph(3, [(0, 2), (0, 1)])
        path = tmp_path / "g.txt"
        cwio.write_graph(str(path), g)
        assert path.read_text() == "3 2\n0 1\n0 2\n"

    def test_rejects_unordered_edges(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 2\n0 1\n")
        with pytest.raises(FormatError) as exc:
            cwio.read_graph(str(path))
        assert exc.value.line == 3

    def test_rejects_u_not_less_than_v(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n2 0\n")
        with pytest.raises(FormatError) as exc:
            cwio.read_graph(str(path))
        assert exc.value.line == 2

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(FormatError, match="ended early"):
            cwio.read_graph(str(path))

    def test_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\nextra\n")
        with pytest.raises(FormatError, match="trailing"):
            cwio.read_graph(str(path))

    def test_rejects_non_integer(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 x\n")
        with pytest.raises(FormatError, match="non-integer"):
            cwio.read_graph(str(path))


    def test_rejects_edge_count_beyond_pairs(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 4\n0 1\n0 2\n1 2\n")
        with pytest.raises(FormatError, match="exceeds the 3 vertex pairs") as exc:
            cwio.read_graph(str(path))
        assert exc.value.line == 1

    def test_complete_graph_edge_count_accepted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n0 1\n0 2\n1 2\n")
        assert cwio.read_graph(str(path)).m == 3


class TestColumnFiles:
    def test_partition_round_trip(self, tmp_path):
        part = partition_from_class_of([0, 2, 1, 2, 0])
        path = tmp_path / "p.txt"
        cwio.write_partition(str(path), part)
        back = cwio.read_partition(str(path))
        assert back.class_of.tolist() == [0, 2, 1, 2, 0]
        assert back.q == 3

    def test_coloring_round_trip(self, tmp_path):
        c = coloring_of([3, 1, 4, 1], 9)
        path = tmp_path / "c.txt"
        cwio.write_coloring(str(path), c)
        back = cwio.read_coloring(str(path))
        assert back.colors.tolist() == [3, 1, 4, 1]

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1\n\n2\n")
        with pytest.raises(FormatError) as exc:
            cwio.read_coloring(str(path))
        assert exc.value.line == 2

    @pytest.mark.parametrize("text, line, message", [
        ("0\n-1\n-5\n", 2, "negative {what}"),
        ("0\n-5\nx\n", 2, "negative {what}"),
        (f"0\n{2 ** 70}\n1 2\n", 2, f"value {2 ** 70} outside the int64 range"),
        (f"x\n{2 ** 70}\n", 1, "non-integer field in 'x\\n'"),
    ], ids=["negative", "negative-then-parse", "int64-then-parse", "parse-then-int64"])
    @pytest.mark.parametrize("read, what", [(cwio.read_partition, "class index"),
                                            (cwio.read_coloring, "color")],
                             ids=["partition", "coloring"])
    def test_first_faulty_line_wins(self, tmp_path, read, what, text, line, message):
        path = tmp_path / "c.txt"
        path.write_text(text)
        with pytest.raises(FormatError) as exc:
            read(str(path))
        assert str(exc.value) == f"{path}:{line}: {message.format(what=what)}"

    @pytest.mark.parametrize("text, line, message", [
        ("0\n1\n", 3, "expected 3 {what} lines, file ended early"),
        ("", 1, "expected 3 {what} lines, file ended early"),
        ("0\n1\n0\n1\n", 4, "trailing content after {what} list"),
        ("0\n1\n0\nx\n", 4, "trailing content after {what} list"),
        ("0\n-1\n0\n1\n", 2, "negative {what}"),
        ("0\n1\n0\n\n", 4, "trailing content after {what} list"),
        ("0\n\n1\n", 2, "blank line"),
    ], ids=["short", "empty", "long", "long-then-parse", "negative-then-long",
            "trailing-blank", "blank"])
    @pytest.mark.parametrize("read, what", [(cwio.read_partition, "class index"),
                                            (cwio.read_coloring, "color")],
                             ids=["partition", "coloring"])
    def test_expected_length(self, tmp_path, monkeypatch, read, what, text, line, message):
        path = tmp_path / "c.txt"
        path.write_text(text)
        for chunk in (1, 2, None):
            if chunk is not None:
                monkeypatch.setattr(cwio, "CHUNK", chunk)
            with pytest.raises(FormatError) as exc:
                read(str(path), n=3)
            assert str(exc.value) == f"{path}:{line}: {message.format(what=what)}"
        path.write_text("0\n1\n0")  # no final newline
        got = read(str(path), n=3)
        assert (got.colors if what == "color" else got.class_of).tolist() == [0, 1, 0]

    def test_class_index_beyond_int32(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n2147483647\n4294967297\n")
        with pytest.raises(FormatError) as exc:
            cwio.read_partition(str(path))
        assert str(exc.value) == f"{path}:3: class index 4294967297 exceeds 2147483647"


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        start = coloring_of([0, 1, 0], 5)
        t = Trace(start=start, moves=[Move(0, 2), Move(2, 3)])
        path = tmp_path / "t.txt"
        cwio.write_trace(str(path), t)
        assert path.read_text() == "3 2\n0 2\n2 3\n"
        back = cwio.read_trace(str(path), start)
        assert np.array_equal(back.moves, t.moves)

    def test_streaming_iterator(self, tmp_path, monkeypatch):
        path = tmp_path / "t.txt"
        path.write_text("4 3\n1 5\n0 6\n2 1\n")
        blocks = list(cwio.iter_trace_moves(str(path)))
        assert [b.tolist() for b in blocks] == [[[1, 5], [0, 6], [2, 1]]]
        assert blocks[0].dtype == np.int64
        monkeypatch.setattr(cwio, "CHUNK", 2)
        blocks = list(cwio.iter_trace_moves(str(path)))
        assert [b.tolist() for b in blocks] == [[[1, 5], [0, 6]], [[2, 1]]]

    def test_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("2 1\n5 0\n")
        with pytest.raises(FormatError, match="out of range"):
            list(cwio.iter_trace_moves(str(path)))

    def test_start_length_mismatch(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("3 0\n")
        with pytest.raises(FormatError):
            cwio.read_trace(str(path), coloring_of([0, 0]))


class TestAtomicity:
    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.txt"

        def boom():
            yield "line1"
            raise RuntimeError("mid-write failure")

        with pytest.raises(RuntimeError):
            cwio._atomic_write(str(target), boom())
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    def test_overwrite_is_atomic(self, tmp_path):
        target = tmp_path / "out.txt"
        cwio._atomic_write(str(target), ["a"])
        cwio._atomic_write(str(target), ["b"])
        assert target.read_text() == "b\n"


class TestRecordFiles:
    def test_one_formatter_for_records_and_csv(self, tmp_path):
        rec, csv = tmp_path / "r.txt", tmp_path / "c.csv"
        cwio.write_records(str(rec), [("a", True), ("b", False), ("x", 0.1), ("s", "t")])
        cwio.write_csv(str(csv), ["ok", "x"], [[True, 2.5], [False, 3]])
        assert rec.read_text() == "a=1\nb=0\nx=0.1\ns=t\n"
        assert csv.read_text() == "ok,x\n1,2.5\n0,3\n"


class TestBlockReader:
    """The byte-level block reader across blocks, threads and line ends."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """Plain and CRLF copies of a graph, a coloring, a partition and a
        trace, each more than two blocks long."""
        tmp = tmp_path_factory.mktemp("files")
        g = gen_gnm(3000, 2 * CHUNK + 5, 1)
        rng = np.random.default_rng(2)
        colors = coloring_of(rng.integers(0, 10 ** 12, 2 * CHUNK + 7).tolist())
        part = partition_from_class_of(rng.integers(0, 50, 2 * CHUNK + 9))
        moves = np.column_stack((rng.integers(0, 3000, 2 * CHUNK + 11),
                                 rng.integers(0, 40, 2 * CHUNK + 11)))
        paths = {}
        for kind, write, value in (
                ("graph", cwio.write_graph, g), ("coloring", cwio.write_coloring, colors),
                ("partition", cwio.write_partition, part),
                ("trace", cwio.write_trace, Trace(start=coloring_of([0] * 3000), moves=moves))):
            plain, crlf = tmp / f"{kind}.txt", tmp / f"{kind}-crlf.txt"
            write(str(plain), value)
            crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
            paths[kind] = [str(plain), str(crlf)]
        return paths

    READERS = {
        "graph": lambda p: (lambda g: (g.n, g.edge_u, g.edge_v, g.indptr, g.nbrs))(
            cwio.read_graph(p)),
        "coloring": lambda p: (cwio.read_coloring(p).colors,),
        "partition": lambda p: (lambda part: (part.q, part.class_of))(cwio.read_partition(p)),
        "trace": lambda p: tuple(cwio.iter_trace_moves(p)),
    }

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_threaded_reads_equal_serial_reads(self, files, kind):
        read = self.READERS[kind]
        paths = files[kind] * 3
        serial = [read(p) for p in paths]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(read, paths))
        for a, b in zip(serial, threaded):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        # the CRLF copy holds the same values as the plain one
        for x, y in zip(serial[0], serial[1]):
            assert np.array_equal(x, y)

    def test_pipe_reads_like_its_file(self, files, tmp_path):
        """A file that cannot seek, a pipe, reads as its file does: here a
        graph whose line ends change from LF to CRLF in its second block."""
        plain = files["graph"][0]
        data = Path(plain).read_bytes()
        cut = data.index(b"\n", len(data) // 2) + 1
        fifo = tmp_path / "graph.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as f:
                f.write(data[:cut] + data[cut:].replace(b"\n", b"\r\n"))
        with ThreadPoolExecutor(max_workers=1) as pool:
            fed = pool.submit(feed)
            piped = self.READERS["graph"](str(fifo))
            fed.result(timeout=60)
        for x, y in zip(piped, self.READERS["graph"](plain)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("data", [b"0 1\n" * 100_000, b"0 1\r\n" * 100_000],
                             ids=["lf", "crlf"])
    def test_suspended_reader_holds_no_read(self, data):
        """Between two reads the suspended ``_reads`` frame holds no
        reference to the read it yielded, so a block carved from it frees
        the read."""
        reads = cwio._reads(io.BytesIO(data))
        for piece in reads:
            assert all(value is not piece for value in reads.gi_frame.f_locals.values())

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_streaming_memory_is_one_block(self, tmp_path, end):
        """Draining a trace of 16 blocks peaks within 1.5 times the peak of
        one block, whatever its line ends: the reader holds one block (and
        one read) at a time, not the file (12 MB here) or its moves
        (16 MiB)."""
        rng = np.random.default_rng(3)

        def peak(blocks: int) -> int:
            path = str(tmp_path / f"t{blocks}.txt")
            moves = np.column_stack((rng.integers(0, 10 ** 5, blocks * CHUNK),
                                     rng.integers(0, 10 ** 5, blocks * CHUNK)))
            cwio.write_trace(path, Trace(start=coloring_of([0] * 10 ** 5), moves=moves))
            Path(path).write_bytes(Path(path).read_bytes().replace(b"\n", end))
            tracemalloc.start()
            try:
                rows = sum(len(block) for block in cwio.iter_trace_moves(path))
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rows == blocks * CHUNK
            return top

        one, many = peak(1), peak(16)
        assert many < 1.5 * one
