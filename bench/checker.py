"""Independent checks of colorwalk's outputs.

Nothing here imports colorwalk. Graphs are plain edge arrays (taken from
the program's Graph object or parsed from its text files by the functions
below), and a walk is a start colouring plus two parallel arrays of moved
vertices and new colours. The replay is vectorised over blocks of moves.
"""

from __future__ import annotations

import numpy as np

# moves per block of the replay; small blocks keep in-block lookups rare
_MOVES_PER_BLOCK = 4096


def parse_ints(path) -> np.ndarray:
    """Every whitespace-separated integer of a text file, in order."""
    with open(path, "rb") as f:
        data = f.read()
    return np.array(data.split(), dtype=np.int64)


def read_graph_file(path) -> tuple[int, np.ndarray, np.ndarray]:
    vals = parse_ints(path)
    if vals.shape[0] < 2:
        raise ValueError(f"{path}: no header")
    n, m = int(vals[0]), int(vals[1])
    if vals.shape[0] != 2 + 2 * m:
        raise ValueError(f"{path}: header says {m} edges, "
                         f"file holds {(vals.shape[0] - 2) / 2}")
    pairs = vals[2:].reshape(m, 2)
    return n, pairs[:, 0].copy(), pairs[:, 1].copy()


def read_trace_file(path) -> tuple[int, np.ndarray, np.ndarray]:
    vals = parse_ints(path)
    if vals.shape[0] < 2:
        raise ValueError(f"{path}: no header")
    n, k = int(vals[0]), int(vals[1])
    if vals.shape[0] != 2 + 2 * k:
        raise ValueError(f"{path}: header says {k} moves, "
                         f"file holds {(vals.shape[0] - 2) / 2}")
    pairs = vals[2:].reshape(k, 2)
    return n, pairs[:, 0].copy(), pairs[:, 1].copy()


def read_report_file(path) -> dict[str, str]:
    with open(path) as f:
        return dict(line.rstrip("\n").split("=", 1) for line in f if "=" in line)


def write_trace_file(path, n: int, mv_v: np.ndarray, mv_c: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write(f"{n} {mv_v.shape[0]}\n")
        np.savetxt(f, np.stack([mv_v, mv_c], axis=1), fmt="%d")


def check_planted(n: int, m: int, eu: np.ndarray, ev: np.ndarray,
                  class_of: np.ndarray) -> list[str]:
    """The planted graph has m distinct edges u < v and none inside a class."""
    problems = []
    if eu.shape[0] != m:
        problems.append(f"planted graph has {eu.shape[0]} edges, expected {m}")
    if class_of.shape[0] != n:
        problems.append(f"partition covers {class_of.shape[0]} vertices, expected {n}")
        return problems
    if eu.shape[0]:
        if eu.min() < 0 or ev.max() >= n or bool(np.any(eu >= ev)):
            problems.append("planted edge outside 0 <= u < v < n")
            return problems
        codes = np.sort(eu * n + ev)
        if bool(np.any(codes[1:] == codes[:-1])):
            problems.append("planted graph has a repeated edge")
        if bool(np.any(class_of[eu] == class_of[ev])):
            problems.append("planted edge inside a class")
    return problems


class Adjacency:
    """CSR adjacency built from the edge arrays alone."""

    def __init__(self, n: int, eu: np.ndarray, ev: np.ndarray):
        self.n = n
        self.eu = np.asarray(eu, dtype=np.int64)
        self.ev = np.asarray(ev, dtype=np.int64)
        src = np.concatenate([self.eu, self.ev])
        self.nbrs = np.concatenate([self.ev, self.eu])[np.argsort(src)]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])

    def is_proper(self, colors: np.ndarray) -> bool:
        return not bool(np.any(colors[self.eu] == colors[self.ev]))

    def expand(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in ``vertices``, neighbour) for every neighbour of each entry."""
        deg = self.indptr[vertices + 1] - self.indptr[vertices]
        owner = np.repeat(np.arange(vertices.shape[0]), deg)
        first = np.repeat(self.indptr[vertices] - (np.cumsum(deg) - deg), deg)
        return owner, self.nbrs[first + np.arange(owner.shape[0])]


def degeneracy(adj: Adjacency, members: np.ndarray) -> int:
    """Degeneracy of the subgraph induced by the boolean mask ``members``:
    the largest k whose k-core is not empty. Peels every vertex of degree
    <= k at once, raising k when none is left to peel."""
    alive = members.copy()
    eu, ev = adj.eu, adj.ev
    k = 0
    while alive.any():
        keep = alive[eu] & alive[ev]
        eu, ev = eu[keep], ev[keep]
        deg = np.bincount(eu, minlength=adj.n) + np.bincount(ev, minlength=adj.n)
        low = alive & (deg <= k)
        if low.any():
            alive &= ~low
        else:
            k += 1
    return k


class Walk:
    """A start colouring plus moves: vertex mv_v[i] takes colour mv_c[i]."""

    def __init__(self, start, mv_v, mv_c):
        self.start = np.asarray(start, dtype=np.int64)
        self.mv_v = np.asarray(mv_v, dtype=np.int64)
        self.mv_c = np.asarray(mv_c, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.mv_v.shape[0])

    def color_at(self, vertex: int, step: int) -> int:
        """Colour of ``vertex`` just before move ``step`` is applied."""
        mine = np.flatnonzero(self.mv_v[:step] == vertex)
        return int(self.mv_c[mine[-1]]) if mine.shape[0] else int(self.start[vertex])


def _last_writes(keys: np.ndarray, base: int) -> np.ndarray:
    """Positions in sorted (vertex * base + step) keys of each vertex's last step."""
    vertex = keys // base
    return np.flatnonzero(np.append(vertex[1:] != vertex[:-1], True))


def replay(adj: Adjacency, walk: Walk) -> tuple[np.ndarray | None, str | None]:
    """(end colouring, None) for a valid walk, else (None, first problem).

    Valid: proper start, every vertex in range, every colour nonnegative,
    no move that keeps its vertex's colour, no move onto a colour one of
    the vertex's neighbours holds at that step, and a proper end.

    Moves are taken in blocks. Within a block, the colour a vertex holds
    before step t is its colour at the start of the block, unless it moves
    earlier in the block: then it is that move's colour, found by binary
    search over the block's moves sorted by (vertex, step).
    """
    n, k = adj.n, len(walk)
    if walk.start.shape[0] != n:
        return None, f"start colouring has {walk.start.shape[0]} entries, graph has {n}"
    if not adj.is_proper(walk.start):
        return None, "start colouring improper"
    if k and (walk.mv_v.min() < 0 or walk.mv_v.max() >= n):
        return None, "move vertex out of range"
    if k and walk.mv_c.min() < 0:
        return None, "negative colour"
    cur = walk.start.copy()
    in_block = np.zeros(n, dtype=bool)
    for lo in range(0, k, _MOVES_PER_BLOCK):
        v = walk.mv_v[lo:lo + _MOVES_PER_BLOCK]
        c = walk.mv_c[lo:lo + _MOVES_PER_BLOCK]
        base = v.shape[0] + 1
        steps = np.arange(v.shape[0])
        keys = np.sort(v * base + steps)
        vertex_of, step_of = keys // base, keys % base

        def before(who, at):
            pos = np.searchsorted(keys, who * base + at) - 1
            safe = np.maximum(pos, 0)
            moved = (pos >= 0) & (vertex_of[safe] == who)
            return np.where(moved, c[step_of[safe]], cur[who])

        noop = np.flatnonzero(before(v, steps) == c)
        owner, w = adj.expand(v)
        held = cur[w]
        in_block[v] = True
        also_moves = np.flatnonzero(in_block[w])
        in_block[v] = False
        held[also_moves] = before(w[also_moves], owner[also_moves])
        clash = owner[held == c[owner]]
        bad = [(int(noop[0]), "no-op move")] if noop.shape[0] else []
        if clash.shape[0]:
            bad.append((int(clash[0]), "monochromatic edge created"))
        if bad:
            step, reason = min(bad)
            return None, f"step {lo + step}: {reason}"
        last = _last_writes(keys, base)
        cur[vertex_of[last]] = c[step_of[last]]
    if not adj.is_proper(cur):
        return None, "end colouring improper"
    return cur, None


def corrupt(adj: Adjacency, walk: Walk) -> tuple[int, np.ndarray]:
    """Index j and a copy of the move colours in which move j takes the
    colour its vertex's first listed neighbour holds at step j.

    j is the first move at or after the middle whose vertex has a
    neighbour, so the copy first breaks properness exactly at step j.
    """
    k = len(walk)
    deg = adj.indptr[walk.mv_v + 1] - adj.indptr[walk.mv_v]
    later = np.flatnonzero(deg[k // 2:] > 0)
    if later.shape[0] == 0:
        raise ValueError("no move after the middle has a neighbour to clash with")
    j = k // 2 + int(later[0])
    bad = walk.mv_c.copy()
    bad[j] = walk.color_at(int(adj.nbrs[adj.indptr[walk.mv_v[j]]]), j)
    return j, bad
