"""Construction of circulant graphs, complements, and generic graph fixtures.

A circulant graph on n vertices has vertex v adjacent to (v + j) mod n and
(v - j) mod n for every jump j. A spec is the order n and the connection
row, row 0 of the adjacency, as an n-bit int: bit v is set when v is
adjacent to 0. The row is canonical, so two specs describe the same graph
exactly when they compare equal. ``CirculantSpec.of`` is the one place that
normalises raw jump values; the jump set (the row's bits in 1..n//2), the
offsets and the boolean row are computed from the row when read, and
nothing is cached. The complement spec is the row with every bit but bit 0
flipped.

Generic graphs are backed by a read-only boolean adjacency matrix; the
class exposes degrees and the edge list on top of it. Edge-list fixtures
are split once per line and then checked as whole arrays (token counts,
integers, range, self-loops, duplicates); a faulty fixture names its
earliest bad line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EmptyComplementError,
    EmptyJumpSetError,
    FixtureParseError,
    InputError,
    VertexRangeError,
)


# _REVERSED[b] is the byte b with its eight bits in reverse order.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@dataclass(frozen=True)
class CirculantSpec:
    """A circulant graph: its order n and its connection row, row 0 of the
    adjacency, as an n-bit int with bit v set when v is adjacent to 0.

    The constructor takes a row as it is and only validates it: bit 0
    clear, the row nonzero and below 2**n, and bit v equal to bit n - v.
    ``of`` builds the row from raw jump values.
    """

    n: int
    row: int

    def __post_init__(self) -> None:
        n, row = self.n, self.row
        if not (isinstance(n, int) and isinstance(row, int)):
            raise InputError("a spec's order and connection row must be ints")
        if n < 2:
            raise InputError(f"graph order must be at least 2, got {n}")
        if not row:
            raise EmptyJumpSetError("connection row is empty")
        if row < 0 or row >> n or row & 1:
            raise InputError(f"connection row for n={n} is not {n} bits with bit 0 clear")
        # Reversing the bytes' order and each byte's bits takes bit v to
        # bit 8 * size - 1 - v; the shifts land it on bit n - v.
        size = (n + 7) // 8
        mirror = int.from_bytes(row.to_bytes(size, "little").translate(_REVERSED), "big")
        odd = (mirror << 1 >> 8 * size - n) ^ row
        if odd:
            v = (odd & -odd).bit_length() - 1
            raise InputError(f"connection row for n={n} has bit {v} != bit {n - v}")

    @classmethod
    def of(cls, n: int, jumps: Iterable[int]) -> "CirculantSpec":
        """The spec with raw jump values ``jumps``: each j sets the bits of
        j and -j mod n, and a jump of 0 mod n is dropped."""
        if n < 2:
            raise InputError(f"graph order must be at least 2, got {n}")
        bits = bytearray((n + 7) // 8)
        for j in jumps:
            for v in (int(j) % n, -int(j) % n):
                bits[v >> 3] |= 1 << (v & 7)
        row = int.from_bytes(bits, "little") & -2
        if not row:
            raise EmptyJumpSetError(f"no nonzero jumps mod {n}")
        return cls(n, row)

    def _bits(self, count: int) -> np.ndarray:
        """Bits 0..count - 1 of the row as a boolean array."""
        raw = np.frombuffer(self.row.to_bytes((self.n + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, count=count, bitorder="little").view(bool)

    @property
    def connection_row(self) -> np.ndarray:
        """Row 0 of the adjacency as a boolean array: True at the offsets."""
        return self._bits(self.n)

    @property
    def jumps(self) -> tuple[int, ...]:
        """The normalized jump set: the offsets in 1..n // 2."""
        return tuple(np.flatnonzero(self._bits(self.n // 2 + 1)).tolist())

    def offsets(self) -> tuple[int, ...]:
        """Sorted distinct offsets {j, n - j} as residues in 1..n-1."""
        return tuple(np.flatnonzero(self.connection_row).tolist())

    def __str__(self) -> str:
        return f"C{self.n}({','.join(map(str, self.jumps))})"


def complement_spec(spec: CirculantSpec) -> CirculantSpec:
    """The complement: the connection row with every bit but bit 0 flipped.

    Raises :class:`EmptyComplementError` when the input is the complete graph.
    """
    n = spec.n
    row = ((1 << n) - 2) ^ spec.row
    if not row:
        raise EmptyComplementError(f"complement of {spec} has no edges")
    return CirculantSpec(n, row)


class GenericGraph:
    """Simple undirected graph over vertices 0..n-1.

    Stores a read-only boolean adjacency matrix. Its distance counts are
    kept in ``_distance_counts`` by ``metrics.distance_counts`` once they
    are computed; the adjacency never changes, so they never go stale.
    """

    __slots__ = ("adj", "n", "index_base", "_distance_counts")

    def __init__(
        self,
        adj: np.ndarray,
        *,
        index_base: int = 0,
        validate: bool = True,
    ) -> None:
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError("adjacency must be a square matrix")
        if validate:
            if adj.diagonal().any():
                raise InputError("self-loops are not allowed")
            if not np.array_equal(adj, adj.T):
                raise InputError("adjacency must be symmetric")
        if adj.flags.writeable:
            adj = adj.copy()
            adj.setflags(write=False)
        self.adj = adj
        self.n = adj.shape[0]
        self.index_base = index_base
        self._distance_counts: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1).astype(np.int64)

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        return np.argwhere(np.triu(self.adj))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenericGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __repr__(self) -> str:
        return f"<GenericGraph n={self.n} m={self.edge_count}>"


def _circulant_matrix(first_row: np.ndarray) -> np.ndarray:
    """Dense matrix with entry (i, j) = first_row[(j - i) mod n]."""
    n = first_row.shape[0]
    buf = np.concatenate([first_row, first_row])
    s = buf.strides[0]
    view = np.lib.stride_tricks.as_strided(buf[n:], shape=(n, n), strides=(-s, s))
    return view.copy()


def build_circulant(spec: CirculantSpec) -> GenericGraph:
    """Materialize the adjacency of a circulant graph."""
    return GenericGraph(_circulant_matrix(spec.connection_row), validate=False)


def complement_graph(g: GenericGraph) -> GenericGraph:
    """Complement of an arbitrary graph: flip every off-diagonal entry."""
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return GenericGraph(adj, index_base=g.index_base, validate=False)


def _content_rows(text: str) -> tuple[list[str], list[int], list[list[str]]]:
    """The lines of a fixture, the indices of its content lines (neither
    blank nor ``#`` comments) and their tokens; each line is split once."""
    lines = text.splitlines()
    split = list(map(str.split, lines))
    keep = [i for i, parts in enumerate(split) if parts and parts[0][0] != "#"]
    return lines, keep, [split[i] for i in keep]


def _ints_before_fault(rows: list[list[str]]) -> tuple[list[int], int]:
    """The tokens of ``rows`` as ints, through one ``int`` map, up to the
    first row holding a non-integer token; and that row's index
    (``len(rows)`` when there is none)."""
    values: list[int] = []
    try:
        values.extend(map(int, chain.from_iterable(rows)))
        return values, len(rows)
    except ValueError:
        # extend keeps the integers converted before the bad token
        ends = np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)))
        row = int(np.searchsorted(ends, len(values), side="right"))
        return values[: int(ends[row]) - len(rows[row])], row


def _int64_array(values: list[int]) -> np.ndarray:
    """``values`` as int64; a value past int64 becomes +-2**62, outside the
    vertex range of any graph that fits in memory either way."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        cap = 1 << 62
        return np.array([max(-cap, min(v, cap)) for v in values], dtype=np.int64)


def _first_true(mask: np.ndarray) -> int:
    """Index of the first True entry of ``mask``, or its length if none."""
    return int(np.argmax(mask)) if mask.any() else mask.size


def parse_graph_fixture(text: str) -> GenericGraph:
    """Parse the edge-list fixture format.

    Line 1 is ``n`` optionally followed by ``one-indexed``; every following
    non-empty, non-comment line is ``u v``. Vertices are stored 0-indexed
    regardless of the declared base.

    The edge lines are checked as whole arrays: token counts, one ``int``
    map, then range, self-loop and duplicate masks over the (m, 2) vertex
    array (a duplicate is an unordered pair seen on an earlier line), and
    the adjacency is filled by fancy indexing. A faulty fixture reports its
    earliest bad line; within a line the checks keep the order token count,
    integer, range (u, then v), self-loop, duplicate.
    """
    lines, keep, rows = _content_rows(text)
    if not rows:
        raise FixtureParseError("fixture has no header line")
    lineno, parts = keep[0] + 1, rows[0]
    if len(parts) not in (1, 2) or (len(parts) == 2 and parts[1] != "one-indexed"):
        raise FixtureParseError(f"line {lineno}: bad header {lines[keep[0]].strip()!r}")
    try:
        n = int(parts[0])
    except ValueError:
        raise FixtureParseError(f"line {lineno}: bad vertex count {parts[0]!r}")
    if n < 1:
        raise FixtureParseError(f"line {lineno}: vertex count must be positive")
    base = 1 if len(parts) == 2 else 0
    try:
        adj = np.zeros((n, n), dtype=bool)
    except (ValueError, MemoryError):  # numpy refuses an array it cannot hold
        raise FixtureParseError(f"line {lineno}: vertex count {n} is too large")

    keep, rows = keep[1:], rows[1:]
    # Each stage runs on the lines before the previous stage's first fault,
    # so the earliest bad line wins and a line's first fault names it.
    sized = _first_true(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) != 2)
    values, numeric = _ints_before_fault(rows[:sized])
    uv = _int64_array(values).reshape(-1, 2) - base
    outside = ((uv < 0) | (uv >= n)).any(axis=1)
    loop = uv[:, 0] == uv[:, 1]
    # An out-of-range line's key means nothing, but that line is reported
    # before any later line its key could be taken to repeat.
    lo, hi = np.sort(uv, axis=1).T
    _, first_seen, which = np.unique(lo * n + hi, return_index=True, return_inverse=True)
    repeated = first_seen[which] != np.arange(numeric)
    bad = _first_true(outside | loop | repeated)
    if bad < numeric:
        lineno = keep[bad] + 1
        u, v = values[2 * bad] - base, values[2 * bad + 1] - base
        for w in (u, v):
            if not 0 <= w < n:
                raise VertexRangeError(f"line {lineno}: vertex {w + base} outside 0..{n - 1 + base}")
        if u == v:
            raise FixtureParseError(f"line {lineno}: self-loop at vertex {u + base}")
        raise DuplicateEdgeError(f"line {lineno}: duplicate edge {u + base} {v + base}")
    if numeric < sized:
        stripped = lines[keep[numeric]].strip()
        raise FixtureParseError(f"line {keep[numeric] + 1}: non-integer vertex in {stripped!r}")
    if sized < len(rows):
        stripped = lines[keep[sized]].strip()
        raise FixtureParseError(f"line {keep[sized] + 1}: expected 'u v', got {stripped!r}")
    adj[uv[:, 0], uv[:, 1]] = True
    adj[uv[:, 1], uv[:, 0]] = True
    return GenericGraph(adj, index_base=base, validate=False)
