"""Construction of circulant graphs, complements, and generic graph fixtures.

A circulant graph on n vertices is identified by its jump set: vertex v is
adjacent to (v + j) mod n and (v - j) mod n for every jump j. Jump sets are
kept in a canonical form (folded into 1..n//2, deduplicated, sorted), so two
specs describe the same graph exactly when they compare equal. Each spec
computes its connection row (row 0 of the adjacency) and its offsets at
most once; the complement spec is that row flipped.

Generic graphs are backed by a read-only boolean adjacency matrix; the
class exposes degrees and the edge list on top of it. Edge-list fixtures
are split once per line and then checked as whole arrays (token counts,
integers, range, self-loops, duplicates); a faulty fixture names its
earliest bad line.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
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


def normalize_jumps(n: int, raw: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a multiset of raw jump values for order ``n``.

    Each value is reduced mod n, zeros are dropped, s is identified with
    n - s, and the result is deduplicated and sorted.
    """
    if n < 2:
        raise InputError(f"graph order must be at least 2, got {n}")
    folded = set()
    for s in raw:
        s = int(s) % n
        if s == 0:
            continue
        folded.add(min(s, n - s))
    if not folded:
        raise EmptyJumpSetError(f"no nonzero jumps mod {n}")
    return tuple(sorted(folded))


@dataclass(frozen=True)
class CirculantSpec:
    """Canonical identity of a circulant graph: order plus normalized jump set."""

    n: int
    jumps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InputError(f"graph order must be at least 2, got {self.n}")
        if not self.jumps:
            raise EmptyJumpSetError("jump set is empty")
        object.__setattr__(self, "jumps", tuple(int(j) for j in self.jumps))
        half = self.n // 2
        prev = 0
        for j in self.jumps:
            if not prev < j <= half:
                raise InputError(
                    f"jump set {self.jumps} is not normalized for n={self.n}; "
                    f"use CirculantSpec.of()"
                )
            prev = j

    @classmethod
    def of(cls, n: int, jumps: Iterable[int]) -> "CirculantSpec":
        """Build a spec from arbitrary raw jump values, normalizing them."""
        return cls(n, normalize_jumps(n, jumps))

    @cached_property
    def connection_row(self) -> np.ndarray:
        """Read-only row 0 of the adjacency: True at the offsets {j, n - j}."""
        row = bytearray(self.n)
        for j in self.jumps:
            row[j] = row[self.n - j] = 1
        return np.frombuffer(bytes(row), dtype=bool)  # read-only view of bytes

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.connection_row).tolist())

    def offsets(self) -> tuple[int, ...]:
        """Sorted distinct offsets {j, n - j} as residues in 1..n-1."""
        return self._offsets

    def __str__(self) -> str:
        return f"C{self.n}({','.join(str(j) for j in self.jumps)})"

    def __getstate__(self) -> dict:
        # Pickle the identity only; the cached rows are rebuilt on demand.
        return {"n": self.n, "jumps": self.jumps}


def complement_spec(spec: CirculantSpec) -> CirculantSpec:
    """Complement jump set {1..n//2} minus spec.jumps: the flipped connection row.

    Raises :class:`EmptyComplementError` when the input is the complete graph.
    """
    n = spec.n
    row = ~spec.connection_row
    row[0] = False
    offsets = tuple(np.flatnonzero(row).tolist())
    if not offsets:
        raise EmptyComplementError(f"complement of {spec} has no edges")
    row.setflags(write=False)
    # The offsets up to n // 2 are sorted, distinct, in range and Python ints,
    # so the spec skips __post_init__'s per-jump check; the flip is the
    # complement's row, and its set bits are its offsets.
    comp = object.__new__(CirculantSpec)
    comp.__dict__.update(
        n=n,
        jumps=offsets[: bisect_right(offsets, n // 2)],
        connection_row=row,
        _offsets=offsets,
    )
    return comp


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
