"""Construction of circulant graphs, complements, and generic graph fixtures.

A circulant graph on n vertices is identified by its jump set: vertex v is
adjacent to (v + j) mod n and (v - j) mod n for every jump j. Jump sets are
kept in a canonical form (folded into 1..n//2, deduplicated, sorted), so two
specs describe the same graph exactly when they compare equal. Each spec
computes its connection row (row 0 of the adjacency) and its offsets at
most once; the complement spec is that row flipped.

Generic graphs are backed by a read-only boolean adjacency matrix; the class
exposes sorted neighbor arrays and edge lists on top of it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EmptyComplementError,
    EmptyJumpSetError,
    FixtureParseError,
    VertexRangeError,
)


def normalize_jumps(n: int, raw: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a multiset of raw jump values for order ``n``.

    Each value is reduced mod n, zeros are dropped, s is identified with
    n - s, and the result is deduplicated and sorted.
    """
    if n < 2:
        raise ValueError(f"graph order must be at least 2, got {n}")
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
            raise ValueError(f"graph order must be at least 2, got {self.n}")
        if not self.jumps:
            raise EmptyJumpSetError("jump set is empty")
        object.__setattr__(self, "jumps", tuple(int(j) for j in self.jumps))
        half = self.n // 2
        prev = 0
        for j in self.jumps:
            if not prev < j <= half:
                raise ValueError(
                    f"jump set {self.jumps} is not normalized for n={self.n}; "
                    f"use CirculantSpec.of()"
                )
            prev = j

    @classmethod
    def of(cls, n: int, jumps: Iterable[int]) -> "CirculantSpec":
        """Build a spec from arbitrary raw jump values, normalizing them."""
        return cls(n, normalize_jumps(n, jumps))

    @property
    def k(self) -> int:
        """Number of jumps."""
        return len(self.jumps)

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

    @property
    def degree(self) -> int:
        """Common vertex degree: the number of distinct nonzero offsets."""
        return int(np.count_nonzero(self.connection_row))

    def offsets(self) -> tuple[int, ...]:
        """Sorted distinct offsets {j, n - j} as residues in 1..n-1."""
        return self._offsets

    def complement(self) -> "CirculantSpec":
        """Spec of the complement graph (set complement of the jump set)."""
        return complement_spec(self)

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

    Stores a read-only boolean adjacency matrix.
    """

    __slots__ = ("adj", "n", "index_base")

    def __init__(
        self,
        adj: np.ndarray,
        *,
        index_base: int = 0,
        validate: bool = True,
    ) -> None:
        adj = np.asarray(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if validate:
            if adj.diagonal().any():
                raise ValueError("self-loops are not allowed")
            if not np.array_equal(adj, adj.T):
                raise ValueError("adjacency must be symmetric")
        if adj.flags.writeable:
            adj = adj.copy()
            adj.setflags(write=False)
        self.adj = adj
        self.n = adj.shape[0]
        self.index_base = index_base

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], *, index_base: int = 0
    ) -> "GenericGraph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            adj[u, v] = adj[v, u] = True
        np.fill_diagonal(adj, False)
        return cls(adj, index_base=index_base)

    @property
    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1).astype(np.int64)

    def degree(self, v: int) -> int:
        return int(self.adj[v].sum())

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of v."""
        return np.flatnonzero(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

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


def parse_graph_fixture(text: str) -> GenericGraph:
    """Parse the edge-list fixture format.

    Line 1 is ``n`` optionally followed by ``one-indexed``; every following
    non-empty, non-comment line is ``u v``. Vertices are stored 0-indexed
    regardless of the declared base.
    """
    lines = text.splitlines()
    header_seen = False
    n = 0
    base = 0
    adj: np.ndarray | None = None
    seen: set[tuple[int, int]] = set()
    for lineno, lin in enumerate(lines, start=1):
        stripped = lin.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if not header_seen:
            if len(parts) not in (1, 2) or (len(parts) == 2 and parts[1] != "one-indexed"):
                raise FixtureParseError(f"line {lineno}: bad header {stripped!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise FixtureParseError(f"line {lineno}: bad vertex count {parts[0]!r}")
            if n < 1:
                raise FixtureParseError(f"line {lineno}: vertex count must be positive")
            base = 1 if len(parts) == 2 else 0
            adj = np.zeros((n, n), dtype=bool)
            header_seen = True
            continue
        if len(parts) != 2:
            raise FixtureParseError(f"line {lineno}: expected 'u v', got {stripped!r}")
        try:
            u, v = int(parts[0]) - base, int(parts[1]) - base
        except ValueError:
            raise FixtureParseError(f"line {lineno}: non-integer vertex in {stripped!r}")
        for w in (u, v):
            if not 0 <= w < n:
                raise VertexRangeError(f"line {lineno}: vertex {w + base} outside 0..{n - 1 + base}")
        if u == v:
            raise FixtureParseError(f"line {lineno}: self-loop at vertex {u + base}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"line {lineno}: duplicate edge {u + base} {v + base}")
        seen.add(key)
        assert adj is not None
        adj[u, v] = adj[v, u] = True
    if not header_seen:
        raise FixtureParseError("fixture has no header line")
    assert adj is not None
    return GenericGraph(adj, index_base=base, validate=False)
