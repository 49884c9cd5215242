"""The benchmark workloads: seeded inputs and independent output checks.

There are two workloads, ``verify`` and ``analyze``. Each one joins two
parts with their own inputs: verify-mc and verify-dl, or analyze-circulant
and analyze-fixture. Two workloads rather than four leave time for 50 s
runs within the fixed time of a full benchmark round; a longer run's
medians average over more of a noisy shared host's drift.

A workload is a fixed list of CLI invocations (one pass) plus cheap
warm-up invocations, one per part. Every invocation carries its own check,
written against reference values this module derives without circan:
point counts and status sets from the acceptance suite, identities that
must hold for any circulant, and stdlib BFS facts (``oracle``) for fixture
graphs, computed on first use. The seed
only changes the generated inputs (jumps, fixture graphs); the shape of the
pass (orders, jump counts, degrees, operation mix, call order) is fixed, so
work per pass is comparable across seeds.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import oracle

# verify-mc runs the multiplicative class as the CLI's three sub-family
# sweeps. The full acceptance sweep (``--family mc --max-order 4096``, about
# 20 s) is one call, a single sample per pass; short calls give each call
# of the pass 20-25 samples in a run for its median.
# mc-2h to 1024 crosses the witness limit (512) inside the direct-DFT range
# (<= 1024) in about 75 ms; mc-gen to 128 (139 points, mostly h = 1 base
# cycles) takes about 0.25 s, a fifth of a pass.
MC_SWEEPS = (("mc-2h", 1024), ("mc-23", 8), ("mc-gen", 128))
# Passes hold at least 100 calls, so that 10 latencies lie beyond the p90,
# and the pure-Python parts (verify-dl, analyze-circulant) stay near 1 s
# each, so that a run gives each call 10-25 samples for its median. That
# caps the sizes: the general double loop stops at n = 64 (the acceptance
# sweep goes to 100), and a circulant call costs 1.7-3.4 s at 2**20, so
# analyze-circulant stops at 2**14; a fixture call at n = 1024 costs about
# 1 s, so analyze-fixture stops at 256.
DL_GEN_RANGE = (8, 64)
DL_HALF_RANGE = (2, 100)
DL_HALF_WINDOW = 2
CIRC_LOG2_RANGE = (9, 14)
CIRC_KINDS = ("analyze", "analyze-complement", "spectrum")
CIRC_JUMP_COUNTS = (2, 3, 4, 5, 6)
CIRC_PER_KIND = 35
# The exact rt_az rational of a circulant grows with its diameter, and near
# diameter 1700 its str() passes Python's 4300-digit limit, so analyze exits
# 3 (ROADMAP item 3; the known-defect probe reports it in every run). Jump
# sets above this cap are drawn again; most draws stay below 250.
CIRC_MAX_DIAMETER = 1000
# analyze-fixture: graph orders log-spaced over 32..256, mean degree 4..16;
# routing fixtures (n(n-1) explicit paths each) on small graphs of 32..64.
FIXTURE_ORDERS = (32, 256)
FIXTURE_GRAPHS = 50
ROUTING_ORDERS = (32, 64)
ROUTING_GRAPHS = 4
GOLDEN = 0.6180339887498949


class CheckFailed(Exception):
    """An invocation's output disagrees with the reference values."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    argv: list[str]
    units: int  # verification points for verify-*, 1 for analyze-*
    check: Callable[[str], None]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    ops: list[Op]
    warmups: list[Op]


def _log_spaced(lo: float, hi: float, position: float) -> int:
    """The order at ``position`` in [0, 1) of the log scale from lo to hi.

    Orders are fixed rather than drawn from the seed: the largest direct-DFT
    order (<= 1024) of a pass sets its peak RSS, and the largest orders set
    its p90, so drawn orders would move both between seeds.
    """
    return round(lo * (hi / lo) ** position)


# ---------------------------------------------------------------------------
# verify-mc


def mc_family(m: int, h: int) -> str:
    """The sub-family of the multiplicative circulant (m, h), as the paper splits the class."""
    if (m, h) == (2, 3):
        return "mc-23"
    return "mc-2h" if m == 2 else "mc-gen"


def mc_points(family: str, max_order: int) -> list[tuple[int, int]]:
    return [(m, h) for m, h in oracle.multiplicative_orders(max_order) if mc_family(m, h) == family]


def _check_mc(family: str, max_order: int) -> Callable[[str], None]:
    expected = mc_points(family, max_order)
    flagged = {(2, 1), (2, 2), (3, 1), (4, 1)}

    def check(out: str) -> None:
        records = json.loads(out)
        require([(r["m"], r["h"]) for r in records] == expected, f"{family} point list differs")
        for r in records:
            m, h, f = r["m"], r["h"], r["fields"]
            where = f"{family} m={m} h={h}"
            if (m, h) in flagged:
                require(r["status"] == "out_of_domain", f"{where}: expected out_of_domain")
                continue
            require(r["status"] == "in_domain" and r["passed"], f"{where}: not passed")
            for name in ("distance_vector", "base_diameter", "spectral_max", "xi"):
                require(f[name]["match"], f"{where}: {name} mismatch")
            want_xi = 9 if (m, h) == (2, 3) else (2 * h - 1 if m == 2 else 2 * h)
            require(int(f["xi"]["computed"]) == want_xi, f"{where}: xi != {want_xi}")
            if r["n"] <= 512:
                require(f.get("xi_witness", {}).get("match"), f"{where}: no xi witness")

    return check


def _verify_mc(rng: random.Random, workdir: Path) -> Workload:
    def op(family: str, max_order: int) -> Op:
        argv = ["verify", "--family", family, "--max-order", str(max_order), "--format", "json", "--jobs", "1"]
        return Op(argv, len(mc_points(family, max_order)), _check_mc(family, max_order))

    return Workload([op(family, max_order) for family, max_order in MC_SWEEPS], [op("mc-gen", 32)])


# ---------------------------------------------------------------------------
# verify-dl


def _check_gen(lo: int, hi: int) -> Callable[[str], None]:
    expected = [(n, a) for n in range(lo, hi + 1) for a in range(2, (n - 1) // 2 + 1)]

    def check(out: str) -> None:
        rows = list(csv.DictReader(io.StringIO(out)))
        require([(int(r["n"]), int(r["a"])) for r in rows] == expected, f"gen {lo}:{hi} point list differs")
        for r in rows:
            n, a = int(r["n"]), int(r["a"])
            if (n, a) == (8, 3):
                require(r["status"] == "known_exception" and "disconnected" in r["note"],
                        "gen (8,3) is not the known disconnected exception")
                continue
            require(r["status"] == "in_domain" and r["passed"] == "True", f"gen n={n} a={a}: not passed")
            wiener = Fraction(r["wiener_computed"])
            require(wiener == Fraction(n * (n - 1), 2) + 2 * n, f"gen n={n} a={a}: wiener {wiener}")

    return check


def _check_half(lo: int, hi: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        records = json.loads(out)
        require([r["a"] for r in records] == list(range(lo, hi + 1)), f"half {lo}:{hi} point list differs")
        for r in records:
            k = r["a"]
            require(r["n"] == 2 * k, f"half k={k}: n={r['n']}")
            if k in (2, 3):
                require(r["status"] == "out_of_domain", f"half k={k}: expected out_of_domain")
                continue
            require(r["status"] == "in_domain" and r["passed"], f"half k={k}: not passed")
            require(r["fields"]["distance_vector"]["match"], f"half k={k}: distance vector mismatch")

    return check


def _verify_dl(rng: random.Random, workdir: Path) -> Workload:
    """The double-loop sweeps split into calls: one per order of the general
    family for n = 8..64 (57, CSV) and 50 windows of 2 for the half-jump
    family, k = 2..100 (JSON), so one pass yields 107 call latencies."""
    ops = []
    for n in range(DL_GEN_RANGE[0], DL_GEN_RANGE[1] + 1):
        argv = ["verify", "--family", "double-loop-gen", "--n", f"{n}:{n}", "--format", "csv", "--jobs", "1"]
        ops.append(Op(argv, (n - 1) // 2 - 1, _check_gen(n, n)))
    for lo in range(DL_HALF_RANGE[0], DL_HALF_RANGE[1] + 1, DL_HALF_WINDOW):
        hi = min(lo + DL_HALF_WINDOW - 1, DL_HALF_RANGE[1])
        argv = ["verify", "--family", "double-loop-half", "--k", f"{lo}:{hi}", "--format", "json", "--jobs", "1"]
        ops.append(Op(argv, hi - lo + 1, _check_half(lo, hi)))
    return Workload(ops, [ops[0]])


# ---------------------------------------------------------------------------
# analyze-circulant


def _check_analyze(n: int, jumps: tuple[int, ...], complement: bool) -> Callable[[str], None]:
    def check(out: str) -> None:
        doc = json.loads(out)
        graph, met = doc["graph"], doc["metrics"]
        dv = met["distance_vector"]
        require(graph["n"] == n and len(dv) == n and dv[0] == 0, f"n={n}: bad distance vector shape")
        if complement:
            require(len(graph["jumps"]) == n // 2 - len(jumps), f"n={n}: complement jump count")
        else:
            require(tuple(graph["jumps"]) == jumps, f"n={n}: jumps {graph['jumps']} != {jumps}")
        t = sum(dv)
        require(met["transmission"] == t, f"n={n}: transmission != sum of distance vector")
        require(met["diameter"] == max(dv), f"n={n}: diameter != max distance")
        require(graph["degree"] == dv.count(1), f"n={n}: degree != count of distance 1")
        rho = doc["spectrum"]["rho"]
        require(rho == t, f"n={n}: rho != transmission")
        require(abs(doc["spectrum"]["radius_float"] - rho) <= 1e-6 * rho, f"n={n}: radius_float far from rho")
        require(doc["forwarding"]["xi"] == t - (n - 1), f"n={n}: xi != transmission - (n - 1)")
        require(Fraction(doc["indices"]["wiener"]) == Fraction(n * t, 2), f"n={n}: wiener != n*t/2")

    return check


def _check_spectrum(n: int, jumps: tuple[int, ...]) -> Callable[[str], None]:
    def check(out: str) -> None:
        doc = json.loads(out)
        eig = doc["eigenvalues"]
        require(doc["n"] == n and len(eig) == n, f"n={n}: expected {n} eigenvalues, got {len(eig)}")
        require(tuple(doc["jumps"]) == jumps, f"n={n}: jumps differ")
        rho = doc["radius_exact"]
        require(rho >= n - 1, f"n={n}: radius_exact {rho} below n - 1")
        require(eig[0] == max(eig) == doc["radius_float"], f"n={n}: radius_float is not the largest eigenvalue")
        require(abs(doc["radius_float"] - rho) <= 1e-6 * rho, f"n={n}: radius_float far from radius_exact")
        # The distance matrix has a zero diagonal, so its eigenvalues sum to 0.
        require(abs(math.fsum(eig)) <= 1e-6 * n * rho, f"n={n}: eigenvalues do not sum to the zero trace")

    return check


def _analyze_circulant(rng: random.Random, workdir: Path) -> Workload:
    """35 orders per kind, one per log-stratum of 2**9..2**14 (the kinds take
    turns within a stratum), each kind seeing every jump count 2..6 seven
    times in a fixed pattern. The seed draws the jumps."""
    lo, hi = CIRC_LOG2_RANGE
    ops = []
    for j, kind in enumerate(CIRC_KINDS):
        for i in range(CIRC_PER_KIND):
            n = _log_spaced(2**lo, 2**hi, (i + (j + 0.5) / len(CIRC_KINDS)) / CIRC_PER_KIND)
            k = CIRC_JUMP_COUNTS[i % len(CIRC_JUMP_COUNTS)]
            jumps = oracle.jump_set(rng, n, k, CIRC_MAX_DIAMETER)
            source = ["--n", str(n), "--jumps", ",".join(map(str, jumps)), "--format", "json"]
            if kind == "spectrum":
                ops.append(Op(["spectrum", *source], 1, _check_spectrum(n, jumps)))
            else:
                complement = kind == "analyze-complement"
                argv = ["analyze", *source] + (["--complement"] if complement else [])
                ops.append(Op(argv, 1, _check_analyze(n, jumps, complement)))
    return Workload(ops, [min(ops, key=lambda op: int(op.argv[2]))])


# ---------------------------------------------------------------------------
# analyze-fixture


Reference = Callable[[], tuple[oracle.DistanceFacts, set[int], oracle.RoutingFacts | None]]


def _reference(masks: list[int], paths: list[tuple[int, ...]] | None = None) -> Reference:
    """Distance facts, degree set and routing facts of a graph, computed once
    on first use."""

    @functools.cache
    def reference():
        routing = None if paths is None else oracle.routing_facts(len(masks), paths)
        return oracle.distance_facts(masks), {m.bit_count() for m in masks}, routing

    return reference


def _check_fixture(n: int, edge_count: int, reference: Reference) -> Callable[[str], None]:
    """``reference`` is computed on the first check, so that it stays out of
    the benchmark's set-up time."""

    def check(out: str) -> None:
        facts, degrees, routing = reference()
        doc = json.loads(out)
        if "metrics" in doc:
            graph, met = doc["graph"], doc["metrics"]
            require(graph["n"] == n and graph["edge_count"] == edge_count, f"fixture n={n}: size differs")
            require(met["diameter"] == facts.diameter, f"fixture n={n}: diameter {met['diameter']} != {facts.diameter}")
            regular = facts.transmission_regular
            require(met["transmission_regular"] == regular, f"fixture n={n}: transmission regularity differs")
            require(met["transmission"] == (facts.transmissions[0] if regular else None),
                    f"fixture n={n}: transmission differs")
            require(met["degree"] == (next(iter(degrees)) if len(degrees) == 1 else None),
                    f"fixture n={n}: degree differs")
            require(Fraction(doc["indices"]["wiener"]) == facts.wiener, f"fixture n={n}: wiener differs")
        if routing is not None:
            r = doc["routing"]
            loads = list(routing.vertex_loads)
            require(r["paths"] == routing.paths and r["minimal"] is True, f"routing n={n}: not a minimal routing")
            require(r["symmetric"] == routing.symmetric, f"routing n={n}: symmetry differs")
            require(r["vertex_loads"] == loads, f"routing n={n}: vertex loads differ")
            require(r["max_vertex_load"] == r["forwarding_index_wrt_routing"] == max(loads),
                    f"routing n={n}: max vertex load differs")
            require(r["max_edge_load"] == routing.max_edge_load, f"routing n={n}: max edge load differs")

    return check


def _write_graph(path: Path, n: int, edges) -> None:
    path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges), encoding="ascii")


def _analyze_fixture(rng: random.Random, workdir: Path) -> Workload:
    """50 random connected irregular graphs, one per log-stratum of
    32..256, each analyzed plain and complemented; 4 small graphs with a
    BFS-tree routing fixture, each run through ``routing`` and
    ``analyze --routing``. Mean degrees follow a golden-ratio sequence over
    4..16, so every stratum band sees sparse and dense graphs. The seed
    draws the graphs."""
    ops = []
    warmup = None

    def add_graph(i: int, count: int, orders: tuple[int, int], degree_span: tuple[float, float], routed: bool):
        lo, hi = orders
        n = _log_spaced(lo, hi, (i + 0.5) / count)
        d_lo, d_hi = degree_span
        mean_degree = d_lo * (d_hi / d_lo) ** ((i * GOLDEN + 0.5) % 1.0)
        edges = oracle.random_connected_graph(rng, n, mean_degree)
        masks = oracle.neighbour_masks(n, edges)
        stem = f"{'r' if routed else 'g'}{i:02d}_n{n}"
        graph_path = workdir / f"{stem}.graph"
        _write_graph(graph_path, n, edges)
        added = []
        if routed:
            paths = oracle.bfs_tree_routing(masks)
            routes_path = workdir / f"{stem}.routes"
            routes_path.write_text("".join(" ".join(map(str, p)) + "\n" for p in paths), encoding="ascii")
            reference = _reference(masks, paths)
            fixture = ["--fixture", str(graph_path), "--routing", str(routes_path), "--format", "json"]
            added.append(Op(["routing", *fixture], 1, _check_fixture(n, len(edges), reference)))
            added.append(Op(["analyze", *fixture], 1, _check_fixture(n, len(edges), reference)))
        else:
            full = (1 << n) - 1
            complement = [full ^ (m | 1 << v) for v, m in enumerate(masks)]
            fixture = ["--fixture", str(graph_path), "--format", "json"]
            added.append(Op(["analyze", *fixture], 1, _check_fixture(n, len(edges), _reference(masks))))
            cedges = n * (n - 1) // 2 - len(edges)
            added.append(Op(["analyze", *fixture, "--complement"], 1,
                            _check_fixture(n, cedges, _reference(complement))))
        ops.extend(added)
        return added[0]

    for i in range(FIXTURE_GRAPHS):
        first = add_graph(i, FIXTURE_GRAPHS, FIXTURE_ORDERS, (4.0, 16.0), routed=False)
        warmup = warmup or first
    for i in range(ROUTING_GRAPHS):
        add_graph(i, ROUTING_GRAPHS, ROUTING_ORDERS, (4.0, 8.0), routed=True)
    return Workload(ops, [warmup])


PARTS = {
    "verify-mc": _verify_mc,
    "verify-dl": _verify_dl,
    "analyze-circulant": _analyze_circulant,
    "analyze-fixture": _analyze_fixture,
}
WORKLOADS = {  # in the order ``--workload all`` runs them
    "verify": ("verify-mc", "verify-dl"),
    "analyze": ("analyze-circulant", "analyze-fixture"),
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload; fixture files go under workdir.

    Each part draws from its own seeded stream. The joined call list is
    shuffled the same way for every seed: the heap left by one call sets the
    peak RSS of the next large one, so a call order drawn from the seed
    moved ``peak_rss_mb`` between seeds.
    """
    ops: list[Op] = []
    warmups: list[Op] = []
    for part in WORKLOADS[name]:
        wl = PARTS[part](random.Random(f"{part}:{seed}"), workdir)
        ops += wl.ops
        warmups += wl.warmups
    random.Random(name).shuffle(ops)
    return Workload(ops, warmups)
