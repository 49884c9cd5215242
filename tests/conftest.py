from pathlib import Path

import numpy as np
import pytest

from circan import CirculantSpec, distance_vector
from circan.errors import DisconnectedGraphError

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fig1_text() -> str:
    return (FIXTURES / "fig1.graph").read_text()


@pytest.fixture(scope="session")
def r1_text() -> str:
    return (FIXTURES / "fig1_r1.routes").read_text()


@pytest.fixture(scope="session")
def r2_text() -> str:
    return (FIXTURES / "fig1_r2.routes").read_text()


def random_connected_specs(count: int, max_n: int, seed: int) -> list[CirculantSpec]:
    """Deterministic corpus of connected circulant specs, mixing sparse and
    dense jump sets."""
    rng = np.random.default_rng(seed)
    specs: list[CirculantSpec] = []
    while len(specs) < count:
        n = int(rng.integers(5, max_n + 1))
        half = n // 2
        k_cap = half if len(specs) % 3 == 0 else min(6, half)
        k = int(rng.integers(1, k_cap + 1))
        jumps = rng.choice(np.arange(1, half + 1), size=min(k, half), replace=False)
        spec = CirculantSpec.of(n, (int(j) for j in jumps))
        try:
            distance_vector(spec)
        except DisconnectedGraphError:
            continue
        specs.append(spec)
    return specs


def distance_matrix(dv) -> np.ndarray:
    """The rotation expansion of a circulant distance vector: entry (i, j)
    is dv.d[(j - i) mod n]."""
    shift = np.arange(dv.n)
    return dv.d[(shift[None, :] - shift[:, None]) % dv.n]


def has_property_star(g) -> bool:
    """True iff every edge {u, v} has a third vertex adjacent to neither
    endpoint."""
    non = ~g.adj
    np.fill_diagonal(non, False)
    u, v = g.edges().T
    return bool((non[u] & non[v]).any(axis=1).all())
