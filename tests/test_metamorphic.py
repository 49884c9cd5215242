"""Metamorphic relations: the engine checked against itself under a
transformation, at orders the O(n^2) oracles of ``conftest`` do not reach.

* Multiplier isomorphism. For u coprime to n, v -> u v maps C_n(S) onto
  C_n(uS), so d_uS(u v) = d_S(v): the two index reports are equal and the
  sorted spectra agree.
* Diameter-2 complements. The distance matrix of a diameter-2 complement
  is J - I + A(base), so for j != 0 its eigenvalue is
  -1 + sum(cos(2 pi j s / n)) over the base offsets s.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    circulant_spectrum,
    complement_spec,
    distance_vector,
    report_from_distance_vector,
)
from circan.errors import DisconnectedGraphError


@st.composite
def specs(draw, lo: int, hi: int):
    """A spec of order lo..hi with one to five raw jumps."""
    n = draw(st.integers(lo, hi))
    jumps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=5))
    return CirculantSpec.of(n, jumps)


@st.composite
def multiplied(draw):
    """A spec and a multiplier u coprime to its order."""
    spec = draw(specs(5, 3000))
    n = spec.n
    k = draw(st.integers(1, n - 1))
    return spec, next(u for u in range(k, k + n) if math.gcd(u, n) == 1) % n


class TestMultiplierIsomorphism:
    @settings(max_examples=120, deadline=None)
    @given(multiplied())
    @example((CirculantSpec.of(4096, [1, 64]), 1365))
    @example((CirculantSpec.of(3000, [6, 10, 15]), 7))
    def test_image_has_the_same_distances(self, case):
        spec, u = case
        n = spec.n
        image = CirculantSpec.of(n, [u * j for j in spec.jumps])
        try:
            dv = distance_vector(spec)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                distance_vector(image)
            return
        moved = distance_vector(image)
        assert np.array_equal(moved.d[u * np.arange(n) % n], dv.d)
        assert report_from_distance_vector(moved) == report_from_distance_vector(dv)
        gap = np.abs(circulant_spectrum(moved) - circulant_spectrum(dv)).max()
        assert gap <= 1e-9 * dv.transmission


class TestDiameterTwoComplementSpectrum:
    @settings(max_examples=150, deadline=None)
    @given(specs(16, 4000))
    @example(CirculantSpec.of(16384, [3, 211, 4000]))
    def test_eigenvalues_from_base_offsets(self, base):
        n = base.n
        try:
            dv = distance_vector(complement_spec(base))
        except DisconnectedGraphError:
            assume(False)
        assume(dv.diameter == 2)
        j = np.arange(1, n // 2 + 1)
        offsets = np.array(base.offsets())
        want = -1 + np.cos(2 * np.pi * np.outer(j, offsets) / n).sum(axis=1)
        half = np.fft.rfft(dv.d.astype(np.float64))
        assert np.abs(half[1:] - want).max() <= 1e-7
        mirrored = np.concatenate(([dv.transmission], want, want[: n - len(want) - 1]))
        assert np.abs(np.sort(mirrored)[::-1] - circulant_spectrum(dv)).max() <= 1e-7
