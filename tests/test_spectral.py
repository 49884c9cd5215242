import numpy as np
import pytest

from circan import (
    CirculantSpec,
    DistanceVector,
    circulant_spectrum,
    complement_spec,
    distance_vector,
)
from circan.errors import DisconnectedGraphError

from conftest import random_connected_specs


def _dft_direct(d):
    """Reference oracle: the cosine sums sum_k d[k] cos(2 pi j k / n), in
    chunks of rows so the cosine matrix stays small."""
    n = d.shape[0]
    out = np.empty(n, dtype=np.float64)
    k = np.arange(n, dtype=np.float64)
    step = max(1, 4_000_000 // n)
    for start in range(0, n, step):
        j = np.arange(start, min(start + step, n), dtype=np.float64)
        out[start : start + len(j)] = np.cos(np.outer(j, k) * (2.0 * np.pi / n)) @ d
    return out


def _complement_dv(n, jumps):
    return distance_vector(complement_spec(CirculantSpec.of(n, jumps)))


class TestSpectrum:
    def test_complete_graph(self):
        dv = DistanceVector(4, np.array([0, 1, 1, 1]))
        eig = circulant_spectrum(dv).eigenvalues
        assert np.allclose(eig, [3.0, -1.0, -1.0, -1.0], atol=1e-12)

    def test_complement_of_half_jump(self):
        spectrum = circulant_spectrum(_complement_dv(8, [1, 4]))
        assert abs(spectrum.radius - 10.0) < 1e-9

    def test_complement_of_multiplicative_eight(self):
        spectrum = circulant_spectrum(_complement_dv(8, [1, 2, 4]))
        assert abs(spectrum.radius - 16.0) < 1e-9

    def test_sorted_descending(self):
        eig = circulant_spectrum(_complement_dv(20, [1, 3])).eigenvalues
        assert (np.diff(eig) <= 1e-12).all()

    def test_direct_and_fft_agree(self):
        for n, jumps in [(2, [1]), (7, [1, 2]), (700, [1, 9]), (1000, [3, 14, 20]),
                         (1500, [1])]:
            dv = distance_vector(CirculantSpec.of(n, jumps))
            direct = np.sort(_dft_direct(dv.d.astype(np.float64)))[::-1]
            fft = circulant_spectrum(dv).eigenvalues
            scale = max(1.0, float(np.abs(direct).max()))
            assert np.abs(direct - fft).max() <= 1e-9 * scale


class TestExactRadius:
    """The exact radius is the transmission, the distance matrix's constant
    row sum."""

    def test_seven_vertex_complements(self):
        assert _complement_dv(7, [1, 2]).transmission == 12
        assert _complement_dv(7, [1, 3]).transmission == 12

    def test_double_loop_complement(self):
        # complement of C_10(1, 2): radius n + 3
        assert _complement_dv(10, [1, 2]).transmission == 13

    def test_complete_graph(self):
        assert distance_vector(CirculantSpec.of(4, [1, 2])).transmission == 3

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            distance_vector(CirculantSpec.of(8, [2, 4]))


class TestSpectrumInvariants:
    def test_perron_agreement_and_trace(self):
        specs = random_connected_specs(25, 300, seed=7001)
        specs += [CirculantSpec.of(2048, [1, 17]), CirculantSpec.of(1024, [1, 2, 3])]
        for spec in specs:
            dv = distance_vector(spec)
            spectrum = circulant_spectrum(dv)
            exact = dv.transmission
            assert abs(spectrum.radius - exact) <= 1e-6 * exact, spec
            # zero trace of the distance matrix
            tol = 1e-6 * dv.n * max(1, dv.diameter)
            assert abs(spectrum.trace) <= tol, spec
            # the radius is the constant row sum of a nonnegative matrix
            assert spectrum.eigenvalues.max() <= exact + 1e-6 * exact, spec
