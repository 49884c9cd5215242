import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circan import (
    CirculantSpec,
    DistanceVector,
    circulant_spectrum,
    complement_spec,
    distance_vector,
)
from circan.errors import DisconnectedGraphError
from circan.spectral import spectral_radii

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
        eig = circulant_spectrum(dv)
        assert np.allclose(eig, [3.0, -1.0, -1.0, -1.0], atol=1e-12)

    def test_complement_of_half_jump(self):
        assert abs(circulant_spectrum(_complement_dv(8, [1, 4]))[0] - 10.0) < 1e-9

    def test_complement_of_multiplicative_eight(self):
        assert abs(circulant_spectrum(_complement_dv(8, [1, 2, 4]))[0] - 16.0) < 1e-9

    def test_sorted_descending(self):
        eig = circulant_spectrum(_complement_dv(20, [1, 3]))
        assert (np.diff(eig) <= 1e-12).all()

    @pytest.mark.parametrize("n,jumps", [(2, [1]), (4, [1]), (97, [1, 5]), (1009, [1, 30])])
    def test_read_only_descending_float64_vector(self, n, jumps):
        # 2 has a half transform of two entries and nothing to mirror; 97 and
        # 1009 are odd primes, mirrored all but lambda_0
        eig = circulant_spectrum(distance_vector(CirculantSpec.of(n, jumps)))
        assert type(eig) is np.ndarray
        assert eig.dtype == np.float64 and eig.shape == (n,)
        assert not eig.flags.writeable
        with pytest.raises(ValueError):
            eig[0] = 0.0
        assert (eig[:-1] >= eig[1:]).all()

    def test_direct_and_fft_agree(self):
        # 997 is prime and 1322 = 2 * 661: orders whose transform takes the
        # large-prime (Bluestein) path
        for n, jumps in [(2, [1]), (7, [1, 2]), (700, [1, 9]), (997, [1, 30]),
                         (1000, [3, 14, 20]), (1322, [1, 9, 200]), (1500, [1])]:
            dv = distance_vector(CirculantSpec.of(n, jumps))
            direct = np.sort(_dft_direct(dv.d.astype(np.float64)))[::-1]
            fft = circulant_spectrum(dv)
            scale = max(1.0, float(np.abs(direct).max()))
            assert np.abs(direct - fft).max() <= 1e-9 * scale


class TestMirror:
    """lambda_(n-j) == lambda_j bit for bit: every eigenvalue comes in a
    bitwise-equal pair, except lambda_0 (the radius) and, for even n,
    lambda_(n/2)."""

    @given(st.integers(2, 600), st.lists(st.integers(1, 300), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_mirrored_eigenvalues_are_bitwise_equal(self, n, jumps):
        jumps = [j % n for j in jumps if j % n]
        assume(jumps)
        try:
            dv = distance_vector(CirculantSpec.of(n, jumps))
        except DisconnectedGraphError:
            assume(False)
        eig = circulant_spectrum(dv)
        bits, counts = np.unique(eig.view(np.int64), return_counts=True)
        assert len(bits) <= n // 2 + 1
        single = set(bits[counts % 2 == 1].tolist())
        radius = int(eig[:1].view(np.int64)[0])
        assert radius in single
        single.discard(radius)
        if n % 2:
            assert not single
        else:
            # lambda_(n/2) is the alternating sum of the distances, an
            # integer strictly below the radius
            (middle,) = single
            alternating = int(dv.d[::2].sum() - dv.d[1::2].sum())
            value = float(np.int64(middle).view(np.float64))
            assert abs(value - alternating) <= 1e-9 * dv.transmission


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
            eig = circulant_spectrum(dv)
            exact = dv.transmission
            assert abs(eig[0] - exact) <= 1e-6 * exact, spec
            # zero trace of the distance matrix
            tol = 1e-6 * dv.n * max(1, dv.diameter)
            assert abs(eig.sum()) <= tol, spec
            # the radius is the constant row sum of a nonnegative matrix
            assert eig.max() <= exact + 1e-6 * exact, spec


# primes, and orders whose large prime factor sends rfft down its slow path
_ODD_ORDERS = (2, 3, 7, 97, 509, 1009, 1994, 2003, 2053, 2099)


def _palindromic_stack(k: int, n: int, seed: int) -> np.ndarray:
    """k random rows that ``DistanceVector`` accepts: 0 at vertex 0, then a
    palindrome of distances in 1..max, max drawn below n per stack."""
    rng = np.random.default_rng(seed)
    half = rng.integers(1, int(rng.integers(1, n)) + 1, size=(k, n // 2 + 1))
    stack = half[:, np.minimum(np.arange(n), n - np.arange(n))]
    stack[:, 0] = 0
    return stack


class TestStackedRadii:
    """Each stacked maximum is the head of its row's full sorted spectrum,
    bit for bit: every ``spectral_max`` text of ``verify`` relies on it."""

    @given(k=st.integers(1, 40),
           n=st.one_of(st.integers(2, 2100), st.sampled_from(_ODD_ORDERS)),
           seed=st.integers(0, 2**32 - 1))
    @example(k=30, n=2003, seed=1)
    @example(k=30, n=1994, seed=2)
    @example(k=1, n=2, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_row_maxima_equal_the_one_vector_radius(self, k, n, seed):
        stack = _palindromic_stack(k, n, seed)
        radii = spectral_radii(stack)
        assert radii.shape == (k,)
        for row, radius in zip(stack, radii.tolist()):
            assert radius.hex() == float(circulant_spectrum(DistanceVector(n, row))[0]).hex()
