"""Eigenvalues of circulant distance matrices.

A circulant matrix with first row d has eigenvalues
lambda_j = sum_k d[k] * exp(2*pi*i*j*k / n), the DFT of d. A distance
vector is a palindrome, d[k] == d[n - k] (``DistanceVector`` enforces it),
so every lambda_j is real, and the spectrum is the real part of the
transform. The input is real, so the transform's entry n - j is the complex
conjugate of entry j and their real parts are equal: lambda_(n-j) ==
lambda_j. The spectrum is therefore computed once, as the half transform
(``np.fft.rfft``, entries 0..n // 2), and the other entries are its mirror,
half[1 : n - len(half) + 1]. Each mirrored eigenvalue is the same float as
its partner, bit for bit, where the full complex FFT would round the two
apart.

The exact spectral radius of a connected circulant's distance matrix is its
(constant) row sum, the transmission of any vertex, which callers read as
``DistanceVector.transmission``: that integer is authoritative, the numeric
spectrum is a cross-check oracle. ``circulant_spectrum`` lists all n
eigenvalues, mirrored and sorted; ``spectral_radii`` reads only the half
transform's maximum, of one vector or of each row of a (k, n) stack in one
``rfft`` call, each row bit for bit its own (see DECISIONS.md).
"""

from __future__ import annotations

import numpy as np

from .metrics import DistanceVector


def _half_spectra(d: np.ndarray) -> np.ndarray:
    """lambda_0..lambda_(n // 2) along the last axis of ``d``: the real part
    of the half transform."""
    return np.fft.rfft(d.astype(np.float64)).real


def circulant_spectrum(dv: DistanceVector) -> np.ndarray:
    """Numeric eigenvalues of the distance matrix with first row ``dv``:
    a read-only float64 array of shape (n,), sorted descending, so its
    first entry is the numeric radius."""
    half = _half_spectra(dv.d)
    eigenvalues = np.sort(np.concatenate((half, half[1 : dv.n - len(half) + 1])))[::-1]
    eigenvalues.setflags(write=False)
    return eigenvalues


def spectral_radii(d: np.ndarray) -> np.ndarray:
    """The largest numeric eigenvalue of each distance vector along the last
    axis of ``d``, one vector (n,) or a stack (k, n): the half transform's
    maximum, bit for bit the first entry of ``circulant_spectrum``, without
    mirroring or sorting."""
    return _half_spectra(d).max(axis=-1)
