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
spectrum is a cross-check oracle. Callers that need only the numeric radius
read the half transform's maximum; only the full listing mirrors and sorts.
The transform runs over the last axis, so a (k, n) stack takes one ``rfft``
call, each row bit for bit its own (``spectral_radii``; see DECISIONS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import DistanceVector


@dataclass(frozen=True, eq=False)
class Spectrum:
    """All n eigenvalues of a circulant distance matrix, sorted descending."""

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.eigenvalues, dtype=np.float64)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", arr)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def radius(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())


def _half_spectra(d: np.ndarray) -> np.ndarray:
    """lambda_0..lambda_(n // 2) along the last axis of ``d``: the real part
    of the half transform."""
    return np.fft.rfft(d.astype(np.float64)).real


def circulant_spectrum(dv: DistanceVector) -> Spectrum:
    """Numeric eigenvalues of the distance matrix with first row ``dv``."""
    half = _half_spectra(dv.d)
    full = np.concatenate((half, half[1 : dv.n - len(half) + 1]))
    return Spectrum(np.sort(full)[::-1])


def spectral_radius_numeric(dv: DistanceVector) -> float:
    """The largest numeric eigenvalue, the half transform's maximum: bit
    for bit ``circulant_spectrum(dv).radius``, without mirroring or
    sorting."""
    return float(_half_spectra(dv.d).max())


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """``spectral_radius_numeric`` of each row of a (k, n) stack, bit for bit."""
    return _half_spectra(stack).max(axis=-1)
