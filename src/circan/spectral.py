"""Eigenvalues of circulant distance matrices.

A circulant matrix with first row d has eigenvalues
sum_k d[k] * exp(2*pi*i*j*k / n), the DFT of d; palindrome symmetry of
distance vectors makes them real, so the real part of the FFT suffices. The
exact spectral radius of a connected circulant's distance matrix is its
(constant) row sum, the transmission of any vertex, which callers read as
``DistanceVector.transmission``: that integer is authoritative, the numeric
spectrum is a cross-check oracle. Callers that need only the numeric radius
read the FFT's maximum; only the full listing sorts.
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


def _eigenvalues(dv: DistanceVector) -> np.ndarray:
    return np.fft.fft(dv.d.astype(np.float64)).real


def circulant_spectrum(dv: DistanceVector) -> Spectrum:
    """Numeric eigenvalues of the distance matrix with first row ``dv``."""
    return Spectrum(np.sort(_eigenvalues(dv))[::-1])


def spectral_radius_numeric(dv: DistanceVector) -> float:
    """The largest numeric eigenvalue, the FFT's maximum: bit for bit
    ``circulant_spectrum(dv).radius``, without sorting the spectrum."""
    return float(_eigenvalues(dv).max())
