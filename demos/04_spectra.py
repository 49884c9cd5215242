"""Distance spectra of circulants: numeric eigenvalues vs the exact radius.

Circulant matrices diagonalize in the Fourier basis, so the distance
eigenvalues are cosine sums of the distance vector. For a connected
circulant the largest one is exactly the (integer) transmission -- the
numeric spectrum serves as an independent cross-check of that identity.
"""

import numpy as np

from circan import (
    CirculantSpec,
    circulant_spectrum,
    complement_spec,
    distance_vector,
)

showcase = [
    CirculantSpec.of(4, [1, 2]),                       # complete graph
    complement_spec(CirculantSpec.of(8, [1, 4])),      # dense diameter-2 graph
    complement_spec(CirculantSpec.of(8, [1, 2, 4])),   # 8-cycle in disguise
]
for spec in showcase:
    dv = distance_vector(spec)
    spectrum = circulant_spectrum(dv)
    exact = dv.transmission  # the exact radius: the constant row sum
    print(f"{spec}: radius {spectrum.radius:.12f} (exact {exact}), "
          f"trace {spectrum.trace:+.2e}")
    print("  eigenvalues:", np.round(spectrum.eigenvalues, 6).tolist())

# --- the FFT evaluates the cosine sums ---------------------------------------
dv = distance_vector(CirculantSpec.of(1200, [1, 7, 30]))
k = np.arange(dv.n)
cosine_sums = np.sort(np.cos(2 * np.pi * np.outer(k, k) / dv.n) @ dv.d)[::-1]
fft = circulant_spectrum(dv).eigenvalues
print(f"\nn=1200: max |cosine sum - fft| = {np.abs(cosine_sums - fft).max():.3e}")

# --- radius tracks the transmission across a family ---------------------------
print("\ncomplements of C_n(1, n/2): exact radius is n + 2")
for k in (4, 10, 25, 60):
    comp = complement_spec(CirculantSpec.of(2 * k, [1, k]))
    dv = distance_vector(comp)
    print(f"  n={2*k:3d}: radius {circulant_spectrum(dv).radius:10.6f}"
          f"  exact {dv.transmission}")
