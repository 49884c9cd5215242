"""Building circulant graphs and reading off their distance structure.

A circulant graph C_n(S) places n vertices on a ring and joins v to v +/- j
for every jump j in S. Its complement is again circulant: just complement
the jump set inside {1, ..., n//2}. One BFS from vertex 0 then determines
the entire distance matrix, because the matrix is circulant too.
"""

import numpy as np

from circan import (
    CirculantSpec,
    DisconnectedGraphError,
    build_circulant,
    complement_spec,
    distance_vector,
    metrics_summary,
)

# --- constructing specs -----------------------------------------------------
# Jump sets normalize automatically: 13 = -3 mod 16 folds down to 3.
spec = CirculantSpec.of(16, [13, 1])
print("normalized spec:", spec)                      # C16(1,3)
print("degree:", len(spec.offsets()), "offsets:", spec.offsets())

# --- complements ------------------------------------------------------------
half = CirculantSpec.of(8, [1, 4])
comp = complement_spec(half)
print(f"\ncomplement of {half} is {comp}")

# --- distance vectors -------------------------------------------------------
dv = distance_vector(comp)
print("distance vector:", dv.d.tolist())
print("transmission:", dv.transmission, "| reciprocal:", dv.reciprocal_transmission)
print("diameter:", dv.diameter)

# Rotation makes every row of the distance matrix a shift of that one
# vector, so the BFS of the materialized graph from every vertex at once
# must find the same transmission at each vertex, the same reciprocal
# transmission and the same diameter.
brute = metrics_summary(build_circulant(comp))
agree = (brute.transmission, brute.reciprocal_transmission, brute.diameter) == (
    dv.transmission, dv.reciprocal_transmission, dv.diameter)
print("rotation expansion == all-sources BFS:", agree)

# --- connectivity is not automatic ------------------------------------------
broken = complement_spec(CirculantSpec.of(8, [1, 3]))   # C8(2,4)
try:
    distance_vector(broken)
except DisconnectedGraphError as exc:
    print(f"\n{broken} connected? no: {exc}")

# --- summaries and the star property ----------------------------------------
print("\nsummary of", comp, "->", brute)

# The star property: every edge {u, v} has a third vertex adjacent to
# neither endpoint. Then the complement joins u and v through that vertex.
g16 = build_circulant(CirculantSpec.of(16, [1, 3]))
non = ~g16.adj
np.fill_diagonal(non, False)
u, v = g16.edges().T
star = bool((non[u] & non[v]).any(axis=1).all())
print("C16(1,3) has the star property:", star)
comp16 = metrics_summary(build_circulant(complement_spec(CirculantSpec.of(16, [1, 3]))))
print("so its complement is connected with diameter", comp16.diameter)
