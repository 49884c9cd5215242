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
    all_pairs_distances,
    build_circulant,
    complement_spec,
    distance_vector,
    metrics_summary,
)

# --- constructing specs -----------------------------------------------------
# Jump sets normalize automatically: 13 = -3 mod 16 folds down to 3.
spec = CirculantSpec.of(16, [13, 1])
print("normalized spec:", spec)                      # C16(1,3)
print("degree:", spec.degree, "offsets:", spec.offsets())

# --- complements ------------------------------------------------------------
half = CirculantSpec.of(8, [1, 4])
comp = complement_spec(half)
print(f"\ncomplement of {half} is {comp}")

# --- distance vectors -------------------------------------------------------
dv = distance_vector(comp)
print("distance vector:", dv.d.tolist())
print("transmission:", dv.transmission, "| reciprocal:", dv.reciprocal_transmission)
print("diameter:", dv.diameter)

# The rotation expansion of that one vector, entry (i, j) = d[(j - i) mod n],
# equals brute-force all-pairs BFS.
shift = np.arange(dv.n)
rotated = dv.d[(shift[None, :] - shift[:, None]) % dv.n]
brute = all_pairs_distances(build_circulant(comp))
print("rotation expansion == all-pairs BFS:", np.array_equal(rotated, brute))

# --- connectivity is not automatic ------------------------------------------
broken = complement_spec(CirculantSpec.of(8, [1, 3]))   # C8(2,4)
try:
    distance_vector(broken)
except DisconnectedGraphError as exc:
    print(f"\n{broken} connected? no: {exc}")

# --- summaries and the star property ----------------------------------------
summary = metrics_summary(build_circulant(comp))
print("\nsummary of", comp, "->", summary)

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
