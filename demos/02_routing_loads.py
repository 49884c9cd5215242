"""Routings and vertex loads on a small worked example.

A routing fixes one elementary path per ordered vertex pair; the load of a
vertex counts the routed paths that cross it strictly inside. The demo
walks a 6-vertex graph with two routings (one minimal and symmetric, one
neither), then shows the rotation-invariant routing that attains the exact
vertex-forwarding index on a circulant complement.
"""

from circan import (
    CirculantSpec,
    build_rotation_routing,
    complement_spec,
    distance_vector,
    edge_forwarding_bounds,
    load_profile,
    parse_graph_fixture,
    parse_routing_fixture,
    vertex_forwarding_index,
)

GRAPH = """\
6 one-indexed
1 2
1 3
1 4
2 4
2 5
3 4
3 6
5 6
"""

MINIMAL_ROUTING = """\
1 2
1 3
1 4
1 2 5
1 3 6
2 1
2 1 3
2 4
2 5
2 5 6
3 1
3 1 2
3 4
3 6 5
3 6
4 1
4 2
4 3
4 2 5
4 3 6
5 2 1
5 2
5 6 3
5 2 4
5 6
6 3 1
6 5 2
6 3
6 3 4
6 5
"""

DETOUR_ROUTING = """\
1 4 2
1 3
1 4
1 3 6 5
1 3 6
2 1
2 1 3
2 4
2 5
2 1 3 6
3 1
3 1 2
3 4
3 4 1 2 5
3 6
4 1
4 2
4 3
4 3 6 5
4 3 6
5 2 1
5 6 3 1 2
5 6 3
5 2 4
5 6
6 3 1
6 5 2
6 3
6 3 4
6 3 4 2 5
"""

g = parse_graph_fixture(GRAPH)
print("graph: n =", g.n, " m =", g.edge_count, " degrees =", g.degrees().tolist())

for name, text in (("minimal", MINIMAL_ROUTING), ("detour", DETOUR_ROUTING)):
    routing = parse_routing_fixture(text, g)
    profile = load_profile(routing)
    print(f"\n{name} routing: minimal={routing.minimal} symmetric={routing.symmetric}")
    print("  vertex loads (labels 1..6):", profile.vertex_loads.tolist())
    print("  forwarding index w.r.t. this routing:", profile.max_vertex_load)
    print("  busiest edge carries", profile.max_edge_load, "paths")

# --- circulant complements admit a perfectly balanced routing ----------------
comp = complement_spec(CirculantSpec.of(8, [1, 2, 4]))
dv = distance_vector(comp)
rotation = build_rotation_routing(comp, dv)
print(f"\nrotation routing on {comp}:")
print("  BFS tree parents:", rotation.parent.tolist(),
      "shortest-path tree:", rotation.minimal)
print("  loads:", rotation.vertex_loads().tolist(),
      "(uniform by rotation symmetry: sum of depth - 1 over the tree)")
print("  exact vertex-forwarding index:", vertex_forwarding_index(dv))

lower, upper = edge_forwarding_bounds(dv)
print(f"  edge-forwarding index bounds: {lower} <= pi <= {upper}")
