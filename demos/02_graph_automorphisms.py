"""Graph automorphism groups and the edge permutations they induce.

A vertex automorphism drags each edge {u, v} to {g(u), g(v)}; collecting those
edge permutations gives the edge automorphism group, the symmetry group every
edge-weighted construction works with.
"""

from geneograph import (
    complete_graph,
    cycle_graph,
    edge_automorphism_group,
    format_cycles,
    induced_edge_permutation,
    parse_cycles,
    vertex_automorphism_group,
)
from geneograph.graph import graph

# A 4-cycle with one chord: only the chord-preserving symmetries survive.
chord = graph(
    "ABCD",
    [("p", ("A", "B")), ("q", ("B", "C")), ("r", ("C", "D")), ("s", ("A", "D")), ("t", ("B", "D"))],
)
print("C4 plus chord {B,D}:")
for p in vertex_automorphism_group(chord):
    print("  ", format_cycles(p))

# The complete graph K4: all 24 vertex permutations are automorphisms, and
# each induces a permutation of the six edges p..u.
k4 = complete_graph(4)
print("\nK4 edge labels:", k4.edge_labels)
swap_cd = parse_cycles("(C,D)", k4.vertex_labels)
print("vertex swap (C,D) acts on edges as", format_cycles(induced_edge_permutation(k4, swap_cd)))
swap_ab = parse_cycles("(A,B)", k4.vertex_labels)
print("vertex swap (A,B) acts on edges as", format_cycles(induced_edge_permutation(k4, swap_ab)))

edge_group = edge_automorphism_group(k4)
print("edge automorphism group of K4:", edge_group.order, "elements inside S_6")

# Cycle graphs have dihedral symmetry; the hexagon's 12 edge symmetries are
# exactly the rotations and reflections seen in the first demo.
hexagon = cycle_graph(6)
print("\nC6 edge automorphism group:", edge_automorphism_group(hexagon).order, "elements")
