"""The action (g, f) -> g o f o T(g^-1) on maps between two edge sets, its
orbits, and what it takes for a set of maps to be a generalized permutant.

Maps from the triangle's edges into the hexagon's edges are written compactly:
"aec" sends g -> a, h -> e, i -> c.
"""

from geneograph import (
    alpha_action,
    all_orbits,
    is_generalized_permutant,
    orbit,
    parse_cycles,
    transposition_permutant,
)
from geneograph.experiments import c6_c3_context

ctx = c6_c3_context()
print("map space size:", ctx.map_space_size())

# Move one map around: the hexagon rotation acts on "aec" through the folding
# homomorphism and lands on "dbf".
rotation = parse_cycles("(a,b,c,d,e,f)", ctx.x_labels)
moved = alpha_action(rotation, ctx.mapping("aec"), ctx)
print('alpha(rotation, "aec") =', moved.compact())

# Orbits are permutants; their sizes divide the group order 12.
for rep in ("aec", "bfd", "aaa", "aab"):
    o = orbit(rep, ctx)
    print(f'orbit("{rep}"): size {o.size:2d} = {{{", ".join(m.compact() for m in o.members)}}}')

# The full census: 216 maps fall into 22 orbits of four distinct sizes.
orbits, census = all_orbits(ctx)
print("\ncensus (orbit size -> number of orbits):", census)

# A set of maps, given by their image tuples, is a generalized permutant
# exactly when it is a union of orbits; anything less gets rejected with a
# witness.
ok, _ = is_generalized_permutant({f.images for f in orbit("aec", ctx).members}, ctx)
print('\nfull orbit of "aec" is a permutant:', ok)
ok, witness = is_generalized_permutant({ctx.read_map("aec")}, ctx)
h, g = witness
print('{"aec"} alone is a permutant:', ok, f"(witness: alpha({g}, {h.compact()}) escapes)")

# Classical permutants are the special case of bijections under conjugation,
# e.g. all transposition-induced edge permutations of a complete graph.
swaps = transposition_permutant(4, model="edge")
print("\ntransposition permutant of K4 has", swaps.size, "edge permutations:")
for m in swaps.members:
    print("  ", m.as_permutation())
