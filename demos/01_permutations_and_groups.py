"""Permutations in cycle notation, composition, and explicit group closure.

Everything downstream (graph automorphisms, orbits, operators) is built on
these primitives, so this is the place to get comfortable with them.
"""

from geneograph import (
    Homomorphism,
    compose,
    format_cycles,
    generate_group,
    inverse,
    parse_cycles,
)

EDGES = ("a", "b", "c", "d", "e", "f")

# Permutations parse from cycle products over a labeled set and print back in
# a canonical form: disjoint cycles sorted by smallest moved element.
rotation = parse_cycles("(a,b,c,d,e,f)", EDGES)
reflection = parse_cycles("(a,f)(b,e)(c,d)", EDGES)
print("rotation      :", rotation)
print("reflection    :", reflection)
print("rotation^2    :", format_cycles(compose(rotation, rotation)))
print("inverse       :", format_cycles(inverse(rotation)))

# Groups are generated by breadth-first closure and stored in full, in a
# canonical element order, so every later enumeration is reproducible.
hexagon_group = generate_group([rotation, reflection])
print("\nedge symmetries of the hexagon:", hexagon_group.order, "elements")
for p in hexagon_group:
    print("  ", format_cycles(p))

# A homomorphism is stored as a full table and verified on the generators.  Here:
# fold the hexagon's symmetries onto the triangle's by sending the 6-cycle to
# a 3-cycle and the reflection to a reflection.
TRI = ("g", "h", "i")
triangle_group = generate_group([parse_cycles("(g,h,i)", TRI), parse_cycles("(g,i)", TRI)])
fold = Homomorphism.from_generator_images(
    hexagon_group,
    triangle_group,
    [
        (rotation, parse_cycles("(g,h,i)", TRI)),
        (reflection, parse_cycles("(g,i)", TRI)),
    ],
)
print("\nfolding homomorphism, image of each hexagon symmetry:")
for g in hexagon_group:
    print(f"   {format_cycles(g):22s} -> {format_cycles(fold(g))}")
