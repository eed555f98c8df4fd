"""Function spaces, perception pairs, and the pseudometrics they induce.

A perception pair is a space of measurements together with a symmetry group
that preserves it under precomposition.  Whether a given space/group
combination qualifies is decidable here: exhaustively for finite families,
and for linear constraints on the finitely many points that span the
solution set, one of which is the witness when closure fails.
"""

from geneograph import (
    aut_pseudodistance,
    constrained_space,
    explicit_space,
    generate_group,
    measurement,
    parse_cycles,
    point_pseudodistance,
    sup_distance,
    verify_perception_pair,
)
from itertools import product

V = ("A", "B", "C", "D")

# Measurements are exact rational vectors; distances are exact too.
phi1 = measurement(["4/6", "4/6", "4/6", "2/6", "2/6", "2/6"])
phi2 = measurement(["2/6", "2/6", "2/6", "4/6", "4/6", "4/6"])
print("sup distance between the two codes:", sup_distance(phi1, phi2))

# The space {phi : phi_A + phi_C = 0} is preserved by swapping B and D...
space = constrained_space(V, [((1, 0, 1, 0), 0)])
swap_group = generate_group([parse_cycles("(B,D)", V)])
ok, _ = verify_perception_pair(space, swap_group)
print("\n{phi_A + phi_C = 0} with {id, (B,D)} is a perception pair:", ok)

# ...but not by the rotations of the 4-cycle; the verifier hands back a
# concrete witness showing one measurement escaping the space.
rotations = generate_group([parse_cycles("(A,B,C,D)", V)])
ok, witness = verify_perception_pair(space, rotations)
print("same space with the rotation group:", ok)
phi, g = witness
print("  witness: phi =", tuple(map(str, phi.values)), "escapes under g =", g)

# Explicit finite families induce pseudometrics on the underlying points and
# on candidate symmetries.
binary = explicit_space(V, [bits for bits in product((0, 1), repeat=4)])
print("\npoint pseudodistance D(A, B) over all 0/1 weights:", point_pseudodistance(0, 1, binary))
print(
    "distance between id and (A,C) as observed through those weights:",
    aut_pseudodistance(parse_cycles("id", V), parse_cycles("(A,C)", V), binary),
)
