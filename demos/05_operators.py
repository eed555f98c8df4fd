"""Building equivariant non-expansive operators and checking them exactly.

Averaging over a permutant always yields an equivariant 1-Lipschitz operator;
the verifier re-proves both facts on the coefficient table, exactly.
"""

from itertools import product

from geneograph import (
    apply,
    compose_operators,
    constrained_space,
    convex_combination,
    diagonal_scaling,
    explicit_space,
    from_permutant,
    generate_group,
    geneo_distance,
    measurement,
    parse_cycles,
    pointwise_min,
    transposition_permutant,
    verify_equivariance,
)
from geneograph.geneo import identity_operator, zero_operator
from geneograph.perception import PerceptionPair

# The transposition-averaging operator on K4's edge weights.
f4 = from_permutant(transposition_permutant(4, model="edge"))
labels = f4.source.domain
print("averaging operator on", labels)
print("equivariant:", verify_equivariance(f4)[0], "| non-expansive:", f4.sup_norm <= 1)

triangle = measurement([1, 1, 1, 0, 0, 0], labels)
print("triangle weights  ->", tuple(map(str, apply(f4, triangle).values)))
star = measurement([0, 0, 0, 1, 1, 1], labels)
print("star weights      ->", tuple(map(str, apply(f4, star).values)))

# Diagonal scalings are accepted exactly when the factors are constant on the
# group's coordinate orbits and the scaled image stays inside the space.
pair = PerceptionPair(
    constrained_space(labels, [((1, 0, 0, 0, 0, 1), 0)]),
    generate_group([parse_cycles("(r,s)(q,t)", labels)]),
)
good = diagonal_scaling((2, 3, 5, 5, 3, 2), pair)
print("\nscaling (2,3,5,5,3,2):", "accepted" if good.accepted else "rejected")
bad = diagonal_scaling((2, 3, 5, 5, 7, 2), pair)
print("scaling (2,3,5,5,7,2):", "rejected:" if not bad.accepted else "accepted", bad.detail)

# Operators combine: convex mixtures stay linear, and min/max of GENEOs are
# pointwise nonlinear operators that are GENEOs by construction.
ident = identity_operator(f4.source)
mixed = convex_combination([f4, ident], ["1/2", "1/2"])
print("\nhalf-and-half mixture is a GENEO:", mixed.is_geneo)
print("compose with identity returns the original table:",
      compose_operators(ident, f4).coeffs == f4.coeffs)
low = pointwise_min(f4, ident)
print("pointwise min is a GENEO:", low.is_geneo)

# Operator distance over an explicit family of weights.
weights = explicit_space(labels, [bits for bits in product((0, 1), repeat=6)])
print("\ndistance between the averaging operator and the zero operator:",
      geneo_distance(f4, zero_operator(f4.source), weights))
