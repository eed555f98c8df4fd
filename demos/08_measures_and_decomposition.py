"""Permutant measures: weighted averaging beyond uniform weights, and the
inverse direction, recovering a measure from an equivariant operator.

The star example: weight the three mirror symmetries of a cube equally.  The
support has 3 elements while the rotation group has 24, which is exactly why
measures are the economical way to build these operators.
"""

from fractions import Fraction

from geneograph import apply, decompose_to_measure, from_measure, from_permutant, measurement
from geneograph.experiments import (
    cube_face_reflections,
    cube_reflection_measure,
    cube_rotation_group,
    transposition_permutant,
)
from geneograph.geneo import identity_operator

group = cube_rotation_group()
print("cube rotation group order:", group.order)
print("measure support:", [str(h.as_permutation()) for h in cube_face_reflections()])

# c = 1/3 puts total variation 1 on the table: a genuine GENEO.
op = from_measure(cube_reflection_measure(Fraction(1, 3)))
print("\nc = 1/3: equivariant", op.is_geo, "| non-expansive", op.is_geneo)
corner = measurement([1, 0, 0, 0, 0, 0, 0, 0], op.source.domain)
print("one corner's weight spreads to its three mirror images:",
      tuple(map(str, apply(op, corner).values)))

# c = 1 keeps equivariance but total variation 3 breaks the Lipschitz bound.
wide = from_measure(cube_reflection_measure(1))
print("c = 1:   equivariant", wide.is_geo, "| non-expansive", wide.is_geneo)

# The inverse direction: any equivariant non-expansive endo-operator over a
# transitive group is some measure's operator.  An exact rational LP recovers
# one with total variation at most 1.
f4 = from_permutant(transposition_permutant(4, model="edge"))
mu = decompose_to_measure(f4)
print("\ndecomposition of the K4 averaging operator:")
print(f"  {len(mu.support)} bijections in the support, e.g.",
      ", ".join(str(f.as_permutation()) for f in mu.support[:3]), "...")
print("  common weight:", mu.weight(mu.support[0]))
print("total variation:", mu.total_variation())
print("rebuilt operator equals the original:", from_measure(mu).coeffs == f4.coeffs)

unit = decompose_to_measure(identity_operator(f4.source))
print("\nthe identity operator decomposes as unit mass on:",
      str(unit.support[0].as_permutation()))
