"""The complete orbit census of maps from the triangle's edges into the
hexagon's edges, and the dimension-reducing operators two of those orbits
define.
"""

from geneograph import all_orbits, apply, measurement
from geneograph.experiments import c6_c3_context, orbit_operator_table

ctx = c6_c3_context()
orbits, census = all_orbits(ctx)
print("total maps:", ctx.map_space_size())
print("census:", census)
names: dict[int, list[str]] = {}
for o in orbits:
    names.setdefault(o.size, []).append(o.representative().compact())
for size, reps in sorted(names.items()):
    print(f"  orbits of size {size:2d}: {', '.join(sorted(reps))}")

# Every orbit is a permutant, so every orbit defines an averaging operator
# from hexagon edge weights down to triangle edge weights.
op, rows = orbit_operator_table("aec", ctx)
print('\noperator of orbit("aec") has coefficient rows:')
for label, row in zip(ctx.y_labels, op.coeffs):
    print(f"  {label}: {tuple(map(str, row))}")

print('\na few 0/1 weightings through the "aec" and "bfd" operators:')
op2, _ = orbit_operator_table("bfd", ctx)
for bits in [(1, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 0, 0), (1, 1, 1, 1, 1, 1)]:
    phi = measurement(bits, ctx.x_labels)
    a = tuple(map(str, apply(op, phi).values))
    b = tuple(map(str, apply(op2, phi).values))
    print(f'  {"".join(map(str, bits))}: aec -> {a}, bfd -> {b}')
