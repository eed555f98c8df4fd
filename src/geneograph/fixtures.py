"""Reusable worked configurations: the cube-rotation setup and subset-stabilizer
contexts with their image-cardinality permutants and measures.

These are small, fully explicit instances handy for demos and tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from .perm import FiniteGroup, Homomorphism, Permutation, generate_group, group_from_elements
from .permutant import (
    ActionContext,
    GeneralizedPermutant,
    Mapping,
    PermutantMeasure,
    endo_context,
)

CUBE_LABELS = tuple("ABCDEFGH")
CUBE_COORDS = tuple(product((-1, 1), repeat=3))
_COORD_INDEX = {c: i for i, c in enumerate(CUBE_COORDS)}


def _coordinate_map(fn) -> Permutation:
    images = tuple(_COORD_INDEX[fn(c)] for c in CUBE_COORDS)
    return Permutation(images, CUBE_LABELS)


def cube_rotation_group() -> FiniteGroup:
    """Orientation-preserving isometries of the cube, acting on its 8 vertices."""
    quarter_z = _coordinate_map(lambda c: (-c[1], c[0], c[2]))
    quarter_x = _coordinate_map(lambda c: (c[0], -c[2], c[1]))
    return generate_group([quarter_z, quarter_x])


def cube_context() -> ActionContext:
    return endo_context(cube_rotation_group())


def cube_face_reflections() -> tuple[Mapping, ...]:
    """The three orthogonal symmetries through planes parallel to the faces."""
    flips = (
        lambda c: (-c[0], c[1], c[2]),
        lambda c: (c[0], -c[1], c[2]),
        lambda c: (c[0], c[1], -c[2]),
    )
    out = []
    for fn in flips:
        p = _coordinate_map(fn)
        out.append(Mapping(CUBE_LABELS, CUBE_LABELS, p.images))
    return tuple(out)


def cube_reflection_measure(weight) -> PermutantMeasure:
    """Equal weight on the three face reflections, zero elsewhere."""
    ctx = cube_context()
    return PermutantMeasure(ctx, {h: weight for h in cube_face_reflections()})


def symmetric_group(labels) -> FiniteGroup:
    labels = tuple(labels)
    elems = [Permutation(images, labels) for images in permutations(range(len(labels)))]
    return group_from_elements(elems)


def setwise_stabilizer_context(x_labels, y_labels) -> ActionContext:
    """G = permutations of X preserving the subset Y, K = all permutations of Y,
    T = restriction to Y."""
    x_labels = tuple(x_labels)
    y_labels = tuple(y_labels)
    x_index = {lab: i for i, lab in enumerate(x_labels)}
    if any(lab not in x_index for lab in y_labels):
        raise ValueError("Y must be a subset of X")
    y_positions = [x_index[lab] for lab in y_labels]
    y_index = {lab: j for j, lab in enumerate(y_labels)}
    y_set = set(y_labels)
    stabilizer = []
    for images in permutations(range(len(x_labels))):
        p = Permutation(images, x_labels)
        if all(x_labels[p(pos)] in y_set for pos in y_positions):
            stabilizer.append(p)
    G = group_from_elements(stabilizer)
    K = symmetric_group(y_labels)
    table = {}
    for g in G:
        restricted = tuple(y_index[x_labels[g(pos)]] for pos in y_positions)
        table[g] = Permutation(restricted, y_labels)
    T = Homomorphism(G, K, table)
    return ActionContext(G, K, T)


def small_image_permutant(ctx: ActionContext, m: int) -> GeneralizedPermutant:
    """All maps Y -> X whose image has fewer than m elements."""
    members = tuple(f for f in ctx.all_mappings() if f.image_size() < m)
    return GeneralizedPermutant(ctx, members)


def image_size_measure(ctx: ActionContext, m: int) -> PermutantMeasure:
    """Weight 1/(m |H_m|) on every map with image of size exactly m."""
    h_m = [f for f in ctx.all_mappings() if f.image_size() == m]
    if not h_m:
        raise ValueError(f"no maps with image size {m}")
    w = Fraction(1, m * len(h_m))
    return PermutantMeasure(ctx, {f: w for f in h_m})
