"""The paper's worked constructions and the two flagship analyses.

The constructions sit on top of the library's layers: the transposition
permutant of K_n, the cube-rotation group with its three face reflections and
their permutant measure, and the action context of maps between the edge sets
of the 6-cycle and the 3-cycle.  The analyses are the signature codes of
complete-graph subgraphs under the transposition-averaging operator, and the
orbit census of the C6/C3 context, which is `all_orbits(c6_c3_context())` (the
`census-c6c3` command prints it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .geneo import LinearOperator, from_permutant
from .graph import (
    complete_graph,
    cycle_graph,
    edge_automorphism_group,
    induced_edge_permutation,
    subgraph_isomorphism_classes,
    vertex_automorphism_group,
)
from .linalg import matvec
from .perm import FiniteGroup, Homomorphism, Permutation, generate_group, parse_cycles
from .permutant import (
    ActionContext,
    GeneralizedPermutant,
    Mapping,
    PermutantMeasure,
    endo_context,
    mapping_from_permutation,
    orbit,
)


def transposition_permutant(n: int, model: str = "edge") -> GeneralizedPermutant:
    """The permutant of all vertex transpositions of K_n, or of the edge
    permutations they induce (model="edge")."""
    if not 2 <= n <= 6:
        raise ValueError(f"transposition permutant supports 2 <= n <= 6, got {n}")
    if model not in ("vertex", "edge"):
        raise ValueError(f"model must be 'vertex' or 'edge', got {model!r}")
    kn = complete_graph(n)
    swaps = [
        parse_cycles(f"({kn.vertex_labels[i]},{kn.vertex_labels[j]})", kn.vertex_labels)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    if model == "vertex":
        ctx = endo_context(vertex_automorphism_group(kn))
        members = {mapping_from_permutation(p) for p in swaps}
    else:
        ctx = endo_context(edge_automorphism_group(kn))
        members = {mapping_from_permutation(induced_edge_permutation(kn, p)) for p in swaps}
    return GeneralizedPermutant(ctx, tuple(members))


# -- the subgraph codes ----------------------------------------------------------

@dataclass(frozen=True)
class CodeRow:
    """One 0/1 edge vector with its code times |H| and its isomorphism class."""

    vector: tuple[int, ...]
    scaled_code: tuple[int, ...]
    class_id: int


@dataclass(frozen=True)
class CodeTable:
    """All indicator vectors of K_n with their operator codes and isomorphism classes."""

    n: int
    edge_labels: tuple[str, ...]
    permutant_size: int
    rows: tuple[CodeRow, ...]
    class_count: int

    def row_for(self, vector) -> CodeRow:
        vector = tuple(int(v) for v in vector)
        index = int("".join(map(str, vector)), 2) if vector else 0
        return self.rows[index]


def build_code_table(n: int) -> CodeTable:
    """Apply the transposition-averaging operator of K_n to every 0/1 edge
    vector and join with the subgraph isomorphism classes."""
    if not 3 <= n <= 5:
        raise ValueError(f"code tables support 3 <= n <= 5, got {n}")
    permutant = transposition_permutant(n, model="edge")
    op = from_permutant(permutant)
    classes = subgraph_isomorphism_classes(n)
    class_of = {vec: i for i, cls in enumerate(classes) for vec in cls}
    labels = op.source.domain
    size = permutant.size
    assert size == comb(n, 2)
    # scaled codes are products with the integer count table |H| coeffs; the
    # codes themselves are scaled_code / |H|
    counts = [[int(c * size) for c in row] for row in op.coeffs]
    rows = tuple(
        CodeRow(vec, matvec(counts, vec, 0), class_of[vec]) for vec in product((0, 1), repeat=len(labels))
    )
    return CodeTable(n, labels, size, rows, len(classes))


@dataclass(frozen=True)
class EquivalentPair:
    """Two non-isomorphic subgraph classes whose codes are permutations of each other."""

    class_a: int
    class_b: int
    representative_a: tuple[int, ...]
    representative_b: tuple[int, ...]


@dataclass(frozen=True)
class CodeFindings:
    n: int
    class_count: int
    isomorphic_subgraphs_share_codes: bool
    complements_map_to_complements: bool
    equivalent_nonisomorphic_pairs: tuple[EquivalentPair, ...]
    reversals_map_to_reversals: bool


def analyze_code_table(table: CodeTable) -> CodeFindings:
    """Evaluate the four structural statements about a code table.

    (1) rows in one isomorphism class have pairwise equivalent codes; (2) the
    code of the complement is the complement of the code, exactly; (3) the
    full list of distinct class pairs with equivalent codes; (4) the code of
    the reversal is the reversal of the code, exactly.
    """
    size = table.permutant_size
    by_class: dict[int, list[CodeRow]] = {}
    for row in table.rows:
        by_class.setdefault(row.class_id, []).append(row)

    # code = scaled_code / |H| exactly, so the statements hold for the codes
    # exactly when they hold for the integer scaled codes
    finding1 = all(
        sorted(row.scaled_code) == sorted(rows[0].scaled_code)
        for rows in by_class.values()
        for row in rows
    )

    finding2 = all(
        table.row_for(tuple(1 - v for v in row.vector)).scaled_code
        == tuple(size - s for s in row.scaled_code)
        for row in table.rows
    )

    reps = {cid: min(rows, key=lambda r: r.vector) for cid, rows in by_class.items()}
    pairs = []
    ids = sorted(reps)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if sorted(reps[a].scaled_code) == sorted(reps[b].scaled_code):
                pairs.append(EquivalentPair(a, b, reps[a].vector, reps[b].vector))

    finding4 = all(
        table.row_for(tuple(reversed(row.vector))).scaled_code == row.scaled_code[::-1]
        for row in table.rows
    )

    return CodeFindings(
        table.n, table.class_count, finding1, finding2, tuple(pairs), finding4
    )


# -- the cycle-graph action ----------------------------------------------------

C6_EDGES = ("a", "b", "c", "d", "e", "f")
C3_EDGES = ("g", "h", "i")


def c6_c3_context() -> ActionContext:
    """The action of the 6-cycle's edge automorphisms on maps from the
    3-cycle's edge set, via the rotation->rotation, reflection->reflection
    homomorphism."""
    g6 = edge_automorphism_group(cycle_graph(6))
    g3 = edge_automorphism_group(cycle_graph(3, ("G", "H", "I"), C3_EDGES))
    alpha = parse_cycles("(a,b,c,d,e,f)", C6_EDGES)
    beta = parse_cycles("(a,f)(b,e)(c,d)", C6_EDGES)
    gamma = parse_cycles("(g,h,i)", C3_EDGES)
    delta = parse_cycles("(g,i)", C3_EDGES)
    hom = Homomorphism.from_generator_images(g6, g3, [(alpha, gamma), (beta, delta)])
    return ActionContext(g6, g3, hom)


def orbit_operator_table(
    rep: str, ctx: ActionContext | None = None
) -> tuple[LinearOperator, tuple[tuple[tuple[int, ...], tuple[Fraction, ...]], ...]]:
    """The averaging operator of one orbit, tabulated over all 0/1 weights."""
    ctx = ctx or c6_c3_context()
    op = from_permutant(orbit(rep, ctx))
    rows = tuple((bits, matvec(op.coeffs, bits)) for bits in product((0, 1), repeat=op.n_in))
    return op, rows


# -- the cube rotations ----------------------------------------------------------

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
    return tuple(mapping_from_permutation(_coordinate_map(fn)) for fn in flips)


def cube_reflection_measure(weight) -> PermutantMeasure:
    """Equal weight on the three face reflections, zero elsewhere."""
    return PermutantMeasure(cube_context(), {h: weight for h in cube_face_reflections()})
