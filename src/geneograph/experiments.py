"""The paper's worked constructions and the two flagship analyses.

The constructions sit on top of the library's layers: the transposition
permutant of K_n, the cube-rotation group with its three face reflections and
their permutant measure, and the action context of maps between the edge sets
of the 6-cycle and the 3-cycle.  The analyses are the signature codes of
complete-graph subgraphs under the transposition-averaging operator, and the
orbit census of the C6/C3 context, which is `all_orbits(c6_c3_context())` (the
`census-c6c3` command prints it).

The subgraph codes work on the integer code of each 0/1 edge vector of K_n
(bit m-1-i is edge i, so code order is lexicographic order): the classes are
the orbit partition of maps from the edges to {0, 1} that ``all_orbits`` also
uses, and vector tuples are built only for the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import product
from math import comb
from operator import add

from .geneo import LinearOperator, from_permutant
from .graph import (
    Graph,
    _subgraph_partition,
    complete_graph,
    cycle_graph,
    edge_automorphism_group,
    induced_edge_permutation,
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
    if model == "edge":
        return _edge_transpositions(kn, edge_automorphism_group(kn))
    members = {p.images for p in _vertex_transpositions(kn)}
    return GeneralizedPermutant(endo_context(vertex_automorphism_group(kn)), tuple(members))


def _vertex_transpositions(kn: Graph) -> list[Permutation]:
    labels = kn.vertex_labels
    return [
        parse_cycles(f"({labels[i]},{labels[j]})", labels)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]


def _edge_transpositions(kn: Graph, edge_group: FiniteGroup) -> GeneralizedPermutant:
    """The edge model of the transposition permutant, on K_n's edge group."""
    members = {induced_edge_permutation(kn, p).images for p in _vertex_transpositions(kn)}
    return GeneralizedPermutant(endo_context(edge_group), tuple(members))


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
        """The row of a 0/1 vector over the edges, at its integer code.

        Raises ValueError unless the vector has one entry per edge, each 0 or 1.
        """
        vector = tuple(vector)
        m = len(self.edge_labels)
        if len(vector) != m or not all(v in (0, 1) for v in vector):
            raise ValueError(f"a vector of K_{self.n} has {m} entries, each 0 or 1; got {vector!r}")
        index = 0
        for v in vector:
            index = 2 * index + int(v)
        return self.rows[index]

    @cached_property
    def findings(self) -> CodeFindings:
        """analyze_code_table of this table, worked out on first use and kept
        with it, so a table built once per process is analyzed once."""
        return analyze_code_table(self)


def build_code_table(n: int) -> CodeTable:
    """Apply the transposition-averaging operator of K_n to every 0/1 edge
    vector and join with the subgraph isomorphism classes.

    Row i is the vector whose integer code is i: bit m-1-j of i is edge j, so
    the rows come in ``product((0, 1), repeat=m)`` order, which is
    lexicographic order.  The class ids come from the subgraph partition of
    those codes (``graph._subgraph_partition``).  The scaled code of a vector
    is the integer count table |H| * coeffs times it, so it is built by
    doubling: adding edge j to a vector adds column j.

    Each table is built once per process and shared by every later call; it
    holds only tuples in frozen dataclasses.
    """
    if not 3 <= n <= 5:
        raise ValueError(f"code tables support 3 <= n <= 5, got {n}")
    return _code_table(n)


@cache
def _code_table(n: int) -> CodeTable:
    kn = complete_graph(n)
    edge_group = edge_automorphism_group(kn)
    permutant = _edge_transpositions(kn, edge_group)
    op = from_permutant(permutant)
    codes, sizes = _subgraph_partition(edge_group)
    class_id = [0] * len(codes)
    for k, c in zip((k for k, size in enumerate(sizes) for _ in range(size)), codes):
        class_id[c] = k
    labels = op.source.domain
    size = permutant.size
    assert size == comb(n, 2)
    # the codes themselves are scaled_code / |H|, and the table's denominator divides |H|
    table, d = op.scaled
    counts = [[c * (size // d) for c in row] for row in table]
    scaled = [(0,) * len(counts)]
    for j in reversed(range(len(labels))):
        column = [row[j] for row in counts]
        scaled += [tuple(map(add, code, column)) for code in scaled]
    vectors = product((0, 1), repeat=len(labels))
    rows = tuple(map(CodeRow, vectors, scaled, class_id))
    return CodeTable(n, labels, size, rows, len(sizes))


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

    Row i is the vector with integer code i (see ``build_code_table``), so
    the complement of row i is row 2^m - 1 - i, which is ``rows[-1 - i]``,
    and its reversal is the row at the m-bit reversal of i.
    """
    size = table.permutant_size
    rows = table.rows
    m = len(table.edge_labels)
    # code = scaled_code / |H| exactly, so the statements hold for the codes
    # exactly when they hold for the integer scaled codes
    first: dict[int, CodeRow] = {}
    finding1 = True
    for row in rows:
        rep = first.setdefault(row.class_id, row)
        finding1 = finding1 and sorted(row.scaled_code) == sorted(rep.scaled_code)

    finding2 = all(
        rows[-1 - i].scaled_code == tuple(size - s for s in row.scaled_code)
        for i, row in enumerate(rows)
    )

    # the first row of a class in code order holds its smallest vector
    pairs = []
    ids = sorted(first)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if sorted(first[a].scaled_code) == sorted(first[b].scaled_code):
                pairs.append(EquivalentPair(a, b, first[a].vector, first[b].vector))

    reversal = [0]
    for bit in range(m):
        mask = 1 << (m - 1 - bit)
        reversal += [r | mask for r in reversal]
    finding4 = all(rows[r].scaled_code == row.scaled_code[::-1] for r, row in zip(reversal, rows))

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
    return tuple(Mapping(CUBE_LABELS, CUBE_LABELS, _coordinate_map(fn).images) for fn in flips)


def cube_reflection_measure(weight) -> PermutantMeasure:
    """Equal weight on the three face reflections, zero elsewhere."""
    return PermutantMeasure(cube_context(), {h.images: weight for h in cube_face_reflections()})
