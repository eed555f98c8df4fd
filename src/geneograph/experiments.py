"""The two flagship analyses: signature codes of complete-graph subgraphs under
the transposition-averaging operator, and the orbit census of maps between the
edge sets of the 6-cycle and the 3-cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .geneo import LinearOperator, from_permutant
from .graph import cycle_graph, edge_automorphism_group, subgraph_isomorphism_classes
from .linalg import matvec
from .perception import Measurement, measurement
from .perm import Homomorphism, parse_cycles
from .permutant import (
    ActionContext,
    GeneralizedPermutant,
    all_orbits,
    orbit,
    transposition_permutant,
)


def reversal(phi: Measurement) -> Measurement:
    """The coordinate-reversed vector (phi^m, ..., phi^1)."""
    return Measurement(phi.values[::-1], phi.domain)


def complement(phi: Measurement) -> Measurement:
    """1 - phi coordinatewise, for 0/1 vectors."""
    if any(v not in (0, 1) for v in phi.values):
        raise ValueError("complement is defined for 0/1 vectors only")
    return Measurement(tuple(Fraction(1) - v for v in phi.values), phi.domain)


def code_equivalent(c1: Measurement, c2: Measurement) -> bool:
    """Whether one code is a permutation of the other (multiset equality)."""
    if len(c1) != len(c2):
        raise ValueError(f"code lengths differ: {len(c1)} vs {len(c2)}")
    return sorted(c1.values) == sorted(c2.values)


@dataclass(frozen=True)
class CodeRow:
    vector: tuple[int, ...]
    code: tuple[Fraction, ...]
    scaled_code: tuple[int, ...]
    class_id: int


@dataclass(frozen=True)
class CodeTable:
    """All indicator vectors of K_n with their operator codes and isomorphism classes."""

    n: int
    edge_labels: tuple[str, ...]
    operator: LinearOperator
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
    rows = []
    for vec in product((0, 1), repeat=len(labels)):
        code = matvec(op.coeffs, vec)
        scaled = tuple(c * size for c in code)
        assert all(s.denominator == 1 for s in scaled)
        rows.append(CodeRow(vec, code, tuple(int(s) for s in scaled), class_of[vec]))
    return CodeTable(n, labels, op, size, tuple(rows), len(classes))


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
    labels = table.edge_labels
    by_class: dict[int, list[CodeRow]] = {}
    for row in table.rows:
        by_class.setdefault(row.class_id, []).append(row)

    finding1 = all(
        sorted(row.code) == sorted(rows[0].code)
        for rows in by_class.values()
        for row in rows
    )

    finding2 = all(
        table.row_for(complement(measurement(row.vector, labels)).values).code
        == tuple(Fraction(1) - c for c in row.code)
        for row in table.rows
    )

    reps = {cid: min(rows, key=lambda r: r.vector) for cid, rows in by_class.items()}
    pairs = []
    ids = sorted(reps)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if sorted(reps[a].code) == sorted(reps[b].code):
                pairs.append(EquivalentPair(a, b, reps[a].vector, reps[b].vector))

    finding4 = all(
        table.row_for(tuple(reversed(row.vector))).code == row.code[::-1]
        for row in table.rows
    )

    return CodeFindings(
        table.n, table.class_count, finding1, finding2, tuple(pairs), finding4
    )


# -- the cycle-graph census ----------------------------------------------------

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


@dataclass(frozen=True)
class CensusReport:
    total: int
    census: dict[int, int]
    orbits: tuple[GeneralizedPermutant, ...]
    representatives: dict[int, tuple[str, ...]]


def cycle_census(ctx: ActionContext | None = None) -> CensusReport:
    """Partition all 216 maps between the two edge sets into orbits and report
    the size census with canonical representatives."""
    ctx = ctx or c6_c3_context()
    orbits, census = all_orbits(ctx)
    reps: dict[int, list[str]] = {}
    for o in orbits:
        reps.setdefault(o.size, []).append(o.representative().compact())
    return CensusReport(
        ctx.map_space_size(),
        census,
        tuple(orbits),
        {size: tuple(sorted(names)) for size, names in sorted(reps.items())},
    )


def orbit_operator_table(
    rep: str, ctx: ActionContext | None = None
) -> tuple[LinearOperator, tuple[tuple[tuple[int, ...], tuple[Fraction, ...]], ...]]:
    """The averaging operator of one orbit, tabulated over all 0/1 weights."""
    ctx = ctx or c6_c3_context()
    op = from_permutant(orbit(rep, ctx))
    rows = tuple((bits, matvec(op.coeffs, bits)) for bits in product((0, 1), repeat=op.n_in))
    return op, rows
