"""Operators between spaces of measurements: construction from permutants and
permutant measures, the exact GENEO verdict, combinators (pointwise min/max of
GENEOs kept as the kind and the operands, GENEOs by construction), and the
decomposition of an equivariant endo-operator back to a permutant measure.

Linear operators store dense exact-rational coefficient tables; rows are
indexed by the target set Y, columns by the source set X, so F(phi)(y) =
sum_x coeffs[y][x] phi(x); `is_geneo` alone decides the GENEO verdict.  Each
operator's verdicts and products are worked on its `scaled` view, the table
as integer rows over one denominator (`linalg.integer_table`), built once
per operator: the equivariance check compares integer columns as whole
tuples, the sup norm sums ints, and applying, composing and combining go
through the kernel in `linalg` on ints and make a Fraction once per output
cell.  Tables built from maps, compositions and convex combinations are
made in int and hand their view to the new operator, with one Fraction per
distinct value.  The decomposition writes one equation per orbital and one
LP column pair per distinct orbit column, and computes those and the
equations' elimination from the group once per generator set, with the
fraction-free integer rows of `linalg`; a call adds only the operator's
integer values and solves the LP.  Its
conjugation orbits are labelled by `perm._label_orbits` on the positions of
the n! bijections in `permutations` order, one lookup table per generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, permutations
from operator import mul
from typing import Iterable, Sequence

from .linalg import OPTIMAL, integer_rref, integer_table, matmul, matvec, simplex_min
from .perception import (
    FunctionSpace,
    Measurement,
    PerceptionPair,
    as_fraction,
    full_space,
    sup_distance,
)
from .perm import (
    CapExceededError,
    DomainMismatchError,
    Homomorphism,
    Permutation,
    _inverse,
    _label_orbits,
)
from .permutant import (
    ActionContext,
    GeneralizedPermutant,
    PermutantMeasure,
    _alpha_move,
    _pair_orbits,
    endo_context,
    is_permutant_measure,
)

Witness = tuple[int, Permutation]


@dataclass(frozen=True)
class LinearOperator:
    """A linear map between measurement spaces, with its equivariance data.

    Its two facts, `equivariance` and `sup_norm`, are worked out from the
    table and the homomorphism once, on first use, so no constructor or
    document can state them; `is_geneo` alone combines them.
    """

    coeffs: tuple[tuple[Fraction, ...], ...]
    source: PerceptionPair
    target: PerceptionPair
    hom: Homomorphism

    def __post_init__(self):
        if len(self.coeffs) != self.target.space.dim:
            raise ValueError("row count does not match the target domain")
        for row in self.coeffs:
            if len(row) != self.source.space.dim:
                raise ValueError("column count does not match the source domain")
        if self.hom.source != self.source.group or self.hom.target != self.target.group:
            raise ValueError("homomorphism does not connect the two perception pairs")

    @property
    def n_in(self) -> int:
        return self.source.space.dim

    @property
    def n_out(self) -> int:
        return self.target.space.dim

    # the functions are looked up at first use, so a wrapper around them sees the work;
    # scaled is the table as integer rows over one denominator d, and d
    scaled = cached_property(lambda self: integer_table(self.coeffs))
    equivariance = cached_property(lambda self: verify_equivariance(self))
    sup_norm = cached_property(lambda self: operator_sup_norm(self))
    is_geo = property(lambda self: self.equivariance[0])

    @property
    def is_geneo(self) -> bool:
        """Equivariant and 1-Lipschitz, which for a linear map is sup norm <= 1."""
        return self.is_geo and self.sup_norm <= 1


@dataclass(frozen=True)
class PointwiseOperator:
    """The coordinatewise min or max of GENEOs that share source, target and
    homomorphism T.

    Each operand must be a GENEO (its `is_geneo`), and the rejection names
    its witness.  The pointwise min or max of T-equivariant sup-norm
    1-Lipschitz maps is again both (Bergomi, Frosini, Giorgi, Quercioli,
    Nat. Mach. Intell. 1, 2019), so is_geo and is_geneo hold by construction.
    """

    kind: str
    operands: tuple[Operator, ...]

    is_geo = True
    is_geneo = True

    source = property(lambda self: self.operands[0].source)
    target = property(lambda self: self.operands[0].target)
    hom = property(lambda self: self.operands[0].hom)

    def __post_init__(self):
        if self.kind not in ("min", "max") or not self.operands:
            raise ValueError("a pointwise operator needs kind 'min' or 'max' and at least one operand")
        _require_same_signature(self.operands)
        for k, op in enumerate(self.operands):
            if not op.is_geneo:
                norm = f"is not non-expansive: operator norm {op.sup_norm} > 1"
                raise ValueError(f"operand {k} {norm if op.is_geo else _not_equivariant(op)}")


Operator = LinearOperator | PointwiseOperator


def apply(op: Operator, phi: Measurement) -> Measurement:
    """Evaluate an operator on a measurement: an exact matrix-vector product,
    or the coordinatewise min or max of the operands' values."""
    if len(phi) != op.source.space.dim:
        raise DomainMismatchError(
            f"measurement length {len(phi)} does not match source dimension {op.source.space.dim}"
        )
    if phi.domain is not None and phi.domain != op.source.domain:
        raise DomainMismatchError(f"measurement domain {phi.domain} is not {op.source.domain}")
    if isinstance(op, PointwiseOperator):
        pick = min if op.kind == "min" else max
        values = zip(*(apply(f, phi).values for f in op.operands))
        return Measurement(tuple(pick(column) for column in values), op.target.domain)
    table, d = op.scaled
    (values,), scale = integer_table([phi.values])
    return Measurement(tuple([Fraction(x, d * scale) for x in matvec(table, values, 0)]), op.target.domain)


def verify_equivariance(op: LinearOperator) -> tuple[bool, Witness | None]:
    """Exact equivariance check F(phi o g) = F(phi) o T(g) on the coefficient
    table, for every generator g of the source group.

    For the standard basis vector e_i, e_i o g = e_{g^-1(i)}, so the check on
    e_i reads coeffs[y][g^-1(i)] == coeffs[T(g)(y)][i] for every row y.
    Linearity extends it to every measurement, and, as the generators generate
    the group and T is a verified homomorphism, to every element.  The witness
    on failure is (basis index, generator): the first failing index i for the
    first failing generator.  The check runs on the generators' image tuples
    and compares the integer table's column j with column i permuted by T(g),
    as whole tuples; `op.equivariance` keeps its result from the first use on.
    """
    table, _ = op.scaled
    columns = tuple(zip(*table)) if table else ((),) * op.n_in
    for g in op.source.group.generator_images:
        tg = op.hom.image(g)
        for i, j in enumerate(_inverse(g)):  # j = g^-1(i)
            if columns[j] != tuple(map(columns[i].__getitem__, tg)):
                return False, (i, Permutation(g, op.source.group.labels))
    return True, None


def operator_sup_norm(op: LinearOperator) -> Fraction:
    """The exact operator norm for the sup norm: the largest absolute row sum;
    `op.sup_norm` keeps it from the first use on."""
    table, d = op.scaled
    return Fraction(max((sum(map(abs, row)) for row in table), default=0), d)


def _not_equivariant(op: LinearOperator) -> str:
    """Why an operator that fails the equivariance check is no GENEO, naming its witness."""
    i, g = op.equivariance[1]
    return f"is not equivariant: basis index {i} fails under generator {g}"


def _map_table(maps: Iterable[tuple], n_rows: int, n_cols: int) -> list[list[int]]:
    """The table of integer-weighted maps (images, w): entry [y][x] sums w over the maps with y -> x."""
    table = [[0] * n_cols for _ in range(n_rows)]
    for images, w in maps:
        for y, x in enumerate(images):
            table[y][x] += w
    return table


def _weighted_maps(m: PermutantMeasure) -> tuple[Iterable[tuple], int]:
    """The measure's maps with integer weights over their least common denominator, and that denominator."""
    denominator = math.lcm(*(w.denominator for w in m.weights.values()))
    return ((h, w.numerator * (denominator // w.denominator)) for h, w in m.weights.items()), denominator


def _table_operator(
    table: Sequence[Sequence[int]], denominator: int, source: PerceptionPair, target: PerceptionPair, hom: Homomorphism
) -> LinearOperator:
    """The operator with coefficients table / denominator, one Fraction per
    distinct value, holding its `scaled` view: the table over the least
    common denominator of its cells, which is denominator over its gcd with
    every cell."""
    g = math.gcd(denominator, *chain.from_iterable(table))
    table, d = tuple(tuple([c // g for c in row]) for row in table), denominator // g
    value = {c: Fraction(c, d) for c in set(chain.from_iterable(table))}
    op = LinearOperator(tuple(tuple(map(value.__getitem__, row)) for row in table), source, target, hom)
    op.__dict__["scaled"] = table, d
    return op


def _map_operator(ctx: ActionContext, maps: Iterable[tuple], denominator: int) -> LinearOperator:
    """The operator phi -> sum_f w(f) / denominator phi o f, on the full spaces."""
    table = _map_table(maps, ctx.K.degree, ctx.G.degree)
    source = PerceptionPair(full_space(ctx.x_labels), ctx.G)
    target = PerceptionPair(full_space(ctx.y_labels), ctx.K)
    return _table_operator(table, denominator, source, target, ctx.T)


def from_permutant(h: GeneralizedPermutant) -> LinearOperator:
    """The averaging operator F(phi) = (1/|H|) sum_{h in H} phi o h, on the
    full spaces.

    Equivariant and non-expansive by construction; both verdicts are still
    checked on the table.
    """
    if h.size == 0:
        raise ValueError("cannot build an operator from the empty permutant")
    maps = ((h.context.map_images(c), 1) for c in h.codes)
    op = _map_operator(h.context, maps, h.size)
    assert op.is_geneo, "permutant averaging must yield a GENEO"
    return op


def from_measure(m: PermutantMeasure) -> LinearOperator:
    """The weighted operator F(phi) = sum_f phi o f mu(f) for a validated
    permutant measure, on the full spaces.

    Always a GEO; a GENEO exactly when the sup-norm operator norm is at most
    1, which the condition sum |mu| <= 1 guarantees.
    """
    ok, witness = is_permutant_measure(m)
    if not ok:
        f, g = witness
        raise ValueError(f"not a permutant measure: weight changes along alpha({g}, {f})")
    op = _map_operator(m.context, *_weighted_maps(m))
    assert op.is_geo, "a permutant measure must yield an equivariant operator"
    return op


def _diagonal_operator(pair: PerceptionPair, diagonal: Sequence[Fraction]) -> LinearOperator:
    """The endo-operator phi -> (d_1 phi^1, ..., d_n phi^n) under the identity."""
    n = len(diagonal)
    coeffs = tuple(tuple(d if i == j else Fraction(0) for j in range(n)) for i, d in enumerate(diagonal))
    return LinearOperator(coeffs, pair, pair, Homomorphism.identity_on(pair.group))


def identity_operator(pair: PerceptionPair) -> LinearOperator:
    return _diagonal_operator(pair, [Fraction(1)] * pair.space.dim)


def zero_operator(pair: PerceptionPair) -> LinearOperator:
    return _diagonal_operator(pair, [Fraction(0)] * pair.space.dim)


# -- diagonal scaling ---------------------------------------------------------


@dataclass(frozen=True)
class ScalingOutcome:
    """Result of a diagonal-scaling request: either an operator, or the
    coordinate orbits / space constraints it violates."""

    accepted: bool
    operator: LinearOperator | None
    violated_orbits: tuple[tuple[int, ...], ...]
    closure_ok: bool
    detail: str


def diagonal_scaling(d: Sequence, pair: PerceptionPair) -> ScalingOutcome:
    """The operator phi -> (phi^1/d_1, ..., phi^n/d_n) on a perception pair.

    Accepted iff d is constant on every orbit of the group's coordinate action
    (equivariance) and the scaled space stays inside the pair's space
    (closure); all d_i must be >= 1 for non-expansivity.
    """
    scale = tuple(as_fraction(x) for x in d)
    n = pair.space.dim
    if len(scale) != n:
        raise ValueError(f"expected {n} scaling factors, got {len(scale)}")
    if any(x < 1 for x in scale):
        raise ValueError("all scaling factors must be at least 1")

    violated = tuple(
        tuple(orb)
        for orb in pair.group.coordinate_orbits()
        if len({scale[i] for i in orb}) > 1
    )

    # norm balls shrink under division by d_i >= 1, so they never obstruct
    escaped = pair.space.escape(lambda values: tuple(v / s for v, s in zip(values, scale)))
    closure_ok, detail = escaped is None, ""
    if escaped is not None:
        detail = (
            f"image of {tuple(map(str, escaped.values))} leaves the explicit family"
            if pair.space.kind == "explicit"
            else "scaled image leaves the constrained space"
        )

    if violated or not closure_ok:
        if violated:
            labels = pair.space.domain
            names = ["{" + ",".join(labels[i] for i in orb) + "}" for orb in violated]
            detail = (detail + "; " if detail else "") + (
                "scaling is not constant on coordinate orbit(s) " + ", ".join(names)
            )
        return ScalingOutcome(False, None, violated, closure_ok, detail)

    op = _diagonal_operator(pair, [Fraction(1) / s for s in scale])
    assert op.is_geneo
    return ScalingOutcome(True, op, (), True, "")


# -- combinators --------------------------------------------------------------


def _require_same_signature(ops: Sequence[Operator]) -> None:
    first = ops[0]
    for op in ops[1:]:
        if (op.source, op.target, op.hom.images) != (first.source, first.target, first.hom.images):
            raise DomainMismatchError("operators do not share source, target, and homomorphism")


def convex_combination(ops: Sequence[LinearOperator], weights: Sequence) -> LinearOperator:
    """The operator sum_i lambda_i F_i for a convex weight vector lambda."""
    if not ops:
        raise ValueError("need at least one operator")
    lam = [as_fraction(w) for w in weights]
    if len(lam) != len(ops):
        raise ValueError("one weight per operator required")
    if any(w < 0 for w in lam) or sum(lam) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    _require_same_signature(ops)
    # lambda_i / d_i as an integer weight over the common denominator of them all
    scaled = [op.scaled for op in ops]
    denominator = math.lcm(*(w.denominator * d for w, (_, d) in zip(lam, scaled)))
    integer_weights = [w.numerator * (denominator // (w.denominator * d)) for w, (_, d) in zip(lam, scaled)]
    # one row per cell, in row-major order, holding that cell's entries across the ops
    flat = matvec(list(zip(*(chain.from_iterable(table) for table, _ in scaled))), integer_weights, 0)
    first, n = ops[0], ops[0].n_in
    table = [flat[y * n : (y + 1) * n] for y in range(first.n_out)]
    return _table_operator(table, denominator, first.source, first.target, first.hom)


def compose_operators(f2: LinearOperator, f1: LinearOperator) -> LinearOperator:
    """The composite F2 o F1 (apply F1 first); homomorphisms compose alongside."""
    if f1.target != f2.source:
        raise DomainMismatchError("target pair of the first operator must be the source of the second")
    (t2, d2), (t1, d1) = f2.scaled, f1.scaled
    return _table_operator(matmul(t2, t1, f1.n_in), d2 * d1, f1.source, f2.target, f1.hom.then(f2.hom))


def pointwise_min(f1: Operator, f2: Operator) -> PointwiseOperator:
    return PointwiseOperator("min", (f1, f2))


def pointwise_max(f1: Operator, f2: Operator) -> PointwiseOperator:
    return PointwiseOperator("max", (f1, f2))


def geneo_distance(f1: Operator, f2: Operator, sample: FunctionSpace) -> Fraction:
    """Largest target-space sup distance between the two operators' outputs
    over an explicit finite sample."""
    _require_same_signature([f1, f2])
    if sample.kind != "explicit" or not sample.members:
        raise ValueError("operator distance needs a nonempty explicit sample")
    return max(sup_distance(apply(f1, phi), apply(f2, phi)) for phi in sample.members)


# -- representation: operator -> permutant measure ----------------------------

DEFAULT_DECOMPOSE_CAP = 5040
# generator sets whose decomposition data stays in memory; the least recently used goes first
_REMEMBERED_GROUPS = 8

Orbital = tuple[tuple[int, int], ...]
# an LP column: orbit size, orbital counts, and the first such orbit's sorted members
OrbitColumn = tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]
# the orbital equations' left side A reduced, from integer_rref of [A | I]: for
# each row d [RREF(A)_i | E_i] = [g r' | e] with r' primitive, (r', g, e); and
# the integer rows of A's left null space N
Elimination = tuple[tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...], tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=_REMEMBERED_GROUPS)
def _orbit_columns(
    n: int, generators: tuple[tuple[int, ...], ...]
) -> tuple[tuple[Orbital, ...], tuple[OrbitColumn, ...], Elimination]:
    """The group-only data of a decomposition over the group of degree n with
    these generator images: the orbitals, the distinct columns of the
    conjugation orbits of the n! bijections in canonical orbit order, and the
    elimination of the orbital equations' left side.  The column of orbit O
    is (|O|, k), where k[W] counts the y with (y, h(y)) in orbital W, for any
    h in O.  Orbits with equal columns give equal LP columns; Bland's rule
    never lets a later copy into the basis, so the first in canonical order
    stands for them all (112 of 387 on C7).  Labels play no part, so
    relabeled copies of a group share one entry.

    One equation per orbital W: an operator and every orbit's count table
    t_O are constant on W, so the rows at the orbitals' smallest pairs span
    the row space of all n^2 equations.  t_O on W is |O| k[W] / |W|, which
    makes the left side A; the reduced form of [A | I] holds RREF(A) = E A
    and, in its rows with no A part, the left null space N of A.
    """
    pair_orbits = tuple(_pair_orbits(n, n, [(g, g) for g in generators]))
    orbital_of = {p: w for w, o in enumerate(pair_orbits) for p in o}
    # conjugation h -> g o h o g^-1 is alpha with T the identity, on positions in permutations order
    bijections = list(permutations(range(n)))
    position = {h: i for i, h in enumerate(bijections)}
    moves = [_alpha_move(g, _inverse(g)) for g in generators]
    tables = [[position[move(h)] for h in bijections] for move in moves]
    first_orbit: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}
    for o in _label_orbits(len(bijections), tables)[1]:
        counts = [0] * len(pair_orbits)
        for y, x in enumerate(bijections[o[0]]):
            counts[orbital_of[y, x]] += 1
        key = (len(o), tuple(counts))
        if key not in first_orbit:
            first_orbit[key] = tuple(bijections[i] for i in o)
    columns = tuple((size, counts, members) for (size, counts), members in first_orbit.items())

    w = len(pair_orbits)
    lhs = [[size * counts[i] // len(o) for size, counts, _ in columns] for i, o in enumerate(pair_orbits)]
    reduced, null = [], []
    for _, row in integer_rref([a + [int(i == j) for j in range(w)] for i, a in enumerate(lhs)]):
        r, e = row[: len(columns)], tuple(row[len(columns) :])
        if any(r):
            g = math.gcd(*r)
            reduced.append((tuple(x // g for x in r), g, e))
        else:
            null.append(e)
    return pair_orbits, columns, (tuple(reduced), tuple(null))


def _reduced_system(elimination: Elimination, scaled: Sequence[int], denominator: int) -> list[list[int]]:
    """The rows of RREF([A | b]), for the orbital equations' left side A,
    reduced in ``elimination``, and the operator's values b = scaled /
    denominator on the orbitals: each row as its least integer multiple with
    a positive lead, which is integer_rref's row r over gcd(d, *r), the row
    the LP takes.

    Raises ValueError when N b != 0, as no measure reproduces the operator
    then.  Otherwise rank [A | b] = rank A, and the rows [RREF(A)_i | E_i b]
    lie in the row space of [A | b] and are in reduced form, so they are its
    reduced rows.  With b = B / D and the cached rows g r' = d RREF(A)_i and
    e = d E_i, row i is a multiple of [D g r' | e B], which its gcd divides
    down to the least one."""
    reduced, null = elimination
    if any(sum(map(mul, e, scaled)) for e in null):
        raise ValueError("no permutant measure reproduces this operator")
    rows = []
    for r, g, e in reduced:
        t = sum(map(mul, e, scaled))
        scale = denominator * g
        common = math.gcd(scale, t)
        rows.append([x * (scale // common) for x in r] + [t // common])
    return rows


def decompose_to_measure(op: LinearOperator) -> PermutantMeasure:
    """Recover a permutant measure mu with sum |mu| <= 1 whose operator equals op.

    Only endo-operators with the identity homomorphism and a transitive group
    are handled.  The weights returned feed from_measure directly, i.e. they
    sit on each bijection f with coeffs[y][x] = sum_{f(y)=x} mu(f); composing
    with inversion of the support yields the h^-1 form of the representation
    identity.  The unknowns are one weight per conjugation orbit of the
    bijections, constrained by one equation per orbital, and orbits with equal
    columns share one LP column.  These orbits, orbitals and columns, and the
    elimination of the equations' left side, depend only on the group, so they
    are computed once per generator set and process (for the last 8 sets used)
    and reused across calls and relabelings; a call reads only op's values on
    the orbitals, and every check on op runs on each call.  One exact LP over
    every distinct orbit column minimizes the total variation, and the measure
    is the basic optimum Bland's rule reaches there, so the result is
    deterministic.  At most one of a weight's two parts u, v is basic, as their
    columns are negatives of each other, so the orbits it weights have linearly
    independent columns: no measure on a proper subset of them reproduces op;
    the weights are formed from the basic parts alone, and the rebuilt table
    is compared with op's by integer cross products.  Raises ValueError if op
    is not equivariant, the group is not transitive, or no such measure exists.
    """
    if op.source.domain != op.target.domain or op.source.group != op.target.group:
        raise ValueError("decomposition handles only endo-operators on a single pair")
    if not op.hom.is_identity():
        raise ValueError("decomposition requires the identity homomorphism")
    group = op.source.group
    n = group.degree
    if math.factorial(n) > DEFAULT_DECOMPOSE_CAP:
        raise CapExceededError(f"{n}! permutations exceed the decomposition cap {DEFAULT_DECOMPOSE_CAP}")
    if len(group.coordinate_orbits()) != 1:
        raise ValueError("the group must act transitively on the domain")
    if not op.is_geo:
        raise ValueError(f"operator {_not_equivariant(op)}")

    pair_orbits, columns, elimination = _orbit_columns(n, group.generator_images)
    table, d = op.scaled
    rows = _reduced_system(elimination, [table[y][x] for (y, x), *_ in pair_orbits], d)

    # Weights w = u - v with u, v >= 0, at cost |O| each, so the LP's columns
    # come in pairs (a, -a).  Phase 1 minimizes one artificial variable per
    # row as given, so another row scale would change Bland's path and with
    # it the measure.
    lhs = [[c for a in row[:-1] for c in (a, -a)] for row in rows]
    costs = [size for size, _, _ in columns for _ in (0, 1)]
    status, variation, sol = simplex_min(costs, lhs, [row[-1] for row in rows])
    if status != OPTIMAL:
        raise ValueError("no permutant measure reproduces this operator")
    if variation > 1:
        raise ValueError(
            "operator is not a GENEO of this form: any reproducing measure has "
            f"total variation {variation} > 1"
        )

    # at most one of u and v is basic, and only basic columns are nonzero;
    # alpha-invariant by construction, and equivariant as op is once the tables match
    measure_weights = {
        h: x if j % 2 == 0 else -x for j, x in enumerate(sol) if x for h in columns[j // 2][2]
    }
    result = PermutantMeasure._unchecked(endo_context(group), measure_weights)
    maps, denominator = _weighted_maps(result)
    assert all(
        t * d == c * denominator for rebuilt, row in zip(_map_table(maps, n, n), table) for t, c in zip(rebuilt, row)
    ), "reconstructed operator must match exactly"
    return result
