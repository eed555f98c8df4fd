"""Operators between spaces of measurements: construction from permutants and
permutant measures, the exact GENEO verdict, combinators (pointwise min/max of
GENEOs kept as the kind and the operands, GENEOs by construction), and the
decomposition of an equivariant endo-operator back to a permutant measure.

Linear operators store dense exact-rational coefficient tables; rows are
indexed by the target set Y, columns by the source set X, so F(phi)(y) =
sum_x coeffs[y][x] phi(x); `is_geneo` alone decides the GENEO verdict.
Products of tables and vectors go through the kernel in `linalg`.  Tables
built from maps are counted in int and divided once per cell.  The
decomposition writes one equation per orbital and one LP column pair per
distinct orbit column, computes those from the group once per generator set,
and leaves the elimination and the LP to the fraction-free integer rows of
`linalg`.  Its conjugation orbits are labelled by
`perm._label_orbits` on the positions of the n! bijections in
`permutations` order, one lookup table per generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterable, Sequence

from .linalg import OPTIMAL, dot, integer_rref, matmul, matvec, simplex_min
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

    # the functions are looked up at first use, so a wrapper around them sees the work
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
    return Measurement(matvec(op.coeffs, phi.values), op.target.domain)


def verify_equivariance(op: LinearOperator) -> tuple[bool, Witness | None]:
    """Exact equivariance check F(phi o g) = F(phi) o T(g) on the coefficient
    table, for every generator g of the source group.

    For the standard basis vector e_i, e_i o g = e_{g^-1(i)}, so the check on
    e_i reads coeffs[y][g^-1(i)] == coeffs[T(g)(y)][i] for every row y.
    Linearity extends it to every measurement, and, as the generators generate
    the group and T is a verified homomorphism, to every element.  The witness
    on failure is (basis index, generator): the first failing index i for the
    first failing generator.  The check runs on the generators' image tuples;
    `op.equivariance` keeps its result from the first use on.
    """
    c = op.coeffs
    rows = range(op.n_out)
    for g in op.source.group.generator_images:
        tg = op.hom.image(g)
        for i, j in enumerate(_inverse(g)):  # j = g^-1(i)
            if any(c[y][j] != c[tg[y]][i] for y in rows):
                return False, (i, Permutation(g, op.source.group.labels))
    return True, None


def operator_sup_norm(op: LinearOperator) -> Fraction:
    """The exact operator norm for the sup norm: the largest absolute row sum;
    `op.sup_norm` keeps it from the first use on."""
    return max((sum(map(abs, row)) for row in op.coeffs), default=Fraction(0))


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


def _map_operator(
    ctx: ActionContext, maps: Iterable[tuple], denominator: int,
    source: FunctionSpace | None, target: FunctionSpace | None,
) -> LinearOperator:
    """The operator phi -> sum_f w(f) / denominator phi o f, on the full spaces by default."""
    table = _map_table(maps, ctx.K.degree, ctx.G.degree)
    coeffs = tuple(tuple(Fraction(c, denominator) for c in row) for row in table)
    source_pair = PerceptionPair(source or full_space(ctx.x_labels), ctx.G)
    target_pair = PerceptionPair(target or full_space(ctx.y_labels), ctx.K)
    return LinearOperator(coeffs, source_pair, target_pair, ctx.T)


def from_permutant(
    h: GeneralizedPermutant,
    source_space: FunctionSpace | None = None,
    target_space: FunctionSpace | None = None,
) -> LinearOperator:
    """The averaging operator F(phi) = (1/|H|) sum_{h in H} phi o h.

    Equivariant and non-expansive by construction; both verdicts are still
    checked on the table.
    """
    if h.size == 0:
        raise ValueError("cannot build an operator from the empty permutant")
    maps = ((h.context.map_images(c), 1) for c in h.codes)
    op = _map_operator(h.context, maps, h.size, source_space, target_space)
    assert op.is_geneo, "permutant averaging must yield a GENEO"
    return op


def from_measure(
    m: PermutantMeasure,
    source_space: FunctionSpace | None = None,
    target_space: FunctionSpace | None = None,
) -> LinearOperator:
    """The weighted operator F(phi) = sum_f phi o f mu(f) for a validated
    permutant measure.

    Always a GEO; a GENEO exactly when the sup-norm operator norm is at most
    1, which the condition sum |mu| <= 1 guarantees.
    """
    ok, witness = is_permutant_measure(m)
    if not ok:
        f, g = witness
        raise ValueError(f"not a permutant measure: weight changes along alpha({g}, {f})")
    op = _map_operator(m.context, *_weighted_maps(m), source_space, target_space)
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
    # row i stacks the ops' row i; its entries across the ops form the columns
    coeffs = tuple(
        tuple(dot(lam, entries) for entries in zip(*rows))
        for rows in zip(*(op.coeffs for op in ops))
    )
    return LinearOperator(coeffs, ops[0].source, ops[0].target, ops[0].hom)


def compose_operators(f2: LinearOperator, f1: LinearOperator) -> LinearOperator:
    """The composite F2 o F1 (apply F1 first); homomorphisms compose alongside."""
    if f1.target != f2.source:
        raise DomainMismatchError("target pair of the first operator must be the source of the second")
    coeffs = matmul(f2.coeffs, f1.coeffs, f1.n_in)
    return LinearOperator(coeffs, f1.source, f2.target, f1.hom.then(f2.hom))


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


@lru_cache(maxsize=_REMEMBERED_GROUPS)
def _orbit_columns(
    n: int, generators: tuple[tuple[int, ...], ...]
) -> tuple[tuple[Orbital, ...], tuple[OrbitColumn, ...]]:
    """The group-only data of a decomposition over the group of degree n with
    these generator images: the orbitals, and the distinct columns of the
    conjugation orbits of the n! bijections in canonical orbit order.  The
    column of orbit O is (|O|, k), where k[W] counts the y with (y, h(y)) in
    orbital W, for any h in O.  Orbits with equal columns give equal LP
    columns; Bland's rule never lets a later copy into the basis, so the first
    in canonical order stands for them all (112 of 387 on C7).  Labels play no
    part, so relabeled copies of a group share one entry.
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
    return pair_orbits, tuple((size, counts, members) for (size, counts), members in first_orbit.items())


def decompose_to_measure(op: LinearOperator) -> PermutantMeasure:
    """Recover a permutant measure mu with sum |mu| <= 1 whose operator equals op.

    Only endo-operators with the identity homomorphism and a transitive group
    are handled.  The weights returned feed from_measure directly, i.e. they
    sit on each bijection f with coeffs[y][x] = sum_{f(y)=x} mu(f); composing
    with inversion of the support yields the h^-1 form of the representation
    identity.  The unknowns are one weight per conjugation orbit of the
    bijections, constrained by one equation per orbital, and orbits with equal
    columns share one LP column.  These orbits, orbitals and columns depend
    only on the group, so they are computed once per generator set and process
    (for the last 8 sets used) and reused across calls and relabelings; every
    check on op runs on each call.  Among measures the exact LP solver reaches,
    the total variation is minimized first and the support then greedily pruned
    in canonical orbit order, so the result is deterministic.  Raises
    ValueError if op is not equivariant, the group is not transitive, or no
    such measure exists.
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

    # One equation per orbital W: op and every orbit's count table t_O are
    # constant on W, so the rows at the orbitals' smallest pairs span the row
    # space of all n^2 equations, and rref gives the same reduced rows (4 on the
    # 7-cycle's edges).  t_O on W is |O| k[W] / |W|.
    pair_orbits, columns = _orbit_columns(n, group.generator_images)
    sizes = [size for size, _, _ in columns]
    m = len(columns)
    equations = []
    for w, pair_orbit in enumerate(pair_orbits):
        y, x = pair_orbit[0]
        equations.append([size * counts[w] // len(pair_orbit) for size, counts, _ in columns] + [op.coeffs[y][x]])
    reduced = integer_rref(equations)  # an inconsistent row makes the first LP infeasible

    def lp(zeroed: set[int], bound: int | None):
        """Solve for column weights w (as u - v, u,v >= 0) with the given
        columns pinned to zero; minimize total variation, or with `bound` just
        test feasibility of total variation <= bound.  Returns (value, weights).
        Row r / d enters as the integer row the simplex would scale it to, r's
        active and last entries over their gcd with d; phase 1 minimizes one
        artificial variable per row as given, so another row scale would
        change Bland's path and with it the measure."""
        active = [i for i in range(m) if i not in zeroed]
        slack = [0] if bound is not None else []
        lhs, rhs = [], []
        for d, row in reduced:
            part = [row[i] for i in active] + [row[-1]]
            g = math.gcd(d, *part)
            *ints, b = [x // g for x in part]
            lhs.append([c for a in ints for c in (a, -a)] + slack)
            rhs.append(b)
        budget = [sizes[i] for i in active for _ in (0, 1)]
        if bound is not None:
            lhs.append(budget + [1])  # slack
            rhs.append(bound)
            costs = [0] * (2 * len(active) + 1)
        else:
            costs = budget
        status, value, sol = simplex_min(costs, lhs, rhs)
        if status != OPTIMAL:
            return None
        weights = {}
        for k, i in enumerate(active):
            w = sol[2 * k] - sol[2 * k + 1]
            if w != 0:
                weights[i] = w
        return value, weights

    first = lp(set(), None)
    if first is None:
        raise ValueError("no permutant measure reproduces this operator")
    min_variation, weights = first
    if min_variation > 1:
        raise ValueError(
            "operator is not a GENEO of this form: any reproducing measure has "
            f"total variation {min_variation} > 1"
        )

    # prune the support greedily in canonical orbit order; the current LP
    # solution certifies that columns absent from it can be pinned for free
    zeroed = {i for i in range(m) if i not in weights}
    for i in range(m):
        if i in zeroed:
            continue
        res = lp(zeroed | {i}, 1)
        if res is not None:
            zeroed.add(i)
            weights = res[1]
            zeroed.update(j for j in range(m) if j not in weights)

    # final deterministic solve on the pruned support
    final = lp(zeroed, None)
    assert final is not None and final[0] <= 1
    _, weights = final

    # alpha-invariant by construction, and equivariant as op is once the tables match
    measure_weights = {h: w for i, w in weights.items() for h in columns[i][2]}
    result = PermutantMeasure(endo_context(group), measure_weights)
    maps, denominator = _weighted_maps(result)
    scaled = [[c * denominator for c in row] for row in op.coeffs]
    assert _map_table(maps, n, n) == scaled, "reconstructed operator must match exactly"
    return result
