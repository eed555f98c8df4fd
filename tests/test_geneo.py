import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from geneograph.experiments import cube_reflection_measure, transposition_permutant
from geneograph.geneo import (
    LinearOperator,
    PointwiseOperator,
    apply,
    compose_operators,
    convex_combination,
    decompose_to_measure,
    diagonal_scaling,
    from_measure,
    from_permutant,
    geneo_distance,
    identity_operator,
    operator_sup_norm,
    pointwise_max,
    pointwise_min,
    verify_equivariance,
    zero_operator,
)
from geneograph.graph import complete_graph, cycle_graph, edge_automorphism_group
from geneograph import linalg
from geneograph.linalg import integer_rref, integer_table, rref, simplex_min
from geneograph.perception import (
    PerceptionPair,
    constrained_space,
    explicit_space,
    full_space,
    measurement,
    sup_distance,
)
from geneograph.perm import DomainMismatchError, Homomorphism, generate_group, parse_cycles, trivial_group
from geneograph.permutant import (
    PermutantMeasure,
    all_orbits,
    endo_context,
    orbit,
    uniform_measure,
)

from conftest import dihedral_edge_context
from helpers import (
    k4_operators_that_are_not_geneos,
    orbit_sum_measure,
    reference_apply,
    reference_compose,
    reference_convex,
    reference_equivariance,
    reference_sup_norm,
    symmetric_group,
)

EDGE_LABELS = ("p", "q", "r", "s", "t", "u")


@pytest.fixture(scope="module")
def f4():
    return from_permutant(transposition_permutant(4, model="edge"))


@pytest.fixture(scope="module")
def k4_pair(f4):
    return f4.source


def frac6(*nums, den=6):
    return tuple(Fraction(n, den) for n in nums)


# construction from permutants


def test_f4_code_of_triangle(f4):
    out = apply(f4, measurement([1, 1, 1, 0, 0, 0], EDGE_LABELS))
    assert out.values == frac6(4, 4, 4, 2, 2, 2)


def test_f4_code_of_star(f4):
    out = apply(f4, measurement([0, 0, 0, 1, 1, 1], EDGE_LABELS))
    assert out.values == frac6(2, 2, 2, 4, 4, 4)


def test_f4_is_flagged_geneo(f4):
    assert f4.is_geo and f4.is_geneo


def test_verdicts_follow_the_table(f4):
    # a copy with a doubled table keeps equivariance but has norm 2
    doubled = replace(f4, coeffs=tuple(tuple(2 * c for c in row) for row in f4.coeffs))
    assert operator_sup_norm(doubled) == 2
    assert doubled.is_geo is True and doubled.is_geneo is False


def test_singleton_identity_permutant_gives_identity_operator():
    group = edge_automorphism_group(complete_graph(4))
    ctx = endo_context(group)
    from geneograph.permutant import GeneralizedPermutant

    h = GeneralizedPermutant(ctx, (group.identity.images,))
    op = from_permutant(h)
    assert op.coeffs == identity_operator(op.source).coeffs


def test_aec_orbit_operator_rows(c6c3):
    op = from_permutant(orbit("aec", c6c3))
    assert op.n_in == 6 and op.n_out == 3
    half = Fraction(1, 2)
    # row g averages the two pullbacks a and d; row h: e and b; row i: c and f
    assert op.coeffs[0] == (half, 0, 0, half, 0, 0)
    assert op.coeffs[1] == (0, half, 0, 0, half, 0)
    assert op.coeffs[2] == (0, 0, half, 0, 0, half)


@pytest.mark.parametrize("keyword", ["source_space", "target_space"])
def test_operators_from_maps_live_on_the_full_spaces(c6c3, keyword):
    # on a constrained target the averaging operator would leave it: e_0 maps to (1/2, 0, 0), outside sum = 0
    h = orbit("aec", c6c3)
    space = constrained_space(c6c3.y_labels, [((1, 1, 1), 0)])
    with pytest.raises(TypeError):
        from_permutant(h, **{keyword: space})
    with pytest.raises(TypeError):
        from_measure(uniform_measure(h), **{keyword: space})
    op = from_measure(uniform_measure(h))
    assert (op.source.space, op.target.space) == (full_space(c6c3.x_labels), full_space(c6c3.y_labels))


def test_empty_permutant_rejected(c6c3):
    from geneograph.permutant import GeneralizedPermutant

    with pytest.raises(ValueError, match="empty"):
        from_permutant(GeneralizedPermutant(c6c3, ()))


# construction from measures


def test_uniform_measure_matches_permutant_average(f4):
    h = transposition_permutant(4, model="edge")
    op = from_measure(uniform_measure(h))
    assert op.coeffs == f4.coeffs
    assert op.is_geneo


def test_zero_measure_gives_zero_geneo():
    group = edge_automorphism_group(complete_graph(4))
    m = PermutantMeasure(endo_context(group), {})
    op = from_measure(m)
    assert all(all(c == 0 for c in row) for row in op.coeffs)
    assert op.is_geo and op.is_geneo


def test_cube_measure_on_vertex_indicator():
    op = from_measure(cube_reflection_measure(Fraction(1, 3)))
    e_a = measurement([1, 0, 0, 0, 0, 0, 0, 0], op.source.domain)
    out = apply(op, e_a)
    third = Fraction(1, 3)
    # the three reflected images of vertex A carry 1/3 each
    assert out.values == (0, third, third, 0, third, 0, 0, 0)


def test_cube_measure_flags():
    geneo_op = from_measure(cube_reflection_measure(Fraction(1, 3)))
    assert geneo_op.is_geo and geneo_op.is_geneo
    geo_only = from_measure(cube_reflection_measure(1))
    assert geo_only.is_geo and not geo_only.is_geneo


def test_invalid_measure_rejected(c6c3):
    aec, dbf = orbit("aec", c6c3).members
    bad = PermutantMeasure(c6c3, {aec.images: 1, dbf.images: 2})
    with pytest.raises(ValueError, match="not a permutant measure"):
        from_measure(bad)


# application


def test_apply_linearity_on_zero(f4):
    out = apply(f4, measurement([0] * 6, EDGE_LABELS))
    assert out.values == (0,) * 6


def test_apply_fixes_constants(f4):
    out = apply(f4, measurement([1] * 6, EDGE_LABELS))
    assert out.values == (1,) * 6


def test_apply_domain_mismatch(f4):
    from geneograph.perm import DomainMismatchError

    with pytest.raises(DomainMismatchError):
        apply(f4, measurement([1, 2, 3]))


# verification


def test_f4_equivariant(f4):
    ok, witness = verify_equivariance(f4)
    assert ok and witness is None


def test_f4_equivariance_entrywise_over_full_group(f4):
    # independent formulation: C[y][x] = C[T(g)(y)][g(x)] for every group
    # element, not just generators
    coeffs = f4.coeffs
    for g in f4.source.group:
        tg = f4.hom(g)
        for y in range(6):
            for x in range(6):
                assert coeffs[y][x] == coeffs[tg(y)][g(x)]


def basis_vector_witness(op):
    """Equivariance on basis vectors: F(e_i o g) against F(e_i) o T(g), for each
    generator g and then each index i."""
    n = op.n_in
    for g in op.source.group.generators:
        for i in range(n):
            e = measurement([1 if j == i else 0 for j in range(n)], op.source.domain)
            if apply(op, e.pullback(g)).values != apply(op, e).pullback(op.hom(g)).values:
                return False, (i, g)
    return True, None


WITNESS_CONTEXTS = {
    "c6c3": dihedral_edge_context,
    "c5-endo": lambda: endo_context(edge_automorphism_group(cycle_graph(5))),
    "k4-endo": lambda: endo_context(edge_automorphism_group(complete_graph(4))),
}


@pytest.mark.parametrize("name", sorted(WITNESS_CONTEXTS))
def test_equivariance_witness_matches_basis_vector_check(name):
    ctx = WITNESS_CONTEXTS[name]()
    rng = random.Random(name)
    witnesses = set()
    for _ in range(6):
        op = from_permutant(orbit([rng.choice(ctx.x_labels) for _ in ctx.y_labels], ctx))
        doubled = replace(op, coeffs=tuple(tuple(2 * c for c in row) for row in op.coeffs))
        variants = [op, doubled]
        for base in (op, doubled):
            for _ in range(8):
                rows = [list(row) for row in base.coeffs]
                rows[rng.randrange(op.n_out)][rng.randrange(op.n_in)] += Fraction(
                    rng.choice((-1, 1)), rng.randint(1, 6)
                )
                variants.append(replace(base, coeffs=tuple(map(tuple, rows))))
        for variant in variants:
            result = verify_equivariance(variant)
            assert result == basis_vector_witness(variant)
            witnesses.add(result[1])
        assert verify_equivariance(op) == verify_equivariance(doubled) == (True, None)
    assert len(witnesses) > 3


def test_equivariance_check_reads_only_the_table(f4, monkeypatch):
    import geneograph.geneo as geneo_module

    calls = []
    real_apply = geneo_module.apply
    monkeypatch.setattr(geneo_module, "apply", lambda op, phi: calls.append(1) or real_apply(op, phi))
    assert verify_equivariance(f4) == (True, None)
    assert calls == []


def test_identity_operator_equivariant(k4_pair):
    ok, _ = verify_equivariance(identity_operator(k4_pair))
    assert ok


def test_unbalanced_diagonal_is_not_equivariant():
    group = generate_group([parse_cycles("(r,s)(q,t)", EDGE_LABELS)])
    pair = PerceptionPair(full_space(EDGE_LABELS), group)
    coeffs = tuple(
        tuple(Fraction(1, d) if i == j else Fraction(0) for j in range(6))
        for i, d in enumerate((1, 2, 3, 4, 5, 6))
    )
    op = LinearOperator(coeffs, pair, pair, Homomorphism.identity_on(group))
    ok, witness = verify_equivariance(op)
    assert not ok
    basis_index, gen = witness
    assert gen in group


def test_f4_nonexpansive_row_sums(f4):
    assert operator_sup_norm(f4) == 1
    assert f4.is_geneo


def test_doubled_identity_is_expansive(k4_pair):
    doubled = LinearOperator(
        tuple(
            tuple(Fraction(2 if i == j else 0) for j in range(6)) for i in range(6)
        ),
        k4_pair,
        k4_pair,
        Homomorphism.identity_on(k4_pair.group),
    )
    assert operator_sup_norm(doubled) == 2 and not doubled.is_geneo


def test_small_measures_are_nonexpansive(c6c3):
    from geneograph.permutant import measure_on_orbit

    m = measure_on_orbit(orbit("bfd", c6c3), Fraction(1, 8))  # total variation 1/2
    assert from_measure(m).is_geneo


# diagonal scaling


def edge_scaling_pair():
    group = generate_group([parse_cycles("(r,s)(q,t)", EDGE_LABELS)])
    space = constrained_space(EDGE_LABELS, [((1, 0, 0, 0, 0, 1), 0)])
    return PerceptionPair(space, group)


def vertex_scaling_pair():
    abcd = ("A", "B", "C", "D")
    group = generate_group([parse_cycles("(B,D)", abcd)])
    space = constrained_space(abcd, [((1, 0, 1, 0), 0)])
    return PerceptionPair(space, group)


def test_edge_scaling_accepts_orbitwise_constant_factors():
    outcome = diagonal_scaling((2, 3, 5, 5, 3, 2), edge_scaling_pair())
    assert outcome.accepted
    assert outcome.operator.is_geneo


def test_edge_scaling_iff_pattern_exhaustive():
    pair = edge_scaling_pair()
    for d in product((1, 2), repeat=6):
        expected = d[0] == d[5] and d[1] == d[4] and d[2] == d[3]
        assert diagonal_scaling(d, pair).accepted == expected, d


def test_vertex_scaling_iff_pattern_exhaustive():
    pair = vertex_scaling_pair()
    for d in product((1, 3), repeat=4):
        expected = d[0] == d[2] and d[1] == d[3]
        assert diagonal_scaling(d, pair).accepted == expected, d


def test_all_ones_scaling_is_identity():
    pair = edge_scaling_pair()
    outcome = diagonal_scaling((1,) * 6, pair)
    assert outcome.accepted
    assert outcome.operator.coeffs == identity_operator(pair).coeffs


def test_scaling_reports_violated_orbit():
    outcome = diagonal_scaling((1, 1, 1, 2), vertex_scaling_pair())
    assert not outcome.accepted
    assert outcome.violated_orbits == ((1, 3),)
    assert "{B,D}" in outcome.detail


def test_scaling_rejects_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        diagonal_scaling((1, 1, 1, Fraction(1, 2)), vertex_scaling_pair())


# combinators


def test_convex_combination_single(f4):
    assert convex_combination([f4], [1]).coeffs == f4.coeffs


def test_convex_combination_mixes(f4, k4_pair):
    ident = identity_operator(k4_pair)
    mixed = convex_combination([f4, ident], ["1/2", "1/2"])
    assert mixed.is_geo and mixed.is_geneo
    phi = measurement([1, 0, 0, 0, 0, 0], EDGE_LABELS)
    lhs = apply(mixed, phi).values
    rhs = tuple(
        (a + b) / 2 for a, b in zip(apply(f4, phi).values, apply(ident, phi).values)
    )
    assert lhs == rhs


def test_convex_combination_validates_weights(f4):
    with pytest.raises(ValueError):
        convex_combination([f4], [2])
    with pytest.raises(ValueError):
        convex_combination([f4, f4], ["1/2", "1/3"])


def test_compose_with_identity(f4, k4_pair):
    assert compose_operators(identity_operator(k4_pair), f4).coeffs == f4.coeffs


def test_compose_chains_homomorphisms(c6c3):
    op = from_permutant(orbit("aec", c6c3))
    ident = identity_operator(op.target)
    chained = compose_operators(ident, op)
    assert chained.coeffs == op.coeffs
    assert chained.hom.images == op.hom.images


def test_pointwise_min_of_equal_operators(f4):
    low = pointwise_min(f4, f4)
    for bits in product((0, 1), repeat=6):
        phi = measurement(bits, EDGE_LABELS)
        assert apply(low, phi).values == apply(f4, phi).values


def test_pointwise_combinators_pass_sampled_checks(f4, k4_pair):
    # reference: equivariance on every 0/1 vector against every generator, and
    # 1-Lipschitz on every pair of them, evaluated on the outputs of apply
    ident = identity_operator(k4_pair)
    sample = [measurement(bits, EDGE_LABELS) for bits in product((0, 1), repeat=6)]
    for op, pick in ((pointwise_min(f4, ident), min), (pointwise_max(f4, ident), max)):
        assert op.is_geo and op.is_geneo
        out = {}
        for phi in sample:
            out[phi] = apply(op, phi)
            a, b = apply(f4, phi).values, apply(ident, phi).values
            assert out[phi].values == tuple(map(pick, a, b))
            for g in op.source.group.generators:
                assert apply(op, phi.pullback(g)).values == out[phi].pullback(op.hom(g)).values
        for phi1 in sample:
            for phi2 in sample:
                assert sup_distance(out[phi1], out[phi2]) <= sup_distance(phi1, phi2)


def test_pointwise_operands_share_a_signature(f4, c6c3):
    other = from_permutant(orbit("aec", c6c3))
    with pytest.raises(DomainMismatchError):
        pointwise_max(f4, other)


def test_pointwise_rejects_non_equivariant_operand(f4, k4_pair):
    # keeps the first edge's weight only: not equivariant, norm 1
    first_edge = replace(identity_operator(k4_pair), coeffs=tuple(
        tuple(Fraction(int(x == y == 0)) for x in range(6)) for y in range(6)
    ))
    ok, (i, g) = verify_equivariance(first_edge)
    assert not ok and operator_sup_norm(first_edge) == 1
    message = f"operand 1 is not equivariant: basis index {i} fails under generator {g}"
    with pytest.raises(ValueError, match=re.escape(message)):
        pointwise_min(f4, first_edge)


def test_pointwise_rejects_expansive_operand(f4, k4_pair):
    ident = identity_operator(k4_pair)
    doubled = replace(ident, coeffs=tuple(tuple(2 * c for c in row) for row in ident.coeffs))
    assert verify_equivariance(doubled)[0]
    with pytest.raises(ValueError, match=re.escape("operand 0 is not non-expansive: operator norm 2 > 1")):
        pointwise_max(doubled, f4)


# why each operator of helpers.k4_operators_that_are_not_geneos is no GENEO,
# as a pointwise combinator names it after "operand k"
REJECTIONS = {
    "nonequivariant": "is not equivariant: basis index 0 fails under generator (p,q)(s,u)",
    "expansive": "is not non-expansive: operator norm 2 > 1",
    "both": "is not equivariant: basis index 1 fails under generator (q,r)(s,t)",
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_pointwise_rejections_are_pinned(name):
    op = k4_operators_that_are_not_geneos()[name]
    ident = identity_operator(op.source)
    for combine in (pointwise_min, pointwise_max):
        for k, operands in enumerate([(op, ident), (ident, op)]):
            with pytest.raises(ValueError) as raised:
                combine(*operands)
            assert str(raised.value) == f"operand {k} {REJECTIONS[name]}"


@pytest.mark.parametrize("name", ["nonequivariant", "both"])
def test_decomposition_gives_the_combinators_equivariance_reason(name):
    with pytest.raises(ValueError) as raised:
        decompose_to_measure(k4_operators_that_are_not_geneos()[name])
    assert str(raised.value) == f"operator {REJECTIONS[name]}"


def test_pointwise_nests_and_checks_its_kind(f4, k4_pair):
    ident = identity_operator(k4_pair)
    nested = pointwise_max(pointwise_min(f4, ident), zero_operator(k4_pair))
    assert nested.is_geneo and nested.hom == f4.hom
    phi = measurement([1, -1, 0, 2, 0, 0], EDGE_LABELS)
    assert apply(nested, phi).values == tuple(
        max(min(a, b), 0) for a, b in zip(apply(f4, phi).values, phi.values)
    )
    for kind, operands in (("mean", (f4, ident)), ("min", ())):
        with pytest.raises(ValueError, match="kind 'min' or 'max' and at least one operand"):
            PointwiseOperator(kind, operands)


# operator distance


def test_geneo_distance_zero_for_equal(f4):
    sample = explicit_space(EDGE_LABELS, [bits for bits in product((0, 1), repeat=6)])
    assert geneo_distance(f4, f4, sample) == 0


def test_geneo_distance_f4_vs_zero(f4):
    sample = explicit_space(EDGE_LABELS, [bits for bits in product((0, 1), repeat=6)])
    zero = zero_operator(f4.source)
    assert geneo_distance(f4, zero, sample) == 1
    assert geneo_distance(zero, f4, sample) == 1


# decomposition


def test_decompose_identity_gives_unit_mass(k4_pair):
    m = decompose_to_measure(identity_operator(k4_pair))
    assert len(m.support) == 1
    (f,) = m.support
    assert f.as_permutation().is_identity()
    assert m.weight(f) == 1


def test_decompose_f4_roundtrip(f4):
    m = decompose_to_measure(f4)
    assert m.total_variation() <= 1
    rebuilt = from_measure(m)
    assert rebuilt.coeffs == f4.coeffs


def test_decompose_rejects_non_equivariant():
    group = edge_automorphism_group(complete_graph(4))
    pair = PerceptionPair(full_space(EDGE_LABELS), group)
    coeffs = tuple(
        tuple(Fraction(1, d) if i == j else Fraction(0) for j in range(6))
        for i, d in enumerate((1, 2, 3, 4, 5, 6))
    )
    op = LinearOperator(coeffs, pair, pair, Homomorphism.identity_on(group))
    with pytest.raises(ValueError, match="not equivariant"):
        decompose_to_measure(op)


def test_decompose_rejects_intransitive_group():
    group = generate_group([parse_cycles("(r,s)(q,t)", EDGE_LABELS)])
    pair = PerceptionPair(full_space(EDGE_LABELS), group)
    with pytest.raises(ValueError, match="transitively"):
        decompose_to_measure(identity_operator(pair))


def test_decompose_rejects_non_endo(c6c3):
    op = from_permutant(orbit("aec", c6c3))
    with pytest.raises(ValueError, match="endo"):
        decompose_to_measure(op)


def test_decompose_zero_operator_gives_empty_measure(f4):
    z = zero_operator(f4.source)
    m = decompose_to_measure(z)
    assert m.support == () and m.total_variation() == 0
    assert from_measure(m).coeffs == z.coeffs


def test_decompose_shift_operator_over_cyclic_group():
    labels = ("x", "y", "z")
    rot = generate_group([parse_cycles("(x,y,z)", labels)])
    pair = PerceptionPair(full_space(labels), rot)
    r = parse_cycles("(x,y,z)", labels)
    coeffs = tuple(
        tuple(Fraction(1 if x == r(y) else 0) for x in range(3)) for y in range(3)
    )
    shift = LinearOperator(coeffs, pair, pair, Homomorphism.identity_on(rot))
    m = decompose_to_measure(shift)
    assert len(m.support) == 1
    assert m.support[0].as_permutation() == r
    assert m.weight(m.support[0]) == 1


def test_decompose_succeeds_on_random_measure_operators():
    # forward direction of the representation: any operator built from a valid
    # measure with total variation <= 1 must decompose and round-trip exactly
    import random

    from geneograph.permutant import Mapping, alpha_action

    rng = random.Random(424242)
    labels = ("x", "y", "z")
    s3 = symmetric_group(labels)
    rotations = generate_group([parse_cycles("(x,y,z)", labels)])
    for group in (s3, rotations):
        ctx = endo_context(group)
        perms = [Mapping(labels, labels, p.images) for p in symmetric_group(labels).elements]
        # conjugation orbits under the chosen group
        orbits = []
        seen = set()
        for f in perms:
            if f in seen:
                continue
            members = {f}
            frontier = [f]
            while frontier:
                nxt = []
                for h in frontier:
                    for g in group.generators:
                        moved = alpha_action(g, h, ctx)
                        if moved not in members:
                            members.add(moved)
                            nxt.append(moved)
                frontier = nxt
            seen |= members
            orbits.append(sorted(members, key=lambda m: m.images))
        for _ in range(12):
            raw = [Fraction(rng.randint(-4, 4), 8) for _ in orbits]
            variation = sum(abs(w) * len(o) for w, o in zip(raw, orbits))
            if variation > 1:
                raw = [w / (variation * 2) for w in raw]
            weights = {f.images: w for o, w in zip(orbits, raw) for f in o if w != 0}
            op = from_measure(PermutantMeasure(ctx, weights))
            assert op.is_geneo
            rebuilt = from_measure(decompose_to_measure(op))
            assert rebuilt.coeffs == op.coeffs


def test_decompose_lp_takes_one_integer_column_pair_per_distinct_orbit_column(monkeypatch):
    import geneograph.geneo as geneo_module

    group = edge_automorphism_group(cycle_graph(7))
    op = identity_operator(PerceptionPair(full_space(group.labels), group))
    lps, tables = [], []
    real_simplex, real_table = geneo_module.simplex_min, geneo_module._map_table
    monkeypatch.setattr(geneo_module, "simplex_min", lambda *args: lps.append(args) or real_simplex(*args))
    monkeypatch.setattr(geneo_module, "_map_table", lambda *args: tables.append(1) or real_table(*args))
    decompose_to_measure(op)
    # 387 conjugation orbits, 112 distinct (size, orbital counts), 4 orbitals
    costs, lhs, rhs = lps[0]
    assert len(costs) == 224 and len(lhs) == 4
    entries = [x for c, a, b in lps for x in [*c, *b, *(v for row in a for v in row)]]
    assert all(type(x) is int for x in entries)
    assert len(tables) == 1  # the final from_measure rebuild


def test_decompose_expansive_operator_fails(k4_pair):
    doubled = LinearOperator(
        tuple(
            tuple(Fraction(2 if i == j else 0) for j in range(6)) for i in range(6)
        ),
        k4_pair,
        k4_pair,
        Homomorphism.identity_on(k4_pair.group),
    )
    with pytest.raises(ValueError, match="total variation"):
        decompose_to_measure(doubled)


# the dense kernel against the hand-written loops it replaced


def trivial_pair(n):
    labels = tuple(f"v{i}" for i in range(n))
    return PerceptionPair(full_space(labels), trivial_group(labels))


def random_cell(rng):
    """An int or a Fraction, negative ones among them."""
    return rng.randint(-9, 9) if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_operator(rng, source, target):
    coeffs = tuple(tuple(random_cell(rng) for _ in range(source.space.dim)) for _ in range(target.space.dim))
    hom = Homomorphism(source.group, target.group, target.group.images)
    return LinearOperator(coeffs, source, target, hom)


def reference_map_table(ctx, weighted):
    acc = [[Fraction(0)] * ctx.G.degree for _ in range(ctx.K.degree)]
    for images, w in weighted:
        for y, x in enumerate(images):
            acc[y][x] += w
    return tuple(tuple(row) for row in acc)


@pytest.mark.parametrize("dims", [(3, 4, 2), (6, 6, 6), (1, 5, 1), (2, 0, 2), (0, 3, 0), (0, 0, 0), (5, 1, 5)])
def test_kernel_matches_reference_loops(dims):
    # int and Fraction cells, 1-row and 1-column tables and the X -> {} -> X
    # composite, on the integer tables against the Fraction references
    rng = random.Random(f"kernel:{dims}")
    x, y, z = (trivial_pair(n) for n in dims)
    for _ in range(8):
        f1, f2 = random_operator(rng, x, y), random_operator(rng, y, z)
        phi = measurement([random_cell(rng) for _ in x.domain], x.domain)
        out = apply(f1, phi).values
        assert out == reference_apply(f1, phi.values)
        assert all(type(v) is Fraction for v in out)
        assert compose_operators(f2, f1).coeffs == reference_compose(f2, f1)
        ops = [f1] + [random_operator(rng, x, y) for _ in range(rng.randint(0, 3))]
        parts = [rng.randint(0, 5) for _ in ops]
        parts[0] += 1
        lam = [Fraction(p, sum(parts)) for p in parts]
        assert convex_combination(ops, lam).coeffs == reference_convex(ops, lam)
        for op in (f1, f2):
            norm = operator_sup_norm(op)
            assert norm == reference_sup_norm(op) and type(norm) is Fraction


def test_compose_through_empty_domain_is_zero():
    x, empty = trivial_pair(2), trivial_pair(0)
    rng = random.Random(7)
    to_empty, from_empty = random_operator(rng, x, empty), random_operator(rng, empty, x)
    assert to_empty.coeffs == () and from_empty.coeffs == ((), ())
    composite = compose_operators(from_empty, to_empty)
    assert composite.coeffs == ((0, 0), (0, 0))
    assert all(type(c) is Fraction for row in composite.coeffs for c in row)


def test_equivariance_witness_matches_reference_at_every_corrupted_cell(c6c3):
    """Equivariant tables of int and Fraction cells, C6 -> C3 averaging
    operators and one on the 5-cycle's dihedral group, each with one cell
    corrupted at every (y, x): the verdict and the witness, the first failing
    basis index for the first failing generator, are the cell-by-cell
    reference's, which pins the order the integer columns are compared in."""
    labels = tuple("abcde")
    d5 = generate_group([parse_cycles("(a,b,c,d,e)", labels), parse_cycles("(a,e)(b,d)", labels)])
    orbits, _ = all_orbits(c6c3)
    ops = [from_permutant(h) for h in orbits[::5]] + [from_permutant(orbit("bcdea", endo_context(d5)))]
    witnesses = set()
    for op in ops:
        table = [[int(c) if c.denominator == 1 else c for c in row] for row in op.coeffs]
        assert verify_equivariance(replace(op, coeffs=tuple(map(tuple, table)))) == (True, None)
        for y, x in product(range(op.n_out), range(op.n_in)):
            corrupted = [list(row) for row in table]
            corrupted[y][x] += 1 if (x + y) % 2 else Fraction(-1, 3)
            bad = replace(op, coeffs=tuple(map(tuple, corrupted)))
            ok, witness = verify_equivariance(bad)
            assert (ok, witness and (witness[0], witness[1].images)) == reference_equivariance(bad)
            assert bad.equivariance == (ok, witness)
            witnesses.add(witness and (witness[0], witness[1].images))
    assert len(witnesses) > 4 and None not in witnesses


def test_weighted_map_tables_match_reference_loops(c6c3):
    rng = random.Random(2206)
    k4 = endo_context(edge_automorphism_group(complete_graph(4)))
    for ctx in (c6c3, k4):
        orbits, _ = all_orbits(ctx)
        for _ in range(6):
            chosen = rng.sample(orbits, rng.randint(1, 4))
            for h in chosen:
                w = Fraction(1, h.size)
                assert from_permutant(h).coeffs == reference_map_table(ctx, ((f.images, w) for f in h.members))
            weights = {}
            for h in chosen:
                w = Fraction(rng.randint(-3, 3), rng.randint(1, 5) * h.size)
                weights.update(dict.fromkeys((f.images for f in h.members), w))
            m = PermutantMeasure(ctx, weights)
            assert from_measure(m).coeffs == reference_map_table(ctx, m.weights.items())


# -- the rational pivot step, rref and simplex the integer kernel replaced ------------


def reference_pivot(m, row, col):
    scale = m[row][col]
    m[row] = [x / scale for x in m[row]]
    for r in range(len(m)):
        if r != row and m[r][col] != 0:
            factor = m[r][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[row])]


def reference_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    pivot_row = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        reference_pivot(m, pivot_row, col)
        pivot_row += 1
        if pivot_row == len(m):
            break
    return [row for row in m[:pivot_row] if any(x != 0 for x in row)]


def reference_run_simplex(tableau, basis, n_cols, steps):
    while True:
        obj = tableau[-1]
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for r in range(len(tableau) - 1):
            if tableau[r][col] > 0:
                ratio = tableau[r][-1] / tableau[r][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return "unbounded"
        reference_pivot(tableau, best[1], col)
        basis[best[1]] = col
        steps.append((col, best[1]))


def reference_simplex_min(costs, eq_lhs, eq_rhs, steps=None):
    """The full-tableau two-phase simplex on fractions; each basis change is
    appended to steps as (entering column, row)."""
    steps = [] if steps is None else steps
    n = len(costs)
    rows = [[Fraction(x) for x in row] for row in eq_lhs]
    rhs = [Fraction(x) for x in eq_rhs]
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    m = len(rows)
    tableau = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    basis = list(range(n, n + m))
    for i in range(m):
        obj = [a - b for a, b in zip(obj, tableau[i])]
    tableau.append(obj)
    status = reference_run_simplex(tableau, basis, n + m, steps)
    if status != "optimal" or tableau[-1][-1] != 0:
        return "infeasible", None, None
    drop_rows = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                drop_rows.append(r)
            else:
                reference_pivot(tableau, r, col)
                basis[r] = col
                steps.append((col, r))
    for r in sorted(drop_rows, reverse=True):
        del tableau[r]
        del basis[r]
    tableau = [row[:n] + [row[-1]] for row in tableau[:-1]]
    obj = [Fraction(x) for x in costs] + [Fraction(0)]
    for r, bcol in enumerate(basis):
        if obj[bcol] != 0:
            factor = obj[bcol]
            obj = [a - factor * b for a, b in zip(obj, tableau[r])]
    tableau.append(obj)
    status = reference_run_simplex(tableau, basis, n, steps)
    if status != "optimal":
        return status, None, None
    solution = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        solution[bcol] = tableau[r][-1]
    return "optimal", -tableau[-1][-1], solution


def random_rational(rng, spread=3, denominators=(1, 1, 1, 2, 3, 4)):
    return Fraction(rng.randint(-spread, spread), rng.choice(denominators))


def random_rows(rng, n_rows, n_cols, spread=3):
    """Random rational rows with zero rows, repeated rows and combinations of
    earlier rows mixed in, so rref meets rank deficiency and empty columns."""
    rows = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.1 or not rows:
            row = [Fraction(0)] * n_cols if kind < 0.1 else [random_rational(rng, spread) for _ in range(n_cols)]
        elif kind < 0.2:
            row = list(rng.choice(rows))
        elif kind < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = random_rational(rng), random_rational(rng)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [random_rational(rng, spread) if rng.random() < 0.7 else Fraction(0) for _ in range(n_cols)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (6, 6), (8, 4), (4, 9), (0, 0)])
def test_rref_matches_rational_reference(shape):
    rng = random.Random(f"rref:{shape}")
    for _ in range(60):
        rows = random_rows(rng, *shape)
        assert rref(rows) == reference_rref(rows)
        assert all(type(x) is Fraction for row in rref(rows) for x in row)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (6, 6), (8, 4), (4, 9)])
def test_integer_rref_rows_restrict_to_the_simplex_scale(shape):
    # the decomposition's LP row for a column subset S of the reduced row r / d:
    # r[S] and r[-1] over their gcd with d, which is the integer row that
    # integer_table makes of the rational row's entries there
    rng = random.Random(f"integer rref:{shape}")
    for _ in range(40):
        rows = random_rows(rng, *shape)
        reduced = integer_rref(rows)
        assert [[Fraction(x, d) for x in row] for d, row in reduced] == rref(rows)
        for d, row in reduced:
            assert d > 0 and d == next(x for x in row if x)
            subset = sorted(rng.sample(range(len(row) - 1), rng.randint(0, len(row) - 1)))
            part = [row[i] for i in subset] + [row[-1]]
            g = gcd(d, *part)
            assert (tuple(x // g for x in part),) == integer_table([[Fraction(x, d) for x in part]])[0]


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (6, 6)])
def test_integer_rref_rows_are_least_multiples_whatever_the_other_rows(shape):
    # two rows no pivot changes, with denominators 3 and 5: neither keeps the
    # factor of their common denominator 15
    rows = [[Fraction(2, 3), Fraction(4, 3), 0], [0, 0, Fraction(1, 5)]]
    assert integer_rref(rows) == [(1, [1, 2, 0]), (1, [0, 0, 1])]
    rng = random.Random(f"primitive rref:{shape}")
    for _ in range(40):
        rows = random_rows(rng, *shape)
        reduced = integer_rref(rows)
        assert all(gcd(*row) == 1 for _, row in reduced)
        scales = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in rows]
        rescaled = [[x * c for x in row] for row, c in zip(rows, scales)]
        assert integer_rref(rescaled) == reduced


def random_lp(rng, kind):
    """A seeded LP of one kind: 'feasible' rows b = A x0 for a sparse x0 >= 0
    (zero entries make ratio ties), 'redundant' the same with combinations of
    earlier rows appended (artificial variables left in the basis at a zero
    level, driven out or dropped), 'degenerate' a larger system of small
    integer rows with mostly zero costs, 'infeasible' with a contradicted row
    or an unreachable right-hand side, 'unbounded' with a negative-cost column
    that no row restrains."""
    n, m = rng.randint(1, 7), rng.randint(0, 5)
    lhs = [[Fraction(rng.randint(-2, 2)) if rng.random() < 0.8 else random_rational(rng, 2) for _ in range(n)]
           for _ in range(m)]
    x0 = [Fraction(rng.choice((0, 0, 1, 2, rng.randint(1, 5)))) for _ in range(n)]
    rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in lhs]
    costs = [Fraction(rng.randint(0, 4)) if rng.random() < 0.6 else random_rational(rng, 4) for _ in range(n)]
    if kind == "redundant" and lhs:
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(len(lhs)), rng.randrange(len(lhs))
            s, t = rng.choice((1, -1, 2, Fraction(-1, 2))), rng.choice((0, 1, -1, 3))
            lhs.append([s * a + t * b for a, b in zip(lhs[i], lhs[j])])
            rhs.append(s * rhs[i] + t * rhs[j])
        costs = [abs(c) for c in costs]
    elif kind == "infeasible":
        if lhs and rng.random() < 0.5:
            i = rng.randrange(len(lhs))
            lhs.append(list(lhs[i]))
            rhs.append(rhs[i] + rng.choice((-1, 1, Fraction(1, 2))))
        else:
            lhs.append([Fraction(rng.randint(0, 3)) for _ in range(n)])
            rhs.append(Fraction(-rng.randint(1, 4)))
    elif kind == "degenerate":
        # small integer rows over a sparse x0 tie often in the ratio test, and
        # mostly zero costs leave several optimal vertices for the tie-break to pick
        n, m = rng.randint(6, 10), rng.randint(3, 5)
        x0 = [Fraction(rng.choice((0, 0, 1, 2))) for _ in range(n)]
        lhs = [[Fraction(rng.randint(-1, 2)) for _ in range(n)] for _ in range(m)]
        rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in lhs]
        costs = [Fraction(rng.choice((0, 0, 0, 1))) for _ in range(n)]
    elif kind == "unbounded":
        for row in lhs:
            row.append(Fraction(0))
        costs.append(Fraction(-rng.randint(1, 3)))
    else:
        costs = [abs(c) for c in costs]
    return costs, lhs, rhs


@pytest.mark.parametrize("kind", ["feasible", "degenerate", "redundant", "infeasible", "unbounded"])
def test_simplex_matches_rational_reference(kind, monkeypatch):
    # Bland's rule cannot cycle; a pivot budget turns a kernel that does into a failure, not a hang
    pivots = []
    seen = 0

    def counted_pivot(m, row, d):
        pivots.append(row)
        assert len(pivots) < 1000, "simplex cycles"
        real_pivot(m, row, d)

    real_pivot, real_enter = linalg._pivot, linalg._enter
    monkeypatch.setattr(linalg, "_pivot", counted_pivot)
    steps = []
    monkeypatch.setattr(
        linalg, "_enter", lambda m, basis, row, col, d: steps.append((col, row)) or real_enter(m, basis, row, col, d)
    )
    rng = random.Random(f"simplex:{kind}")
    statuses = set()
    for _ in range(300):
        costs, lhs, rhs = random_lp(rng, kind)
        pivots.clear()
        steps.clear()
        reference_steps = []
        got = simplex_min(costs, lhs, rhs)
        assert got == reference_simplex_min(costs, lhs, rhs, reference_steps)
        assert steps == reference_steps
        statuses.add(got[0])
        seen += len(pivots)
    assert statuses == {{"feasible": "optimal", "degenerate": "optimal", "redundant": "optimal"}.get(kind, kind)}
    # the guard counts only the pivots that go through linalg._pivot, so it must see some
    assert seen > 0, "the cycling guard saw no pivot"


def decomposition_operators() -> list[LinearOperator]:
    """The identity on the 7-cycle's edges, whose LP has 224 columns, and two
    seeded operators on each edge group of C5, K4, C6 and C7, from invariant
    measures on 2 and 3 conjugation orbits of bijections."""
    c7 = edge_automorphism_group(cycle_graph(7))
    ops = [identity_operator(PerceptionPair(full_space(c7.labels), c7))]
    rng = random.Random("wide lps")
    for graph in (cycle_graph(5), complete_graph(4), cycle_graph(6), cycle_graph(7)):
        ctx = endo_context(edge_automorphism_group(graph))
        for k in (2, 3):
            ops.append(from_measure(orbit_sum_measure(ctx, rng, k, rng.randint(0, 2))))
    return ops


def decomposition_lps(monkeypatch) -> list[tuple]:
    """The LP that decompose_to_measure solves for each of the decomposition operators."""
    import geneograph.geneo as geneo_module

    lps = []
    real_simplex = geneo_module.simplex_min
    monkeypatch.setattr(geneo_module, "simplex_min", lambda *args: lps.append(args) or real_simplex(*args))
    for op in decomposition_operators():
        decompose_to_measure(op)
    return lps


def test_decomposition_solves_one_lp_per_call(monkeypatch):
    import geneograph.geneo as geneo_module

    calls = []
    real_simplex = geneo_module.simplex_min
    monkeypatch.setattr(geneo_module, "simplex_min", lambda *args: calls.append(args) or real_simplex(*args))
    for op in decomposition_operators():
        calls.clear()
        decompose_to_measure(op)
        assert len(calls) == 1


def test_the_cached_elimination_gives_integer_rrefs_rows_or_its_inconsistency():
    """The reduced rows that a decomposition reads off its group's cached
    elimination against integer_rref of [A | b], each row over gcd(d, *r): on
    every decomposition operator's orbital values and perturbations of them,
    and on intransitive groups, whose orbital equations are dependent, with
    right-hand sides in A's column space and seeded ones outside it."""
    import geneograph.geneo as geneo_module

    rng = random.Random("cached elimination")

    def perturbed(b):
        return [x + Fraction(rng.randint(-3, 3), rng.randint(1, 9)) for x in b]

    def reduced_system(elimination, b):
        (scaled,), denominator = integer_table([b])
        return geneo_module._reduced_system(elimination, scaled, denominator)

    cases = []
    for op in decomposition_operators():
        group = op.source.group
        data = geneo_module._orbit_columns(group.degree, group.generator_images)
        b = [op.coeffs[y][x] for (y, x), *_ in data[0]]
        cases += [(data, b), (data, perturbed(b))]
    for n, gens in [(3, [(0, 1, 2)]), (4, [(1, 0, 2, 3)]), (5, [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)])]:
        data = geneo_module._orbit_columns(n, tuple(gens))
        assert data[2][1], "the intransitive group's orbital equations must be dependent"
        for _ in range(5):
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 9)) for _ in data[1]]
            lhs = [[size * counts[w] // len(o) for size, counts, _ in data[1]] for w, o in enumerate(data[0])]
            cases += [(data, [sum(a * v for a, v in zip(row, x)) for row in lhs]), (data, perturbed([0] * len(lhs)))]
    outcomes = set()
    for (pair_orbits, columns, elimination), b in cases:
        lhs = [[size * counts[w] // len(o) for size, counts, _ in columns] for w, o in enumerate(pair_orbits)]
        reference = integer_rref([row + [x] for row, x in zip(lhs, b)])
        if not any(reference[-1][1][:-1]):  # a row 0 = c != 0
            with pytest.raises(ValueError, match="^no permutant measure reproduces this operator$"):
                reduced_system(elimination, b)
            outcomes.add("inconsistent")
        else:
            expected = [[x // gcd(d, *r) for x in r] for d, r in reference]
            assert reduced_system(elimination, b) == expected
            outcomes.add("consistent")
    assert outcomes == {"consistent", "inconsistent"}


def test_simplex_on_decomposition_lps_takes_the_reference_tableau_pivots(monkeypatch):
    lps = decomposition_lps(monkeypatch)
    assert len(lps[0][0]) == 224 and len(lps[0][1]) == 4
    steps = []
    real_enter = linalg._enter
    monkeypatch.setattr(
        linalg, "_enter", lambda m, basis, row, col, d: steps.append((col, row)) or real_enter(m, basis, row, col, d)
    )
    statuses = set()
    for costs, lhs, rhs in lps:
        steps.clear()
        reference_steps = []
        got = simplex_min(costs, lhs, rhs)
        assert got == reference_simplex_min(costs, lhs, rhs, reference_steps)
        assert steps == reference_steps
        statuses.add(got[0])
    assert statuses == {"optimal"}
