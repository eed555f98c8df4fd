"""Property-based and randomized invariant suites, runnable as one command:

    pytest tests/test_properties.py

Covers the action axioms, orbit-size divisibility, the permutant ==
union-of-orbits agreement on randomized subsets, parse/format round-trips,
metric axioms, the diagonal-scaling if-and-only-if patterns, the
subset-stabilizer fixtures, the exact measure -> operator -> measure
round trip, the decomposition of any combination of orbital indicators (exact
or stopped by total variation), and the GENEO axioms for pointwise min/max on
the C6/C3 context.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from hypothesis import given, settings, strategies as st

from geneograph.experiments import c6_c3_context
from geneograph.geneo import (
    LinearOperator,
    apply,
    decompose_to_measure,
    diagonal_scaling,
    from_measure,
    pointwise_max,
    pointwise_min,
)
from geneograph.graph import complete_graph, cycle_graph, edge_automorphism_group
from geneograph.perception import (
    PerceptionPair,
    constrained_space,
    full_space,
    measurement,
    sup_distance,
)
from geneograph.perm import Homomorphism, Permutation, compose, format_cycles, generate_group, parse_cycles
from geneograph.permutant import (
    Mapping,
    PermutantMeasure,
    all_orbits,
    alpha_action,
    endo_context,
    is_generalized_permutant,
    is_permutant_measure,
    orbit,
    orbitals,
)

from conftest import EDGES3, EDGES6, dihedral_edge_context
from helpers import image_size_measure, setwise_stabilizer_context, small_image_permutant, symmetric_group

CTX = dihedral_edge_context()
ALL_MAPS = list(CTX.all_mappings())


# -- plain check functions (also driven by the acceptance suite) ---------------


def check_action_axioms():
    """alpha(id, f) = f and alpha(g2, alpha(g1, f)) = alpha(g2 o g1, f)."""
    small = endo_context(symmetric_group(("a", "b")))
    for ctx, fs in (
        (small, list(small.all_mappings())),
        (CTX, [CTX.mapping(s) for s in ("aec", "bfd", "aaa", "abd", "fff")]),
    ):
        for f in fs:
            assert alpha_action(ctx.G.identity, f, ctx) == f
            for g1 in ctx.G:
                for g2 in ctx.G:
                    assert alpha_action(g2, alpha_action(g1, f, ctx), ctx) == alpha_action(
                        compose(g2, g1), f, ctx
                    )


def check_orbit_sizes_divide_group_order():
    for ctx in (CTX, endo_context(symmetric_group(("a", "b", "c")))):
        orbits, census = all_orbits(ctx)
        assert sum(size * count for size, count in census.items()) == ctx.map_space_size()
        for o in orbits:
            assert ctx.G.order % o.size == 0


def check_permutant_union_agreement(trials: int = 1000, seed: int = 20240331):
    """alpha-closure and union-of-orbits agree on randomized subsets; a witness
    accompanies every rejection."""
    rng = random.Random(seed)
    for _ in range(trials):
        size = rng.randint(0, 8)
        subset = set(rng.sample(ALL_MAPS, size))
        if rng.random() < 0.3 and subset:
            subset |= set(orbit(next(iter(subset)), CTX).members)
        ok, witness = is_generalized_permutant([f.images for f in subset], CTX)
        union = set()
        for h in subset:
            union |= set(orbit(h, CTX).members)
        assert ok == (union == subset)
        if not ok:
            h, g = witness
            assert h in subset and alpha_action(g, h, CTX) not in subset


def check_permutant_bijection_property():
    """h -> alpha(g, h) permutes any permutant, for every group element."""
    for rep in ("aec", "bfd", "aaa", "aab"):
        members = set(orbit(rep, CTX).members)
        for g in CTX.G:
            assert {alpha_action(g, h, CTX) for h in members} == members


def check_diagonal_scaling_iff_patterns():
    edge_labels = ("p", "q", "r", "s", "t", "u")
    edge_pair = PerceptionPair(
        constrained_space(edge_labels, [((1, 0, 0, 0, 0, 1), 0)]),
        generate_group([parse_cycles("(r,s)(q,t)", edge_labels)]),
    )
    for d in product((1, 2), repeat=6):
        expected = d[0] == d[5] and d[1] == d[4] and d[2] == d[3]
        assert diagonal_scaling(d, edge_pair).accepted == expected

    abcd = ("A", "B", "C", "D")
    vertex_pair = PerceptionPair(
        constrained_space(abcd, [((1, 0, 1, 0), 0)]),
        generate_group([parse_cycles("(B,D)", abcd)]),
    )
    for d in product((1, 2), repeat=4):
        expected = d[0] == d[2] and d[1] == d[3]
        assert diagonal_scaling(d, vertex_pair).accepted == expected


def check_stabilizer_fixtures():
    """The image-cardinality permutants and measures at |X|=4, |Y|=2."""
    ctx = setwise_stabilizer_context("ABCD", "AB")
    for m in (1, 2, 3):
        h = small_image_permutant(ctx, m)
        ok, _ = is_generalized_permutant({f.images for f in h.members}, ctx)
        assert ok
    assert small_image_permutant(ctx, 2).size == 4
    for m in (1, 2):
        ok, _ = is_permutant_measure(image_size_measure(ctx, m))
        assert ok
    assert image_size_measure(ctx, 2).weight(
        next(f for f in ctx.all_mappings() if f.image_size() == 2)
    ) == Fraction(1, 24)


# -- hypothesis properties ------------------------------------------------------


@settings(max_examples=150)
@given(st.permutations(range(6)))
def prop_cycle_roundtrip(images):
    p = Permutation(tuple(images), EDGES6)
    assert parse_cycles(format_cycles(p), EDGES6) == p


@settings(max_examples=150)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3))
def prop_mapping_roundtrip(images):
    m = Mapping(EDGES3, EDGES6, tuple(images))
    assert CTX.mapping(m.compact()) == m and CTX.read_map(m.compact()) == m.images


def _vec3():
    return st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8), min_size=3, max_size=3
    )


@settings(max_examples=150)
@given(_vec3(), _vec3(), _vec3())
def prop_sup_distance_is_a_metric(xs, ys, zs):
    a, b, c = measurement(xs), measurement(ys), measurement(zs)
    assert sup_distance(a, b) >= 0
    assert sup_distance(a, b) == sup_distance(b, a)
    assert (sup_distance(a, b) == 0) == (a.values == b.values)
    assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c)


ROUNDTRIP_GRAPHS = {"C5": lambda: cycle_graph(5), "C6": lambda: cycle_graph(6), "K4": lambda: complete_graph(4)}


@lru_cache(maxsize=None)
def bijection_orbits(name):
    """The endo-context of a graph's edge group and the alpha orbits of its bijections."""
    ctx = endo_context(edge_automorphism_group(ROUNDTRIP_GRAPHS[name]()))
    seen, orbits = set(), []
    for images in permutations(range(ctx.G.degree)):
        if images not in seen:
            o = orbit(Mapping(ctx.y_labels, ctx.x_labels, images), ctx)
            seen.update(f.images for f in o.members)
            orbits.append(o)
    return ctx, orbits


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(ROUNDTRIP_GRAPHS)), st.data())
def prop_measure_decomposition_roundtrip(name, data):
    """An alpha-invariant measure with total variation <= 1 on up to four
    orbits: from_measure -> decompose_to_measure -> from_measure reproduces
    the coefficients exactly."""
    ctx, orbits = bijection_orbits(name)
    chosen = data.draw(st.lists(st.integers(0, len(orbits) - 1), min_size=1, max_size=4, unique=True))
    parts = data.draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(chosen), max_size=len(chosen)))
    total = sum(map(abs, parts)) + data.draw(st.integers(0, 3))
    weights = {}
    for i, part in zip(chosen, parts):
        weights.update(dict.fromkeys((f.images for f in orbits[i].members), Fraction(part, total * orbits[i].size)))
    op = from_measure(PermutantMeasure(ctx, weights))
    recovered = decompose_to_measure(op)
    assert recovered.total_variation() <= 1
    assert from_measure(recovered).coeffs == op.coeffs


@lru_cache(maxsize=None)
def edge_endo_pair(name):
    """The edge group of a graph as a perception pair on the full space, with
    its orbitals."""
    group = edge_automorphism_group(ROUNDTRIP_GRAPHS[name]())
    return PerceptionPair(full_space(group.labels), group), orbitals(endo_context(group))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ROUNDTRIP_GRAPHS)), st.data())
def prop_orbital_combinations_decompose_or_exceed_variation(name, data):
    """A rational combination of the orbital indicators is an equivariant
    table; for a transitive group with T the identity, decompose_to_measure
    rebuilds it exactly or stops at the total-variation check, and never finds
    that no permutant measure reproduces it."""
    pair, found = edge_endo_pair(name)
    n = pair.group.degree
    weights = data.draw(st.lists(st.fractions(-1, 1, max_denominator=6), min_size=len(found), max_size=len(found)))
    # each orbital adds at most 1/share to a row's absolute sum, so both
    # outcomes are common (about half each)
    share = data.draw(st.integers(1, len(found)))
    coeffs = [[Fraction(0)] * n for _ in range(n)]
    for w, orbital in zip(weights, found):
        for y, x in orbital:
            coeffs[y][x] = w * n / (len(orbital) * share)
    table = tuple(map(tuple, coeffs))
    op = LinearOperator(table, pair, pair, Homomorphism.identity_on(pair.group))
    try:
        measure = decompose_to_measure(op)
    except ValueError as exc:
        assert str(exc).startswith("operator is not a GENEO of this form: any reproducing measure has total variation")
        return
    assert measure.total_variation() <= 1
    assert from_measure(measure).coeffs == table


C6C3 = c6_c3_context()
C6C3_ORBITS = all_orbits(C6C3)[0]


def _c6c3_geneo(data):
    """from_measure on up to three orbits of the C6/C3 context, total variation <= 1."""
    chosen = data.draw(st.lists(st.integers(0, len(C6C3_ORBITS) - 1), min_size=1, max_size=3, unique=True))
    parts = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(chosen), max_size=len(chosen)))
    total = sum(map(abs, parts)) + data.draw(st.integers(0, 2))
    weights = {}
    for i, part in zip(chosen, parts):
        o = C6C3_ORBITS[i]
        weights.update(dict.fromkeys((f.images for f in o.members), Fraction(part, total * o.size)))
    return from_measure(PermutantMeasure(C6C3, weights))


def _c6_weights():
    return st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=6, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([pointwise_min, pointwise_max]), _c6_weights(), _c6_weights())
def prop_pointwise_geneo_on_c6_c3(data, combine, xs, ys):
    """Pointwise min/max of two GENEOs from the C6 edges to the C3 edges
    (T is not the identity) commutes with every generator and is 1-Lipschitz."""
    op = combine(_c6c3_geneo(data), _c6c3_geneo(data))
    assert op.is_geo and op.is_geneo
    phi, psi = measurement(xs, C6C3.x_labels), measurement(ys, C6C3.x_labels)
    out = apply(op, phi)
    for g in C6C3.G.generators:
        assert apply(op, phi.pullback(g)).values == out.pullback(C6C3.T(g)).values
    assert sup_distance(out, apply(op, psi)) <= sup_distance(phi, psi)


# -- pytest wrappers -------------------------------------------------------------


def test_action_axioms():
    check_action_axioms()


def test_orbit_sizes_divide_group_order():
    check_orbit_sizes_divide_group_order()


def test_permutant_union_agreement_1000_subsets():
    check_permutant_union_agreement(1000)


def test_permutant_bijection_property():
    check_permutant_bijection_property()


def test_diagonal_scaling_iff_patterns():
    check_diagonal_scaling_iff_patterns()


def test_stabilizer_fixtures():
    check_stabilizer_fixtures()


def test_cycle_roundtrip():
    prop_cycle_roundtrip()


def test_mapping_roundtrip():
    prop_mapping_roundtrip()


def test_sup_distance_is_a_metric():
    prop_sup_distance_is_a_metric()


def test_measure_decomposition_roundtrip():
    prop_measure_decomposition_roundtrip()


def test_pointwise_geneo_on_c6_c3():
    prop_pointwise_geneo_on_c6_c3()


def test_orbital_combinations_decompose_or_exceed_variation():
    prop_orbital_combinations_decompose_or_exceed_variation()
