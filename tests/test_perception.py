from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from geneograph.graph import cycle_graph, vertex_automorphism_group
from geneograph.perception import (
    FunctionSpace,
    Measurement,
    PerceptionPair,
    as_fraction,
    aut_pseudodistance,
    constrained_space,
    explicit_space,
    full_space,
    measurement,
    point_pseudodistance,
    sup_distance,
    verify_perception_pair,
)
from geneograph.perm import DomainMismatchError, generate_group, parse_cycles, trivial_group

ABCD = ("A", "B", "C", "D")


def binary_vectors(n, domain=None):
    return [measurement(bits, domain) for bits in product((0, 1), repeat=n)]


def rationals():
    return st.fractions(min_value=-5, max_value=5, max_denominator=12)


def test_as_fraction_rejects_exponents_past_the_digit_limit():
    # the power of ten is never built: 1e10000000 took seconds to read
    assert as_fraction("1e4300") == 10**4300
    assert as_fraction("-2.5E-3") == Fraction(-1, 400)
    for text in ("1e5000", "1e10000000", "1E-4301", " 3.5e+10_000 "):
        with pytest.raises(ValueError, match="exponent .* exceeds 4300"):
            as_fraction(text)


# sup distance


def test_sup_distance_identical():
    a = measurement([1, 2, 3])
    assert sup_distance(a, a) == 0


def test_sup_distance_unit():
    assert sup_distance(measurement([1, 0, 0]), measurement([0, 0, 0])) == 1
    # floats enter through their decimal repr, so the distance stays exact
    assert sup_distance(measurement([0.1, 0.2]), measurement([0.1, 0.21])) == Fraction(1, 100)


def test_sup_distance_of_signature_codes():
    c1 = measurement(["4/6", "4/6", "4/6", "2/6", "2/6", "2/6"])
    c2 = measurement(["2/6", "2/6", "2/6", "4/6", "4/6", "4/6"])
    assert sup_distance(c1, c2) == Fraction(1, 3)


def test_sup_distance_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        sup_distance(measurement([1], ("A",)), measurement([1], ("B",)))


@given(st.lists(rationals(), min_size=3, max_size=3), st.lists(rationals(), min_size=3, max_size=3))
def test_sup_distance_symmetry_and_identity(xs, ys):
    a, b = measurement(xs), measurement(ys)
    assert sup_distance(a, b) == sup_distance(b, a) >= 0
    assert (sup_distance(a, b) == 0) == (a.values == b.values)


@given(
    st.lists(rationals(), min_size=3, max_size=3),
    st.lists(rationals(), min_size=3, max_size=3),
    st.lists(rationals(), min_size=3, max_size=3),
)
def test_sup_distance_triangle(xs, ys, zs):
    a, b, c = measurement(xs), measurement(ys), measurement(zs)
    assert sup_distance(a, c) <= sup_distance(a, b) + sup_distance(b, c)


# perception pairs


def opposite_ends_space():
    # phi^1 + phi^3 = 0 on four vertices
    return constrained_space(ABCD, [((1, 0, 1, 0), 0)])


def test_constrained_pair_with_single_swap():
    g = generate_group([parse_cycles("(B,D)", ABCD)])
    ok, witness = verify_perception_pair(opposite_ends_space(), g)
    assert ok and witness is None


def test_constrained_pair_fails_for_rotations():
    g = generate_group([parse_cycles("(A,B,C,D)", ABCD)])
    ok, witness = verify_perception_pair(opposite_ends_space(), g)
    assert not ok
    phi, rot = witness
    s = opposite_ends_space()
    assert s.contains(phi)
    assert not s.contains(phi.pullback(rot))


def test_doubly_constrained_space_closed_under_full_c4_group():
    space = constrained_space(ABCD, [((1, 0, 1, 0), 0), ((0, 1, 0, 1), 0)])
    g = vertex_automorphism_group(cycle_graph(4))
    ok, _ = verify_perception_pair(space, g)
    assert ok


def test_full_space_always_closed():
    g = vertex_automorphism_group(cycle_graph(4))
    ok, _ = verify_perception_pair(full_space(ABCD), g)
    assert ok


def test_norm_balls_always_closed():
    rotations = generate_group([parse_cycles("(A,B,C,D)", ABCD)])
    for norm in ("sup", "l1", "l2"):
        ok, _ = verify_perception_pair(constrained_space(ABCD, ball=(norm, 1)), rotations)
        assert ok


def test_equations_with_ball_witness_is_sound():
    # mixing a ball into an unclosed equation system must still produce a
    # witness that satisfies the equations and escapes them after pullback
    rotations = generate_group([parse_cycles("(A,B,C,D)", ABCD)])
    space = constrained_space(ABCD, [((1, 0, 1, 0), 0)], ball=("sup", 1))
    ok, witness = verify_perception_pair(space, rotations)
    assert not ok
    phi, g = witness
    eq = lambda values: values[0] + values[2] == 0
    assert eq(phi.values)
    assert not eq(phi.pullback(g).values)


def test_inhomogeneous_constraints():
    # phi_A + phi_C = 5 is preserved by the swap but not by rotations
    space = constrained_space(ABCD, [((1, 0, 1, 0), 5)])
    ok, _ = verify_perception_pair(space, generate_group([parse_cycles("(B,D)", ABCD)]))
    assert ok
    ok, witness = verify_perception_pair(
        space, generate_group([parse_cycles("(A,B,C,D)", ABCD)])
    )
    assert not ok and witness is not None


def test_infeasible_constraints_are_vacuously_closed():
    space = constrained_space(ABCD, [((1, 0, 0, 0), 0), ((1, 0, 0, 0), 1)])
    ok, _ = verify_perception_pair(space, generate_group([parse_cycles("(A,B,C,D)", ABCD)]))
    assert ok


def test_explicit_space_closure():
    g = generate_group([parse_cycles("(A,B,C,D)", ABCD)])
    closed = explicit_space(ABCD, binary_vectors(4, ABCD))
    ok, _ = verify_perception_pair(closed, g)
    assert ok
    lopsided = explicit_space(ABCD, [[1, 0, 0, 0]])
    ok, witness = verify_perception_pair(lopsided, g)
    assert not ok and witness is not None


def test_perception_pair_constructor_rejects_unclosed():
    g = generate_group([parse_cycles("(A,B,C,D)", ABCD)])
    with pytest.raises(ValueError, match="not a perception pair"):
        PerceptionPair(opposite_ends_space(), g)
    PerceptionPair(full_space(ABCD), g)  # fine


def test_ball_membership():
    s = constrained_space(("A", "B"), ball=("l2", 1))
    assert s.contains(measurement(["3/5", "4/5"]))
    assert not s.contains(measurement(["3/5", "81/100"]))


# point pseudodistance


def test_point_pseudodistance_same_point():
    sample = explicit_space(("x", "y", "z"), binary_vectors(3))
    assert point_pseudodistance(1, 1, sample) == 0


def test_point_pseudodistance_single_function():
    sample = explicit_space(("x", "y"), [[1, 0]])
    assert point_pseudodistance(0, 1, sample) == 1


def test_point_pseudodistance_binary_cube():
    sample = explicit_space(("x", "y", "z"), binary_vectors(3))
    assert point_pseudodistance(0, 1, sample) == 1


def test_point_pseudodistance_needs_sample():
    with pytest.raises(ValueError):
        point_pseudodistance(0, 1, explicit_space(("x", "y"), []))


def test_invariant_sample_makes_group_isometric():
    sample = explicit_space(ABCD, binary_vectors(4, ABCD))
    group = vertex_automorphism_group(cycle_graph(4))
    for g in group:
        for x1 in range(4):
            for x2 in range(4):
                assert point_pseudodistance(g(x1), g(x2), sample) == point_pseudodistance(
                    x1, x2, sample
                )


# automorphism pseudodistance


def test_aut_pseudodistance_equal_maps():
    sample = explicit_space(ABCD, binary_vectors(4, ABCD))
    g = parse_cycles("(A,C)", ABCD)
    assert aut_pseudodistance(g, g, sample) == 0


def test_aut_pseudodistance_single_function():
    sample = explicit_space(ABCD, [[1, 0, 0, 0]])
    assert aut_pseudodistance(parse_cycles("id", ABCD), parse_cycles("(A,B)", ABCD), sample) == 1


def test_aut_pseudodistance_exhaustive_binary():
    sample = explicit_space(ABCD, binary_vectors(4, ABCD))
    assert aut_pseudodistance(parse_cycles("id", ABCD), parse_cycles("(A,C)", ABCD), sample) == 1


@given(st.permutations(range(4)), st.permutations(range(4)), st.permutations(range(4)))
def test_aut_pseudodistance_pseudometric(im1, im2, im3):
    from geneograph.perm import Permutation

    sample = explicit_space(ABCD, binary_vectors(4, ABCD))
    f, g, h = (Permutation(tuple(im), ABCD) for im in (im1, im2, im3))
    assert aut_pseudodistance(f, g, sample) == aut_pseudodistance(g, f, sample)
    assert aut_pseudodistance(f, h, sample) <= aut_pseudodistance(f, g, sample) + aut_pseudodistance(
        g, h, sample
    )
