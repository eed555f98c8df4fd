"""The decomposition against its earlier, slower form, kept inline here as the
reference.

Every comparison runs twice: cold, with the memo of group-only data emptied
first, and warm, on the data the cold run left in it.

The reference sorts every conjugation orbit, counts one dense n x n table per
orbit, keeps one copy of each of the n^2 equations, and gives the LP a column
pair for every orbit, with rational rows.  The library writes one equation per
orbital and one column pair per distinct (orbit size, orbital counts).  Both
must return the same weights, in the same order, or fail with the same error.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

import geneograph.geneo as geneo_module
from geneograph.geneo import (
    LinearOperator,
    _map_table,
    decompose_to_measure,
    from_measure,
    from_permutant,
    identity_operator,
    zero_operator,
)
from geneograph.experiments import transposition_permutant
from geneograph.graph import complete_graph, cycle_graph, edge_automorphism_group, induced_edge_permutation
from geneograph.linalg import OPTIMAL, rref, simplex_min
from geneograph.perception import PerceptionPair, full_space
from geneograph.perm import Homomorphism, Permutation, generate_group, parse_cycles
from geneograph.permutant import Mapping, PermutantMeasure, endo_context

from helpers import orbit_partition

# each test starts on an empty memo of group-only data, and leaves the process's memo as it found it
pytestmark = pytest.mark.usefixtures("fresh_memos")


# -- the reference decomposition, as first written ------------------------------


def ref_decompose(op):
    """The weights of the measure the decomposition returned before equations
    were taken per orbital and LP columns per distinct orbit column.  The
    input checks are left out: every operator given here passes them."""
    group = op.source.group
    n = group.degree
    ctx = endo_context(group)
    orbits = [sorted(o) for o in orbit_partition(permutations(range(n)), ctx.moves)]
    m = len(orbits)

    tables = [_map_table(((h, 1) for h in o), n, n) for o in orbits]
    raw = dict.fromkeys(tuple(t[y][x] for t in tables) + (op.coeffs[y][x],) for y in range(n) for x in range(n))
    reduced = rref(list(raw))
    if any(next(i for i, v in enumerate(r) if v != 0) == m for r in reduced):
        raise ValueError("no permutant measure reproduces this operator")
    eq_rows = [r[:-1] for r in reduced]
    eq_rhs = [r[-1] for r in reduced]
    sizes = [Fraction(len(o)) for o in orbits]

    def lp(zeroed, bound):
        active = [i for i in range(m) if i not in zeroed]
        lhs = []
        for row in eq_rows:
            r = []
            for i in active:
                r.extend([row[i], -row[i]])
            if bound is not None:
                r.append(Fraction(0))
            lhs.append(r)
        rhs_all = list(eq_rhs)
        if bound is not None:
            budget = []
            for i in active:
                budget.extend([sizes[i], sizes[i]])
            budget.append(Fraction(1))
            lhs.append(budget)
            rhs_all.append(bound)
            costs = [Fraction(0)] * (2 * len(active) + 1)
        else:
            costs = []
            for i in active:
                costs.extend([sizes[i], sizes[i]])
        status, value, sol = simplex_min(costs, lhs, rhs_all)
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
    zeroed = {i for i in range(m) if i not in weights}
    for i in range(m):
        if i in zeroed:
            continue
        res = lp(zeroed | {i}, Fraction(1))
        if res is not None:
            zeroed.add(i)
            weights = res[1]
            zeroed.update(j for j in range(m) if j not in weights)
    final = lp(zeroed, None)
    assert final is not None and final[0] <= 1
    _, weights = final

    labels = group.labels
    return {Mapping(labels, labels, h): w for i, w in weights.items() for h in orbits[i]}


def outcome(op):
    """The weights decompose_to_measure returns, in order, or its error text."""
    try:
        return list(decompose_to_measure(op).weights.items())
    except ValueError as exc:
        return str(exc)


def check_against_reference(op):
    """The decomposition matches the reference cold, on an empty memo, and
    warm, on the group data the cold call left in it."""
    try:
        expected = list(ref_decompose(op).items())
    except ValueError as exc:
        expected = str(exc)
    geneo_module._orbit_columns.cache_clear()
    assert outcome(op) == expected
    hits = geneo_module._orbit_columns.cache_info().hits
    assert outcome(op) == expected
    assert geneo_module._orbit_columns.cache_info().hits == hits + 1


# -- inputs ---------------------------------------------------------------------


EDGE_GROUPS = {
    "C5": lambda: edge_automorphism_group(cycle_graph(5)),
    "C6": lambda: edge_automorphism_group(cycle_graph(6)),
    "K4": lambda: edge_automorphism_group(complete_graph(4)),
    "C7": lambda: edge_automorphism_group(cycle_graph(7)),
}


def pair_of(group):
    return PerceptionPair(full_space(group.labels), group)


def seeded_measure_operator(group, rng, variation):
    """The operator of a measure on 2 to 4 random conjugation orbits, scaled to
    the given total variation."""
    ctx = endo_context(group)
    orbits = [sorted(o) for o in orbit_partition(permutations(range(group.degree)), ctx.moves)]
    chosen = rng.sample(orbits, rng.randint(2, 4))
    raw = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5)) for _ in chosen]
    scale = variation / sum(abs(w) * len(o) for w, o in zip(raw, chosen))
    labels = group.labels
    weights = {Mapping(labels, labels, h): w * scale for w, o in zip(raw, chosen) for h in o}
    return from_measure(PermutantMeasure(ctx, weights))


def cyclic_shift_operator():
    labels = ("x", "y", "z")
    r = parse_cycles("(x,y,z)", labels)
    rot = generate_group([r])
    coeffs = tuple(tuple(Fraction(1 if x == r(y) else 0) for x in range(3)) for y in range(3))
    return LinearOperator(coeffs, pair_of(rot), pair_of(rot), Homomorphism.identity_on(rot))


def test_named_operators_match_reference():
    k4 = pair_of(EDGE_GROUPS["K4"]())
    check_against_reference(identity_operator(k4))
    check_against_reference(identity_operator(pair_of(EDGE_GROUPS["C7"]())))
    check_against_reference(zero_operator(k4))
    check_against_reference(from_permutant(transposition_permutant(4, model="edge")))
    check_against_reference(cyclic_shift_operator())


@pytest.mark.parametrize("name", list(EDGE_GROUPS))
def test_seeded_measure_operators_match_reference(name):
    group = EDGE_GROUPS[name]()
    rng = random.Random(f"decompose-{name}")
    variations = [Fraction(1), Fraction(1, 2), Fraction(rng.randint(1, 9), 10)]
    for variation in variations:
        check_against_reference(seeded_measure_operator(group, rng, variation))


def test_operator_without_representing_measure_matches_reference():
    group = EDGE_GROUPS["K4"]()
    pair = pair_of(group)
    doubled = LinearOperator(
        tuple(tuple(Fraction(2 if i == j else 0) for j in range(6)) for i in range(6)),
        pair, pair, Homomorphism.identity_on(group),
    )
    with pytest.raises(ValueError, match="total variation 2 > 1"):
        decompose_to_measure(doubled)
    check_against_reference(doubled)
    wide = seeded_measure_operator(EDGE_GROUPS["C6"](), random.Random("decompose-wide"), Fraction(3, 2))
    with pytest.raises(ValueError, match="total variation"):
        decompose_to_measure(wide)
    check_against_reference(wide)


# -- the memo of group-only data --------------------------------------------------


def k4_rotation_group():
    """A4, the rotations of the tetrahedron, acting on the six edges of K4."""
    k4 = complete_graph(4)
    rotations = [parse_cycles(text, k4.vertex_labels) for text in ("(A,B,C)", "(A,B)(C,D)")]
    return generate_group([induced_edge_permutation(k4, r) for r in rotations])


def test_groups_of_one_degree_and_order_keep_their_own_data():
    # the C6 edge group and A4 on K4's edges: both transitive of degree 6 and
    # order 12, so only the generator images tell their data apart
    groups = [EDGE_GROUPS["C6"](), k4_rotation_group()]
    assert [(g.degree, g.order, len(g.coordinate_orbits())) for g in groups] == [(6, 12, 1)] * 2
    rngs = [random.Random(f"alternate-{i}") for i in range(2)]
    for variation in (Fraction(1), Fraction(1, 2), Fraction(3, 4)):
        for group, rng in zip(groups, rngs):
            op = seeded_measure_operator(group, rng, variation)
            assert list(decompose_to_measure(op).weights.items()) == list(ref_decompose(op).items())
    assert geneo_module._orbit_columns.cache_info().misses == 2


def test_relabeled_group_reuses_the_bijection_orbits():
    group = EDGE_GROUPS["C6"]()
    labels = tuple(f"e{i}" for i in range(group.degree))
    relabeled = generate_group([Permutation(g.images, labels) for g in group.generators])
    first = decompose_to_measure(identity_operator(pair_of(group)))
    second = decompose_to_measure(identity_operator(pair_of(relabeled)))
    assert geneo_module._orbit_columns.cache_info().misses == 1
    assert [(f.images, w) for f, w in second.weights.items()] == [(f.images, w) for f, w in first.weights.items()]
    assert all(f.source_labels == labels for f in second.weights)
