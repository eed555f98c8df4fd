"""The decomposition against its earlier, slower form, kept inline here as the
reference.

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

from geneograph.geneo import (
    LinearOperator,
    _map_table,
    decompose_to_measure,
    from_measure,
    from_permutant,
    identity_operator,
    zero_operator,
)
from geneograph.graph import complete_graph, cycle_graph, edge_automorphism_group
from geneograph.linalg import OPTIMAL, rref, simplex_min
from geneograph.perception import PerceptionPair, full_space
from geneograph.perm import Homomorphism, generate_group, orbit_partition, parse_cycles
from geneograph.permutant import Mapping, PermutantMeasure, endo_context, transposition_permutant


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


def check_against_reference(op):
    try:
        expected = list(ref_decompose(op).items())
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            decompose_to_measure(op)
        assert str(info.value) == str(exc)
        return
    assert list(decompose_to_measure(op).weights.items()) == expected


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
