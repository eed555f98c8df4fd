"""Each closure check against the earlier, slower form of the same check,
kept inline here as the reference.

- Perception pairs: the reference compares the reduced row echelon forms of
  the constraint system and its permuted copy for every group element, and
  only then looks for a spanning point that escapes.  Diagonal scaling's
  reference asks whether the scaled system's solutions solve the original
  system, again by comparing echelon forms.
- Groups from element lists: the reference scans every element for its
  inverse and every pair for its product before the greedy generator search.
- Generalized permutants: the reference scans every member against every
  group element.

Verdicts, witnesses and messages must agree on seeded random inputs that
cover both verdicts.
"""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from geneograph.fixtures import setwise_stabilizer_context, symmetric_group
from geneograph.geneo import diagonal_scaling
from geneograph.linalg import rref, solve_affine
from geneograph.perception import (
    FunctionSpace,
    Measurement,
    PerceptionPair,
    constrained_space,
    verify_perception_pair,
)
from geneograph.perm import (
    Permutation,
    closure,
    compose,
    generate_group,
    group_from_elements,
    identity,
    trivial_group,
)
from geneograph.permutant import (
    GeneralizedPermutant,
    alpha_action,
    endo_context,
    is_generalized_permutant,
)

from conftest import dihedral_edge_context

LABELS = tuple("ABCDE")


# -- the reference checks, as first written ------------------------------------


def _aug(system):
    return [list(c) + [r] for c, r in system]


def ref_same_solution_set(sys1, sys2, n_vars):
    feas1 = solve_affine(sys1, n_vars) is not None
    feas2 = solve_affine(sys2, n_vars) is not None
    if not feas1 or not feas2:
        return feas1 == feas2
    return rref(_aug(sys1)) == rref(_aug(sys2))


def ref_solution_subset(sys1, sys2, n_vars):
    if solve_affine(sys1, n_vars) is None:
        return True
    return rref(_aug(sys1)) == rref(_aug(sys1) + _aug(sys2))


def ref_verify_constrained(space, group):
    n = space.dim
    sys0 = list(space.equations)
    solved = solve_affine(sys0, n)
    if solved is None:
        return True, None
    particular, basis = solved
    for g in group:
        moved = [(g.pullback(coeffs), rhs) for coeffs, rhs in space.equations]
        if ref_same_solution_set(sys0, moved, n):
            continue
        candidates = [particular] + [[p + v for p, v in zip(particular, vec)] for vec in basis]
        for cand in candidates:
            phi = Measurement(tuple(cand), space.domain)
            values = phi.pullback(g).values
            if any(sum(a * v for a, v in zip(coeffs, values)) != rhs for coeffs, rhs in sys0):
                return False, (phi, g)
        raise AssertionError("no witness found for an unclosed constrained space")
    return True, None


def ref_scaling_closes(space, scale):
    scaled = [(tuple(c * s for c, s in zip(coeffs, scale)), rhs) for coeffs, rhs in space.equations]
    return ref_solution_subset(scaled, list(space.equations), space.dim)


def ref_group_from_elements(elements):
    elems = sorted(set(elements), key=lambda p: p.images)
    if not elems:
        raise ValueError("a group needs at least the identity")
    ident = identity(elems[0].n, elems[0].labels)
    member = frozenset(elems)
    if ident not in member:
        raise ValueError("element set lacks the identity")
    for p in elems:
        if p.inverse() not in member:
            raise ValueError(f"element set not closed under inverse at {p}")
    for p in elems:
        for q in elems:
            if compose(p, q) not in member:
                raise ValueError(f"element set not closed under composition at {p}, {q}")
    gens, moves, have = [], [], {ident.images}
    for p in elems:
        if p.images not in have:
            gens.append(p)
            moves.append(lambda x, a=p.images: tuple([a[i] for i in x]))
            have = closure(have, moves, len(elems))
            if len(have) == len(elems):
                break
    return tuple(elems), tuple(gens)


def ref_is_generalized_permutant(members, ctx):
    mset = set(members)
    images = {f.images for f in mset}
    witness = next(
        (
            (h, g)
            for h in sorted(mset, key=lambda m: m.images)
            for g, move in ctx.element_moves.items()
            if move(h.images) not in images
        ),
        None,
    )
    return witness is None, witness


# -- random inputs -----------------------------------------------------------------


def random_group(rng, n):
    labels = LABELS[:n]
    gens = []
    for _ in range(rng.randint(1, 2 if n < 5 else 1)):
        images = list(range(n))
        rng.shuffle(images)
        gens.append(Permutation(tuple(images), labels))
    return generate_group(gens)


def random_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def random_row(rng, n, sparse=0.4):
    return tuple(Fraction(0) if rng.random() < sparse else random_rational(rng) for _ in range(n))


def random_equations(rng, n, group):
    """A random system: invariant rows (each row with all its permuted copies),
    plain random rows, a copy of a combination of earlier rows, or a row that
    makes it inconsistent."""
    equations = []
    for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
        row, rhs = random_row(rng, n), random_rational(rng) if rng.random() < 0.5 else Fraction(0)
        kind = rng.random()
        if kind < 0.35 and group is not None:
            equations += sorted({(g.pullback(row), rhs) for g in group})
        elif kind < 0.85:
            equations.append((row, rhs))
        elif equations:
            (a, r), (b, s) = rng.choice(equations), rng.choice(equations)
            k = random_rational(rng)
            equations.append((tuple(x + k * y for x, y in zip(a, b)), r + k * s))
    if equations and rng.random() < 0.05:
        equations.append((equations[0][0], equations[0][1] + 1))
    rng.shuffle(equations)
    return equations


def random_constrained_space(rng, n, group=None):
    ball = ("sup", Fraction(rng.randint(0, 3))) if rng.random() < 0.3 else None
    return constrained_space(LABELS[:n], random_equations(rng, n, group), ball)


# -- the comparisons -----------------------------------------------------------------


def test_perception_pair_matches_reference():
    rng = random.Random(20260418)
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        n = rng.randint(2, 5)
        group = random_group(rng, n)
        space = random_constrained_space(rng, n, group)
        expected = ref_verify_constrained(space, group)
        assert verify_perception_pair(space, group) == expected, (space, group.generators)
        verdicts[expected[0]] += 1
    assert min(verdicts.values()) >= 200, verdicts


def test_diagonal_scaling_closure_matches_reference():
    rng = random.Random(20260419)
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        n = rng.randint(2, 5)
        space = random_constrained_space(rng, n)
        if rng.random() < 0.4:
            # constant on every equation's support with a zero rhs keeps the space
            scale = [Fraction(rng.choice((1, 2, 3, Fraction(3, 2))))] * n
            space = FunctionSpace(space.domain, tuple((c, Fraction(0)) for c, _ in space.equations), space.ball)
        else:
            scale = [Fraction(rng.choice((1, 1, 2, Fraction(3, 2)))) for _ in range(n)]
        outcome = diagonal_scaling(scale, PerceptionPair(space, trivial_group(space.domain)))
        expected = ref_scaling_closes(space, scale)
        assert outcome.closure_ok == outcome.accepted == expected, (space, scale)
        assert outcome.detail == ("" if expected else "scaled image leaves the constrained space")
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 200, verdicts


def random_element_set(rng, n):
    """Random subsets of S_n, unions of two subgroups, and subgroups with one
    element taken out or put in: groups and near-groups alike."""
    labels = LABELS[:n]
    every = [Permutation(images, labels) for images in permutations(range(n))]
    kind = rng.random()
    if kind < 0.3:
        elems = set(rng.sample(every, rng.randint(1, len(every))))
    elif kind < 0.5:
        elems = set(random_group(rng, n)) | set(random_group(rng, n))
    else:
        elems = set(random_group(rng, n))
        if kind < 0.7 and len(elems) > 1:
            elems.discard(rng.choice(sorted(elems, key=lambda p: p.images)[1:]))
        elif kind < 0.85:
            elems.add(rng.choice(every))
    if rng.random() < 0.9:
        elems.add(identity(n, labels))
    return sorted(elems, key=lambda p: p.images)


def outcome(build, elems):
    try:
        return build(elems)
    except ValueError as exc:
        return str(exc)


def test_group_from_elements_matches_reference():
    rng = random.Random(20260420)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        elems = random_element_set(rng, rng.randint(2, 4))
        rng.shuffle(elems)
        expected = outcome(ref_group_from_elements, elems)
        got = outcome(lambda e: (lambda g: (g.elements, g.generators))(group_from_elements(e)), elems)
        assert got == expected, elems
        verdicts[not isinstance(expected, str)] += 1
    assert min(verdicts.values()) >= 150, verdicts


CONTEXTS = (dihedral_edge_context(), endo_context(symmetric_group("abc")), setwise_stabilizer_context("ABCD", "AB"))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=["c6c3", "s3", "stabilizer"])
def test_is_generalized_permutant_matches_reference(ctx):
    rng = random.Random(20260421)
    maps = list(ctx.all_mappings())
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        subset = set(rng.sample(maps, rng.randint(0, 6)))
        for f in list(subset):
            if rng.random() < 0.6:
                subset |= {alpha_action(g, f, ctx) for g in ctx.G}
        if subset and rng.random() < 0.3:
            subset.discard(rng.choice(sorted(subset, key=lambda m: m.images)))
        expected = ref_is_generalized_permutant(subset, ctx)
        assert is_generalized_permutant(subset, ctx) == expected
        ok, witness = expected
        if ok:
            assert GeneralizedPermutant(ctx, subset).size == len(subset)
        else:
            h, g = witness
            moved = alpha_action(g, h, ctx)
            message = f"not alpha-closed: alpha({g}, {h}) = {moved} escapes"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                GeneralizedPermutant(ctx, subset)
        verdicts[ok] += 1
    assert min(verdicts.values()) >= 60, verdicts
