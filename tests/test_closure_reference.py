"""Each closure check against the earlier, slower form of the same check,
kept inline here as the reference.

- Perception pairs: the reference compares the reduced row echelon forms of
  the constraint system and its permuted copy for every group element, and
  only then looks for a spanning point that escapes.  Diagonal scaling's
  reference asks whether the scaled system's solutions solve the original
  system, again by comparing echelon forms.  On explicit families both
  references loop over the members themselves, each in its own copy.
- Groups from element lists: the reference scans every element for its
  inverse and every pair for its product before the greedy generator search.
- Groups from generators: the reference is the breadth-first closure of the
  identity under left multiplication by every generator, capped per
  insertion, which both group builders used before they closed by cosets.
- Generalized permutants: the reference scans every member against every
  group element.

These whole-group references give the verdict.  The witness is checked
against a second reference that scans in generator order: it must name a
generator that really fails, and the same one.  Verdicts, witnesses and
messages must agree on seeded random inputs that cover both verdicts.
"""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

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
    CapExceededError,
    Permutation,
    closure,
    compose,
    generate_group,
    group_cap,
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
from helpers import setwise_stabilizer_context, symmetric_group

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


def ref_verify_explicit(space, group):
    values = {m.values for m in space.members}
    for g in group:
        for m in space.members:
            if g.pullback(m.values) not in values:
                return False, (m, g)
    return True, None


def ref_pair_witness(space, group):
    """The first generator, in generator order, and for it the first explicit
    member or spanning point of the equations, that precomposition takes out
    of the space; None if there is none."""
    if space.members is not None:
        values = {m.values for m in space.members}
        points = space.members
    else:
        solved = solve_affine(list(space.equations), space.dim)
        points = []
        if solved is not None:
            particular, basis = solved
            spanning = [particular] + [[p + v for p, v in zip(particular, vec)] for vec in basis]
            points = [Measurement(tuple(p), space.domain) for p in spanning]

    def escapes(moved):
        if space.members is not None:
            return moved not in values
        return any(sum(a * v for a, v in zip(c, moved)) != r for c, r in space.equations)

    return next(((phi, g) for g in group.generators for phi in points if escapes(g.pullback(phi.values))), None)


def check_pair_witness(space, group, verdict, got):
    """The library's result against the verdict of a whole-group reference and
    the witness of the generator-order reference."""
    ok, witness = got
    assert ok == verdict, (space, group.generators)
    assert witness == (None if ok else ref_pair_witness(space, group)), (space, group.generators)
    if not ok:
        assert witness[1] in group.generators


def ref_scaling_explicit(scale, pair):
    """(accepted, violated orbits, closure_ok, detail) of diagonal_scaling on an explicit family."""
    violated = tuple(
        tuple(orb) for orb in pair.group.coordinate_orbits() if len({scale[i] for i in orb}) > 1
    )
    closure_ok, detail = True, ""
    values = {m.values for m in pair.space.members}
    for m in pair.space.members:
        image = tuple(v / s for v, s in zip(m.values, scale))
        if image not in values:
            closure_ok = False
            detail = f"image of {tuple(map(str, m.values))} leaves the explicit family"
            break
    if violated:
        names = ["{" + ",".join(pair.space.domain[i] for i in orb) + "}" for orb in violated]
        detail = (detail + "; " if detail else "") + (
            "scaling is not constant on coordinate orbit(s) " + ", ".join(names)
        )
    return not violated and closure_ok, violated, closure_ok, detail


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


def ref_generate_group(gens):
    """Elements and generators of the group the generators generate, by
    breadth-first closure of the identity, capped at group_cap()."""
    moves = [lambda p, a=g.images: tuple([a[i] for i in p]) for g in gens]
    elements = closure((tuple(range(gens[0].n)),), moves, group_cap())
    return tuple(Permutation(images, gens[0].labels) for images in sorted(elements)), tuple(gens)


def ref_greedy_witness(elements):
    """The elements' greedy generators, each element outside the closure so
    far in element order, until the closure reaches the set's size; then the
    first element p, in element order, and for it the first of those
    generators s with s o p outside the set."""
    elems = sorted(set(elements), key=lambda p: p.images)
    member = frozenset(elems)
    gens, have = [], {identity(elems[0].n, elems[0].labels)}
    for p in elems:
        if p not in have:
            gens.append(p)
            frontier = list(have)
            while frontier:
                frontier = [x for x in {compose(s, y) for s in gens for y in frontier} if x not in have]
                have.update(frontier)
            if len(have) >= len(elems):
                break
    return next((s, p) for p in elems for s in gens if compose(s, p) not in member)


def ref_is_generalized_permutant(members, ctx):
    mset = set(members)
    images = {f.images for f in mset}
    witness = next(
        (
            (h, g)
            for h in sorted(mset, key=lambda m: m.images)
            for g in ctx.G.elements
            if tuple(g.images[h.images[y]] for y in ctx.T(g.inverse()).images) not in images
        ),
        None,
    )
    return witness is None, witness


def ref_permutant_witness(members, ctx):
    """The first member in image order, and for it the first generator of G,
    whose move takes it out of the set; None if there is none."""
    images = {f.images for f in members}
    return next(
        (
            (h, g)
            for h in sorted(set(members), key=lambda m: m.images)
            for g in ctx.G.generators
            if tuple(g.images[h.images[y]] for y in ctx.T(g.inverse()).images) not in images
        ),
        None,
    )


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
        verdict = ref_verify_constrained(space, group)[0]
        check_pair_witness(space, group, verdict, verify_perception_pair(space, group))
        verdicts[verdict] += 1
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


def random_explicit_space(rng, n, group, scale):
    """A few random members, some closed up under the group, under division
    by the scale, or both, with a closing member sometimes dropped again;
    members are occasionally repeated or carry no domain labels."""
    domain = LABELS[:n]
    members = []
    for _ in range(rng.randint(1, 3)):
        row = random_row(rng, n)
        if rng.random() < 0.5:
            orbit = sorted({g.pullback(row) for g in group})
            members += [tuple(v / s ** k for v, s in zip(p, scale)) for p in orbit for k in range(3)]
        else:
            members.append(row)
        if rng.random() < 0.3:
            members.append(tuple(v / s for v, s in zip(members[-1], scale)))
    rng.shuffle(members)
    if len(members) > 1 and rng.random() < 0.3:
        members.pop(rng.randrange(len(members)))
    if rng.random() < 0.2:
        members.append(rng.choice(members))
    labeled = tuple(Measurement(m, None if rng.random() < 0.2 else domain) for m in members)
    return FunctionSpace(domain, members=labeled)


def test_explicit_families_match_reference():
    rng = random.Random(20260422)
    perception, scaling = {True: 0, False: 0}, {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(2, 4)
        group = random_group(rng, n)
        scale = [
            Fraction(1) if rng.random() < 0.6 else Fraction(rng.choice((2, 3, Fraction(3, 2)))) for _ in range(n)
        ]
        space = random_explicit_space(rng, n, group, scale)
        verdict = ref_verify_explicit(space, group)[0]
        check_pair_witness(space, group, verdict, verify_perception_pair(space, group))
        perception[verdict] += 1
        # a space the group does not keep is no perception pair with it
        acting = group if verdict and rng.random() >= 0.5 else trivial_group(space.domain)
        pair = PerceptionPair(space, acting)
        outcome = diagonal_scaling(scale, pair)
        accepted, violated, closure_ok, detail = ref_scaling_explicit(scale, pair)
        assert (outcome.accepted, outcome.violated_orbits, outcome.closure_ok, outcome.detail) == (
            accepted, violated, closure_ok, detail
        ), (space, scale)
        assert (outcome.operator is not None) == accepted
        scaling[closure_ok] += 1
    assert min(perception.values()) >= 100 and min(scaling.values()) >= 100, (perception, scaling)


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
        if isinstance(expected, str) and "not closed" in expected:
            # not a group: the witness is a greedy generator that takes an element out
            s, p = ref_greedy_witness(elems)
            assert compose(s, p) not in set(elems)
            expected = f"element set not closed under composition at {s}, {p}"
        assert got == expected, elems
        verdicts[not isinstance(expected, str)] += 1
    assert min(verdicts.values()) >= 150, verdicts


def random_generators(rng, n):
    """One to four generators on n points: random permutations, the
    identity, a repeat, or a product of two earlier ones."""
    labels = tuple("ABCDEF")[:n]
    gens = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.1:
            gens.append(identity(n, labels))
        elif kind < 0.3 and gens:
            gens.append(compose(rng.choice(gens), rng.choice(gens)) if kind < 0.2 else rng.choice(gens))
        else:
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images), labels))
    return gens


def generated(gens):
    group = generate_group(gens)
    return group.elements, group.generators


def group_outcome(build, gens):
    try:
        return build(gens)
    except CapExceededError as exc:
        return str(exc)


def test_generate_group_matches_reference(monkeypatch):
    rng = random.Random(20260423)
    orders = set()
    for _ in range(300):
        gens = random_generators(rng, rng.randint(1, 6))
        elements, generators = generated(gens)
        assert (elements, generators) == ref_generate_group(gens), gens
        order = len(elements)
        orders.add(order)
        # at the cap boundary: the group's own order passes, one less fails the same way
        for cap in (order, order - 1):
            if cap >= 1:
                monkeypatch.setenv("GENEO_MAX_GROUP", str(cap))
                got = group_outcome(generated, gens)
                assert got == group_outcome(ref_generate_group, gens), (gens, cap)
                assert (got == f"group closure exceeded cap {cap}") == (cap < order)
        monkeypatch.delenv("GENEO_MAX_GROUP")
    assert {1, 2, 6, 24, 120, 720} <= orders, sorted(orders)


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
        ok = ref_is_generalized_permutant(subset, ctx)[0]
        witness = None if ok else ref_permutant_witness(subset, ctx)
        assert is_generalized_permutant(subset, ctx) == (ok, witness)
        if ok:
            assert GeneralizedPermutant(ctx, subset).size == len(subset)
        else:
            h, g = witness
            assert g in ctx.G.generators
            moved = alpha_action(g, h, ctx)
            assert moved not in subset
            message = f"not alpha-closed: alpha({g}, {h}) = {moved} escapes"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                GeneralizedPermutant(ctx, subset)
        verdicts[ok] += 1
    assert min(verdicts.values()) >= 60, verdicts
