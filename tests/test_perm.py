import math
import random
import re
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings, strategies as st

from geneograph.perm import (
    CapExceededError,
    CycleParseError,
    DomainMismatchError,
    FiniteGroup,
    Homomorphism,
    Permutation,
    _greedy_generators,
    _group_generators,
    compose,
    format_cycles,
    generate_group,
    group_cap,
    group_from_elements,
    identity,
    inverse,
    parse_cycles,
    trivial_group,
)
from geneograph.graph import complete_graph, cycle_graph, edge_automorphism_group, graph, vertex_automorphism_group

from helpers import cycles, homomorphism_from_table

ABCD = ("A", "B", "C", "D")
EDGES6 = ("a", "b", "c", "d", "e", "f")


def perm(text, labels):
    return parse_cycles(text, labels)


def perms(n, labels=None):
    labels = labels or tuple("abcdefghij"[:n])
    return st.permutations(range(n)).map(lambda im: Permutation(tuple(im), labels))


# composition / inversion


def test_transposition_is_involution():
    t = perm("(A,B)", ABCD)
    assert compose(t, t) == identity(4, ABCD)


def test_compose_with_identity():
    p = perm("(A,C)(B,D)", ABCD)
    assert compose(p, identity(4, ABCD)) == p
    assert compose(identity(4, ABCD), p) == p


def test_six_cycle_squared():
    alpha = perm("(a,b,c,d,e,f)", EDGES6)
    assert compose(alpha, alpha) == perm("(a,c,e)(b,d,f)", EDGES6)


def test_compose_order_convention():
    # (p o q)(x) = p(q(x)): apply q first
    p = perm("(A,B)", ABCD)
    q = perm("(B,C)", ABCD)
    pq = compose(p, q)
    # C -> B under q, then B -> A under p
    assert pq(2) == p(q(2)) == 0


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        compose(identity(3, ABCD[:3]), identity(4, ABCD))
    with pytest.raises(DomainMismatchError):
        compose(identity(4, ABCD), identity(4, EDGES6[:4]))


def test_inverse_basics():
    assert inverse(identity(4, ABCD)) == identity(4, ABCD)
    t = perm("(A,B)", ABCD)
    assert inverse(t) == t
    alpha = perm("(a,b,c,d,e,f)", EDGES6)
    assert inverse(alpha) == perm("(a,f,e,d,c,b)", EDGES6)


@given(perms(7))
def test_inverse_roundtrip(p):
    assert compose(p, inverse(p)).is_identity()
    assert compose(inverse(p), p).is_identity()


# cycle notation


def test_parse_basic():
    p = perm("(A,C)(B,D)", ABCD)
    assert p.images == (2, 3, 0, 1)


def test_parse_identity_token():
    assert perm("id", ABCD) == identity(4, ABCD)


def test_parse_six_cycle():
    alpha = perm("(a,b,c,d,e,f)", EDGES6)
    assert alpha.images == (1, 2, 3, 4, 5, 0)


def test_parse_accepts_spaces():
    assert perm("(r s)(q t)", ("p", "q", "r", "s", "t", "u")) == perm(
        "(r,s)(q,t)", ("p", "q", "r", "s", "t", "u")
    )


@pytest.mark.parametrize(
    "bad",
    ["(A,Z)", "(A,B)(B,C)", "(A,A)", "(A,B", "A,B", "(A)", "()", "(A,B) junk", ""],
)
def test_parse_rejects(bad):
    with pytest.raises(CycleParseError):
        perm(bad, ABCD)


def test_format_canonical():
    p = Permutation((2, 3, 0, 1), ABCD)
    assert format_cycles(p) == "(A,C)(B,D)"
    assert format_cycles(identity(4, ABCD)) == "id"
    # fixed points omitted, cycles sorted by smallest moved index
    q = perm("(B,D)", ABCD)
    assert format_cycles(q) == "(B,D)"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def regex_parse_cycles(text, labels):
    """The regular-expression parser that parse_cycles replaced: the reference
    for its grammar, its results and its error texts."""
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise CycleParseError(f"duplicate labels in domain: {labels}")
    stripped = text.strip()
    if stripped == "id":
        return identity(len(labels), labels)
    if _CYCLE_RE.sub("", stripped).strip():
        raise CycleParseError(f"malformed cycle product: {text!r}")
    images = list(range(len(labels)))
    used: set[int] = set()
    matched_any = False
    for m in _CYCLE_RE.finditer(stripped):
        matched_any = True
        names = [tok for tok in re.split(r"[,\s]+", m.group(1).strip()) if tok]
        if len(names) < 2:
            raise CycleParseError(f"cycle needs at least two elements: ({m.group(1)})")
        idxs = []
        for name in names:
            if name not in index:
                raise CycleParseError(f"unknown label {name!r} (domain {labels})")
            idxs.append(index[name])
        for i in idxs:
            if i in used:
                raise CycleParseError(f"label {labels[i]!r} repeated in {text!r}")
            used.add(i)
        for a, b in zip(idxs, idxs[1:] + idxs[:1]):
            images[a] = b
    if not matched_any:
        raise CycleParseError(f"malformed cycle product: {text!r}")
    return Permutation(tuple(images), labels)


def parse_outcome(parse, text, labels):
    try:
        return parse(text, labels)
    except CycleParseError as exc:
        return str(exc)


LABEL_SETS = [
    ABCD,
    ("a", "bb", "ccc", "id"),  # multi-character labels, one of them the identity token
    ("p", "q", "p"),  # a duplicate label
    ("x", "A B", "(x", "a,b", "y)", ""),  # labels no cycle text can name
]


@settings(max_examples=500)
@given(st.data())
def test_parse_matches_regex_reference(data):
    labels = data.draw(st.sampled_from(LABEL_SETS))
    # names joined by separators ("" glues two names into one unknown label),
    # mostly in cycles, with stray brackets, commas and names between them
    name = st.sampled_from([*labels, "id", "zz"])
    sep = st.sampled_from([",", " ", ", ", "\t", "\n", "\xa0", ""])
    gap = st.sampled_from(["", " ", "\n", "\xa0"])
    cycle = st.lists(st.tuples(sep, name), min_size=1, max_size=4).map(
        lambda run: "(" + "".join(s + n for s, n in run) + ")"
    )
    item = st.one_of(cycle, cycle, cycle, st.sampled_from(["(", ")", ",", "id", "zz"]))
    text = "".join(data.draw(st.lists(st.tuples(gap, item).map("".join), min_size=1, max_size=4)))
    text += data.draw(gap)
    assert parse_outcome(parse_cycles, text, labels) == parse_outcome(regex_parse_cycles, text, labels)


@given(perms(6))
def test_parse_format_roundtrip(p):
    assert parse_cycles(format_cycles(p), p.labels) == p


# group generation


def test_klein_four_group():
    g = generate_group([perm("(A,C)", ABCD), perm("(B,D)", ABCD)])
    assert g.order == 4
    assert {format_cycles(e) for e in g} == {"id", "(A,C)", "(B,D)", "(A,C)(B,D)"}


def test_empty_generators_give_trivial_group():
    g = trivial_group(ABCD)
    assert g.order == 1 and g.identity in g


def test_dihedral_group_of_order_12():
    alpha = perm("(a,b,c,d,e,f)", EDGES6)
    beta = perm("(a,f)(b,e)(c,d)", EDGES6)
    g = generate_group([alpha, beta])
    assert g.order == 12


def test_symmetric_group_from_transpositions():
    gens = [perm(f"({a},{b})", ABCD) for a, b in [("A", "B"), ("B", "C"), ("C", "D")]]
    g = generate_group(gens)
    assert g.order == 24


def test_groups_on_one_label():
    # on one point the identity is the only permutation; composing there by
    # operator.itemgetter(i) would give an integer, not an image tuple
    ident = identity(1, ("a",))
    for group in (generate_group([ident]), generate_group([ident, ident]), group_from_elements([ident])):
        assert group.elements == (ident,) and group.identity == ident
        assert [format_cycles(p) for p in group] == ["id"]
    assert generate_group([ident]).generators == (ident,)
    assert group_from_elements([ident]).generators == ()


def test_groups_on_no_labels():
    ident = identity(0, ())
    assert group_from_elements([ident]).elements == (ident,)
    assert generate_group([ident]).elements == (ident,)
    assert trivial_group(()).elements == (ident,)


def test_group_cap(monkeypatch):
    # the cap is 10! unless GENEO_MAX_GROUP names a positive integer
    monkeypatch.delenv("GENEO_MAX_GROUP", raising=False)
    assert group_cap() == math.factorial(10)
    monkeypatch.setenv("GENEO_MAX_GROUP", "")
    assert group_cap() == math.factorial(10)
    monkeypatch.setenv("GENEO_MAX_GROUP", "10")
    assert group_cap() == 10
    for bad in ("0", "-5", "abc"):
        monkeypatch.setenv("GENEO_MAX_GROUP", bad)
        with pytest.raises(ValueError, match="GENEO_MAX_GROUP must be a positive integer"):
            group_cap()


def test_group_cap_boundary(monkeypatch):
    # the cap is checked on every insertion, and S4 has exactly 24 elements
    gens = [perm("(A,B)", ABCD), perm("(B,C)", ABCD), perm("(C,D)", ABCD)]
    monkeypatch.setenv("GENEO_MAX_GROUP", "24")
    assert generate_group(gens).order == 24
    monkeypatch.setenv("GENEO_MAX_GROUP", "23")
    with pytest.raises(CapExceededError) as exc:
        generate_group(gens)
    assert str(exc.value) == "group closure exceeded cap 23"


def test_group_cap_env(monkeypatch):
    gens = [perm("(A,B)", ABCD), perm("(B,C)", ABCD), perm("(C,D)", ABCD)]
    monkeypatch.setenv("GENEO_MAX_GROUP", "10")
    with pytest.raises(CapExceededError):
        generate_group(gens)


def test_generators_agree_on_labels():
    # the generators' labels must agree
    xy, pq = ("x", "y"), ("p", "q")
    with pytest.raises(DomainMismatchError, match="label sets differ"):
        generate_group([Permutation((0, 1), xy), Permutation((1, 0), xy), Permutation((1, 0), pq)])
    with pytest.raises(ValueError, match="trivial_group"):
        generate_group([])


def test_generated_groups_satisfy_axioms():
    alpha = perm("(a,b,c,d,e,f)", EDGES6)
    beta = perm("(a,f)(b,e)(c,d)", EDGES6)
    for g in [
        generate_group([perm("(A,C)", ABCD), perm("(B,D)", ABCD)]),
        generate_group([alpha, beta]),
    ]:
        members = set(g.elements)
        assert g.identity in members
        assert all(inverse(e) in members for e in members)
        assert all(compose(a, b) in members for a in members for b in members)
        assert math.factorial(g.degree) % g.order == 0


def test_canonical_element_order():
    g = generate_group([perm("(A,C)", ABCD), perm("(B,D)", ABCD)])
    assert list(g.elements) == sorted(g.elements, key=lambda p: p.images)


def test_a_group_holds_the_image_tuples_of_its_elements_and_generators():
    g = generate_group([perm("(A,C)", ABCD), perm("(B,D)", ABCD)])
    assert [f.name for f in fields(FiniteGroup)] == ["labels", "images", "generator_images"]
    # the identity is built without listing the elements
    assert g.identity.images == (0, 1, 2, 3) and "elements" not in g.__dict__
    assert g.images == tuple(p.images for p in g.elements)
    assert g.generator_images == tuple(s.images for s in g.generators)
    assert g.identity == g.elements[0]
    assert g == FiniteGroup(g.labels, g.images, g.generator_images)


ABC = ("a", "b", "c")
S2_ON_BC = ((0, 1, 2), (0, 2, 1))
MALFORMED_GROUPS = {
    # each image a bijection of range(n)
    "entry-out-of-range": (ABC, ((0, 1, 2), (2, 0, -1)), (), "not a bijection of 0..2: (2, 0, -1)"),
    "repeated-entry": (ABC, ((0, 1, 2), (1, 1, 0)), (), "not a bijection of 0..2: (1, 1, 0)"),
    "wrong-length": (ABC, ((0, 1, 2), (1, 0)), (), "not a bijection of 0..2: (1, 0)"),
    "list-image": (ABC, ((0, 1, 2), [0, 2, 1]), (), "not a bijection of 0..2: [0, 2, 1]"),
    "bool-entry": (("a", "b"), ((0, 1), (True, 0)), (), "not a bijection of 0..1: (True, 0)"),
    "generator-not-a-bijection": (ABC, S2_ON_BC, ((0, 0, 1),), "not a bijection of 0..2: (0, 0, 1)"),
    # sorted and distinct, with the identity first
    "no-elements": (ABC, (), (), "the identity must be the first element"),
    "identity-missing": (ABC, ((0, 2, 1), (1, 0, 2)), (), "the identity must be the first element"),
    "unsorted": (ABC, ((0, 1, 2), (1, 0, 2), (0, 2, 1)), (), "the elements must be sorted and distinct"),
    "repeated-element": (ABC, ((0, 1, 2), (0, 2, 1), (0, 2, 1)), (), "the elements must be sorted and distinct"),
    # the generators among the elements
    "generator-outside": (ABC, S2_ON_BC, ((1, 0, 2),), "generator (1, 0, 2) is not an element"),
}


@pytest.mark.parametrize("case", MALFORMED_GROUPS)
def test_group_constructor_rejects_malformed_images(case):
    labels, images, generator_images, message = MALFORMED_GROUPS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FiniteGroup(labels, images, generator_images)


def test_group_constructor_accepts_what_the_builders_build():
    g = FiniteGroup(ABC, S2_ON_BC, ((0, 2, 1),))
    assert [format_cycles(p) for p in g.elements] == ["id", "(b,c)"]
    for built in (
        generate_group([perm("(A,C)", ABCD), perm("(B,D)", ABCD)]),
        trivial_group(ABCD),
        trivial_group(()),
        edge_automorphism_group(complete_graph(4)),
    ):
        assert FiniteGroup(built.labels, built.images, built.generator_images) == built


def test_group_builders_skip_the_constructor_check(monkeypatch):
    def refuse(self):
        raise AssertionError("a builder ran the constructor check")

    monkeypatch.setattr(FiniteGroup, "__post_init__", refuse)
    generate_group([perm("(A,C)", ABCD), perm("(B,D)", ABCD)])
    trivial_group(ABCD)
    group_from_elements([identity(4, ABCD), perm("(A,C)", ABCD)])
    edge_automorphism_group(complete_graph(5))
    vertex_automorphism_group(complete_graph(5))
    edge_automorphism_group(graph("AB", []))  # the edgeless case


def test_membership_needs_the_group_labels():
    # a permutation with a member's images but other labels acts on another set
    g = generate_group([perm("(A,C)", ABCD), perm("(B,D)", ABCD)])
    swap = perm("(A,C)", ABCD)
    assert swap in g and identity(4, ABCD) in g
    assert Permutation(swap.images, ("W", "X", "Y", "Z")) not in g
    assert identity(4, EDGES6[:4]) not in g
    assert perm("(A,B)", ABCD) not in g
    # anything other than a permutation is not a member either
    assert swap.images not in g and "(A,C)" not in g


def test_group_from_elements_rejects_non_groups():
    with pytest.raises(ValueError):
        group_from_elements([perm("(A,B)", ABCD)])  # no identity
    with pytest.raises(ValueError):
        group_from_elements([identity(4, ABCD), perm("(A,B,C)", ABCD)])  # not closed


def test_group_from_elements_rejects_mixed_domains():
    with pytest.raises(DomainMismatchError, match="label sets differ"):
        group_from_elements([identity(4, ABCD), identity(4, EDGES6[:4])])
    with pytest.raises(DomainMismatchError, match="label sets differ"):
        group_from_elements([identity(4, ABCD), identity(3, ABCD[:3])])


def test_group_from_elements_names_a_greedy_generator():
    # (A,B) is the first greedy generator; (A,B) o (B,C) = (A,C,B) is missing
    elems = [identity(4, ABCD), perm("(A,B)", ABCD), perm("(B,C)", ABCD)]
    with pytest.raises(ValueError, match=r"^element set not closed under composition at \(A,B\), \(B,C\)$"):
        group_from_elements(elems)


def test_group_from_elements_finds_generators():
    full = generate_group([perm("(A,B)", ABCD), perm("(A,B,C,D)", ABCD)])
    rebuilt = group_from_elements(full.elements)
    assert rebuilt.elements == full.elements
    assert generate_group(rebuilt.generators).order == 24


@st.composite
def small_groups(draw):
    """generate_group of 1-3 permutations on at most 8 points.  Each permutes
    some of the blocks of one partition of the points into at most three runs,
    so the group may be intransitive and its stabilizer levels trivial in the
    middle, and all are relabelled by one permutation, which moves the
    trivial levels about."""
    n = draw(st.integers(1, 8))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    relabel = draw(st.permutations(range(n)))
    labels = tuple("abcdefgh"[:n])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        images = list(range(n))
        for block in blocks:
            if draw(st.booleans()):
                images[block.start : block.stop] = draw(st.permutations(block))
        moved = [0] * n
        for i, image in enumerate(images):
            moved[relabel[i]] = relabel[image]
        gens.append(Permutation(tuple(moved), labels))
    return generate_group(gens)


@settings(max_examples=200, deadline=None)
@given(small_groups())
def test_group_generators_read_off_the_sorted_group_are_the_greedy_generators(group):
    greedy = []
    assert _greedy_generators(group.images, greedy) == set(group.images)
    assert _group_generators(group.images) == greedy


@pytest.mark.parametrize(
    "gens",
    [
        # (e,f) fixes a..d, so the levels of c and d are trivial between those of b and e
        ["(a,b)", "(e,f)"],
        # two orbits, {a, c, e} and {b, d, f}, and trivial levels after a and b
        ["(a,c,e)", "(b,d,f)"],
        ["(a,b,c,d,e,f)"],
        ["(b,c)", "(d,e,f)", "(a,g)"],
    ],
)
def test_group_generators_on_intransitive_groups_with_trivial_middle_levels(gens):
    labels = tuple("abcdefg")
    group = generate_group([parse_cycles(text, labels) for text in gens])
    greedy = []
    _greedy_generators(group.images, greedy)
    assert _group_generators(group.images) == greedy


def test_coordinate_orbits():
    labels = ("p", "q", "r", "s", "t", "u")
    g = generate_group([perm("(r,s)(q,t)", labels)])
    assert g.coordinate_orbits() == [[0], [1, 4], [2, 3], [5]]


# homomorphisms


def d6_to_d3():
    alpha = perm("(a,b,c,d,e,f)", EDGES6)
    beta = perm("(a,f)(b,e)(c,d)", EDGES6)
    ghi = ("g", "h", "i")
    gamma = perm("(g,h,i)", ghi)
    delta = perm("(g,i)", ghi)
    g6 = generate_group([alpha, beta])
    g3 = generate_group([gamma, delta])
    t = Homomorphism.from_generator_images(g6, g3, [(alpha, gamma), (beta, delta)])
    return g6, g3, t, alpha, beta, gamma, delta


def test_homomorphism_from_generators():
    g6, g3, t, alpha, beta, gamma, delta = d6_to_d3()
    assert t(alpha) == gamma and t(beta) == delta
    assert t(g6.identity) == g3.identity
    assert len(t.images) == 12
    assert t.images == tuple(t(g).images for g in g6)
    # a permutation outside the source group has no image, nor has a member's images under other labels
    for outside in (perm("(a,b)", EDGES6), Permutation(alpha.images, tuple("uvwxyz"))):
        with pytest.raises(KeyError):
            t(outside)


def test_homomorphism_multiplicative_exhaustive():
    g6, _, t, *_ = d6_to_d3()
    for a in g6:
        for b in g6:
            assert t(compose(a, b)) == compose(t(a), t(b))


def test_homomorphism_rejects_bad_table():
    g = generate_group([perm("(A,B)", ABCD)])
    swap = perm("(A,B)", ABCD)
    # swapping the two images breaks multiplicativity
    with pytest.raises(ValueError):
        homomorphism_from_table(g, g, {g.identity: swap, swap: g.identity})


def exhaustive_rejection(source, table):
    """The G x G multiplicativity scan in element order: None, or the rejection text."""
    for a in source:
        for b in source:
            if table[compose(a, b)] != compose(table[a], table[b]):
                return f"not multiplicative at ({format_cycles(a)}, {format_cycles(b)})"
    return None


def generator_witness(source, table):
    """The G x generators scan, elements in element order and then generators
    in generator order: the first pair (a, s) that breaks multiplicativity."""
    for a in source:
        for s in source.generators:
            if table[compose(a, s)] != compose(table[a], table[s]):
                return a, s
    return None


def sign_table(source, c2):
    swap = c2.generators[0]
    return {g: swap if sum(len(c) - 1 for c in cycles(g)) % 2 else c2.identity for g in source}


def conjugation_table(source, c):
    return {g: compose(compose(c, g), c.inverse()) for g in source}


ABCDE = ("A", "B", "C", "D", "E")


def hom_check_cases(name):
    """(source, target, homomorphism tables) for D5 and for S4 (order 24)."""
    c2 = generate_group([perm("(x,y)", ("x", "y"))])
    if name == "D5":
        rotation = perm("(A,B,C,D,E)", ABCDE)
        d5 = generate_group([rotation, perm("(B,E)(C,D)", ABCDE)])
        rotations = set(generate_group([rotation]))
        swap = c2.generators[0]
        to_c2 = {g: c2.identity if g in rotations else swap for g in d5}
        return [
            (d5, d5, [conjugation_table(d5, d5.identity), conjugation_table(d5, rotation)]),
            (d5, c2, [to_c2]),
        ]
    s4 = generate_group([perm("(A,B,C,D)", ABCD), perm("(A,B)", ABCD)])
    assert s4.order == 24
    return [
        (s4, s4, [conjugation_table(s4, s4.identity), conjugation_table(s4, perm("(A,B,C)", ABCD))]),
        (s4, c2, [sign_table(s4, c2)]),
    ]


@pytest.mark.parametrize("name", ["D5", "S4"])
def test_homomorphism_check_matches_exhaustive_scan(name):
    # seeded random tables and homomorphisms with one entry changed: the
    # generator-level check must give the verdict of the full scan, and name
    # the first element and generator that break multiplicativity
    rng = random.Random(name)
    rejections = set()
    for source, target, homs in hom_check_cases(name):
        others = [g for g in source if g != source.identity]
        tables = list(homs)
        for _ in range(20):
            table = {g: rng.choice(target.elements) for g in others}
            table[source.identity] = target.identity
            tables.append(table)
        for hom in homs:
            for _ in range(20):
                table = dict(hom)
                a = rng.choice(others)
                table[a] = rng.choice([k for k in target if k != table[a]])
                tables.append(table)
        for table in tables:
            if exhaustive_rejection(source, table) is None:
                hom = homomorphism_from_table(source, target, table)
                assert {g: hom(g) for g in source} == table
            else:
                with pytest.raises(ValueError) as exc:
                    homomorphism_from_table(source, target, table)
                a, s = generator_witness(source, table)
                assert s in source.generators
                assert table[compose(a, s)] != compose(table[a], table[s])
                assert str(exc.value) == f"not multiplicative at ({format_cycles(a)}, {format_cycles(s)})"
                rejections.add(str(exc.value))
        for hom in homs:
            assert exhaustive_rejection(source, hom) is None
    assert len(rejections) > 5


def test_homomorphism_check_on_trivial_group():
    trivial = trivial_group(ABCD)
    assert trivial.generators == ()
    c2 = generate_group([perm("(x,y)", ("x", "y"))])
    assert Homomorphism(trivial, c2, (c2.identity.images,)).images == ((0, 1),)
    assert Homomorphism.identity_on(trivial).is_identity()


@pytest.mark.parametrize("bad", [(0, 1), (0, 1, 2, 3), (1, 1, 0), (0, 1, 3), (2, 0, -1)])
def test_homomorphism_names_a_malformed_image_as_given(bad):
    # an image of the wrong length, or with a repeated or out-of-range entry,
    # is named as the tuple given, never read as cycles of the target's labels
    c3 = generate_group([perm("(a,b,c)", ("a", "b", "c"))])
    for position in range(3):
        images = list(c3.images)
        images[position] = bad
        with pytest.raises(ValueError) as exc:
            Homomorphism(c3, c3, images)
        assert str(exc.value) == f"image {bad} is not a bijection of 0..2"
    with pytest.raises(ValueError) as exc:
        Homomorphism(c3, c3, c3.images[:2])
    assert str(exc.value) == "homomorphism needs 3 images, one per source element, got 2"


def test_valid_homomorphism_table_does_no_pairwise_work(monkeypatch):
    import geneograph.perm as perm_module

    s4 = generate_group([perm("(A,B,C,D)", ABCD), perm("(A,B)", ABCD)])
    table = conjugation_table(s4, perm("(A,B,C)", ABCD))
    swap = perm("(A,B)", ABCD)
    images = tuple(table[g].images for g in s4)
    broken = tuple(table[g].images if g != swap else s4.images[0] for g in s4)
    calls, built = [], []
    real_compose, post_init = perm_module.compose, Permutation.__post_init__
    monkeypatch.setattr(perm_module, "compose", lambda p, q: calls.append(1) or real_compose(p, q))
    monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(p.images) or post_init(p))
    Homomorphism(s4, s4, images)
    assert calls == [] and built == []
    with pytest.raises(ValueError, match="not multiplicative"):
        Homomorphism(s4, s4, broken)
    assert calls == [] and built == []
    # the counter does see permutations
    assert Homomorphism(s4, s4, images)(swap) == table[swap] and len(built) == 1


@pytest.mark.parametrize("graph", [cycle_graph(6), complete_graph(4), complete_graph(7)], ids=["C6", "K4", "K7"])
def test_identity_on_equals_the_checked_identity_table(graph):
    group = edge_automorphism_group(graph)
    assert Homomorphism.identity_on(group) == Homomorphism(group, group, tuple(x.images for x in group.elements))


def test_homomorphism_identity_and_composition():
    g6, g3, t, alpha, *_ = d6_to_d3()
    ident = Homomorphism.identity_on(g6)
    assert ident.is_identity()
    chained = ident.then(t)
    assert chained.images == t.images and chained == t


def test_inconsistent_generator_images_rejected():
    g = generate_group([perm("(A,B)", ABCD)])
    k = generate_group([perm("(g,h,i)", ("g", "h", "i"))])
    # (A,B) has order 2 but a 3-cycle does not: no homomorphism sends one to the other
    with pytest.raises(ValueError):
        Homomorphism.from_generator_images(g, k, [(perm("(A,B)", ABCD), perm("(g,h,i)", ("g", "h", "i")))])


def test_a_homomorphism_cannot_change_once_built():
    g6, g3, t, alpha, *_ = d6_to_d3()
    for hom in (t, Homomorphism.identity_on(g6)):
        with pytest.raises(FrozenInstanceError):
            hom.images = ()
        with pytest.raises(TypeError):
            hom.images[1] = hom.images[0]
    table = [list(v) for v in t.images]
    built = Homomorphism(g6, g3, table)
    table[1][:] = g3.images[0]
    assert built.images == t.images and built(alpha) == t(alpha)
