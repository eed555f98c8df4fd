import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from geneograph.perm import (
    CapExceededError,
    CycleParseError,
    DomainMismatchError,
    FiniteGroup,
    Homomorphism,
    Permutation,
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
from geneograph.graph import complete_graph, cycle_graph, edge_automorphism_group

from helpers import cycles

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
    assert len(t.table) == 12


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
        Homomorphism(g, g, {g.identity: swap, swap: g.identity})


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
                assert Homomorphism(source, target, table).table == table
            else:
                with pytest.raises(ValueError) as exc:
                    Homomorphism(source, target, table)
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
    assert Homomorphism(trivial, c2, {trivial.identity: c2.identity}).table
    assert Homomorphism.identity_on(trivial).is_identity()


def test_valid_homomorphism_table_does_no_pairwise_work(monkeypatch):
    import geneograph.perm as perm_module

    s4 = generate_group([perm("(A,B,C,D)", ABCD), perm("(A,B)", ABCD)])
    table = conjugation_table(s4, perm("(A,B,C)", ABCD))
    calls = []
    real_compose = perm_module.compose
    monkeypatch.setattr(perm_module, "compose", lambda p, q: calls.append(1) or real_compose(p, q))
    Homomorphism(s4, s4, table)
    assert calls == []
    table[perm("(A,B)", ABCD)] = s4.identity
    with pytest.raises(ValueError, match="not multiplicative"):
        Homomorphism(s4, s4, table)
    assert calls == []


@pytest.mark.parametrize("graph", [cycle_graph(6), complete_graph(4), complete_graph(7)], ids=["C6", "K4", "K7"])
def test_identity_on_equals_the_checked_identity_table(graph):
    group = edge_automorphism_group(graph)
    assert Homomorphism.identity_on(group) == Homomorphism(group, group, {x: x for x in group.elements})


def test_homomorphism_identity_and_composition():
    g6, g3, t, alpha, *_ = d6_to_d3()
    ident = Homomorphism.identity_on(g6)
    assert ident.is_identity()
    chained = ident.then(t)
    assert chained.table == t.table


def test_inconsistent_generator_images_rejected():
    g = generate_group([perm("(A,B)", ABCD)])
    k = generate_group([perm("(g,h,i)", ("g", "h", "i"))])
    # (A,B) has order 2 but a 3-cycle does not: no homomorphism sends one to the other
    with pytest.raises(ValueError):
        Homomorphism.from_generator_images(g, k, [(perm("(A,B)", ABCD), perm("(g,h,i)", ("g", "h", "i")))])
