import json
import random
import re
from fractions import Fraction

import pytest

from geneograph import io as docs
from geneograph.experiments import c6_c3_context, transposition_permutant
from geneograph.geneo import decompose_to_measure, diagonal_scaling, from_permutant
from geneograph.perception import (
    PerceptionPair,
    constrained_space,
    explicit_space,
    full_space,
    measurement,
)
from geneograph.graph import complete_graph, edge_automorphism_group, induced_edge_permutation, vertex_automorphism_group
from geneograph.perm import (
    CapExceededError,
    Homomorphism,
    Permutation,
    _cycle_texts,
    format_cycles,
    generate_group,
    parse_cycles,
    trivial_group,
)
from geneograph.permutant import ActionContext, PermutantMeasure, endo_context, orbit, uniform_measure
from conftest import census_graph
from helpers import cycles, group_from_json, homomorphism_from_table, permutant_to_json


def through_json(payload):
    return json.loads(json.dumps(payload))


def plain_cycle_text(p: Permutation) -> str:
    """Cycle notation spelled out from the cycles of p, one string at a time."""
    return "".join("(" + ",".join(p.labels[i] for i in cycle) + ")" for cycle in cycles(p)) or "id"


def test_one_cycle_formatter_matches_a_plain_reference():
    rng = random.Random(17)
    for n in (0, 1, 2, 5, 21):
        for labels in (tuple(chr(ord("a") + i) for i in range(n)), tuple(f"e{i + 1}" for i in range(n))):
            perms = [tuple(range(n))]  # the identity
            for _ in range(12):
                images = list(range(n))
                if rng.random() < 0.5:
                    rng.shuffle(images)
                else:  # a few points moved, the rest fixed
                    moved = rng.sample(range(n), min(n, 3))
                    for a, b in zip(moved, moved[1:] + moved[:1]):
                        images[a] = b
                perms.append(tuple(images))
            expected = [plain_cycle_text(Permutation(images, labels)) for images in perms]
            assert [format_cycles(Permutation(images, labels)) for images in perms] == expected
            assert _cycle_texts(perms, labels) == expected
            assert expected[0] == "id"
    cube = census_graph("cube")
    vertex_group, edge_group = vertex_automorphism_group(cube), edge_automorphism_group(cube)
    incidence = homomorphism_from_table(vertex_group, edge_group, {g: induced_edge_permutation(cube, g) for g in vertex_group})
    for t in (incidence, Homomorphism.identity_on(trivial_group(())), Homomorphism.identity_on(trivial_group(("v10",)))):
        expected = [[plain_cycle_text(g), plain_cycle_text(t(g))] for g in t.source.elements]
        assert docs.context_to_json(ActionContext(t.source, t.target, t))["T"] == expected


def test_fraction_forms():
    assert docs.fraction_to_json(Fraction(2)) == 2
    assert docs.fraction_to_json(Fraction(2, 3)) == "2/3"


def test_measurement_roundtrip():
    m = measurement([1, "2/3", -4], ("a", "b", "c"))
    doc = through_json(docs.measurement_to_json(m))
    assert docs.measurement_from_json(doc, m.domain) == m
    with pytest.raises(ValueError):
        docs.measurement_from_json({"values": [1]})


def test_group_roundtrip():
    g = generate_group(
        [parse_cycles("(A,C)", "ABCD"), parse_cycles("(B,D)", "ABCD")]
    )
    doc = through_json(docs.group_to_json(g))
    assert group_from_json(doc) == g


def test_group_json_checks_stated_elements():
    g = generate_group([parse_cycles("(A,B)", "AB")])
    doc = docs.group_to_json(g)
    doc["elements"] = ["id"]
    with pytest.raises(ValueError, match="stated elements"):
        group_from_json(through_json(doc))


@pytest.mark.parametrize("generators", [[], ["(a,b)"]], ids=["elements-only", "with-generators"])
@pytest.mark.parametrize(
    "elements, named",
    [
        (["id", "(a,b)", "(b,a)"], "(a,b)"),
        (["id", "(a,b)", "(a,b)"], "(a,b)"),
        # not closed either: the repeat is named first
        (["id", "(b,c,a)", "(a,b,c)"], "(a,b,c)"),
    ],
    ids=["two-texts", "one-text-twice", "not-closed"],
)
def test_group_json_rejects_an_element_named_twice(generators, elements, named):
    doc = {"labels": ["a", "b", "c"], "generators": generators, "elements": elements}
    with pytest.raises(ValueError) as exc:
        group_from_json(doc)
    assert str(exc.value) == f"group field 'elements' names the permutation {named!r} twice"


def test_context_roundtrip():
    ctx = c6_c3_context()
    rebuilt = docs.context_from_json(through_json(docs.context_to_json(ctx)))
    assert rebuilt.G == ctx.G and rebuilt.K == ctx.K
    assert rebuilt.T.images == ctx.T.images and rebuilt.T == ctx.T


def test_permutant_and_measure_roundtrip():
    ctx = c6_c3_context()
    h = orbit("bfd", ctx)
    doc = through_json(permutant_to_json(h))
    rebuilt_ctx = docs.context_from_json(doc["context"])
    members = docs.permutant_members_from_json(doc, rebuilt_ctx)
    assert set(members) == {m.images for m in h.members}

    mu = uniform_measure(h)
    mdoc = through_json(docs.measure_to_json(mu))
    rebuilt = docs.measure_from_json(mdoc, rebuilt_ctx)
    assert rebuilt.total_variation() == 1
    assert rebuilt.weights == mu.weights
    assert {f.images for f in rebuilt.support} == {f.images for f in mu.support}


def test_measure_document_lists_only_its_support():
    # the K6 edge context has 15 labels on 15 points, so its maps number 15**15;
    # printing a 15-map measure there formats those 15 maps and no others
    h = transposition_permutant(6, model="edge")
    mu = uniform_measure(h)
    doc = through_json(docs.measure_to_json(mu))
    assert [e["mapping"] for e in doc["weights"]] == [f.compact() for f in mu.support]
    assert {e["weight"] for e in doc["weights"]} == {"1/15"}
    assert docs.measure_from_json(doc, docs.context_from_json(doc["context"])).weights == mu.weights


def test_measure_readers_with_valid_input_skip_the_constructors_checks(monkeypatch):
    # a measure document's maps come from read_map and its weights from the
    # rational reader, and a decomposition's from the group's bijections and
    # the LP: neither runs the public constructor's checks, and a zero weight
    # is still dropped; the public constructor keeps its checks
    ctx = c6_c3_context()
    mu = uniform_measure(orbit("bfd", ctx))
    doc = through_json(docs.measure_to_json(mu))
    doc["weights"].append({"mapping": "aaa", "weight": "0"})
    checked = []
    check = ActionContext._check_images
    monkeypatch.setattr(ActionContext, "_check_images", lambda self, h: checked.append(h) or check(self, h))
    rebuilt = docs.measure_from_json(doc, docs.context_from_json(doc["context"]))
    assert rebuilt.weights == mu.weights and ctx.read_map("aaa") not in rebuilt.weights
    c5 = endo_context(generate_group([parse_cycles("(a,b,c,d,e)", tuple("abcde"))]))
    assert decompose_to_measure(from_permutant(orbit("bcdea", c5))).total_variation() == 1
    assert checked == []
    assert PermutantMeasure(ctx, {ctx.read_map("aaa"): "0", **mu.weights}).weights == mu.weights
    assert len(checked) == len(mu.weights) + 1
    with pytest.raises(ValueError, match=r"^\(0, 9, 2\) is not the image tuple of a map from 3 points to 6 points$"):
        PermutantMeasure(ctx, {(0, 9, 2): 1})


def test_space_roundtrips():
    for space in (
        full_space(("a", "b")),
        constrained_space(("a", "b", "c"), [((1, 0, 1), "1/2")], ball=("l2", 2)),
        explicit_space(("a", "b"), [[0, 1], [1, 0]]),
    ):
        doc = through_json(docs.space_to_json(space))
        assert docs.space_from_json(doc) == space


def test_operator_roundtrip_preserves_everything():
    op = from_permutant(transposition_permutant(4, model="edge"))
    doc = through_json(docs.operator_to_json(op))
    rebuilt = docs.operator_from_json(doc)
    assert rebuilt.coeffs == op.coeffs
    assert rebuilt.source == op.source and rebuilt.target == op.target
    assert rebuilt.hom.images == op.hom.images and rebuilt.hom == op.hom
    assert rebuilt.is_geo is True and rebuilt.is_geneo is True


def test_loaded_operator_ignores_claimed_flags():
    doc = through_json(docs.operator_to_json(from_permutant(transposition_permutant(4, model="edge"))))
    doc["coeffs"][0][0] = "1/2"
    assert doc["flags"] == {"is_geo": True, "is_geneo": True}
    loaded = docs.operator_from_json(doc)
    assert loaded.is_geo is False and loaded.is_geneo is False
    assert docs.operator_to_json(loaded)["flags"] == {"is_geo": False, "is_geneo": False}


def test_operator_roundtrip_with_constrained_pair():
    labels = ("p", "q", "r", "s", "t", "u")
    pair = PerceptionPair(
        constrained_space(labels, [((1, 0, 0, 0, 0, 1), 0)]),
        generate_group([parse_cycles("(r,s)(q,t)", labels)]),
    )
    op = diagonal_scaling((2, 3, 5, 5, 3, 2), pair).operator
    rebuilt = docs.operator_from_json(through_json(docs.operator_to_json(op)))
    assert rebuilt.coeffs == op.coeffs
    assert rebuilt.source.space.equations == pair.space.equations


# -- the memo of context and operator documents -------------------------------

ABC = ("a", "b", "c")


def rotation_context_doc(table_of_rotation) -> dict:
    """An endo-context of the rotations of (a, b, c) whose T sends each
    rotation r to table_of_rotation(r)."""
    rot = generate_group([parse_cycles("(a,b,c)", ABC)])
    doc = docs.context_to_json(endo_context(rot))
    doc["T"] = [[g, table_of_rotation(g)] for g, _ in doc["T"]]
    return doc


def test_a_cold_context_read_is_one_miss_and_a_repeat_one_hit(fresh_memos):
    doc = through_json(docs.context_to_json(c6_c3_context()))
    first = docs.context_from_json(doc)
    info = docs._read_text.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    assert docs.context_from_json(doc) is first
    info = docs._read_text.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_a_cold_endo_context_read_closes_its_group_once(fresh_memos, monkeypatch):
    # K's document equals G's, so the read builds the group once and uses it twice
    closed = []
    monkeypatch.setattr(docs, "generate_group", lambda gens: closed.append(gens) or generate_group(gens))
    s3 = generate_group([parse_cycles("(a,b,c)", ABC), parse_cycles("(a,b)", ABC)])
    ctx = docs.context_from_json(through_json(docs.context_to_json(endo_context(s3))))
    assert len(closed) == 1
    assert ctx.K is ctx.G == s3


def test_the_group_cap_is_part_of_the_key(fresh_memos, monkeypatch):
    s3 = generate_group([parse_cycles("(a,b,c)", ABC), parse_cycles("(a,b)", ABC)])
    doc = through_json(docs.context_to_json(endo_context(s3)))
    monkeypatch.delenv("GENEO_MAX_GROUP", raising=False)
    first = docs.context_from_json(doc)
    assert first.G == s3
    monkeypatch.setenv("GENEO_MAX_GROUP", str(s3.order - 1))
    with pytest.raises(CapExceededError, match=f"cap {s3.order - 1}"):
        docs.context_from_json(doc)
    monkeypatch.setenv("GENEO_MAX_GROUP", str(s3.order))
    capped = docs.context_from_json(doc)
    assert capped is not first and capped.G == first.G
    monkeypatch.delenv("GENEO_MAX_GROUP")
    assert docs.context_from_json(doc) is first
    info = docs._read_text.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 2)


def test_a_failing_document_is_not_remembered(fresh_memos):
    group_doc = docs.group_to_json(generate_group([parse_cycles("(a,b)", ABC)]))
    group_doc["elements"] = ["id"]
    for _ in range(2):
        with pytest.raises(ValueError, match="stated elements do not match"):
            group_from_json(group_doc)
    assert docs._read_text.cache_info().currsize == 0
    # the rotation by one step cannot go to the rotation by two steps and back
    doc = rotation_context_doc(lambda g: "(a,c,b)" if g == "(a,b,c)" else g)
    for _ in range(2):
        with pytest.raises(ValueError, match="not multiplicative"):
            docs.context_from_json(doc)
    info = docs._read_text.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4, 0)


def test_an_operator_document_parses_each_cycle_text_once_per_read(fresh_memos, monkeypatch):
    # the document states its group twice, as source and target, and its
    # homomorphism names only that group's texts: a cold read parses each
    # generator text once and reads the closure's canonical texts, the
    # elements and T's, by lookup; a warm read parses none
    doc = through_json(docs.operator_to_json(from_permutant(transposition_permutant(4, model="edge"))))
    group_doc = doc["source"]["group"]
    assert doc["target"]["group"] == group_doc and len(group_doc["elements"]) == 24
    parsed = []
    monkeypatch.setattr(docs, "parse_cycles", lambda text, labels: parsed.append(text) or parse_cycles(text, labels))
    docs.operator_from_json(doc)
    assert sorted(parsed) == sorted(set(group_doc["generators"]))
    parsed.clear()
    docs.operator_from_json(doc)
    assert parsed == []


def test_non_canonical_texts_read_to_the_same_context(fresh_memos):
    # the closure's canonical texts are read by lookup and any other text is
    # parsed, so a rotated cycle or extra spaces give the same group and T
    canonical = {"labels": list(ABC), "generators": ["(a,b,c)"], "elements": ["id", "(a,b,c)", "(a,c,b)"]}
    loose = {"labels": list(ABC), "generators": [" (b, c, a)"], "elements": [" id ", "(b,c,a)", "( c b a )"]}
    identity = [["id", "id"], ["(a,b,c)", "(a,b,c)"], ["(a,c,b)", "(a,c,b)"]]
    loose_identity = [[" id", "id "], ["(b,c,a)", "(c a b)"], ["(a, c, b)", "(c,b,a)"]]
    expected = docs.context_from_json({"G": canonical, "K": canonical, "T": identity})
    for g_doc, k_doc, t_doc in [(loose, loose, loose_identity), (loose, canonical, identity), (canonical, loose, loose_identity)]:
        got = docs.context_from_json({"G": g_doc, "K": k_doc, "T": t_doc})
        assert (got.G, got.K, got.T.images) == (expected.G, expected.K, expected.T.images)
        assert got.T.is_identity()
    # a T of one group onto itself that is not the identity is still checked
    not_multiplicative = [["id", "id"], ["(b,c,a)", "(a,b,c)"], ["(a,c,b)", "(a,b,c)"]]
    with pytest.raises(ValueError, match=re.escape("not multiplicative at ((a,b,c), (a,b,c))")):
        docs.context_from_json({"G": loose, "K": loose, "T": not_multiplicative})
    # a one-element group's "id" is parsed, which rejects labels that no generator text checked
    for doc in ({"labels": ["a", "a"]}, {"labels": ["a", "a"], "elements": ["id"]}):
        with pytest.raises(ValueError, match=re.escape("duplicate labels in domain: ('a', 'a')")):
            docs.context_from_json({"G": doc, "K": doc, "T": [["id", "id"]]})


def test_a_generator_only_context_formats_no_closure(fresh_memos, monkeypatch):
    # the symmetric group on 7 points from two generators, with T given on them
    labels = list("abcdefg")
    group_doc = {"labels": labels, "generators": ["(a,b)", "(a,b,c,d,e,f,g)"]}
    formatted = []
    monkeypatch.setattr(docs, "_cycle_texts", lambda perms, labels: formatted.append(perms) or _cycle_texts(perms, labels))
    ctx = docs.context_from_json({"G": group_doc, "K": group_doc, "T": [["(a,b)", "(a,b)"], ["(a,b,c,d,e,f,g)", "(a,b,c,d,e,f,g)"]]})
    assert ctx.G.order == 5040 and ctx.T.is_identity()
    assert formatted == []


def test_each_emitted_document_formats_each_groups_elements_once(monkeypatch):
    formatted = []

    def counted(perms, labels):
        perms = list(perms)
        formatted.append((perms, tuple(labels)))
        return _cycle_texts(perms, labels)

    monkeypatch.setattr(docs, "_cycle_texts", counted)
    k4 = endo_context(edge_automorphism_group(complete_graph(4)))
    c6c3 = c6_c3_context()
    op = from_permutant(transposition_permutant(4, model="edge"))
    for emit, value, groups in [
        (docs.context_to_json, k4, [k4.G]),
        (docs.context_to_json, c6c3, [c6c3.G, c6c3.K]),
        (docs.operator_to_json, op, [op.source.group]),
    ]:
        formatted.clear()
        emit(value)
        for g in groups:
            assert sum(perms == list(g.images) and labels == g.labels for perms, labels in formatted) == 1
        # the rest of the calls format the generators, once per group document
        assert len(formatted) == len(groups) + 2


def test_an_operator_is_remembered_without_its_coefficients_and_flags(fresh_memos):
    doc = through_json(docs.operator_to_json(from_permutant(transposition_permutant(4, model="edge"))))
    first = docs.operator_from_json(doc)
    doc["coeffs"][0][0] = "1/2"
    doc["flags"] = {"is_geo": False}
    second = docs.operator_from_json(doc)
    assert (second.source, second.target, second.hom) == (first.source, first.target, first.hom)
    assert second.source is first.source and second.coeffs != first.coeffs
    info = docs._read_text.cache_info()
    assert (info.hits, info.misses) == (1, 1)


@pytest.mark.parametrize("generators", [["(a,b)"], ["(a,z)"]])
@pytest.mark.parametrize("fault", ["elements", "cap"])
def test_a_generator_text_error_comes_before_the_elements_and_cap_errors(fresh_memos, monkeypatch, generators, fault):
    # the fields are read in order, so an unparseable generator is the error reported
    doc = {"labels": list(ABC), "generators": generators, "elements": ["id", "(a,b)"]}
    if fault == "elements":
        doc["elements"] = 7
    else:
        monkeypatch.setenv("GENEO_MAX_GROUP", "0")
    expected = {
        "elements": "group field 'elements' must be an array of strings",
        "cap": "GENEO_MAX_GROUP must be a positive integer, got '0'",
    }[fault]
    with pytest.raises(ValueError) as raised:
        group_from_json(doc)
    assert str(raised.value) == (expected if generators == ["(a,b)"] else "unknown label 'z' (domain ('a', 'b', 'c'))")
    assert docs._read_text.cache_info().currsize == 0


def test_the_memo_keeps_at_most_its_size_and_drops_the_least_recently_used(fresh_memos):
    def read(i):
        swap = f"(p{i},q{i})"
        g_doc = {"labels": [f"p{i}", f"q{i}"], "generators": [swap]}
        return docs.context_from_json({"G": g_doc, "K": {"labels": ["y"]}, "T": [[swap, "id"]]})

    size = docs._REMEMBERED_DOCUMENTS
    first = [read(i) for i in range(size)]
    assert docs._read_text.cache_info().currsize == size
    # reading the oldest entry again makes it the most recently used, so the
    # next new document drops the second oldest instead
    assert read(0) is first[0]
    read(size)
    info = docs._read_text.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, size + 1, size)
    assert read(0) is first[0]
    assert read(1) is not first[1]
    assert docs._read_text.cache_info().misses == size + 2


def test_different_tables_on_the_same_groups_are_distinct_entries(fresh_memos):
    inverse = {"id": "id", "(a,b,c)": "(a,c,b)", "(a,c,b)": "(a,b,c)"}
    identity_ctx = docs.context_from_json(rotation_context_doc(lambda g: g))
    inverse_ctx = docs.context_from_json(rotation_context_doc(inverse.__getitem__))
    assert identity_ctx.G == inverse_ctx.G
    assert identity_ctx.T.is_identity() and not inverse_ctx.T.is_identity()
    assert {str(g): str(inverse_ctx.T(g)) for g in inverse_ctx.G} == inverse
    assert docs._read_text.cache_info().currsize == 2


@pytest.mark.parametrize("field", ["generators", "elements"])
def test_relabelings_with_the_same_texts_are_distinct_entries(fresh_memos, field):
    texts = {"generators": ["(a,b,c)"], "elements": ["id", "(a,b,c)", "(a,c,b)"]}[field]
    groups = [group_from_json({"labels": list(labels), field: texts}) for labels in (ABC, ("b", "a", "c"))]
    assert [g.labels for g in groups] == [ABC, ("b", "a", "c")]
    assert groups[1].elements == generate_group([parse_cycles("(a,b,c)", ("b", "a", "c"))]).elements
    assert docs._read_text.cache_info().currsize == 2
