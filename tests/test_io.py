import json
from fractions import Fraction

import pytest

from geneograph import io as docs
from geneograph.experiments import c6_c3_context, transposition_permutant
from geneograph.geneo import diagonal_scaling, from_permutant
from geneograph.perception import (
    PerceptionPair,
    constrained_space,
    explicit_space,
    full_space,
    measurement,
)
from geneograph.perm import CapExceededError, generate_group, parse_cycles
from geneograph.permutant import endo_context, orbit, uniform_measure
from helpers import group_from_json, permutant_to_json


def through_json(payload):
    return json.loads(json.dumps(payload))


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


def test_context_roundtrip():
    ctx = c6_c3_context()
    rebuilt = docs.context_from_json(through_json(docs.context_to_json(ctx)))
    assert rebuilt.G == ctx.G and rebuilt.K == ctx.K
    assert rebuilt.T.table == ctx.T.table


def test_permutant_and_measure_roundtrip():
    ctx = c6_c3_context()
    h = orbit("bfd", ctx)
    doc = through_json(permutant_to_json(h))
    rebuilt_ctx = docs.context_from_json(doc["context"])
    members = docs.permutant_members_from_json(doc, rebuilt_ctx)
    assert {m.images for m in members} == {m.images for m in h.members}

    mu = uniform_measure(h)
    mdoc = through_json(docs.measure_to_json(mu))
    rebuilt = docs.measure_from_json(mdoc, rebuilt_ctx)
    assert rebuilt.total_variation() == 1
    assert {f.images for f in rebuilt.support} == {f.images for f in mu.support}


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
    assert rebuilt.hom.table == op.hom.table
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


# -- the memo of group and homomorphism documents -------------------------------

ABC = ("a", "b", "c")


@pytest.fixture
def empty_memos(monkeypatch):
    """Fresh memos for one test, so earlier reads in the process do not count."""
    monkeypatch.setattr(docs, "_groups", {})
    monkeypatch.setattr(docs, "_homomorphisms", {})


def rotation_context_doc(table_of_rotation) -> dict:
    """An endo-context of the rotations of (a, b, c) whose T sends each
    rotation r to table_of_rotation(r)."""
    rot = generate_group([parse_cycles("(a,b,c)", ABC)])
    doc = docs.context_to_json(endo_context(rot))
    doc["T"] = [[g, table_of_rotation(g)] for g, _ in doc["T"]]
    return doc


def test_the_group_cap_is_part_of_the_key(empty_memos, monkeypatch):
    s3 = generate_group([parse_cycles("(a,b,c)", ABC), parse_cycles("(a,b)", ABC)])
    doc = through_json(docs.context_to_json(endo_context(s3)))
    monkeypatch.delenv("GENEO_MAX_GROUP", raising=False)
    first = docs.context_from_json(doc)
    assert first.G == s3
    monkeypatch.setenv("GENEO_MAX_GROUP", str(s3.order - 1))
    with pytest.raises(CapExceededError, match=f"cap {s3.order - 1}"):
        docs.context_from_json(doc)
    monkeypatch.delenv("GENEO_MAX_GROUP")
    assert docs.context_from_json(doc).G is first.G


def test_a_failing_document_is_not_remembered(empty_memos):
    group_doc = docs.group_to_json(generate_group([parse_cycles("(a,b)", ABC)]))
    group_doc["elements"] = ["id"]
    for _ in range(2):
        with pytest.raises(ValueError, match="stated elements do not match"):
            group_from_json(group_doc)
    assert docs._groups == {}
    # the rotation by one step cannot go to the rotation by two steps and back
    doc = rotation_context_doc(lambda g: "(a,c,b)" if g == "(a,b,c)" else g)
    for _ in range(2):
        with pytest.raises(ValueError, match="not multiplicative"):
            docs.context_from_json(doc)
    assert docs._homomorphisms == {}


def test_the_memo_keeps_at_most_its_size_and_drops_the_oldest(empty_memos):
    keys = []
    for i in range(docs._REMEMBERED_DOCUMENTS + 3):
        labels = [f"p{i}", f"q{i}"]
        _, key = docs._group_from_json({"labels": labels, "generators": [f"(p{i},q{i})"]}, docs._cycle_reader())
        keys.append(key)
        assert len(docs._groups) == min(i + 1, docs._REMEMBERED_DOCUMENTS)
    assert list(docs._groups) == keys[-docs._REMEMBERED_DOCUMENTS:]


def test_different_tables_on_the_same_groups_are_distinct_entries(empty_memos):
    inverse = {"id": "id", "(a,b,c)": "(a,c,b)", "(a,c,b)": "(a,b,c)"}
    identity_ctx = docs.context_from_json(rotation_context_doc(lambda g: g))
    inverse_ctx = docs.context_from_json(rotation_context_doc(inverse.__getitem__))
    assert identity_ctx.G is inverse_ctx.G
    assert identity_ctx.T.is_identity() and not inverse_ctx.T.is_identity()
    assert {str(g): str(inverse_ctx.T(g)) for g in inverse_ctx.G} == inverse
    assert len(docs._homomorphisms) == 2


@pytest.mark.parametrize("field", ["generators", "elements"])
def test_relabelings_with_the_same_texts_are_distinct_entries(empty_memos, field):
    texts = {"generators": ["(a,b,c)"], "elements": ["id", "(a,b,c)", "(a,c,b)"]}[field]
    groups = [group_from_json({"labels": list(labels), field: texts}) for labels in (ABC, ("b", "a", "c"))]
    assert [g.labels for g in groups] == [ABC, ("b", "a", "c")]
    assert groups[1].elements == generate_group([parse_cycles("(a,b,c)", ("b", "a", "c"))]).elements
    assert len(docs._groups) == 2
