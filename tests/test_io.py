import json
from fractions import Fraction

import pytest

from geneograph import io as docs
from geneograph.experiments import c6_c3_context
from geneograph.geneo import diagonal_scaling, from_permutant
from geneograph.perception import (
    PerceptionPair,
    constrained_space,
    explicit_space,
    full_space,
    measurement,
)
from geneograph.perm import generate_group, parse_cycles
from geneograph.permutant import orbit, transposition_permutant, uniform_measure


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
    assert docs.group_from_json(doc) == g


def test_group_json_checks_stated_elements():
    g = generate_group([parse_cycles("(A,B)", "AB")])
    doc = docs.group_to_json(g)
    doc["elements"] = ["id"]
    with pytest.raises(ValueError, match="stated elements"):
        docs.group_from_json(through_json(doc))


def test_context_roundtrip():
    ctx = c6_c3_context()
    rebuilt = docs.context_from_json(through_json(docs.context_to_json(ctx)))
    assert rebuilt.G == ctx.G and rebuilt.K == ctx.K
    assert rebuilt.T.table == ctx.T.table


def test_permutant_and_measure_roundtrip():
    ctx = c6_c3_context()
    h = orbit("bfd", ctx)
    doc = through_json(docs.permutant_to_json(h))
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
