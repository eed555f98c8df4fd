from fractions import Fraction
from itertools import product

import pytest

from geneograph.experiments import (
    C3_EDGES,
    C6_EDGES,
    analyze_code_table,
    build_code_table,
    c6_c3_context,
    orbit_operator_table,
    transposition_permutant,
)
from geneograph.geneo import apply, from_permutant
from geneograph.perception import measurement
from geneograph.permutant import all_orbits, orbit

KNOWN_SIZE_6 = ("aaa", "abc", "ace", "add", "afb")
KNOWN_SIZE_12 = (
    "aab", "aac", "aad", "aae", "aaf", "abd", "acb", "acd",
    "adb", "adc", "baa", "bad", "bca", "bce", "bdb",
)


# code tables


def test_k4_table_shape_and_known_rows():
    table = build_code_table(4)
    assert len(table.rows) == 64
    assert table.class_count == 11
    triangle = table.row_for((1, 1, 1, 0, 0, 0))
    assert table.permutant_size == 6
    assert triangle.scaled_code == (4, 4, 4, 2, 2, 2)
    star = table.row_for((0, 0, 0, 1, 1, 1))
    assert star.scaled_code == (2, 2, 2, 4, 4, 4)


def test_k3_table_shape():
    table = build_code_table(3)
    assert len(table.rows) == 8
    assert table.class_count == 4


def test_k5_table_shape():
    table = build_code_table(5)
    assert len(table.rows) == 1024
    assert table.class_count == 34


def test_scaled_codes_are_integers():
    # each code k/|H| is the transposition operator applied to the row's vector
    for n in (3, 4):
        table = build_code_table(n)
        op = from_permutant(transposition_permutant(n))
        assert table.permutant_size == n * (n - 1) // 2
        for row in table.rows:
            assert all(isinstance(s, int) for s in row.scaled_code)
            image = apply(op, measurement(row.vector, op.source.domain))
            assert tuple(Fraction(s, table.permutant_size) for s in row.scaled_code) == image.values


def test_table_range():
    for n in (2, 6, 6):
        with pytest.raises(ValueError, match=f"got {n}"):
            build_code_table(n)


def test_each_table_is_built_once():
    assert build_code_table(4) is build_code_table(4)
    assert build_code_table(3) is not build_code_table(4)


@pytest.mark.parametrize("vector", [(1,), (0, 0, 0, 0, 0, 0, 1), (), (0, 0, 0, 0, 0, 2), (1, 0, 0, 0, 0, -1)])
def test_row_for_rejects_a_vector_of_the_wrong_shape(vector):
    # a short or long vector used to land silently on another row, and an
    # entry outside 0/1 gave only int()'s own message
    table = build_code_table(4)
    with pytest.raises(ValueError, match=r"a vector of K_4 has 6 entries, each 0 or 1"):
        table.row_for(vector)


def test_row_for_indexes_rows_by_integer_code():
    table = build_code_table(4)
    for i, row in enumerate(table.rows):
        assert table.row_for(row.vector) is row
        assert row.vector == tuple(int(d) for d in format(i, "06b"))


# findings


def test_k4_findings():
    table = build_code_table(4)
    findings = analyze_code_table(table)
    assert findings.class_count == 11
    assert findings.isomorphic_subgraphs_share_codes
    assert findings.complements_map_to_complements
    assert findings.reversals_map_to_reversals
    assert len(findings.equivalent_nonisomorphic_pairs) == 1
    pair = findings.equivalent_nonisomorphic_pairs[0]
    triangle = table.row_for((1, 1, 1, 0, 0, 0)).class_id
    star = table.row_for((0, 0, 0, 1, 1, 1)).class_id
    assert {pair.class_a, pair.class_b} == {triangle, star}
    # the two classes are each other's complements, reversals included
    assert tuple(1 - v for v in pair.representative_a) in {
        r.vector for r in table.rows if r.class_id == pair.class_b
    }


def test_k3_findings():
    findings = analyze_code_table(build_code_table(3))
    assert findings.class_count == 4
    assert findings.isomorphic_subgraphs_share_codes
    assert findings.complements_map_to_complements
    assert findings.equivalent_nonisomorphic_pairs == ()


def test_k5_findings():
    findings = analyze_code_table(build_code_table(5))
    assert findings.class_count == 34
    assert findings.isomorphic_subgraphs_share_codes
    assert findings.complements_map_to_complements
    assert findings.equivalent_nonisomorphic_pairs == ()


# the cycle census


def test_context_matches_presentation_built_groups(c6c3):
    ctx = c6_c3_context()
    assert set(ctx.G.elements) == set(c6c3.G.elements)
    assert set(ctx.K.elements) == set(c6c3.K.elements)
    assert ctx.T.images == c6c3.T.images


def census_representatives(orbits):
    reps = {}
    for o in orbits:
        reps.setdefault(o.size, []).append(o.representative().compact())
    return {size: tuple(sorted(names)) for size, names in reps.items()}


def test_census_counts():
    ctx = c6_c3_context()
    orbits, census = all_orbits(ctx)
    assert ctx.map_space_size() == 216
    assert census == {2: 1, 4: 1, 6: 5, 12: 15}
    assert len(orbits) == 22


def test_census_representatives():
    reps = census_representatives(all_orbits(c6_c3_context())[0])
    assert reps[2] == ("aec",)
    assert reps[4] == ("bfd",)
    assert reps[6] == KNOWN_SIZE_6
    assert reps[12] == KNOWN_SIZE_12


def test_census_orbits_match_known_functions():
    ctx = c6_c3_context()
    orbits, _ = all_orbits(ctx)
    mine6 = {frozenset(o.members) for o in orbits if o.size == 6}
    assert mine6 == {frozenset(orbit(p, ctx).members) for p in KNOWN_SIZE_6}
    mine12 = {frozenset(o.members) for o in orbits if o.size == 12}
    assert mine12 == {frozenset(orbit(p, ctx).members) for p in KNOWN_SIZE_12}


# binary-weight tables for the two named orbits


def direct_average(members, bits):
    # the definition, evaluated without the coefficient matrix
    size = len(members)
    return tuple(
        sum(Fraction(bits[h(y)]) for h in members) / size for y in range(3)
    )


@pytest.mark.parametrize("rep", ["aec", "bfd"])
def test_orbit_tables_match_direct_definition(rep):
    ctx = c6_c3_context()
    op, rows = orbit_operator_table(rep, ctx)
    members = orbit(rep, ctx).members
    for bits, code in rows:
        assert code == direct_average(members, bits)


def test_orbit_table_frozen_rows():
    _, rows = orbit_operator_table("aec")
    table = dict(rows)
    assert table[(1, 0, 0, 0, 0, 0)] == (Fraction(1, 2), 0, 0)
    assert table[(1, 1, 1, 1, 1, 1)] == (1, 1, 1)
    assert table[(1, 0, 0, 1, 0, 0)] == (1, 0, 0)
    _, rows2 = orbit_operator_table("bfd")
    table2 = dict(rows2)
    assert table2[(1, 1, 1, 0, 0, 0)] == (Fraction(1, 2),) * 3
    assert table2[(1, 0, 0, 0, 0, 0)] == (0, Fraction(1, 4), Fraction(1, 4))
