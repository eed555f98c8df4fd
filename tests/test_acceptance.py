"""Acceptance gate: one test per numbered criterion, every comparison exact,
with the stated runtime budgets enforced, and beside them budgets for the
largest automorphism group of the census, for the subgraph isomorphism
classes of K6 and for a decomposition on the 7-cycle's edges, and a relabeled
C6 edge census that must reuse the partition of a cold one (at most a quarter
of its time).  Each test prints one line:

    ACCEPTANCE <n>: PASS - <summary>

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import permutations

import pytest

import test_properties
from helpers import graph_document, orbit_sum_measure
from test_permutant import burnside_orbit_count
from geneograph import cli, io as docs, permutant
from geneograph.cli import main as cli_main
from geneograph.experiments import (
    build_code_table,
    c6_c3_context,
    cube_context,
    cube_face_reflections,
    cube_reflection_measure,
    cube_rotation_group,
    transposition_permutant,
)
from geneograph.geneo import (
    LinearOperator,
    decompose_to_measure,
    from_measure,
    from_permutant,
    identity_operator,
    operator_sup_norm,
    verify_equivariance,
)
from geneograph.graph import (
    complete_graph,
    cycle_graph,
    edge_automorphism_group,
    induced_edge_permutation,
    subgraph_isomorphism_classes,
)
from geneograph.perm import Homomorphism, Permutation, generate_group, parse_cycles
from geneograph.permutant import (
    all_orbits,
    endo_context,
    is_permutant_measure,
    orbit,
)

KNOWN_SIZE_6 = ("aaa", "abc", "ace", "add", "afb")
KNOWN_SIZE_12 = (
    "aab", "aac", "aad", "aae", "aaf", "abd", "acb", "acd",
    "adb", "adc", "baa", "bad", "bca", "bce", "bdb",
)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def report(num: int | str, detail: str):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_criterion_1_census_c6c3():
    start = time.perf_counter()
    code, out = run_cli("census-c6c3")
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 216
    assert payload["census"] == {"2": 1, "4": 1, "6": 5, "12": 15}
    assert "aec" in payload["representatives"]["2"]
    # representatives match the known functions up to orbit equality
    ctx = c6_c3_context()
    orbits, _ = all_orbits(ctx)
    mine6 = {frozenset(o.members) for o in orbits if o.size == 6}
    mine12 = {frozenset(o.members) for o in orbits if o.size == 12}
    assert mine6 == {frozenset(orbit(p, ctx).members) for p in KNOWN_SIZE_6}
    assert mine12 == {frozenset(orbit(p, ctx).members) for p in KNOWN_SIZE_12}
    assert elapsed < 1.0, f"census took {elapsed:.3f}s"
    report(1, f"census {{2:1,4:1,6:5,12:15}} over 216 maps in {elapsed:.3f}s")


def test_criterion_2_k4_codes():
    start = time.perf_counter()
    code, out = run_cli("codes", "--n", "4")
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = {row["vector"]: row for row in json.loads(out)["rows"]}
    assert rows["111000"]["code"] == ["2/3", "2/3", "2/3", "1/3", "1/3", "1/3"]
    assert rows["111000"]["scaled_code"] == [4, 4, 4, 2, 2, 2]
    assert rows["000111"]["code"] == ["1/3", "1/3", "1/3", "2/3", "2/3", "2/3"]
    assert rows["000111"]["scaled_code"] == [2, 2, 2, 4, 4, 4]
    assert elapsed < 1.0, f"codes --n 4 took {elapsed:.3f}s"
    report(2, f"triangle/star codes exact in {elapsed:.3f}s")


def test_criterion_3_k4_analysis():
    start = time.perf_counter()
    code, out = run_cli("codes", "--n", "4", "--analyze")
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 11
    assert payload["isomorphic_subgraphs_share_codes"] is True
    assert payload["complements_map_to_complements"] is True
    assert payload["reversals_map_to_reversals"] is True
    assert len(payload["equivalent_nonisomorphic_pairs"]) == 1
    pair = payload["equivalent_nonisomorphic_pairs"][0]
    table = build_code_table(4)
    triangle = table.row_for((1, 1, 1, 0, 0, 0)).class_id
    star = table.row_for((0, 0, 0, 1, 1, 1)).class_id
    assert {pair["class_a"], pair["class_b"]} == {triangle, star}
    assert elapsed < 1.0, f"analysis took {elapsed:.3f}s"
    report(3, f"11 classes, findings 1-4 hold, one equivalent pair in {elapsed:.3f}s")


def test_criterion_4_k5_and_k3_analysis():
    start = time.perf_counter()
    code5, out5 = run_cli("codes", "--n", "5", "--analyze")
    code3, out3 = run_cli("codes", "--n", "3", "--analyze")
    elapsed = time.perf_counter() - start
    assert code5 == 0 and code3 == 0
    payload5 = json.loads(out5)
    assert payload5["classes"] == 34
    assert payload5["equivalent_nonisomorphic_pairs"] == []
    payload3 = json.loads(out3)
    assert payload3["classes"] == 4
    assert payload3["equivalent_nonisomorphic_pairs"] == []
    assert elapsed < 10.0, f"K5+K3 analysis took {elapsed:.3f}s"
    report(4, f"K5: 34 classes, K3: 4 classes, no equivalent pairs, in {elapsed:.3f}s")


def test_criterion_5_theorem_suite():
    start = time.perf_counter()
    checked = 0
    ctx = c6_c3_context()
    orbits, _ = all_orbits(ctx)
    for o in orbits:
        op = from_permutant(o)
        ok, _ = verify_equivariance(op)
        assert ok and operator_sup_norm(op) <= 1
        checked += 1
    for n in (3, 4, 5):
        op = from_permutant(transposition_permutant(n, model="edge"))
        ok, _ = verify_equivariance(op)
        assert ok and operator_sup_norm(op) <= 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"theorem suite took {elapsed:.3f}s"
    report(5, f"{checked} permutant operators verified equivariant+nonexpansive in {elapsed:.3f}s")


def test_criterion_6_measure_suite():
    group = cube_rotation_group()
    assert group.order == 24
    h1, h2, h3 = cube_face_reflections()
    o = orbit(h1, cube_context())
    assert o.size == 3 and set(o.members) == {h1, h2, h3}
    for c in (Fraction(1, 3), Fraction(1), Fraction(2, 7)):
        ok, _ = is_permutant_measure(cube_reflection_measure(c))
        assert ok
    geneo_op = from_measure(cube_reflection_measure(Fraction(1, 3)))
    assert geneo_op.is_geo and geneo_op.is_geneo
    wide = cube_reflection_measure(1)
    assert wide.total_variation() == 3
    geo_only = from_measure(wide)
    assert geo_only.is_geo and geo_only.is_geneo is False
    report(6, "cube: |G|=24, reflection orbit of size 3, GENEO at c=1/3, GEO-only at c=1")


def test_criterion_7_representation_roundtrip():
    f4 = from_permutant(transposition_permutant(4, model="edge"))
    m = decompose_to_measure(f4)
    assert m.total_variation() <= 1
    assert from_measure(m).coeffs == f4.coeffs
    ident = identity_operator(f4.source)
    unit = decompose_to_measure(ident)
    assert len(unit.support) == 1
    assert unit.support[0].as_permutation().is_identity()
    assert unit.weight(unit.support[0]) == 1
    skew = LinearOperator(
        tuple(
            tuple(Fraction(1, d) if i == j else Fraction(0) for j in range(6))
            for i, d in enumerate((1, 2, 3, 4, 5, 6))
        ),
        f4.source,
        f4.source,
        Homomorphism.identity_on(f4.source.group),
    )
    with pytest.raises(ValueError):
        decompose_to_measure(skew)
    report(7, "F4 decomposition round-trips exactly; identity gives unit mass on id")


def test_criterion_8_property_suites():
    start = time.perf_counter()
    test_properties.check_action_axioms()
    test_properties.check_orbit_sizes_divide_group_order()
    test_properties.check_permutant_union_agreement(1000)
    test_properties.check_permutant_bijection_property()
    test_properties.check_diagonal_scaling_iff_patterns()
    test_properties.check_stabilizer_fixtures()
    test_properties.prop_cycle_roundtrip()
    test_properties.prop_mapping_roundtrip()
    test_properties.prop_sup_distance_is_a_metric()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suites took {elapsed:.3f}s"
    report(8, f"action axioms, 1000-subset agreement, round-trips, metric axioms, "
              f"scaling patterns, stabilizer fixtures in {elapsed:.3f}s")


def test_criterion_9_c7_edge_census(fresh_memos):
    ctx = endo_context(edge_automorphism_group(cycle_graph(7)))
    start = time.perf_counter()
    orbits, census = all_orbits(ctx)
    elapsed = time.perf_counter() - start
    assert len(orbits) == burnside_orbit_count(ctx) == 58999
    assert sum(size * count for size, count in census.items()) == 7**7
    assert elapsed < 5.0, f"C7 edge census took {elapsed:.3f}s"
    report(9, f"58999 orbits over the 823543 maps of the C7 edge set, as Burnside counts, in {elapsed:.3f}s")


def test_orbits_reuse(tmp_path, fresh_memos):
    cli._parser()  # the command-line parser is built once, outside the timed runs
    paths = []
    for i, labels in enumerate(("abcdef", "uvwxyz")):
        ctx = endo_context(edge_automorphism_group(cycle_graph(6, edge_labels=labels)))
        paths.append(tmp_path / f"c6-{i}.json")
        paths[-1].write_text(json.dumps(docs.context_to_json(ctx)))
    times, outs = [], []
    for path in paths:
        start = time.perf_counter()
        code, out = run_cli("orbits", "--context", str(path))
        times.append(time.perf_counter() - start)
        assert code == 0
        outs.append(json.loads(out))
    cold, warm = times
    assert outs[0]["census"] == outs[1]["census"]
    assert sum(outs[0]["census"].values()) == 4003
    # the renaming keeps label order, so it keeps the sorted order of representatives
    rename = str.maketrans("abcdef", "uvwxyz")
    assert outs[1]["representatives"] == {
        size: [rep.translate(rename) for rep in reps] for size, reps in outs[0]["representatives"].items()
    }
    assert permutant._code_partition.cache_info().hits == 1
    assert warm <= cold / 4, f"relabeled C6 orbits took {warm:.4f}s after a cold {cold:.4f}s"
    report("orbits reuse", f"a relabeled C6 edge census in {warm:.4f}s after a cold {cold:.4f}s")


def test_aut_k7_edge_group(tmp_path):
    k7 = complete_graph(7)
    path = tmp_path / "k7.json"
    path.write_text(json.dumps(graph_document(k7)))
    start = time.perf_counter()
    code, out = run_cli("aut", str(path), "--edges")
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = json.loads(out)
    # every vertex permutation of K7 is an automorphism; the edge group is S7 acting on the 21 edges
    expected = {
        induced_edge_permutation(k7, Permutation(images, k7.vertex_labels)).images
        for images in permutations(range(7))
    }
    elements = [parse_cycles(text, k7.edge_labels) for text in doc["elements"]]
    assert len(elements) == len(expected) == 5040
    assert {p.images for p in elements} == expected
    generators = [parse_cycles(text, k7.edge_labels) for text in doc["generators"]]
    assert set(generate_group(generators).elements) == set(elements)
    assert elapsed < 1.0, f"aut --edges on K7 took {elapsed:.3f}s"
    report("aut K7", f"the 5040 edge automorphisms of K7, with {len(generators)} generators, in {elapsed:.3f}s")


def test_subgraph_classes_k6():
    start = time.perf_counter()
    classes = subgraph_isomorphism_classes(6)
    elapsed = time.perf_counter() - start
    # 156 graphs on six vertices (OEIS A000088), covering the 2^15 edge vectors once
    assert len(classes) == 156
    assert sum(map(len, classes)) == len({v for cls in classes for v in cls}) == 2**15
    assert elapsed < 1.0, f"subgraph classes of K6 took {elapsed:.3f}s"
    report("classes K6", f"the 32768 edge vectors of K6 in 156 isomorphism classes in {elapsed:.3f}s")


def test_decompose_c7(fresh_memos):
    # an operator from a seeded invariant measure on 3 conjugation orbits of the
    # bijections of the 7-cycle's edges; the first call also finds the group's
    # orbits and LP columns, the second reuses them and times the LPs alone
    ctx = endo_context(edge_automorphism_group(cycle_graph(7)))
    op = from_measure(orbit_sum_measure(ctx, random.Random("decompose C7"), 3, 1))
    times = []
    for _ in range(2):
        start = time.perf_counter()
        m = decompose_to_measure(op)
        times.append(time.perf_counter() - start)
        assert from_measure(m).coeffs == op.coeffs and m.total_variation() <= 1
    cold, warm = times
    assert cold < 1.0, f"a cold C7 decomposition took {cold:.3f}s"
    assert warm < 0.25, f"a C7 decomposition took {warm:.3f}s with the group's LP columns known"
    report("decompose C7", f"a 3-orbit operator on the 7-cycle's edges in {warm:.4f}s ({cold:.4f}s cold), "
                           f"support {len(m.weights)}, total variation {m.total_variation()}")
