import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import geneograph
from geneograph import cli as cli_module, experiments as experiments_module, geneo as geneo_module, graph as graph_module, io as docs, permutant
from geneograph.cli import main
from geneograph.experiments import _code_table, c6_c3_context, transposition_permutant
from geneograph.geneo import from_measure, from_permutant, identity_operator
from geneograph.graph import complete_graph, cycle_graph, edge_automorphism_group, graph, vertex_automorphism_group
from geneograph.perception import PerceptionPair, full_space
from geneograph.perm import FiniteGroup, Homomorphism, Permutation, generate_group, parse_cycles, trivial_group
from geneograph.permutant import ActionContext, PermutantMeasure, all_orbits, endo_context, orbit

from conftest import census_graph
from helpers import (
    automorphism_group_images_by_backtrack,
    graph_document,
    k4_operators_that_are_not_geneos,
    permutant_to_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ctx_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ctx") / "c6c3.json"
    return write_json(path, docs.context_to_json(c6_c3_context()))


@pytest.fixture(scope="module")
def f4_file(tmp_path_factory):
    op = from_permutant(transposition_permutant(4, model="edge"))
    path = tmp_path_factory.mktemp("op") / "f4.json"
    return write_json(path, docs.operator_to_json(op))


def test_census_command(capsys):
    code, out, err = run_cli(capsys, "census-c6c3")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 216
    assert payload["census"] == {"2": 1, "4": 1, "6": 5, "12": 15}
    assert payload["representatives"]["2"] == ["aec"]
    assert len(payload["representatives"]["12"]) == 15


def test_census_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "census-c6c3")
    _, second, _ = run_cli(capsys, "census-c6c3")
    assert first == second


def test_codes_analyze(capsys):
    code, out, _ = run_cli(capsys, "codes", "--n", "4", "--analyze")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 11
    assert len(payload["equivalent_nonisomorphic_pairs"]) == 1
    assert payload["isomorphic_subgraphs_share_codes"] is True
    assert payload["reversals_map_to_reversals"] is True


def test_codes_analyze_reads_the_findings_kept_with_the_table(capsys, monkeypatch, fresh_memos):
    # the table is built once per process, and its findings with it on first use
    real = experiments_module.analyze_code_table
    analyzed = []
    monkeypatch.setattr(experiments_module, "analyze_code_table", lambda table: analyzed.append(table) or real(table))
    outputs = [run_cli(capsys, "codes", "--n", "4", "--analyze") for _ in range(3)]
    assert outputs[0][0] == 0 and outputs == outputs[:1] * 3
    table = experiments_module.build_code_table(4)
    assert len(analyzed) == 1 and analyzed[0] is table and table.findings == real(table)


def test_codes_table_known_rows(capsys):
    code, out, _ = run_cli(capsys, "codes", "--n", "4")
    payload = json.loads(out)
    rows = {row["vector"]: row for row in payload["rows"]}
    assert rows["111000"]["scaled_code"] == [4, 4, 4, 2, 2, 2]
    assert rows["000111"]["scaled_code"] == [2, 2, 2, 4, 4, 4]
    assert len(payload["rows"]) == 64


def test_codes_csv(capsys):
    code, out, _ = run_cli(capsys, "codes", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vector,scaled_code,class"
    assert len(lines) == 9
    assert lines[1].startswith("000,")


def test_codes_analyze_csv_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["codes", "--n", "4", "--analyze", "--format", "csv"])
    assert exc.value.code == 2


def test_aut_command(tmp_path, capsys):
    fig1 = {
        "vertices": ["A", "B", "C", "D"],
        "edges": [
            {"label": "p", "ends": ["A", "B"]},
            {"label": "q", "ends": ["B", "C"]},
            {"label": "r", "ends": ["C", "D"]},
            {"label": "s", "ends": ["A", "D"]},
            {"label": "t", "ends": ["B", "D"]},
        ],
    }
    path = write_json(tmp_path / "fig1.json", fig1)
    code, out, _ = run_cli(capsys, "aut", path)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["elements"]) == sorted(["id", "(A,C)", "(B,D)", "(A,C)(B,D)"])
    code, out, _ = run_cli(capsys, "aut", path, "--edges")
    assert json.loads(out)["labels"] == ["p", "q", "r", "s", "t"]


@pytest.mark.parametrize(
    "doc, edges, expected",
    [
        ({"vertices": ["A"], "edges": []}, False, {"labels": ["A"], "generators": [], "elements": ["id"]}),
        ({"vertices": ["A"], "edges": []}, True, {"labels": [], "generators": [], "elements": ["id"]}),
        (
            {"vertices": ["A", "B"], "edges": [{"label": "p", "ends": ["A", "B"]}]},
            True,
            {"labels": ["p"], "generators": [], "elements": ["id"]},
        ),
        ({"vertices": ["A", "B", "C"], "edges": []}, True, {"labels": [], "generators": [], "elements": ["id"]}),
    ],
    ids=["one-vertex", "one-vertex-edges", "single-edge-edges", "edgeless-edges"],
)
def test_aut_on_groups_of_degree_at_most_one(tmp_path, capsys, doc, edges, expected):
    path = write_json(tmp_path / "g.json", doc)
    code, out, err = run_cli(capsys, "aut", path, *(["--edges"] if edges else []))
    assert (code, err) == (0, "")
    assert json.loads(out) == expected


@pytest.mark.parametrize("edges", [False, True])
def test_aut_stops_at_the_group_cap(tmp_path, capsys, monkeypatch, edges):
    path = write_json(tmp_path / "k7.json", graph_document(complete_graph(7)))
    argv = ["aut", path, *(["--edges"] if edges else [])]
    monkeypatch.delenv("GENEO_MAX_GROUP", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(json.loads(out)["elements"]) == 5040
    monkeypatch.setenv("GENEO_MAX_GROUP", "100")
    code, out, err = run_cli(capsys, *argv)
    message = "automorphism search exceeded the group cap 100 (GENEO_MAX_GROUP)"
    assert code == 1
    assert json.loads(out) == {"error": message}
    assert err == f"error: {message}\n"


def test_aut_decides_the_group_cap_before_listing(tmp_path, capsys, monkeypatch):
    # K7 has 7! = 5040 automorphisms: the product of its level sizes is past a
    # cap of 5039 before any element list exists
    path = write_json(tmp_path / "k7.json", graph_document(complete_graph(7)))

    def no_listing(*args):
        raise AssertionError("an element list was built")

    listing = graph_module._group_generators
    monkeypatch.setattr(graph_module, "_group_generators", no_listing)
    monkeypatch.setenv("GENEO_MAX_GROUP", "5039")
    code, out, err = run_cli(capsys, "aut", path, "--edges")
    message = "automorphism search exceeded the group cap 5039 (GENEO_MAX_GROUP)"
    assert code == 1
    assert json.loads(out) == {"error": message}
    assert err == f"error: {message}\n"
    monkeypatch.setattr(graph_module, "_group_generators", listing)
    monkeypatch.setenv("GENEO_MAX_GROUP", "5040")
    code, out, err = run_cli(capsys, "aut", path, "--edges")
    assert (code, err) == (0, "") and len(json.loads(out)["elements"]) == 5040


def test_aut_reads_only_image_tuples_through_the_public_builder(tmp_path, capsys, monkeypatch):
    # aut --edges on K7 prints 5,040 elements and builds no labeled permutation
    path = write_json(tmp_path / "k7.json", graph_document(complete_graph(7)))
    builder, post_init = cli_module.edge_automorphism_group, Permutation.__post_init__
    built, calls = [], []

    def counted_post_init(self):
        built.append(self.images)
        post_init(self)

    def spied_builder(g):
        calls.append(g)
        return builder(g)

    monkeypatch.setattr(Permutation, "__post_init__", counted_post_init)
    monkeypatch.setattr(cli_module, "edge_automorphism_group", spied_builder)
    monkeypatch.delenv("GENEO_MAX_GROUP", raising=False)
    code, out, err = run_cli(capsys, "aut", path, "--edges")
    assert (code, err) == (0, "") and len(json.loads(out)["elements"]) == 5040
    assert (len(built), len(calls)) == (0, 1)
    # the counter does see permutations: a group builds its elements on first access
    group = builder(complete_graph(4))
    assert built == []
    assert len(group.elements) == len(built) == 24


def test_aut_k7_edges_reads_its_generators_off_the_sorted_group(tmp_path, capsys, monkeypatch):
    # the chain's products are a group by construction: no coset is closed,
    # and the generators are still the six greedy ones
    path = write_json(tmp_path / "k7.json", graph_document(complete_graph(7)))

    def no_closure(*args):
        raise AssertionError("a group was closed")

    monkeypatch.setattr("geneograph.perm._extend_by_cosets", no_closure)
    monkeypatch.delenv("GENEO_MAX_GROUP", raising=False)
    code, out, err = run_cli(capsys, "aut", path, "--edges")
    doc = json.loads(out)
    assert (code, err, len(doc["elements"]), len(doc["generators"])) == (0, "", 5040, 6)


def test_aut_k4_edges(tmp_path, capsys):
    path = write_json(tmp_path / "k4.json", graph_document(complete_graph(4)))
    code, out, _ = run_cli(capsys, "aut", path, "--edges")
    assert code == 0
    assert len(json.loads(out)["elements"]) == 24


def test_orbits_command(ctx_file, capsys):
    code, out, _ = run_cli(capsys, "orbits", "--context", ctx_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["census"] == {"2": 1, "4": 1, "6": 5, "12": 15}
    assert "orbits" not in payload
    code, out, _ = run_cli(capsys, "orbits", "--context", ctx_file, "--full")
    payload = json.loads(out)
    assert sum(len(o) for o in payload["orbits"]) == 216


def test_permutant_check_accepts_orbit(tmp_path, ctx_file, capsys):
    ctx = c6_c3_context()
    members = [m.compact() for m in orbit("aec", ctx).members]
    path = write_json(tmp_path / "h.json", {"members": members})
    code, out, _ = run_cli(capsys, "permutant", "check", path, "--context", ctx_file)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_permutant_check_rejects_partial_orbit(tmp_path, ctx_file, capsys):
    path = write_json(tmp_path / "h.json", {"members": ["aec"]})
    code, out, err = run_cli(capsys, "permutant", "check", path, "--context", ctx_file)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["witness"]["mapping"] == "aec"
    assert "error" in err


def test_alpha_witness_names_a_context_generator(tmp_path, capsys):
    # K4 edge endo-context: the witness is a generator the context lists,
    # not another element of G
    ctx = docs.context_to_json(endo_context(edge_automorphism_group(complete_graph(4))))
    assert ctx["G"]["generators"] == ["(q,r)(s,t)", "(q,s)(r,t)", "(p,q)(s,u)"]
    ctx_path = write_json(tmp_path / "k4.json", ctx)
    members = ["puuuuu", "qqqsqq", "rrrrtr", "sqssss", "ttrttt"]
    documents = {
        "permutant": {"members": members},
        "measure": {"weights": [{"mapping": m, "weight": 1} for m in members]},
    }
    for command, doc in documents.items():
        path = write_json(tmp_path / f"{command}.json", doc)
        code, out, _ = run_cli(capsys, command, "check", path, "--context", ctx_path)
        assert code == 1
        assert json.loads(out)["witness"] == {"mapping": "qqqsqq", "generator": "(p,q)(s,u)"}


def test_json_number_past_the_float_range_names_its_field(tmp_path, capsys):
    # json reads 1e400 as the float inf, which has no exact value
    op = docs.operator_to_json(from_permutant(orbit("aec", c6_c3_context())))
    op_path = write_json(tmp_path / "op.json", op)
    phi = tmp_path / "phi.json"
    phi.write_text("[1e400, 0, 0, 0, 0, 0]")
    code, out, err = run_cli(capsys, "geneo", "apply", op_path, str(phi))
    assert code == 1
    assert json.loads(out) == {"error": "measurement entry: Invalid literal for Fraction: 'inf'"}


def test_huge_numbers_fail_with_a_json_error(tmp_path, capsys):
    # an exponent past the interpreter's digit limit is rejected as it is
    # read; a result with too many digits to print is a failure, not a crash
    op = docs.operator_to_json(from_permutant(orbit("aec", c6_c3_context())))
    op_path = write_json(tmp_path / "op.json", op)
    for value in ("1e5000", "1e10000000"):
        phi = write_json(tmp_path / "phi.json", [value, 0, 0, 0, 0, 0])
        code, out, err = run_cli(capsys, "geneo", "apply", op_path, phi)
        assert code == 1
        assert "exceeds 4300" in json.loads(out)["error"] and "error" in err
    pair = PerceptionPair(full_space(("a",)), trivial_group(("a",)))
    scaled = {**docs.operator_to_json(identity_operator(pair)), "coeffs": [["1e4300"]]}
    scaled_path = write_json(tmp_path / "scaled.json", scaled)
    # the image, and the norm in verify's failure payload, have 4,301 digits
    for argv in (
        ("geneo", "apply", scaled_path, write_json(tmp_path / "one.json", [1])),
        ("geneo", "verify", scaled_path),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "Exceeds the limit" in json.loads(out)["error"] and "error" in err


def test_measure_check(tmp_path, ctx_file, capsys):
    good = {"weights": [{"mapping": "aec", "weight": "1/2"}, {"mapping": "dbf", "weight": "1/2"}]}
    path = write_json(tmp_path / "mu.json", good)
    code, out, _ = run_cli(capsys, "measure", "check", path, "--context", ctx_file)
    assert code == 0
    assert json.loads(out)["total_variation"] == 1
    bad = {"weights": [{"mapping": "aec", "weight": 1}, {"mapping": "dbf", "weight": 2}]}
    path = write_json(tmp_path / "bad.json", bad)
    code, out, _ = run_cli(capsys, "measure", "check", path, "--context", ctx_file)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_geneo_build_from_permutant(tmp_path, ctx_file, capsys):
    ctx = c6_c3_context()
    members = [m.compact() for m in orbit("aec", ctx).members]
    path = write_json(tmp_path / "h.json", {"members": members})
    code, out, _ = run_cli(capsys, "geneo", "build", "--permutant", path, "--context", ctx_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"] == {"is_geo": True, "is_geneo": True}
    assert payload["coeffs"][0] == ["1/2", 0, 0, "1/2", 0, 0]


def test_geneo_build_from_measure_with_embedded_context(tmp_path, capsys):
    ctx = c6_c3_context()
    doc = {
        "context": docs.context_to_json(ctx),
        "weights": [{"mapping": "aec", "weight": "1/4"}, {"mapping": "dbf", "weight": "1/4"}],
    }
    path = write_json(tmp_path / "mu.json", doc)
    code, out, _ = run_cli(capsys, "geneo", "build", "--measure", path)
    assert code == 0
    assert json.loads(out)["flags"]["is_geneo"] is True


def test_geneo_verify(f4_file, capsys):
    code, out, _ = run_cli(capsys, "geneo", "verify", f4_file)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"equivariant": True, "nonexpansive": True, "operator_norm": 1}


def test_seed_flag_is_usage_error(f4_file, capsys):
    # every verdict is exact, so there is nothing left to seed
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "11", "geneo", "verify", f4_file])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags, named",
    [(["--seed", "11"], "--seed"), (["--seed=11"], "--seed=11"), (["--pretty", "--seed", "11"], "--seed")],
)
def test_unknown_flag_before_subcommand_is_named(flags, named, f4_file, capsys):
    # argparse alone would read "11" as the subcommand and name it instead
    with pytest.raises(SystemExit) as exc:
        main([*flags, "geneo", "verify", f4_file])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"geneograph: error: unrecognized arguments: {named}\n")


def test_geneo_verify_rejects_expansive(tmp_path, capsys):
    op = identity_operator(
        from_permutant(transposition_permutant(4, model="edge")).source
    )
    doc = docs.operator_to_json(op)
    doc["coeffs"] = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    path = write_json(tmp_path / "double.json", doc)
    code, out, _ = run_cli(capsys, "geneo", "verify", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["nonexpansive"] is False


# the whole output of `geneo verify` on each operator of
# helpers.k4_operators_that_are_not_geneos: exit code, stdout and stderr
FAILING_VERIFY = {
    "nonequivariant": (
        1,
        '{"equivariant":false,"nonexpansive":true,"operator_norm":1,'
        '"witness":{"basis_index":0,"generator":"(p,q)(s,u)"},"error":"operator is not a GENEO"}\n',
        "error: operator is not a GENEO\n",
    ),
    "expansive": (
        1,
        '{"equivariant":true,"nonexpansive":false,"operator_norm":2,"error":"operator is not a GENEO"}\n',
        "error: operator is not a GENEO\n",
    ),
    "both": (
        1,
        '{"equivariant":false,"nonexpansive":false,"operator_norm":"3/2",'
        '"witness":{"basis_index":1,"generator":"(q,r)(s,t)"},"error":"operator is not a GENEO"}\n',
        "error: operator is not a GENEO\n",
    ),
}


@pytest.mark.parametrize("name", sorted(FAILING_VERIFY))
def test_geneo_verify_failures_are_pinned(tmp_path, capsys, name):
    op = k4_operators_that_are_not_geneos()[name]
    path = write_json(tmp_path / f"{name}.json", docs.operator_to_json(op))
    assert run_cli(capsys, "geneo", "verify", path) == FAILING_VERIFY[name]


FACTS = ("verify_equivariance", "operator_sup_norm")


@pytest.fixture
def fact_counts(monkeypatch):
    """The calls of the functions that compute an operator's two facts, the
    equivariance result and the sup norm, counted wherever a geneograph module
    holds them, as the benchmark's tracer wraps them."""
    counts = dict.fromkeys(FACTS, 0)
    modules = [module for key, module in sys.modules.items() if key.split(".")[0] == "geneograph"]
    for name in FACTS:
        real = getattr(geneo_module, name)

        def counted(op, name=name, real=real):
            counts[name] += 1
            return real(op)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("request_kind", ["build", "verify", "failing verify"])
def test_each_operator_fact_is_computed_once_per_request(tmp_path, capsys, f4_file, fact_counts, request_kind):
    h_path = write_json(tmp_path / "h.json", permutant_to_json(transposition_permutant(4, model="edge")))
    both = write_json(tmp_path / "both.json", docs.operator_to_json(k4_operators_that_are_not_geneos()["both"]))
    argv = {
        "build": ("geneo", "build", "--permutant", h_path),
        "verify": ("geneo", "verify", f4_file),
        "failing verify": ("geneo", "verify", both),
    }[request_kind]
    fact_counts.update(dict.fromkeys(FACTS, 0))
    code, _, _ = run_cli(capsys, *argv)
    assert code == (1 if request_kind == "failing verify" else 0)
    assert fact_counts == dict.fromkeys(FACTS, 1)


def test_fact_counts_see_each_new_operator(f4_file, fact_counts):
    # positive control: three fresh copies of one operator, each asked for its
    # verdict twice, compute each fact three times
    op = docs.operator_from_json(read_json(f4_file))
    fact_counts.update(dict.fromkeys(FACTS, 0))
    for copy in (replace(op) for _ in range(3)):
        assert copy.is_geneo and copy.is_geneo
    assert fact_counts == dict.fromkeys(FACTS, 3)


def test_geneo_apply(tmp_path, f4_file, capsys):
    phi = write_json(tmp_path / "phi.json", [1, 1, 1, 0, 0, 0])
    code, out, _ = run_cli(capsys, "geneo", "apply", f4_file, phi)
    assert code == 0
    assert json.loads(out) == ["2/3", "2/3", "2/3", "1/3", "1/3", "1/3"]


def test_geneo_decompose(tmp_path, f4_file, capsys):
    code, out, _ = run_cli(capsys, "geneo", "decompose", f4_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"]  # nonempty support
    # rebuild through the library and compare coefficient tables
    op = docs.operator_from_json(read_json(f4_file))
    ctx = docs.context_from_json(payload["context"])
    measure = docs.measure_from_json(payload, ctx)
    from geneograph.geneo import from_measure

    assert measure.total_variation() <= 1
    assert from_measure(measure).coeffs == op.coeffs


def test_geneo_decompose_failure(tmp_path, ctx_file, capsys):
    ctx = c6_c3_context()
    members = [m.compact() for m in orbit("aec", ctx).members]
    path = write_json(tmp_path / "h.json", {"members": members})
    _, out, _ = run_cli(capsys, "geneo", "build", "--permutant", path, "--context", ctx_file)
    op_path = tmp_path / "aec_op.json"
    op_path.write_text(out)
    code, out, err = run_cli(capsys, "geneo", "decompose", str(op_path))
    assert code == 1
    assert "endo" in json.loads(out)["error"]


def test_geneo_decompose_names_its_witness(tmp_path, capsys):
    group = edge_automorphism_group(complete_graph(4))
    doc = docs.operator_to_json(identity_operator(PerceptionPair(full_space(group.labels), group)))
    doc["coeffs"][1][1] = 0
    code, out, err = run_cli(capsys, "geneo", "decompose", write_json(tmp_path / "k4_zeroed.json", doc))
    message = "operator is not equivariant: basis index 1 fails under generator (q,r)(s,t)"
    assert code == 1
    assert json.loads(out) == {"error": message}
    assert err == f"error: {message}\n"


def test_geneo_decompose_over_cap(tmp_path, capsys):
    group = edge_automorphism_group(cycle_graph(8))
    op = identity_operator(PerceptionPair(full_space(group.labels), group))
    path = write_json(tmp_path / "c8_identity.json", docs.operator_to_json(op))
    code, out, err = run_cli(capsys, "geneo", "decompose", path)
    assert code == 1
    assert out == '{"error":"8! permutations exceed the decomposition cap 5040"}\n'


def test_missing_file_is_validation_failure(capsys):
    code, out, _ = run_cli(capsys, "aut", "/nonexistent/graph.json")
    assert code == 1
    assert "error" in json.loads(out)


def test_malformed_json_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, _ = run_cli(capsys, "aut", str(path))
    assert code == 1
    assert "error" in json.loads(out)


def test_deeply_nested_json_is_validation_failure(tmp_path, capsys):
    # valid JSON, nested past the decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, _ = run_cli(capsys, "aut", str(path))
    assert code == 1
    assert json.loads(out) == {"error": f"{path}: JSON nested too deeply to read"}


def test_bad_cycle_text_in_group_doc(tmp_path, ctx_file, capsys):
    doc = read_json(ctx_file)
    doc["G"]["generators"] = ["(a,zz)"]
    path = write_json(tmp_path / "bad_ctx.json", doc)
    code, out, _ = run_cli(capsys, "orbits", "--context", path)
    assert code == 1
    assert "error" in json.loads(out)


def test_graph_with_string_edges_is_validation_failure(tmp_path, capsys):
    path = write_json(tmp_path / "g.json", {"vertices": ["A", "B", "C"], "edges": ["ab", "bc"]})
    code, out, err = run_cli(capsys, "aut", path)
    assert code == 1
    assert json.loads(out)["error"].startswith("edges[0] must be an object")


@pytest.mark.parametrize("edge, field", [({"label": "p"}, "ends"), ({"ends": ["B", "C"]}, "label")])
def test_graph_edge_without_field_is_validation_failure(tmp_path, capsys, edge, field):
    doc = {"vertices": ["A", "B", "C"], "edges": [{"label": "q", "ends": ["A", "B"]}, edge]}
    path = write_json(tmp_path / "g.json", doc)
    code, out, err = run_cli(capsys, "aut", path)
    assert code == 1
    assert json.loads(out) == {"error": f"edges[1] field '{field}' is missing"}
    assert "Traceback" not in err


def test_numeric_group_generator_is_validation_failure(tmp_path, ctx_file, capsys):
    doc = read_json(ctx_file)
    doc["G"]["generators"] = [5]
    path = write_json(tmp_path / "bad_ctx.json", doc)
    code, out, err = run_cli(capsys, "orbits", "--context", path)
    assert code == 1
    assert json.loads(out) == {"error": "group field 'generators' must be an array of strings"}


@pytest.mark.parametrize("elements", [["id", "(a,b)", "(b,a)"], ["id", "(a,b)", "(a,b)"]], ids=["two-texts", "one-text-twice"])
def test_group_naming_an_element_twice_is_validation_failure(tmp_path, capsys, elements):
    doc = {
        "G": {"labels": ["a", "b"], "elements": elements},
        "K": {"labels": ["x", "y"], "elements": ["id", "(x,y)"]},
        "T": [["id", "id"], ["(a,b)", "(x,y)"]],
    }
    path = write_json(tmp_path / "ctx.json", doc)
    code, out, err = run_cli(capsys, "orbits", "--context", path)
    message = "group field 'elements' names the permutation '(a,b)' twice"
    assert code == 1
    assert json.loads(out) == {"error": message}
    assert err == f"error: {message}\n"
    doc["G"]["elements"] = ["id", "(a,b)"]
    path = write_json(tmp_path / "ctx.json", doc)
    assert run_cli(capsys, "orbits", "--context", path)[0] == 0


C3_ABC = {"labels": ["a", "b", "c"], "generators": ["(a,b,c)"]}
C3_XYZ = {"labels": ["x", "y", "z"], "generators": ["(x,y,z)"]}
C2_XY = {"labels": ["x", "y"], "generators": ["(x,y)"]}
HOMOMORPHISM_REJECTIONS = {
    # a full table: two images outside K, listed out of source order, so the first in the document is named
    "image-outside-target": (
        C3_ABC, C3_XYZ, [["(a,c,b)", "(x,y)"], ["(a,b,c)", "(y,z)"], ["id", "id"]],
        "image (x,y) not in target group",
    ),
    "identity-moved": (
        {"labels": ["a", "b"], "generators": ["(a,b)"]}, C2_XY, [["id", "(x,y)"], ["(a,b)", "id"]],
        "homomorphism must map identity to identity",
    ),
    "not-multiplicative": (
        C3_ABC, C3_XYZ, [["id", "id"], ["(a,b,c)", "(x,y,z)"], ["(a,c,b)", "(x,y,z)"]],
        "not multiplicative at ((a,b,c), (a,b,c))",
    ),
    # generator images
    "outside-source": (C3_ABC, C3_XYZ, [["(a,b)", "id"]], "(a,b) not in source group"),
    "ill-defined": (C3_ABC, C2_XY, [["(a,b,c)", "(x,y)"]], "generator images do not define a homomorphism"),
    "not-generating": (
        {"labels": ["a", "b", "c"], "generators": ["(a,b,c)", "(a,b)"]}, C2_XY, [["(a,b,c)", "id"]],
        "given permutations do not generate the source group",
    ),
}


@pytest.mark.parametrize("case", HOMOMORPHISM_REJECTIONS)
def test_homomorphism_rejection_is_validation_failure(tmp_path, capsys, case):
    g, k, t, message = HOMOMORPHISM_REJECTIONS[case]
    path = write_json(tmp_path / "ctx.json", {"G": g, "K": k, "T": t})
    code, out, err = run_cli(capsys, "orbits", "--context", path)
    assert code == 1
    assert json.loads(out) == {"error": message}
    assert err == f"error: {message}\n"


def test_a_context_given_by_its_generator_pairs_reads_as_its_full_table(tmp_path, capsys):
    """A C6/C3 context whose T lists only the generator pairs, read through
    the generator-image branch, prints the orbits of its full-table document
    byte for byte."""
    full = docs.context_to_json(c6_c3_context())
    pairs = dict(full, T=[["(a,b,c,d,e,f)", "(g,h,i)"], ["(a,f)(b,e)(c,d)", "(g,i)"]])
    outs = []
    for name, doc in (("full", full), ("pairs", pairs)):
        code, out, err = run_cli(capsys, "orbits", "--full", "--context", write_json(tmp_path / f"{name}.json", doc))
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["total"] == 216


MAP_COMMANDS = {
    "permutant-check": ["permutant", "check", "{doc}", "--context", "{ctx}"],
    "build-permutant": ["geneo", "build", "--permutant", "{doc}", "--context", "{ctx}"],
    "measure-check": ["measure", "check", "{doc}", "--context", "{ctx}"],
    "build-measure": ["geneo", "build", "--measure", "{doc}", "--context", "{ctx}"],
}
PERMUTANT_COMMANDS = ("permutant-check", "build-permutant")
MEASURE_COMMANDS = ("measure-check", "build-measure")


def map_document(command, maps):
    """A document of the command's kind that lists these maps."""
    if command in PERMUTANT_COMMANDS:
        return {"members": list(maps)}
    return {"weights": [{"mapping": m, "weight": "1/2"} for m in maps]}


# (context, document or maps, commands, error): "c6c3" is the C6/C3 context,
# "two-char" one whose target labels are "ab", "cd" and "ef"
MAP_REJECTIONS = {
    "unknown-label": ("c6c3", ["aez"], tuple(MAP_COMMANDS), "unknown target label 'z'"),
    "unknown-label-in-list": ("c6c3", [["a", "z", "c"]], tuple(MAP_COMMANDS), "unknown target label 'z'"),
    "short-compact": (
        "c6c3", ["ae"], tuple(MAP_COMMANDS), "expected 3 characters for source ('g', 'h', 'i'), got 'ae'"
    ),
    "label-form-number-entry": (
        "c6c3", [["a", 1, "c"]], tuple(MAP_COMMANDS), "a mapping in label form must be an array of strings"
    ),
    "label-form-number": ("c6c3", [7], tuple(MAP_COMMANDS), "a mapping in label form must be an array of strings"),
    "image-count": ("c6c3", [["a", "b"]], tuple(MAP_COMMANDS), "image count does not match the source size"),
    "members-not-array": (
        "c6c3", {"members": "aec"}, PERMUTANT_COMMANDS, "permutant field 'members' must be an array"
    ),
    "entry-without-mapping": (
        "c6c3", {"weights": [{"weight": 1}]}, MEASURE_COMMANDS, "measure entry field 'mapping' is missing"
    ),
    "compact-two-char": (
        "two-char", ["abc"], tuple(MAP_COMMANDS), "compact form needs single-character target labels"
    ),
    "map-twice-two-char": (
        "two-char", [["ab", "cd", "ef"], ["ef", "ab", "cd"], ["ab", "cd", "ef"]], MEASURE_COMMANDS,
        "measure names the map '[ab,cd,ef]' twice",
    ),
}


@pytest.fixture(scope="module")
def map_contexts(tmp_path_factory, ctx_file):
    labels, y_labels = ("ab", "cd", "ef"), ("g", "h", "i")
    g = generate_group([parse_cycles("(ab,cd,ef)", labels)])
    k = generate_group([parse_cycles("(g,h,i)", y_labels)])
    t = Homomorphism.from_generator_images(g, k, [(g.generators[0], k.generators[0])])
    path = tmp_path_factory.mktemp("two-char") / "ctx.json"
    return {"c6c3": ctx_file, "two-char": write_json(path, docs.context_to_json(ActionContext(g, k, t)))}


@pytest.mark.parametrize(
    "case, command",
    [(case, command) for case, (_, _, commands, _) in MAP_REJECTIONS.items() for command in commands],
)
def test_map_document_rejection_is_pinned(tmp_path, capsys, map_contexts, case, command):
    context, doc, _, message = MAP_REJECTIONS[case]
    if isinstance(doc, list):
        doc = map_document(command, doc)
    files = {"doc": write_json(tmp_path / "doc.json", doc), "ctx": map_contexts[context]}
    code, out, err = run_cli(capsys, *[arg.format(**files) for arg in MAP_COMMANDS[command]])
    assert code == 1
    assert out == json.dumps({"error": message}, separators=(",", ":")) + "\n"
    assert err == f"error: {message}\n"


K4_ORBIT_REPRESENTATIVES = ("pppppq", "ppppqp", "ppppqq")


@pytest.fixture(scope="module")
def k4_maps(tmp_path_factory):
    """The K4 edge endo-context's file and the 72 maps of three of its orbits of size 24."""
    ctx = endo_context(edge_automorphism_group(complete_graph(4)))
    maps = [f.compact() for rep in K4_ORBIT_REPRESENTATIVES for f in orbit(rep, ctx).members]
    assert len(maps) == len(set(maps)) == 72
    return write_json(tmp_path_factory.mktemp("k4") / "k4.json", docs.context_to_json(ctx)), maps


@pytest.mark.parametrize("command", sorted(MAP_COMMANDS))
def test_map_documents_are_read_to_image_tuples(tmp_path, capsys, monkeypatch, k4_maps, command):
    # reading, checking and building from a 72-map document builds no labeled
    # map; a failure builds at most its witness and the map its error text names
    ctx_path, maps = k4_maps
    mapping_post_init, witness = permutant.Mapping.__post_init__, permutant._invariance_witness
    built, scans = [], []
    monkeypatch.setattr(permutant.Mapping, "__post_init__", lambda f: built.append(f.images) or mapping_post_init(f))
    monkeypatch.setattr(permutant, "_invariance_witness", lambda *args: scans.append(args) or witness(*args))
    good = map_document(command, maps)
    bad = map_document(command, maps[1:])  # one map short of alpha-closed, or of invariant
    for doc, expected_code in ((good, 0), (bad, 1)):
        built.clear()
        scans.clear()
        path = write_json(tmp_path / "doc.json", doc)
        code, out, err = run_cli(capsys, *[arg.format(doc=path, ctx=ctx_path) for arg in MAP_COMMANDS[command]])
        assert code == expected_code, out
        assert len(built) <= 2 * expected_code
        # one invariance test per request: the permutant's constructor or the measure check
        assert len(scans) == 1
        if expected_code:
            assert json.loads(out)["error"].startswith("not a ")
    # the counter does see maps: a permutant builds its members on first access
    built.clear()
    ctx = docs.context_from_json(read_json(ctx_path))
    h = permutant.GeneralizedPermutant(ctx, [ctx.read_map(m) for m in maps])
    assert built == [] and len(h.members) == len(built) == 72


@pytest.mark.parametrize("command", MEASURE_COMMANDS)
def test_measure_documents_read_each_weight_once(tmp_path, capsys, monkeypatch, k4_maps, command):
    ctx_path, maps = k4_maps
    # a conversion is a call on a value that is not yet a Fraction; the
    # measure's constructor may see the Fractions that io has read
    reads = []
    for module in (docs, permutant):
        real = module.as_fraction
        monkeypatch.setattr(
            module,
            "as_fraction",
            lambda x, real=real, name=module.__name__: isinstance(x, Fraction) or reads.append(name) or real(x),
        )
    path = write_json(tmp_path / "mu.json", map_document(command, maps))
    code, out, err = run_cli(capsys, *[arg.format(doc=path, ctx=ctx_path) for arg in MAP_COMMANDS[command]])
    assert (code, err) == (0, "")
    # the 72 weights share one text, which the read converts once
    assert reads == ["geneograph.io"]


@pytest.mark.parametrize("command", PERMUTANT_COMMANDS)
def test_permutant_documents_check_each_member_once(tmp_path, capsys, monkeypatch, k4_maps, command):
    # read_map has checked each member's labels and length, so the permutant
    # is built without checking its image tuples again; its closure is still
    # checked, and the public constructor keeps its check
    ctx_path, maps = k4_maps
    checked = []
    check = ActionContext._check_images
    monkeypatch.setattr(ActionContext, "_check_images", lambda self, h: checked.append(h) or check(self, h))
    for members, expected_code in ((maps, 0), (maps[1:], 1)):
        path = write_json(tmp_path / "h.json", map_document(command, members))
        code, out, err = run_cli(capsys, *[arg.format(doc=path, ctx=ctx_path) for arg in MAP_COMMANDS[command]])
        assert code == expected_code, out
    assert json.loads(out)["error"] == "not a generalized permutant" and "witness" in json.loads(out)
    assert checked == []
    ctx = docs.context_from_json(read_json(ctx_path))
    assert permutant.GeneralizedPermutant(ctx, [ctx.read_map(m) for m in maps]).size == 72
    assert len(checked) == 72


def test_orbits_on_a_full_table_context_lists_no_group_elements(tmp_path, capsys, monkeypatch, fresh_memos):
    # a relabeled K4 edge context whose T lists all 24 elements: reading it and
    # splitting its maps into orbits runs on image tuples, so neither group
    # lists its labeled elements and every permutation built is a parsed text
    k4 = graph("ABCD", list(zip("qmrnpo", combinations("ABCD", 2))))
    doc = docs.context_to_json(endo_context(edge_automorphism_group(k4)))
    assert len(doc["T"]) == 24
    path = write_json(tmp_path / "k4.json", doc)
    post_init, parse = Permutation.__post_init__, docs.parse_cycles
    built, parsed = [], []
    monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(p.images) or post_init(p))
    monkeypatch.setattr(docs, "parse_cycles", lambda text, labels: parsed.append(text) or parse(text, labels))
    code, out, err = run_cli(capsys, "orbits", "--context", path)
    assert (code, err) == (0, "") and json.loads(out)["total"] == 6**6
    # each generator text of G's document is parsed once, on the memo's miss; the
    # stated elements and T's texts are the closure's canonical texts, read by
    # lookup; K's document is G's, so the read builds that group once
    generators = doc["G"]["generators"]
    assert sorted(parsed) == sorted(generators) and len(built) == len(parsed) == len(generators)
    ctx = docs.context_from_json(doc)  # the context that the command read, remembered by its document
    for group in (ctx.G, ctx.K):
        assert "elements" not in group.__dict__
    # the counter does see permutations: a group builds its elements on first access
    assert len(ctx.G.elements) == len(built) - len(parsed) == 24


@pytest.mark.parametrize("command", ["apply", "verify", "decompose"])
def test_array_operator_is_validation_failure(tmp_path, capsys, command):
    op_path = write_json(tmp_path / "op.json", [1, 2, 3])
    phi_path = write_json(tmp_path / "phi.json", [1, 2, 3])
    extra = [phi_path] if command == "apply" else []
    code, out, err = run_cli(capsys, "geneo", command, op_path, *extra)
    assert code == 1
    assert json.loads(out) == {"error": "an operator document must be a JSON object"}


@pytest.mark.parametrize(
    "argv, doc, error",
    [
        (
            ["orbits", "--context"],
            {"G": {"labels": ["a", "b", "c"], "generators": ["(a,z)"]}, "K": 7, "T": []},
            "unknown label 'z' (domain ('a', 'b', 'c'))",
        ),
        (
            ["geneo", "verify"],
            {
                "source": {
                    "space": {"domain": ["a", "b"]},
                    "group": {"labels": ["a", "b"], "generators": ["(a,b)"], "elements": 5},
                },
                "homomorphism": [],
                "coeffs": [[1, 0], [0, 1]],
            },
            "group field 'elements' must be an array of strings",
        ),
    ],
    ids=["context-G-before-K", "operator-source-before-target"],
)
def test_the_first_faulty_part_of_a_document_is_the_error_reported(tmp_path, capsys, argv, doc, error):
    # a context's G is read before its K, and an operator's source before its target
    code, out, err = run_cli(capsys, *argv, write_json(tmp_path / "doc.json", doc))
    assert (code, out, err) == (1, json.dumps({"error": error}, separators=(",", ":")) + "\n", f"error: {error}\n")


MEASURE = ["measure", "check", "{doc}", "--context", "{ctx}"]
VERIFY = ["geneo", "verify", "{doc}"]
ORBITS = ["orbits", "--context", "{doc}"]
APPLY = ["geneo", "apply", "{op}", "{doc}"]
AUT = ["aut", "{doc}"]
EDGE_AB = {"label": "p", "ends": ["A", "B"]}
SPACE = ("source", "space")


class RawJSON(str):
    """Document text written as it stands, for what a dict cannot hold."""


# (command, document, fragment of the error): a plain document, its text as a
# RawJSON, or (base, key path, value) to overwrite one field of the F4
# operator ("op") or the C6/C3 context ("ctx"), or to delete it if the value
# is MISSING
MISSING = object()
SPACE_KINDS = "'full', 'constrained' or 'explicit'"
REJECTED_NUMBERS = (
    ("nan", "nan", "Invalid literal for Fraction: 'nan'"),
    ("inf", "inf", "Invalid literal for Fraction: 'inf'"),
    ("word", "abc", "Invalid literal for Fraction: 'abc'"),
    ("float-inf", float("inf"), "Invalid literal for Fraction: 'inf'"),
    ("huge-exponent", "1e5000", "decimal exponent of '1e5000' exceeds 4300"),
)
MALFORMED = {
    "measure-weight-null": (MEASURE, {"weights": [{"mapping": "aec", "weight": None}]}, "measure weight"),
    "measure-mapping-number": (MEASURE, {"weights": [{"mapping": 5, "weight": 1}]}, "mapping"),
    "measure-weight-array": (MEASURE, {"weights": {"aec": [1]}}, "measure weight"),
    "measure-document-array": (MEASURE, [1, 2], "measure field 'weights'"),
    "build-measure-weight-null": (
        ["geneo", "build", "--measure", "{doc}", "--context", "{ctx}"],
        {"weights": [{"mapping": "aec", "weight": None}]},
        "measure weight",
    ),
    "permutant-member-number": (
        ["permutant", "check", "{doc}", "--context", "{ctx}"], {"members": [5]}, "mapping"
    ),
    "measure-weight-zero-denominator": (
        MEASURE, {"weights": [{"mapping": "aec", "weight": "1/0"}]}, "measure weight: '1/0' has a zero denominator"
    ),
    "build-measure-weight-zero-denominator": (
        ["geneo", "build", "--measure", "{doc}", "--context", "{ctx}"],
        {"weights": [{"mapping": "aec", "weight": "1/0"}]},
        "measure weight: '1/0' has a zero denominator",
    ),
    "apply-entry-zero-denominator": (
        APPLY, ["1/0", 0, 0, 0, 0, 0], "measurement entry: '1/0' has a zero denominator"
    ),
    **{
        f"{command}-coeff-zero-denominator": (
            ["geneo", command, "{doc}"],
            ("op", ("coeffs",), [["1/0"] * 6] * 6),
            "operator field 'coeffs': '1/0' has a zero denominator",
        )
        for command in ("verify", "decompose")
    },
    "verify-rhs-zero-denominator": (
        VERIFY,
        ("op", SPACE + ("constraints",), [{"coeffs": [1, 0, 0, 0, 0, 0], "rhs": "1/0"}]),
        "constraint field 'rhs': '1/0' has a zero denominator",
    ),
    "apply-entry-null": (APPLY, [None, 0, 0, 0, 0, 0], "measurement entry"),
    "apply-entry-true": (APPLY, [True, 0, 0, 0, 0, 0], "measurement entry"),
    "apply-entry-array": (APPLY, [[1], 0, 0, 0, 0, 0], "measurement entry"),
    "verify-constraint-null": (
        VERIFY,
        ("op", SPACE + ("constraints",), [{"coeffs": [None, 1, 1, 1, 1, 1], "rhs": 0}]),
        "constraint field 'coeffs'",
    ),
    "verify-domain-number": (VERIFY, ("op", SPACE + ("domain",), 5), "space field 'domain'"),
    "verify-constraints-number": (VERIFY, ("op", SPACE + ("constraints",), 5), "space field 'constraints'"),
    "verify-constraint-number": (VERIFY, ("op", SPACE + ("constraints",), [5]), "a constraint must be"),
    "verify-constraint-coeffs-number": (
        VERIFY, ("op", SPACE + ("constraints",), [{"coeffs": 5, "rhs": 0}]), "constraint field 'coeffs'"
    ),
    "verify-ball-number": (VERIFY, ("op", SPACE + ("ball",), 5), "space field 'ball'"),
    "verify-ball-without-norm": (VERIFY, ("op", SPACE + ("ball",), {"radius": 1}), "ball field 'norm'"),
    "verify-members-number": (
        VERIFY, ("op", SPACE, {"kind": "explicit", "domain": list("pqrstu"), "members": 5}), "space field 'members'"
    ),
    **{
        f"{command}-space-kind-{name}": (
            ["geneo", command, "{doc}"], ("op", SPACE + ("kind",), kind), f"space field 'kind' must be {SPACE_KINDS}"
        )
        for command in ("verify", "decompose")
        for name, kind in (("bogus", "bogus"), ("number", 5), ("null", None))
    },
    # every number as_fraction rejects names its field; a float inf is what
    # the JSON number 1e400 reads as
    **{
        f"apply-entry-{name}": (APPLY, [value, 0, 0, 0, 0, 0], f"measurement entry: {message}")
        for name, value, message in REJECTED_NUMBERS
    },
    **{
        f"verify-coeff-{name}": (
            VERIFY, ("op", ("coeffs",), [[value] * 6] * 6), f"operator field 'coeffs': {message}"
        )
        for name, value, message in REJECTED_NUMBERS
    },
    "verify-radius-nan": (
        VERIFY,
        ("op", SPACE + ("ball",), {"norm": "sup", "radius": "nan"}),
        "ball field 'radius': Invalid literal for Fraction: 'nan'",
    ),
    "verify-homomorphism-number": (VERIFY, ("op", ("homomorphism",), 5), "homomorphism"),
    "verify-flags-number": (VERIFY, ("op", ("flags",), 5), "operator field 'flags'"),
    "orbits-T-number": (["orbits", "--context", "{doc}"], ("ctx", ("T",), 5), "homomorphism"),
    **{
        f"verify-without-{key}": (VERIFY, ("op", (key,), MISSING), f"operator field '{key}' is missing")
        for key in ("coeffs", "source", "homomorphism")
    },
    "verify-space-without-domain": (
        VERIFY, ("op", SPACE + ("domain",), MISSING), "space field 'domain' is missing"
    ),
    "verify-constraint-empty": (
        VERIFY, ("op", SPACE + ("constraints",), [{}]), "constraint field 'coeffs' is missing"
    ),
    "orbits-group-without-labels": (
        ORBITS, ("ctx", ("G", "labels"), MISSING), "group field 'labels' is missing"
    ),
    **{
        f"orbits-without-{key}": (ORBITS, ("ctx", (key,), MISSING), f"context field '{key}' is missing")
        for key in ("G", "K", "T")
    },
    "aut-vertices-string": (
        AUT, {"vertices": "AB", "edges": [{"label": None, "ends": ["A", "B"]}]}, "graph field 'vertices' must be an array"
    ),
    "aut-vertices-object": (
        AUT, {"vertices": {"A": 0, "B": 1}, "edges": [EDGE_AB]}, "graph field 'vertices' must be an array"
    ),
    "aut-edges-object": (AUT, {"vertices": ["A", "B"], "edges": {}}, "graph field 'edges' must be an array"),
    **{
        f"aut-label-{name}": (
            AUT, {"vertices": ["A", "B"], "edges": [{**EDGE_AB, "label": label}]}, "edges[0] field 'label' must be a string"
        )
        for name, label in (("null", None), ("number", 7), ("array", ["p"]))
    },
    # labels that cycle notation cannot write back
    "aut-vertex-comma": (
        AUT, {"vertices": ["A,B", "C"], "edges": [{"label": "p", "ends": ["A,B", "C"]}]}, "label 'A,B'"
    ),
    "aut-vertex-empty": (
        AUT, {"vertices": ["", "C"], "edges": [{"label": "p", "ends": ["", "C"]}]}, "label ''"
    ),
    "aut-vertex-space": (
        AUT, {"vertices": ["A B", "C"], "edges": [{"label": "p", "ends": ["A B", "C"]}]}, "label 'A B'"
    ),
    "aut-label-close-paren": (AUT, {"vertices": ["A", "B"], "edges": [{**EDGE_AB, "label": "x)"}]}, "label 'x)'"),
    "aut-label-open-paren": (AUT, {"vertices": ["A", "B"], "edges": [{**EDGE_AB, "label": "(y"}]}, "label '(y'"),
    # a measure that names one map twice; the orbit {aec, dbf} listed twice
    # would otherwise keep only half of the written mass
    **{
        f"{name}-map-twice": (
            argv,
            {"weights": [{"mapping": m, "weight": "1/24"} for m in ("aec", "dbf", "aec", "dbf")]},
            "measure names the map 'aec' twice",
        )
        for name, argv in (
            ("measure", MEASURE),
            ("build-measure", ["geneo", "build", "--measure", "{doc}", "--context", "{ctx}"]),
        )
    },
    # json.load would keep only the last weight of a repeated key
    **{
        f"{name}-object-key-twice": (
            argv, RawJSON('{"weights": {"aec": "1/24", "dbf": "1/24", "aec": "1/12"}}'),
            "JSON object repeats the key 'aec'",
        )
        for name, argv in (
            ("measure", MEASURE),
            ("build-measure", ["geneo", "build", "--measure", "{doc}", "--context", "{ctx}"]),
        )
    },
    "verify-document-key-twice": (
        VERIFY, RawJSON('{"coeffs": [], "coeffs": []}'), "JSON object repeats the key 'coeffs'"
    ),
    # without a kind the space would read as full and drop its members
    "verify-kindless-space-with-members": (
        VERIFY, ("op", SPACE, {"domain": list("pqrstu"), "members": [[0] * 6]}),
        "space field 'members' needs the field 'kind' set to 'explicit'",
    ),
    # a stated space kind must agree with the fields
    **{
        f"verify-{kind}-space-with-{field}": (
            VERIFY, ("op", SPACE, {"kind": kind, "domain": list("pqrstu"), **fields}),
            f"space field '{field}' does not belong to a space of kind '{kind}'",
        )
        for kind, field, fields in (
            ("full", "constraints", {"constraints": [{"coeffs": [1] * 6, "rhs": 0}]}),
            ("full", "ball", {"ball": {"norm": "sup", "radius": 1}}),
            ("full", "members", {"members": [[0] * 6]}),
            ("constrained", "members", {"constraints": [{"coeffs": [1] * 6, "rhs": 0}], "members": [[0] * 6]}),
            ("explicit", "constraints", {"members": [[0] * 6], "constraints": [{"coeffs": [1] * 6, "rhs": 0}]}),
            ("explicit", "ball", {"members": [[0] * 6], "ball": {"norm": "sup", "radius": 1}}),
        )
    },
    **{
        f"verify-constrained-space-{name}": (
            VERIFY, ("op", SPACE, {"kind": "constrained", "domain": list("pqrstu"), **fields}),
            "a space of kind 'constrained' needs a nonempty field 'constraints' or a field 'ball'",
        )
        for name, fields in (("bare", {}), ("without-constraints", {"constraints": []}))
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_validation_failure(tmp_path, ctx_file, f4_file, capsys, case):
    argv, doc, fragment = MALFORMED[case]
    if isinstance(doc, tuple):
        base, path, value = doc
        doc = read_json(f4_file if base == "op" else ctx_file)
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    doc_path = tmp_path / "doc.json"
    if isinstance(doc, RawJSON):
        doc_path.write_text(doc)
    else:
        write_json(doc_path, doc)
    files = {"doc": str(doc_path), "ctx": ctx_file, "op": f4_file}
    code, out, err = run_cli(capsys, *[arg.format(**files) for arg in argv])
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == ["error"]
    assert fragment in payload["error"]
    assert "Traceback" not in err


# sha256 of stdout for the paper's analyses.  Output is promised byte-identical
# for identical inputs, so a changed digest is a change of the CLI contract.
GOLDEN = {
    ("census-c6c3",): "e41e7d2069e7955b1f4cf1cdcc507de68345f31e3889ff3f3b105d1abcab7ded",
    ("codes", "--n", "3"): "85ae24e975b7f1f7c16720dc0afb07603955fdefa8678b036c86172b492bec1d",
    ("codes", "--n", "3", "--format", "csv"): "3ded3d1a2054f4a37bdc030357c78e23446055b3b62412d421e9ab95f1f1a0f1",
    ("codes", "--n", "4"): "4c528097baf3e45904e35bb51d332ea2d25c5949736c1bd892c7b874bc07be97",
    ("codes", "--n", "4", "--format", "csv"): "f7281903056515c36b0e440719792a941b86ef198616a4149502fc3bdba9739d",
    ("codes", "--n", "4", "--analyze"): "cea702c93078394c51de76d625f48067ebde5c8f864fb56b68acf8ed218238aa",
    ("codes", "--n", "5"): "05cf0922182a3839830e1d0a65fd4f4eadbc8fa71a11f41d68f3ae25f5e444aa",
    ("codes", "--n", "5", "--format", "csv"): "4f6c6e0c46fe11c711eaf696a42949ddf7126babca3c655b3185b31d0dbb2569",
    ("codes", "--n", "5", "--analyze"): "7b5e018076a519f71892a0798421ad4aec1399db0dca596e41645a587db6a60f",
    ("geneo", "decompose", "{c7_operator}"): "5ac3ccebb76c2f1b3670eec49fb4ad76ca289428addcefe8ee5ad9bbd3d68265",
}
GOLDEN_K4_OPERATOR = {
    "build": "031ebd98bb93890cd0e3ea72f496971fbe1e5dea213d44eb5f6f7859984e9a45",
    "verify": "b1cca920437b5434683c4e0f3d6dc72e61904ea6b47e343658e8510f36da5ca9",
    "decompose": "ccfa0e891094f7a3cb0acad3305a3c54a1d257580550b9c2d2879163ba5ea519",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def c7_operator_file(tmp_path_factory):
    """The operator of a fixed invariant measure on three conjugation orbits of
    bijections of the 7-cycle's edges, with total variation 3/4."""
    ctx = endo_context(edge_automorphism_group(cycle_graph(7)))
    masses = {"bcdefga": Fraction(1, 4), "badcfeg": Fraction(-1, 3), "acegbdf": Fraction(1, 6)}
    weights = {}
    for rep, mass in masses.items():
        o = orbit(rep, ctx)
        weights.update(dict.fromkeys((f.images for f in o.members), mass / o.size))
    op = from_measure(PermutantMeasure(ctx, weights))
    return write_json(tmp_path_factory.mktemp("c7") / "c7.json", docs.operator_to_json(op))


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_output(capsys, c7_operator_file, argv):
    code, out, _ = run_cli(capsys, *[arg.format(c7_operator=c7_operator_file) for arg in argv])
    assert code == 0
    assert sha256(out) == GOLDEN[argv]


def test_golden_k4_transposition_operator(tmp_path, capsys):
    h = transposition_permutant(4, model="edge")
    h_path = write_json(tmp_path / "h.json", permutant_to_json(h))
    code, built, _ = run_cli(capsys, "geneo", "build", "--permutant", h_path)
    assert code == 0
    assert sha256(built) == GOLDEN_K4_OPERATOR["build"]
    op_path = tmp_path / "op.json"
    op_path.write_text(built)
    for command in ("verify", "decompose"):
        code, out, _ = run_cli(capsys, "geneo", command, str(op_path))
        assert code == 0
        assert sha256(out) == GOLDEN_K4_OPERATOR[command]


# sha256 of stdout for orbit censuses and automorphism groups
GOLDEN_SYMMETRY = {
    ("orbits", "--context", "{k4_endo}"): "cc60287c7985df67dc642afd55edb5d52fce32ddcbe45fd5c0308dfeee6ddf6a",
    ("orbits", "--context", "{c6_endo}"): "fe9e13d2c7031e4494a1054256ddeaeb299ddf38d0c9943b92c425ba862f6387",
    ("orbits", "--full", "--context", "{c5_endo}"): "75b43142c4a35356297abdb85aa9bcfab14a8eee3896ef5663301fb6c9cf56bf",
    ("orbits", "--full", "--context", "{c6c3}"): "85fa02b12c4cd820cc717a30e1971d073857a763e3c706ae41e4f9e788c4bef3",
    ("aut", "{k7}", "--edges"): "28288afd4f6ce4f5bfa245e38d6d4b95cf32cc65bade2d17a9393992a2be378f",
    ("aut", "{k7}"): "a873f9ecf8f9cebddf663a700eb87b1f6d787ec4b0eb93e9e0403b52496f4466",
    ("aut", "{petersen}", "--edges"): "dd022ac0ce416332b9ae0a3b90c4ddc2c54d7f9dc24082787ed5b6746fdf0546",
    ("aut", "{petersen}"): "d0226bb144207e2b41270dcfcb26e2fe0111889c3f536a93f7e5bcd84be0e884",
    ("aut", "{k5}", "--edges"): "b138e2f7607ee3ffd217c65439da5a345c727e474718403b8b4567137f1c93f3",
    ("aut", "{k5}"): "098a1490eedf054ab0e96aedc9484ba099764617fcd9162634f5824289acb967",
    ("aut", "{cube}", "--edges"): "00a3ac2433e6378fda63e51b9652d7959208a3ffe9eb194dd501328da3c95127",
    ("aut", "{cube}"): "fdae14103a3fb1eb8b293b4a8c9557df3eef69ca0f3fa47a473a1910e50e2035",
    ("aut", "{triangle_k2_point}", "--edges"): "8e97238f9b5f6cbe0312611705435730b825561cb3ecc690d3439522bbaad558",
    ("aut", "{triangle_k2_point}"): "d69640467bb8703c271c6bb62d0e6ebc1e7b1d6b1da43638a718ea806dcac594",
}

# a triangle, a K2 component and an isolated vertex
TRIANGLE_K2_POINT = graph("ABCDEF", [("x", ("A", "B")), ("y", ("B", "C")), ("z", ("A", "C")), ("w", ("D", "E"))])


@pytest.fixture(scope="module")
def symmetry_files(tmp_path_factory, ctx_file):
    root = tmp_path_factory.mktemp("symmetry")
    files = {"c6c3": ctx_file}
    for name, g in (("k4_endo", complete_graph(4)), ("c5_endo", cycle_graph(5)), ("c6_endo", cycle_graph(6))):
        ctx = endo_context(edge_automorphism_group(g))
        files[name] = write_json(root / f"{name}.json", docs.context_to_json(ctx))
    graphs = {
        "k5": complete_graph(5),
        "k7": complete_graph(7),
        "petersen": census_graph("Petersen"),
        "cube": census_graph("cube"),
        "triangle_k2_point": TRIANGLE_K2_POINT,
    }
    for name, g in graphs.items():
        files[name] = write_json(root / f"{name}.json", graph_document(g))
    return files


def test_aut_edges_lists_each_edge_permutation_once(capsys, symmetry_files):
    # swapping D and E fixes every edge of the triangle, the K2 and the point,
    # so the 12 vertex automorphisms induce only 6 edge permutations, and the
    # stabilizer chain's products on the edges repeat each one twice
    assert vertex_automorphism_group(TRIANGLE_K2_POINT).order == 12
    code, out, err = run_cli(capsys, "aut", symmetry_files["triangle_k2_point"], "--edges")
    assert (code, err) == (0, "")
    printed = json.loads(out)
    assert len(printed["elements"]) == len(set(printed["elements"])) == 6
    reference = FiniteGroup(*automorphism_group_images_by_backtrack(TRIANGLE_K2_POINT, edges=True))
    assert printed == docs.group_to_json(reference)


@pytest.mark.parametrize("argv", sorted(GOLDEN_SYMMETRY))
def test_golden_symmetry_output(capsys, symmetry_files, argv):
    code, out, _ = run_cli(capsys, *[arg.format(**symmetry_files) for arg in argv])
    assert code == 0
    assert sha256(out) == GOLDEN_SYMMETRY[argv]


@pytest.mark.parametrize("template", sorted(GOLDEN) + sorted(GOLDEN_SYMMETRY))
def test_golden_output_again_from_the_memos(capsys, c7_operator_file, symmetry_files, template):
    """A second run in the same process prints the same bytes, and finds every
    context or operator document, code table and orbit partition it reads
    already remembered."""
    argv = [arg.format(c7_operator=c7_operator_file, **symmetry_files) for arg in template]
    digest = {**GOLDEN, **GOLDEN_SYMMETRY}[template]
    first = run_cli(capsys, *argv)
    documents_before = docs._read_text.cache_info()
    tables_before = _code_table.cache_info()
    partitions_before = permutant._code_partition.cache_info()
    again = run_cli(capsys, *argv)
    documents_after = docs._read_text.cache_info()
    tables_after = _code_table.cache_info()
    partitions_after = permutant._code_partition.cache_info()
    assert first == again
    assert again[0] == 0 and sha256(again[1]) == digest
    if argv[0] in ("orbits", "geneo"):
        # the one context or operator document that the command reads
        assert documents_after.hits == documents_before.hits + 1
        assert documents_after.misses == documents_before.misses
    else:
        assert documents_after == documents_before
    if argv[0] == "codes":
        assert tables_after.hits == tables_before.hits + 1
        assert tables_after.misses == tables_before.misses
    if argv[0] in ("orbits", "census-c6c3"):
        assert partitions_after.hits == partitions_before.hits + 1
        assert partitions_after.misses == partitions_before.misses
    else:
        assert partitions_after == partitions_before


# -- orbit censuses against the formatter of image tuples ------------------------


def trivial_context(x_labels, y_labels) -> ActionContext:
    g, k = trivial_group(x_labels), trivial_group(y_labels)
    return ActionContext(g, k, Homomorphism.from_generator_images(g, k, []))


CENSUS_CONTEXTS = {
    "c6c3": c6_c3_context,
    "c5-endo": lambda: endo_context(edge_automorphism_group(cycle_graph(5))),
    "k4-endo": lambda: endo_context(edge_automorphism_group(complete_graph(4))),
    "empty-x": lambda: trivial_context((), ("p", "q")),
    "empty-y": lambda: trivial_context(("a", "b"), ()),
    "multi-character": lambda: endo_context(
        edge_automorphism_group(cycle_graph(4, edge_labels=("e1", "e2", "e3", "e4")))
    ),
}


def reference_form(target_labels):
    """Image tuple -> compact string or label list, the form decided once."""
    if all(len(lab) == 1 for lab in target_labels):
        return lambda images: "".join([target_labels[i] for i in images])
    return lambda images: [target_labels[i] for i in images]


def reference_census(ctx, full: bool) -> dict:
    """The orbit census payload, every map decoded to its image tuple."""
    orbits, census = all_orbits(ctx)
    form = reference_form(ctx.x_labels)
    reps: dict[int, list] = {}
    for o in orbits:
        reps.setdefault(o.size, []).append(form(ctx.map_images(o.codes[0])))
    payload = {
        "total": ctx.map_space_size(),
        "census": {str(size): count for size, count in census.items()},
        "representatives": {str(s): sorted(v) for s, v in sorted(reps.items())},
    }
    if full:
        payload["orbits"] = [[form(ctx.map_images(c)) for c in o.codes] for o in orbits]
    return payload


@pytest.mark.parametrize("name", sorted(CENSUS_CONTEXTS))
def test_map_codes_print_as_their_image_tuples(name):
    ctx = CENSUS_CONTEXTS[name]()
    form, reference = docs.map_code_to_json(ctx), reference_form(ctx.x_labels)
    codes = range(ctx.map_space_size())
    assert [form(c) for c in codes] == [reference(ctx.map_images(c)) for c in codes]


@pytest.mark.parametrize("full", [False, True], ids=["census", "full"])
@pytest.mark.parametrize("name", sorted(CENSUS_CONTEXTS))
def test_orbit_census_prints_the_reference(tmp_path, capsys, name, full):
    ctx = CENSUS_CONTEXTS[name]()
    path = write_json(tmp_path / "ctx.json", docs.context_to_json(ctx))
    code, out, err = run_cli(capsys, "orbits", *(["--full"] if full else []), "--context", path)
    assert (code, err) == (0, "")
    assert out == json.dumps(reference_census(ctx, full), separators=(",", ":")) + "\n"
    if name == "empty-x" and full:
        assert out == '{"total":0,"census":{},"representatives":{},"orbits":[]}\n'
    if name == "empty-y":
        assert '"representatives":{"1":[""]}' in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["codes"])  # --n is required
    assert exc.value.code == 2


def test_group_cap_env(tmp_path, ctx_file, capsys, monkeypatch):
    monkeypatch.setenv("GENEO_MAX_GROUP", "4")
    code, out, _ = run_cli(capsys, "orbits", "--context", ctx_file)
    assert code == 1
    assert "cap" in json.loads(out)["error"]


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_invalid_group_cap_env_is_usage_error(ctx_file, capsys, monkeypatch, value):
    monkeypatch.setenv("GENEO_MAX_GROUP", value)
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--context", ctx_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"GENEO_MAX_GROUP must be a positive integer, got {value!r}" in captured.err


def test_pretty_flag(capsys):
    code, out, _ = run_cli(capsys, "--pretty", "census-c6c3")
    assert code == 0
    assert out.startswith("{\n")


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "geneograph.cli", "census-c6c3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 216


def test_reused_parser_matches_fresh_processes(f4_file, ctx_file, capsys):
    # one parser serves every call in a process: each call must print and exit
    # as a fresh interpreter does, whatever the calls before it were
    requests = [
        ["codes"],  # usage error: --n is required
        ["--seed", "11", "census-c6c3"],
        ["codes", "--n", "4", "--analyze", "--format", "csv"],
        ["--pretty", "codes", "--n", "3", "--analyze"],
        ["codes", "--n", "3", "--analyze"],
        ["codes", "--n", "3", "--format", "csv"],
        ["codes", "--n", "3"],
        ["census-c6c3"],
        ["orbits", "--context", ctx_file],
        ["geneo", "verify", f4_file],
        ["geneo", "decompose", f4_file],
        ["aut", "/nonexistent/graph.json"],
    ]
    src = str(Path(geneograph.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in requests:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "geneograph.cli", *argv], capture_output=True, env=env)
        assert (code, out, err) == (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()), argv
