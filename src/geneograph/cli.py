"""Command-line front end.

Every subcommand prints a machine-readable payload (JSON unless --format csv)
on stdout and diagnostics on stderr.  Exit codes: 0 success, 1 validation
failure (with a witness in the payload where one exists), 2 usage error.
Identical inputs produce byte-identical output, and every verdict is exact:
no check samples.  The GENEO_MAX_GROUP environment variable overrides the
default group-closure size cap; a value that is not a positive integer is a
usage error.

The argument parser is built once per process, on the first call of main,
and reused by every later call: it holds nothing a request supplies.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import accumulate, takewhile

from . import io as docs
from .experiments import build_code_table, c6_c3_context
from .geneo import apply, decompose_to_measure, from_measure, from_permutant
from .graph import edge_automorphism_group, parse_graph, vertex_automorphism_group
from .perm import CapExceededError, format_cycles, group_cap
from .permutant import GeneralizedPermutant, NotAlphaClosedError, _partition, is_permutant_measure


class ValidationFailure(Exception):
    """A check that ran to completion and rejected its input; carries the payload."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("error", "validation failed"))
        self.payload = payload


def _alpha_failure(payload: dict, witness) -> ValidationFailure:
    """The failure of an alpha check: the payload followed by its witness (map, group element)."""
    f, g = witness
    witness_doc = {"mapping": docs.mapping_to_json(f), "generator": format_cycles(g)}
    return ValidationFailure({**payload, "witness": witness_doc})


def _load(path: str):
    """Read a JSON document; an object that repeats a key is rejected, naming
    the key, where plain json.load would keep only its last value."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ValueError(f"{path}: JSON object repeats the key {key!r}")
                seen.add(key)
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _context(args, doc=None):
    if doc is not None and isinstance(doc, dict) and "context" in doc:
        return docs.context_from_json(doc["context"])
    if getattr(args, "context", None) is None:
        raise ValueError("no context: pass --context or embed one in the input document")
    return docs.context_from_json(_load(args.context))


def _vector_string(vec) -> str:
    return "".join(str(int(v)) for v in vec)


def cmd_aut(args) -> dict:
    automorphisms = edge_automorphism_group if args.edges else vertex_automorphism_group
    return docs.group_to_json(automorphisms(parse_graph(_load(args.graph))))


def _orbit_census(ctx, full: bool) -> dict:
    """The orbit census of a context's map space, with canonical
    representatives: the first code of each orbit, which the remembered
    partition keeps by orbit size, so a request only formats and sorts them."""
    codes, sizes, representatives = _partition(ctx)
    form = docs.map_code_to_json(ctx)
    payload = {
        "total": ctx.map_space_size(),
        "census": {str(s): len(firsts) for s, firsts in representatives.items()},
        "representatives": {str(s): sorted(map(form, firsts)) for s, firsts in representatives.items()},
    }
    if full:
        payload["orbits"] = [
            [form(c) for c in codes[start : start + size]] for start, size in zip(accumulate(sizes, initial=0), sizes)
        ]
    return payload


def cmd_orbits(args) -> dict:
    return _orbit_census(_context(args), args.full)


def _permutant(path: str, args, failure: dict) -> GeneralizedPermutant:
    """The permutant a document lists, a member perhaps twice; failing with the witness if not alpha-closed."""
    doc = _load(path)
    ctx = _context(args, doc)
    try:
        return GeneralizedPermutant._unchecked(ctx, set(docs.permutant_members_from_json(doc, ctx)))
    except NotAlphaClosedError as exc:
        raise _alpha_failure(failure, exc.witness) from None


def cmd_permutant_check(args) -> dict:
    h = _permutant(args.members, args, {"ok": False, "error": "not a generalized permutant"})
    return {"ok": True, "size": h.size}


def cmd_measure_check(args) -> dict:
    doc = _load(args.measure)
    ctx = _context(args, doc)
    m = docs.measure_from_json(doc, ctx)
    ok, witness = is_permutant_measure(m)
    if not ok:
        raise _alpha_failure({"ok": False, "error": "not a permutant measure"}, witness)
    return {
        "ok": True,
        "support": len(m.weights),
        "total_variation": docs.fraction_to_json(m.total_variation()),
    }


def cmd_geneo_build(args) -> dict:
    if args.permutant:
        op = from_permutant(_permutant(args.permutant, args, {"error": "not a generalized permutant"}))
    else:
        doc = _load(args.measure)
        ctx = _context(args, doc)
        op = from_measure(docs.measure_from_json(doc, ctx))
    return docs.operator_to_json(op)


def cmd_geneo_verify(args) -> dict:
    op = docs.operator_from_json(_load(args.operator))
    equivariant, witness = op.equivariance
    payload = {
        "equivariant": equivariant,
        "nonexpansive": op.sup_norm <= 1,
        "operator_norm": docs.fraction_to_json(op.sup_norm),
    }
    if witness is not None:
        payload["witness"] = {"basis_index": witness[0], "generator": format_cycles(witness[1])}
    if not op.is_geneo:
        payload["error"] = "operator is not a GENEO"
        raise ValidationFailure(payload)
    return payload


def cmd_geneo_apply(args) -> list:
    op = docs.operator_from_json(_load(args.operator))
    phi = docs.measurement_from_json(_load(args.measurement), op.source.domain)
    return docs.measurement_to_json(apply(op, phi))


def cmd_geneo_decompose(args) -> dict:
    op = docs.operator_from_json(_load(args.operator))
    return docs.measure_to_json(decompose_to_measure(op))


def cmd_codes(args):
    table = build_code_table(args.n)
    if args.analyze:
        findings = table.findings
        return {
            "n": findings.n,
            "classes": findings.class_count,
            "isomorphic_subgraphs_share_codes": findings.isomorphic_subgraphs_share_codes,
            "complements_map_to_complements": findings.complements_map_to_complements,
            "equivalent_nonisomorphic_pairs": [
                {
                    "class_a": p.class_a,
                    "class_b": p.class_b,
                    "representative_a": _vector_string(p.representative_a),
                    "representative_b": _vector_string(p.representative_b),
                }
                for p in findings.equivalent_nonisomorphic_pairs
            ],
            "reversals_map_to_reversals": findings.reversals_map_to_reversals,
        }
    # row i is the vector with integer code i: its m binary digits
    digits = f"0{len(table.edge_labels)}b"
    if args.format == "csv":
        # no field holds a comma, quote or line break, so no field is quoted;
        # lines end in "\r\n", as the csv module writes them
        lines = [f"{i:{digits}},{' '.join(map(str, row.scaled_code))},{row.class_id}" for i, row in enumerate(table.rows)]
        return "\r\n".join(["vector,scaled_code,class", *lines, ""])
    # every code is k/|H| with 0 <= k <= |H|: render those |H|+1 values once
    size = table.permutant_size
    code_text = [docs.fraction_to_json(Fraction(k, size)) for k in range(size + 1)]
    return {
        "n": table.n,
        "edge_labels": list(table.edge_labels),
        "permutant_size": table.permutant_size,
        "classes": table.class_count,
        "rows": [
            {
                "vector": format(i, digits),
                "code": [code_text[k] for k in row.scaled_code],
                "scaled_code": list(row.scaled_code),
                "class": row.class_id,
            }
            for i, row in enumerate(table.rows)
        ],
    }


def cmd_census(args) -> dict:
    return _orbit_census(c6_c3_context(), full=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geneograph",
        description="Equivariant operators on weighted graphs: automorphisms, "
        "orbit censuses, permutant checks, and operator construction.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aut", help="automorphism group of a graph")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("--edges", action="store_true", help="report the induced edge group")
    p.set_defaults(fn=cmd_aut)

    p = sub.add_parser("orbits", help="orbit census of a map-space action")
    p.add_argument("--context", required=True, help="action context JSON file")
    p.add_argument("--full", action="store_true", help="list every orbit in full")
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("permutant", help="generalized-permutant utilities")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pc = psub.add_parser("check", help="validate alpha-closure of a set of mappings")
    pc.add_argument("members", help="permutant JSON file")
    pc.add_argument("--context", help="action context JSON file")
    pc.set_defaults(fn=cmd_permutant_check)

    p = sub.add_parser("measure", help="permutant-measure utilities")
    msub = p.add_subparsers(dest="subcommand", required=True)
    mc = msub.add_parser("check", help="validate alpha-invariance of a weighting")
    mc.add_argument("measure", help="measure JSON file")
    mc.add_argument("--context", help="action context JSON file")
    mc.set_defaults(fn=cmd_measure_check)

    p = sub.add_parser("geneo", help="operator construction and checks")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    gb = gsub.add_parser("build", help="build an operator from a permutant or measure")
    src = gb.add_mutually_exclusive_group(required=True)
    src.add_argument("--permutant", help="permutant JSON file")
    src.add_argument("--measure", help="measure JSON file")
    gb.add_argument("--context", help="action context JSON file")
    gb.set_defaults(fn=cmd_geneo_build)
    gv = gsub.add_parser("verify", help="check equivariance and non-expansivity")
    gv.add_argument("operator", help="operator JSON file")
    gv.set_defaults(fn=cmd_geneo_verify)
    ga = gsub.add_parser("apply", help="apply an operator to a measurement")
    ga.add_argument("operator", help="operator JSON file")
    ga.add_argument("measurement", help="measurement JSON file")
    ga.set_defaults(fn=cmd_geneo_apply)
    gd = gsub.add_parser("decompose", help="recover a permutant measure from an operator")
    gd.add_argument("operator", help="operator JSON file")
    gd.set_defaults(fn=cmd_geneo_decompose)

    p = sub.add_parser("codes", help="subgraph code table of a complete graph")
    p.add_argument("--n", type=int, choices=(3, 4, 5), required=True)
    p.add_argument("--analyze", action="store_true", help="report findings instead of the table")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_codes)

    p = sub.add_parser("census-c6c3", help="orbit census of maps between the C6 and C3 edge sets")
    p.set_defaults(fn=cmd_census)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _render(payload, pretty: bool) -> str:
    if isinstance(payload, str):
        return payload
    if pretty:
        return json.dumps(payload, indent=2) + "\n"
    return json.dumps(payload, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads the token after an unknown flag as the subcommand and names
    # that token; so parse the leading flags alone, before a subcommand that
    # takes no arguments, and name the ones left unknown
    head = list(takewhile(lambda a: a.startswith("-") and a != "--", argv))
    unknown = parser.parse_known_args([*head, "census-c6c3"])[1] if head else []
    if unknown:
        parser.error("unrecognized arguments: " + " ".join(unknown))
    args = parser.parse_args(argv)
    if args.command == "codes" and args.analyze and args.format == "csv":
        parser.error("--analyze reports JSON findings; drop --format csv")
    try:
        group_cap()
    except ValueError as exc:
        parser.error(str(exc))
    # the payload is rendered inside the try: a number too long to print is
    # a failure like any other
    failure = None
    try:
        try:
            payload = args.fn(args)
        except ValidationFailure as exc:
            payload, failure = exc.payload, exc
        text = _render(payload, args.pretty)
    except (ValueError, KeyError, OSError, CapExceededError) as exc:
        failure = exc
        text = _render({"error": str(exc)}, args.pretty)
    sys.stdout.write(text)
    if failure is None:
        return 0
    print(f"error: {failure}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
