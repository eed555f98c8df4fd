"""A deterministic field-mutation sweep over the command line.

Each valid document below is walked field by field (every object key, and
the first three entries of every array).  Every field in turn is replaced by
null, true, 5, "x", "1/0", [] or {}, or deleted, and one subcommand runs on
the result through ``cli.main``.  Whatever the input, the command must exit
with 0, 1 or 2 and print JSON, and no exception may escape it.
"""

import copy
import json

import pytest

from geneograph import io as docs
from geneograph.cli import main
from geneograph.geneo import identity_operator
from geneograph.perception import PerceptionPair, constrained_space
from geneograph.perm import generate_group, parse_cycles
from geneograph.permutant import endo_context

ABC = ("a", "b", "c")
S3 = generate_group([parse_cycles("(a,b,c)", ABC), parse_cycles("(a,b)", ABC)])
PAIR = PerceptionPair(constrained_space(ABC, [((1, 1, 1), 0)], ball=("sup", 1)), S3)

DOCUMENTS = {
    "operator": docs.operator_to_json(identity_operator(PAIR)),
    "measurement": [1, "1/2", 0],
    "permutant": {"members": ["bac", "cba", "acb"]},
    "measure": {"weights": [{"mapping": m, "weight": "1/3"} for m in ("bac", "cba", "acb")]},
    "context": docs.context_to_json(endo_context(S3)),
    "graph": {
        "vertices": ["A", "B", "C", "D"],
        "edges": [{"label": lab, "ends": [u, v]} for lab, u, v in ("pAB", "qBC", "rCD", "sDA")],
    },
}
# the command run on each document; {doc} is the mutated file, {op} and {ctx}
# the valid operator and context
COMMANDS = {
    "operator": ["geneo", "verify", "{doc}"],
    "measurement": ["geneo", "apply", "{op}", "{doc}"],
    "permutant": ["permutant", "check", "{doc}", "--context", "{ctx}"],
    "measure": ["measure", "check", "{doc}", "--context", "{ctx}"],
    "context": ["orbits", "--context", "{doc}"],
    "graph": ["aut", "{doc}"],
}
VALUES = (None, True, 5, "x", "1/0", [], {})
DELETE = object()


def field_paths(doc, path=()):
    """The path of the document itself, then of every field below it."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc[:3]) if isinstance(doc, list) else ()
    for key, value in children:
        yield from field_paths(value, path + (key,))


def mutations(doc):
    """(path, value, mutated document) for every field and value; the document
    itself is replaced but not deleted."""
    for path in field_paths(doc):
        for value in VALUES + ((DELETE,) if path else ()):
            holder = {"": copy.deepcopy(doc)}
            parent, key = holder, ""
            for step in path:
                parent, key = parent[key], step
            if value is DELETE:
                del parent[key]
            else:
                parent[key] = value
            yield path, value, holder[""]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_documents_are_valid(tmp_path, capsys):
    files = {name: write_json(tmp_path / f"{name}.json", doc) for name, doc in DOCUMENTS.items()}
    files.update(op=files["operator"], ctx=files["context"])
    for name, argv in COMMANDS.items():
        assert main([arg.format(**{**files, "doc": files[name]}) for arg in argv]) == 0, name
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_field_mutations_give_json_and_an_exit_code(tmp_path, capsys, name):
    files = {
        "op": write_json(tmp_path / "op.json", DOCUMENTS["operator"]),
        "ctx": write_json(tmp_path / "ctx.json", DOCUMENTS["context"]),
    }
    failures = []
    for path, value, doc in mutations(DOCUMENTS[name]):
        files["doc"] = write_json(tmp_path / "doc.json", doc)
        shown = "<deleted>" if value is DELETE else json.dumps(value)
        case = f"{'.'.join(map(str, path)) or '<document>'} = {shown}"
        try:
            code = main([arg.format(**files) for arg in COMMANDS[name]])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is the failure under test
            failures.append(f"{case}: {type(exc).__name__}: {exc}")
            capsys.readouterr()
            continue
        out = capsys.readouterr().out
        try:
            json.loads(out)
        except ValueError:
            failures.append(f"{case}: stdout is not JSON: {out!r}")
        if code not in (0, 1, 2):
            failures.append(f"{case}: exit code {code!r}")
    assert not failures, "\n".join(failures)
