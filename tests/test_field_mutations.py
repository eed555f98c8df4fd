"""Field mutations and arbitrary JSON at the command line's input boundary.

A deterministic sweep walks each valid document below field by field (every
object key, and the first three entries of every array).  Every field in turn
is replaced by null, true, 5, "x", "1/0", "1e5000", "1e10000000", [] or {},
or deleted, and one subcommand runs on the result through ``cli.main``.  A Hypothesis test then
feeds every subcommand that reads a file arbitrary JSON: a whole document, or
a valid document with one field replaced.  Whatever the input, the command
must exit with 0, 1 or 2 and print JSON, and no exception may escape it.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

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
VALUES = (None, True, 5, "x", "1/0", "1e5000", "1e10000000", [], {})
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


def fault(argv) -> str | None:
    """What is wrong with one run of the command line, or None: an escaped
    exception, stdout that is not JSON, or an exit code other than 0, 1, 2."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped exception is the failure under test
        return f"{type(exc).__name__}: {exc}"
    out = out.getvalue()
    try:
        json.loads(out)
    except ValueError:
        return f"stdout is not JSON: {out!r}"
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    return None


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_field_mutations_give_json_and_an_exit_code(tmp_path, name):
    files = {
        "op": write_json(tmp_path / "op.json", DOCUMENTS["operator"]),
        "ctx": write_json(tmp_path / "ctx.json", DOCUMENTS["context"]),
    }
    failures = []
    for path, value, doc in mutations(DOCUMENTS[name]):
        files["doc"] = write_json(tmp_path / "doc.json", doc)
        shown = "<deleted>" if value is DELETE else json.dumps(value)
        case = f"{'.'.join(map(str, path)) or '<document>'} = {shown}"
        problem = fault([arg.format(**files) for arg in COMMANDS[name]])
        if problem is not None:
            failures.append(f"{case}: {problem}")
    assert not failures, "\n".join(failures)


# every subcommand that reads a file, with the document it reads as {doc};
# {op}, {ctx} and {phi} are the valid operator, context and measurement
READERS = [
    ("graph", ["aut", "{doc}"]),
    ("graph", ["aut", "--edges", "{doc}"]),
    ("context", ["orbits", "--context", "{doc}"]),
    ("permutant", ["permutant", "check", "{doc}", "--context", "{ctx}"]),
    ("permutant", ["permutant", "check", "{doc}"]),
    ("measure", ["measure", "check", "{doc}", "--context", "{ctx}"]),
    ("measure", ["measure", "check", "{doc}"]),
    ("permutant", ["geneo", "build", "--permutant", "{doc}", "--context", "{ctx}"]),
    ("measure", ["geneo", "build", "--measure", "{doc}", "--context", "{ctx}"]),
    ("operator", ["geneo", "verify", "{doc}"]),
    ("operator", ["geneo", "apply", "{doc}", "{phi}"]),
    ("measurement", ["geneo", "apply", "{op}", "{doc}"]),
    ("operator", ["geneo", "decompose", "{doc}"]),
]
# the field names and values of valid documents, so that arbitrary JSON often
# reaches past the first field check
KEYS = sorted({k for doc in DOCUMENTS.values() for path in field_paths(doc) for k in path if isinstance(k, str)})
WORDS = ["a", "b", "A", "p", "(a,b)", "(a,b,c)", "(a,b)(c,d)", "id", "bac", "1/2", "1/0", "-1", "explicit", "sup"]
SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5) | st.sampled_from(WORDS)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)


@st.composite
def reader_inputs(draw):
    """A reader and its document: arbitrary JSON, or a valid document with one
    field replaced by arbitrary JSON."""
    name, argv = draw(st.sampled_from(READERS))
    value = draw(JSON)
    paths = list(field_paths(DOCUMENTS[name]))
    path = draw(st.sampled_from(paths))
    holder = {"": copy.deepcopy(DOCUMENTS[name])}
    parent, key = holder, ""
    for step in path:
        parent, key = parent[key], step
    parent[key] = value
    return argv, holder[""]


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    files = {
        "op": write_json(root / "op.json", DOCUMENTS["operator"]),
        "ctx": write_json(root / "ctx.json", DOCUMENTS["context"]),
        "phi": write_json(root / "phi.json", DOCUMENTS["measurement"]),
    }
    return root, files


@settings(max_examples=300, deadline=None)
@given(case=reader_inputs())
def test_arbitrary_json_gives_json_and_an_exit_code(reader_files, case):
    argv, doc = case
    root, files = reader_files
    files = {**files, "doc": write_json(root / "doc.json", doc)}
    problem = fault([arg.format(**files) for arg in argv])
    assert problem is None, f"{argv} on {json.dumps(doc)}: {problem}"
