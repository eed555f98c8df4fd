"""The package holds only library code, layered as the paper builds it.

Both rules are read from the source with ``ast``, so nothing is imported:

* every public module-level function, class or constant of
  ``src/geneograph`` is referenced outside its own definition (in ``src/``,
  ``demos/`` or ``bench/``, including ``__init__``'s exports) or named in the
  README as API;
* the lower layers (permutations, perception pairs, linear algebra and the
  alpha action) import nothing from the graph, operator, document,
  experiment or command-line modules;
* every function decorated with ``functools.cache`` or ``lru_cache`` is a
  process memo that the ``fresh_memos`` fixture of ``tests/conftest.py``
  replaces, and the README's paragraph on process memos names it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geneograph"
LOWER_LAYERS = ("perm", "perception", "linalg", "permutant")
UPPER_LAYERS = {"graph", "geneo", "io", "experiments", "cli"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each public module-level def, class or assigned name with its statement."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out.update((name, node) for name in names if not name.startswith("_"))
    return out


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in the tree,
    apart from inside the statement ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller_or_is_documented():
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    callers = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    outside = set().union(*(referenced_names(parse(path)) for path in callers))
    readme = (ROOT / "README.md").read_text()
    unused = []
    for path, tree in modules.items():
        elsewhere = outside.union(*(referenced_names(other) for other in modules.values() if other is not tree))
        for name, node in public_definitions(tree).items():
            if name in elsewhere or re.search(rf"\b{re.escape(name)}\b", readme):
                continue
            if name not in referenced_names(tree, skip=node):
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"public names without a caller or a README mention: {unused}"


def imported_modules(tree: ast.Module) -> set[str]:
    """The geneograph modules a module imports, by their short names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("geneograph"):
                continue
            module = (node.module or "").removeprefix("geneograph").lstrip(".")
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("geneograph.")
            )
    return out


def test_lower_layers_import_no_upper_layer():
    crossings = {
        name: sorted(imported_modules(parse(PACKAGE / f"{name}.py")) & UPPER_LAYERS) for name in LOWER_LAYERS
    }
    assert {name: found for name, found in crossings.items() if found} == {}


def memo_functions(tree: ast.Module) -> list[str]:
    """The functions, at any depth, decorated with ``cache`` or ``lru_cache``,
    called or not and through ``functools`` or not."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("cache", "lru_cache"):
                    found.append(node.name)
    return found


def fixture_memos() -> set[str]:
    """The memos that ``fresh_memos`` replaces: the ``MEMOS`` of the tests' conftest."""
    tree = parse(ROOT / "tests" / "conftest.py")
    assignment = next(
        node for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "MEMOS" for t in node.targets)
    )
    return set(ast.literal_eval(assignment.value))


def test_every_memo_is_replaced_by_the_fixture_and_named_in_the_readme():
    memos = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py")) for name in memo_functions(parse(path))}
    assert memos == fixture_memos()
    paragraph = next(p for p in (ROOT / "README.md").read_text().split("\n\n") if p.startswith("**Process memos.**"))
    assert [memo for memo in sorted(memos) if f"`{memo}`" not in paragraph] == []
