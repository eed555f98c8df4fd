from functools import lru_cache
from importlib import import_module
from itertools import combinations

import pytest

from geneograph.graph import Graph, graph
from geneograph.perm import Homomorphism, generate_group, parse_cycles
from geneograph.permutant import ActionContext

EDGES6 = ("a", "b", "c", "d", "e", "f")
EDGES3 = ("g", "h", "i")


def dihedral_edge_context() -> ActionContext:
    """The C6/C3 edge-set action built directly from dihedral presentations."""
    alpha = parse_cycles("(a,b,c,d,e,f)", EDGES6)
    beta = parse_cycles("(a,f)(b,e)(c,d)", EDGES6)
    gamma = parse_cycles("(g,h,i)", EDGES3)
    delta = parse_cycles("(g,i)", EDGES3)
    g6 = generate_group([alpha, beta])
    g3 = generate_group([gamma, delta])
    hom = Homomorphism.from_generator_images(g6, g3, [(alpha, gamma), (beta, delta)])
    return ActionContext(g6, g3, hom)


@pytest.fixture(scope="session")
def c6c3() -> ActionContext:
    return dihedral_edge_context()


# every process memo of the library, as module.function: each is a
# functools.lru_cache or functools.cache, and test_public_surface checks that
# this list names every one in src/geneograph
MEMOS = (
    "permutant._code_partition",
    "geneo._orbit_columns",
    "experiments._code_table",
    "io._read_text",
    "cli._parser",
)


def pytest_configure(config):
    config.addinivalue_line("markers", "fresh_memos: the test runs on fresh process memos")


def pytest_collection_modifyitems(items):
    """Mark each test that uses fresh_memos, so that ``-k fresh_memos`` selects them."""
    for item in items:
        if "fresh_memos" in getattr(item, "fixturenames", ()):
            item.add_marker("fresh_memos")


@pytest.fixture
def fresh_memos(monkeypatch):
    """Fresh, empty memos of the same sizes for one test, so that what earlier
    tests left in the process's memos does not count; the process's memos
    return after it.  Read a memo's counts through its module, e.g.
    ``permutant._code_partition.cache_info()``."""
    for memo_name in MEMOS:
        module, name = memo_name.split(".")
        memo = getattr(import_module(f"geneograph.{module}"), name)
        fresh = lru_cache(maxsize=memo.cache_parameters()["maxsize"])(memo.__wrapped__)
        monkeypatch.setattr(f"geneograph.{memo_name}", fresh)


def _ring(n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def _prism(n: int) -> list[tuple[int, int]]:
    return _ring(n) + _ring(n, n) + [(i, n + i) for i in range(n)]


# The graphs whose automorphism groups the census benchmark asks for, as
# (vertex count, edge list): cycles, complete graphs, the Petersen graph,
# K3,3, the triangular and pentagonal prisms, and the cube.
CENSUS_GRAPHS = {
    **{f"C{n}": (n, _ring(n)) for n in (6, 7, 8, 9)},
    **{f"K{n}": (n, list(combinations(range(n), 2))) for n in (5, 6, 7)},
    "Petersen": (10, _ring(5) + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    "K3,3": (6, [(i, 3 + j) for i in range(3) for j in range(3)]),
    "prism3": (6, _prism(3)),
    "cube": (8, _prism(4)),
    "prism5": (10, _prism(5)),
}


def census_graph(name: str) -> Graph:
    """A census graph with vertices v0, v1, ... and edges e1, e2, ... in list order."""
    n, edges = CENSUS_GRAPHS[name]
    vertices = [f"v{i}" for i in range(n)]
    return graph(vertices, [(f"e{k + 1}", (vertices[u], vertices[v])) for k, (u, v) in enumerate(edges)])
