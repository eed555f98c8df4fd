from functools import lru_cache
from itertools import combinations

import pytest

from geneograph import permutant
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


@pytest.fixture
def empty_partition_memo(monkeypatch):
    """A fresh orbit-partition memo for one test, so partitions remembered
    earlier in the process do not count; the process's memo returns after it."""
    memo = permutant._code_partition
    fresh = lru_cache(maxsize=memo.cache_parameters()["maxsize"])(memo.__wrapped__)
    monkeypatch.setattr(permutant, "_code_partition", fresh)
    return fresh


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
