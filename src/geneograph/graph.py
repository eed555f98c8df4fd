"""Simple undirected graphs, automorphism groups, and induced edge permutations."""

from __future__ import annotations

import string
from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping, Sequence

from .perm import (
    CapExceededError,
    FiniteGroup,
    Permutation,
    _label_orbits,
    group_from_elements,
    trivial_group,
)

DEFAULT_VERTEX_CAP = 10


class NotAnAutomorphismError(ValueError):
    """A vertex permutation does not preserve the edge set."""


@dataclass(frozen=True)
class Graph:
    """A simple graph: labeled vertices, labeled edges, implicit incidence map.

    Edges are stored as sorted index pairs in input order; no loops or
    duplicate edges.  Every label must be written back unchanged by cycle
    notation: nonempty, without whitespace, commas or parentheses.
    """

    vertex_labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    edge_labels: tuple[str, ...]

    def __post_init__(self):
        for label in self.vertex_labels + self.edge_labels:
            if not label or any(ch.isspace() or ch in ",()" for ch in label):
                raise ValueError(f"label {label!r} cannot be written in cycle notation")
        n = len(self.vertex_labels)
        if len(set(self.vertex_labels)) != n:
            raise ValueError("duplicate vertex labels")
        if len(self.edge_labels) != len(self.edges):
            raise ValueError("edge_labels and edges must have the same length")
        if len(set(self.edge_labels)) != len(self.edge_labels):
            raise ValueError("duplicate edge labels")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {self.vertex_labels[u]!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            if u > v:
                raise ValueError("edge pairs must be stored sorted")
            if (u, v) in seen:
                raise ValueError(
                    f"duplicate edge {{{self.vertex_labels[u]}, {self.vertex_labels[v]}}}"
                )
            seen.add((u, v))

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[bool]]:
        n = self.n_vertices
        adj = [[False] * n for _ in range(n)]
        for u, v in self.edges:
            adj[u][v] = adj[v][u] = True
        return adj

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def graph(vertices: Sequence[str], edges: Sequence[tuple[str, tuple[str, str]]]) -> Graph:
    """Build a Graph from vertex names and (edge label, (end, end)) pairs."""
    vidx = {v: i for i, v in enumerate(vertices)}
    pairs = []
    labels = []
    for label, (a, b) in edges:
        for name in (a, b):
            if name not in vidx:
                raise ValueError(f"unknown vertex label {name!r}")
        u, v = sorted((vidx[a], vidx[b]))
        pairs.append((u, v))
        labels.append(label)
    return Graph(tuple(vertices), tuple(pairs), tuple(labels))


def parse_graph(document: Mapping) -> Graph:
    """Validate a graph JSON document {"vertices": [...], "edges": [{"label", "ends"}]}:
    two arrays, vertex names and edge labels strings.

    Raises ValueError naming the first malformed field.
    """
    try:
        vertices = list(document["vertices"])
        edge_docs = list(document["edges"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph document needs 'vertices' and 'edges': {exc}") from exc
    for key in ("vertices", "edges"):
        if not isinstance(document[key], (list, tuple)):
            raise ValueError(f"graph field '{key}' must be an array")
    if not all(isinstance(v, str) for v in vertices):
        raise ValueError("vertices must be strings")
    edges = []
    for k, doc in enumerate(edge_docs):
        if not isinstance(doc, Mapping):
            raise ValueError(f"edges[{k}] must be an object with 'label' and 'ends', got {doc!r}")
        for key in ("label", "ends"):
            if key not in doc:
                raise ValueError(f"edges[{k}] field '{key}' is missing")
        ends = doc["ends"]
        if not isinstance(ends, (list, tuple)) or len(ends) != 2:
            raise ValueError(f"edge {doc.get('label')!r} must have exactly two ends")
        if not all(isinstance(end, str) for end in ends):
            raise ValueError(f"edges[{k}].ends must be vertex names, got {ends!r}")
        if not isinstance(doc["label"], str):
            raise ValueError(f"edges[{k}] field 'label' must be a string")
        edges.append((doc["label"], (ends[0], ends[1])))
    return graph(vertices, edges)


def _edge_name_run(m: int) -> tuple[str, ...]:
    if m <= 26:
        return tuple(string.ascii_lowercase[:m])
    return tuple(f"e{i + 1}" for i in range(m))


# Edge order of the complete graph on A,B,C,D used throughout the subgraph-code
# experiment: p={A,B}, q={B,C}, r={A,C}, s={A,D}, t={B,D}, u={C,D}.
K4_EDGE_SCHEME = (
    ("p", (0, 1)),
    ("q", (1, 2)),
    ("r", (0, 2)),
    ("s", (0, 3)),
    ("t", (1, 3)),
    ("u", (2, 3)),
)


def complete_graph(n: int) -> Graph:
    """K_n with vertices A, B, ...; for n=4 the fixed p..u edge scheme."""
    if not 1 <= n <= 10:
        raise ValueError(f"complete_graph supports 1 <= n <= 10, got {n}")
    vertices = tuple(string.ascii_uppercase[:n])
    if n == 4:
        labels = tuple(lab for lab, _ in K4_EDGE_SCHEME)
        pairs = tuple(pair for _, pair in K4_EDGE_SCHEME)
    else:
        pairs = tuple(combinations(range(n), 2))
        labels = _edge_name_run(len(pairs))
    return Graph(vertices, pairs, labels)


def cycle_graph(
    n: int,
    vertex_labels: Sequence[str] | None = None,
    edge_labels: Sequence[str] | None = None,
) -> Graph:
    """C_n with consecutive edges a={A,B}, b={B,C}, ... and a closing edge."""
    if n < 3:
        raise ValueError("a cycle graph needs at least 3 vertices")
    vertices = tuple(vertex_labels) if vertex_labels else tuple(string.ascii_uppercase[:n])
    pairs = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    labels = tuple(edge_labels) if edge_labels else _edge_name_run(n)
    return Graph(vertices, pairs, labels)


def _automorphism_images(g: Graph) -> list[tuple[int, ...]]:
    """Image tuples of all adjacency-preserving vertex permutations, in
    lexicographic order, by backtracking with degree pruning."""
    n = g.n_vertices
    if n > DEFAULT_VERTEX_CAP:
        raise CapExceededError(f"{n} vertices exceeds the automorphism-search cap {DEFAULT_VERTEX_CAP}")
    adj = g.adjacency()
    deg = g.degrees()
    images = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def backtrack(v: int):
        if v == n:
            found.append(tuple(images))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if all(adj[v][u] == adj[w][images[u]] for u in range(v)):
                images[v] = w
                used[w] = True
                backtrack(v + 1)
                used[w] = False
        images[v] = -1

    backtrack(0)
    return found


def vertex_automorphism_group(g: Graph) -> FiniteGroup:
    """The group of all adjacency-preserving vertex permutations."""
    autos = _automorphism_images(g)
    return group_from_elements([Permutation(im, g.vertex_labels) for im in autos])


def induced_edge_permutation(g: Graph, vp: Permutation) -> Permutation:
    """The edge permutation e={u,v} -> {vp(u), vp(v)} induced by a vertex automorphism."""
    if vp.n != g.n_vertices:
        raise ValueError("permutation size does not match the vertex count")
    if vp.labels != g.vertex_labels:
        raise ValueError("permutation labels do not match the graph's vertices")
    edge_index = {pair: i for i, pair in enumerate(g.edges)}
    images = []
    for u, v in g.edges:
        image = tuple(sorted((vp(u), vp(v))))
        if image not in edge_index:
            raise NotAnAutomorphismError(
                f"{{{g.vertex_labels[u]}, {g.vertex_labels[v]}}} maps to a non-edge"
            )
        images.append(edge_index[image])
    return Permutation(tuple(images), g.edge_labels)


def edge_automorphism_group(g: Graph) -> FiniteGroup:
    """Image of the vertex automorphism group on the edge set, de-duplicated."""
    if g.n_edges == 0:
        return trivial_group(())
    edge_index = {pair: i for i, pair in enumerate(g.edges)}
    edge_index.update({(v, u): i for (u, v), i in edge_index.items()})
    induced = {
        tuple([edge_index[vp[u], vp[v]] for u, v in g.edges])
        for vp in _automorphism_images(g)
    }
    return group_from_elements([Permutation(im, g.edge_labels) for im in induced])


def subgraph_isomorphism_classes(n: int) -> list[list[tuple[int, ...]]]:
    """Partition all 0/1 edge-indicator vectors of K_n into isomorphism classes.

    Classes are orbits under the edge automorphism group acting by
    precomposition; each class is sorted and the list is ordered by canonical
    (lexicographically smallest) representative.  The work is done on the
    integer codes of the vectors (see ``_subgraph_orbits``), whose order is
    lexicographic order; the tuples are built only for the result.
    """
    if not 1 <= n <= 6:
        raise CapExceededError(f"subgraph enumeration supports n <= 6, got {n}")
    edge_group = edge_automorphism_group(complete_graph(n))
    _, classes = _subgraph_orbits(edge_group)
    vectors = list(product((0, 1), repeat=edge_group.degree))
    return [[vectors[c] for c in cls] for cls in classes]


def _subgraph_orbits(edge_group: FiniteGroup) -> tuple[list[int], list[list[int]]]:
    """The isomorphism classes of 0/1 edge vectors under an edge group acting
    by precomposition, on integer codes: the class id of every code and each
    class's codes in increasing order, classes numbered by smallest code.

    The code of a vector v on m edges has bit m-1-i set exactly when v[i] = 1,
    so code order is ``product((0, 1), repeat=m)`` order, which is
    lexicographic order.  Precomposing with g moves the bit of edge j to the
    bit of edge g^-1(j), so each generator's table over the 2^m codes is built
    by doubling, one edge at a time from the last: t += [c | mask_j for c in t].
    The tables go through ``perm._label_orbits``, the labeller of the
    alpha-action census.
    """
    m = edge_group.degree
    tables = []
    for g in edge_group.generators:
        inverse = g.inverse().images
        table = [0]
        for j in reversed(range(m)):
            mask = 1 << (m - 1 - inverse[j])
            table += [c | mask for c in table]
        tables.append(table)
    return _label_orbits(1 << m, tables)
