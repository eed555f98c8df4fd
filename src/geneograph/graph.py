"""Simple undirected graphs, automorphism groups, and induced edge permutations.

The automorphism search lists each group as products of stabilizer-chain
witnesses, which are a group by construction, sorts them, and reads the
greedy generators off the sorted image tuples (``perm._group_generators``),
closing nothing."""

from __future__ import annotations

import string
from dataclasses import dataclass
from itertools import combinations, islice, product
from operator import itemgetter
from typing import Mapping, Sequence

from . import permutant
from .perm import (
    CapExceededError,
    FiniteGroup,
    Permutation,
    _group_generators,
    group_cap,
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


def vertex_automorphism_group(g: Graph) -> FiniteGroup:
    """The group of all adjacency-preserving vertex permutations."""
    return _automorphism_group(g, edges=False)


def _automorphism_group(g: Graph, edges: bool) -> FiniteGroup:
    """The vertex automorphism group, or its image on the edges,
    de-duplicated, with greedy generators.

    A pointwise stabilizer chain (B. D. McKay, Congr. Numer. 30, 1981): level
    v fixes 0 .. v-1 and, for each w > v of v's degree, backtracks from v -> w
    to the first automorphism only, the level's witness for w; the identity
    stands for w = v.  The backtrack prunes on adjacency bitmasks: u may go to
    an unused x of its degree exactly when x's neighbours among the images so
    far are the images of u's earlier neighbours.  The order is the product of
    the level sizes, so CapExceededError, past 10 vertices or group_cap()
    automorphisms, comes before any element is built.  The elements are the
    products t_0 o ... o t_{n-1}, one witness or the identity per level, on
    vertices or on edge ids (a flat table at u * n + v).  On edge ids they
    repeat exactly when ``_edge_products_repeat``, and are then de-duplicated
    before sorting.  The greedy generators are read off the sorted list.
    """
    labels = g.edge_labels if edges else g.vertex_labels
    if edges and not g.edges:
        return FiniteGroup._unchecked(labels, ((),), ())
    n = g.n_vertices
    if n > DEFAULT_VERTEX_CAP:
        raise CapExceededError(f"{n} vertices exceeds the automorphism-search cap {DEFAULT_VERTEX_CAP}")
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    deg, cap = g.degrees(), group_cap()
    candidates = [[w for w in range(n) if deg[w] == deg[v]] for v in range(n)]
    earlier = [[u for u in range(v) if nbr[v] >> u & 1] for v in range(n)]
    images = list(range(n))

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        want = 0
        for u in earlier[v]:
            want |= 1 << images[u]
        for w in candidates[v]:
            if not used >> w & 1 and nbr[w] & used == want:
                images[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    levels, order = [], 1
    for v in range(n):
        fixed = (1 << v) - 1
        witnesses = []
        for w in candidates[v]:
            if w > v and nbr[w] & fixed == nbr[v] & fixed:
                images[:v], images[v] = range(v), w
                if extend(v + 1, fixed | 1 << w):
                    witnesses.append(tuple(images))
        levels.append(witnesses)
        order *= len(witnesses) + 1
    del extend  # the function refers to itself: let it go now, not at the next collection
    if order > cap:
        raise CapExceededError(f"automorphism search exceeded the group cap {cap} (GENEO_MAX_GROUP)")
    if edges:
        edge_id = [0] * (n * n)
        for i, (u, v) in enumerate(g.edges):
            edge_id[u * n + v] = edge_id[v * n + u] = i
        levels = [[tuple([edge_id[t[u] * n + t[v]] for u, v in g.edges]) for t in level] for level in levels]
    elements = [tuple(range(len(labels)))]
    if len(labels) > 1:  # itemgetter(i) returns no tuple
        for level in levels:
            base = elements[:]
            for t in level:
                elements += map(itemgetter(*t), base)
    elements = sorted(set(elements) if edges and _edge_products_repeat(g) else elements)
    return FiniteGroup._unchecked(labels, tuple(elements), tuple(_group_generators(elements)))


def _edge_products_repeat(g: Graph) -> bool:
    """Whether two vertex automorphisms induce one edge permutation: exactly
    when one that is no identity fixes every edge.  Such a map fixes each
    vertex of degree 2 or more, the one point its edges share, and with it
    each neighbour of such a vertex; it may move only isolated vertices,
    among themselves, and the ends of a K2 component."""
    deg = g.degrees()
    return deg.count(0) > 1 or any(deg[u] == deg[v] == 1 for u, v in g.edges)


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
    return _automorphism_group(g, edges=True)


def subgraph_isomorphism_classes(n: int) -> list[list[tuple[int, ...]]]:
    """Partition all 0/1 edge-indicator vectors of K_n into isomorphism classes.

    Classes are orbits under the edge automorphism group acting by
    precomposition; each class is sorted and the list is ordered by canonical
    (lexicographically smallest) representative.  The work is done on the
    integer codes of the vectors (see ``_subgraph_partition``), whose order is
    lexicographic order; the tuples are built only for the result.
    """
    if not 1 <= n <= 6:
        raise CapExceededError(f"subgraph enumeration supports n <= 6, got {n}")
    edge_group = edge_automorphism_group(complete_graph(n))
    codes, sizes = _subgraph_partition(edge_group)
    vectors = list(product((0, 1), repeat=edge_group.degree))
    remaining = iter(codes)
    return [[vectors[c] for c in islice(remaining, size)] for size in sizes]


def _subgraph_partition(edge_group: FiniteGroup) -> tuple[Sequence[int], Sequence[int]]:
    """The isomorphism classes of 0/1 edge vectors under an edge group acting
    by precomposition, as the orbit partition of maps from the m edges to
    {0, 1} (``permutant._code_partition``): every code in class order, each
    class in increasing code order and the classes by smallest code, and the
    class sizes.

    A vector v is the map i -> v[i], and its code has bit m-1-i set exactly
    when v[i] = 1, so code order is ``product((0, 1), repeat=m)`` order, which
    is lexicographic order.  A generator g moves v to v o g^-1, and g and g^-1
    generate the same classes.  The partition is remembered with the census
    partitions and must not be changed.
    """
    generators = tuple(((0, 1), g) for g in edge_group.generator_images)
    return permutant._code_partition(2, edge_group.degree, generators)[:2]
