"""Builders that only the tests use: the symmetric group, subset-stabilizer
contexts with their image-cardinality permutants and measures, seeded
invariant measures on conjugation orbits of bijections, three diagonal
operators on K4's edges that are not GENEOs, a
homomorphism from a table of labeled permutations, the JSON
forms of a graph, a permutant and a single group, the cycles of a
permutation, the reference breadth-first ``closure`` and the orbit split
built on it that the reference enumerations use, and the full-enumeration
automorphism search that the stabilizer-chain search is checked against."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from random import Random
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from geneograph import io as docs
from geneograph.geneo import LinearOperator, identity_operator
from geneograph.graph import Graph, complete_graph, edge_automorphism_group
from geneograph.perception import PerceptionPair, full_space
from geneograph.perm import CapExceededError, FiniteGroup, Homomorphism, Permutation, group_from_elements
from geneograph.permutant import ActionContext, GeneralizedPermutant, PermutantMeasure, orbit


def symmetric_group(labels) -> FiniteGroup:
    labels = tuple(labels)
    elems = [Permutation(images, labels) for images in permutations(range(len(labels)))]
    return group_from_elements(elems)


def setwise_stabilizer_context(x_labels, y_labels) -> ActionContext:
    """G = permutations of X preserving the subset Y, K = all permutations of Y,
    T = restriction to Y."""
    x_labels = tuple(x_labels)
    y_labels = tuple(y_labels)
    x_index = {lab: i for i, lab in enumerate(x_labels)}
    if any(lab not in x_index for lab in y_labels):
        raise ValueError("Y must be a subset of X")
    y_positions = [x_index[lab] for lab in y_labels]
    y_index = {lab: j for j, lab in enumerate(y_labels)}
    y_set = set(y_labels)
    stabilizer = []
    for images in permutations(range(len(x_labels))):
        p = Permutation(images, x_labels)
        if all(x_labels[p(pos)] in y_set for pos in y_positions):
            stabilizer.append(p)
    G = group_from_elements(stabilizer)
    K = symmetric_group(y_labels)
    table = {}
    for g in G:
        restricted = tuple(y_index[x_labels[g(pos)]] for pos in y_positions)
        table[g] = Permutation(restricted, y_labels)
    return ActionContext(G, K, homomorphism_from_table(G, K, table))


def homomorphism_from_table(source: FiniteGroup, target: FiniteGroup, table) -> Homomorphism:
    """The homomorphism that a table {element: image} of labeled permutations
    states: the images' tuples in the source group's element order."""
    return Homomorphism(source, target, tuple(table[g].images for g in source))


def small_image_permutant(ctx: ActionContext, m: int) -> GeneralizedPermutant:
    """All maps Y -> X whose image has fewer than m elements."""
    members = tuple(f.images for f in ctx.all_mappings() if f.image_size() < m)
    return GeneralizedPermutant(ctx, members)


def image_size_measure(ctx: ActionContext, m: int) -> PermutantMeasure:
    """Weight 1/(m |H_m|) on every map with image of size exactly m."""
    h_m = [f for f in ctx.all_mappings() if f.image_size() == m]
    if not h_m:
        raise ValueError(f"no maps with image size {m}")
    w = Fraction(1, m * len(h_m))
    return PermutantMeasure(ctx, {f.images: w for f in h_m})


def orbit_sum_measure(ctx: ActionContext, rng: Random, k: int, slack: int) -> PermutantMeasure:
    """An invariant measure on k random conjugation orbits of the bijections of
    an endo-context: integer parts +-1..4 over their absolute sum plus slack,
    each spread evenly over its orbit, so the total variation is at most 1."""
    labels = ctx.x_labels
    orbits: list[GeneralizedPermutant] = []
    while len(orbits) < k:
        o = orbit(rng.sample(labels, len(labels)), ctx)
        if o not in orbits:
            orbits.append(o)
    parts = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in orbits]
    denom = sum(map(abs, parts)) + slack
    weights = {ctx.map_images(c): Fraction(a, denom * o.size) for a, o in zip(parts, orbits) for c in o.codes}
    return PermutantMeasure(ctx, weights)


def k4_operators_that_are_not_geneos() -> dict[str, LinearOperator]:
    """Diagonal endo-operators on the edges p..u of K4 under its edge group,
    by the verdict each fails: "nonequivariant" keeps the weights of p and u
    (norm 1; the third generator (p,q)(s,u) is the first to fail), "expansive"
    doubles every weight (equivariant, norm 2), and "both" keeps 3/2 of r's
    weight (norm 3/2)."""
    group = edge_automorphism_group(complete_graph(4))
    identity = identity_operator(PerceptionPair(full_space(group.labels), group))
    diagonals = {"nonequivariant": (1, 0, 0, 0, 0, 1), "expansive": (2,) * 6, "both": (0, 0, "3/2", 0, 0, 0)}
    return {
        name: replace(identity, coeffs=tuple(
            tuple(Fraction(d) if x == y else Fraction(0) for x in range(6)) for y, d in enumerate(diagonal)
        ))
        for name, diagonal in diagonals.items()
    }


def graph_document(g: Graph) -> dict:
    """The graph document that `geneograph.graph.parse_graph` reads."""
    return {
        "vertices": list(g.vertex_labels),
        "edges": [
            {"label": lab, "ends": [g.vertex_labels[u], g.vertex_labels[v]]}
            for lab, (u, v) in zip(g.edge_labels, g.edges)
        ],
    }


def permutant_to_json(h: GeneralizedPermutant) -> dict:
    """A permutant document with its context, as `permutant check` reads it."""
    return {"members": [docs.mapping_to_json(f) for f in h.members], "context": docs.context_to_json(h.context)}


def group_from_json(doc) -> FiniteGroup:
    """One group document read on its own, through the document memo."""
    return docs._remembered(docs._group, doc)


def cycles(p: Permutation, include_fixed: bool = False) -> list[list[int]]:
    """Disjoint cycles of p, each starting at its smallest index, sorted by that index."""
    seen = [False] * p.n
    out = []
    for start in range(p.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = p.images[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = p.images[cur]
        if len(cyc) > 1 or include_fixed:
            out.append(cyc)
    return out


def closure(
    seeds: Iterable[Hashable],
    moves: Sequence[Callable[[Hashable], Hashable]],
    cap: int | None = None,
) -> set:
    """The smallest set containing the seeds and closed under every move, by
    breadth-first search: the reference that the library's coset closure,
    homomorphism extension and single orbits are checked against.

    Points are plain hashable values such as integer image tuples.  The cap
    is checked on every insertion: CapExceededError is raised as soon as the
    set holds more than cap points.
    """
    limit = math.inf if cap is None else cap
    frontier = list(dict.fromkeys(seeds))
    found = set(frontier)
    if len(found) > limit:
        raise CapExceededError(f"group closure exceeded cap {cap}")
    while frontier:
        new = []
        for point in frontier:
            for move in moves:
                image = move(point)
                if image not in found:
                    found.add(image)
                    if len(found) > limit:
                        raise CapExceededError(f"group closure exceeded cap {cap}")
                    new.append(image)
        frontier = new
    return found


def orbit_partition(
    points: Iterable[Hashable], moves: Sequence[Callable[[Hashable], Hashable]]
) -> Iterator[set]:
    """Lazily split points into orbits: the closure of each point not in an
    earlier orbit, in the order the points come.

    The moves must be permutations of the point set (a group action), so that
    each closure is an orbit and no point lies in two of them.  The
    references split with it so that they stay independent of the library's
    lookup-table labeller, ``perm._label_orbits``.
    """
    visited: set = set()
    for point in points:
        if point not in visited:
            orbit = closure((point,), moves)
            visited |= orbit
            yield orbit


def automorphism_group_images_by_backtrack(g: Graph, edges: bool) -> tuple[tuple[str, ...], tuple, tuple]:
    """The labels, element images and generator images of the vertex (or,
    with ``edges`` set, the edge) automorphism group, by backtracking to every
    automorphism, the search the library used before its stabilizer chain:
    the same degree and bitmask pruning, candidates in increasing order, and
    each automorphism mapped to its edge ids when ``edges`` is set.  No cap
    is applied, so keep it to groups of desk size."""
    labels = g.edge_labels if edges else g.vertex_labels
    if edges and not g.edges:
        return labels, ((),), ()
    n = g.n_vertices
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    deg = g.degrees()
    candidates = [[w for w in range(n) if deg[w] == deg[v]] for v in range(n)]
    earlier = [[u for u in range(v) if nbr[v] >> u & 1] for v in range(n)]
    images, found = [-1] * n, []

    def backtrack(v: int, used: int):
        if v == n:
            found.append(tuple(images))
            return
        want = 0
        for u in earlier[v]:
            want |= 1 << images[u]
        for w in candidates[v]:
            if not used >> w & 1 and nbr[w] & used == want:
                images[v] = w
                backtrack(v + 1, used | 1 << w)

    backtrack(0, 0)
    if edges:
        edge_id = {pair: i for i, pair in enumerate(g.edges)}
        found = {tuple(edge_id[tuple(sorted((vp[u], vp[v])))] for u, v in g.edges) for vp in found}
    group = group_from_elements(Permutation(p, labels) for p in found)
    return labels, group.images, group.generator_images
