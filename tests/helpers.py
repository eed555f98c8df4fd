"""Builders that only the tests use: the symmetric group, subset-stabilizer
contexts with their image-cardinality permutants and measures, the JSON
forms of a graph, a permutant and a single group, and the cycles of a
permutation."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from geneograph import io as docs
from geneograph.graph import Graph
from geneograph.perm import FiniteGroup, Homomorphism, Permutation, group_from_elements
from geneograph.permutant import ActionContext, GeneralizedPermutant, PermutantMeasure


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
    T = Homomorphism(G, K, table)
    return ActionContext(G, K, T)


def small_image_permutant(ctx: ActionContext, m: int) -> GeneralizedPermutant:
    """All maps Y -> X whose image has fewer than m elements."""
    members = tuple(f for f in ctx.all_mappings() if f.image_size() < m)
    return GeneralizedPermutant(ctx, members)


def image_size_measure(ctx: ActionContext, m: int) -> PermutantMeasure:
    """Weight 1/(m |H_m|) on every map with image of size exactly m."""
    h_m = [f for f in ctx.all_mappings() if f.image_size() == m]
    if not h_m:
        raise ValueError(f"no maps with image size {m}")
    w = Fraction(1, m * len(h_m))
    return PermutantMeasure(ctx, {f: w for f in h_m})


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
    """One group document read on its own, with a fresh cycle reader."""
    return docs._group_from_json(doc, docs._cycle_reader())[0]


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
