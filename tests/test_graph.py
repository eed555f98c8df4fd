import random
import sys
from itertools import combinations, permutations

import pytest

from geneograph import graph as graph_module, permutant
from geneograph.graph import (
    Graph,
    NotAnAutomorphismError,
    complete_graph,
    cycle_graph,
    edge_automorphism_group,
    graph,
    induced_edge_permutation,
    parse_graph,
    subgraph_isomorphism_classes,
    vertex_automorphism_group,
)
from geneograph.perm import CapExceededError, Permutation, compose, format_cycles, generate_group, identity, parse_cycles

from conftest import CENSUS_GRAPHS, census_graph
from helpers import automorphism_group_images_by_backtrack, cycles, graph_document

# the graph of the first worked example: C4 plus the chord {B,D}
FIG1 = graph(
    "ABCD",
    [("p", ("A", "B")), ("q", ("B", "C")), ("r", ("C", "D")), ("s", ("A", "D")), ("t", ("B", "D"))],
)


def test_the_graph_module_is_not_shadowed_by_its_builder(monkeypatch):
    # the package exports no name `graph`, so the submodule keeps it
    import geneograph.graph as module

    assert module is sys.modules["geneograph.graph"]

    def refuse(elements):
        raise RuntimeError("patched")

    monkeypatch.setattr("geneograph.graph._group_generators", refuse)
    with pytest.raises(RuntimeError, match="patched"):
        vertex_automorphism_group(complete_graph(4))


def test_parse_k4_document():
    doc = graph_document(complete_graph(4))
    g = parse_graph(doc)
    assert g.n_vertices == 4 and g.n_edges == 6
    assert g.edge_labels == ("p", "q", "r", "s", "t", "u")
    assert g == complete_graph(4)


def test_single_vertex_graph():
    g = parse_graph({"vertices": ["A"], "edges": []})
    assert g.n_vertices == 1 and g.n_edges == 0


def test_loop_rejected():
    with pytest.raises(ValueError, match="loop"):
        parse_graph({"vertices": ["A", "B"], "edges": [{"label": "p", "ends": ["A", "A"]}]})


@pytest.mark.parametrize("field", ["label", "ends"])
def test_edge_without_field_names_it(field):
    edge = {"label": "p", "ends": ["A", "B"]}
    del edge[field]
    with pytest.raises(ValueError, match=rf"^edges\[0\] field '{field}' is missing$"):
        parse_graph({"vertices": ["A", "B"], "edges": [edge]})


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate edge"):
        graph("AB", [("p", ("A", "B")), ("q", ("B", "A"))])


def test_unknown_vertex_rejected():
    with pytest.raises(ValueError, match="unknown vertex"):
        graph("AB", [("p", ("A", "Z"))])


# automorphism groups


def test_fig1_vertex_automorphisms():
    g = vertex_automorphism_group(FIG1)
    assert {format_cycles(p) for p in g} == {"id", "(A,C)", "(B,D)", "(A,C)(B,D)"}


def test_c4_vertex_automorphisms():
    g = vertex_automorphism_group(cycle_graph(4))
    assert g.order == 8
    names = {format_cycles(p) for p in g}
    assert names == {
        "id",
        "(A,B,C,D)",
        "(A,C)(B,D)",
        "(A,D,C,B)",
        "(A,C)",
        "(B,D)",
        "(A,B)(C,D)",
        "(A,D)(B,C)",
    }


def test_k4_vertex_automorphisms():
    assert vertex_automorphism_group(complete_graph(4)).order == 24


def test_automorphisms_preserve_degrees():
    for g in (FIG1, cycle_graph(4), complete_graph(5)):
        deg = g.degrees()
        for p in vertex_automorphism_group(g):
            assert tuple(deg[p(i)] for i in range(g.n_vertices)) == deg


def test_vertex_cap():
    assert vertex_automorphism_group(cycle_graph(10)).order == 20
    with pytest.raises(CapExceededError, match="11 vertices exceeds the automorphism-search cap 10"):
        vertex_automorphism_group(cycle_graph(11))


# induced edge permutations


def test_induced_edge_permutation_cd():
    k4 = complete_graph(4)
    vp = parse_cycles("(C,D)", k4.vertex_labels)
    assert format_cycles(induced_edge_permutation(k4, vp)) == "(q,t)(r,s)"


def test_induced_edge_permutation_ab():
    k4 = complete_graph(4)
    vp = parse_cycles("(A,B)", k4.vertex_labels)
    assert format_cycles(induced_edge_permutation(k4, vp)) == "(q,r)(s,t)"


def test_induced_identity():
    k4 = complete_graph(4)
    assert induced_edge_permutation(k4, parse_cycles("id", k4.vertex_labels)).is_identity()


def test_induced_rejects_non_automorphism():
    vp = parse_cycles("(A,B)", FIG1.vertex_labels)
    with pytest.raises(NotAnAutomorphismError):
        induced_edge_permutation(FIG1, vp)


def test_induced_map_is_homomorphism():
    for g in (FIG1, cycle_graph(4), complete_graph(4)):
        aut = vertex_automorphism_group(g)
        for p in aut:
            for q in aut:
                assert induced_edge_permutation(g, compose(p, q)) == compose(
                    induced_edge_permutation(g, p), induced_edge_permutation(g, q)
                )


# edge automorphism groups


def test_k4_edge_group():
    g = edge_automorphism_group(complete_graph(4))
    assert g.order == 24
    assert g.degree == 6
    assert g.labels == ("p", "q", "r", "s", "t", "u")


def test_c6_edge_group_is_dihedral():
    g = edge_automorphism_group(cycle_graph(6))
    assert g.order == 12
    assert g.labels == ("a", "b", "c", "d", "e", "f")
    alpha = parse_cycles("(a,b,c,d,e,f)", g.labels)
    beta = parse_cycles("(a,f)(b,e)(c,d)", g.labels)
    assert alpha in g and beta in g


def reference_greedy_generators(elements):
    """group_from_elements' greedy picks as first written: regenerate the
    whole subgroup from the identity after every pick."""
    elems = sorted(set(elements), key=lambda p: p.images)
    gens, have = [], {identity(elems[0].n, elems[0].labels)}
    for p in elems:
        if p not in have:
            gens.append(p)
            have = set(generate_group(gens).elements)
            if len(have) == len(elems):
                break
    return tuple(gens)


@pytest.mark.parametrize("name", sorted(CENSUS_GRAPHS))
def test_groups_keep_the_reference_generators(name):
    g = census_graph(name)
    vgroup = vertex_automorphism_group(g)
    egroup = edge_automorphism_group(g)
    assert vgroup.generators == reference_greedy_generators(vgroup.elements)
    assert egroup.generators == reference_greedy_generators(egroup.elements)
    assert set(egroup.elements) == {induced_edge_permutation(g, vp) for vp in vgroup}


def sweep_graphs(count=60, seed=2022):
    """Seeded random graphs on at most 7 vertices: edgeless ones, ones with an
    isolated vertex and a K2 component, and edge densities from sparse to
    complete, so most degree sequences are irregular."""
    rng = random.Random(seed)
    out = [Graph(("A",), (), ()), Graph(tuple("ABC"), (), ()), Graph((), (), ())]
    for k in range(count):
        n = rng.randint(2, 7)
        pairs = [pair for pair in combinations(range(n), 2) if rng.random() < rng.choice((0.2, 0.5, 0.8, 1.0))]
        if k % 4 == 0:
            # vertex 0 isolated, {1, 2} a K2 component
            pairs = [(u, v) for u, v in pairs if u > 2] + ([(1, 2)] if n > 2 else [])
        out.append(Graph(tuple(f"v{i}" for i in range(n)), tuple(pairs), tuple(f"e{j}" for j in range(len(pairs)))))
    return out


@pytest.mark.parametrize("g", sweep_graphs(), ids=lambda g: f"n{g.n_vertices}m{g.n_edges}")
def test_automorphism_search_matches_brute_force(g):
    n, edges = g.n_vertices, set(g.edges)
    preserving = [
        p for p in permutations(range(n)) if all(tuple(sorted((p[u], p[v]))) in edges for u, v in g.edges)
    ]
    vgroup = vertex_automorphism_group(g)
    egroup = edge_automorphism_group(g)
    assert [p.images for p in vgroup.elements] == preserving
    assert vgroup.labels == g.vertex_labels
    assert set(egroup.elements) == {induced_edge_permutation(g, Permutation(p, g.vertex_labels)) for p in preserving}
    assert egroup.labels == g.edge_labels
    assert [p.images for p in egroup.elements] == sorted(p.images for p in egroup.elements)
    assert vgroup.generators == reference_greedy_generators(vgroup.elements)
    assert egroup.generators == reference_greedy_generators(egroup.elements)


@pytest.mark.parametrize("g", sweep_graphs(), ids=lambda g: f"n{g.n_vertices}m{g.n_edges}")
def test_edge_products_repeat_exactly_by_the_rule(g):
    # the vertex group's elements are the chain's products, one each; on the
    # edges they repeat exactly when the rule says, and only then are de-duplicated
    products = [induced_edge_permutation(g, p).images for p in vertex_automorphism_group(g)]
    assert graph_module._edge_products_repeat(g) == (len(set(products)) < len(products))


def _random_regular(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """A d-regular simple graph on n vertices from random stub pairings, retried until simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return sorted(pairs)


def chain_graphs(seed=2023):
    """Seeded graphs on 6-10 vertices, mostly past what the brute-force sweep
    can enumerate: the census graphs and K3,3 as given and randomly relabelled,
    C10, random regular graphs, and random graphs with isolated vertices and
    K2 components, whose vertex group does not act faithfully on the edges."""
    rng = random.Random(seed)
    shapes = [CENSUS_GRAPHS[name] for name in ("Petersen", "cube", "prism5", "K3,3")]
    shapes.append((10, [(i, (i + 1) % 10) for i in range(10)]))
    for name in ("Petersen", "cube", "prism5", "K3,3"):
        n, pairs = CENSUS_GRAPHS[name]
        relabel = rng.sample(range(n), n)
        shapes.append((n, [(relabel[u], relabel[v]) for u, v in pairs]))
    shapes += [(n, _random_regular(n, d, rng)) for n, d in ((8, 3), (10, 3), (10, 4), (9, 4), (8, 5), (10, 6))]
    for _ in range(8):
        n = rng.randint(8, 10)
        isolated, k2 = rng.randint(1, 3), rng.randint(1, 2)
        rest = range(isolated + 2 * k2, n)
        pairs = [(isolated + 2 * i, isolated + 2 * i + 1) for i in range(k2)]
        pairs += [pair for pair in combinations(rest, 2) if rng.random() < 0.5]
        relabel = rng.sample(range(n), n)
        shapes.append((n, [(relabel[u], relabel[v]) for u, v in pairs]))
    out = []
    for n, pairs in shapes:
        pairs = sorted(tuple(sorted(pair)) for pair in pairs)
        out.append(Graph(tuple(f"v{i}" for i in range(n)), tuple(pairs), tuple(f"e{j}" for j in range(len(pairs)))))
    return out


@pytest.mark.parametrize("edges", [False, True], ids=["vertices", "edges"])
@pytest.mark.parametrize("g", chain_graphs(), ids=lambda g: f"n{g.n_vertices}m{g.n_edges}")
def test_stabilizer_chain_matches_the_full_backtrack(g, edges):
    # the same labels, element list and greedy generators, in order
    group = (edge_automorphism_group if edges else vertex_automorphism_group)(g)
    assert (group.labels, group.images, group.generator_images) == automorphism_group_images_by_backtrack(g, edges)
    # the labeled elements, generators and identity, built on first access, agree with the tuples
    assert [p.images for p in group.elements] == list(group.images)
    assert [s.images for s in group.generators] == list(group.generator_images)
    assert group.identity.images == group.images[0]


def test_automorphism_search_stops_at_the_group_cap(monkeypatch):
    # K5 has 120 vertex automorphisms; the search stops once it holds more than the cap
    k5 = complete_graph(5)
    monkeypatch.setenv("GENEO_MAX_GROUP", "120")
    assert vertex_automorphism_group(k5).order == 120
    assert edge_automorphism_group(k5).order == 120
    monkeypatch.setenv("GENEO_MAX_GROUP", "119")
    for build in (vertex_automorphism_group, edge_automorphism_group):
        with pytest.raises(CapExceededError, match=r"^automorphism search exceeded the group cap 119 \(GENEO_MAX_GROUP\)$"):
            build(k5)


def test_small_graph_groups():
    one = vertex_automorphism_group(Graph(("A",), (), ()))
    assert [format_cycles(p) for p in one] == ["id"] and one.generators == ()
    single = graph("AB", [("p", ("A", "B"))])
    assert [format_cycles(p) for p in vertex_automorphism_group(single)] == ["id", "(A,B)"]
    # both vertex automorphisms fix the one edge
    edge = edge_automorphism_group(single)
    assert edge.labels == ("p",) and [format_cycles(p) for p in edge] == ["id"] and edge.generators == ()


def test_edgeless_graph_edge_group():
    g = edge_automorphism_group(Graph(("A", "B", "C"), (), ()))
    assert g.order == 1 and g.degree == 0


# subgraph isomorphism classes


@pytest.mark.parametrize("n,count", [(3, 4), (4, 11), (5, 34), (6, 156)])
def test_class_counts(n, count):
    assert len(subgraph_isomorphism_classes(n)) == count


@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_counts_match_burnside(n):
    # independent count: average number of fixed indicator vectors over the group
    group = edge_automorphism_group(complete_graph(n))
    fixed = sum(2 ** len(cycles(g, include_fixed=True)) for g in group)
    assert fixed % group.order == 0
    assert len(subgraph_isomorphism_classes(n)) == fixed // group.order


def test_classes_partition_everything():
    classes = subgraph_isomorphism_classes(4)
    all_vecs = [vec for cls in classes for vec in cls]
    assert len(all_vecs) == 64
    assert len(set(all_vecs)) == 64


def test_class_representatives_are_lex_minima():
    classes = subgraph_isomorphism_classes(4)
    reps = [cls[0] for cls in classes]
    assert reps == sorted(reps)
    for cls in classes:
        assert cls[0] == min(cls)


def test_triangle_and_star_are_distinct_classes():
    classes = subgraph_isomorphism_classes(4)
    by_vec = {vec: i for i, cls in enumerate(classes) for vec in cls}
    assert by_vec[(1, 1, 1, 0, 0, 0)] != by_vec[(0, 0, 0, 1, 1, 1)]


def test_subgraph_classes_are_remembered_with_the_census_partitions(fresh_memos):
    first = subgraph_isomorphism_classes(4)
    assert subgraph_isomorphism_classes(4) == first
    info = permutant._code_partition.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_class_cap():
    with pytest.raises(CapExceededError):
        subgraph_isomorphism_classes(7)
