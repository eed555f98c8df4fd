import pytest

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
from geneograph.perm import CapExceededError, compose, format_cycles, generate_group, identity, parse_cycles

from conftest import CENSUS_GRAPHS, census_graph
from helpers import cycles, graph_document

# the graph of the first worked example: C4 plus the chord {B,D}
FIG1 = graph(
    "ABCD",
    [("p", ("A", "B")), ("q", ("B", "C")), ("r", ("C", "D")), ("s", ("A", "D")), ("t", ("B", "D"))],
)


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


def test_class_cap():
    with pytest.raises(CapExceededError):
        subgraph_isomorphism_classes(7)
