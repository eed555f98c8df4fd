"""The subgraph codes against the earlier, slower form of the same analysis,
kept inline here as the reference.

- Classes: the reference splits the 0/1 edge vectors of K_n, as tuples in
  ``product`` order, into orbits with the closure-based ``orbit_partition``
  of ``helpers`` and one ``Permutation.pullback`` move per generator of the
  edge group.  The library
  labels the integer codes of the vectors instead, with one lookup table per
  generator built by doubling over the bits.
- Code tables: the reference joins each vector to its class through a dict
  keyed by vector tuples and computes its scaled code as one ``matvec`` of
  the integer count table.  The library takes the class ids straight from the
  labeller and adds one column of the count table per doubling step.
- Findings: the reference finds a row's complement and reversal by building
  the vector tuple and looking it up through the old ``row_for``, a string
  join read with ``int(..., 2)``.  The library uses index arithmetic.

Classes must agree for n = 1..6, and tables and findings for n = 3..5.
"""

from itertools import product

import pytest

from geneograph.experiments import (
    CodeFindings,
    CodeRow,
    CodeTable,
    EquivalentPair,
    analyze_code_table,
    build_code_table,
    transposition_permutant,
)
from geneograph.geneo import from_permutant
from geneograph.graph import complete_graph, edge_automorphism_group, subgraph_isomorphism_classes
from geneograph.linalg import matvec

from helpers import orbit_partition

# graphs on n = 0, 1, ..., 6 unlabelled vertices (OEIS A000088)
GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156)


# -- the reference analysis, as first written ------------------------------------


def ref_subgraph_isomorphism_classes(n):
    kn = complete_graph(n)
    moves = [gen.pullback for gen in edge_automorphism_group(kn).generators]
    vectors = product((0, 1), repeat=kn.n_edges)
    return [sorted(orbit) for orbit in orbit_partition(vectors, moves)]


def ref_build_code_table(n):
    permutant = transposition_permutant(n, model="edge")
    op = from_permutant(permutant)
    classes = ref_subgraph_isomorphism_classes(n)
    class_of = {vec: i for i, cls in enumerate(classes) for vec in cls}
    labels = op.source.domain
    size = permutant.size
    counts = [[int(c * size) for c in row] for row in op.coeffs]
    rows = tuple(
        CodeRow(vec, matvec(counts, vec, 0), class_of[vec]) for vec in product((0, 1), repeat=len(labels))
    )
    return CodeTable(n, labels, size, rows, len(classes))


def ref_row_for(table, vector):
    vector = tuple(int(v) for v in vector)
    index = int("".join(map(str, vector)), 2) if vector else 0
    return table.rows[index]


def ref_analyze_code_table(table):
    size = table.permutant_size
    by_class = {}
    for row in table.rows:
        by_class.setdefault(row.class_id, []).append(row)
    finding1 = all(
        sorted(row.scaled_code) == sorted(rows[0].scaled_code) for rows in by_class.values() for row in rows
    )
    finding2 = all(
        ref_row_for(table, tuple(1 - v for v in row.vector)).scaled_code
        == tuple(size - s for s in row.scaled_code)
        for row in table.rows
    )
    reps = {cid: min(rows, key=lambda r: r.vector) for cid, rows in by_class.items()}
    pairs = []
    ids = sorted(reps)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if sorted(reps[a].scaled_code) == sorted(reps[b].scaled_code):
                pairs.append(EquivalentPair(a, b, reps[a].vector, reps[b].vector))
    finding4 = all(
        ref_row_for(table, tuple(reversed(row.vector))).scaled_code == row.scaled_code[::-1]
        for row in table.rows
    )
    return CodeFindings(table.n, table.class_count, finding1, finding2, tuple(pairs), finding4)


# -- the library against the reference ------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_classes_match_the_reference(n):
    classes = subgraph_isomorphism_classes(n)
    assert classes == ref_subgraph_isomorphism_classes(n)
    assert len(classes) == GRAPH_COUNTS[n]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_code_table_matches_the_reference(n):
    table = build_code_table(n)
    assert table == ref_build_code_table(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_findings_match_the_reference(n):
    table = build_code_table(n)
    findings = analyze_code_table(table)
    assert findings == ref_analyze_code_table(table)
    # statements 1 and 2 hold on K_3..K_5; statement 4 fails on K_5, whose
    # edge order a..j is reversed by no vertex permutation, so both of its
    # verdicts are compared
    assert findings.isomorphic_subgraphs_share_codes
    assert findings.complements_map_to_complements
    assert findings.reversals_map_to_reversals == (n < 5)


def test_findings_match_the_reference_on_a_table_where_they_fail():
    # swap the codes of two rows in different classes so that statements 1, 2
    # and 4 fail; both analyses must say so, in the same way
    table = build_code_table(4)
    rows = list(table.rows)
    a, b = 1, 7  # 000001 and 000111 lie in different classes
    assert rows[a].class_id != rows[b].class_id
    rows[a], rows[b] = (
        CodeRow(rows[a].vector, rows[b].scaled_code, rows[a].class_id),
        CodeRow(rows[b].vector, rows[a].scaled_code, rows[b].class_id),
    )
    broken = CodeTable(table.n, table.edge_labels, table.permutant_size, tuple(rows), table.class_count)
    findings = analyze_code_table(broken)
    assert findings == ref_analyze_code_table(broken)
    assert not findings.isomorphic_subgraphs_share_codes
    assert not findings.complements_map_to_complements
    assert not findings.reversals_map_to_reversals
