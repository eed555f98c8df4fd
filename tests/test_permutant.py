import json
import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from geneograph import geneo, io as docs, permutant
from geneograph.cli import main as cli_main
from geneograph.experiments import (
    cube_context,
    cube_face_reflections,
    cube_reflection_measure,
    cube_rotation_group,
    transposition_permutant,
)
from geneograph.graph import complete_graph, cycle_graph, edge_automorphism_group
from geneograph.perm import (
    CapExceededError,
    Homomorphism,
    Permutation,
    compose,
    format_cycles,
    generate_group,
    parse_cycles,
)
from geneograph.permutant import (
    ActionContext,
    GeneralizedPermutant,
    Mapping,
    PermutantMeasure,
    all_orbits,
    alpha_action,
    endo_context,
    is_generalized_permutant,
    is_permutant_measure,
    measure_on_orbit,
    orbit,
    orbitals,
    uniform_measure,
)

from conftest import EDGES3, EDGES6, dihedral_edge_context
from helpers import (
    closure,
    cycles,
    image_size_measure,
    orbit_partition,
    setwise_stabilizer_context,
    small_image_permutant,
    symmetric_group,
)


def label_oracle_alpha(ctx, g, f):
    """Re-derive alpha(g, f) by chasing labels through explicit dictionaries."""
    tginv = ctx.T(g.inverse())
    g_map = {ctx.x_labels[i]: ctx.x_labels[g(i)] for i in range(len(ctx.x_labels))}
    f_map = {ctx.y_labels[j]: ctx.x_labels[f(j)] for j in range(len(ctx.y_labels))}
    t_map = {ctx.y_labels[j]: ctx.y_labels[tginv(j)] for j in range(len(ctx.y_labels))}
    return "".join(g_map[f_map[t_map[y]]] for y in ctx.y_labels)


# mappings and their compact form


def test_compact_roundtrip_example(c6c3):
    m = c6c3.mapping("caf")
    assert m.compact() == "caf"
    assert m.images == c6c3.read_map("caf") == c6c3.read_map(["c", "a", "f"]) == (2, 0, 5)


def test_parse_mapping_errors(c6c3):
    with pytest.raises(ValueError, match=r"^expected 3 characters for source \('g', 'h', 'i'\), got 'ca'$"):
        c6c3.read_map("ca")
    with pytest.raises(ValueError, match="^unknown target label 'z'$"):
        c6c3.read_map("caz")
    with pytest.raises(ValueError, match="^unknown target label 'zz'$"):
        c6c3.read_map(["a", "zz"])
    with pytest.raises(ValueError, match="^image count does not match the source size$"):
        c6c3.read_map(["a", "b"])


C6C3_DIHEDRAL = dihedral_edge_context()


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3))
def test_compact_roundtrip_random(images):
    m = Mapping(EDGES3, EDGES6, tuple(images))
    assert C6C3_DIHEDRAL.mapping(m.compact()) == m
    assert C6C3_DIHEDRAL.read_map(m.compact()) == m.images


# the alpha action


def test_alpha_identity(c6c3):
    f = c6c3.mapping("aec")
    assert alpha_action(c6c3.G.identity, f, c6c3) == f


def test_alpha_on_aec_by_rotation(c6c3):
    alpha = parse_cycles("(a,b,c,d,e,f)", EDGES6)
    f = c6c3.mapping("aec")
    moved = alpha_action(alpha, f, c6c3)
    assert moved.compact() == "dbf"
    assert label_oracle_alpha(c6c3, alpha, f) == "dbf"


def test_alpha_on_aec_by_reflection(c6c3):
    beta = parse_cycles("(a,f)(b,e)(c,d)", EDGES6)
    f = c6c3.mapping("aec")
    moved = alpha_action(beta, f, c6c3)
    assert moved.compact() == "dbf"
    assert label_oracle_alpha(c6c3, beta, f) == "dbf"


def test_alpha_matches_label_oracle_everywhere(c6c3):
    for f in list(c6c3.all_mappings())[::17]:
        for g in c6c3.G:
            assert alpha_action(g, f, c6c3).compact() == label_oracle_alpha(c6c3, g, f)


def test_alpha_rejects_outside_group(c6c3):
    stray = parse_cycles("(a,b)", EDGES6)
    assert stray not in c6c3.G
    with pytest.raises(ValueError, match=r"^\(a,b\) is not in the acting group$"):
        alpha_action(stray, c6c3.mapping("aec"), c6c3)


def test_left_action_axioms(c6c3):
    fs = [c6c3.mapping(s) for s in ("aec", "bfd", "aaa", "abd")]
    for f in fs:
        assert alpha_action(c6c3.G.identity, f, c6c3) == f
        for g1 in c6c3.G:
            for g2 in c6c3.G:
                lhs = alpha_action(g2, alpha_action(g1, f, c6c3), c6c3)
                rhs = alpha_action(compose(g2, g1), f, c6c3)
                assert lhs == rhs


# orbits


def test_orbit_of_aec(c6c3):
    o = orbit("aec", c6c3)
    assert o.size == 2
    assert {m.compact() for m in o} == {"aec", "dbf"}


def test_orbit_of_bfd(c6c3):
    o = orbit("bfd", c6c3)
    assert o.size == 4
    assert {m.compact() for m in o} == {"bfd", "eca", "cae", "fdb"}


def test_orbit_of_constant_map(c6c3):
    o = orbit("aaa", c6c3)
    assert o.size == 6
    assert {m.compact() for m in o} == {"aaa", "bbb", "ccc", "ddd", "eee", "fff"}


def test_orbit_is_alpha_stable_bijection(c6c3):
    o = orbit("bfd", c6c3)
    members = set(o.members)
    for g in c6c3.G:
        assert {alpha_action(g, h, c6c3) for h in members} == members


def test_census_of_c6_c3(c6c3):
    orbits, census = all_orbits(c6c3)
    assert census == {2: 1, 4: 1, 6: 5, 12: 15}
    assert len(orbits) == 22
    assert sum(o.size for o in orbits) == 216
    for o in orbits:
        assert c6c3.G.order % o.size == 0


def test_census_matches_full_group_oracle(c6c3):
    # independent partition: apply every group element to every map, no BFS
    orbit_sets = set()
    for f in c6c3.all_mappings():
        orbit_sets.add(frozenset(alpha_action(g, f, c6c3) for g in c6c3.G))
    sizes = sorted(len(o) for o in orbit_sets)
    orbits, _ = all_orbits(c6c3)
    assert sorted(o.size for o in orbits) == sizes
    assert {frozenset(o.members) for o in orbits} == orbit_sets


def test_orbit_count_matches_fixed_point_average(c6c3):
    # counting oracle: the number of orbits equals the average number of
    # maps fixed by each group element
    fixed_total = 0
    maps = list(c6c3.all_mappings())
    for g in c6c3.G:
        fixed_total += sum(1 for f in maps if alpha_action(g, f, c6c3) == f)
    assert fixed_total % c6c3.G.order == 0
    orbits, _ = all_orbits(c6c3)
    assert fixed_total // c6c3.G.order == len(orbits) == 22


def burnside_orbit_count(ctx):
    # f is fixed by g iff g o f = f o T(g): on each cycle c of T(g), f sends one
    # point anywhere on a cycle d of g with len(d) dividing len(c)
    total = 0
    for g in ctx.G:
        g_lengths = [len(d) for d in cycles(g, include_fixed=True)]
        fixed = 1
        for c in cycles(ctx.T(g), include_fixed=True):
            fixed *= sum(length for length in g_lengths if len(c) % length == 0)
        total += fixed
    assert total % ctx.G.order == 0
    return total // ctx.G.order


@pytest.mark.parametrize(
    "build, expected",
    [
        (dihedral_edge_context, 22),
        (lambda: endo_context(edge_automorphism_group(cycle_graph(5))), 327),
        (lambda: endo_context(edge_automorphism_group(cycle_graph(6))), 4003),
        (lambda: endo_context(edge_automorphism_group(complete_graph(4))), 2013),
    ],
    ids=["c6c3", "c5-endo", "c6-endo", "k4-endo"],
)
def test_orbit_count_matches_burnside(build, expected):
    ctx = build()
    assert burnside_orbit_count(ctx) == len(all_orbits(ctx)[0]) == expected


def test_trivial_group_gives_singletons():
    from geneograph.perm import trivial_group

    ctx = endo_context(trivial_group(("x", "y")))
    orbits, census = all_orbits(ctx)
    assert census == {1: 4}


def test_two_element_census_oracle():
    s2 = symmetric_group(("a", "b"))
    ctx = endo_context(s2)
    orbits, census = all_orbits(ctx)
    # conjugation on the four maps {a,b} -> {a,b}: the two constants swap,
    # the two bijections are central
    assert census == {1: 2, 2: 1}
    assert {frozenset(m.compact() for m in o) for o in orbits} == {
        frozenset({"aa", "bb"}),
        frozenset({"ab"}),
        frozenset({"ba"}),
    }


def test_all_orbits_cap():
    # the C8 edge endo-context has 8^8 maps, over the 10^6 cap
    ctx = endo_context(edge_automorphism_group(cycle_graph(8)))
    with pytest.raises(CapExceededError, match="map space has 16777216 elements, over the cap 1000000"):
        all_orbits(ctx)


def reference_all_orbits(ctx):
    """all_orbits as written on labeled maps: image tuples in lexicographic
    order, each orbit a tuple of Mappings sorted by images."""
    points = product(range(ctx.G.degree), repeat=ctx.K.degree)
    orbits = [
        tuple(Mapping(ctx.y_labels, ctx.x_labels, im) for im in sorted(o))
        for o in orbit_partition(points, ctx.moves)
    ]
    census = {}
    for o in orbits:
        census[len(o)] = census.get(len(o), 0) + 1
    return orbits, dict(sorted(census.items()))


MULTI_CHARACTER_C4 = ("e1", "e2", "e3", "e4")


def random_generator_images(rng, n):
    """One to three generators on n points, as image tuples.  About half the
    sets move points only within the two blocks of a random split, so that
    their group is intransitive."""
    points = list(range(n))
    rng.shuffle(points)
    cut = rng.randint(1, n - 1) if rng.random() < 0.5 else n
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(n))
        for block in (points[:cut], points[cut:]):
            moved = rng.sample(block, len(block))
            for a, b in zip(block, moved):
                images[a] = b
        gens.append(tuple(images))
    return gens


def rotation_inversion_context():
    """The rotations of three points acting on maps between them, with T the
    inversion, so that alpha(g, f) = g o f o g."""
    r = parse_cycles("(a,b,c)", ("a", "b", "c"))
    rotations = generate_group([r])
    return ActionContext(rotations, rotations, Homomorphism.from_generator_images(rotations, rotations, [(r, r.inverse())]))


def intransitive_endo_contexts(count=4, seed=20261020):
    """Endo-contexts of seeded generator sets on 3 to 5 points whose group is intransitive."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        labels = tuple("ABCDE")[: 3 + len(found) % 3]
        group = generate_group([Permutation(images, labels) for images in random_generator_images(rng, len(labels))])
        if len(group.coordinate_orbits()) > 1:
            found.append(endo_context(group))
    return found


@pytest.mark.parametrize(
    "build",
    [
        dihedral_edge_context,
        lambda: endo_context(edge_automorphism_group(cycle_graph(5))),
        lambda: endo_context(edge_automorphism_group(cycle_graph(6))),
        lambda: endo_context(edge_automorphism_group(complete_graph(4))),
        lambda: endo_context(edge_automorphism_group(cycle_graph(4, edge_labels=MULTI_CHARACTER_C4))),
        rotation_inversion_context,
        *(lambda ctx=ctx: ctx for ctx in intransitive_endo_contexts()),
    ],
    ids=["c6c3", "c5-endo", "c6-endo", "k4-endo", "c4-endo-multichar", "rotations-inverted"]
    + [f"intransitive-{i}" for i in range(4)],
)
def test_all_orbits_matches_labeled_reference(build, fresh_memos):
    # nothing in the library re-checks the partition: these references do,
    # the orbits found by closure, in the same order, and the Burnside count
    ctx = build()
    orbits, census = all_orbits(ctx)
    ref_orbits, ref_census = reference_all_orbits(ctx)
    assert census == ref_census
    assert sum(census.values()) == burnside_orbit_count(ctx)
    assert [o.members for o in orbits] == ref_orbits
    assert [o.representative() for o in orbits] == [o[0] for o in ref_orbits]
    assert [o.size for o in orbits] == [len(o) for o in ref_orbits]


def test_orbits_command_prints_labels_of_the_reference(tmp_path, capsys):
    ctx = endo_context(edge_automorphism_group(cycle_graph(4, edge_labels=MULTI_CHARACTER_C4)))
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(docs.context_to_json(ctx)))
    assert cli_main(["orbits", "--full", "--context", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    ref_orbits, _ = reference_all_orbits(ctx)
    assert payload["orbits"] == [[docs.mapping_to_json(f) for f in o] for o in ref_orbits]
    assert payload["orbits"][0][0] == ["e1", "e1", "e1", "e1"]


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_orbit_from_codes_matches_public_constructor(c6c3):
    maps = list(c6c3.all_mappings())
    for o in all_orbits(c6c3)[0] + [orbit("aec", c6c3)]:
        built = GeneralizedPermutant(c6c3, [f.images for f in reversed(o.members)])
        # like a permutant from codes, a checked one holds its codes alone until asked for more
        assert set(built.__dict__) == {"context", "codes"}
        assert o == built and built == o
        assert hash_or_error(o) == hash_or_error(built)
        assert o.members == built.members and o.size == built.size
        assert o.representative() == built.representative()
        assert [f in o for f in maps] == [f in built for f in maps] == [f in set(o.members) for f in maps]


def test_membership_needs_a_mapping_of_the_context(c6c3):
    o = orbit("aec", c6c3)
    f = c6c3.mapping("aec")
    assert f in o
    assert "aec" not in o
    assert Mapping(("x", "y", "z"), f.target_labels, f.images) not in o


def test_membership_of_an_image_tuple(c6c3):
    o = orbit("aec", c6c3)
    member, other = c6c3.read_map("aec"), c6c3.read_map("aaa")
    assert member in o and other not in o
    assert [c6c3.map_images(c) in o for c in range(216)] == [c in o.codes for c in range(216)]
    # tuples of other contexts whose base-6 code is that of "aec" (0*36 + 4*6 + 2):
    # too short for three source points, and an image past the six target points
    assert c6c3.map_code(member) == c6c3.map_code((4, 2)) == c6c3.map_code((0, 0, 26))
    assert (4, 2) not in o and (0, 0, 26) not in o and (0, 4, 2, 0) not in o
    k4 = endo_context(edge_automorphism_group(complete_graph(4)))
    assert k4.read_map("pqrstu") not in o


# the partition memo


def orbits_output(ctx, tmp_path, capsys, *flags) -> str:
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(docs.context_to_json(ctx)))
    assert cli_main(["orbits", *flags, "--context", str(path)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("flags", [(), ("--full",)], ids=["census", "full"])
def test_relabeled_contexts_share_one_partition(tmp_path, capsys, fresh_memos, flags):
    first, second = (
        endo_context(edge_automorphism_group(cycle_graph(5, edge_labels=labels)))
        for labels in ("abcde", ("e1", "e2", "e3", "e4", "e5"))
    )
    out_first = orbits_output(first, tmp_path, capsys, *flags)
    out_second = orbits_output(second, tmp_path, capsys, *flags)
    info = permutant._code_partition.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert "e1" in out_second and "e1" not in out_first
    permutant._code_partition.cache_clear()
    assert orbits_output(second, tmp_path, capsys, *flags) == out_second
    assert permutant._code_partition.cache_info().misses == 1


def test_the_same_group_under_another_homomorphism_is_another_entry(c6c3, fresh_memos):
    endo = endo_context(c6c3.G)
    for ctx in (c6c3, endo, c6c3, endo):
        all_orbits(ctx)
    info = permutant._code_partition.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
    assert all_orbits(c6c3)[1] == {2: 1, 4: 1, 6: 5, 12: 15}
    assert sum(all_orbits(endo)[1].values()) == burnside_orbit_count(endo)
    # the same G, X and Y, with T the identity or the inversion of the rotations of three points
    inverted = rotation_inversion_context()
    fixed = [
        [o.representative().compact() for o in all_orbits(ctx)[0] if o.size == 1]
        for ctx in (endo_context(inverted.G), inverted)
    ]
    assert fixed == [["abc", "bca", "cab"], ["acb", "bac", "cba"]]
    assert permutant._code_partition.cache_info().currsize == 4


def test_the_memo_drops_the_least_recently_used_partition(fresh_memos):
    contexts = [
        setwise_stabilizer_context("abcd"[:nx], "abcd"[:ny]) for nx in (2, 3, 4) for ny in range(1, nx + 1)
    ]
    assert len(contexts) == permutant._REMEMBERED_PARTITIONS + 1
    for ctx in contexts[:-1]:
        all_orbits(ctx)
    all_orbits(contexts[0])
    all_orbits(contexts[-1])
    info = permutant._code_partition.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 9, permutant._REMEMBERED_PARTITIONS)
    all_orbits(contexts[0])
    assert permutant._code_partition.cache_info().hits == 2
    all_orbits(contexts[1])
    assert permutant._code_partition.cache_info().misses == 10


def test_the_cap_is_checked_before_the_memo(fresh_memos, monkeypatch):
    ctx = endo_context(edge_automorphism_group(cycle_graph(5)))
    all_orbits(ctx)
    monkeypatch.setattr(permutant, "DEFAULT_MAP_SPACE_CAP", 5**5 - 1)
    with pytest.raises(CapExceededError, match="map space has 3125 elements, over the cap 3124"):
        all_orbits(ctx)
    assert permutant._code_partition.cache_info().hits == 0


# orbitals


ORBITAL_CONTEXTS = {
    "c6c3": (dihedral_edge_context, 2),
    "c7-endo": (lambda: endo_context(edge_automorphism_group(cycle_graph(7))), 4),
    "k4-endo": (lambda: endo_context(edge_automorphism_group(complete_graph(4))), 3),
    "k5-endo": (lambda: endo_context(edge_automorphism_group(complete_graph(5))), 3),
    "stabilizer": (lambda: setwise_stabilizer_context("ABCD", "AB"), 3),
}


@pytest.mark.parametrize("name", list(ORBITAL_CONTEXTS))
def test_orbitals_partition_the_pairs_into_orbits(name):
    build, count = ORBITAL_CONTEXTS[name]
    ctx = build()
    found = orbitals(ctx)
    assert len(found) == count
    pairs = [p for o in found for p in o]
    assert sorted(pairs) == list(product(range(ctx.K.degree), range(ctx.G.degree)))
    assert all(list(o) == sorted(o) for o in found)
    assert [o[0] for o in found] == sorted(o[0] for o in found)
    for o in found:
        y, x = o[0]
        assert set(o) == {(ctx.T(g)(y), g(x)) for g in ctx.G.elements}


def test_orbit_splits_match_the_closure_reference(c6c3, fresh_memos):
    """Coordinate orbits, orbitals and the decomposition's conjugation orbits
    against the closure-based split of the helpers, in the same order: on
    seeded generator sets on 3 to 7 points and on the C6/C3 context, whose T
    is not the identity."""
    rng = random.Random(20261019)
    endo = []
    for i in range(30):
        labels = tuple("ABCDEFG")[: 3 + i % 5]
        gens = random_generator_images(rng, len(labels))
        endo.append(endo_context(generate_group([Permutation(images, labels) for images in gens])))
    assert {len(ctx.G.coordinate_orbits()) == 1 for ctx in endo} == {True, False}
    for ctx in [c6c3] + endo:
        for group in (ctx.G, ctx.K):
            moves = [g.images.__getitem__ for g in group.generators]
            assert group.coordinate_orbits() == [sorted(o) for o in orbit_partition(range(group.degree), moves)]
        pair_moves = [lambda p, t=ctx.T(g).images, g=g.images: (t[p[0]], g[p[1]]) for g in ctx.G.generators]
        pairs = product(range(ctx.K.degree), range(ctx.G.degree))
        expected_orbitals = [tuple(sorted(o)) for o in orbit_partition(pairs, pair_moves)]
        assert orbitals(ctx) == expected_orbitals
        if ctx is c6c3:
            continue
        # the first conjugation orbit of each distinct (size, orbital counts), in orbit order
        n = ctx.G.degree
        orbital_of = {p: w for w, o in enumerate(expected_orbitals) for p in o}
        columns = {}
        for o in orbit_partition(permutations(range(n)), ctx.moves):
            members = tuple(sorted(o))
            counts = [0] * len(expected_orbitals)
            for y, x in enumerate(members[0]):
                counts[orbital_of[y, x]] += 1
            columns.setdefault((len(members), tuple(counts)), members)
        expected = (tuple(expected_orbitals), tuple((size, counts, o) for (size, counts), o in columns.items()))
        assert geneo._orbit_columns(n, tuple(g.images for g in ctx.G.generators)) == expected


def test_orbit_matches_the_reference_closure_and_its_all_orbits_entry(c6c3, fresh_memos):
    """orbit(f, ctx) against the reference closure of f and the entry of
    all_orbits that holds f: for every map of C6/C3 and of the rotations with
    inversion, and for seeded maps of ten seeded endo contexts on 3 to 5
    points."""
    rng = random.Random(20261021)
    rotations = rotation_inversion_context()
    cases = [(c6c3, list(c6c3.all_mappings())), (rotations, list(rotations.all_mappings()))]
    for i in range(10):
        labels = tuple("ABCDE")[: 3 + i % 3]
        gens = random_generator_images(rng, len(labels))
        ctx = endo_context(generate_group([Permutation(images, labels) for images in gens]))
        maps = [Mapping(labels, labels, tuple(rng.choices(range(len(labels)), k=len(labels)))) for _ in range(20)]
        cases.append((ctx, maps))
    sizes = set()
    for ctx, maps in cases:
        entry = {f: o for o in all_orbits(ctx)[0] for f in o.members}
        for f in maps:
            got = orbit(f, ctx)
            expected = sorted(closure((f.images,), ctx.moves))
            assert got.members == tuple(Mapping(ctx.y_labels, ctx.x_labels, h) for h in expected)
            assert got == entry[f]
            sizes.add(got.size)
    assert 1 in sizes and max(sizes) >= 12, sorted(sizes)


def test_c7_conjugation_orbit_tables_are_constant_on_orbitals():
    ctx = endo_context(edge_automorphism_group(cycle_graph(7)))
    found = orbitals(ctx)
    orbits = list(orbit_partition(permutations(range(7)), ctx.moves))
    assert len(orbits) == 387
    for o in orbits:
        table = [[0] * 7 for _ in range(7)]
        for h in o:
            for y, x in enumerate(h):
                table[y][x] += 1
        assert all(len({table[y][x] for y, x in pairs}) == 1 for pairs in found)


# permutant validation


def test_union_of_orbits_is_permutant(c6c3):
    union = {f.images for f in orbit("aec", c6c3).members + orbit("bfd", c6c3).members}
    ok, witness = is_generalized_permutant(union, c6c3)
    assert ok and witness is None
    GeneralizedPermutant(c6c3, tuple(union))  # constructor agrees


def test_partial_orbit_is_not_permutant(c6c3):
    ok, witness = is_generalized_permutant({c6c3.read_map("aec")}, c6c3)
    assert not ok
    h, g = witness
    assert h.compact() == "aec"
    assert alpha_action(g, h, c6c3).compact() == "dbf"


def test_empty_set_is_permutant(c6c3):
    ok, witness = is_generalized_permutant(set(), c6c3)
    assert ok and witness is None
    assert GeneralizedPermutant(c6c3, ()).size == 0


def test_constructor_rejects_unclosed(c6c3):
    with pytest.raises(ValueError, match="alpha-closed") as exc:
        GeneralizedPermutant(c6c3, (c6c3.read_map("aec"),))
    assert isinstance(exc.value, permutant.NotAlphaClosedError)
    f, g = exc.value.witness
    assert (f.compact(), str(g)) == ("aec", "(a,b,c,d,e,f)")


MALFORMED_IMAGE_TUPLES = {
    "too-short": (0, 4),
    "too-long": (0, 4, 2, 1),
    "string-entry": (0, "e", 2),
    "float-entry": (0, 4.0, 2),
    "bool-entry": (0, True, 2),
    "past-the-target": (0, 6, 2),
    "negative": (0, -1, 2),
    "not-a-tuple": "aec",
}


@pytest.mark.parametrize("case", MALFORMED_IMAGE_TUPLES)
def test_public_constructors_reject_a_malformed_image_tuple(c6c3, case):
    bad = MALFORMED_IMAGE_TUPLES[case]
    message = f"^{re.escape(repr(bad))} is not the image tuple of a map from 3 points to 6 points$"
    good = c6c3.read_map("dbf")
    with pytest.raises(ValueError, match=message):
        GeneralizedPermutant(c6c3, [good, bad])
    with pytest.raises(ValueError, match=message):
        is_generalized_permutant([good, bad], c6c3)
    with pytest.raises(ValueError, match=message):
        PermutantMeasure(c6c3, {good: 1, bad: 1})


def test_public_constructors_take_image_tuples_not_mappings(c6c3):
    f = c6c3.mapping("aec")
    message = f"^{re.escape(repr(f))} is not the image tuple"
    with pytest.raises(ValueError, match=message):
        GeneralizedPermutant(c6c3, [f])
    with pytest.raises(ValueError, match=message):
        PermutantMeasure(c6c3, {f: 1})
    with pytest.raises(ValueError, match=f"^{re.escape(repr([0, 4, 2]))} is not the image tuple"):
        GeneralizedPermutant(c6c3, [[0, 4, 2]])


def test_measure_reads_each_weight_and_drops_zeros(c6c3):
    aec, dbf = c6c3.read_map("aec"), c6c3.read_map("dbf")
    m = PermutantMeasure(c6c3, {aec: "1/2", dbf: 0.5, c6c3.read_map("aaa"): "0"})
    assert m.weights == {aec: Fraction(1, 2), dbf: Fraction(1, 2)}
    assert all(type(w) is Fraction for w in m.weights.values())
    assert m.weight(c6c3.mapping("aec")) == Fraction(1, 2) and m.weight(c6c3.mapping("aaa")) == 0
    assert [f.compact() for f in m.support] == ["aec", "dbf"]
    with pytest.raises(TypeError):
        PermutantMeasure(c6c3, {aec: None})


def test_measure_weight_of_an_image_tuple(c6c3):
    aec = c6c3.read_map("aec")
    m = measure_on_orbit(orbit("aec", c6c3), "1/3")
    assert m.weight(aec) == m.weight(c6c3.mapping("aec")) == Fraction(1, 3)
    assert m.weight(c6c3.read_map("aaa")) == 0
    # a tuple too short for three source points, an image past the six target
    # points, a list, and a Mapping of another source set
    for bad in [(0, 4), (0, 4, 6), [0, 4, 2]]:
        with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not the image tuple of a map from 3 points to 6 points"):
            m.weight(bad)
    with pytest.raises(ValueError, match="does not go from"):
        m.weight(Mapping(("x", "y", "z"), c6c3.x_labels, aec))


# transposition permutants


def test_k4_edge_transposition_permutant():
    h = transposition_permutant(4, model="edge")
    names = {format_cycles(m.as_permutation()) for m in h}
    assert names == {
        "(q,r)(s,t)",
        "(p,q)(s,u)",
        "(p,t)(r,u)",
        "(p,r)(t,u)",
        "(p,s)(q,u)",
        "(q,t)(r,s)",
    }
    assert h.size == 6


def test_k2_vertex_transposition_permutant():
    h = transposition_permutant(2, model="vertex")
    assert h.size == 1
    assert format_cycles(h.members[0].as_permutation()) == "(A,B)"


def test_k5_edge_transpositions_form_single_orbit():
    h = transposition_permutant(5, model="edge")
    assert h.size == 10
    assert set(orbit(h.members[0], h.context).members) == set(h.members)


def test_transposition_permutant_range():
    with pytest.raises(ValueError):
        transposition_permutant(1)
    with pytest.raises(ValueError):
        transposition_permutant(7)


# permutant measures


def test_uniform_measure_on_transpositions_is_invariant():
    h = transposition_permutant(4, model="edge")
    m = uniform_measure(h)
    ok, witness = is_permutant_measure(m)
    assert ok and witness is None
    assert m.total_variation() == 1


def test_cube_rotation_group_order():
    assert cube_rotation_group().order == 24


def test_cube_reflections_form_one_orbit_of_size_three():
    ctx = cube_context()
    h1, h2, h3 = cube_face_reflections()
    o = orbit(h1, ctx)
    assert o.size == 3
    assert set(o.members) == {h1, h2, h3}


def test_cube_reflection_measure_is_invariant():
    m = cube_reflection_measure(Fraction(1, 3))
    ok, _ = is_permutant_measure(m)
    assert ok
    assert len(m.support) == 3


def test_unbalanced_weights_are_rejected(c6c3):
    aec, dbf = sorted(orbit("aec", c6c3).members, key=lambda m: m.images)
    m = PermutantMeasure(c6c3, {aec.images: 1, dbf.images: 2})
    ok, witness = is_permutant_measure(m)
    assert not ok
    f, g = witness
    assert m.weight(alpha_action(g, f, c6c3)) != m.weight(f)


def full_scan_witness(m):
    """Invariance over the support and every group element, in element order."""
    for f in m.support:
        for g in m.context.G:
            if m.weight(alpha_action(g, f, m.context)) != m.weight(f):
                return False, (f, g)
    return True, None


def generator_scan_witness(m):
    """The first support map, and for it the first generator of G in
    generator order, whose move changes the weight; None if there is none."""
    for f in m.support:
        for g in m.context.G.generators:
            if m.weight(alpha_action(g, f, m.context)) != m.weight(f):
                return f, g
    return None


@pytest.mark.parametrize(
    "build",
    [
        dihedral_edge_context,
        lambda: endo_context(edge_automorphism_group(cycle_graph(5))),
        lambda: endo_context(edge_automorphism_group(complete_graph(4))),
    ],
    ids=["c6c3", "c5-endo", "k4-endo"],
)
def test_measure_witness_matches_full_scan(build):
    # invariant measures on a few orbits, then one weight changed, one member
    # dropped, or one stray map added: the verdict is that of the full scan,
    # and the witness that of the scan over the generators
    ctx = build()
    rng = random.Random(len(ctx.x_labels) * 100 + len(ctx.y_labels))

    def random_map():
        return ctx.mapping([rng.choice(ctx.x_labels) for _ in ctx.y_labels])

    witnesses = set()
    for _ in range(12):
        weights = {}
        for _ in range(rng.randint(1, 3)):
            w = Fraction(rng.randint(1, 5), rng.randint(1, 7))
            weights.update({f: w for f in orbit(random_map(), ctx).members})
        members = sorted(weights, key=lambda f: f.images)
        changed = dict(weights)
        changed[rng.choice(members)] += 1
        dropped = dict(weights)
        del dropped[rng.choice(members)]
        stray = dict(weights)
        stray[random_map()] = Fraction(-1, 2)
        for w in (weights, changed, dropped, stray):
            m = PermutantMeasure(ctx, {f.images: v for f, v in w.items()})
            ok, witness = is_permutant_measure(m)
            assert ok == full_scan_witness(m)[0]
            assert witness == (None if ok else generator_scan_witness(m))
            if not ok:
                f, g = witness
                assert g in ctx.G.generators
                assert m.weight(alpha_action(g, f, ctx)) != m.weight(f)
            witnesses.add(witness)
        assert is_permutant_measure(PermutantMeasure(ctx, {f.images: v for f, v in weights.items()})) == (True, None)
    assert len(witnesses) > 3


def test_measure_drops_zero_weights(c6c3):
    o = orbit("aec", c6c3)
    m = PermutantMeasure(c6c3, {o.members[0].images: 0})
    assert m.support == ()
    assert m.total_variation() == 0


# the subset-stabilizer examples


@pytest.fixture(scope="module")
def stab4_2():
    return setwise_stabilizer_context("ABCD", "AB")


def test_stabilizer_context_shape(stab4_2):
    assert stab4_2.G.order == 4  # 2! x 2!
    assert stab4_2.K.order == 2
    assert stab4_2.map_space_size() == 16


def test_small_image_sets_are_permutants(stab4_2):
    for m in (1, 2, 3):
        h = small_image_permutant(stab4_2, m)
        ok, _ = is_generalized_permutant({f.images for f in h.members}, stab4_2)
        assert ok
    assert small_image_permutant(stab4_2, 1).size == 0
    assert small_image_permutant(stab4_2, 2).size == 4  # the constants
    assert small_image_permutant(stab4_2, 3).size == 16


def test_image_size_measures_are_invariant(stab4_2):
    m1 = image_size_measure(stab4_2, 1)
    assert is_permutant_measure(m1)[0]
    assert all(w == Fraction(1, 4) for w in m1.weights.values())
    m2 = image_size_measure(stab4_2, 2)
    assert is_permutant_measure(m2)[0]
    assert all(w == Fraction(1, 24) for w in m2.weights.values())
    assert len(m2.support) == 12


def test_measure_on_orbit_helper(c6c3):
    m = measure_on_orbit(orbit("bfd", c6c3), "1/8")
    assert is_permutant_measure(m)[0]
    assert m.total_variation() == Fraction(1, 2)
