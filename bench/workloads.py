"""The three benchmark workloads: seeded inputs, request mixes and output checkers.

Every request is generated from the seed before timing and carries its own
checker, built from bench.model alone.  The seed picks only concrete orbits,
measures, relabelings and vectors; the mix of request kinds and size classes
is fixed per workload, and so are the sizes within a class (orbit counts,
support sizes), which cycle with the pool index; different seeds therefore do
about the same work.

A mix lists (kind, size class, requests per cycle, light).  The timed loop
repeats whole cycles, with each class's requests spread evenly through a
cycle.  Smoke runs keep only the light classes.
"""

from __future__ import annotations

import itertools
import json
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from bench import model as M


class CheckError(Exception):
    """An output that disagrees with the benchmark's own computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


@dataclass
class Request:
    """One analysis request: CLI argv, or a library call on the set-up state."""

    kind: str
    size: str
    check: Callable[[object], None]
    argv: list[str] | None = None
    call: Callable[[object, dict], object] | None = None
    code: int = 0


POOL_CYCLES = 8


@dataclass
class Workload:
    name: str
    why: str
    mix: list[tuple[str, str, int, bool]]
    pools: dict[tuple[str, str], list[Request]]
    setup: Callable[[object], dict]

    def cycle(self, smoke: bool) -> list[tuple[str, str]]:
        """One cycle of size classes, each class's share spread evenly through it."""
        slots = []
        for k, s, c, light in self.mix:
            if light or not smoke:
                slots += [((j + 0.5) / c, k, s) for j in range(c)]
        slots.sort(key=lambda t: t[0])
        return [(k, s) for _, k, s in slots]

    def stream(self, smoke: bool) -> Iterator[Request]:
        """Requests cycle after cycle; each class walks through its own pool, so
        seed-chosen inputs do not repeat until the pool is used up."""
        used: dict[tuple[str, str], int] = {}
        for key in itertools.cycle(self.cycle(smoke)):
            n = used.get(key, 0)
            used[key] = n + 1
            pool = self.pools[key]
            yield pool[n % len(pool)]

    def warmups(self, smoke: bool) -> list[Request]:
        """One request of each kind, from its first listed (lightest) size class;
        the pool's last instance, which the timed loop reaches last."""
        seen, out = set(), []
        for k, s, _, light in self.mix:
            if k not in seen and (light or not smoke):
                seen.add(k)
                out.append(self.pools[(k, s)][-1])
        return out


def build_pools(mix, factories) -> dict[tuple[str, str], list[Request]]:
    """POOL_CYCLES cycles' worth of instances per class, made in mix order."""
    return {
        (k, s): [factories[k](s, i) for i in range(c * POOL_CYCLES)] for k, s, c, _ in mix
    }


class Files:
    """Numbered input documents under one scratch directory."""

    def __init__(self, root: Path):
        self.root = root
        self.n = 0

    def write(self, stem: str, obj) -> str:
        self.n += 1
        path = self.root / f"{self.n:05d}-{stem}.json"
        path.write_text(json.dumps(obj, separators=(",", ":")))
        return str(path)


def _json(out) -> dict:
    try:
        return json.loads(out)
    except (TypeError, ValueError) as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


# -- shared contexts ----------------------------------------------------------------

LETTERS = string.ascii_letters


def base_contexts() -> dict[str, tuple[M.Context, bool]]:
    """The four action contexts of the census and operators workloads."""
    g6 = M.cycle_edge_group(6, "abcdef")
    k3 = M.cycle_edge_group(3, "ghi")
    c6c3 = M.Context(g6, k3, M.homomorphism(g6, k3, k3.gens))
    return {
        "C6/C3": (c6c3, False),
        "C5": (M.endo_context(M.cycle_edge_group(5, "abcde")), True),
        "C6": (M.endo_context(g6), True),
        "K4": (M.endo_context(M.complete_edge_group(4, "pqrstu")), True),
    }


def relabel(rng: random.Random, ctx: M.Context, endo: bool) -> M.Context:
    names = rng.sample(LETTERS, ctx.nx + ctx.ny)
    return ctx.relabeled(tuple(names[: ctx.nx]), tuple(names[ctx.nx :]), endo)


def random_orbit(rng: random.Random, ctx: M.Context) -> list[M.Perm]:
    return ctx.orbit(tuple(rng.randrange(ctx.nx) for _ in range(ctx.ny)))


def random_orbits(rng, ctx, k: int, moving: bool = False) -> list[list[M.Perm]]:
    """k distinct random orbits; with moving=True at least one has two or more members."""
    orbits: list[list[M.Perm]] = []
    while len(orbits) < k or (moving and all(len(o) == 1 for o in orbits)):
        o = random_orbit(rng, ctx)
        if o not in orbits:
            orbits.append(o)
    return orbits


def random_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 9))


def invariant_measure(rng, ctx, orbits, max_tv: Fraction | None) -> dict[M.Perm, Fraction]:
    """Weights constant on each orbit; total variation at most max_tv."""
    raw = [random_weight(rng) for _ in orbits]
    if max_tv is not None:
        tv = sum(abs(w) * len(o) for w, o in zip(raw, orbits))
        scale = max_tv / tv * Fraction(rng.randint(5, 10), 10)
        raw = [w * scale for w in raw]
    return {f: w for w, o in zip(raw, orbits) for f in o}


def measure_doc(ctx: M.Context, weights: dict[M.Perm, Fraction], rng) -> dict:
    items = list(weights.items())
    rng.shuffle(items)
    return {"weights": [{"mapping": ctx.text(f), "weight": M.frac_json(w)} for f, w in items]}


# -- checkers shared by several kinds ---------------------------------------------------


def check_operator_doc(doc, ctx: M.Context, coeffs: M.Table, geneo: bool) -> None:
    expect(isinstance(doc, dict), "operator is not a JSON object")
    expect(doc["source"]["space"]["domain"] == list(ctx.G.labels), "source domain differs")
    expect(doc["target"]["space"]["domain"] == list(ctx.K.labels), "target domain differs")
    expect(len(doc["homomorphism"]) == ctx.G.order, "homomorphism table is incomplete")
    expect(M.read_table(doc["coeffs"]) == coeffs, "operator coefficients differ")
    expect(doc["flags"] == {"is_geo": True, "is_geneo": geneo}, f"flags {doc['flags']}")


def check_library_operator(op, coeffs: M.Table) -> None:
    expect([list(row) for row in op.coeffs] == coeffs, "operator coefficients differ")
    expect(op.is_geo is True, "combination lost equivariance")
    expect(op.is_geneo is (M.sup_norm(coeffs) <= 1), "is_geneo flag disagrees with the norm")


def check_witness_escapes(ctx: M.Context, members: set, w: dict) -> None:
    f = ctx.parse(w["mapping"])
    g = M.parse_cycle_text(w["generator"], ctx.G.labels)
    expect(f in members, "witness mapping is not a member")
    expect(g in ctx.G.members, "witness generator is not in the group")
    expect(ctx.act(g, f) not in members, "witness does not escape the set")


# -- census --------------------------------------------------------------------------

GRAPHS = {
    # name: (vertex count, edge list, automorphism group order)
    "C6": (6, M.cycle_edges(6), 12),
    "C7": (7, M.cycle_edges(7), 14),
    "C8": (8, M.cycle_edges(8), 16),
    "C9": (9, M.cycle_edges(9), 18),
    "K5": (5, M.complete_edges(5), 120),
    "K6": (6, M.complete_edges(6), 720),
    "K7": (7, M.complete_edges(7), 5040),
    "Petersen": (10, M.petersen_edges(), 120),
    "K3,3": (6, M.bipartite_edges(3, 3), 72),
    "prism3": (6, M.prism_edges(3), 12),
    "cube": (8, M.prism_edges(4), 48),
    "prism5": (10, M.prism_edges(5), 20),
}


def aut_request(rng, files: Files, name: str) -> Request:
    """Seeded vertex and edge names and a shuffled edge list.  Vertices stay in
    structural order: the automorphism search visits them in list order, so
    shuffling them would let the seed change the work."""
    nv, edges, order = GRAPHS[name]
    vnames = [f"v{i}" for i in rng.sample(range(100), nv)]
    listed = list(edges)
    rng.shuffle(listed)
    elabels = [f"e{i}" for i in rng.sample(range(1000), len(listed))]
    doc = {
        "vertices": vnames,
        "edges": [
            {"label": lab, "ends": [vnames[u], vnames[v]] if rng.random() < 0.5 else [vnames[v], vnames[u]]}
            for lab, (u, v) in zip(elabels, listed)
        ],
    }
    path = files.write("graph", doc)
    sample_seed = rng.randrange(2**32)

    def check(out):
        p = _json(out)
        expect(p["labels"] == elabels, "edge labels differ")
        elements = p["elements"]
        expect(len(elements) == order, f"group order {len(elements)} != {order}")
        expect(len(set(elements)) == order, "repeated group elements")
        expect("id" in elements, "identity missing")
        expect(set(p["generators"]) <= set(elements), "generator outside the group")
        labels = tuple(elabels)
        for text in random.Random(sample_seed).sample(elements, min(8, order)):
            perm = M.parse_cycle_text(text, labels)
            expect(M.line_graph_automorphism(listed, perm), f"{text} is not an automorphism")

    return Request("aut", name, check, argv=["aut", path, "--edges"])


ORBIT_COUNTS = {"C6/C3": 22, "C5": 327, "C6": 4003, "K4": 2013}


class CensusData:
    """Orbit partitions of the base contexts, cross-checked by Burnside's count."""

    def __init__(self, names):
        self.contexts = base_contexts()
        self.orbits = {}
        for name in names:
            ctx = self.contexts[name][0]
            orbits = M.orbit_partition(ctx)
            if not len(orbits) == M.burnside_count(ctx) == ORBIT_COUNTS[name]:
                raise RuntimeError(f"orbit enumeration disagrees with Burnside on {name}")
            self.orbits[name] = orbits


def orbits_request(rng, files: Files, data: CensusData, name: str) -> Request:
    base, endo = data.contexts[name]
    ctx = relabel(rng, base, endo)
    orbits = data.orbits[name]
    reps: dict[str, list[str]] = {}
    for size, rep in orbits:
        reps.setdefault(str(size), []).append(ctx.text(rep))
    expected = {
        "total": ctx.nx**ctx.ny,
        "census": {str(k): v for k, v in M.census(orbits).items()},
        "representatives": {k: sorted(v) for k, v in sorted(reps.items(), key=lambda t: int(t[0]))},
    }
    path = files.write("context", ctx.doc())

    def check(out):
        p = _json(out)
        expect(p.get("total") == expected["total"], "map-space size differs")
        expect(p.get("census") == expected["census"], f"orbit census {p.get('census')}")
        expect(p.get("representatives") == expected["representatives"], "representatives differ")

    return Request("orbits", name, check, argv=["orbits", "--context", path])


def permutant_request(rng, files: Files, name: str, ctx_path: str, ctx: M.Context, k: int, remove: bool) -> Request:
    orbits = random_orbits(rng, ctx, k, moving=remove)
    members = {f for o in orbits for f in o}
    if remove:
        victim = rng.choice([f for o in orbits if len(o) > 1 for f in o])
        members.discard(victim)
    listed = sorted(members)
    rng.shuffle(listed)
    path = files.write("members", {"members": [ctx.text(f) for f in listed]})

    def check(out):
        p = _json(out)
        if remove:
            expect(p.get("ok") is False, "a set with a member removed was accepted")
            check_witness_escapes(ctx, members, p["witness"])
        else:
            expect(p == {"ok": True, "size": len(members)}, f"unexpected verdict {p}")

    argv = ["permutant", "check", path, "--context", ctx_path]
    return Request("permutant-check", name, check, argv=argv, code=1 if remove else 0)


def contexts_with_files(rng, files: Files, per_context: int) -> dict[str, list[tuple[M.Context, str]]]:
    """A few seeded relabelings of each base context, with their document paths."""
    out = {}
    for name, (base, endo) in base_contexts().items():
        out[name] = []
        for _ in range(per_context):
            ctx = relabel(rng, base, endo)
            out[name].append((ctx, files.write("context", ctx.doc())))
    return out


def census_workload(rng: random.Random, files: Files) -> Workload:
    # cumulative shares put p50 inside the 12-16 ms tier (permutant checks on
    # C6/C3 and C6, aut on Petersen: 42%-71%) and p90 inside orbits on C5
    # (6%-15% from the top, under orbits on C6 and K4 and aut on K7)
    mix = [
        ("aut", "C6", 1, True), ("aut", "C7", 1, True), ("aut", "C8", 1, True),
        ("aut", "C9", 1, True), ("aut", "prism3", 1, True), ("aut", "cube", 1, True),
        ("aut", "prism5", 1, True), ("aut", "K3,3", 1, True), ("aut", "K5", 2, True),
        ("aut", "Petersen", 2, True), ("aut", "K6", 1, False), ("aut", "K7", 1, False),
        ("orbits", "C6/C3", 4, True), ("orbits", "C5", 4, False),
        ("orbits", "C6", 1, False), ("orbits", "K4", 1, False),
        ("permutant-check", "C6/C3", 6, True), ("permutant-check", "C5", 6, True),
        ("permutant-check", "C6", 6, True), ("permutant-check", "K4", 6, True),
    ]
    data = CensusData(["C6/C3", "C5", "C6", "K4"])
    ctxs = contexts_with_files(rng, files, 2)

    def permutant(name, i):
        # unions of 1-4 orbits, each size with and without a member removed
        ctx, path = ctxs[name][i % 2]
        return permutant_request(rng, files, name, path, ctx, k=1 + i % 4, remove=i // 4 % 2 == 1)

    pools = build_pools(mix, {
        "aut": lambda name, i: aut_request(rng, files, name),
        "orbits": lambda name, i: orbits_request(rng, files, data, name),
        "permutant-check": permutant,
    })
    docs = {name: [c.doc() for c, _ in entries] for name, entries in ctxs.items()}

    def setup(lib):
        return {
            name: [lib.io.context_from_json(d) for d in ds] for name, ds in docs.items()
        }

    return Workload(
        "census",
        "symmetry discovery and orbit enumeration: the alpha action, orbit BFS, closure checks "
        "and automorphism search do the work; geneo and linalg do none",
        mix,
        pools,
        setup,
    )


# -- operators -------------------------------------------------------------------------


@dataclass
class OpSpec:
    ctx: M.Context
    coeffs: M.Table
    from_permutant: bool
    doc: dict
    path: str


def operator_specs(rng, files: Files, ctxs, per_context: int) -> dict[str, list[OpSpec]]:
    """Valid operators of each context: orbit averages and measures with TV <= 1."""
    out: dict[str, list[OpSpec]] = {}
    for name, entries in ctxs.items():
        out[name] = []
        for i in range(per_context):
            ctx, _ = entries[i % len(entries)]
            if i % 2 == 0:
                o = random_orbit(rng, ctx)
                coeffs = M.table_from_weights(ctx, {f: Fraction(1, len(o)) for f in o})
            else:
                orbits = random_orbits(rng, ctx, 1 + i // 2 % 3)
                coeffs = M.table_from_weights(ctx, invariant_measure(rng, ctx, orbits, Fraction(1)))
            doc = M.operator_doc(ctx, coeffs, (True, M.sup_norm(coeffs) <= 1))
            out[name].append(OpSpec(ctx, coeffs, i % 2 == 0, doc, files.write("operator", doc)))
    return out


def build_permutant_request(rng, files, name, ctx, ctx_path) -> Request:
    o = random_orbit(rng, ctx)
    listed = list(o)
    rng.shuffle(listed)
    path = files.write("permutant", {"members": [ctx.text(f) for f in listed]})
    coeffs = M.table_from_weights(ctx, {f: Fraction(1, len(o)) for f in o})

    def check(out):
        check_operator_doc(_json(out), ctx, coeffs, True)

    argv = ["geneo", "build", "--permutant", path, "--context", ctx_path]
    return Request("build-permutant", name, check, argv=argv)


def build_measure_request(rng, files, name, ctx, ctx_path, k: int) -> Request:
    weights = invariant_measure(rng, ctx, random_orbits(rng, ctx, k), None)
    path = files.write("measure", measure_doc(ctx, weights, rng))
    coeffs = M.table_from_weights(ctx, weights)
    geneo = M.sup_norm(coeffs) <= 1

    def check(out):
        check_operator_doc(_json(out), ctx, coeffs, geneo)

    argv = ["geneo", "build", "--measure", path, "--context", ctx_path]
    return Request("build-measure", name, check, argv=argv)


def verify_request(rng, files, name, spec: OpSpec, corrupt: str | None) -> Request:
    """corrupt: None, "perturb" (one coefficient moved) or "double" (table times 2)."""
    ctx, coeffs = spec.ctx, [list(row) for row in spec.coeffs]
    if corrupt == "perturb":
        y, x = rng.randrange(ctx.ny), rng.randrange(ctx.nx)
        coeffs[y][x] += Fraction(1, rng.randint(2, 9))
    elif corrupt == "double":
        coeffs = [[2 * c for c in row] for row in coeffs]
    path = spec.path
    if corrupt:
        doc = dict(spec.doc, coeffs=[[M.frac_json(c) for c in row] for row in coeffs])
        path = files.write("operator", doc)
    failure = M.first_equivariance_failure(ctx, coeffs)
    norm = M.sup_norm(coeffs)
    ok = failure is None and norm <= 1

    def check(out):
        p = _json(out)
        expect(p.get("equivariant") is (failure is None), "equivariance verdict differs")
        expect(p.get("nonexpansive") is (norm <= 1), "non-expansivity verdict differs")
        expect(Fraction(p["operator_norm"]) == norm, "operator norm differs")
        if failure is None:
            expect("witness" not in p, "witness reported for an equivariant operator")
        else:
            w = p["witness"]
            g = M.parse_cycle_text(w["generator"], ctx.G.labels)
            expect(g in ctx.G.gens, "witness generator is not a generator")
            i = w["basis_index"]
            expect(isinstance(i, int) and 0 <= i < ctx.nx, "witness basis index out of range")
            expect(M.breaks_equivariance(ctx, coeffs, i, g), "witness does not break equivariance")

    return Request("verify", name, check, argv=["geneo", "verify", path], code=0 if ok else 1)


def apply_request(rng, files, name, spec: OpSpec) -> Request:
    vec = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(spec.ctx.nx)]
    path = files.write("vector", [M.frac_json(v) for v in vec])
    expected = [M.frac_json(v) for v in M.matvec(spec.coeffs, vec)]

    def check(out):
        expect(_json(out) == expected, "applied values differ")

    return Request("apply", name, check, argv=["geneo", "apply", spec.path, path])


def measure_check_request(rng, files, name, ctx, ctx_path, k: int, valid: bool) -> Request:
    orbits = random_orbits(rng, ctx, k, moving=not valid)
    weights = invariant_measure(rng, ctx, orbits, None)
    if not valid:
        victim = rng.choice([f for o in orbits if len(o) > 1 for f in o])
        weights[victim] += Fraction(1, rng.randint(2, 9))
    weights = {f: w for f, w in weights.items() if w != 0}
    path = files.write("measure", measure_doc(ctx, weights, rng))
    tv = sum(abs(w) for w in weights.values())

    def check(out):
        p = _json(out)
        if valid:
            expected = {"ok": True, "support": len(weights), "total_variation": M.frac_json(tv)}
            expect(p == expected, f"unexpected verdict {p}")
            return
        expect(p.get("ok") is False, "a non-invariant measure was accepted")
        f = ctx.parse(p["witness"]["mapping"])
        g = M.parse_cycle_text(p["witness"]["generator"], ctx.G.labels)
        expect(g in ctx.G.members, "witness generator is not in the group")
        expect(weights.get(ctx.act(g, f), 0) != weights.get(f, 0), "witness keeps the weight")

    argv = ["measure", "check", path, "--context", ctx_path]
    return Request("measure-check", name, check, argv=argv, code=0 if valid else 1)


def same_context(specs: list[OpSpec], i: int) -> list[int]:
    """Operators combined with spec i must share its relabeled context."""
    return [j for j in range(len(specs)) if specs[j].ctx is specs[i].ctx]


def convex_request(rng, name, specs: list[OpSpec], arity: int) -> Request:
    idx = rng.sample(same_context(specs, rng.randrange(len(specs))), arity)
    raw = [rng.randint(1, 9) for _ in idx]
    lam = [Fraction(r, sum(raw)) for r in raw]
    ctx = specs[idx[0]].ctx
    coeffs = [
        [sum((w * specs[i].coeffs[y][x] for w, i in zip(lam, idx)), Fraction(0)) for x in range(ctx.nx)]
        for y in range(ctx.ny)
    ]

    def call(lib, state):
        return lib.geneo.convex_combination([state["ops"][name][i] for i in idx], lam)

    def check(op):
        check_library_operator(op, coeffs)

    return Request("convex", name, check, call=call)


def compose_request(rng, name, specs: list[OpSpec]) -> Request:
    first = rng.randrange(len(specs))
    second = rng.choice(same_context(specs, first))
    coeffs = M.matmul(specs[second].coeffs, specs[first].coeffs)

    def call(lib, state):
        ops = state["ops"][name]
        return lib.geneo.compose_operators(ops[second], ops[first])

    def check(op):
        check_library_operator(op, coeffs)

    return Request("compose", name, check, call=call)


def operators_workload(rng: random.Random, files: Files) -> Workload:
    names = ["C6/C3", "C5", "C6", "K4"]
    mix = []
    for kind, per in (
        ("build-permutant", 2), ("build-measure", 2), ("verify", 4), ("apply", 3),
        ("measure-check", 2), ("convex", 1), ("compose", 1),
    ):
        for name in names:
            if kind == "compose" and name == "C6/C3":
                continue
            mix.append((kind, name, per, True))
    ctxs = contexts_with_files(rng, files, 2)
    specs = operator_specs(rng, files, ctxs, 8)

    def pick(name, i):
        return ctxs[name][i % 2]

    def verify(name, i):
        # every other request is corrupted: a permutant average (row sums 1)
        # doubled, or a measure operator with one coefficient perturbed
        spec = specs[name][(i // 2) % len(specs[name])]
        corrupt = None if i % 2 == 0 else "double" if spec.from_permutant else "perturb"
        return verify_request(rng, files, name, spec, corrupt)

    pools = build_pools(mix, {
        "build-permutant": lambda name, i: build_permutant_request(rng, files, name, *pick(name, i)),
        "build-measure": lambda name, i: build_measure_request(rng, files, name, *pick(name, i), k=1 + i % 3),
        "verify": verify,
        "apply": lambda name, i: apply_request(rng, files, name, specs[name][i % len(specs[name])]),
        "measure-check": lambda name, i: measure_check_request(
            rng, files, name, *pick(name, i), k=1 + i // 2 % 3, valid=i % 2 == 0
        ),
        "convex": lambda name, i: convex_request(rng, name, specs[name], arity=2 + i % 2),
        "compose": lambda name, i: compose_request(rng, name, specs[name]),
    })
    ctx_docs = [c.doc() for entries in ctxs.values() for c, _ in entries]
    op_docs = {name: [s.doc for s in ss] for name, ss in specs.items()}

    def setup(lib):
        for d in ctx_docs:
            lib.io.context_from_json(d)
        return {"ops": {name: [lib.io.operator_from_json(d) for d in ds] for name, ds in op_docs.items()}}

    return Workload(
        "operators",
        "many small operator requests: equivariance checks plus the fixed cost of argparse, "
        "JSON parsing and re-verifying groups and homomorphisms",
        mix,
        pools,
        setup,
    )


# -- paper analyses ----------------------------------------------------------------------


def codes_request(table: M.CodeTable, fmt: str) -> Request:
    n = table.n

    def row_text(k):
        return "".join(map(str, table.vectors[k]))

    def check_json(out):
        p = _json(out)
        expect(p["n"] == n and p["edge_labels"] == list(table.labels), "table header differs")
        expect(p["permutant_size"] == table.size, "permutant size differs")
        expect(p["classes"] == table.class_count, f"class count {p['classes']}")
        rows = p["rows"]
        expect(len(rows) == 2 ** len(table.labels), "row count differs")
        for k, row in enumerate(rows):
            scaled = table.scaled[k]
            expect(row["vector"] == row_text(k), "row order differs")
            expect(row["scaled_code"] == list(scaled), f"scaled code of {row['vector']} differs")
            expect(row["code"] == [M.frac_json(Fraction(s, table.size)) for s in scaled], "code differs")
            expect(row["class"] == table.class_of[k], f"class of {row['vector']} differs")

    def check_csv(out):
        expect(isinstance(out, str), "CSV output is not text")
        lines = out.splitlines()
        expect(lines[0] == "vector,scaled_code,class", "CSV header differs")
        expect(len(lines) == 1 + 2 ** len(table.labels), "CSV row count differs")
        for k, line in enumerate(lines[1:]):
            expected = f"{row_text(k)},{' '.join(map(str, table.scaled[k]))},{table.class_of[k]}"
            expect(line == expected, f"CSV row {k} differs")

    argv = ["codes", "--n", str(n)] + (["--format", "csv"] if fmt == "csv" else [])
    return Request("codes", f"n{n}-{fmt}", check_csv if fmt == "csv" else check_json, argv=argv)


def analyze_request(table: M.CodeTable) -> Request:
    expected = M.code_findings(table)

    def check(out):
        expect(_json(out) == expected, "findings differ")

    return Request("codes-analyze", f"n{table.n}", check, argv=["codes", "--n", str(table.n), "--analyze"])


def census_c6c3_request(data: CensusData) -> Request:
    ctx = data.contexts["C6/C3"][0]
    orbits = data.orbits["C6/C3"]
    reps: dict[str, list[str]] = {}
    for size, rep in orbits:
        reps.setdefault(str(size), []).append(ctx.text(rep))
    expected = {
        "total": 216,
        "census": {str(k): v for k, v in M.census(orbits).items()},
        "representatives": {k: sorted(v) for k, v in reps.items()},
    }
    if sum(expected["census"].values()) != 22:
        raise RuntimeError("the C6/C3 census must have 22 orbits")

    def check(out):
        expect(_json(out) == expected, "C6/C3 census differs")

    return Request("census-c6c3", "C6/C3", check, argv=["census-c6c3"])


DECOMPOSE_GROUPS = {
    "C5": lambda labels: M.cycle_edge_group(5, labels),
    "C6": lambda labels: M.cycle_edge_group(6, labels),
    "K4": lambda labels: M.complete_edge_group(4, labels),
    "C7": lambda labels: M.cycle_edge_group(7, labels),
}


def decompose_request(rng, files, name: str, k: int) -> Request:
    """An operator from a seeded invariant measure on k conjugation orbits of
    bijections, with total variation at most 1."""
    n = {"C5": 5, "C6": 6, "K4": 6, "C7": 7}[name]
    ctx = M.endo_context(DECOMPOSE_GROUPS[name](tuple(rng.sample(LETTERS, n))))
    orbits: list[list[M.Perm]] = []
    while len(orbits) < k:
        h = list(range(n))
        rng.shuffle(h)
        o = ctx.orbit(tuple(h))
        if o not in orbits:
            orbits.append(o)
    parts = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in orbits]
    denom = sum(map(abs, parts)) + rng.randint(0, 2)
    weights = {f: Fraction(a, denom * len(o)) for a, o in zip(parts, orbits) for f in o}
    coeffs = M.table_from_weights(ctx, weights)
    path = files.write("operator", M.operator_doc(ctx, coeffs, (True, True)))

    def check(out):
        p = _json(out)
        got = {}
        for entry in p["weights"]:
            got[ctx.parse(entry["mapping"])] = Fraction(entry["weight"])
        expect(M.table_from_weights(ctx, got) == coeffs, "returned measure does not rebuild the operator")
        expect(sum(abs(w) for w in got.values()) <= 1, "total variation exceeds 1")
        for f, w in got.items():
            for g in ctx.G.gens:
                expect(got.get(ctx.act(g, f), 0) == w, "returned measure is not alpha-invariant")

    return Request("decompose", name, check, argv=["geneo", "decompose", path])


def paper_workload(rng: random.Random, files: Files) -> Workload:
    # cumulative shares put p50 inside the n=4 code tables (40%-60%) and p90
    # inside the C7 decompositions (82.5%-92.5%), away from kind boundaries
    mix = [
        ("codes", "n3-json", 2, True), ("codes", "n3-csv", 2, True),
        ("census-c6c3", "C6/C3", 4, True), ("decompose", "C5", 8, True),
        ("codes", "n4-json", 4, True), ("codes", "n4-csv", 4, True),
        ("codes-analyze", "n4", 3, True), ("decompose", "K4", 3, True),
        ("decompose", "C6", 3, True), ("decompose", "C7", 4, False),
        ("codes", "n5-json", 1, False), ("codes", "n5-csv", 1, False),
        ("codes-analyze", "n5", 1, False),
    ]
    data = CensusData(["C6/C3"])
    tables = {n: M.code_table(n) for n in (3, 4, 5)}
    if [tables[n].class_count for n in (3, 4, 5)] != [4, 11, 34]:
        raise RuntimeError("subgraph class counts must be 4, 11 and 34")
    fixed = {("census-c6c3", "C6/C3"): census_c6c3_request(data)}
    for n, table in tables.items():
        fixed[("codes-analyze", f"n{n}")] = analyze_request(table)
        for fmt in ("json", "csv"):
            fixed[("codes", f"n{n}-{fmt}")] = codes_request(table, fmt)
    pools = build_pools(mix, {
        "codes": lambda size, i: fixed[("codes", size)],
        "codes-analyze": lambda size, i: fixed[("codes-analyze", size)],
        "census-c6c3": lambda size, i: fixed[("census-c6c3", size)],
        "decompose": lambda name, i: decompose_request(rng, files, name, k=2 + i % 3),
    })

    def setup(lib):
        groups = {
            "C5": lib.graph.edge_automorphism_group(lib.graph.cycle_graph(5)),
            "C6": lib.graph.edge_automorphism_group(lib.graph.cycle_graph(6)),
            "C7": lib.graph.edge_automorphism_group(lib.graph.cycle_graph(7)),
            "K4": lib.graph.edge_automorphism_group(lib.graph.complete_graph(4)),
        }
        for name, group in groups.items():
            ours = DECOMPOSE_GROUPS[name](tuple(group.labels))
            if {p.images for p in group.elements} != ours.members:
                raise RuntimeError(f"library {name} edge group differs from the model's")
        return {"groups": groups, "c6c3": lib.experiments.c6_c3_context()}

    return Workload(
        "paper-analyses",
        "the paper's results: exact mat-vec in code tables, subgraph classes, and rref/simplex "
        "in decompositions; per-request fixed costs are a small share",
        mix,
        pools,
        setup,
    )


WORKLOADS = {
    "census": census_workload,
    "operators": operators_workload,
    "paper-analyses": paper_workload,
}
