"""Independent exact model used to generate benchmark inputs and check outputs.

Nothing here imports geneograph.  Permutations and maps are integer tuples,
groups are closed by breadth-first search, and every expected answer (orbit
censuses, operator tables, code tables, verdicts and witnesses) is recomputed
from the definitions, so a wrong library result cannot also be the expected
one.  Documents are written in the library's JSON forms: cycle-product strings
for permutations, compact label strings for maps and "p/q" for rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[i] for i in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


def closure(gens: list[Perm], n: int) -> set[Perm]:
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        new = []
        for g in gens:
            for e in frontier:
                c = compose(g, e)
                if c not in elements:
                    elements.add(c)
                    new.append(c)
        frontier = new
    return elements


def cycles(p: Perm) -> list[list[int]]:
    """Disjoint cycles of length > 1, each from its smallest point, by that point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = p[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = p[cur]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def cycle_text(p: Perm, labels: tuple[str, ...]) -> str:
    cyc = cycles(p)
    if not cyc:
        return "id"
    return "".join("(" + ",".join(labels[i] for i in c) + ")" for c in cyc)


def parse_cycle_text(text: str, labels: tuple[str, ...]) -> Perm:
    """Parse "(a,b)(c,d)" or "id"; raises ValueError on anything malformed."""
    index = {lab: i for i, lab in enumerate(labels)}
    images = list(range(len(labels)))
    text = text.strip()
    if text == "id":
        return tuple(images)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle text {text!r}")
    used = set()
    for chunk in text[1:-1].split(")("):
        names = chunk.split(",")
        if len(names) < 2:
            raise ValueError(f"bad cycle ({chunk})")
        idx = [index[name] for name in names]
        if used & set(idx) or len(set(idx)) != len(idx):
            raise ValueError(f"repeated point in {text!r}")
        used.update(idx)
        for a, b in zip(idx, idx[1:] + idx[:1]):
            images[a] = b
    return tuple(images)


def frac_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass
class Group:
    """A permutation group on labeled points: generators and all elements."""

    labels: tuple[str, ...]
    gens: list[Perm]
    elements: list[Perm] = field(init=False)

    def __post_init__(self):
        self.elements = sorted(closure(self.gens, len(self.labels)))
        self.members = frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return len(self.labels)

    def relabeled(self, labels: tuple[str, ...]) -> "Group":
        return Group(tuple(labels), list(self.gens))

    def doc(self) -> dict:
        return {
            "labels": list(self.labels),
            "generators": [cycle_text(g, self.labels) for g in self.gens],
            "elements": [cycle_text(e, self.labels) for e in self.elements],
        }


@dataclass
class Context:
    """The action alpha(g, f) = g o f o T(g)^-1 on maps Y -> X (tuples of X indices)."""

    G: Group
    K: Group
    T: dict[Perm, Perm]

    def __post_init__(self):
        self.moves = [(g, inverse(self.T[g])) for g in self.G.gens]

    @property
    def nx(self) -> int:
        return self.G.degree

    @property
    def ny(self) -> int:
        return self.K.degree

    def act(self, g: Perm, f: Perm) -> Perm:
        tinv = inverse(self.T[g])
        return tuple(g[f[tinv[y]]] for y in range(self.ny))

    def orbit(self, f: Perm) -> list[Perm]:
        seen = {f}
        frontier = [f]
        while frontier:
            new = []
            for h in frontier:
                for g, tinv in self.moves:
                    moved = tuple(g[h[y]] for y in tinv)
                    if moved not in seen:
                        seen.add(moved)
                        new.append(moved)
            frontier = new
        return sorted(seen)

    def text(self, f: Perm) -> str:
        return "".join(self.G.labels[x] for x in f)

    def parse(self, text: str) -> Perm:
        index = {lab: i for i, lab in enumerate(self.G.labels)}
        if len(text) != self.ny:
            raise ValueError(f"map {text!r} has the wrong length")
        return tuple(index[ch] for ch in text)

    def relabeled(self, x_labels, y_labels, endo: bool) -> "Context":
        G = self.G.relabeled(x_labels)
        K = G if endo else self.K.relabeled(y_labels)
        return Context(G, K, self.T)

    def doc(self) -> dict:
        return {
            "G": self.G.doc(),
            "K": self.K.doc(),
            "T": [
                [cycle_text(g, self.G.labels), cycle_text(self.T[g], self.K.labels)]
                for g in self.G.elements
            ],
        }


def homomorphism(G: Group, K: Group, images: list[Perm]) -> dict[Perm, Perm]:
    """Extend generator images to a full table, checking well-definedness."""
    ident = tuple(range(G.degree))
    table = {ident: tuple(range(K.degree))}
    frontier = [ident]
    while frontier:
        new = []
        for g, k in zip(G.gens, images):
            for e in frontier:
                ge, im = compose(g, e), compose(k, table[e])
                if ge not in table:
                    table[ge] = im
                    new.append(ge)
                elif table[ge] != im:
                    raise ValueError("generator images do not define a homomorphism")
        frontier = new
    return table


def endo_context(G: Group) -> Context:
    return Context(G, G, {g: g for g in G.elements})


def orbit_partition(ctx: Context) -> list[tuple[int, Perm]]:
    """(size, least member) of every orbit of the map space, by least member.

    Maps are coded as base-|X| numbers in lexicographic order and visits kept
    in a bytearray, so the model stays small beside the library's own memory."""
    nx, ny = ctx.nx, ctx.ny
    weights = [nx ** (ny - 1 - y) for y in range(ny)]
    visited = bytearray(nx**ny)
    out = []
    for code in range(nx**ny):
        if visited[code]:
            continue
        f = tuple((code // w) % nx for w in weights)
        members = ctx.orbit(f)
        for h in members:
            visited[sum(x * w for x, w in zip(h, weights))] = 1
        out.append((len(members), f))
    return out


def burnside_count(ctx: Context) -> int:
    """Orbit count by the Cauchy-Frobenius lemma: f is fixed by g iff f o T(g) = g o f,
    so a T(g)-cycle of length L may land on any point of a g-cycle whose length
    divides L."""
    total = 0
    for g in ctx.G.elements:
        g_lengths = [len(c) for c in cycles(g)]
        g_lengths += [1] * (ctx.nx - sum(g_lengths))
        t_cycles = [len(c) for c in cycles(ctx.T[g])]
        t_cycles += [1] * (ctx.ny - sum(t_cycles))
        fixed = 1
        for length in t_cycles:
            fixed *= sum(d for d in g_lengths if length % d == 0)
        total += fixed
    assert total % ctx.G.order == 0
    return total // ctx.G.order


def census(orbits: list[tuple[int, Perm]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for size, _ in orbits:
        out[size] = out.get(size, 0) + 1
    return dict(sorted(out.items()))


# -- graphs and their edge groups ----------------------------------------------


def cycle_edges(n: int) -> list[tuple[int, int]]:
    """Edge i joins vertices i and i+1 (mod n), as in the library's cycle_graph."""
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    if n == 4:  # the paper's p..u edge scheme for K4
        return [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
    return list(combinations(range(n), 2))


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def prism_edges(n: int) -> list[tuple[int, int]]:
    ring = [(i, (i + 1) % n) for i in range(n)]
    return ring + [(n + a, n + b) for a, b in ring] + [(i, n + i) for i in range(n)]


def bipartite_edges(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def induced_edge_perm(edges: list[tuple[int, int]], vp: Perm) -> Perm:
    index = {frozenset(e): i for i, e in enumerate(edges)}
    return tuple(index[frozenset((vp[u], vp[v]))] for u, v in edges)


def edge_group(edges, vertex_gens: list[Perm], labels) -> Group:
    return Group(tuple(labels), [induced_edge_perm(edges, g) for g in vertex_gens])


def dihedral_vertex_gens(n: int) -> list[Perm]:
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    return [rotation, reflection]


def symmetric_vertex_gens(n: int) -> list[Perm]:
    cycle = tuple((i + 1) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    return [cycle, swap]


def cycle_edge_group(n: int, labels) -> Group:
    return edge_group(cycle_edges(n), dihedral_vertex_gens(n), labels)


def complete_edge_group(n: int, labels) -> Group:
    return edge_group(complete_edges(n), symmetric_vertex_gens(n), labels)


def line_graph_automorphism(edges, p: Perm) -> bool:
    """Whether an edge permutation preserves which edges share an endpoint."""
    sets = [frozenset(e) for e in edges]
    for i, j in combinations(range(len(edges)), 2):
        if bool(sets[i] & sets[j]) != bool(sets[p[i]] & sets[p[j]]):
            return False
    return True


# -- operators -------------------------------------------------------------------

Table = list[list[Fraction]]


def table_from_weights(ctx: Context, weights: dict[Perm, Fraction]) -> Table:
    """coeffs[y][x] = sum of the weights of maps f with f(y) = x."""
    coeffs = [[Fraction(0)] * ctx.nx for _ in range(ctx.ny)]
    for f, w in weights.items():
        for y, x in enumerate(f):
            coeffs[y][x] += w
    return coeffs


def breaks_equivariance(ctx: Context, coeffs: Table, i: int, g: Perm) -> bool:
    """F(e_i o g) != F(e_i) o T(g) for linear F, i.e. c[y][g^-1(i)] != c[T(g)(y)][i] somewhere."""
    ginv, tg = inverse(g), ctx.T[g]
    return any(coeffs[y][ginv[i]] != coeffs[tg[y]][i] for y in range(ctx.ny))


def first_equivariance_failure(ctx: Context, coeffs: Table) -> tuple[int, Perm] | None:
    """The first (basis index, generator) that breaks equivariance, or None."""
    return next(
        ((i, g) for g in ctx.G.gens for i in range(ctx.nx) if breaks_equivariance(ctx, coeffs, i, g)),
        None,
    )


def sup_norm(coeffs: Table) -> Fraction:
    return max((sum(abs(c) for c in row) for row in coeffs), default=Fraction(0))


def matvec(coeffs: Table, vec: list[Fraction]) -> list[Fraction]:
    return [sum((c * v for c, v in zip(row, vec)), Fraction(0)) for row in coeffs]


def matmul(a: Table, b: Table) -> Table:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def operator_doc(ctx: Context, coeffs: Table, flags: tuple[bool, bool]) -> dict:
    def pair(group: Group) -> dict:
        return {"space": {"kind": "full", "domain": list(group.labels)}, "group": group.doc()}

    return {
        "source": pair(ctx.G),
        "target": pair(ctx.K),
        "homomorphism": ctx.doc()["T"],
        "coeffs": [[frac_json(c) for c in row] for row in coeffs],
        "flags": {"is_geo": flags[0], "is_geneo": flags[1]},
    }


def read_table(doc) -> Table:
    return [[Fraction(c) for c in row] for row in doc]


# -- subgraph code tables ------------------------------------------------------------


@dataclass
class CodeTable:
    """Scaled codes and isomorphism classes of every 0/1 edge vector of K_n."""

    n: int
    labels: tuple[str, ...]
    size: int
    vectors: list[tuple[int, ...]]
    scaled: list[tuple[int, ...]]
    class_of: list[int]
    class_count: int


def code_table(n: int) -> CodeTable:
    """The transposition permutant H of K_n acts on edges; the scaled code of v at
    edge y is sum over h in H of v[h(y)], i.e. |H| times the averaging operator."""
    edges = complete_edges(n)
    m = len(edges)
    labels = tuple("pqrstu") if n == 4 else tuple("abcdefghij"[:m])
    swaps = []
    for i, j in combinations(range(n), 2):
        vp = list(range(n))
        vp[i], vp[j] = j, i
        swaps.append(induced_edge_perm(edges, tuple(vp)))
    vectors = list(product((0, 1), repeat=m))
    scaled = [tuple(sum(v[h[y]] for h in swaps) for y in range(m)) for v in vectors]
    edge_perms = [induced_edge_perm(edges, vp) for vp in permutations(range(n))]
    canon = [min(tuple(v[p[i]] for i in range(m)) for p in edge_perms) for v in vectors]
    reps = sorted(set(canon))
    rank = {r: k for k, r in enumerate(reps)}
    return CodeTable(n, labels, len(swaps), vectors, scaled, [rank[c] for c in canon], len(reps))


def code_findings(t: CodeTable) -> dict:
    """The four structural statements, recomputed on the scaled integer codes."""
    row = {v: k for k, v in enumerate(t.vectors)}
    by_class: dict[int, list[int]] = {}
    for k, c in enumerate(t.class_of):
        by_class.setdefault(c, []).append(k)
    share = all(sorted(t.scaled[k]) == sorted(t.scaled[ks[0]]) for ks in by_class.values() for k in ks)
    complements = all(
        t.scaled[row[tuple(1 - b for b in v)]] == tuple(t.size - s for s in t.scaled[k])
        for k, v in enumerate(t.vectors)
    )
    reversals = all(
        t.scaled[row[v[::-1]]] == t.scaled[k][::-1] for k, v in enumerate(t.vectors)
    )
    reps = {c: min(ks, key=lambda k: t.vectors[k]) for c, ks in by_class.items()}
    pairs = []
    ids = sorted(reps)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if sorted(t.scaled[reps[a]]) == sorted(t.scaled[reps[b]]):
                pairs.append(
                    {
                        "class_a": a,
                        "class_b": b,
                        "representative_a": "".join(map(str, t.vectors[reps[a]])),
                        "representative_b": "".join(map(str, t.vectors[reps[b]])),
                    }
                )
    return {
        "n": t.n,
        "classes": t.class_count,
        "isomorphic_subgraphs_share_codes": share,
        "complements_map_to_complements": complements,
        "equivalent_nonisomorphic_pairs": pairs,
        "reversals_map_to_reversals": reversals,
    }

