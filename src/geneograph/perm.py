"""Permutations of labeled finite sets, cycle notation, and explicit group closure.

Everything here is deliberately explicit and desk-scale: groups are stored as
full element lists (canonically ordered), and homomorphisms as full tables
verified at construction.  No Schreier-Sims machinery.

``closure`` is the single breadth-first search that every enumeration uses:
group closure, homomorphism extension, coordinate orbits, orbits of the alpha
action, subgraph isomorphism classes and conjugation orbits.  It works on
plain hashable points (integer image tuples or map codes); labeled objects
are built only for results.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

DEFAULT_GROUP_CAP = math.factorial(10)

_ENV_GROUP_CAP = "GENEO_MAX_GROUP"


class CycleParseError(ValueError):
    """Malformed cycle-product text."""


class DomainMismatchError(ValueError):
    """Operands live on different indexed sets."""


class CapExceededError(RuntimeError):
    """An enumeration grew past its configured size cap."""


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}; ``images[i]`` is the image of element i.

    ``labels`` names the underlying set for parsing/printing; all computation
    uses integer indices.
    """

    images: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a bijection of 0..{n - 1}: {self.images}")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count does not match domain size")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __str__(self) -> str:
        return format_cycles(self)

    def is_identity(self) -> bool:
        return all(im == i for i, im in enumerate(self.images))

    def effective_labels(self) -> tuple[str, ...]:
        return self.labels if self.labels is not None else default_labels(self.n)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, im in enumerate(self.images):
            inv[im] = i
        return Permutation(tuple(inv), self.labels)

    def pullback(self, values: Sequence) -> tuple:
        """Precompose a coordinate vector: (values o self)[i] = values[self(i)]."""
        return tuple(values[im] for im in self.images)

    def cycles(self, include_fixed: bool = False) -> list[list[int]]:
        """Disjoint cycles, each starting at its smallest index, sorted by that index."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            cur = self.images[start]
            while cur != start:
                cyc.append(cur)
                seen[cur] = True
                cur = self.images[cur]
            if len(cyc) > 1 or include_fixed:
                out.append(cyc)
        return out


def identity(n: int, labels: tuple[str, ...] | None = None) -> Permutation:
    return Permutation(tuple(range(n)), labels)


def _merge_labels(a: tuple[str, ...] | None, b: tuple[str, ...] | None) -> tuple[str, ...] | None:
    if a is not None and b is not None and a != b:
        raise DomainMismatchError(f"label sets differ: {a} vs {b}")
    return a if a is not None else b


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(x) = p(q(x))."""
    if p.n != q.n:
        raise DomainMismatchError(f"domain sizes differ: {p.n} vs {q.n}")
    labels = _merge_labels(p.labels, q.labels)
    return Permutation(tuple(p.images[qi] for qi in q.images), labels)


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, labels: Sequence[str]) -> Permutation:
    """Parse a disjoint-cycle product like "(A,C)(B,D)" over the given labels.

    The literal token "id" parses to the identity.  Raises CycleParseError on
    unknown labels, a label repeated anywhere in the product, or stray text.
    """
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise CycleParseError(f"duplicate labels in domain: {labels}")
    stripped = text.strip()
    if stripped == "id":
        return identity(len(labels), labels)
    if _CYCLE_RE.sub("", stripped).strip():
        raise CycleParseError(f"malformed cycle product: {text!r}")
    images = list(range(len(labels)))
    used: set[int] = set()
    matched_any = False
    for m in _CYCLE_RE.finditer(stripped):
        matched_any = True
        names = [tok for tok in re.split(r"[,\s]+", m.group(1).strip()) if tok]
        if len(names) < 2:
            raise CycleParseError(f"cycle needs at least two elements: ({m.group(1)})")
        idxs = []
        for name in names:
            if name not in index:
                raise CycleParseError(f"unknown label {name!r} (domain {labels})")
            idxs.append(index[name])
        for i in idxs:
            if i in used:
                raise CycleParseError(f"label {labels[i]!r} repeated in {text!r}")
            used.add(i)
        for a, b in zip(idxs, idxs[1:] + idxs[:1]):
            images[a] = b
    if not matched_any:
        raise CycleParseError(f"malformed cycle product: {text!r}")
    return Permutation(tuple(images), labels)


def format_cycles(p: Permutation) -> str:
    """Inverse of parse_cycles: disjoint cycles, fixed points omitted, identity as "id"."""
    labels = p.effective_labels()
    cycles = p.cycles()
    if not cycles:
        return "id"
    return "".join("(" + ",".join(labels[i] for i in cyc) + ")" for cyc in cycles)


def closure(
    seeds: Iterable[Hashable],
    moves: Sequence[Callable[[Hashable], Hashable]],
    cap: int | None = None,
) -> set:
    """The smallest set containing the seeds and closed under every move, by
    breadth-first search.

    Points are plain hashable values such as integer image tuples.  The cap,
    used by group closures, is checked on every insertion: CapExceededError is
    raised as soon as the set holds more than cap points.
    """
    limit = math.inf if cap is None else cap
    found: set = set()
    frontier = []
    for point in seeds:
        if point not in found:
            found.add(point)
            frontier.append(point)
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
    each closure is an orbit and no point lies in two of them.
    """
    visited: set = set()
    for point in points:
        if point not in visited:
            orbit = closure((point,), moves)
            visited |= orbit
            yield orbit


def _left_multiplication(a: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The move p -> a o p on image tuples."""
    return lambda p: tuple([a[i] for i in p])


def group_cap() -> int:
    """The group-closure cap: GENEO_MAX_GROUP if set, else 10!.

    Raises ValueError naming the variable when it is set but not a positive
    integer.
    """
    env = os.environ.get(_ENV_GROUP_CAP)
    if not env:
        return DEFAULT_GROUP_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{_ENV_GROUP_CAP} must be a positive integer, got {env!r}")
    return cap


@dataclass(frozen=True)
class FiniteGroup:
    """An explicit permutation group: all elements, canonically ordered.

    Elements are sorted lexicographically by image array so that every
    downstream enumeration (orbits, censuses, witnesses) is deterministic.

    Invariant: ``generators`` generate ``elements``.  The only builders,
    ``generate_group`` and ``group_from_elements``, guarantee it, and the
    homomorphism, equivariance and measure-invariance checks rely on it to
    certify a property of the whole group on the generators alone.
    """

    elements: tuple[Permutation, ...]
    generators: tuple[Permutation, ...]
    identity: Permutation

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return self.identity.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.identity.effective_labels()

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._members  # type: ignore[attr-defined]

    def coordinate_orbits(self) -> list[list[int]]:
        """Orbits of the group action on the underlying indices, each sorted,
        listed by smallest index."""
        moves = [g.images.__getitem__ for g in self.generators]
        return [sorted(o) for o in orbit_partition(range(self.degree), moves)]


def generate_group(generators: Iterable[Permutation]) -> FiniteGroup:
    """Smallest group containing the generators, by breadth-first closure.

    The generators must act on one domain size, and those that carry labels
    must agree on them; the group takes their labels.  Use trivial_group for
    the group with no generators.  Raises CapExceededError if the closure
    grows past group_cap() (10!, or the GENEO_MAX_GROUP environment variable).
    """
    gens = list(generators)
    if not gens:
        raise ValueError("empty generator list: use trivial_group(labels)")
    n, lab = gens[0].n, None
    for g in gens:
        if g.n != n:
            raise DomainMismatchError("generators act on different domain sizes")
        lab = _merge_labels(lab, g.labels)
    ident = identity(n, lab)
    elements = closure((ident.images,), [_left_multiplication(g.images) for g in gens], group_cap())
    ordered = tuple(Permutation(images, lab) for images in sorted(elements))
    return FiniteGroup(ordered, tuple(gens), ident)


def trivial_group(labels: Sequence[str]) -> FiniteGroup:
    """The one-element group on the given labels, with no generators."""
    ident = identity(len(labels), tuple(labels))
    return FiniteGroup((ident,), (), ident)


def group_from_elements(elements: Iterable[Permutation]) -> FiniteGroup:
    """Wrap an explicit element set as a FiniteGroup, with a small greedy generating set.

    Each element, in order, that lies outside the subgroup generated so far
    becomes a generator; one closure, seeded with that subgroup, grows it,
    capped at the number of elements.  The elements form a group exactly when
    that closure ends at them.  Only when it does not are they scanned for the
    first element whose inverse is missing, then for the first product that
    leaves the set, to name it.
    """
    elems = sorted(set(elements), key=lambda p: p.images)
    if not elems:
        raise ValueError("a group needs at least the identity")
    n = elems[0].n
    lab = elems[0].labels
    ident = identity(n, lab)
    if ident not in elems:
        raise ValueError("element set lacks the identity")
    gens: list[Permutation] = []
    moves = []
    have = {ident.images}
    # an element of another degree or labeling fails the test below, and the
    # scans then decide as compose does
    try:
        for p in elems:
            if p.images not in have and p.n == n:
                gens.append(p)
                moves.append(_left_multiplication(p.images))
                have = closure(have, moves, len(elems))
                if len(have) == len(elems):
                    break
    except CapExceededError:
        pass
    if have != {p.images for p in elems} or any(p.labels != lab for p in elems):
        member = frozenset(elems)
        for p in elems:
            if p.inverse() not in member:
                raise ValueError(f"element set not closed under inverse at {p}")
        for p in elems:
            for q in elems:
                if compose(p, q) not in member:
                    raise ValueError(f"element set not closed under composition at {p}, {q}")
    return FiniteGroup(tuple(elems), tuple(gens), ident)


@dataclass
class Homomorphism:
    """A group homomorphism as a full table, verified at construction.

    The table must cover the source group, land in the target group and map
    the identity to the identity.  Multiplicativity is certified on the
    generators: phi(a o s) = phi(a) o phi(s) for every element a and generator
    s implies it for all pairs, as every element is a positive word in the
    generators.  Only when that fails are all pairs scanned in element order,
    to name the first pair (a, b) that breaks it.
    """

    source: FiniteGroup
    target: FiniteGroup
    table: dict[Permutation, Permutation]

    def __post_init__(self):
        if set(self.table) != set(self.source.elements):
            raise ValueError("homomorphism table must cover every source element")
        for v in self.table.values():
            if v not in self.target:
                raise ValueError(f"image {v} not in target group")
        if self.table[self.source.identity] != self.target.identity:
            raise ValueError("homomorphism must map identity to identity")
        images = {a.images: v.images for a, v in self.table.items()}
        if all(
            images[tuple([a[i] for i in s])] == tuple([image[i] for i in images[s]])
            for s in (g.images for g in self.source.generators)
            for a, image in images.items()
        ):
            return
        for a in self.source.elements:
            for b in self.source.elements:
                if self.table[compose(a, b)] != compose(self.table[a], self.table[b]):
                    raise ValueError(
                        f"not multiplicative at ({format_cycles(a)}, {format_cycles(b)})"
                    )

    def __call__(self, g: Permutation) -> Permutation:
        return self.table[g]

    def is_identity(self) -> bool:
        return self.source == self.target and all(k == v for k, v in self.table.items())

    @classmethod
    def identity_on(cls, group: FiniteGroup) -> "Homomorphism":
        return cls(group, group, {g: g for g in group.elements})

    @classmethod
    def from_generator_images(
        cls,
        source: FiniteGroup,
        target: FiniteGroup,
        pairs: Sequence[tuple[Permutation, Permutation]],
    ) -> "Homomorphism":
        """Extend generator assignments g_i -> k_i to the whole source group.

        The given permutations must generate the source group.  The closure of
        the pairs (g_i, k_i) rejects an assignment that gives one source element
        two images; the resulting table is then verified on the source
        group's generators like any other.
        """
        for g, k in pairs:
            if g not in source:
                raise ValueError(f"{format_cycles(g)} not in source group")
            if k not in target:
                raise ValueError(f"{format_cycles(k)} not in target group")

        def pair_move(g: Permutation, k: Permutation):
            g_move, k_move = _left_multiplication(g.images), _left_multiplication(k.images)
            return lambda pair: (g_move(pair[0]), k_move(pair[1]))

        moves = [pair_move(g, k) for g, k in pairs]
        conflict = ValueError("generator images do not define a homomorphism")
        try:
            # a consistent assignment closes to at most one pair per source element
            graph = closure([(source.identity.images, target.identity.images)], moves, source.order)
        except CapExceededError:
            raise conflict from None
        images = dict(graph)
        if len(images) != len(graph):
            raise conflict
        if len(images) != source.order:
            raise ValueError("given permutations do not generate the source group")
        target_element = {k.images: k for k in target.elements}
        table = {g: target_element[images[g.images]] for g in source.elements}
        return cls(source, target, table)

    def then(self, other: "Homomorphism") -> "Homomorphism":
        """Composite homomorphism (other after self)."""
        if self.target != other.source:
            raise DomainMismatchError("homomorphisms do not chain: target != source")
        return Homomorphism(self.source, other.target, {g: other(self(g)) for g in self.source})
