"""Permutations of labeled finite sets, cycle notation, and explicit group closure.

Everything here is deliberately explicit and desk-scale: a group holds the
image tuples of all its elements, in increasing order, and a homomorphism
the image tuples of their images, verified at construction.  No
Schreier-Sims machinery: the graph automorphism search keeps one transversal
of witnesses per stabilizer-chain level only to list its group, which is an
explicit element list like any other.

One loop closes every group, coset by coset (Dimino's algorithm, as in
G. Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991):
``_extend_by_cosets``, from generators in ``generate_group``, for a sorted
element list in ``_greedy_generators``, which picks its greedy generators,
and for a homomorphism given by generator images on its graph {(g, T(g))},
the subgroup of G x K on the joined image tuples.  ``group_from_elements``
checks that its list is a group; the graph automorphism groups, which
``aut`` prints straight from image tuples with ``_cycle_texts``, are groups
by construction.  One loop splits a whole space into orbits: its points
numbered from 0 and each generator's move a lookup table, ``_label_orbits``
labels every point with its orbit in one pass.  It gives the coordinate
orbits of a group, the alpha-action census on map codes
(``permutant.all_orbits``, remembered per process by integer structure), the
orbitals on pair codes, the conjugation orbits of the bijections by their
positions, and the subgraph classes on edge-vector codes."""

from __future__ import annotations

import math
import os
from operator import itemgetter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

DEFAULT_GROUP_CAP = math.factorial(10)

_ENV_GROUP_CAP = "GENEO_MAX_GROUP"


class CycleParseError(ValueError):
    """Malformed cycle-product text."""


class DomainMismatchError(ValueError):
    """Operands live on different indexed sets."""


class CapExceededError(RuntimeError):
    """An enumeration grew past its configured size cap."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}; ``images[i]`` is the image of element i.

    ``labels`` names the underlying set for parsing/printing; all computation
    uses integer indices.
    """

    images: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a bijection of 0..{n - 1}: {self.images}")
        if len(self.labels) != n:
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

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images), self.labels)

    def pullback(self, values: Sequence) -> tuple:
        """Precompose a coordinate vector: (values o self)[i] = values[self(i)]."""
        return tuple(values[im] for im in self.images)


def _inverse(images: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of the inverse of the permutation with these images."""
    inv = [0] * len(images)
    for i, im in enumerate(images):
        inv[im] = i
    return tuple(inv)


def identity(n: int, labels: tuple[str, ...]) -> Permutation:
    return Permutation(tuple(range(n)), labels)


def _require_labels(p: Permutation, labels: tuple[str, ...]) -> None:
    if p.labels != labels:
        raise DomainMismatchError(f"label sets differ: {labels} vs {p.labels}")


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(x) = p(q(x))."""
    if p.n != q.n:
        raise DomainMismatchError(f"domain sizes differ: {p.n} vs {q.n}")
    _require_labels(q, p.labels)
    return Permutation(tuple(p.images[qi] for qi in q.images), p.labels)


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def parse_cycles(text: str, labels: Sequence[str]) -> Permutation:
    """Parse a disjoint-cycle product like "(A,C)(B,D)" over the given labels.

    The grammar: parenthesised cycles with only whitespace around and between
    them, each naming at least two labels separated by commas or whitespace;
    a label holding a comma, a parenthesis or whitespace can never be named.
    The literal token "id" parses to the identity.  Raises CycleParseError on
    a duplicate in the labels, then on stray text anywhere in the product,
    then cycle by cycle on too few elements, unknown labels, or a label
    repeated anywhere in the product.

    One scan splits the text into cycle bodies, and one label index reads
    their names.  tests/test_perm.py keeps a regular-expression parser of
    the same grammar as the reference for its results and error texts.
    """
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise CycleParseError(f"duplicate labels in domain: {labels}")
    stripped = text.strip()
    if stripped == "id":
        return identity(len(labels), labels)
    bodies = []
    end = 0
    while (start := stripped.find("(", end)) >= 0:
        close = stripped.find(")", start)
        body = stripped[start + 1 : close]
        if close < 0 or "(" in body or stripped[end:start].strip():
            raise CycleParseError(f"malformed cycle product: {text!r}")
        bodies.append(body)
        end = close + 1
    if not bodies or end < len(stripped):
        raise CycleParseError(f"malformed cycle product: {text!r}")
    images = list(range(len(labels)))
    used: set[int] = set()
    for body in bodies:
        names = body.replace(",", " ").split()
        if len(names) < 2:
            raise CycleParseError(f"cycle needs at least two elements: ({body})")
        try:
            idxs = [index[name] for name in names]
        except KeyError as exc:
            raise CycleParseError(f"unknown label {exc.args[0]!r} (domain {labels})") from None
        for i in idxs:
            if i in used:
                raise CycleParseError(f"label {labels[i]!r} repeated in {text!r}")
            used.add(i)
        for a, b in zip(idxs, idxs[1:] + idxs[:1]):
            images[a] = b
    return Permutation(tuple(images), labels)


def format_cycles(p: Permutation) -> str:
    """Inverse of parse_cycles: disjoint cycles, each from its smallest index
    and in order of that index, fixed points omitted, identity as "id"."""
    return _cycle_texts([p.images], p.labels)[0]


def _cycle_texts(perms: Iterable[Sequence[int]], labels: Sequence[str]) -> list[str]:
    """format_cycles of each permutation, given by its images, over these
    labels, with "(" + label and "," + label joined once per call.  Each cycle
    is walked from its smallest point, the first the scan meets, and marks its
    other points -1 in a copy of the images, so the scan skips them."""
    opens = ["(" + label for label in labels]
    seps = ["," + label for label in labels]
    texts = []
    for images in perms:
        rest = list(images)
        parts = []
        for start in range(len(rest)):
            image = rest[start]
            if image > start:
                parts.append(opens[start])
                while image != start:
                    parts.append(seps[image])
                    rest[image], image = -1, rest[image]
                parts.append(")")
        texts.append("".join(parts) or "id")
    return texts


def _label_orbits(total: int, tables: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """The orbit id of every point 0 .. total - 1 under the lookup tables, one
    per generator, and the orbits' points in increasing order, numbered by
    smallest point: one breadth-first search over the tables from each point
    not yet labelled."""
    orbit_id = [-1] * total
    orbits: list[list[int]] = []
    for start in range(total):
        if orbit_id[start] < 0:
            i = len(orbits)
            orbit_id[start] = i
            frontier = [start]
            for c in frontier:
                for table in tables:
                    d = table[c]
                    if orbit_id[d] < 0:
                        orbit_id[d] = i
                        frontier.append(d)
            frontier.sort()
            orbits.append(frontier)
    return orbit_id, orbits


def _extend_by_cosets(elements: list[tuple[int, ...]], found: set, generators: Sequence[tuple], cap: int) -> None:
    """Grow a closed subgroup H, listed in ``elements`` and held in ``found``,
    in place to the group that the generators generate; they include H's own.

    Each new element x = t o r, for a generator t and a coset leader r, brings
    its whole left coset x o H, and x becomes a leader.  As t o (r o H) is again
    a left coset, the leaders, from the identity on, reach every coset.  Raises
    CapExceededError, before composing it, when a coset would take the group
    past cap elements.  Each x o h is read off x by one ``itemgetter(*h)``.
    """
    if len(elements[0]) < 2:
        return  # the identity is all there is, and itemgetter(i) returns no tuple
    subgroup = [itemgetter(*h) for h in elements]
    leaders = [tuple(range(len(elements[0])))]
    for r in leaders:
        for t in generators:
            x = tuple([t[i] for i in r])
            if x not in found:
                if len(elements) + len(subgroup) > cap:
                    raise CapExceededError(f"group closure exceeded cap {cap}")
                coset = [h(x) for h in subgroup]
                elements += coset
                found.update(coset)
                leaders.append(x)


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
    """An explicit permutation group: the image tuples of all elements, in
    increasing order so that every downstream enumeration (orbits, censuses,
    witnesses) is deterministic, and of the generators.  The labeled
    ``elements``, ``generators`` and ``identity`` are built on first access.

    The constructor checks that each image is a bijection of range(n), n the
    number of labels, that the images are sorted and distinct with the
    identity first, and that the generators are among them.  The builders
    below and the graph groups build their fields so, and skip the check
    through ``_unchecked``.

    Invariant: ``generator_images`` generate ``images``.  The builders below
    guarantee it, the graph groups through ``_greedy_generators``; the
    homomorphism, equivariance, closure and invariance checks rely on it to
    decide a property of the whole group on the generators alone, and to name
    a generator as the witness when it fails.  The constructor does not check
    it.
    """

    labels: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]
    generator_images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ident = tuple(range(len(self.labels)))
        for p in (*self.images, *self.generator_images):
            if type(p) is not tuple or not all(type(i) is int for i in p) or sorted(p) != list(ident):
                raise ValueError(f"not a bijection of 0..{len(ident) - 1}: {p!r}")
        if not self.images or self.images[0] != ident:
            raise ValueError("the identity must be the first element")
        if any(a >= b for a, b in zip(self.images, self.images[1:])):
            raise ValueError("the elements must be sorted and distinct")
        for s in self.generator_images:
            if s not in self._position:
                raise ValueError(f"generator {s} is not an element")

    @classmethod
    def _unchecked(cls, labels, images, generator_images) -> "FiniteGroup":
        """The group of fields that its builder guarantees, unchecked."""
        group = cls.__new__(cls)
        group.__dict__.update(labels=labels, images=images, generator_images=generator_images)
        return group

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(p, self.labels) for p in self.images)

    @cached_property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(s, self.labels) for s in self.generator_images)

    @cached_property
    def identity(self) -> Permutation:
        return Permutation(self.images[0], self.labels)

    @cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        """Each element's index in ``images``: membership, and a homomorphism's lookups."""
        return dict(zip(self.images, range(len(self.images))))

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def degree(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.images)

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and p.labels == self.labels and p.images in self._position

    def coordinate_orbits(self) -> list[list[int]]:
        """Orbits of the group action on the underlying indices, each sorted,
        listed by smallest index."""
        return _label_orbits(self.degree, self.generator_images)[1]


def generate_group(generators: Iterable[Permutation]) -> FiniteGroup:
    """Smallest group containing the generators, closed coset by coset.

    The generators must act on one labeled domain, which the group takes.
    Use trivial_group for the group with no generators.  Each generator in
    turn that lies outside the group so far extends it by its cosets.  Raises
    CapExceededError if the group grows past group_cap() (10!, or the
    GENEO_MAX_GROUP environment variable).
    """
    gens = list(generators)
    if not gens:
        raise ValueError("empty generator list: use trivial_group(labels)")
    lab = gens[0].labels
    for g in gens:
        _require_labels(g, lab)
    images, ident = tuple(g.images for g in gens), tuple(range(len(lab)))
    elements, found, cap = [ident], {ident}, group_cap()
    for i, g in enumerate(images):
        if g not in found:
            _extend_by_cosets(elements, found, images[: i + 1], cap)
    return FiniteGroup._unchecked(lab, tuple(sorted(elements)), images)


def trivial_group(labels: Sequence[str]) -> FiniteGroup:
    """The one-element group on the given labels, with no generators."""
    return FiniteGroup._unchecked(tuple(labels), (tuple(range(len(labels))),), ())


def group_from_elements(elements: Iterable[Permutation]) -> FiniteGroup:
    """Wrap an explicit element set of one labeled domain as a FiniteGroup,
    checked to be a group, with the greedy generators of ``_greedy_generators``.

    The elements form a group exactly when the greedy generators generate
    them.  When they do not, some greedy generator s takes some element p out
    of the set, as a set that holds the identity and is closed under every s
    holds the group they generate; the error names the first such p in
    element order and, for it, the first such s.
    """
    elems = list(elements)
    lab = elems[0].labels if elems else ()
    for p in elems:
        _require_labels(p, lab)
    members = {p.images for p in elems}
    images = sorted(members)
    if not images:
        raise ValueError("a group needs at least the identity")
    if images[0] != tuple(range(len(lab))):  # the identity is the smallest permutation
        raise ValueError("element set lacks the identity")
    gens = []
    try:
        closed = _greedy_generators(images, gens) == members
    except CapExceededError:
        # the generators make more elements than the set holds
        closed = False
    if not closed:
        p, s = next((p, s) for p in images for s in gens if tuple([s[i] for i in p]) not in members)
        raise ValueError(f"element set not closed under composition at {Permutation(s, lab)}, {Permutation(p, lab)}")
    return FiniteGroup._unchecked(lab, tuple(images), tuple(gens))


def _greedy_generators(elements: Sequence[tuple[int, ...]], gens: list) -> set:
    """The greedy generators of a sorted list of image tuples that starts
    with the identity: each element, in order, that lies outside the subgroup
    generated so far is appended to gens and extends that subgroup by its
    cosets, until the subgroup has as many elements as the list.  Returns
    the subgroup's element set, which is the list's exactly when the list is
    a group.  Raises CapExceededError, with the generators so far in gens,
    when the subgroup would grow past the list.
    """
    have, found = [elements[0]], {elements[0]}
    for p in elements:
        if p not in found:
            gens.append(p)
            _extend_by_cosets(have, found, gens, len(elements))
            if len(have) == len(elements):
                break
    return found


@dataclass(frozen=True)
class Homomorphism:
    """A group homomorphism T: ``images[i]`` is the image tuple of T applied
    to ``source.images[i]``.  Verified at construction, unless it is the
    identity that ``identity_on`` builds from the group's own tuple.

    Each image must be a bijection of the target's points in the target
    group, and the identity must map to the identity.  Multiplicativity is
    decided on the generators: T(a o s) = T(a) o T(s) for every element a and
    generator s implies it for all pairs, as every element is a positive word
    in the generators.  A failure names the first a in element order and, for
    it, the first generator s that breaks it.
    """

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        source, target = self.source, self.target
        if target is source and self.images is source.images:
            return
        images = tuple(map(tuple, self.images))
        object.__setattr__(self, "images", images)
        if len(images) != source.order:
            raise ValueError(f"homomorphism needs {source.order} images, one per source element, got {len(images)}")
        for v in images:
            if v not in target._position:
                if sorted(v) != list(range(target.degree)):
                    raise ValueError(f"image {v} is not a bijection of 0..{target.degree - 1}")
                raise ValueError(f"image {_cycle_texts([v], target.labels)[0]} not in target group")
        if images[0] != target.images[0]:
            raise ValueError("homomorphism must map identity to identity")
        position = source._position
        gens = [(s, images[position[s]]) for s in source.generator_images]
        for a, image in zip(source.images, images):
            for s, s_image in gens:
                if images[position[tuple([a[i] for i in s])]] != tuple([image[i] for i in s_image]):
                    raise ValueError("not multiplicative at ({}, {})".format(*_cycle_texts([a, s], source.labels)))

    def __call__(self, g: Permutation) -> Permutation:
        """T(g); KeyError for a g outside the source group."""
        if g.labels != self.source.labels:
            raise KeyError(g)
        return Permutation(self.image(g.images), self.target.labels)

    def image(self, p: tuple[int, ...]) -> tuple[int, ...]:
        """T on image tuples; KeyError for a p outside the source group."""
        return self.images[self.source._position[p]]

    def is_identity(self) -> bool:
        return self.source == self.target and self.images == self.source.images

    @classmethod
    def identity_on(cls, group: FiniteGroup) -> "Homomorphism":
        """The identity of a group, from the group's own image tuple."""
        return cls(group, group, group.images)

    @classmethod
    def from_generator_images(
        cls,
        source: FiniteGroup,
        target: FiniteGroup,
        pairs: Sequence[tuple[Permutation, Permutation]],
    ) -> "Homomorphism":
        """Extend generator assignments g_i -> k_i to the whole source group.

        The given permutations must generate the source group.  The graph of
        the extension is the subgroup of G x K that the pairs (g_i, k_i)
        generate, closed by cosets on the joined image tuples g_i + k_i like
        any group; it rejects an assignment that gives one source element two
        images.  The resulting images are then verified on the source group's
        generators like any others.
        """
        for g, k in pairs:
            if g not in source:
                raise ValueError(f"{format_cycles(g)} not in source group")
            if k not in target:
                raise ValueError(f"{format_cycles(k)} not in target group")

        # the graph {(g, T(g))} as one group on the source's points followed by the target's
        n = source.degree
        joined = [g.images + tuple([n + i for i in k.images]) for g, k in pairs]
        graph = [tuple(range(n + target.degree))]
        conflict = ValueError("generator images do not define a homomorphism")
        try:
            # a consistent assignment closes to at most one pair per source element
            _extend_by_cosets(graph, set(graph), joined, source.order)
        except CapExceededError:
            raise conflict from None
        images = {p[:n]: tuple([i - n for i in p[n:]]) for p in graph}
        if len(images) != len(graph):
            raise conflict
        if len(images) != source.order:
            raise ValueError("given permutations do not generate the source group")
        return cls(source, target, tuple(map(images.__getitem__, source.images)))

    def then(self, other: "Homomorphism") -> "Homomorphism":
        """Composite homomorphism (other after self)."""
        if self.target != other.source:
            raise DomainMismatchError("homomorphisms do not chain: target != source")
        return Homomorphism(self.source, other.target, tuple(map(other.image, self.images)))
