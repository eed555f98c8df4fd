"""Mappings between labeled finite sets, the action (g, f) -> g o f o T(g^-1),
orbit enumeration, the orbitals of G on Y x X, and validation of generalized
permutants and permutant measures.

Inside, a map Y -> X is an integer: its image tuple h read as a base-|X|
numeral, sum h[y] * |X|^(|Y|-1-y), so that numeric order is lexicographic
order of image tuples.  ``all_orbits`` partitions these codes with one lookup
table per generator of G, and a ``GeneralizedPermutant`` holds the codes of
its members; labeled ``Mapping`` objects are built only when asked for.

The action is built from G's generators alone, and permutants and measures
share one invariance test, a set of maps being tested as its indicator
weighting; the move of any other element is built only on request.

A classical permutant (bijections of X closed under conjugation by G) is the
special case where source and target coincide and T is the identity; no
separate representation is used for it.

This layer rests on ``perm`` and ``perception`` alone.  Worked permutants
built from graphs, such as the transposition permutant of K_n, live in
``experiments``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping as MappingABC, Sequence

from .perception import as_fraction
from .perm import (
    CapExceededError,
    DomainMismatchError,
    FiniteGroup,
    Homomorphism,
    Permutation,
    closure,
    orbit_partition,
)

DEFAULT_MAP_SPACE_CAP = 10**6


@dataclass(frozen=True)
class Mapping:
    """An arbitrary function between labeled finite sets: source[y] -> target[images[y]].

    Not necessarily injective or surjective.
    """

    source_labels: tuple[str, ...]
    target_labels: tuple[str, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != len(self.source_labels):
            raise ValueError("image count does not match the source size")
        n = len(self.target_labels)
        for i in self.images:
            if not 0 <= i < n:
                raise ValueError(f"image index {i} out of range for target of size {n}")

    def __call__(self, y: int) -> int:
        return self.images[y]

    def __str__(self) -> str:
        try:
            return self.compact()
        except ValueError:
            return "[" + ",".join(self.target_labels[i] for i in self.images) + "]"

    def image_size(self) -> int:
        return len(set(self.images))

    def compact(self) -> str:
        """Concatenated target labels in source order, e.g. "caf"; needs 1-char labels."""
        if any(len(lab) != 1 for lab in self.target_labels):
            raise ValueError("compact form needs single-character target labels")
        return "".join(self.target_labels[i] for i in self.images)

    def as_permutation(self) -> Permutation:
        if self.source_labels != self.target_labels or self.image_size() != len(self.images):
            raise ValueError(f"{self} is not a permutation of its source set")
        return Permutation(self.images, self.target_labels)


def mapping_from_permutation(p: Permutation) -> Mapping:
    return Mapping(p.labels, p.labels, p.images)


def mapping_from_labels(
    names: Sequence[str], source_labels: Sequence[str], target_labels: Sequence[str]
) -> Mapping:
    target_labels = tuple(target_labels)
    index = {lab: i for i, lab in enumerate(target_labels)}
    try:
        images = tuple(index[name] for name in names)
    except KeyError as exc:
        raise ValueError(f"unknown target label {exc.args[0]!r}") from exc
    return Mapping(tuple(source_labels), target_labels, images)


def parse_mapping(text: str, source_labels: Sequence[str], target_labels: Sequence[str]) -> Mapping:
    """Parse the compact form, one target label character per source element."""
    if any(len(lab) != 1 for lab in target_labels):
        raise ValueError("compact form needs single-character target labels")
    if len(text) != len(source_labels):
        raise ValueError(
            f"expected {len(source_labels)} characters for source {tuple(source_labels)}, got {text!r}"
        )
    return mapping_from_labels(list(text), source_labels, target_labels)


@dataclass(frozen=True)
class ActionContext:
    """The data (G, K, T) of the action (g, f) -> g o f o T(g^-1) on maps Y -> X.

    G acts on the target set X, K on the source set Y, and T : G -> K is a
    verified homomorphism.  Only the generators' moves on image tuples are
    built here, in ``moves`` in generator order; ``move`` builds any element's.
    """

    G: FiniteGroup
    K: FiniteGroup
    T: Homomorphism

    def __post_init__(self):
        if self.T.source != self.G or self.T.target != self.K:
            raise ValueError("homomorphism must map the acting group G into K")
        object.__setattr__(self, "moves", tuple(map(self.move, self.G.generators)))

    def move(self, g: Permutation) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """The move h -> g o h o T(g^-1) of an element g of G on image tuples."""
        return _alpha_move(g.images, self.T(g.inverse()).images)

    @property
    def x_labels(self) -> tuple[str, ...]:
        return self.G.labels

    @property
    def y_labels(self) -> tuple[str, ...]:
        return self.K.labels

    def map_space_size(self) -> int:
        return self.G.degree ** self.K.degree

    def mapping(self, value) -> Mapping:
        """Coerce a compact string, label list, or Mapping into this context."""
        if isinstance(value, Mapping):
            self._check_mapping(value)
            return value
        if isinstance(value, str):
            return parse_mapping(value, self.y_labels, self.x_labels)
        return mapping_from_labels(value, self.y_labels, self.x_labels)

    def _check_mapping(self, f: Mapping) -> None:
        if f.source_labels != self.y_labels or f.target_labels != self.x_labels:
            raise DomainMismatchError(
                f"mapping {f} does not go from {self.y_labels} to {self.x_labels}"
            )

    def all_mappings(self) -> Iterator[Mapping]:
        """Every map Y -> X in lexicographic image order."""
        for images in product(range(self.G.degree), repeat=self.K.degree):
            yield Mapping(self.y_labels, self.x_labels, images)

    def map_code(self, images: Sequence[int]) -> int:
        """The code of a map: its image tuple as a base-|X| numeral, first image most significant."""
        nx, code = self.G.degree, 0
        for i in images:
            code = code * nx + i
        return code

    def map_images(self, code: int) -> tuple[int, ...]:
        """The image tuple of a map code."""
        nx, ny = self.G.degree, self.K.degree
        return tuple(code // nx ** (ny - 1 - y) % nx for y in range(ny))

    def code_tables(self) -> list[list[int]]:
        """Each generator's move h -> g o h o T(g^-1) as a table indexed by map
        code.  As (g o h o T(g^-1))[T(g)(z)] = g(h[z]), source point z adds
        g(h[z]) * |X|^(|Y|-1-T(g)(z)) to the code of the moved map."""
        nx, ny = self.G.degree, self.K.degree
        tables = []
        for g in self.G.generators:
            t = self.T(g).images
            table = [0]
            for z in range(ny):
                place = nx ** (ny - 1 - t[z])
                digits = [x * place for x in g.images]
                table = [c + d for c in table for d in digits]
            tables.append(table)
        return tables


def endo_context(group: FiniteGroup) -> ActionContext:
    return ActionContext(group, group, Homomorphism.identity_on(group))


def alpha_action(g: Permutation, f: Mapping, ctx: ActionContext) -> Mapping:
    """The left action alpha(g, f) = g o f o T(g^-1)."""
    if g not in ctx.G:
        raise ValueError(f"{g} is not in the acting group")
    ctx._check_mapping(f)
    return Mapping(f.source_labels, f.target_labels, ctx.move(g)(f.images))


def _escape_error(f: Mapping, g: Permutation, ctx: ActionContext) -> ValueError:
    """The error for a set of maps that holds f but not alpha(g, f)."""
    moved = Mapping(f.source_labels, f.target_labels, ctx.move(g)(f.images))
    return ValueError(f"not alpha-closed: alpha({g}, {f}) = {moved} escapes")


@dataclass(frozen=True, init=False)
class GeneralizedPermutant:
    """A finite, alpha-closed set of maps Y -> X; closure is checked at
    construction by ``is_generalized_permutant``, whose witness the error names.

    The members are held as their sorted codes (``ActionContext.map_code``),
    with a set beside them, so ``size``, ``representative`` and membership
    need no labeled objects; the ``Mapping`` members are built on first
    access to ``members``.  Equality compares the context and the codes.
    """

    context: ActionContext
    codes: tuple[int, ...]

    def __init__(self, context: ActionContext, members: Iterable[Mapping]):
        self.__dict__["context"] = context
        self.__post_init__(tuple(members))

    def __post_init__(self, members: tuple[Mapping, ...]):
        if len(set(members)) != len(members):
            raise ValueError("duplicate members")
        ok, witness = is_generalized_permutant(members, self.context)
        if not ok:
            raise _escape_error(*witness, self.context)
        codes = {self.context.map_code(f.images) for f in members}
        members = tuple(sorted(members, key=lambda m: m.images))
        self.__dict__.update(codes=tuple(sorted(codes)), _code_set=codes, members=members)

    @classmethod
    def _from_codes(cls, context: ActionContext, codes: set) -> "GeneralizedPermutant":
        """The permutant of a set of codes that is alpha-closed by construction."""
        h = cls.__new__(cls)
        h.__dict__.update(context=context, codes=tuple(sorted(codes)), _code_set=codes)
        return h

    @cached_property
    def members(self) -> tuple[Mapping, ...]:
        ctx = self.context
        return tuple(Mapping(ctx.y_labels, ctx.x_labels, ctx.map_images(c)) for c in self.codes)

    @property
    def size(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self.members)

    def __contains__(self, f: Mapping) -> bool:
        ctx = self.context
        return (
            isinstance(f, Mapping)
            and (f.source_labels, f.target_labels) == (ctx.y_labels, ctx.x_labels)
            and ctx.map_code(f.images) in self._code_set
        )

    def representative(self) -> Mapping:
        if not self.codes:
            raise ValueError("the empty permutant has no representative")
        ctx = self.context
        return Mapping(ctx.y_labels, ctx.x_labels, ctx.map_images(self.codes[0]))


def orbit(f: Mapping | str, ctx: ActionContext) -> GeneralizedPermutant:
    """The orbit of f under alpha, enumerated by closure over G's generators."""
    images = closure((ctx.mapping(f).images,), ctx.moves)
    return GeneralizedPermutant._from_codes(ctx, {ctx.map_code(h) for h in images})


def all_orbits(ctx: ActionContext) -> tuple[list[GeneralizedPermutant], dict[int, int]]:
    """Partition the whole map space X^Y into orbits, with a size -> count census.

    The points are the codes 0 .. |X|^|Y| - 1 and each generator moves them
    through its code table.  Orbits are listed by their smallest code, which
    is their lexicographically smallest member, smallest first; that member is
    also each orbit's canonical representative.  Closure is verified for all
    orbits at once: every table must keep every code's orbit id.  Raises
    CapExceededError for a map space over DEFAULT_MAP_SPACE_CAP elements.
    """
    total = ctx.map_space_size()
    if total > DEFAULT_MAP_SPACE_CAP:
        raise CapExceededError(f"map space has {total} elements, over the cap {DEFAULT_MAP_SPACE_CAP}")
    tables = ctx.code_tables()
    orbits = list(orbit_partition(range(total), [table.__getitem__ for table in tables]))
    orbit_id = [0] * total
    for i, o in enumerate(orbits):
        for c in o:
            orbit_id[c] = i
    for g, table in zip(ctx.G.generators, tables):
        if list(map(orbit_id.__getitem__, table)) != orbit_id:
            c = next(c for c in range(total) if orbit_id[table[c]] != orbit_id[c])
            raise _escape_error(Mapping(ctx.y_labels, ctx.x_labels, ctx.map_images(c)), g, ctx)
    permutants = [GeneralizedPermutant._from_codes(ctx, o) for o in orbits]
    census: dict[int, int] = {}
    for o in permutants:
        census[o.size] = census.get(o.size, 0) + 1
    return permutants, dict(sorted(census.items()))


def orbitals(ctx: ActionContext) -> list[tuple[tuple[int, int], ...]]:
    """The orbitals: the orbits of G on the pairs Y x X under
    (y, x) -> (T(g)(y), g(x)), each sorted and listed by its smallest pair.

    A table indexed [y][x] is T-equivariant exactly when it is constant on
    every orbital, so the orbitals' indicators are a basis of the equivariant
    tables (the orbit basis of Maron, Ben-Hamu, Shamir and Lipman, ICLR 2019).
    The count table of an alpha-invariant set of maps is one such table.
    """
    generators = [(ctx.T(g).images, g.images) for g in ctx.G.generators]
    return _pair_orbits(ctx.K.degree, ctx.G.degree, generators)


def _alpha_move(
    g_images: tuple[int, ...], t_images: tuple[int, ...]
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The move h -> g o h o t on image tuples: alpha(g, .) when t is T(g^-1)."""
    return lambda h: tuple([g_images[h[y]] for y in t_images])


def _pair_orbits(
    ny: int, nx: int, generators: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]
) -> list[tuple[tuple[int, int], ...]]:
    """The orbits of the pairs Y x X under (y, x) -> (t[y], g[x]) for the
    image pairs (t, g) of the generators, each sorted, by smallest pair."""
    moves = [lambda p, t=t, g=g: (t[p[0]], g[p[1]]) for t, g in generators]
    return [tuple(sorted(o)) for o in orbit_partition(product(range(ny), range(nx)), moves)]


def _invariance_witness(
    weights: MappingABC[tuple[int, ...], object], ctx: ActionContext
) -> tuple[Mapping, Permutation] | None:
    """None if alpha keeps a weighting of image tuples (absent tuples weigh
    0), else the witness (f, g): the first point f in image order, and for it
    the first generator g of G whose move changes the weight.  Decided on the
    generators, as every element of G is a word in them."""
    for h in sorted(weights):
        w = weights[h]
        for g, move in zip(ctx.G.generators, ctx.moves):
            if weights.get(move(h), 0) != w:
                return Mapping(ctx.y_labels, ctx.x_labels, h), g
    return None


def is_generalized_permutant(
    members: Iterable[Mapping], ctx: ActionContext
) -> tuple[bool, tuple[Mapping, Permutation] | None]:
    """Whether a set of maps is alpha-closed; on failure, a witness (h, g) with
    g a generator of G and alpha(g, h) outside the set.  The set is tested as
    its indicator weighting, 1 on each member, so h is the first member, in
    image order, that a generator moves out, and g the first such generator."""
    members = list(members)
    for f in members:
        ctx._check_mapping(f)
    witness = _invariance_witness(dict.fromkeys((f.images for f in members), 1), ctx)
    return witness is None, witness


@dataclass(frozen=True)
class PermutantMeasure:
    """A finitely supported signed weighting on maps Y -> X; maps not listed
    weigh zero.  Invariance under the alpha action is checked separately by
    is_permutant_measure."""

    context: ActionContext
    weights: MappingABC[Mapping, Fraction]

    def __post_init__(self):
        clean = {}
        for f, w in self.weights.items():
            self.context._check_mapping(f)
            w = as_fraction(w)
            if w != 0:
                clean[f] = w
        object.__setattr__(self, "weights", clean)

    def weight(self, f: Mapping) -> Fraction:
        return self.weights.get(f, Fraction(0))

    @property
    def support(self) -> tuple[Mapping, ...]:
        return tuple(sorted(self.weights, key=lambda m: m.images))

    def total_variation(self) -> Fraction:
        return sum((abs(w) for w in self.weights.values()), Fraction(0))


def measure_on_orbit(o: GeneralizedPermutant, weight) -> PermutantMeasure:
    """Equal weight on every member of an orbit (alpha-invariant by construction)."""
    w = as_fraction(weight)
    return PermutantMeasure(o.context, {f: w for f in o.members})


def uniform_measure(h: GeneralizedPermutant) -> PermutantMeasure:
    """The averaging measure 1/|H| on a nonempty permutant."""
    if h.size == 0:
        raise ValueError("cannot average over the empty permutant")
    return PermutantMeasure(h.context, {f: Fraction(1, h.size) for f in h.members})


def is_permutant_measure(
    m: PermutantMeasure,
) -> tuple[bool, tuple[Mapping, Permutation] | None]:
    """Atom-level alpha-invariance of the weights; sufficient since the measure
    is atomic and every subset of the finite map space is measurable.  On
    failure, the witness (f, g) is the first support map f, in image order,
    whose weight a generator's move changes, and the first such generator g."""
    witness = _invariance_witness({f.images: w for f, w in m.weights.items()}, m.context)
    return witness is None, witness

