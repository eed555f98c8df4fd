"""Mappings between labeled finite sets, the action (g, f) -> g o f o T(g^-1),
orbit enumeration, the orbitals of G on Y x X, and validation of generalized
permutants and permutant measures.

Inside, a map Y -> X is its image tuple h or its code, h read as a base-|X|
numeral, sum h[y] * |X|^(|Y|-1-y), so that numeric order is lexicographic
order of image tuples.  ``_partition`` labels every code with its orbit in
one pass, a breadth-first search over one lookup table per generator of G
from each code not yet labelled (``perm._label_orbits``).  The same labeller
splits the pairs Y x X into orbitals, coded y * |X| + x; ``orbit`` walks a
single orbit itself, over the generators' moves on image tuples.
The partition depends on |X|, |Y| and the generators' images under g
and T alone, not on labels, so it is remembered per process by that integer
structure and relabeled copies of a context share it: the last
``_REMEMBERED_PARTITIONS`` = 8 partitions, the least recently used dropped
first, each as its codes in orbit order in one ``array('i')`` beside the
orbit sizes (4 bytes per map).  The map-space cap is checked on every call.
``all_orbits`` builds on it, and ``graph._subgraph_partition`` asks the same
memo for the subgraph classes of K_n.

A ``GeneralizedPermutant`` holds its members' codes, a ``PermutantMeasure``
{image tuple: Fraction}, and ``ActionContext.read_map`` reads a labeled map
to its image tuple; ``Mapping`` objects are built for library callers and
witnesses alone.

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

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import accumulate, product
from typing import Callable, Iterable, Iterator, Mapping as MappingABC, Sequence

from .perception import as_fraction
from .perm import (
    CapExceededError,
    DomainMismatchError,
    FiniteGroup,
    Homomorphism,
    Permutation,
    _inverse,
    _label_orbits,
)

DEFAULT_MAP_SPACE_CAP = 10**6
# orbit partitions of map spaces kept in memory; the least recently used goes first
_REMEMBERED_PARTITIONS = 8


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


@dataclass(frozen=True)
class ActionContext:
    """The data (G, K, T) of the action (g, f) -> g o f o T(g^-1) on maps Y -> X.

    G acts on the target set X, K on the source set Y, and T : G -> K is a
    verified homomorphism.  Only the generators' moves on image tuples are
    built here, in ``moves`` in generator order; ``move`` builds any element's
    from its image tuple.  The place values of map codes and the index of the
    target labels are computed once.
    """

    G: FiniteGroup
    K: FiniteGroup
    T: Homomorphism

    def __post_init__(self):
        if self.T.source != self.G or self.T.target != self.K:
            raise ValueError("homomorphism must map the acting group G into K")
        object.__setattr__(self, "moves", tuple(map(self.move, self.G.generator_images)))
        # the place value |X|^(|Y|-1-y) of source point y in a map code
        nx, ny = self.G.degree, self.K.degree
        object.__setattr__(self, "_places", tuple(nx ** (ny - 1 - y) for y in range(ny)))
        # each target label's index, for read_map
        object.__setattr__(self, "_x_index", {lab: i for i, lab in enumerate(self.G.labels)})

    def move(self, g: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        """The move h -> g o h o T(g)^-1 on image tuples of the element g of G."""
        t = self.T.image(g)
        return _alpha_move(g, _inverse(t))

    @property
    def x_labels(self) -> tuple[str, ...]:
        return self.G.labels

    @property
    def y_labels(self) -> tuple[str, ...]:
        return self.K.labels

    def map_space_size(self) -> int:
        return self.G.degree ** self.K.degree

    def read_map(self, value: str | Sequence[str]) -> tuple[int, ...]:
        """The image tuple of a map written in compact form, one target label
        character per source point, or as a list of target labels."""
        ny = self.K.degree
        if isinstance(value, str):
            if any(len(lab) != 1 for lab in self.x_labels):
                raise ValueError("compact form needs single-character target labels")
            if len(value) != ny:
                raise ValueError(f"expected {ny} characters for source {self.y_labels}, got {value!r}")
        index = self._x_index
        try:
            images = tuple([index[name] for name in value])
        except KeyError as exc:
            raise ValueError(f"unknown target label {exc.args[0]!r}") from None
        if len(images) != ny:
            raise ValueError("image count does not match the source size")
        return images

    def mapping(self, value) -> Mapping:
        """Coerce a compact string, label list, or Mapping into this context."""
        if isinstance(value, Mapping):
            self._check_mapping(value)
            return value
        return Mapping(self.y_labels, self.x_labels, self.read_map(value))

    def _check_images(self, h) -> tuple[int, ...]:
        """h, if it is the image tuple of a map Y -> X, else a ValueError naming it."""
        nx, ny = self.G.degree, self.K.degree
        if type(h) is not tuple or len(h) != ny or not all(type(i) is int and 0 <= i < nx for i in h):
            raise ValueError(f"{h!r} is not the image tuple of a map from {ny} points to {nx} points")
        return h

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
        nx = self.G.degree
        return tuple([code // place % nx for place in self._places])


def endo_context(group: FiniteGroup) -> ActionContext:
    return ActionContext(group, group, Homomorphism.identity_on(group))


def alpha_action(g: Permutation, f: Mapping, ctx: ActionContext) -> Mapping:
    """The left action alpha(g, f) = g o f o T(g^-1)."""
    if g not in ctx.G:
        raise ValueError(f"{g} is not in the acting group")
    ctx._check_mapping(f)
    return Mapping(f.source_labels, f.target_labels, ctx.move(g.images)(f.images))


class NotAlphaClosedError(ValueError):
    """A set of maps that alpha does not keep.  ``witness`` is (f, g): a member
    f and a generator g of G with alpha(g, f) outside the set."""

    def __init__(self, witness: tuple[Mapping, Permutation], ctx: ActionContext):
        f, g = self.witness = witness
        moved = Mapping(f.source_labels, f.target_labels, ctx.move(g.images)(f.images))
        super().__init__(f"not alpha-closed: alpha({g}, {f}) = {moved} escapes")


@dataclass(frozen=True, init=False)
class GeneralizedPermutant:
    """A finite, alpha-closed set of maps Y -> X, given by their image tuples;
    closure is checked at construction by ``is_generalized_permutant``, and a
    failure raises NotAlphaClosedError with its witness.

    The members are held as their sorted codes (``ActionContext.map_code``),
    so ``size``, ``representative`` and membership (of a ``Mapping`` or an
    image tuple) need no labeled objects; the set of codes is built on the
    first membership test and the ``Mapping`` members on first access to
    ``members``.  Equality compares the context and the codes.
    """

    context: ActionContext
    codes: tuple[int, ...]

    def __init__(self, context: ActionContext, members: Iterable[tuple[int, ...]]):
        self.__dict__["context"] = context
        self.__post_init__(tuple(members))

    def __post_init__(self, members: tuple[tuple[int, ...], ...]):
        ctx = self.context
        ok, witness = is_generalized_permutant(members, ctx)
        if len(set(members)) != len(members):
            raise ValueError("duplicate members")
        if not ok:
            raise NotAlphaClosedError(witness, ctx)
        self.__dict__["codes"] = tuple(sorted(map(ctx.map_code, members)))

    @classmethod
    def _from_codes(cls, context: ActionContext, codes: Sequence[int]) -> "GeneralizedPermutant":
        """The permutant of distinct codes, in code order, that are alpha-closed by construction."""
        h = cls.__new__(cls)
        h.__dict__.update(context=context, codes=tuple(codes))
        return h

    @cached_property
    def _code_set(self) -> frozenset:
        return frozenset(self.codes)

    @cached_property
    def members(self) -> tuple[Mapping, ...]:
        ctx = self.context
        return tuple(Mapping(ctx.y_labels, ctx.x_labels, ctx.map_images(c)) for c in self.codes)

    @property
    def size(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self.members)

    def __contains__(self, f: Mapping | tuple[int, ...]) -> bool:
        ctx = self.context
        if isinstance(f, Mapping) and (f.source_labels, f.target_labels) == (ctx.y_labels, ctx.x_labels):
            f = f.images
        try:
            return ctx.map_code(ctx._check_images(f)) in self._code_set
        except ValueError:  # a Mapping of another context, or no image tuple of a map Y -> X
            return False

    def representative(self) -> Mapping:
        if not self.codes:
            raise ValueError("the empty permutant has no representative")
        ctx = self.context
        return Mapping(ctx.y_labels, ctx.x_labels, ctx.map_images(self.codes[0]))


def orbit(f: Mapping | str, ctx: ActionContext) -> GeneralizedPermutant:
    """The orbit of f under alpha: a breadth-first walk from f over the moves
    of G's generators, in a list that grows while it is read."""
    images = [ctx.mapping(f).images]
    seen = set(images)
    for h in images:
        for move in ctx.moves:
            image = move(h)
            if image not in seen:
                seen.add(image)
                images.append(image)
    return GeneralizedPermutant._from_codes(ctx, sorted(map(ctx.map_code, images)))


def all_orbits(ctx: ActionContext) -> tuple[list[GeneralizedPermutant], dict[int, int]]:
    """Partition the whole map space X^Y into orbits, with a size -> count census.

    Orbits are listed by their smallest code, which is their lexicographically
    smallest member, smallest first; that member is also each orbit's
    canonical representative, and each orbit lists its codes in code order.
    The partition comes from ``_partition``.  Raises CapExceededError for a
    map space over DEFAULT_MAP_SPACE_CAP elements.
    """
    codes, sizes = _partition(ctx)
    orbits = [
        GeneralizedPermutant._from_codes(ctx, codes[start : start + size])
        for start, size in zip(accumulate(sizes, initial=0), sizes)
    ]
    return orbits, dict(sorted(Counter(sizes).items()))


def _partition(ctx: ActionContext) -> tuple[array, array]:
    """The alpha-orbits of the map space as (codes, sizes): every code in
    orbit order, each orbit in code order and the orbits by smallest code, and
    the orbit sizes in the same order, so that an orbit's first code, its
    canonical representative, sits at the sum of the sizes before it.

    Raises CapExceededError for a map space over DEFAULT_MAP_SPACE_CAP
    elements.  The arrays are shared by every caller with the same integer
    structure and must not be changed.
    """
    total = ctx.map_space_size()
    if total > DEFAULT_MAP_SPACE_CAP:
        raise CapExceededError(f"map space has {total} elements, over the cap {DEFAULT_MAP_SPACE_CAP}")
    generators = tuple((g, ctx.T.image(g)) for g in ctx.G.generator_images)
    return _code_partition(ctx.G.degree, ctx.K.degree, generators)


@lru_cache(maxsize=_REMEMBERED_PARTITIONS)
def _code_partition(
    nx: int, ny: int, generators: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
) -> tuple[array, array]:
    """``_partition`` for maps from ny points to nx points under the
    generators' image pairs (g, T(g)).  Each generator's move h -> g o h o
    T(g^-1) becomes a table indexed by map code: as (g o h o T(g^-1))[T(g)(z)]
    = g(h[z]), source point z adds g(h[z]) * |X|^(|Y|-1-T(g)(z)) to the code
    of the moved map.  ``perm._label_orbits`` labels the codes; as g and
    T(g) are permutations, each table is a bijection of the codes, so every
    breadth-first search closes on one whole orbit."""
    tables = []
    for g, t in generators:
        table = [0]
        for z in range(ny):
            place = nx ** (ny - 1 - t[z])
            digits = [x * place for x in g]
            table = [c + d for c in table for d in digits]
        tables.append(table)
    orbits = _label_orbits(nx**ny, tables)[1]
    codes = array("i")
    for o in orbits:
        codes.fromlist(o)
    return codes, array("i", map(len, orbits))


def orbitals(ctx: ActionContext) -> list[tuple[tuple[int, int], ...]]:
    """The orbitals: the orbits of G on the pairs Y x X under
    (y, x) -> (T(g)(y), g(x)), each sorted and listed by its smallest pair.

    A table indexed [y][x] is T-equivariant exactly when it is constant on
    every orbital, so the orbitals' indicators are a basis of the equivariant
    tables (the orbit basis of Maron, Ben-Hamu, Shamir and Lipman, ICLR 2019).
    The count table of an alpha-invariant set of maps is one such table.
    """
    generators = [(ctx.T.image(g), g) for g in ctx.G.generator_images]
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
    image pairs (t, g) of the generators, each sorted, by smallest pair:
    ``perm._label_orbits`` on the pair codes y * |X| + x, whose order is the
    pairs' order."""
    tables = [[ty * nx + gx for ty in t for gx in g] for t, g in generators]
    return [tuple(divmod(c, nx) for c in o) for o in _label_orbits(ny * nx, tables)[1]]


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
    members: Iterable[tuple[int, ...]], ctx: ActionContext
) -> tuple[bool, tuple[Mapping, Permutation] | None]:
    """Whether a set of maps, given by their image tuples, is alpha-closed; on
    failure, a witness (h, g) with g a generator of G and alpha(g, h) outside
    the set.  The set is tested as its indicator weighting, 1 on each member,
    so h is the first member, in image order, that a generator moves out, and
    g the first such generator."""
    witness = _invariance_witness(dict.fromkeys(map(ctx._check_images, members), 1), ctx)
    return witness is None, witness


@dataclass(frozen=True, init=False)
class PermutantMeasure:
    """A finitely supported signed weighting on maps Y -> X, held as
    {image tuple: nonzero Fraction}; maps not listed weigh zero.  The
    constructor checks each image tuple and reads each weight with as_fraction;
    the document reader and the decomposition, whose tuples and Fractions are
    valid as built, skip both through ``_unchecked``.  Invariance under the
    alpha action is checked separately by is_permutant_measure."""

    context: ActionContext
    weights: MappingABC[tuple[int, ...], Fraction]

    def __init__(self, context: ActionContext, weights: MappingABC[tuple[int, ...], object]):
        check = context._check_images
        read = ((check(h), as_fraction(w)) for h, w in weights.items())
        self.__dict__.update(context=context, weights={h: w for h, w in read if w})

    @classmethod
    def _unchecked(cls, context: ActionContext, weights: MappingABC[tuple[int, ...], Fraction]) -> "PermutantMeasure":
        """The measure of image tuples and Fraction weights that its builder
        guarantees, unchecked; zero weights are still dropped."""
        measure = cls.__new__(cls)
        measure.__dict__.update(context=context, weights={h: w for h, w in weights.items() if w})
        return measure

    def weight(self, f: Mapping | tuple[int, ...]) -> Fraction:
        """The weight of a Mapping of this context or of an image tuple;
        ValueError for a Mapping of another context or a tuple that is no
        image tuple of a map Y -> X."""
        if isinstance(f, Mapping):
            self.context._check_mapping(f)
            f = f.images
        return self.weights.get(self.context._check_images(f), Fraction(0))

    @property
    def support(self) -> tuple[Mapping, ...]:
        ctx = self.context
        return tuple(Mapping(ctx.y_labels, ctx.x_labels, h) for h in sorted(self.weights))

    def total_variation(self) -> Fraction:
        return sum((abs(w) for w in self.weights.values()), Fraction(0))


def measure_on_orbit(o: GeneralizedPermutant, weight) -> PermutantMeasure:
    """Equal weight on every member of an orbit or other permutant, alpha-invariant by construction."""
    return PermutantMeasure(o.context, dict.fromkeys(map(o.context.map_images, o.codes), as_fraction(weight)))


def uniform_measure(h: GeneralizedPermutant) -> PermutantMeasure:
    """The averaging measure 1/|H| on a nonempty permutant."""
    if h.size == 0:
        raise ValueError("cannot average over the empty permutant")
    return measure_on_orbit(h, Fraction(1, h.size))


def is_permutant_measure(
    m: PermutantMeasure,
) -> tuple[bool, tuple[Mapping, Permutation] | None]:
    """Atom-level alpha-invariance of the weights; sufficient since the measure
    is atomic and every subset of the finite map space is measurable.  On
    failure, the witness (f, g) is the first support map f, in image order,
    whose weight a generator's move changes, and the first such generator g."""
    witness = _invariance_witness(m.weights, m.context)
    return witness is None, witness

