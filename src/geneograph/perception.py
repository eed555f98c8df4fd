"""Measurement vectors, function spaces, perception pairs, and the
finite-sample pseudometrics attached to them.

All comparisons are exact rational.  Suprema over function spaces are only
computed against explicit finite samples.  Closure of a linearly constrained
space is decided on finitely many points: the spanning points of its affine
solution set, which also name the witness when closure fails; norm balls are
permutation-invariant and play no part.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .linalg import dot, solve_affine
from .perm import DomainMismatchError, FiniteGroup, Permutation

Equation = tuple[tuple[Fraction, ...], Fraction]

BALL_NORMS = ("sup", "l1", "l2")


def as_fraction(x) -> Fraction:
    """Coerce ints, "p/q" strings, and floats (via their decimal repr) to Fraction.

    A decimal string whose exponent exceeds sys.get_int_max_str_digits() in
    magnitude is rejected before Fraction builds the power of ten: its value
    has too many digits to print, and building it can take seconds.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not measurement values")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        exponent = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        # interpreters older than 3.10.7 have no digit limit; use its default
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        if limit and exponent.isdecimal() and int(exponent) > limit:
            raise ValueError(f"decimal exponent of {x!r} exceeds {limit} in magnitude")
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Measurement:
    """A real-valued vector on an indexed finite set, stored as exact rationals."""

    values: tuple[Fraction, ...]
    domain: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.domain is not None and len(self.domain) != len(self.values):
            raise ValueError("domain labels do not match value count")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def pullback(self, p: Permutation) -> "Measurement":
        """Precompose with a permutation of the domain: (phi o p)[i] = phi[p(i)]."""
        if p.n != len(self.values):
            raise DomainMismatchError("permutation size does not match measurement length")
        return Measurement(p.pullback(self.values), self.domain)


def measurement(values: Iterable, domain: Sequence[str] | None = None) -> Measurement:
    return Measurement(
        tuple(as_fraction(v) for v in values),
        tuple(domain) if domain is not None else None,
    )


def _require_same_domain(a: Measurement, b: Measurement) -> None:
    if len(a) != len(b):
        raise DomainMismatchError(f"measurement lengths differ: {len(a)} vs {len(b)}")
    if a.domain is not None and b.domain is not None and a.domain != b.domain:
        raise DomainMismatchError(f"measurement domains differ: {a.domain} vs {b.domain}")


def sup_distance(a: Measurement, b: Measurement) -> Fraction:
    """L-infinity distance, exact."""
    _require_same_domain(a, b)
    if not a.values:
        return Fraction(0)
    return max(abs(x - y) for x, y in zip(a.values, b.values))


@dataclass(frozen=True)
class FunctionSpace:
    """A space of measurements on a fixed domain.

    Three kinds: the full space R^n (no constraints), a linearly constrained
    space (equations a.phi = c, optionally intersected with a norm ball), and
    an explicit finite family.  ``escape`` decides whether a linear map
    keeps the space, for perception pairs and diagonal scalings alike.
    """

    domain: tuple[str, ...]
    equations: tuple[Equation, ...] = ()
    ball: tuple[str, Fraction] | None = None
    members: tuple[Measurement, ...] | None = None

    def __post_init__(self):
        n = len(self.domain)
        for coeffs, _ in self.equations:
            if len(coeffs) != n:
                raise ValueError("constraint length does not match the domain")
        if self.ball is not None:
            norm, radius = self.ball
            if norm not in BALL_NORMS:
                raise ValueError(f"unsupported norm {norm!r}; expected one of {BALL_NORMS}")
            if radius < 0:
                raise ValueError("ball radius must be nonnegative")
        if self.members is not None:
            if self.equations or self.ball:
                raise ValueError("explicit spaces carry no constraints")
            for m in self.members:
                if len(m) != n:
                    raise ValueError("explicit member does not match the domain")

    @property
    def kind(self) -> str:
        if self.members is not None:
            return "explicit"
        if self.equations or self.ball:
            return "constrained"
        return "full"

    @property
    def dim(self) -> int:
        return len(self.domain)

    def contains(self, phi: Measurement) -> bool:
        if len(phi) != self.dim:
            return False
        if self.members is not None:
            return any(phi.values == m.values for m in self.members)
        if not self.solves(phi.values):
            return False
        if self.ball is not None:
            norm, radius = self.ball
            if norm == "sup" and max((abs(v) for v in phi.values), default=Fraction(0)) > radius:
                return False
            if norm == "l1" and sum(abs(v) for v in phi.values) > radius:
                return False
            if norm == "l2" and dot(phi.values, phi.values) > radius * radius:
                return False
        return True

    def solves(self, values: Sequence[Fraction]) -> bool:
        """Whether a coordinate vector satisfies every linear equation of the space."""
        return all(dot(coeffs, values) == rhs for coeffs, rhs in self.equations)

    @cached_property
    def spanning_points(self) -> tuple[tuple[Fraction, ...], ...]:
        """Points whose affine hull is the solution set of the equations, none
        if they are inconsistent: the particular solution of ``solve_affine``,
        then that solution plus each nullspace basis vector."""
        solved = solve_affine(self.equations, self.dim)
        if solved is None:
            return ()
        particular, basis = solved
        return (tuple(particular),) + tuple(tuple(p + v for p, v in zip(particular, vec)) for vec in basis)

    def escape(self, move: Callable[[Sequence[Fraction]], Sequence[Fraction]]) -> Measurement | None:
        """The first explicit member, or else the first spanning point, that
        the linear map ``move`` takes out of the space; None if it keeps the
        space (an affine set maps onto the hull of its spanning points'
        images).  Norm balls are not tested: the maps applied here,
        permutations and divisions by factors >= 1, keep them."""
        if self.members is not None:
            values = {m.values for m in self.members}
            return next((m for m in self.members if tuple(move(m.values)) not in values), None)
        point = next((p for p in self.spanning_points if not self.solves(move(p))), None)
        return None if point is None else Measurement(point, self.domain)


def full_space(domain: Sequence[str]) -> FunctionSpace:
    return FunctionSpace(tuple(domain))


def constrained_space(
    domain: Sequence[str],
    equations: Iterable[tuple[Iterable, object]] = (),
    ball: tuple[str, object] | None = None,
) -> FunctionSpace:
    eqs = tuple(
        (tuple(as_fraction(c) for c in coeffs), as_fraction(rhs)) for coeffs, rhs in equations
    )
    b = (ball[0], as_fraction(ball[1])) if ball is not None else None
    return FunctionSpace(tuple(domain), equations=eqs, ball=b)


def explicit_space(domain: Sequence[str], members: Iterable) -> FunctionSpace:
    ms = tuple(m if isinstance(m, Measurement) else measurement(m, domain) for m in members)
    return FunctionSpace(tuple(domain), members=ms)


def _check_group_acts(space: FunctionSpace, group: FiniteGroup) -> None:
    if group.degree != space.dim:
        raise DomainMismatchError(
            f"group degree {group.degree} does not match space dimension {space.dim}"
        )
    if group.labels != space.domain:
        raise DomainMismatchError(
            f"group labels {group.labels} do not match space domain {space.domain}"
        )


def verify_perception_pair(
    space: FunctionSpace, group: FiniteGroup
) -> tuple[bool, tuple[Measurement, Permutation] | None]:
    """Check closure of the space under precomposition with every group element.

    Closure under the generators is closure under the group, as every element
    is a word in them.  Each generator g, in order, asks
    ``FunctionSpace.escape`` whether the linear map phi -> phi o g takes a
    point out of the space: an explicit member, or a spanning point of a
    constrained space's equations.  Norm balls are permutation-invariant, and
    the full space is trivially closed.  On failure returns the first witness
    (phi, g), in generator order and then point order, with phi o g outside
    the space.
    """
    _check_group_acts(space, group)
    if space.kind == "full":
        return True, None
    for g in group.generators:
        phi = space.escape(g.pullback)
        if phi is not None:
            return False, (phi, g)
    return True, None


@dataclass(frozen=True)
class PerceptionPair:
    """A function space together with a group acting on its domain by
    precomposition-preserving bijections; closure is verified at construction."""

    space: FunctionSpace
    group: FiniteGroup

    def __post_init__(self):
        ok, witness = verify_perception_pair(self.space, self.group)
        if not ok:
            assert witness is not None
            phi, g = witness
            raise ValueError(
                f"not a perception pair: phi={tuple(map(str, phi.values))} composed "
                f"with g={g} leaves the space"
            )

    @property
    def domain(self) -> tuple[str, ...]:
        return self.space.domain


def point_pseudodistance(x1: int, x2: int, sample: FunctionSpace) -> Fraction:
    """Largest |phi(x1) - phi(x2)| over an explicit finite sample of measurements."""
    if sample.kind != "explicit" or not sample.members:
        raise ValueError("point pseudodistance needs a nonempty explicit sample")
    return max(abs(m[x1] - m[x2]) for m in sample.members)


def aut_pseudodistance(f: Permutation, g: Permutation, sample: FunctionSpace) -> Fraction:
    """Largest sup-distance between phi o f and phi o g over an explicit sample."""
    if sample.kind != "explicit" or not sample.members:
        raise ValueError("automorphism pseudodistance needs a nonempty explicit sample")
    if f.n != sample.dim or g.n != sample.dim:
        raise DomainMismatchError("permutations do not act on the sample's domain")
    return max(sup_distance(m.pullback(f), m.pullback(g)) for m in sample.members)
