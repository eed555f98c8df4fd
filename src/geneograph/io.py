"""JSON document forms for every value the command line reads or writes.

Rationals serialize as plain integers when possible and "p/q" strings
otherwise; permutations as cycle-product strings, and a group from its image
tuples; mappings in compact concatenated-label form when the target labels
are single characters.  All emitters order their output deterministically.

Reading a group or a homomorphism builds and verifies it, so each of the two
readers, ``_read_group`` and ``_read_homomorphism``, is a
``functools.lru_cache`` of ``_REMEMBERED_DOCUMENTS`` entries keyed by the
document's text, the least recently used dropped first: a process that reads
the same documents again and again pays once.  A group's key holds the group
cap whenever it closes generators, so a changed GENEO_MAX_GROUP takes
effect.  Fields are validated before the lookup and each cycle text parsed
once, on a miss, so errors come as on a first read, and a document that fails
is never remembered.  A homomorphism table looks up the permutations that its
groups' documents name instead of parsing them again.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping as MappingABC

from .geneo import LinearOperator
from .perception import (
    FunctionSpace,
    Measurement,
    PerceptionPair,
    as_fraction,
    measurement,
)
from .perm import (
    FiniteGroup,
    Homomorphism,
    Permutation,
    _cycle_texts,
    format_cycles,
    generate_group,
    group_cap,
    group_from_elements,
    parse_cycles,
    trivial_group,
)
from .permutant import ActionContext, Mapping, PermutantMeasure


def fraction_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def measurement_to_json(m: Measurement) -> list:
    return [fraction_to_json(v) for v in m.values]


def measurement_from_json(doc, domain=None) -> Measurement:
    if not isinstance(doc, list):
        raise ValueError("a measurement document is a JSON array")
    return measurement([_rational(v, "measurement entry") for v in doc], domain)


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "labels": list(g.labels),
        "generators": _cycle_texts(g.generator_images, g.labels),
        "elements": _cycle_texts(g.images, g.labels),
    }


def _require_object(doc, what: str) -> None:
    if not isinstance(doc, MappingABC):
        raise ValueError(f"{what} must be a JSON object")


def _get(doc, what: str, key: str):
    """doc[key]; a ValueError naming the field if the document lacks it."""
    if key not in doc:
        raise ValueError(f"{what} field '{key}' is missing")
    return doc[key]


def _strings(value, field: str) -> list[str]:
    """A field that must be an array of strings; ValueError naming it otherwise."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{field} must be an array of strings")
    return list(value)


def _array(value, field: str) -> list:
    """A field that must be a JSON array; ValueError naming it otherwise."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be an array")
    return value


def _rational(value, field: str) -> Fraction:
    """as_fraction, with every error it raises turned into a ValueError naming
    the field: a non-number, a zero denominator ("1/0"), text that is no
    number ("nan", "inf", "abc", also the float inf of a JSON 1e400) and a
    decimal exponent past the digit limit."""
    try:
        return as_fraction(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"{field}: {value!r} has a zero denominator") from None


# documents remembered by each reader below; past that many the least recently used goes first
_REMEMBERED_DOCUMENTS = 16


def _group_from_json(doc: MappingABC) -> tuple[FiniteGroup, tuple]:
    """The group a document states, and the key it is remembered by: its
    labels, generator texts, element texts (None when it lists none) and, for a
    closure of generators, the group cap."""
    _require_object(doc, "a group document")
    labels = tuple(_strings(_get(doc, "group", "labels"), "group field 'labels'"))
    gen_texts = tuple(_strings(doc.get("generators", []), "group field 'generators'"))
    try:
        texts = tuple(_strings(doc["elements"], "group field 'elements'")) if "elements" in doc else None
        key = (labels, gen_texts, texts, group_cap() if gen_texts else None)
    except ValueError:
        for text in gen_texts:  # a generator text's own error comes first
            parse_cycles(text, labels)
        raise
    return _read_group(*key)[0], key


@functools.lru_cache(maxsize=_REMEMBERED_DOCUMENTS)
def _read_group(
    labels: tuple[str, ...], gen_texts: tuple[str, ...], texts: tuple[str, ...] | None, cap: int | None
) -> tuple[FiniteGroup, dict[str, Permutation]]:
    """The group of ``_group_from_json``'s key, and the permutations that its
    document names, by text, so that a homomorphism table on the group parses
    only the texts that the group document does not name.  The cap is read
    again by ``generate_group`` and serves only as part of the key.  Every
    caller with the same key shares the result, which must not be changed."""
    parse = functools.cache(parse_cycles)
    gens = [parse(text, labels) for text in gen_texts]
    group = generate_group(gens) if gens else trivial_group(labels)
    if texts is not None:
        stated = [parse(text, labels) for text in texts]
        seen: set = set()
        for p in stated:
            if p.images in seen:
                raise ValueError(f"group field 'elements' names the permutation {format_cycles(p)!r} twice")
            seen.add(p.images)
        if not gens:
            group = group_from_elements(stated)
        elif seen != set(group.images):
            raise ValueError("stated elements do not match the closure of the generators")
    return group, {text: parse(text, labels) for text in gen_texts + (texts or ())}


def homomorphism_to_json(t: Homomorphism) -> list:
    sources = _cycle_texts(t.source.images, t.source.labels)
    targets = _cycle_texts(t.images, t.target.labels)
    return [[a, b] for a, b in zip(sources, targets)]


def _homomorphism_from_json(doc, group_keys: tuple) -> Homomorphism:
    """The homomorphism a table of pairs states between the two groups of
    these keys, remembered by the keys and the pair texts."""
    if not isinstance(doc, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)
        for pair in doc
    ):
        raise ValueError("a homomorphism must be an array of [element, image] cycle-string pairs")
    return _read_homomorphism(group_keys, tuple(map(tuple, doc)))


@functools.lru_cache(maxsize=_REMEMBERED_DOCUMENTS)
def _read_homomorphism(group_keys: tuple, pair_texts: tuple[tuple[str, str], ...]) -> Homomorphism:
    """The homomorphism of ``_homomorphism_from_json``'s key, between the
    groups that ``_read_group`` remembers by the two keys.  A text that a group
    document names is looked up, and any other is parsed once."""
    (source, source_named), (target, target_named) = (_read_group(*key) for key in group_keys)
    parse = functools.cache(parse_cycles)
    pairs = [
        (source_named.get(src) or parse(src, source.labels), target_named.get(dst) or parse(dst, target.labels))
        for src, dst in pair_texts
    ]
    table = {p.images: k for p, k in pairs}
    if len(table) == len(pairs) == source.order and all(p in source for p, _ in pairs):
        for _, k in pairs:  # in document order, which the constructor cannot see
            if k not in target:
                raise ValueError(f"image {k} not in target group")
        return Homomorphism(source, target, tuple(table[p].images for p in source.images))
    return Homomorphism.from_generator_images(source, target, pairs)


def context_to_json(ctx: ActionContext) -> dict:
    return {
        "G": group_to_json(ctx.G),
        "K": group_to_json(ctx.K),
        "T": homomorphism_to_json(ctx.T),
    }


def context_from_json(doc: MappingABC) -> ActionContext:
    _require_object(doc, "a context document")
    g, g_key = _group_from_json(_get(doc, "context", "G"))
    k, k_key = _group_from_json(_get(doc, "context", "K"))
    return ActionContext(g, k, _homomorphism_from_json(_get(doc, "context", "T"), (g_key, k_key)))


def mapping_to_json(f: Mapping):
    if all(len(lab) == 1 for lab in f.target_labels):
        return f.compact()
    return [f.target_labels[i] for i in f.images]


def map_code_to_json(ctx: ActionContext) -> Callable[[int], str | list]:
    """mapping_to_json for the maps of a context given by their codes, with
    the compact or list form decided once.  A code's high and low base-|X|
    digits are each looked up in a table of every digit string of that length
    in code order, so formatting a map is two lookups and one concatenation."""
    labels, nx, ny = ctx.x_labels, ctx.G.degree, ctx.K.degree
    form = "".join if all(len(lab) == 1 for lab in labels) else list
    low_digits = ny // 2
    high = [form(t) for t in product(labels, repeat=ny - low_digits)]
    low = [form(t) for t in product(labels, repeat=low_digits)]
    place = nx**low_digits
    return lambda code: high[code // place] + low[code % place]


def _read_map(doc, ctx: ActionContext) -> tuple[int, ...]:
    """The image tuple of a map document: compact text or an array of target labels."""
    return ctx.read_map(doc if isinstance(doc, str) else _strings(doc, "a mapping in label form"))


def permutant_members_from_json(doc, ctx: ActionContext) -> list[tuple[int, ...]]:
    """The image tuples of a permutant document's members, in document order."""
    members = _get(doc, "permutant", "members") if isinstance(doc, MappingABC) else doc
    return [_read_map(m, ctx) for m in _array(members, "permutant field 'members'")]


def measure_to_json(m: PermutantMeasure) -> dict:
    labels = m.context.x_labels
    form = "".join if all(len(lab) == 1 for lab in labels) else list
    return {
        "weights": [
            {"mapping": form(labels[i] for i in h), "weight": fraction_to_json(w)}
            for h, w in sorted(m.weights.items())
        ],
        "context": context_to_json(m.context),
    }


def measure_from_json(doc: MappingABC, ctx: ActionContext) -> PermutantMeasure:
    weights_doc = doc.get("weights", doc) if isinstance(doc, MappingABC) else doc
    weights: dict[tuple[int, ...], Fraction] = {}
    if isinstance(weights_doc, MappingABC):
        items = [(k, v) for k, v in weights_doc.items()]
    elif isinstance(weights_doc, list) and all(isinstance(e, MappingABC) for e in weights_doc):
        keys = ("mapping", "weight")
        items = [tuple(_get(entry, "measure entry", key) for key in keys) for entry in weights_doc]
    else:
        raise ValueError("measure field 'weights' must be an object or an array of objects")
    for key, value in items:
        h = _read_map(key, ctx)
        if h in weights:
            raise ValueError(f"measure names the map {str(Mapping(ctx.y_labels, ctx.x_labels, h))!r} twice")
        weights[h] = _rational(value, "measure weight")
    return PermutantMeasure(ctx, weights)


def space_to_json(space: FunctionSpace) -> dict:
    doc: dict = {"kind": space.kind, "domain": list(space.domain)}
    if space.kind == "explicit":
        doc["members"] = [measurement_to_json(m) for m in space.members]
    elif space.kind == "constrained":
        doc["constraints"] = [
            {"coeffs": [fraction_to_json(c) for c in coeffs], "rhs": fraction_to_json(rhs)}
            for coeffs, rhs in space.equations
        ]
        if space.ball is not None:
            doc["ball"] = {"norm": space.ball[0], "radius": fraction_to_json(space.ball[1])}
    return doc


# the fields each space kind reads; a document that states no kind is read as
# "full" or "constrained" by the fields it has
_SPACE_FIELDS = {"full": (), "constrained": ("constraints", "ball"), "explicit": ("members",)}


def space_from_json(doc: MappingABC) -> FunctionSpace:
    _require_object(doc, "a space document")
    domain = tuple(_strings(_get(doc, "space", "domain"), "space field 'domain'"))
    kind = doc.get("kind", "full")
    if kind not in ("full", "constrained", "explicit"):
        raise ValueError(f"space field 'kind' must be 'full', 'constrained' or 'explicit', got {kind!r}")
    space = _space_from_fields(doc, domain, kind)
    if "kind" not in doc and "members" in doc:
        # read by its fields, the space would be full and drop its members
        raise ValueError("space field 'members' needs the field 'kind' set to 'explicit'")
    if "kind" in doc:
        # a stated kind must agree with the fields, checked after each field's own validation
        extra = [key for key in ("constraints", "ball", "members") if key in doc and key not in _SPACE_FIELDS[kind]]
        if extra:
            raise ValueError(f"space field '{extra[0]}' does not belong to a space of kind {kind!r}")
        if kind == "constrained" and space.kind != kind:
            raise ValueError("a space of kind 'constrained' needs a nonempty field 'constraints' or a field 'ball'")
    return space


def _space_from_fields(doc: MappingABC, domain: tuple[str, ...], kind: str) -> FunctionSpace:
    if kind == "explicit":
        members = _array(_get(doc, "space", "members"), "space field 'members'")
        return FunctionSpace(domain, members=tuple(measurement_from_json(vals, domain) for vals in members))
    equations = []
    for con in _array(doc.get("constraints", []), "space field 'constraints'"):
        _require_object(con, "a constraint")
        coeffs = _array(_get(con, "constraint", "coeffs"), "constraint field 'coeffs'")
        equations.append((
            tuple(_rational(c, "constraint field 'coeffs'") for c in coeffs),
            _rational(_get(con, "constraint", "rhs"), "constraint field 'rhs'"),
        ))
    ball_doc = doc.get("ball")
    ball = None
    if ball_doc is not None:
        _require_object(ball_doc, "space field 'ball'")
        norm = _get(ball_doc, "ball", "norm")
        ball = (norm, _rational(_get(ball_doc, "ball", "radius"), "ball field 'radius'"))
    return FunctionSpace(domain, equations=tuple(equations), ball=ball)


def pair_to_json(pair: PerceptionPair) -> dict:
    return {"space": space_to_json(pair.space), "group": group_to_json(pair.group)}


def _pair_from_json(doc: MappingABC) -> tuple[PerceptionPair, tuple]:
    """A perception pair, and the key its group is remembered by."""
    _require_object(doc, "a perception pair document")
    space_doc, group_doc = (_get(doc, "perception pair", key) for key in ("space", "group"))
    space = space_from_json(space_doc)
    group, key = _group_from_json(group_doc)
    return PerceptionPair(space, group), key


def operator_to_json(op: LinearOperator) -> dict:
    return {
        "source": pair_to_json(op.source),
        "target": pair_to_json(op.target),
        "homomorphism": homomorphism_to_json(op.hom),
        "coeffs": [[fraction_to_json(c) for c in row] for row in op.coeffs],
        "flags": {"is_geo": op.is_geo, "is_geneo": op.is_geneo},
    }


def operator_from_json(doc: MappingABC) -> LinearOperator:
    _require_object(doc, "an operator document")
    source, source_key = _pair_from_json(_get(doc, "operator", "source"))
    target, target_key = _pair_from_json(_get(doc, "operator", "target"))
    hom = _homomorphism_from_json(_get(doc, "operator", "homomorphism"), (source_key, target_key))
    rows = _get(doc, "operator", "coeffs")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("operator field 'coeffs' must be an array of arrays")
    coeffs = tuple(tuple(_rational(c, "operator field 'coeffs'") for c in row) for row in rows)
    # the flags are written for readers; the verdicts come from the table
    _require_object(doc.get("flags", {}), "operator field 'flags'")
    return LinearOperator(coeffs, source, target, hom)
