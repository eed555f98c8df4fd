"""JSON document forms for every value the command line reads or writes.

Rationals serialize as plain integers when possible and "p/q" strings
otherwise; permutations as cycle-product strings, and a group from its image
tuples; mappings in compact concatenated-label form when the target labels
are single characters.  All emitters order their output deterministically.

Each text is read or written once per document.  A read converts each
distinct rational text once, parses each distinct cycle text once, and reads
the canonical texts of a group's closure, as the emitters print them, by
lookup once the document states as many texts of that group as it has
elements; an emitter formats each group's element texts once and looks T's
images up among them.

Reading a context or an operator builds and verifies its groups,
homomorphism and perception pairs, so ``_remembered`` reads each such
document through one ``functools.lru_cache``, ``_read_text``, of
``_REMEMBERED_DOCUMENTS`` = 32 entries keyed by the document's JSON text and
the raw GENEO_MAX_GROUP setting, the least recently used dropped first: a
process that reads the same documents again and again pays once, and a
changed group cap takes effect.  On a miss the plain readers below validate
and build in the order the fields are read, so errors come as on any first
read, and a document that fails is never remembered.  An operator is
remembered without its coefficients and flags, which are read on every call.
"""

from __future__ import annotations

import functools
import json
import os
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
    _ENV_GROUP_CAP,
    _cycle_texts,
    generate_group,
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
    return measurement(list(map(_rationals("measurement entry"), doc)), domain)


def group_to_json(g: FiniteGroup) -> dict:
    return _group_json(g, _cycle_texts(g.images, g.labels))


def _group_json(g: FiniteGroup, elements: list[str]) -> dict:
    """The group's document, given its elements' texts in element order."""
    return {
        "labels": list(g.labels),
        "generators": _cycle_texts(g.generator_images, g.labels),
        "elements": elements,
    }


def _element_texts(g: FiniteGroup, k: FiniteGroup) -> tuple[list[str], list[str]]:
    """The element texts of a context's or operator's two groups, in element
    order, formatted once when they are one group, and each list the
    document's own: the document names them again in T's table."""
    texts = _cycle_texts(g.images, g.labels)
    return texts, list(texts) if k is g else _cycle_texts(k.images, k.labels)


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


def _rationals(field: str) -> Callable[[object], Fraction]:
    """_rational for one field of one document, with each distinct integer
    or text converted once: an equivariant table repeats a few values (4
    in the 49 cells of an operator on the 7-cycle's edges)."""
    known: dict = {}

    def read(value) -> Fraction:
        if type(value) is not str and type(value) is not int:  # a float, or an error to report
            return _rational(value, field)
        x = known.get(value)
        if x is None:
            x = known[value] = _rational(value, field)
        return x

    return read


# context and operator documents remembered by _read_text; past that many the least recently used goes first
_REMEMBERED_DOCUMENTS = 32


def _remembered(read: Callable, doc):
    """read(doc, texts), remembered by the document's JSON text and the raw
    group-cap setting: the raw text, as its value is checked in the read."""
    return _read_text(read, json.dumps(doc, separators=(",", ":")), os.environ.get(_ENV_GROUP_CAP))


@functools.lru_cache(maxsize=_REMEMBERED_DOCUMENTS)
def _read_text(read: Callable, text: str, cap_setting: str | None):
    """The value that read builds from the document of this text, with each
    cycle text read once.  Every caller with the same key shares the result,
    which must not be changed."""
    return read(json.loads(text), _CycleTexts())


class _CycleTexts:
    """The cycle texts of one document read: ``parse`` parses each text once,
    and ``images`` reads a text's image tuple, by lookup for the canonical
    texts of a group the read has learned with ``learn``, else by ``parse``.
    A canonical text, as ``_cycle_texts`` prints it, parses to the element it
    was printed from, so either way gives the same images and errors."""

    def __init__(self):
        self.parse = functools.cache(parse_cycles)
        self._known: dict[tuple[str, ...], dict[str, tuple[int, ...]]] = {}
        self._learned: set[int] = set()

    def learn(self, group: FiniteGroup, stated: int) -> None:
        """Learn the group's canonical texts when the document states at least
        as many texts of it as it has elements, so a document that names only
        the generators of a large group never formats its closure.  The one
        element of a one-element group, whose labels no parse has checked, is
        left to ``parse``."""
        if 1 < group.order <= stated and id(group) not in self._learned:
            self._learned.add(id(group))
            known = self._known.setdefault(group.labels, {})
            known.update(zip(_cycle_texts(group.images, group.labels), group.images))

    def images(self, text: str, labels: tuple[str, ...]) -> tuple[int, ...]:
        images = self._known.get(labels, {}).get(text)
        return self.parse(text, labels).images if images is None else images


def _group(doc, texts: _CycleTexts) -> FiniteGroup:
    """The group a document states, its generators closed and its stated
    elements checked against them."""
    _require_object(doc, "a group document")
    labels = tuple(_strings(_get(doc, "group", "labels"), "group field 'labels'"))
    gens = [texts.parse(text, labels) for text in _strings(doc.get("generators", []), "group field 'generators'")]
    stated = _strings(doc["elements"], "group field 'elements'") if "elements" in doc else None
    group = generate_group(gens) if gens else trivial_group(labels)
    if stated is not None:
        texts.learn(group, len(stated))
        seen: set = set()
        for p in [texts.images(text, labels) for text in stated]:
            if p in seen:
                raise ValueError(f"group field 'elements' names the permutation {_cycle_texts([p], labels)[0]!r} twice")
            seen.add(p)
        if not gens:
            group = group_from_elements([texts.parse(text, labels) for text in stated])
        elif seen != set(group.images):
            raise ValueError("stated elements do not match the closure of the generators")
    return group


def _table_json(t: Homomorphism, sources: list[str], targets: list[str]) -> list:
    """T's table of [element, image] texts, given the element texts of its
    source and target groups: each image's text is looked up by its
    position in the target."""
    position = t.target._position
    return [[a, targets[position[v]]] for a, v in zip(sources, t.images)]


def _homomorphism(doc, source: FiniteGroup, target: FiniteGroup, texts: _CycleTexts) -> Homomorphism:
    """The homomorphism a table of [element, image] pairs states from source to target."""
    if not isinstance(doc, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(p, str) for p in pair)
        for pair in doc
    ):
        raise ValueError("a homomorphism must be an array of [element, image] cycle-string pairs")
    texts.learn(source, len(doc))
    texts.learn(target, len(doc))
    pairs = [(texts.images(src, source.labels), texts.images(dst, target.labels)) for src, dst in doc]
    table = dict(pairs)
    if len(table) == len(pairs) == source.order and all(p in source._position for p, _ in pairs):
        for _, k in pairs:  # in document order, which the constructor cannot see
            if k not in target._position:
                raise ValueError(f"image {_cycle_texts([k], target.labels)[0]} not in target group")
        return Homomorphism(source, target, tuple(map(table.__getitem__, source.images)))
    labeled = [(Permutation(g, source.labels), Permutation(k, target.labels)) for g, k in pairs]
    return Homomorphism.from_generator_images(source, target, labeled)


def context_to_json(ctx: ActionContext) -> dict:
    g_texts, k_texts = _element_texts(ctx.G, ctx.K)
    return {
        "G": _group_json(ctx.G, g_texts),
        "K": _group_json(ctx.K, k_texts),
        "T": _table_json(ctx.T, g_texts, k_texts),
    }


def context_from_json(doc: MappingABC) -> ActionContext:
    return _remembered(_context, doc)


def _context(doc, texts: _CycleTexts) -> ActionContext:
    _require_object(doc, "a context document")
    g_doc = _get(doc, "context", "G")
    g = _group(g_doc, texts)
    k_doc = _get(doc, "context", "K")
    k = g if k_doc == g_doc else _group(k_doc, texts)
    return ActionContext(g, k, _homomorphism(_get(doc, "context", "T"), g, k, texts))


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
    weight = _rationals("measure weight")
    for key, value in items:
        h = _read_map(key, ctx)
        if h in weights:
            raise ValueError(f"measure names the map {str(Mapping(ctx.y_labels, ctx.x_labels, h))!r} twice")
        weights[h] = weight(value)
    return PermutantMeasure._unchecked(ctx, weights)


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


def _pair_json(pair: PerceptionPair, elements: list[str]) -> dict:
    return {"space": space_to_json(pair.space), "group": _group_json(pair.group, elements)}


def _pair(doc, texts: _CycleTexts) -> PerceptionPair:
    _require_object(doc, "a perception pair document")
    space_doc, group_doc = (_get(doc, "perception pair", key) for key in ("space", "group"))
    space = space_from_json(space_doc)
    return PerceptionPair(space, _group(group_doc, texts))


def operator_to_json(op: LinearOperator) -> dict:
    source_texts, target_texts = _element_texts(op.source.group, op.target.group)
    return {
        "source": _pair_json(op.source, source_texts),
        "target": _pair_json(op.target, target_texts),
        "homomorphism": _table_json(op.hom, source_texts, target_texts),
        "coeffs": [[fraction_to_json(c) for c in row] for row in op.coeffs],
        "flags": {"is_geo": op.is_geo, "is_geneo": op.is_geneo},
    }


def _frame(doc, texts: _CycleTexts) -> tuple[PerceptionPair, PerceptionPair, Homomorphism]:
    """The source pair, target pair and homomorphism of an operator document."""
    source_doc = _get(doc, "operator", "source")
    source = _pair(source_doc, texts)
    target_doc = _get(doc, "operator", "target")
    target = source if target_doc == source_doc else _pair(target_doc, texts)
    return source, target, _homomorphism(_get(doc, "operator", "homomorphism"), source.group, target.group, texts)


def operator_from_json(doc: MappingABC) -> LinearOperator:
    _require_object(doc, "an operator document")
    source, target, hom = _remembered(_frame, {k: v for k, v in doc.items() if k not in ("coeffs", "flags")})
    rows = _get(doc, "operator", "coeffs")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("operator field 'coeffs' must be an array of arrays")
    cell = _rationals("operator field 'coeffs'")
    coeffs = tuple(tuple(map(cell, row)) for row in rows)
    # the flags are written for readers; the verdicts come from the table
    _require_object(doc.get("flags", {}), "operator field 'flags'")
    return LinearOperator(coeffs, source, target, hom)
