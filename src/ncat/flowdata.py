"""Combinatorial flow data: the package's one input format.

A document records base points with their indices and, per pair of
critical points one level down, a moduli space: its dimension, its
connected components, the critical points living on it (each with an
index and a component), and optionally its boundary strata as chains of
factor spaces.  Diagonal spaces are never listed; the cell layer
synthesizes them.

Parsing is strict (unknown fields, missing fields, wrong types, dangling
or duplicate ids all raise); semantic health is a separate, reporting
step in validate_flow_data so one bad dimension does not hide another.
A valid document with ASCII strings pays for no error text: each object
is cleared in one pass, and paths are built only once a check fails.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import NamedTuple

from .errors import DuplicateId, InvalidArguments, SchemaError, UnknownId

__all__ = [
    "CritPoint",
    "ModuliSpace",
    "FlowData",
    "parse_flow_data",
    "validate_flow_data",
    "emit_flow_data",
    "ValidationCheck",
    "ValidationReport",
]


class CritPoint(NamedTuple):
    id: str
    index: int
    level: int  # 0 for base points, else the home space's level
    home: "tuple[str, str] | None"  # None for base points
    component: "str | None"


class ModuliSpace(NamedTuple):
    source: str
    target: str
    level: int
    dim: int
    components: tuple[str, ...]
    boundary: tuple[tuple[tuple[str, str], ...], ...]  # strata as factor chains
    points: tuple[str, ...]  # critical point ids in declaration order

    @property
    def key(self) -> tuple[str, str]:
        return (self.source, self.target)


class FlowData:
    """Parsed document with id lookups; construction assumes parse-clean input."""

    def __init__(self, name, max_level, points, spaces):
        self.name = name
        self.max_level = max_level
        self.points = points  # id -> CritPoint, declaration order
        self.spaces = spaces  # (source, target) -> ModuliSpace, declaration order

    def point(self, ident: str) -> CritPoint:
        try:
            return self.points[ident]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownId("$", ident) from None

    def space(self, key) -> ModuliSpace:
        """The space of a (source, target) pair, given as a tuple or a list."""
        pair = isinstance(key, (tuple, list))
        try:
            return self.spaces[tuple(key) if pair else key]
        except (KeyError, TypeError):
            raise UnknownId("$", "->".join(map(str, key)) if pair else key) from None

    def home_of(self, ident: str) -> "ModuliSpace | None":
        home = self.point(ident).home
        try:
            return None if home is None else self.spaces[home]
        except KeyError:  # a hand-built document naming an undeclared home
            return self.space(home)  # raises UnknownId naming source->target

    def spaces_at_level(self, level: int) -> list:
        return [sp for sp in self.spaces.values() if sp.level == level]

    def base_points(self) -> list:
        return [pt for pt in self.points.values() if pt.level == 0]


_KINDS = {int: "an integer", str: "a string", list: "an array"}
_new = tuple.__new__  # builds a point, space or check past the NamedTuple's Python-level __new__


def _schema(optional=(), **fields):
    """Fields (name -> type); for _object's one pass, getters of the values
    and of the strings (one string: itself), the types, and the optional
    fields, which read as [] when absent."""
    texts = [n for n, kind in enumerate(fields.values()) if kind is str]
    return fields, itemgetter(*fields), itemgetter(*texts), list(fields.values()), dict.fromkeys(optional, [])


_DOCUMENT = _schema(name=str, max_level=int, base_points=list, moduli=list)
_BASE_POINT = _schema(id=str, index=int)
_CRIT_POINT = _schema(id=str, index=int, component=str)
_SPACE = _schema(("boundary",), level=int, source=str, target=str, dim=int,
                 components=list, boundary=list, critical_points=list)
_FACTOR = _schema(source=str, target=str)


def _text(value, path):
    """A string must be encodable as UTF-8: JSON's \\u escapes can spell a
    lone surrogate, which a UTF-8 output stream cannot write."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as e:
        raise SchemaError(
            path, f"lone surrogate U+{ord(value[e.start]):04X} at character {e.start}"
        ) from None


def _object(value, schema, path, at=()):
    """The values of the schema's fields in order, once ``value`` is an
    object with no unknown field, no missing required field and every
    field of its declared type (a bool is not an integer; a string holds
    no lone surrogate); an absent optional field reads as [].  One pass
    clears an object with known keys, exact types and ASCII strings (an
    ASCII string holds no surrogate); any other object takes the ordered
    checks, which raise the first error and alone build the path."""
    fields, get, texts, kinds, optional = schema
    if value.__class__ is dict:
        whole = {**optional, **value} if optional else value
        try:
            values = get(whole)
        except KeyError:  # a missing field
            pass
        else:
            if (len(whole) == len(values) and [*map(type, values)] == kinds
                    and "".join(texts(values)).isascii()):
                return values
    path = path.format(*at)
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {value!r}")
    for key in value:
        if key not in fields:
            _text(key, path)
            raise SchemaError(f"{path}.{key}", "unknown field")
    for key in fields:
        if key not in value and key not in optional:
            raise SchemaError(path, f"missing field {key!r}")
    values = [value.get(key, []) for key in fields]
    for (key, kind), v in zip(fields.items(), values):
        if isinstance(v, bool) or not isinstance(v, kind):
            raise SchemaError(f"{path}.{key}", f"expected {_KINDS[kind]}, got {v!r}")
        if kind is str:
            _text(v, f"{path}.{key}")
    return tuple(values)


def _add_point(points, entry, level, home, path, at):
    """Parse and register a base point (no home) or a critical point: its
    index must be non-negative and its id new.  Returns the id."""
    if home is None:
        (ident, index), component = _object(entry, _BASE_POINT, path, at), None
    else:
        ident, index, component = _object(entry, _CRIT_POINT, path, at)
    if index < 0:
        raise SchemaError(f"{path.format(*at)}.index", "must be non-negative")
    if ident in points:
        raise DuplicateId(path.format(*at), ident)
    points[ident] = _new(CritPoint, (ident, index, level, home, component))
    return ident


def parse_flow_data(text: str) -> FlowData:
    """Parse and structurally check a JSON flow-data document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError, TypeError) as e:  # also too deep, an over-long integer, or no text
        raise SchemaError("$", f"invalid JSON: {e}") from None

    name, max_level, base_points, moduli = _object(doc, _DOCUMENT, "$")
    if max_level < 0:
        raise SchemaError("$.max_level", "must be non-negative")

    points: dict[str, CritPoint] = {}
    for n, entry in enumerate(base_points):
        _add_point(points, entry, 0, None, "$.base_points[{}]", (n,))

    spaces: dict[tuple[str, str], ModuliSpace] = {}
    for n, entry in enumerate(moduli):
        level, source, target, dim, components, raw_boundary, raw_points = _object(
            entry, _SPACE, "$.moduli[{}]", (n,))
        if not 1 <= level <= max_level:
            raise SchemaError(f"$.moduli[{n}].level", f"must be between 1 and max_level={max_level}")
        components = tuple(components)
        if not (set(map(type, components)) == {str} and "".join(components).isascii()
                and len(set(components)) == len(components)):
            for m, comp in enumerate(components):
                path = f"$.moduli[{n}].components[{m}]"
                if not isinstance(comp, str):
                    raise SchemaError(path, "expected a string")
                _text(comp, path)
                if comp in components[:m]:
                    raise DuplicateId(path, comp)
            if not components:
                raise SchemaError(f"$.moduli[{n}].components", "must be non-empty")

        boundary = []
        for m, chain in enumerate(raw_boundary):
            if not isinstance(chain, list) or not chain:
                raise SchemaError(f"$.moduli[{n}].boundary[{m}]", "expected a non-empty array of factors")
            boundary.append(tuple([
                _object(factor, _FACTOR, "$.moduli[{}].boundary[{}][{}]", (n, m, k))
                for k, factor in enumerate(chain)
            ]))

        key = (source, target)
        if key in spaces:
            raise DuplicateId(f"$.moduli[{n}]", f"{source}->{target}")
        ids = tuple([
            _add_point(points, raw, level, key, "$.moduli[{}].critical_points[{}]", (n, m))
            for m, raw in enumerate(raw_points)
        ])
        spaces[key] = _new(ModuliSpace, (source, target, level, dim, components, tuple(boundary), ids))

    # reference resolution last: an endpoint may name a point a later space
    # declares; the ordered walk, with its paths, runs only if an id is unknown
    ends = set().union(*spaces, *[f for sp in spaces.values() for chain in sp.boundary for f in chain])
    for n, sp in enumerate(() if ends <= points.keys() else spaces.values()):
        path = f"$.moduli[{n}]"
        for role, ident in (("source", sp.source), ("target", sp.target)):
            if ident not in points:
                raise UnknownId(f"{path}.{role}", ident)
        for m, chain in enumerate(sp.boundary):
            for k, (s, t) in enumerate(chain):
                for role, ident in (("source", s), ("target", t)):
                    if ident not in points:
                        raise UnknownId(f"{path}.boundary[{m}][{k}].{role}", ident)
    return FlowData(name, max_level, points, spaces)


class ValidationCheck(NamedTuple):
    check: str
    subject: str
    passed: bool
    detail: str = ""

    def to_dict(self):
        return self._asdict()


class ValidationReport(NamedTuple):
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {"checks": [c.to_dict() for c in self.checks], "passed": self.passed}


def validate_flow_data(fd: FlowData) -> ValidationReport:
    """Semantic health checks; returns a report instead of raising so a
    document's problems are all visible at once."""
    if not isinstance(fd, FlowData):
        raise InvalidArguments(f"expected a FlowData, got {fd!r}")
    points, spaces = fd.points, fd.spaces
    checks = []
    out = checks.append

    for sp in spaces.values():
        source, target, level, dim, _, boundary, _ = sp
        subject = f"({source},{target})"
        try:
            src, tgt = points[source], points[target]
        except (KeyError, TypeError):  # a hand-built FlowData's dangling endpoint
            src, tgt = fd.point(source), fd.point(target)

        ok = src.level == tgt.level == level - 1 and source != target
        if ok and level >= 2:
            ok = src.home == tgt.home
        out(_new(ValidationCheck, (
            "endpoints", subject, ok,
            "" if ok else f"endpoints must be distinct level-{level - 1} points with one home",
        )))

        want = src.index - tgt.index - 1
        ok = dim == want and dim >= 0
        out(_new(ValidationCheck, (
            "dim-formula", subject, ok,
            "" if ok else f"dim={dim} but Ind({source})-Ind({target})-1={want}",
        )))

        for m, chain in enumerate(boundary):
            where = f"{subject} stratum {m}"
            seq = [chain[0][0]] + [t for _, t in chain]
            linked = all(chain[k][1] == chain[k + 1][0] for k in range(len(chain) - 1))
            ends = chain[0][0] == source and chain[-1][1] == target
            idx = [points[x].index for x in seq if x in points]
            mono = len(idx) == len(seq) and all(a > b for a, b in zip(idx, idx[1:]))
            ok = linked and ends and mono
            out(_new(ValidationCheck, (
                "boundary-monotonicity", where, ok,
                "" if ok else f"chain {'-'.join(seq)} must link the endpoints with strictly dropping index",
            )))

            missing = [f"({s},{t})" for s, t in chain if (s, t) not in spaces]
            if missing:
                out(_new(ValidationCheck, (
                    "boundary-dim-sum", where, False,
                    f"undeclared factor space(s) {', '.join(missing)}",
                )))
            else:
                depth = len(chain) - 1
                total = sum(spaces[f].dim for f in chain)
                ok = total == dim - depth
                out(_new(ValidationCheck, (
                    "boundary-dim-sum", where, ok,
                    "" if ok else f"factor dims sum to {total}, want dim-depth={dim - depth}",
                )))

    for ident, index, _, home, component in points.values():
        if home is None:
            continue
        try:
            sp = spaces[home]
        except (KeyError, TypeError):  # a hand-built FlowData's undeclared home
            sp = fd.space(home)
        ok = component in sp.components
        out(_new(ValidationCheck, (
            "component-refs", ident, ok,
            "" if ok else f"component {component!r} not declared on ({sp.source},{sp.target})",
        )))
        ok = 0 <= index <= sp.dim
        out(_new(ValidationCheck, (
            "index-bound", ident, ok, "" if ok else f"index {index} exceeds home dimension {sp.dim}",
        )))

    return ValidationReport(tuple(checks))


def emit_flow_data(fd: FlowData) -> dict:
    """The document back as a plain dict, field order canonical."""
    if not isinstance(fd, FlowData):
        raise InvalidArguments(f"expected a FlowData, got {fd!r}")
    return {
        "name": fd.name,
        "max_level": fd.max_level,
        "base_points": [{"id": pt.id, "index": pt.index} for pt in fd.base_points()],
        "moduli": [
            {
                "level": sp.level,
                "source": sp.source,
                "target": sp.target,
                "dim": sp.dim,
                "components": list(sp.components),
                **({"boundary": [[{"source": s, "target": t} for s, t in chain] for chain in sp.boundary]}
                   if sp.boundary else {}),
                "critical_points": [
                    {"id": pid, "index": fd.point(pid).index, "component": fd.point(pid).component}
                    for pid in sp.points
                ],
            }
            for sp in fd.spaces.values()
        ],
    }
