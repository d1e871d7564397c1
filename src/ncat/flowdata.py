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
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DuplicateId, SchemaError, UnknownId

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
        return None if home is None else self.spaces[home]

    def spaces_at_level(self, level: int) -> list:
        return [sp for sp in self.spaces.values() if sp.level == level]

    def base_points(self) -> list:
        return [pt for pt in self.points.values() if pt.level == 0]


_KINDS = {int: "an integer", str: "a string", list: "an array"}
_BASE_POINT = {"id": str, "index": int}
_CRIT_POINT = {"id": str, "index": int, "component": str}
_SPACE = {"level": int, "source": str, "target": str, "dim": int,
          "components": list, "boundary": list, "critical_points": list}
_FACTOR = {"source": str, "target": str}


def _text(value, path):
    """A string must be encodable as UTF-8: JSON's \\u escapes can spell a
    lone surrogate, which a UTF-8 output stream cannot write."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as e:
        raise SchemaError(
            path, f"lone surrogate U+{ord(value[e.start]):04X} at character {e.start}"
        ) from None


def _object(value, path, fields, optional=()):
    """The values of ``fields`` (name -> type) in order, once ``value`` is
    an object with no unknown field, no missing required field and every
    field of its declared type (a bool is not an integer; a string holds
    no lone surrogate).  An absent optional field reads as []."""
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
    return values


def _add_point(points, path, entry, level=0, home=None):
    """Parse and register a base point (no home) or a critical point: its
    index must be non-negative and its id new.  Returns the id."""
    if home is None:
        (ident, index), component = _object(entry, path, _BASE_POINT), None
    else:
        ident, index, component = _object(entry, path, _CRIT_POINT)
    if index < 0:
        raise SchemaError(f"{path}.index", "must be non-negative")
    if ident in points:
        raise DuplicateId(path, ident)
    points[ident] = CritPoint(ident, index, level, home, component)
    return ident


def parse_flow_data(text: str) -> FlowData:
    """Parse and structurally check a JSON flow-data document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError, TypeError) as e:  # also too deep, an over-long integer, or no text
        raise SchemaError("$", f"invalid JSON: {e}") from None

    name, max_level, base_points, moduli = _object(
        doc, "$", {"name": str, "max_level": int, "base_points": list, "moduli": list}
    )
    if max_level < 0:
        raise SchemaError("$.max_level", "must be non-negative")

    points: dict[str, CritPoint] = {}
    for n, entry in enumerate(base_points):
        _add_point(points, f"$.base_points[{n}]", entry)

    spaces: dict[tuple[str, str], ModuliSpace] = {}
    for n, entry in enumerate(moduli):
        path = f"$.moduli[{n}]"
        level, source, target, dim, raw_components, raw_boundary, raw_points = _object(
            entry, path, _SPACE, optional=("boundary",)
        )
        if not 1 <= level <= max_level:
            raise SchemaError(f"{path}.level", f"must be between 1 and max_level={max_level}")
        components = []
        for m, comp in enumerate(raw_components):
            if not isinstance(comp, str):
                raise SchemaError(f"{path}.components[{m}]", "expected a string")
            _text(comp, f"{path}.components[{m}]")
            if comp in components:
                raise DuplicateId(f"{path}.components[{m}]", comp)
            components.append(comp)
        if not components:
            raise SchemaError(f"{path}.components", "must be non-empty")

        boundary = []
        for m, chain in enumerate(raw_boundary):
            cpath = f"{path}.boundary[{m}]"
            if not isinstance(chain, list) or not chain:
                raise SchemaError(cpath, "expected a non-empty array of factors")
            boundary.append(tuple(
                tuple(_object(factor, f"{cpath}[{k}]", _FACTOR))
                for k, factor in enumerate(chain)
            ))

        key = (source, target)
        if key in spaces:
            raise DuplicateId(path, f"{source}->{target}")
        ids = tuple(
            _add_point(points, f"{path}.critical_points[{m}]", raw, level, key)
            for m, raw in enumerate(raw_points)
        )
        spaces[key] = ModuliSpace(
            source, target, level, dim, tuple(components), tuple(boundary), ids
        )

    # reference resolution last: an endpoint may name a point a later space declares
    for n, sp in enumerate(spaces.values()):
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
    checks = []
    out = checks.append

    for sp in fd.spaces.values():
        subject = f"({sp.source},{sp.target})"
        src, tgt = fd.point(sp.source), fd.point(sp.target)

        ok = src.level == tgt.level == sp.level - 1 and sp.source != sp.target
        if ok and sp.level >= 2:
            ok = src.home == tgt.home
        out(ValidationCheck(
            "endpoints", subject, ok,
            "" if ok else
            f"endpoints must be distinct level-{sp.level - 1} points with one home",
        ))

        want = src.index - tgt.index - 1
        ok = sp.dim == want and sp.dim >= 0
        out(ValidationCheck(
            "dim-formula", subject, ok,
            "" if ok else f"dim={sp.dim} but Ind({sp.source})-Ind({sp.target})-1={want}",
        ))

        for m, chain in enumerate(sp.boundary):
            where = f"{subject} stratum {m}"
            seq = [chain[0][0]] + [t for _, t in chain]
            linked = all(chain[k][1] == chain[k + 1][0] for k in range(len(chain) - 1))
            ends = chain[0][0] == sp.source and chain[-1][1] == sp.target
            idx = [fd.point(x).index for x in seq if x in fd.points]
            mono = len(idx) == len(seq) and all(a > b for a, b in zip(idx, idx[1:]))
            ok = linked and ends and mono
            out(ValidationCheck(
                "boundary-monotonicity", where, ok,
                "" if ok else f"chain {'-'.join(seq)} must link the endpoints with strictly dropping index",
            ))

            missing = [f"({s},{t})" for s, t in chain if (s, t) not in fd.spaces]
            if missing:
                out(ValidationCheck(
                    "boundary-dim-sum", where, False,
                    f"undeclared factor space(s) {', '.join(missing)}",
                ))
            else:
                depth = len(chain) - 1
                total = sum(fd.spaces[f].dim for f in chain)
                ok = total == sp.dim - depth
                out(ValidationCheck(
                    "boundary-dim-sum", where, ok,
                    "" if ok else f"factor dims sum to {total}, want dim-depth={sp.dim - depth}",
                ))

    for pt in fd.points.values():
        if pt.home is None:
            continue
        home = fd.spaces[pt.home]
        ok = pt.component in home.components
        out(ValidationCheck(
            "component-refs", pt.id, ok,
            "" if ok else f"component {pt.component!r} not declared on ({home.source},{home.target})",
        ))
        ok = 0 <= pt.index <= home.dim
        out(ValidationCheck(
            "index-bound", pt.id, ok,
            "" if ok else f"index {pt.index} exceeds home dimension {home.dim}",
        ))

    return ValidationReport(tuple(checks))


def emit_flow_data(fd: FlowData) -> dict:
    """The document back as a plain dict, field order canonical."""
    return {
        "name": fd.name,
        "max_level": fd.max_level,
        "base_points": [
            {"id": pt.id, "index": pt.index} for pt in fd.base_points()
        ],
        "moduli": [
            {
                "level": sp.level,
                "source": sp.source,
                "target": sp.target,
                "dim": sp.dim,
                "components": list(sp.components),
                **(
                    {"boundary": [
                        [{"source": s, "target": t} for s, t in chain]
                        for chain in sp.boundary
                    ]}
                    if sp.boundary
                    else {}
                ),
                "critical_points": [
                    {
                        "id": pid,
                        "index": fd.point(pid).index,
                        "component": fd.point(pid).component,
                    }
                    for pid in sp.points
                ],
            }
            for sp in fd.spaces.values()
        ],
    }
