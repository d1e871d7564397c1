"""The dimension-tuple category V.

A V cell is a tower of vector spaces and hom spaces remembered only by
dimension, so its data is exactly a W cell; VCell is a semantic wrapper
that keeps the two apart in signatures and rendering.  Equality is
equality of the underlying dimension data.  All operations delegate, one
frame over the W call: a VCell's data is read as v[0], and the result is
built with tuple.__new__.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidArguments
from .wcat import (
    WCategory,
    WCell,
    w_compose,
    w_identity,
    w_render,
    w_source,
    w_target,
)

__all__ = [
    "VCell",
    "v_from_w",
    "v_to_w",
    "v_source",
    "v_target",
    "v_identity",
    "v_compose",
    "v_render",
    "VCategory",
]


_new = tuple.__new__  # builds a VCell without the NamedTuple's Python-level __new__


class VCell(NamedTuple):
    """dims is a WCell, or a bare int for level-0 cells."""

    dims: "WCell | int"

    @property
    def level(self) -> int:
        return 0 if isinstance(self.dims, int) else self.dims.level

    def __str__(self) -> str:
        return v_render(self)


def v_from_w(q) -> VCell:
    if not isinstance(q, (WCell, int)) or isinstance(q, bool):
        raise InvalidArguments(f"expected a W cell, got {q!r}")
    return VCell(q)


def v_to_w(v: VCell):
    if not isinstance(v, VCell):
        raise InvalidArguments(f"expected a VCell, got {v!r}")
    return v.dims


def v_source(v: VCell) -> VCell:
    return _new(VCell, (w_source(v[0] if v.__class__ is VCell else v_to_w(v)),))


def v_target(v: VCell) -> VCell:
    return _new(VCell, (w_target(v[0] if v.__class__ is VCell else v_to_w(v)),))


def v_identity(v: VCell) -> VCell:
    return _new(VCell, (w_identity(v[0] if v.__class__ is VCell else v_to_w(v)),))


def v_compose(p: int, a: VCell, c: VCell) -> VCell:
    if a.__class__ is VCell is c.__class__:
        return _new(VCell, (w_compose(p, a[0], c[0]),))
    return _new(VCell, (w_compose(p, v_to_w(a), v_to_w(c)),))


def v_render(v: VCell) -> str:
    """``R^h`` at level 0, else ``(R^h, Hom(R^i, R^j), ...)`` top-down."""
    dims = v_to_w(v)
    if isinstance(dims, int):
        return f"R^{dims}"
    homs = ", ".join(f"Hom(R^{i},R^{j})" for i, j in dims.spine)
    return f"(R^{dims.head}, {homs})"


class VCategory(WCategory):
    """V behind the generic category interface: W's cells, levels and
    normal forms, each cell wrapped as a VCell, and the v_ functions."""

    def _enumerate(self, level: int) -> list:
        return [VCell(q) for q in super()._enumerate(level)]

    def level_of(self, cell) -> int:
        return super().level_of(v_to_w(cell))

    source = staticmethod(v_source)
    target = staticmethod(v_target)
    identity = staticmethod(v_identity)
    compose = staticmethod(v_compose)
    render = staticmethod(v_render)
