"""The Morse category X over a flow-data document.

Cells are critical points remembered by *label*:

  Atom(id)    a registered critical point,
  Pt(u)       the single point of a diagonal (identity) moduli space over u,
  Seq(...)    a broken configuration glued from >= 2 pieces.

An XCell is a head label plus a spine of (source, target) label pairs,
top-down, recording which moduli space tower the point lives over.  The
category is almost strict: the laws hold after normalizing labels with a
small rewrite system (see normalize), confluent on the labels composition
produces but not in general.

Every label X builds is normal by construction: enumerated cells carry
atoms and diagonals of atoms, and composition glues two normal labels with
glue, which absorbs a diagonal at the seam at once and rewrites any other
pair's pieces without normalizing either half again; pieces that are
pairwise distinct and hold no diagonal need no rule and are only joined.
Labels are tagged tuples and cells named tuples, so hashing, equality and
sorting run in C, and a cell is its own sort key; the hot paths build
them with tuple.__new__, past the Python-level constructors.

XCategory enumerates a level: the registered points of every declared
moduli space at that level, plus one synthesized diagonal cell for each
cell one level down whose home component is a single point — registered
points on positive-dimensional spaces and base points get no diagonal
cell.  Composites (Seq-headed cells) are only enumerated on request, by
closing under composition.  Each instance builds a level, and its
closure, once, from its cached level below; x_cells reads a new one.  The
closure keeps one axioms.ChainIndex per depth for all its rounds and
fills its composite table, keyed (p, a, c), which compose reads first.
Its labels glue through the one gluing function, _glue_in, bound to its
label-pair table keyed (u, v), which glue uses over a table of its own.
A third table maps a label to its normal form; normalize reads it, so an
instance normalizes each distinct label once.  The last two belong to one
instance, as point_like reads its document.  compose is the one
composition path: x_compose is XCategory(fd).compose.  It tests its
operands' class once, and on a table miss the depth and the two chain
keys once, before it glues.
"""

from __future__ import annotations

import warnings
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .axioms import ChainIndex, _depth, composable_pairs
from .errors import FlowDataInconsistent, InvalidArguments, NoSource, NotComposable
from .flowdata import FlowData

__all__ = [
    "Atom",
    "Pt",
    "Seq",
    "Label",
    "normalize",
    "glue",
    "point_like",
    "XCell",
    "x_cells",
    "x_source",
    "x_target",
    "x_identity",
    "x_compose",
    "x_composable",
    "x_composable_pairs",
    "x_render",
    "XCategory",
]


_new = tuple.__new__  # builds a label or cell without a Python-level __new__


class _Label(tuple):
    """A label is the tuple (tag, value), tag 0 for Atom, 1 for Pt and 2 for
    Seq.  Hashing, equality and order are the tuple's, run in C: atoms, then
    diagonals, then gluings, each by value, recursively."""

    __slots__ = ()

    def __new__(cls, value):
        return tuple.__new__(cls, (cls._tag, value))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._field}={self[1]!r})"


class Atom(_Label):
    __slots__ = ()
    _tag, _field = 0, "id"
    id = property(itemgetter(1))

    def __str__(self) -> str:
        return self.id


class Pt(_Label):
    __slots__ = ()
    _tag, _field = 1, "of"
    of = property(itemgetter(1))

    def __str__(self) -> str:
        return f"pt({self.of})"


class Seq(_Label):
    __slots__ = ()
    _tag, _field = 2, "parts"
    parts = property(itemgetter(1))

    def __new__(cls, parts):
        if len(parts) < 2:
            raise InvalidArguments("a glued label needs at least two parts")
        return super().__new__(cls, parts)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


Label = "Atom | Pt | Seq"


def point_like(x, fd: "FlowData | None") -> bool:
    """Structurally index-0: every constituent is either a diagonal point
    or a registered point whose home component is zero-dimensional."""
    if isinstance(x, Pt):
        return True
    if isinstance(x, Atom):
        if fd is None:
            return False
        home = fd.home_of(x.id)
        return home is not None and home.dim == 0
    if isinstance(x, Seq):
        return all(point_like(p, fd) for p in x.parts)
    raise _not_a_label(x)


def _not_a_label(x) -> InvalidArguments:
    return InvalidArguments(f"expected a label, got {x!r}")


def normalize(x, fd: "FlowData | None" = None):
    """Canonical form of a label under four reductions:

      (1) gluings flatten:            Seq(.., Seq(a, b), ..) -> Seq(.., a, b, ..)
      (2) diagonal pieces are absorbed by real neighbours:
                                      Seq(.., Pt(u), m, ..) -> Seq(.., m, ..)
      (3) a gluing of diagonals is a diagonal of the gluing:
                                      Seq(Pt(u), Pt(v))     -> Pt(Seq(u, v))
      (4) an immediately repeated point-like block collapses:
                                      Seq(.., B, B, ..)     -> Seq(.., B, ..)

    (4) carries the side condition that the block is point_like — which is
    exactly when the repetition came from gluing along a diagonal — and
    that keeps every rewrite index-neutral.  The system is not confluent on
    all labels, but it is on those that arise from composing cells over a
    document: there the fixed rule order below reaches the form any other
    exhaustive strategy does (tested with randomized rewriting).

    It runs in two steps: normalize the parts and flatten them (1), then
    rewrite the flat list of normal pieces with (2)-(4) (_rewrite).
    Composition skips the first step: its labels are normal, and glue absorbs
    a diagonal at the seam or rewrites the pieces of both (normal parts hold
    no gluings and normalize is idempotent, so that is the same result).
    """
    if isinstance(x, Atom):
        return x
    if isinstance(x, Pt):
        return Pt(normalize(x.of, fd))
    if not isinstance(x, Seq):
        raise _not_a_label(x)
    # (1) flatten; normal parts hold no gluings, so one level is enough
    parts = []
    for p in x.parts:
        parts.extend(_pieces(normalize(p, fd)))
    return _rewrite(parts, fd)


def glue(u, v, fd: "FlowData | None" = None):
    """normalize(Seq((u, v)), fd) for normal labels u and v: _glue_in over
    a label-pair table of its own."""
    for x in (u, v):
        if not isinstance(x, _Label):
            raise _not_a_label(x)
    return _glue_in({}, fd, u, v)


def _glue_in(table: dict, fd, u, v):
    """glue(u, v, fd) through table, keyed (u, v): the one gluing code.  A
    diagonal at the seam needs no rewrite: a normal label with a real piece
    holds no Pt pieces ((2) removed them; (3) turns a gluing of diagonals
    into a diagonal), so Pt(a) glued to it, or to itself, leaves it with no
    lookup.  Any other pair is glued once and stored: Pt(a) to an equal
    Pt(a) is Pt(a) by (4), Pt(a) to Pt(b) is Pt(glue(a, b)) by (3), through
    the same table, and any other pair's pieces are concatenated and
    rewritten, neither half normalized again."""
    if type(v) is Pt:
        if type(u) is not Pt or u is v:
            return u
    elif type(u) is Pt:
        return v
    out = table.get((u, v))
    if out is None:
        if type(u) is not Pt:  # the pieces of both, as _pieces gives them
            parts = [*u[1]] if type(u) is Seq else [u]
            parts += v[1] if type(v) is Seq else (v,)
            out = _rewrite(parts, fd)
        elif u == v:
            out = u
        else:
            out = _new(Pt, (1, _glue_in(table, fd, u[1], v[1])))
        table[u, v] = out
    return out


def _pieces(x) -> list:
    """The pieces a normal label contributes to a gluing."""
    return list(x.parts) if isinstance(x, Seq) else [x]


def _rewrite(parts: list, fd):
    """(2)-(4) on a flat list of two or more normal pieces; the label they
    glue to.  Pieces that are pairwise distinct, none a diagonal, are that
    label as they stand: (4) needs a repeated piece, (2) and (3) a diagonal."""
    if Pt not in map(type, parts) and len(set(parts)) == len(parts):
        return _new(Seq, (2, tuple(parts)))
    parts = _collapse(parts, fd)
    # (2) absorb diagonal pieces when a real piece remains; dropping them
    # can bring equal point-like blocks together, so (4) runs once more
    if any(isinstance(p, Pt) for p in parts) and not all(isinstance(p, Pt) for p in parts):
        parts = _collapse([p for p in parts if not isinstance(p, Pt)], fd)
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, Pt) for p in parts):
        # (3); the collapse above already removed equal neighbours, and the
        # diagonals' labels are normal, so their pieces are rewritten directly
        return Pt(_rewrite([q for p in parts for q in _pieces(p.of)], fd))
    return Seq(tuple(parts))


def _collapse(parts: list, fd) -> list:
    """(4) until it no longer applies: delete the second of two equal
    adjacent point-like blocks, shortest-leftmost first."""
    k = 1
    while 2 * k <= len(parts):
        for i in range(len(parts) - 2 * k + 1):
            block = parts[i : i + k]
            if parts[i + k : i + 2 * k] == block and all(point_like(p, fd) for p in block):
                del parts[i + k : i + 2 * k]
                k = 0  # start again from the shortest blocks
                break
        k += 1
    return parts


class _LabelTable(dict):
    """label -> call(label, arg), each label's computed on its first lookup
    and kept as long as the table: an XCategory's normal forms, or the
    indices of one functor-law check."""

    __slots__ = ("call", "arg")

    def __init__(self, call, arg):
        self.call, self.arg = call, arg

    def __missing__(self, label):
        out = self[label] = self.call(label, self.arg)
        return out


class XCell(NamedTuple):
    """A head label over a top-down spine of (source, target) label pairs,
    as the named tuple (head, spine): cells sort by head, then spine."""

    head: Label
    spine: tuple

    @property
    def level(self) -> int:
        return len(self.spine)

    def __str__(self) -> str:
        return x_render(self)


def _require_cell(cell) -> XCell:
    if not isinstance(cell, XCell):
        raise InvalidArguments(f"expected an XCell, got {cell!r}")
    return cell


def _malformed(*cells) -> InvalidArguments:
    """The error for hand-built cells that a cell function raised TypeError on."""
    return InvalidArguments("malformed XCell: " + " or ".join(map(repr, cells)))


def x_render(cell: XCell) -> str:
    try:
        if _require_cell(cell).level == 0:
            return str(cell.head)
        pairs = ", ".join(f"{s}->{t}" for s, t in cell.spine)
    except TypeError:
        raise _malformed(cell) from None
    return f"({cell.head}; {pairs})"


def _face(cell: XCell, side: int, name: str) -> XCell:
    """The top pair's label at side (0: source, 1: target) over the rest of the spine."""
    if cell.__class__ is not XCell:
        _require_cell(cell)
    try:
        spine = cell[1]
        if spine:
            return _new(XCell, (spine[0][side], spine[1:]))
    except TypeError:
        raise _malformed(cell) from None
    raise NoSource(f"level-0 cells have no {name}")


def x_source(cell: XCell) -> XCell:
    return _face(cell, 0, "source")


def x_target(cell: XCell) -> XCell:
    return _face(cell, 1, "target")


def x_identity(cell: XCell) -> XCell:
    """The unique point of the diagonal space over the cell."""
    if cell.__class__ is not XCell:
        _require_cell(cell)
    head, spine = cell
    try:
        return _new(XCell, (_new(Pt, (1, head)), ((head, head),) + spine))
    except TypeError:
        raise _malformed(cell) from None


def _chain_key(cell: XCell, p: int, side: int) -> tuple:
    """(head, spine) of the depth-p s-chain (side 0) or t-chain (side 1):
    x_source or x_target applied level - p times."""
    spine = cell[1]
    k = len(spine) - p
    return spine[k - 1][side], spine[k:]


def x_composable(p: int, a: XCell, c: XCell) -> bool:
    _depth(p, _require_cell(a).level, _require_cell(c).level)
    try:
        return _chain_key(a, p, 1) == _chain_key(c, p, 0)
    except TypeError:
        raise _malformed(a, c) from None


def x_compose(fd: FlowData, p: int, a: XCell, c: XCell) -> XCell:
    """The glued cell ``c o_p a``: XCategory(fd).compose(p, a, c)."""
    return XCategory(fd).compose(p, a, c)


def _base_cells(fd: FlowData) -> list:
    return [XCell(Atom(pt.id), ()) for pt in sorted(fd.base_points(), key=lambda p: p.id)]


def _spine_of(fd: FlowData, space) -> tuple:
    pair = (Atom(space.source), Atom(space.target))
    if space.level == 1:
        return (pair,)
    home = fd.home_of(space.source)
    if home is None or home.level != space.level - 1:
        raise FlowDataInconsistent(
            f"space ({space.source},{space.target}) at level {space.level}: "
            f"its source {space.source!r} is not a point of a level-{space.level - 1} space"
        )
    return (pair,) + _spine_of(fd, home)


def x_cells(fd: FlowData, level: int, include_composites: bool = False) -> list:
    """XCategory(fd, include_composites).cells(level)."""
    return XCategory(fd, include_composites).cells(level)


def x_composable_pairs(fd: FlowData, level: int, p: int, include_composites: bool = False) -> list:
    """Ordered pairs (inner, outer) among the level's cells, ready for
    x_compose at depth p."""
    return XCategory(fd, include_composites).pairs(level, p)


class XCategory:
    """X behind the generic category interface.  With
    include_composites=True, cells() also carries every composite, which
    is what the axiom engine needs to test laws on glued cells.  Each
    level is enumerated (and closed) once per instance; cells() hands
    out copies so callers cannot change the cache.  compose() reads the
    composite table the closure filled and glues only pairs not in it;
    source, target, identity and render are the module's functions."""

    name = "x"

    def __init__(self, fd: FlowData, include_composites: bool = False):
        if not isinstance(fd, FlowData):
            raise InvalidArguments(f"expected a FlowData, got {fd!r}")
        self.fd = fd
        self.max_level = fd.max_level
        self.include_composites = include_composites
        self._cells = {}
        self._composites = {}  # (p, a, c) -> c o_p a
        self._glued = {}  # (u, v) -> glue(u, v, fd); per document, as point_like reads fd
        self._glue_labels = partial(_glue_in, self._glued, fd)  # no frame of its own
        self._normal_forms = _LabelTable(normalize, fd)  # label -> normalize(label, fd); per document too

    def cells(self, level: int) -> list:
        """All cells at the given level, sorted.  Above max_level there are
        none (the diagonal tower is not materialized); a warning says so."""
        if type(level) is not int:  # a bool is no level, as in the parser
            raise InvalidArguments(f"level must be an integer, got {level!r}")
        if level < 0:
            raise InvalidArguments("level must be non-negative")
        if level > self.max_level:
            warnings.warn(f"no cells above level {self.max_level} in {self.fd.name!r}", stacklevel=2)
            return []
        return list(self._level(level, self.include_composites))

    def _level(self, level: int, closed: bool) -> list:
        """Plain level l, built from plain level l - 1, or its closure; cached."""
        key = (level, closed)
        if key not in self._cells:
            fd = self.fd
            if closed:
                cells = self._close_under_composition(level, self._level(level, False))
            elif level == 0:
                cells = _base_cells(fd)
            else:
                cells = [  # the points of a space share one spine
                    XCell(Atom(pid), spine)
                    for sp in sorted(fd.spaces_at_level(level), key=lambda s: s.key)
                    for spine in (_spine_of(fd, sp),)
                    for pid in sorted(sp.points)
                ]
                below = self._level(level - 1, False)  # diagonals over one-point homes
                cells += [x_identity(b) for b in below if point_like(b.head, fd)]
                cells.sort()
            self._cells[key] = cells
        return self._cells[key]

    def _close_under_composition(self, level: int, cells: list) -> list:
        """Semi-naive fixpoint: each round composes only the pairs with a cell
        that the previous round added (the frontier), into the composite
        table, so each composable pair of the closed set is glued once.
        Each depth keeps one ChainIndex for every round, so each cell's
        chains are computed once: a round adds the frontier to it, then
        composes the frontier, as inner cells, with every cell added so far,
        and the cells added before it with the frontier."""
        composites, glue_cells = self._composites, self._glue_cells
        seen = set(cells)
        indexes = [ChainIndex(_chain_key, p) for p in range(level)]
        frontier = cells
        while frontier:
            fresh = []
            for index in indexes:
                p, old = index.p, len(index.cells)
                new = index.add(frontier)
                for pairs in (index.pairs(new), index.pairs(range(old), old)):
                    for a, c in pairs:
                        out = composites[p, a, c] = glue_cells(p, a, c)
                        if out not in seen:
                            seen.add(out)
                            fresh.append(out)
            frontier = fresh
        return sorted(seen)

    def _glue_cells(self, p: int, a: XCell, c: XCell) -> XCell:
        """``c o_p a`` for a composable pair, unchecked: labels above depth p glue
        pairwise to normal ones, the pair at p splices, the rest is shared."""
        glue, (ha, sa), (hc, sc) = self._glue_labels, a, c
        top = len(sa) - 1 - p
        head = glue(ha, hc)
        if not top:  # p = level - 1: only the heads glue
            return _new(XCell, (head, ((sa[0][0], sc[0][1]),) + sa[1:]))
        spine = [(glue(sa[k][0], sc[k][0]), glue(sa[k][1], sc[k][1])) for k in range(top)]
        spine.append((sa[top][0], sc[top][1]))
        return _new(XCell, (head, tuple(spine) + sa[top + 1 :]))

    def pairs(self, level: int, p: int) -> list:
        """x_composable_pairs over this instance's cells."""
        cells = self.cells(level)
        if cells:
            _depth(p, level, level)
        return list(composable_pairs(_chain_key, p, cells))

    def level_of(self, cell) -> int:
        return _require_cell(cell).level

    source = staticmethod(x_source)
    target = staticmethod(x_target)
    identity = staticmethod(x_identity)
    render = staticmethod(x_render)

    def compose(self, p, a, c):
        """``c o_p a`` from the composite table; a miss is checked and glued, not stored."""
        if a.__class__ is not XCell or c.__class__ is not XCell:
            _require_cell(a), _require_cell(c)  # checked first: the read hashes them
        try:
            out = self._composites.get((p, a, c)) if p.__class__ is int else None  # True, 0.0 would match
            if out is None:
                _depth(p, len(a[1]), len(c[1]))
                ta, sc = _chain_key(a, p, 1), _chain_key(c, p, 0)
                if ta != sc:
                    raise NotComposable(p, f"t-chain {XCell(*ta)} != s-chain {XCell(*sc)}")
                out = self._glue_cells(p, a, c)
        except TypeError:
            raise _malformed(a, c) from None
        return out

    def normalize(self, cell):
        """The cell with each label in normal form, read from the instance's
        normal-form table: each distinct label is normalized once."""
        if cell.__class__ is not XCell:
            _require_cell(cell)
        n = self._normal_forms.__getitem__
        try:
            return _new(XCell, (n(cell[0]), tuple([(n(s), n(t)) for s, t in cell[1]])))
        except TypeError:
            raise _malformed(cell) from None
