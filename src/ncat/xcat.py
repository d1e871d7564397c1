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
closure, once, from its cached level below; x_cells reads a new one.  It
hash-conses (_Interned): each distinct label, and each cell as the tuple
(head, s0, t0, s1, t1, ...) of its label ids, gets a dense int id.  The
closure keeps one axioms.ChainIndex per depth over cell ids for all its
rounds, each chain read off a key in C (so does pairs()), and fills the
composite table, keyed (p, a, c) on cell ids; labels glue through the one
gluing function, _glue_in, over the label-pair table keyed (u, v) on label
ids (glue uses its own); the collector untracks those int tuples.  A cell
is decoded to one cached XCell only where it leaves the instance, in
cells() and compose(), which finds a cell the instance keeps by identity.
A third table maps a label to its normal form, for normalize.  All are per
instance, as point_like reads the document.  compose, the one composition
path (x_compose too), checks a miss's depth and chains once.
"""

from __future__ import annotations

import warnings
from functools import partial
from itertools import chain
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
    """normalize(Seq((u, v)), fd) for normal labels u and v: _glue_in over tables of its own."""
    for x in (u, v):
        if not isinstance(x, _Label):
            raise _not_a_label(x)
    return (labels := _Interned()).key[_glue_in(labels, {}, fd, labels[u], labels[v])]


class _Interned(dict):
    """value -> a dense id, a new one for a value first seen; key[i] is the value with id i."""

    __slots__ = ("key",)

    def __init__(self):
        self.key = []

    def __missing__(self, x):
        i = self[x] = len(self.key)
        self.key.append(x)
        return i


def _glue_in(labels: _Interned, table: dict, fd, u: int, v: int) -> int:
    """glue on the ids of labels, through table, keyed (u, v): the one gluing
    code.  A diagonal at the seam needs no rewrite: a normal label with a
    real piece holds no Pt pieces ((2) removed them; (3) turns a gluing of
    diagonals into a diagonal), so Pt(a) glued to it, or to an equal Pt(a)
    (one id), leaves it with no lookup.  Any other pair is glued once and
    stored: Pt(a) to Pt(b) is Pt(glue(a, b)) by (3), through the same table,
    and any other pair's pieces are concatenated and rewritten, neither
    half normalized again."""
    x, y = labels.key[u], labels.key[v]
    if type(y) is Pt:
        if type(x) is not Pt or u == v:
            return u
    elif type(x) is Pt:
        return v
    out = table.get((u, v))
    if out is None:
        if type(x) is not Pt:  # the pieces of both, as _pieces gives them
            parts = [*x[1]] if type(x) is Seq else [x]
            parts += y[1] if type(y) is Seq else (y,)
            out = labels[_rewrite(parts, fd)]
        else:
            inner = _glue_in(labels, table, fd, labels[x[1]], labels[y[1]])
            out = labels[_new(Pt, (1, labels.key[inner]))]
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


def _key_chains(keys: list, level: int, ids: list, p: int, side: int):
    """_chain_key on the keys of level-level cell ids, in C: the label ids of
    each chain (one id, not a tuple, at depth 0)."""
    m = 1 + 2 * (level - p)
    return map(itemgetter(m - 2 + side, *range(m, 1 + 2 * level)), map(keys.__getitem__, ids))


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
    composite table the closure filled and splices only pairs not in it;
    source, target, identity and render are the module's functions."""

    name = "x"

    def __init__(self, fd: FlowData, include_composites: bool = False):
        if not isinstance(fd, FlowData):
            raise InvalidArguments(f"expected a FlowData, got {fd!r}")
        self.fd, self.max_level, self.include_composites = fd, fd.max_level, include_composites
        self._cells = {}
        self._labels, self._ids = _Interned(), _Interned()  # label -> id, cell key -> id
        self._glued = {}  # (u, v) -> glue(u, v, fd) on label ids; per document, as point_like reads fd
        self._glue = partial(_glue_in, self._labels, self._glued, fd)  # no frame of its own
        # (p, a, c) -> c o_p a on cell ids; cell id -> the XCell handed out for it; its id() -> cell id
        self._composites, self._out, self._kept = {}, {}, {}
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
        """Semi-naive fixpoint on cell ids: each round composes only the pairs
        with a cell that the previous round added (the frontier), into the
        composite table, so each composable pair of the closed set is spliced
        once.  Each depth keeps one ChainIndex for every round, so each cell's
        chains are computed once: a round adds the frontier to it, then
        composes the frontier, as inner cells, with every cell added so far,
        and the cells added before it with the frontier."""
        composites, splice = self._composites, self._splice
        frontier = [self._cell_id(x) for x in cells]  # kept, so handed out as they are
        seen = set(frontier)
        indexes = [ChainIndex(partial(_key_chains, self._ids.key, level), p) for p in range(level)]
        while frontier:
            fresh = []
            for index in indexes:
                p, old = index.p, len(index.cells)
                new = index.add(frontier)
                for pairs in (index.pairs(new), index.pairs(range(old), old)):
                    for a, c in pairs:
                        out = composites[p, a, c] = splice(p, a, c)
                        if out not in seen:
                            seen.add(out)
                            fresh.append(out)
            frontier = fresh
        return sorted(map(self._decode, seen))

    def _cell_id(self, cell) -> int:
        """The id of a hashable cell, by identity or by value; the first XCell of an id is kept."""
        i = self._kept.get(id(cell))
        if i is None:
            i = self._ids[tuple(map(self._labels.__getitem__, chain((cell[0],), *cell[1])))]
            if cell.__class__ is XCell and i not in self._out:  # _out keeps it, so its id() stays its own
                self._out[i], self._kept[id(cell)] = cell, i
        return i

    def _splice(self, p: int, a: int, c: int) -> int:
        """The id of ``c o_p a`` for composable cell ids, unchecked."""
        ka, kc = self._ids.key[a], self._ids.key[c]
        n = len(ka) - 2 - 2 * p  # the head and the labels above p glue, the pair at p splices
        if n == 1:  # p is the top depth: only the heads glue
            return self._ids[(self._glue(ka[0], kc[0]), ka[1], kc[2], *ka[3:])]
        return self._ids[(*map(self._glue, ka[:n], kc), ka[n], kc[n + 1], *ka[n + 2 :])]

    def _decode(self, i: int) -> XCell:
        """The XCell this instance hands out for cell id i."""
        out = self._out.get(i)
        if out is None:
            labels = map(self._labels.key.__getitem__, self._ids.key[i])
            out = self._out[i] = _new(XCell, (next(labels), tuple(zip(labels, labels))))
            self._kept[id(out)] = i
        return out

    def pairs(self, level: int, p: int) -> list:
        """x_composable_pairs over this instance's cells, found on their ids: cells() hands out kept cells."""
        cells = self.cells(level)
        if cells:
            _depth(p, level, level)
        out, chains = self._out, partial(_key_chains, self._ids.key, level)
        return [(out[a], out[c]) for a, c in composable_pairs(chains, p, list(map(self._cell_id, cells)))]

    def level_of(self, cell) -> int:
        return _require_cell(cell).level

    source = staticmethod(x_source)
    target = staticmethod(x_target)
    identity = staticmethod(x_identity)
    render = staticmethod(x_render)

    def compose(self, p, a, c):
        """``c o_p a`` from the composite table on cell ids; a miss is checked and spliced, not stored."""
        ia, ic = self._kept.get(id(a)), self._kept.get(id(c))
        out = self._out.get(self._composites.get((p, ia, ic))) if p.__class__ is int else None  # no bool
        if out is not None:
            return out
        if a.__class__ is not XCell or c.__class__ is not XCell:
            _require_cell(a), _require_cell(c)
        try:
            if p.__class__ is int and None in (ia, ic):
                hash((a, c))  # an unhashable cell is malformed before its depth is checked
            sa, sc = a[1], c[1]
            k = _depth(p, len(sa), len(sc)) - p  # the chains, as _chain_key gives them, compared in place
            if sa[k - 1][1] != sc[k - 1][0] or sa[k:] != sc[k:]:
                ta, sc = XCell(*_chain_key(a, p, 1)), XCell(*_chain_key(c, p, 0))
                raise NotComposable(p, f"t-chain {ta} != s-chain {sc}")
            if ia is None or ic is None:  # interned by value: an equal copy's composite may be in the table
                ia, ic = self._cell_id(a), self._cell_id(c)
                out = self._composites.get((p, ia, ic))
            return self._decode(self._splice(p, ia, ic) if out is None else out)
        except (TypeError, IndexError):
            raise _malformed(a, c) from None

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
