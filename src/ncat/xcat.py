"""The Morse category X over a flow-data document.

Cells are critical points remembered by *label*:

  Atom(id)    a registered critical point,
  Pt(u)       the single point of a diagonal (identity) moduli space over u,
  Seq(...)    a broken configuration glued from >= 2 pieces.

An XCell is a head label plus a spine of (source, target) label pairs,
top-down, recording which moduli space tower the point lives over.  The
category is almost strict: the laws hold after normalizing labels with a
small rewrite system (see normalize), which is not confluent in general;
on a valid document composition needs only its seam shortcuts (_glue_in).

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
hash-conses (axioms._Interned): each distinct label, and each cell as
its key (head, s0, t0, s1, t1, ...) of label ids, gets a dense int id.
On ids: the closed levels, in cells() order (sorted on their keys' label
values), the closure (one axioms.ChainIndex per depth for all rounds,
chains read off keys in C), the label-pair table keyed (u, v) of
_glue_in, the one gluing function (glue uses its own), each (level, p)'s
pair list, and the tables that the closure and every check on the
instance share (a law run through _on_ids): the composite table keyed
(p, a, c) (axioms._Composites over _compose_keys), and the face, identity
and normal-form tables (axioms._OnIds).  Plain cells are built as XCells and
kept, and interned only where ids are asked for; any other cell is
decoded to one cached XCell only where it leaves: cells(), pairs(),
compose() and witness text.  All tables are per instance, as point_like
reads the document; the collector untracks their int tuples.
"""

from __future__ import annotations

import warnings
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .axioms import ChainIndex, _Composites, _depth, _Interned, _Memo, _OnIds, composable_pairs
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
    all labels.  On a valid document composition meets only the seam
    shortcuts of _glue_in and pieces that it joins as they stand: pairwise
    distinct, with no diagonal (tested over every check of the torus, chain
    and tilted-torus documents), so (4), and the labels on which the rule
    order matters, concern only labels that composition does not build.

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


def _key_face(side: int, key: tuple) -> tuple:
    """_face on a cell key (head, s0, t0, s1, t1, ...) of label ids."""
    if len(key) == 1:
        raise NoSource(f"level-0 cells have no {('source', 'target')[side]}")
    return (key[1 + side], *key[3:])


def _decode(labels: list, keys: list, kept: dict, i: int) -> XCell:
    """The XCell for cell id i, from its key; kept maps its id() back to i."""
    it = map(labels.__getitem__, keys[i])
    out = _new(XCell, (next(it), tuple(zip(it, it))))
    kept[id(out)] = i
    return out


def _compose_keys(ids: _Interned, decode, glue, p: int, ka: tuple, kc: tuple) -> tuple:
    """The key of ``c o_p a`` from the keys of a and c: the depth and the chains
    checked (a failing chain decoded through decode, on ids), then _splice_keys."""
    k = 2 * (_depth(p, len(ka) // 2, len(kc) // 2) - p)
    if ka[k] != kc[k - 1] or ka[k + 1 :] != kc[k + 1 :]:
        ta, sc = (decode[ids[(x[j], *x[k + 1 :])]] for x, j in ((ka, k), (kc, k - 1)))
        raise NotComposable(p, f"t-chain {ta} != s-chain {sc}")
    return _splice_keys(glue, p, ka, kc)


def _splice_keys(glue, p: int, ka: tuple, kc: tuple) -> tuple:
    """The key of ``c o_p a`` for composable keys, unchecked: the heads and the
    labels above p glued by glue, the pair at p spliced, the labels below shared."""
    n = len(ka) - 2 - 2 * p
    if n == 1:  # p is the top depth: only the heads glue
        return (glue(ka[0], kc[0]), ka[1], kc[2], *ka[3:])
    return (*map(glue, ka[:n], kc), ka[n], kc[n + 1], *ka[n + 2 :])


def _key_chains(keys: list, level: int, ids: list, p: int, side: int):
    """The depth-p s-chains (side 0) or t-chains (side 1), x_source or
    x_target applied level - p times, on the keys of level-level cell ids,
    in C: the label ids of each chain (one id, not a tuple, at depth 0)."""
    m = 1 + 2 * (level - p)
    return map(itemgetter(m - 2 + side, *range(m, 1 + 2 * level)), map(keys.__getitem__, ids))


def x_composable(p: int, a: XCell, c: XCell) -> bool:
    k = _depth(p, _require_cell(a).level, _require_cell(c).level) - p
    try:  # the t-chain of a against the s-chain of c
        return a[1][k - 1][1] == c[1][k - 1][0] and a[1][k:] == c[1][k:]
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
    """XCategory(fd, include_composites).pairs(level, p): pairs (inner, outer) for x_compose at p."""
    return XCategory(fd, include_composites).pairs(level, p)


class XCategory:
    """X behind the generic category interface.  With
    include_composites=True, cells() also carries every composite, which
    is what the axiom engine needs to test laws on glued cells.  Each
    level is enumerated (and closed) once per instance; cells() and
    pairs() hand out copies so callers cannot change the cache.  compose()
    is X's one composition path (x_compose's too), through the composite
    table; source, target, identity and render are the module's functions."""

    def __init__(self, fd: FlowData, include_composites: bool = False):
        if not isinstance(fd, FlowData):
            raise InvalidArguments(f"expected a FlowData, got {fd!r}")
        self.fd, self.max_level, self.include_composites = fd, fd.max_level, include_composites
        self._cells = {}  # (level, False) -> plain XCells, (level, True) -> closed ids; cells() order
        self._labels, self._ids = labels, ids = _Interned(), _Interned()  # label -> id, cell key -> id
        self._glued = {}  # (u, v) -> glue(u, v, fd) on label ids; per document, as point_like reads fd
        self._glue = partial(_glue_in, labels, self._glued, fd)  # no frame of its own
        self._kept, self._pairs = {}, {}  # an XCell's id() -> its cell id; (level, p) -> pairs on cell ids
        self._out = _Memo(partial(_decode, labels.key, ids.key, self._kept))  # id -> its XCell
        # (p, a, c) -> c o_p a on cell ids, or the NCatError raised; shared by every run on the instance
        self._composites = _Composites(partial(_compose_keys, ids, self._out, self._glue), ids)
        self._normal_forms = nf = _Memo(partial(normalize, fd=fd))  # label -> its normal form, per document
        normal = _Memo(lambda u: labels[nf.peek(labels.key[u])]).peek  # the same on label ids
        identity = lambda k: (labels[_new(Pt, (1, labels.key[k[0]]))], k[0], k[0], *k[1:])
        calls = partial(_key_face, 0), partial(_key_face, 1), identity, lambda k: tuple(map(normal, k))
        self._on_keys = tuple(_OnIds(f, ids) for f in calls)  # id -> each call's id, or its NoSource

    def cells(self, level: int) -> list:
        """All cells at the given level, sorted; above max_level none (no diagonal tower), and a warning."""
        return self._at(level, ids=False)

    def _at(self, level: int, ids: bool = True) -> list:
        """The ids of cells(level) in its order, a closed level's own list; with ids=False, cells(level)."""
        if type(level) is not int:  # a bool is no level, as in the parser
            raise InvalidArguments(f"level must be an integer, got {level!r}")
        if level < 0:
            raise InvalidArguments("level must be non-negative")
        if level > self.max_level:
            warnings.warn(f"no cells above level {self.max_level} in {self.fd.name!r}", stacklevel=3)
            return []
        cells = self._level(level, self.include_composites)
        if self.include_composites:
            return cells if ids else list(map(self._out.__getitem__, cells))
        return list(map(self._cell_id, cells) if ids else cells)

    def _level(self, level: int, closed: bool) -> list:
        """Plain level l as XCells, built from plain level l - 1, or the ids of its closure; cached."""
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
        """Semi-naive fixpoint on cell ids, into the composite table: a round
        adds the frontier (the cells the last round added) to each depth's one
        ChainIndex, then splices it, as inner cells, with every cell added so
        far, and the cells added before it with it, so each cell's chains are
        computed once and each composable pair is spliced once."""
        composites, ids, keys = self._composites, self._ids, self._ids.key
        splice = partial(_splice_keys, self._glue)  # unchecked: an index lists composable pairs only
        frontier = [self._cell_id(x) for x in cells]  # kept, so handed out as they are
        seen = set(frontier)
        indexes = [ChainIndex(partial(_key_chains, keys, level), p) for p in range(level)]
        while frontier:
            fresh = []
            for index in indexes:
                p, old = index.p, len(index.cells)
                new = index.add(frontier)
                for pairs in (index.pairs(new), index.pairs(range(old), old)):
                    for a, c in pairs:
                        out = composites[p, a, c] = ids[splice(p, keys[a], keys[c])]
                        if out not in seen:
                            seen.add(out)
                            fresh.append(out)
            frontier = fresh
        label = self._labels.key.__getitem__  # cells() order: by label values
        return sorted(seen, key=lambda i: tuple(map(label, keys[i])))

    def _cell_id(self, cell) -> int:
        """The id of a hashable cell, by identity or by value; the first XCell of an id is kept."""
        i = self._kept.get(id(cell))
        if i is None:
            key = tuple(map(self._labels.__getitem__, chain((cell[0],), *cell[1])))
            if len(key) != 1 + 2 * len(cell[1]):
                raise TypeError  # a spine entry that is no pair: the caller's malformed cell
            i = self._ids[key]
            if cell.__class__ is XCell and i not in self._out:  # _out keeps it, so its id() stays its own
                self._out[i], self._kept[id(cell)] = cell, i
        return i

    def pairs(self, level: int, p: int) -> list:
        """x_composable_pairs over this instance's cells: a new list of the cells cells() hands out."""
        return [(self._out[a], self._out[c]) for a, c in self._pair_ids(level, p)]

    def _pair_ids(self, level: int, p: int) -> list:
        """The composable pairs of cells(level) at depth p on cell ids, listed once per instance."""
        cells = self._at(level)
        if cells and _depth(p, level, level) and (level, p) not in self._pairs:  # _depth: level or raise
            self._pairs[level, p] = [*composable_pairs(partial(_key_chains, self._ids.key, level), p, cells)]
        return self._pairs[level, p] if cells else []

    def _on_ids(self):
        """For a law run: the cell interner, each level's ids, the decoder and the composite, source,
        target, identity and normal-form tables; None if a subclass, the class or the instance
        overrides the protocol."""
        if (type(self) is not XCategory or vars(self).keys() & _OWN
                or any(XCategory.__dict__[m] is not f for m, f in _OWN.items())):
            return None
        return self._ids, self._at, self._out, (self._composites, *self._on_keys)

    def level_of(self, cell) -> int:
        return _require_cell(cell).level

    source = staticmethod(x_source)
    target = staticmethod(x_target)
    identity = staticmethod(x_identity)
    render = staticmethod(x_render)

    def compose(self, p, a, c):
        """``c o_p a`` on the operands' ids, a kept cell's by identity, any other's by value: read
        from the composite table at an int depth, else composed by its call and not stored."""
        if a.__class__ is not XCell or c.__class__ is not XCell:
            _require_cell(a), _require_cell(c)
        table, keys = self._composites, self._ids.key
        try:
            i, j = self._cell_id(a), self._cell_id(c)
            out = table.get((p, i, j)) if p.__class__ is int else None  # 0.0 == 0 reads no entry
            if out.__class__ is not int:  # a miss or a stored error, which the call raises again
                out = self._ids[table.call(p, keys[i], keys[j])]
            return self._out[out]
        except (TypeError, IndexError):
            raise _malformed(a, c) from None

    def normalize(self, cell):
        """The cell with each label in normal form, read from the instance's
        normal-form table: each distinct label is normalized once."""
        if cell.__class__ is not XCell:
            _require_cell(cell)
        n = self._normal_forms.peek
        try:
            return _new(XCell, (n(cell[0]), tuple([(n(s), n(t)) for s, t in cell[1]])))
        except TypeError:
            raise _malformed(cell) from None


_OWN = {m: XCategory.__dict__[m] for m in ("cells", "level_of", "source", "target", "identity",
                                             "compose", "normalize", "render")}  # the protocol
