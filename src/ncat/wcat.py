"""The index-tuple category W.

A level-l cell is a head entry together with a spine of (i, j) pairs, one
pair per level below l, stored top-down: spine[0] sits at level l-1,
spine[-1] at level 0.  Level-0 cells are bare non-negative integers.

Constraints on (head, spine), writing next(k) for the entry directly above
level k (the head for the top pair, i_{k+1} otherwise):

  * every entry is a non-negative integer,
  * j_k <= i_k at every level,
  * next(k) <  i_k - j_k   when i_k > j_k,
  * next(k) == 0           when i_k == j_k   (the degenerate case; this
    relaxation is what lets identity cells exist at all).

Composition at depth p adds heads and all entries above p, splices the
pair at p, and requires everything below p to agree literally.  All the
category laws hold for W with literal equality of cells.

A composite costs three frames: w_compose, its composability test and the
one constraint check _checked; axioms._depth runs only to raise its error.
"""

from __future__ import annotations

from typing import NamedTuple

from .axioms import _depth
from .errors import ConstraintViolation, InvalidArguments, NCatError, NoSource, NotComposable

__all__ = [
    "WCell",
    "w_make",
    "w_source",
    "w_target",
    "w_identity",
    "w_compose",
    "w_composable",
    "w_enumerate",
    "w_render",
    "WCategory",
]


_new = tuple.__new__  # builds a WCell without the NamedTuple's Python-level __new__


class WCell(NamedTuple):
    """A level >= 1 cell: head entry plus top-down spine of (i, j) pairs."""

    head: int
    spine: tuple[tuple[int, int], ...]

    @property
    def level(self) -> int:
        return len(self.spine)

    def __str__(self) -> str:
        return w_render(self)

    def __repr__(self) -> str:
        return f"WCell({self.head}, {list(self.spine)})"


def _as_entry(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConstraintViolation(f"{where} must be an integer, got {value!r}")
    if value < 0:
        raise ConstraintViolation(f"{where} must be non-negative, got {value}")
    return value


def w_make(head: int, spine) -> WCell:
    """Validate (head, spine) and build the cell; spine is top-down.

    Raises ConstraintViolation naming the offending level otherwise.
    """
    pairs, pos = [], -1
    try:  # one handler, not a type test per pair: functor_g makes every cell it maps here
        for pos, pair in enumerate(spine):
            if len(pair) != 2:
                raise TypeError  # a sequence of another length is no pair either
            pairs.append(tuple(pair))
    except TypeError:  # pos < 0: the spine itself is no sequence
        if pos < 0:
            raise ConstraintViolation(f"spine must be a sequence of pairs, got {spine!r}") from None
        raise ConstraintViolation(f"spine entry {pos} is not a pair") from None
    if not pairs:
        raise ConstraintViolation("spine must be non-empty; level-0 cells are bare integers")
    return _checked(head, tuple(pairs))


def _checked(head, spine: tuple) -> WCell:
    """The cell (head, spine) once its entries meet the constraints: the one
    check, for w_make's cells and w_compose's composites alike."""
    if type(head) is not int or head < 0:
        _as_entry(head, "head")
    above, k = head, len(spine)
    for i, j in spine:
        k -= 1  # the level this pair sits at
        if not (type(i) is type(j) is int and i >= 0 and j >= 0):
            # the full check names the entry, so its label is formatted only here
            _as_entry(i, f"i_{k}")
            _as_entry(j, f"j_{k}")
        if j > i:
            raise ConstraintViolation(f"j_{k}={j} exceeds i_{k}={i}", level=k)
        if i == j:
            if above != 0:
                raise ConstraintViolation(
                    f"entry above a degenerate pair (i_{k}=j_{k}={i}) must be 0, got {above}",
                    level=k,
                )
        elif above >= i - j:
            raise ConstraintViolation(
                f"entry above level {k} must be < i_{k}-j_{k}={i - j}, got {above}",
                level=k,
            )
        above = i
    return _new(WCell, (head, spine))


def _require_cell(q) -> WCell:
    if not isinstance(q, WCell):
        raise InvalidArguments(f"expected a WCell, got {q!r}")
    return q


def _malformed(*cells) -> NCatError:
    """The error for hand-built cells that a cell function raised TypeError
    on: the ConstraintViolation naming the first bad entry, else
    InvalidArguments naming the first spine that is no tuple of pairs."""
    bad = cells[0]
    for q in cells:
        try:
            _checked(*q)
        except ConstraintViolation as e:
            return e
        except (TypeError, ValueError):  # a spine entry that does not unpack to a pair
            bad = q
            break
    return InvalidArguments(f"malformed WCell spine {bad[1]!r}")


def _face(q: WCell, side: int, name: str):
    """Drop the head, promote the top pair's entry at side (0: i, 1: j)."""
    if q.__class__ is not WCell:
        if isinstance(q, int):
            raise NoSource(f"level-0 cells have no {name}")
        _require_cell(q)
    try:
        spine = q[1]
        entry = spine[0][side]
        return entry if len(spine) == 1 else _new(WCell, (entry, tuple(spine[1:])))
    except (TypeError, IndexError):
        raise _malformed(q) from None


def w_source(q: WCell):
    """Drop the head, promote i_{l-1}.  At level 1 this is a bare integer."""
    return _face(q, 0, "source")


def w_target(q: WCell):
    """Drop the head, promote j_{l-1}.  At level 1 this is a bare integer."""
    return _face(q, 1, "target")


def w_identity(q) -> WCell:
    """Head becomes a degenerate pair under a fresh 0 head."""
    if q.__class__ is not WCell:
        if isinstance(q, bool):
            raise InvalidArguments("expected a cell, got a bool")
        if isinstance(q, int):
            _as_entry(q, "cell")
            return _new(WCell, (0, ((q, q),)))
        _require_cell(q)
    try:
        return _new(WCell, (0, ((q[0], q[0]),) + q[1]))
    except TypeError:
        raise _malformed(q) from None


def w_composable(p: int, q, r) -> bool:
    """True iff ``r o_p q`` is defined (q inner, r outer)."""
    try:
        _check_composable(p, q, r)
    except NotComposable:
        return False
    except (TypeError, IndexError):  # IndexError: a pair at p with one entry
        raise _malformed(q, r) from None
    return True


def _check_composable(p: int, q: WCell, r: WCell) -> int:
    """Raise unless ``r o_p q`` is defined; the spine position of depth p.
    The depth is tested inline, and _depth runs only to raise its error."""
    if q.__class__ is not WCell or r.__class__ is not WCell:
        _require_cell(q), _require_cell(r)
    qs, rs = q[1], r[1]
    n = len(qs)
    if not (p.__class__ is int and n == len(rs) and 0 <= p < n):
        _depth(p, n, len(rs))
    top = n - 1 - p
    if qs[top][1] != rs[top][0]:
        raise NotComposable(p, f"j_p of inner is {qs[top][1]}, i_p of outer is {rs[top][0]}")
    below = qs[top + 1 :]
    if below != rs[top + 1 :] and tuple(below) != tuple(rs[top + 1 :]):  # a list spine may meet a tuple one
        raise NotComposable(p, "spines below p differ")
    return top


def w_compose(p: int, q: WCell, r: WCell) -> WCell:
    """The composite ``r o_p q``: heads and entries above p add, the pairs
    at p splice to (i_p of q, j_p of r), everything below p is shared.

    The composite goes through the one constraint check.  It always passes
    for valid operands: above any non-degenerate level both strict bounds
    add, and a degenerate level forces both summands above it to be 0.
    """
    try:
        top = _check_composable(p, q, r)
        qs, rs = q[1], r[1]
        head = q[0] + r[0]
        spine = []
        for k in range(top):  # a loop, not a comprehension: no frame of its own
            x, y = qs[k], rs[k]
            spine.append((x[0] + y[0], x[1] + y[1]))
        spine.append((qs[top][0], rs[top][1]))
        spine.extend(qs[top + 1 :])
    except (TypeError, IndexError):  # a hand-built operand: an entry that does not add, a pair not of two
        raise _malformed(q, r) from None
    return _checked(head, tuple(spine))


def w_enumerate(level: int, bound: int) -> list:
    """All cells of the given level with every entry <= bound, sorted
    lexicographically by (head, spine).  Level 0 gives bare integers.
    """
    if type(level) is not int or type(bound) is not int:  # a bool is no integer here, as in the parser
        raise InvalidArguments(f"level and bound must be integers, got {level!r} and {bound!r}")
    if level < 0 or bound < 0:
        raise InvalidArguments("level and bound must be non-negative")
    cells = list(range(bound + 1))
    for _ in range(level):  # each level from the one below
        out = []
        for below in cells:
            i, rest = (below, ()) if below.__class__ is int else below
            for j in range(min(i, bound) + 1):
                if i == j:
                    out.append(_new(WCell, (0, ((i, j),) + rest)))
                else:
                    for head in range(min(i - j - 1, bound) + 1):
                        out.append(_new(WCell, (head, ((i, j),) + rest)))
        out.sort()
        cells = out
    return cells


def w_render(q) -> str:
    """Text form ``(h, [i_{l-1} .. i_0 ; j_{l-1} .. j_0])``; plain digits at level 0."""
    if isinstance(q, int):
        return str(q)
    _require_cell(q)
    try:
        front = " ".join(str(i) for i, _ in q.spine)
        back = " ".join(str(j) for _, j in q.spine)
    except TypeError:
        raise _malformed(q) from None
    return f"({q.head}, [{front} ; {back}])"


class WCategory:
    """W packaged behind the generic category interface used by the
    axiom engine: source, target, identity, compose and render are the
    module's functions.  ``bound`` caps the entries that cells() enumerates.
    Each level is enumerated once per instance; cells() hands out copies
    so callers cannot change the cache.
    """

    def __init__(self, max_level: int = 3, bound: int = 3):
        self.max_level = max_level
        self.bound = bound
        self._cells = {}

    def cells(self, level: int) -> list:
        if type(level) is not int:  # True and 1.0 hash as level 1: never a cache key
            return self._enumerate(level)  # raises
        if level not in self._cells:
            self._cells[level] = [] if level > self.max_level else self._enumerate(level)
        return list(self._cells[level])

    def _enumerate(self, level: int) -> list:
        return w_enumerate(level, self.bound)

    def level_of(self, cell) -> int:
        return 0 if isinstance(cell, int) else _require_cell(cell).level

    source = staticmethod(w_source)
    target = staticmethod(w_target)
    identity = staticmethod(w_identity)
    compose = staticmethod(w_compose)
    render = staticmethod(w_render)

    def normalize(self, cell):
        return cell  # W's laws hold literally
