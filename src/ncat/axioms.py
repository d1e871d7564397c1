"""Mechanical checking of the category laws over a finite cell sample.

The engine works against a small structural interface (cells / level_of /
source / target / identity / compose / normalize / render) so the same
code exercises every category in the package.  It is a reporter: law
failures are collected as witnesses, never raised, so one broken axiom
cannot hide another.  An ``NCatError`` raised while evaluating a side of
an equation is a witness too.  Every law, globularity and the functor
laws of ``check_functor_laws`` included, walks the tables of one run
(``_Run``) on dense cell ids, and keeps its tally (``_Law``).  A law reads
each side from the tables as an id or a stored error, never raising; an
instance whose sides are one id passes, and any other goes to
``_Run.settle``, the one place witnesses are written.  An XCategory with
its own protocol lends a run its cell ids and calls on them (``_on_ids``).

Axiom ids:
  globular-ss          s(s(x)) = s(t(x))
  globular-ts          t(s(x)) = t(t(x))
  comp-st              boundaries of a composite
  id-st                boundaries of an identity
  assoc                E o (C o A) = (E o C) o A
  unit                 identity towers absorb on both sides
  binary-interchange   (H o_p E) o_q (C o_p A) = (H o_q C) o_p (E o_q A), q < p
  nullary-interchange  1_C o_p 1_A = 1_{C o_p A}

Equality everywhere is equality of normalized cells; for the strict
categories normalize is the identity and the laws hold literally.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from collections import defaultdict
from itertools import islice
from typing import NamedTuple

from .errors import InvalidArguments, NCatError

__all__ = [
    "AxiomFailure",
    "AxiomEntry",
    "AxiomReport",
    "composable",
    "composable_pairs",
    "ChainIndex",
    "check_globularity",
    "check_axioms",
]

AXIOM_IDS = (
    "globular-ss",
    "globular-ts",
    "comp-st",
    "id-st",
    "assoc",
    "unit",
    "binary-interchange",
    "nullary-interchange",
)


class AxiomFailure(NamedTuple):
    axiom: str
    detail: str

    def to_dict(self):
        return self._asdict()


class AxiomEntry(NamedTuple):
    axiom: str
    checked: int
    failures: tuple[AxiomFailure, ...] = ()

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_dict(self):
        return {
            "axiom": self.axiom,
            "checked": self.checked,
            "failures": [f.to_dict() for f in self.failures],
            "verdict": self.verdict,
        }


class AxiomReport(NamedTuple):
    entries: tuple[AxiomEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.verdict == "pass" for e in self.entries)

    def entry(self, axiom: str) -> AxiomEntry:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise InvalidArguments(f"unknown axiom {axiom!r}")

    def merged(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.entries + other.entries)

    def to_dict(self):
        return {"entries": [e.to_dict() for e in self.entries], "passed": self.passed}


def composable(cat, p: int, a, c) -> bool:
    """True iff ``c o_p a`` is defined: the depth-p target chain of the
    inner cell meets the depth-p source chain of the outer one."""
    k = _depth(p, cat.level_of(a), cat.level_of(c)) - p
    ends = []
    for x, step in ((a, cat.target), (c, cat.source)):  # the inner cell's normalized chain first
        for _ in range(k):
            x = step(x)
        ends.append(cat.normalize(x))
    return ends[0] == ends[1]


def _depth(p, la: int, lc: int) -> int:
    """The level of a depth-p composite of cells at levels la and lc: the one
    check that the levels agree and that p is a depth below them."""
    if la != lc:
        raise InvalidArguments(f"levels differ: {la} vs {lc}")
    if type(p) is not int:  # a bool is no depth, as it is no level
        raise InvalidArguments(f"depth must be an integer, got {p!r}")
    if not 0 <= p < la:
        raise InvalidArguments(f"depth p={p} out of range for level {la}")
    return la


class ChainIndex:
    """The one composability index at depth p, shared by the law engine and
    X (closure and pair lists).  chains(xs, p, side) gives the depth-p
    s-chains (side 0) or t-chains (side 1) of the cells xs, in order.  The
    index holds the cells added so far in order, each one's t-chain, and
    their positions by s-chain; add() extends it in place, so a fixpoint
    keeps one index for all its rounds and computes each cell's chains once."""

    __slots__ = ("chains", "p", "cells", "targets", "by_source")

    def __init__(self, chains, p: int):
        self.chains, self.p = chains, p
        self.cells, self.targets, self.by_source = [], [], {}

    def add(self, cells: list) -> range:
        """Append cells to the index; the range of their positions."""
        start, by_source = len(self.cells), self.by_source
        self.cells += cells
        self.targets += self.chains(cells, self.p, 1)
        for i, s in enumerate(self.chains(cells, self.p, 0), start):
            by_source.setdefault(s, []).append(i)
        return range(start, len(self.cells))

    def pairs(self, inner, first: int = 0):
        """Yield each (a, c) with a's t-chain equal to c's s-chain, a at a
        position in inner and c at a position >= first: a in position
        order, then c."""
        cells, targets, get = self.cells, self.targets, self.by_source.get
        for i in inner:
            js = get(targets[i])
            if js and js[-1] >= first:
                a = cells[i]
                for j in js[bisect_left(js, first) :] if first else js:
                    yield a, cells[j]


def composable_pairs(chains, p, cells: list):
    """Yield each composable (a, c) among cells at depth p, a in input order,
    then c in input order, through a ChainIndex built over them."""
    index = ChainIndex(chains, p)
    return index.pairs(index.add(cells))


class _Law:
    """The tally of one law: instances checked and witnesses found.

    A witness context ``ctx`` is a thunk, called only when a witness is
    recorded, so a passing run renders nothing.
    """

    def __init__(self, axiom: str):
        self.axiom = axiom
        self.checked = 0
        self.failures = []

    def fail(self, detail: str) -> None:
        self.failures.append(AxiomFailure(self.axiom, detail))

    def entry(self) -> AxiomEntry:
        return AxiomEntry(self.axiom, self.checked, tuple(self.failures))


class _Interned(dict):
    """value -> a dense id, a new one for a value first seen; key[i] is the value with id i."""

    __slots__ = ("key",)

    def __init__(self):
        self.key = []

    def __missing__(self, x):
        i = self[x] = len(self.key)
        self.key.append(x)
        return i


class _Memo(dict):
    """key -> call(key), computed on its first lookup; ``peek(key)`` reads
    it.  call is no bound method or closure of the table's owner, so the
    owner is freed without the cycle collector."""

    def __init__(self, call):
        self.call = call

    def __missing__(self, key):
        out = self[key] = self.call(key)
        return out

    peek = dict.__getitem__


class _OnIds(_Memo):
    """id i -> ids[call(cell[i])], or the NCatError raised; a stored error
    handed in as a key is its own value, with no call.  A miss costs one
    frame besides call."""

    def __init__(self, call, ids: _Interned):
        self.call, self.ids, self.cell = call, ids, ids.key

    def __missing__(self, i):
        if i.__class__ is not int:
            return i
        try:
            out = self.ids[self.call(self.cell[i])]
        except NCatError as e:
            out = e
        self[i] = out
        return out


class _Composites(_OnIds):
    """(p, a, c) -> ids[call(p, cell[a], cell[c])], or the NCatError raised;
    a stored error handed in for a, else for c, is the value, with no call."""

    def __missing__(self, key):
        p, a, c = key
        if a.__class__ is not int:
            return a
        if c.__class__ is not int:
            return c
        try:
            out = self.ids[self.call(p, self.cell[a], self.cell[c])]
        except NCatError as e:
            out = e
        self[key] = out
        return out


class _IdComposites(_Composites):
    """_Composites for X's compose on its own cell ids: (p, a, c) -> call(p, a, c), an id."""

    def __missing__(self, key):
        p, a, c = key
        if a.__class__ is not int or c.__class__ is not int:
            return a if a.__class__ is not int else c
        try:
            out = self.call(p, a, c)
        except NCatError as e:
            out = e
        self[key] = out
        return out


class _Run:
    """One checking run on dense cell ids.

    ``ids`` interns what the tables hold and ``cell[i]`` is the cell with
    id i.  The sampled cells of each level not in [0, ``low``) (``sample``;
    every cell when ``samples`` is None), the pair lists and every law
    instance hold ids; a cell is rendered only for a witness.  Five tables
    (``_Memo``s over ``ids``) hold the id of what a category call returned,
    or the ``NCatError`` it raised: ``composite`` keyed (p, a, c), and
    ``source``, ``target``, ``identity`` and ``normalize`` (``_OnIds``)
    keyed by id.  Handed a stored error in place of an id, a table gives it
    back without a category call, so a chain of peeks stops at the first
    error, as raising calls do.  A law hands an instance that did not pass
    to ``settle`` as those values.  An XCategory with its own protocol lends
    its ids, level id lists, its four ``_OnIds`` (shared by its runs),
    compose on ids (``_IdComposites``, filled first with what its closures
    composed, unless the run ``composes`` nothing) and ``cell``, its decoder.
    """

    def __init__(self, cat, seed, samples, levels, low=0, composes=True):
        if samples is not None and type(samples) is not int:  # a bool is no count
            raise InvalidArguments(f"samples must be an integer or None, got {samples!r}")
        if samples is not None and samples < 0:
            raise InvalidArguments(f"samples must be non-negative, got {samples}")
        if samples is not None and samples >= sys.maxsize:  # caps nothing: no list is that long,
            samples = None  # and islice takes no larger stop
        self.cat, self.cap = cat, samples
        if levels is None:
            levels = range(cat.max_level + 1)
        self.levels = [l for l in levels if not (type(l) is int and 0 <= l < low)]  # cells() checks the rest
        # the tables see ids and cat's methods, never self: a run is freed without the cycle collector
        own = getattr(type(cat), "_on_ids", lambda cat: None)(cat)  # an XCategory's calls on its ids
        if own is None:
            ids = _Interned()
            self.cell, composite = ids.key, _Composites(cat.compose, ids)
            tables = (_OnIds(f, ids) for f in (cat.source, cat.target, cat.identity, cat.normalize))
        else:
            ids, at, self.cell, tables, compose, known = own
            composite = _IdComposites(compose, ids)
        self.ids, self.composite = ids, composite
        self.source, self.target, self.identity, self.normalize = tables
        rng = random.Random(seed)
        self.sample = {}
        for l in self.levels:
            cells = at(l) if own else list(cat.cells(l))
            if samples is not None and len(cells) > samples:
                keep = sorted(rng.sample(range(len(cells)), samples))
                cells = [cells[i] for i in keep]
            self.sample[l] = cells if own else list(map(ids.__getitem__, cells))
        if own is not None and composes:  # the composites X's closures glued, read with no call
            composite.update(known)
        self._pairs = {}
        self.keys = {}  # (l, p) -> {id: (s-chain, t-chain)} of the cells in pairs(l, p)
        self.unwalked = {}  # (l, p) -> [(id, NCatError)] left out of pairs(l, p)

    def render(self, i: int) -> str:
        return self.cat.render(self.cell[i])

    def chain(self, i: int, step, k: int):
        """The normalized k-step chain of cell i under table step: an id or an NCatError."""
        for _ in range(k):
            i = step.peek(i)
        return self.normalize.peek(i)

    def tower(self, i: int, step, k: int):
        """The k-fold identity on chain(i, step, k): an id or an NCatError."""
        i = self.chain(i, step, k)
        for _ in range(k):
            i = self.identity.peek(i)
        return i

    def settle(self, law, ctx, *sides, each=False) -> bool:
        """Record the witnesses of one instance; True iff it has none.

        Each side is (lhs, rhs, shape): two table values, ids or stored
        errors, that must be equal after normalize, and the text a
        non-raised witness fills with the rendered cells (None: ctx()
        alone).  A stored error is a ``raised`` witness: the first one
        only, with nothing compared after it, unless ``each``, when every
        error is recorded and each side without one is still compared.
        A ``normalize`` that raises is a witness too."""
        raised = [v for side in sides for v in side[:2] if v.__class__ is not int]
        for e in raised if each else raised[:1]:
            law.fail(f"{ctx()}: raised {e}")
        held = not raised
        for lhs, rhs, shape in sides if each or held else ():
            if not (lhs.__class__ is rhs.__class__ is int and lhs != rhs):
                continue
            n = self.normalize.peek(lhs)
            m = self.normalize.peek(rhs) if n.__class__ is int else n
            if m.__class__ is not int:
                law.fail(f"{ctx()}: raised {m}")
            elif n == m:
                continue
            elif shape is None:
                law.fail(ctx())
            else:
                law.fail(f"{ctx()}: " + shape.format(self.render(lhs), self.render(rhs)))
            held = False
        return held

    def pairs(self, l: int, p: int) -> list:
        """The first cap composable pairs (inner, outer) among the level-l
        sample, keyed on normalized chains.  A cell whose chain walk raises
        is left out and listed in unwalked[l, p]; each other cell's (s-chain,
        t-chain) key is kept in keys[l, p]."""
        if (l, p) not in self._pairs:
            walked, keys, self.unwalked[l, p] = [], {}, []
            for x in self.sample[l]:
                s = self.chain(x, self.source, l - p)
                t = self.chain(x, self.target, l - p) if s.__class__ is int else s
                if t.__class__ is int:
                    keys[x] = s, t
                    walked.append(x)
                else:
                    self.unwalked[l, p].append((x, t))
            self.keys[l, p] = keys
            index = composable_pairs(lambda xs, _, side: [keys[x][side] for x in xs], p, walked)
            self._pairs[l, p] = list(islice(index, self.cap))
        return self._pairs[l, p]


def check_globularity(cat, levels=None) -> AxiomReport:
    """The two globular identities, checked on every cell of level >= 2."""
    run = _Run(cat, 0, None, levels, low=2, composes=False)
    s, t = run.source.peek, run.target.peek
    laws = ((_Law("globular-ss"), s), (_Law("globular-ts"), t))
    for l in run.levels:
        for x in run.sample[l]:
            for law, out in laws:
                law.checked += 1
                lhs = out(s(x))
                rhs = out(t(x)) if lhs.__class__ is int else lhs
                if lhs != rhs or lhs.__class__ is not int:
                    run.settle(law, lambda: f"level {l}: x={run.render(x)}", (lhs, rhs, None))
    return AxiomReport(tuple(law.entry() for law, _ in laws))


def check_axioms(cat, *, seed=0, samples=1000, levels=None) -> AxiomReport:
    """Run the six composition laws over cat.cells(l) for each level
    (by default every level up to cat.max_level) and report witnesses.

    A level with more than ``samples`` cells is subsampled with the given
    seed; everything else is deterministic in cell order, and the
    ``samples`` cap also bounds each law's instances per level and depth.

    The run gives every cell it meets a dense id and keeps one table per
    category call: each distinct (p, a, c) is composed once, and each
    distinct cell is handed to ``source``, ``target``, ``identity`` and
    ``normalize`` once, or, on an XCategory with its own protocol, once per
    instance, through its own tables on keys, which build no XCell.  So
    those calls must be deterministic in the values of their arguments: an
    equal result, or an error with the same message.  A cell whose chain
    walk raises while the pair lists are built is one comp-st witness and
    in no pair at that level and depth.
    """
    run = _Run(cat, seed, samples, levels)
    laws = (_comp_st, _id_st, _assoc, _unit, _binary_interchange, _nullary_interchange)
    return AxiomReport(tuple(law(run) for law in laws))


def _comp_st(run) -> AxiomEntry:
    law = _Law("comp-st")
    render, s, t, comp = run.render, run.source.peek, run.target.peek, run.composite.peek
    for l in run.levels:
        for p in range(l):
            pairs = run.pairs(l, p)
            for x, e in run.unwalked[l, p]:
                law.fail(f"l={l} p={p} x={render(x)}: raised {e}")
            top = p == l - 1
            for a, c in pairs:
                ac = comp((p, a, c))
                law.checked += ac.__class__ is int  # a pair that does not compose is no instance
                sac, tac = s(ac), t(ac)
                if (
                    sac.__class__ is tac.__class__ is int
                    and sac == (s(a) if top else comp((p, s(a), s(c))))
                    and tac == (t(c) if top else comp((p, t(a), t(c))))
                ):
                    continue
                ctx = lambda: f"l={l} p={p} A={render(a)} C={render(c)}"
                if ac.__class__ is not int:
                    run.settle(law, ctx, (ac, ac, None))
                    continue
                for v, step, x, side in ((sac, s, a, "s"), (tac, t, c, "t")):
                    want = v  # one guard per side: the expected value is read only after v
                    if v.__class__ is int:
                        want = step(x) if top else comp((p, step(a), step(c)))
                    run.settle(law, ctx, (v, want, side + "(CoA)={} != {}"))
    return law.entry()


def _id_st(run) -> AxiomEntry:
    law = _Law("id-st")
    s, t, ident = run.source.peek, run.target.peek, run.identity.peek
    for l in (l for l in run.levels if l < run.cat.max_level):
        for a in run.sample[l]:
            law.checked += 1
            one = ident(a)
            if not (s(one) == a and t(one) == a):
                ctx = lambda: f"level {l}: A={run.render(a)}"
                run.settle(law, ctx, (s(one), a, None)) and run.settle(law, ctx, (t(one), a, None))
    return law.entry()


def _assoc(run) -> AxiomEntry:
    law = _Law("assoc")
    render, comp = run.render, run.composite.peek
    for l in run.levels:
        for p in range(l):
            pairs, inners = run.pairs(l, p), defaultdict(list)  # c -> its inner partners
            for a, c in pairs:
                inners[c].append(a)
            triples = ((a, c, e) for c, e in pairs for a in inners.get(c, ()))
            for a, c, e in islice(triples, run.cap):
                law.checked += 1
                lhs = comp((p, comp((p, a, c)), e))
                rhs = comp((p, a, comp((p, c, e))))
                if lhs != rhs or lhs.__class__ is not int:
                    ctx = lambda: f"l={l} p={p} A={render(a)} C={render(c)} E={render(e)}"
                    run.settle(law, ctx, (lhs, rhs, "{} != {}"), each=True)
    return law.entry()


def _unit(run) -> AxiomEntry:
    law = _Law("unit")
    comp, tower, source, target = run.composite.peek, run.tower, run.source, run.target
    for l in run.levels:
        for a in run.sample[l]:
            for p in range(l):
                law.checked += 1
                lhs = comp((p, a, tower(a, target, l - p)))
                rhs = comp((p, tower(a, source, l - p), a))
                if lhs != a or rhs != a:
                    ctx = lambda: f"l={l} p={p} A={run.render(a)}"
                    sides = (lhs, a, "1-tower o_p A = {} != A"), (rhs, a, "A o_p 1-tower = {} != A")
                    run.settle(law, ctx, *sides, each=True)
    return law.entry()


def _binary_interchange(run) -> AxiomEntry:
    """(H o_p E) o_q (C o_p A) = (H o_q C) o_p (E o_q A) for each p-pair (A, C),
    each q-partner E of A, then each q-partner H of C with (E, H) a p-pair.
    Only the H whose depth-p s-chain is E's t-chain are read, so the scan
    visits just the instances that exist, in that order, before the cap."""
    law = _Law("binary-interchange")
    render, comp = run.render, run.composite.peek
    for l in run.levels:
        for p in range(1, l):
            pairs_p = run.pairs(l, p)
            at_p, keys = set(pairs_p), run.keys[l, p]
            for q in range(p):  # a -> [(e, e's t-chain)], c -> {h's s-chain: [h]}, in list order
                succ, outer = {}, defaultdict(dict)
                for x, y in run.pairs(l, q):
                    key = keys.get(y)
                    if key is not None:  # a cell with no depth-p key is in no pair at p
                        succ.setdefault(x, []).append((y, key[1]))
                        outer[x].setdefault(key[0], []).append(y)
                quads = (
                    (a, c, e, h)
                    for a, c in pairs_p
                    for e, key in succ.get(a, ())
                    for h in outer[c].get(key, ())
                    if (e, h) in at_p
                )
                for a, c, e, h in islice(quads, run.cap):
                    law.checked += 1
                    lhs = comp((q, comp((p, a, c)), comp((p, e, h))))
                    rhs = comp((p, comp((q, a, e)), comp((q, c, h))))
                    if lhs != rhs or lhs.__class__ is not int:
                        run.settle(
                            law,
                            lambda: f"l={l} p={p} q={q} A={render(a)} C={render(c)} "
                            f"E={render(e)} H={render(h)}",
                            (lhs, rhs, "{} != {}"),
                            each=True,
                        )
    return law.entry()


def _nullary_interchange(run) -> AxiomEntry:
    law = _Law("nullary-interchange")
    render, comp, ident = run.render, run.composite.peek, run.identity.peek
    for l in (l for l in run.levels if l < run.cat.max_level):
        for p in range(l):
            for a, c in run.pairs(l, p):
                law.checked += 1
                lhs = comp((p, ident(a), ident(c)))
                rhs = ident(comp((p, a, c)))
                if lhs != rhs or lhs.__class__ is not int:
                    ctx = lambda: f"l={l} p={p} A={render(a)} C={render(c)}"
                    run.settle(law, ctx, (lhs, rhs, "{} != {}"), each=True)
    return law.entry()
