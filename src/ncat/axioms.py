"""Mechanical checking of the category laws over a finite cell sample.

The engine works against a small structural interface (cells / level_of /
source / target / identity / compose / normalize / render) so the same
code exercises every category in the package.  It is a reporter: law
failures are collected as witnesses, never raised, so one broken axiom
cannot hide another.  An ``NCatError`` raised while evaluating a side of
an equation is a witness too.  Every law, globularity and the functor
laws of ``check_functor_laws`` included, runs through one run (``_Run``)
on dense cell ids, and each law keeps its tally (``_Law``); a cell is
rendered only for a witness, so a passing run renders nothing.

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
from dataclasses import dataclass
from itertools import islice

from .errors import InvalidArguments, NCatError

__all__ = [
    "AxiomFailure",
    "AxiomEntry",
    "AxiomReport",
    "composable",
    "composable_pairs",
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


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    detail: str

    def to_dict(self):
        return {"axiom": self.axiom, "detail": self.detail}


@dataclass(frozen=True)
class AxiomEntry:
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


@dataclass(frozen=True)
class AxiomReport:
    entries: tuple[AxiomEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.verdict == "pass" for e in self.entries)

    def entry(self, axiom: str) -> AxiomEntry:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise KeyError(axiom)

    def merged(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.entries + other.entries)

    def to_dict(self):
        return {"entries": [e.to_dict() for e in self.entries], "passed": self.passed}


def composable(cat, p: int, a, c) -> bool:
    """True iff ``c o_p a`` is defined: the depth-p target chain of the
    inner cell meets the depth-p source chain of the outer one."""
    la, lc = cat.level_of(a), cat.level_of(c)
    if la != lc:
        raise InvalidArguments(f"levels differ: {la} vs {lc}")
    if not 0 <= p < la:
        raise InvalidArguments(f"depth p={p} out of range for level {la}")
    run = _Run(cat, 0, None, ())
    k = la - p
    return run.chain(run.ids[a], run.target, k) == run.chain(run.ids[c], run.source, k)


def composable_pairs(chain, p, inner, outer):
    """Yield each (a, c), a from inner and c from outer, with chain(a, p, 1)
    (a's depth-p t-chain) equal to chain(c, p, 0) (c's s-chain): a in input
    order, then c in input order.  The one composability index, shared by
    the law engine and X (closure and pair lists)."""
    by_source = {}
    for c in outer:
        by_source.setdefault(chain(c, p, 0), []).append(c)
    for a in inner:
        for c in by_source.get(chain(a, p, 1), ()):
            yield a, c


def _partners(pairs, side):
    """The cell at ``side`` of each pair -> its partners, in list order."""
    out = {}
    for pair in pairs:
        out.setdefault(pair[side], []).append(pair[1 - side])
    return out


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

    def eval(self, ctx, fn):
        """fn(), or None once a raised NCatError is recorded as a witness."""
        try:
            return fn()
        except NCatError as e:
            self.fail(f"{ctx()}: raised {e}")
            return None

    def holds(self, ctx, pred) -> None:
        """One instance that fails, with witness ctx(), unless pred() is true."""
        self.checked += 1
        if self.eval(ctx, pred) is False:
            self.fail(ctx())

    def entry(self) -> AxiomEntry:
        return AxiomEntry(self.axiom, self.checked, tuple(self.failures))


class _Ids(dict):
    """Dense cell ids: ids[x] is the id of cell x, a new one unless an equal
    cell has one, and ids.cell[i] is the cell with id i."""

    def __init__(self):
        super().__init__()
        self.cell = []

    def __missing__(self, x):
        i = self[x] = len(self.cell)
        self.cell.append(x)
        return i


def _memo(call, ids):
    """key -> ids[call(key)], calling call once per distinct key: a repeat
    reads the stored id or re-raises the stored NCatError."""
    table = {}

    def lookup(key):
        out = table.get(key)
        if out is None:
            try:
                out = ids[call(key)]
            except NCatError as e:
                out = e
            table[key] = out
        if out.__class__ is int:
            return out
        raise out.with_traceback(None)

    return lookup


class _Run:
    """One checking run on dense cell ids.

    Every cell the laws touch is interned once to a dense int id:
    ``ids[x]`` is the id of cell x and ``cell[i]`` the cell with id i.  The
    sampled cells of each level from ``low`` up (``sample``; every cell
    when ``samples`` is None), the memoized pair lists and every law
    instance hold ids, and a cell is rendered from ``cell[i]`` only for a
    witness.  Five tables hold the id of what a category call returned, or
    the ``NCatError`` it raised: ``compose`` is keyed (p, a, c), and
    ``source``, ``target``, ``identity`` and ``normalize`` are keyed by id.
    So each is called once per distinct argument, and a stored error is
    re-raised, letting every instance that needs it record its own witness.
    """

    def __init__(self, cat, seed, samples, levels, low=0):
        if samples is not None and samples < 0:
            raise InvalidArguments(f"samples must be non-negative, got {samples}")
        self.cat = cat
        self.cap = samples
        if levels is None:
            levels = range(cat.max_level + 1)
        self.levels = [l for l in levels if l >= low]
        # the tables see ids and cell, never self: a run is freed without the cycle collector
        ids = self.ids = _Ids()
        cell = self.cell = ids.cell
        self.source = _memo(lambda i: cat.source(cell[i]), ids)
        self.target = _memo(lambda i: cat.target(cell[i]), ids)
        self.identity = _memo(lambda i: cat.identity(cell[i]), ids)
        self.normalize = _memo(lambda i: cat.normalize(cell[i]), ids)
        self._compose = _memo(lambda key: cat.compose(key[0], cell[key[1]], cell[key[2]]), ids)
        rng = random.Random(seed)
        self.sample = {}
        for l in self.levels:
            cells = list(cat.cells(l))
            if samples is not None and len(cells) > samples:
                keep = sorted(rng.sample(range(len(cells)), samples))
                cells = [cells[i] for i in keep]
            self.sample[l] = [ids[x] for x in cells]
        self._pairs = {}
        self.unwalked = {}  # (l, p) -> [(id, NCatError)] left out of pairs(l, p)

    def compose(self, p: int, a: int, c: int) -> int:
        return self._compose((p, a, c))

    def render(self, i: int) -> str:
        return self.cat.render(self.cell[i])

    def chain(self, i: int, step, k: int) -> int:
        """The normalized k-step chain of cell i under step (source or target)."""
        for _ in range(k):
            i = step(i)
        return self.normalize(i)

    def tower(self, i: int, step, k: int) -> int:
        """The k-fold identity on the normalized k-step chain of cell i."""
        i = self.chain(i, step, k)
        for _ in range(k):
            i = self.identity(i)
        return i

    def same(self, i: int, j: int) -> bool:
        return i == j or self.normalize(i) == self.normalize(j)

    def expect(self, law, ctx, lhs, rhs, shape: str = "{} != {}") -> None:
        """Witness that side ids lhs and rhs differ after normalize, the
        rendered sides filling ``shape``.  A side that is None already
        raised and was recorded; a normalize that raises is a witness too.
        Equal ids, or ids that normalize to one id, pass without a look at
        the cells."""
        if lhs is None or rhs is None or lhs == rhs:
            return
        if law.eval(ctx, lambda: self.normalize(lhs) == self.normalize(rhs)) is not False:
            return
        law.fail(f"{ctx()}: " + shape.format(self.render(lhs), self.render(rhs)))

    def check(self, law, ctx, sides) -> None:
        """One instance whose two side ids sides() computes under one guard."""
        law.checked += 1
        law.eval(ctx, lambda: self.expect(law, ctx, *sides()))

    def pairs(self, l: int, p: int) -> list:
        """The first cap composable pairs (inner, outer) among the level-l
        sample, keyed on normalized chains.  A cell whose chain walk raises
        is left out and listed in unwalked[l, p]."""
        if (l, p) not in self._pairs:
            walked, keys, self.unwalked[l, p] = [], {}, []
            for x in self.sample[l]:
                try:
                    keys[x] = [self.chain(x, step, l - p) for step in (self.source, self.target)]
                except NCatError as e:
                    self.unwalked[l, p].append((x, e))
                else:
                    walked.append(x)
            index = composable_pairs(lambda x, _, side: keys[x][side], p, walked, walked)
            self._pairs[l, p] = list(islice(index, self.cap))
        return self._pairs[l, p]


def check_globularity(cat, levels=None) -> AxiomReport:
    """The two globular identities, checked on every cell of level >= 2."""
    run = _Run(cat, 0, None, levels, low=2)
    s, t, render = run.source, run.target, run.render
    ss, ts = _Law("globular-ss"), _Law("globular-ts")
    for l in run.levels:
        for x in run.sample[l]:
            ctx = lambda: f"level {l}: x={render(x)}"
            ss.holds(ctx, lambda: run.same(s(s(x)), s(t(x))))
            ts.holds(ctx, lambda: run.same(t(s(x)), t(t(x))))
    return AxiomReport((ss.entry(), ts.entry()))


def check_axioms(cat, *, seed=0, samples=1000, levels=None) -> AxiomReport:
    """Run the six composition laws over cat.cells(l) for each level
    (by default every level up to cat.max_level) and report witnesses.

    A level with more than ``samples`` cells is subsampled with the given
    seed; everything else is deterministic in cell order, and the
    ``samples`` cap also bounds each law's instances per level and depth.

    The run gives every cell it meets a dense id and keeps one table per
    category call: each distinct (p, a, c) is composed once, and each
    distinct cell is handed to ``source``, ``target``, ``identity`` and
    ``normalize`` once.  Every later law instance that needs a result reads
    the stored one or re-raises the stored ``NCatError``, recording its own
    witness.  So ``cat.compose``, ``cat.source``, ``cat.target``,
    ``cat.identity`` and ``cat.normalize`` must be deterministic in the
    values of their arguments: equal arguments give an equal result, or
    raise an error with the same message.  ``check_globularity`` and
    ``check_functor_laws`` read the same kind of run, so the contract holds
    there too, and ``check_functor_laws`` computes each distinct cell's
    image once, so the functor must be deterministic per cell.  Two sides
    that are equal cells are equal without a call to ``normalize``, and a
    ``normalize`` that raises while two sides are compared is a witness of
    that instance.  A cell whose chain walk (``source``, ``target``,
    ``normalize``) raises while the pair lists are built is one comp-st
    witness and takes part in no pair at that level and depth.
    """
    run = _Run(cat, seed, samples, levels)
    cat_n = cat.max_level
    entries = [
        _comp_st(run),
        _id_st(run, cat_n),
        _assoc(run),
        _unit(run),
        _binary_interchange(run),
        _nullary_interchange(run, cat_n),
    ]
    return AxiomReport(tuple(entries))


def _comp_st(run) -> AxiomEntry:
    law = _Law("comp-st")
    render = run.render
    for l in run.levels:
        for p in range(l):
            pairs = run.pairs(l, p)
            for x, e in run.unwalked[l, p]:
                law.fail(f"l={l} p={p} x={render(x)}: raised {e}")
            for a, c in pairs:
                ctx = lambda: f"l={l} p={p} A={render(a)} C={render(c)}"
                ac = law.eval(ctx, lambda: run.compose(p, a, c))
                if ac is None:
                    continue
                law.checked += 1
                if p == l - 1:
                    want_s, want_t = (lambda: run.source(a)), (lambda: run.target(c))
                else:
                    want_s = lambda: run.compose(p, run.source(a), run.source(c))
                    want_t = lambda: run.compose(p, run.target(a), run.target(c))
                law.eval(
                    ctx, lambda: run.expect(law, ctx, run.source(ac), want_s(), "s(CoA)={} != {}")
                )
                law.eval(
                    ctx, lambda: run.expect(law, ctx, run.target(ac), want_t(), "t(CoA)={} != {}")
                )
    return law.entry()


def _id_st(run, cat_n) -> AxiomEntry:
    law = _Law("id-st")
    for l in run.levels:
        if l >= cat_n:
            continue
        for a in run.sample[l]:
            law.holds(
                lambda: f"level {l}: A={run.render(a)}",
                lambda: run.same(run.source(one := run.identity(a)), a)
                and run.same(run.target(one), a),
            )
    return law.entry()


def _assoc(run) -> AxiomEntry:
    law = _Law("assoc")
    render = run.render
    for l in run.levels:
        for p in range(l):
            pairs = run.pairs(l, p)
            inners = _partners(pairs, 1)
            triples = ((a, c, e) for c, e in pairs for a in inners.get(c, ()))
            for a, c, e in islice(triples, run.cap):
                law.checked += 1
                ctx = lambda: f"l={l} p={p} A={render(a)} C={render(c)} E={render(e)}"
                run.expect(
                    law,
                    ctx,
                    law.eval(ctx, lambda: run.compose(p, run.compose(p, a, c), e)),
                    law.eval(ctx, lambda: run.compose(p, a, run.compose(p, c, e))),
                )
    return law.entry()


def _unit(run) -> AxiomEntry:
    law = _Law("unit")
    for l in run.levels:
        if l == 0:
            continue
        for a in run.sample[l]:
            for p in range(l):
                k = l - p
                law.checked += 1
                ctx = lambda: f"l={l} p={p} A={run.render(a)}"
                lhs = law.eval(ctx, lambda: run.compose(p, a, run.tower(a, run.target, k)))
                rhs = law.eval(ctx, lambda: run.compose(p, run.tower(a, run.source, k), a))
                run.expect(law, ctx, lhs, a, "1-tower o_p A = {} != A")
                run.expect(law, ctx, rhs, a, "A o_p 1-tower = {} != A")
    return law.entry()


def _binary_interchange(run) -> AxiomEntry:
    law = _Law("binary-interchange")
    render = run.render
    for l in run.levels:
        for p in range(1, l):
            pairs_p = run.pairs(l, p)
            at_p = set(pairs_p)
            for q in range(p):
                succ = _partners(run.pairs(l, q), 0)
                quads = (
                    (a, c, e, h)
                    for a, c in pairs_p
                    for e in succ.get(a, ())
                    for h in succ.get(c, ())
                    if (e, h) in at_p
                )
                for a, c, e, h in islice(quads, run.cap):
                    law.checked += 1
                    ctx = lambda: (
                        f"l={l} p={p} q={q} A={render(a)} C={render(c)} "
                        f"E={render(e)} H={render(h)}"
                    )
                    run.expect(
                        law,
                        ctx,
                        law.eval(
                            ctx, lambda: run.compose(q, run.compose(p, a, c), run.compose(p, e, h))
                        ),
                        law.eval(
                            ctx, lambda: run.compose(p, run.compose(q, a, e), run.compose(q, c, h))
                        ),
                    )
    return law.entry()


def _nullary_interchange(run, cat_n) -> AxiomEntry:
    law = _Law("nullary-interchange")
    render = run.render
    for l in run.levels:
        if l >= cat_n:
            continue
        for p in range(l):
            for a, c in run.pairs(l, p):
                law.checked += 1
                ctx = lambda: f"l={l} p={p} A={render(a)} C={render(c)}"
                run.expect(
                    law,
                    ctx,
                    law.eval(ctx, lambda: run.compose(p, run.identity(a), run.identity(c))),
                    law.eval(ctx, lambda: run.identity(run.compose(p, a, c))),
                )
    return law.entry()
