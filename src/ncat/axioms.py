"""Mechanical checking of the category laws over a finite cell sample.

The engine works against a small structural interface (cells / level_of /
source / target / identity / compose / normalize / render) so the same
code exercises every category in the package.  It is a reporter: law
failures are collected as witnesses, never raised, so one broken axiom
cannot hide another.  An ``NCatError`` raised while evaluating a side of
an equation is a witness too.  Every law, the functor laws of
``check_functor_laws`` included, runs through one tally (``_Law``), which
renders cells only when it records a witness; a passing run renders
nothing.

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


def _chain(cat, cell, step, k):
    for _ in range(k):
        cell = step(cell)
    return cat.normalize(cell)


def composable(cat, p: int, a, c) -> bool:
    """True iff ``c o_p a`` is defined: the depth-p target chain of the
    inner cell meets the depth-p source chain of the outer one."""
    la, lc = cat.level_of(a), cat.level_of(c)
    if la != lc:
        raise InvalidArguments(f"levels differ: {la} vs {lc}")
    if not 0 <= p < la:
        raise InvalidArguments(f"depth p={p} out of range for level {la}")
    k = la - p
    return _chain(cat, a, cat.target, k) == _chain(cat, c, cat.source, k)


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

    def __init__(self, axiom: str, cat):
        self.axiom = axiom
        self.cat = cat
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

    def same(self, x, y) -> bool:
        return self.cat.normalize(x) == self.cat.normalize(y)

    def expect(self, ctx, lhs, rhs, shape: str = "{} != {}") -> None:
        """Witness lhs != rhs, the rendered sides filling ``shape``.  A side
        that is None already raised and was recorded by eval."""
        if lhs is None or rhs is None or self.same(lhs, rhs):
            return
        render = self.cat.render
        self.fail(f"{ctx()}: " + shape.format(render(lhs), render(rhs)))

    def check(self, ctx, sides) -> None:
        """One instance whose two sides sides() computes under one guard."""
        self.checked += 1
        self.eval(ctx, lambda: self.expect(ctx, *sides()))

    def holds(self, ctx, pred) -> None:
        """One instance that fails, with witness ctx(), unless pred() is true."""
        self.checked += 1
        if self.eval(ctx, pred) is False:
            self.fail(ctx())

    def entry(self) -> AxiomEntry:
        return AxiomEntry(self.axiom, self.checked, tuple(self.failures))


_MISSING = object()


class _Run:
    """One checking run: sampled cells per level, memoized pair lists and
    one composition table."""

    def __init__(self, cat, seed, samples, levels):
        if samples < 0:
            raise InvalidArguments(f"samples must be non-negative, got {samples}")
        self.cat = cat
        self.cap = samples
        if levels is None:
            levels = range(cat.max_level + 1)
        self.levels = list(levels)
        rng = random.Random(seed)
        self.cells = {}
        for l in self.levels:
            cells = list(cat.cells(l))
            if len(cells) > samples:
                keep = sorted(rng.sample(range(len(cells)), samples))
                cells = [cells[i] for i in keep]
            self.cells[l] = cells
        self._pairs = {}
        self.unwalked = {}  # (l, p) -> [(cell, NCatError)] left out of pairs(l, p)
        self._table = {}  # (p, a, c) -> the composite, or the NCatError it raised
        self._interned = {}  # cell -> the one equal cell the table holds

    def pairs(self, l: int, p: int) -> list:
        """The first cap composable pairs (inner, outer) among the level-l
        sample, keyed on normalized chains.  A cell whose chain walk raises
        is left out and listed in unwalked[l, p]."""
        if (l, p) not in self._pairs:
            cat = self.cat
            cells, keys, self.unwalked[l, p] = [], [], []
            for x in self.cells[l]:
                try:
                    keys.append([_chain(cat, x, step, l - p) for step in (cat.source, cat.target)])
                except NCatError as e:
                    self.unwalked[l, p].append((x, e))
                else:
                    cells.append(x)
            ids = range(len(cells))
            index = composable_pairs(lambda i, _, side: keys[i][side], p, ids, ids)
            self._pairs[l, p] = [(cells[i], cells[j]) for i, j in islice(index, self.cap)]
        return self._pairs[l, p]

    def compose(self, p, a, c):
        """cat.compose(p, a, c), computed once per run: a repeat returns the
        stored composite or re-raises the stored NCatError."""
        out = self._table.get((p, a, c), _MISSING)
        if out is _MISSING:
            intern = self._interned.setdefault
            a, c = intern(a, a), intern(c, c)
            try:
                out = self.cat.compose(p, a, c)
            except NCatError as e:
                out = e
            else:
                out = intern(out, out)
            self._table[p, a, c] = out
        if isinstance(out, NCatError):
            raise out.with_traceback(None)
        return out


def check_globularity(cat, levels=None) -> AxiomReport:
    """The two globular identities, checked on every cell of level >= 2."""
    if levels is None:
        levels = range(cat.max_level + 1)
    ss, ts = _Law("globular-ss", cat), _Law("globular-ts", cat)
    for l in levels:
        if l < 2:
            continue
        for x in cat.cells(l):
            ctx = lambda: f"level {l}: x={cat.render(x)}"
            ss.holds(ctx, lambda: ss.same(cat.source(cat.source(x)), cat.source(cat.target(x))))
            ts.holds(ctx, lambda: ts.same(cat.target(cat.source(x)), cat.target(cat.target(x))))
    return AxiomReport((ss.entry(), ts.entry()))


def check_axioms(cat, *, seed=0, samples=1000, levels=None) -> AxiomReport:
    """Run the six composition laws over cat.cells(l) for each level
    (by default every level up to cat.max_level) and report witnesses.

    A level with more than ``samples`` cells is subsampled with the given
    seed; everything else is deterministic in cell order, and the
    ``samples`` cap also bounds each law's instances per level and depth.

    The run keeps one composition table: each distinct (p, a, c) is
    composed once, and every later law instance that needs it reads the
    stored composite or re-raises the stored ``NCatError``, recording its
    own witness.  So ``cat.compose`` must be deterministic in the values of
    its arguments: equal arguments give an equal composite, or raise an
    error with the same message.  A cell whose chain walk (``source``,
    ``target``, ``normalize``) raises while the pair lists are built is one
    comp-st witness and takes part in no pair at that level and depth.
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
    cat = run.cat
    law = _Law("comp-st", cat)
    for l in run.levels:
        for p in range(l):
            pairs = run.pairs(l, p)
            for x, e in run.unwalked[l, p]:
                law.fail(f"l={l} p={p} x={cat.render(x)}: raised {e}")
            for a, c in pairs:
                ctx = lambda: f"l={l} p={p} A={cat.render(a)} C={cat.render(c)}"
                ac = law.eval(ctx, lambda: run.compose(p, a, c))
                if ac is None:
                    continue
                law.checked += 1
                if p == l - 1:
                    want_s, want_t = (lambda: cat.source(a)), (lambda: cat.target(c))
                else:
                    want_s = lambda: run.compose(p, cat.source(a), cat.source(c))
                    want_t = lambda: run.compose(p, cat.target(a), cat.target(c))
                law.eval(ctx, lambda: law.expect(ctx, cat.source(ac), want_s(), "s(CoA)={} != {}"))
                law.eval(ctx, lambda: law.expect(ctx, cat.target(ac), want_t(), "t(CoA)={} != {}"))
    return law.entry()


def _id_st(run, cat_n) -> AxiomEntry:
    cat = run.cat
    law = _Law("id-st", cat)
    for l in run.levels:
        if l >= cat_n:
            continue
        for a in run.cells[l]:
            law.holds(
                lambda: f"level {l}: A={cat.render(a)}",
                lambda: law.same(cat.source(one := cat.identity(a)), a)
                and law.same(cat.target(one), a),
            )
    return law.entry()


def _assoc(run) -> AxiomEntry:
    cat = run.cat
    law = _Law("assoc", cat)
    for l in run.levels:
        for p in range(l):
            pairs = run.pairs(l, p)
            inners = _partners(pairs, 1)
            triples = ((a, c, e) for c, e in pairs for a in inners.get(c, ()))
            for a, c, e in islice(triples, run.cap):
                law.checked += 1
                ctx = lambda: (
                    f"l={l} p={p} A={cat.render(a)} C={cat.render(c)} E={cat.render(e)}"
                )
                law.expect(
                    ctx,
                    law.eval(ctx, lambda: run.compose(p, run.compose(p, a, c), e)),
                    law.eval(ctx, lambda: run.compose(p, a, run.compose(p, c, e))),
                )
    return law.entry()


def _tower(cat, cell, step, k):
    """The k-fold identity on the normalized k-step chain of the cell."""
    cell = _chain(cat, cell, step, k)
    for _ in range(k):
        cell = cat.identity(cell)
    return cell


def _unit(run) -> AxiomEntry:
    cat = run.cat
    law = _Law("unit", cat)
    for l in run.levels:
        if l == 0:
            continue
        for a in run.cells[l]:
            for p in range(l):
                k = l - p
                law.checked += 1
                ctx = lambda: f"l={l} p={p} A={cat.render(a)}"
                lhs = law.eval(ctx, lambda: run.compose(p, a, _tower(cat, a, cat.target, k)))
                rhs = law.eval(ctx, lambda: run.compose(p, _tower(cat, a, cat.source, k), a))
                law.expect(ctx, lhs, a, "1-tower o_p A = {} != A")
                law.expect(ctx, rhs, a, "A o_p 1-tower = {} != A")
    return law.entry()


def _binary_interchange(run) -> AxiomEntry:
    cat = run.cat
    law = _Law("binary-interchange", cat)
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
                        f"l={l} p={p} q={q} A={cat.render(a)} C={cat.render(c)} "
                        f"E={cat.render(e)} H={cat.render(h)}"
                    )
                    law.expect(
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
    cat = run.cat
    law = _Law("nullary-interchange", cat)
    for l in run.levels:
        if l >= cat_n:
            continue
        for p in range(l):
            for a, c in run.pairs(l, p):
                law.checked += 1
                ctx = lambda: f"l={l} p={p} A={cat.render(a)} C={cat.render(c)}"
                law.expect(
                    ctx,
                    law.eval(ctx, lambda: run.compose(p, cat.identity(a), cat.identity(c))),
                    law.eval(ctx, lambda: cat.identity(run.compose(p, a, c))),
                )
    return law.entry()
