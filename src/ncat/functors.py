"""The index functors out of a Morse category X.

G sends a cell to the index data of its critical points: the head label
to its total index, every spine label to the same, giving a W cell.  F
records the corresponding spaces by dimension, giving a V cell.  Indices
of labels: a registered point contributes its declared index, a diagonal
point contributes 0, a gluing contributes the sum of its pieces — so
normalization never changes an index, which is what makes G well defined
on the almost strict structure.
"""

from __future__ import annotations

from .axioms import AxiomEntry, AxiomFailure, AxiomReport
from .errors import ConstraintViolation, FlowDataInconsistent, UnknownAtom
from .flowdata import FlowData
from .vcat import VCell, v_compose, v_from_w, v_identity, v_render, v_source, v_target
from .wcat import WCell, w_compose, w_identity, w_make, w_render, w_source, w_target
from .xcat import (
    Atom,
    Pt,
    XCategory,
    XCell,
    x_render,
)

__all__ = ["ind_env", "ind", "functor_g", "functor_f", "check_functor_laws"]


def ind_env(fd: FlowData) -> dict:
    """id -> declared index, for every registered point."""
    return {ident: pt.index for ident, pt in fd.points.items()}


def ind(label, env: dict) -> int:
    """Total index of the configuration a label stands for."""
    if isinstance(label, Atom):
        try:
            return env[label.id]
        except KeyError:
            raise UnknownAtom(label.id) from None
    if isinstance(label, Pt):
        return 0
    return sum(ind(p, env) for p in label.parts)


def functor_g(cell: XCell, env: dict):
    """Index data of a cell; bare int at level 0, else a W cell.

    Raises FlowDataInconsistent when the indices in the document cannot
    satisfy the W constraints (e.g. a declared index too large for the
    space the point sits on).
    """
    if cell.level == 0:
        return ind(cell.head, env)
    try:
        return w_make(
            ind(cell.head, env),
            [(ind(s, env), ind(t, env)) for s, t in cell.spine],
        )
    except ConstraintViolation as e:
        raise FlowDataInconsistent(f"G({x_render(cell)}) is not a valid cell: {e}") from e


def functor_f(cell: XCell, env: dict) -> VCell:
    """Dimension data of a cell: the same integers read as space dims,
    assembled independently of functor_g and wrapped as a V cell."""
    if cell.level == 0:
        return VCell(ind(cell.head, env))
    head = ind(cell.head, env)
    dims = [(ind(s, env), ind(t, env)) for s, t in cell.spine]
    try:
        return VCell(w_make(head, dims))
    except ConstraintViolation as e:
        raise FlowDataInconsistent(f"F({x_render(cell)}) is not a valid cell: {e}") from e


class _Target:
    """The receiving category's operations, picked by name."""

    def __init__(self, which: str):
        if which == "g":
            self.apply_name = "G"
            self.source, self.target = w_source, w_target
            self.identity, self.compose = w_identity, w_compose
            self.render = w_render
        elif which == "f":
            self.apply_name = "F"
            self.source, self.target = v_source, v_target
            self.identity, self.compose = v_identity, v_compose
            self.render = v_render
        else:
            raise ValueError(f"unknown functor target {which!r}")
        self.which = which

    def apply(self, cell, env):
        return functor_g(cell, env) if self.which == "g" else functor_f(cell, env)


def check_functor_laws(
    fd: FlowData, target: str = "g", *, samples: int = 1000, seed: int = 0
) -> AxiomReport:
    """Functoriality of G (or F) over the document's cells and all their
    composites, plus the head-index bound that makes the image land where
    it should: on a non-degenerate top pair, 0 <= ind(head) < ind(s) - ind(t);
    on a degenerate one, ind(head) = 0.
    """
    t = _Target(target)
    env = ind_env(fd)
    cat = XCategory(fd, include_composites=True)
    name = t.apply_name

    cells = {l: cat.cells(l) for l in range(fd.max_level + 1)}
    entries = []

    def run(axiom, instances):
        fails = []
        checked = 0
        for context, fn in instances:
            checked += 1
            try:
                lhs, rhs = fn()
            except FlowDataInconsistent as e:
                fails.append(AxiomFailure(axiom, f"{context}: {e}"))
                continue
            if lhs != rhs:
                fails.append(
                    AxiomFailure(
                        axiom, f"{context}: {t.render(lhs)} != {t.render(rhs)}"
                    )
                )
        entries.append(AxiomEntry(axiom, checked, tuple(fails)))

    def srcs():
        for l in range(1, fd.max_level + 1):
            for cell in cells[l]:
                yield (
                    f"{name}(s({x_render(cell)}))",
                    lambda cell=cell: (
                        t.apply(cat.source(cell), env), t.source(t.apply(cell, env))
                    ),
                )

    def tgts():
        for l in range(1, fd.max_level + 1):
            for cell in cells[l]:
                yield (
                    f"{name}(t({x_render(cell)}))",
                    lambda cell=cell: (
                        t.apply(cat.target(cell), env), t.target(t.apply(cell, env))
                    ),
                )

    def ids():
        for l in range(fd.max_level):
            for cell in cells[l]:
                yield (
                    f"{name}(1({x_render(cell)}))",
                    lambda cell=cell: (
                        t.apply(cat.identity(cell), env), t.identity(t.apply(cell, env))
                    ),
                )

    def comps():
        for l in range(1, fd.max_level + 1):
            for p in range(l):
                for a, c in cat.pairs(l, p):
                    yield (
                        f"{name}(C o_{p} A) for A={x_render(a)}, C={x_render(c)}",
                        lambda p=p, a=a, c=c: (
                            t.apply(cat.compose(p, a, c), env),
                            t.compose(p, t.apply(a, env), t.apply(c, env)),
                        ),
                    )

    run(f"functor-{target}-source", srcs())
    run(f"functor-{target}-target", tgts())
    run(f"functor-{target}-identity", ids())
    run(f"functor-{target}-compose", comps())

    fails = []
    checked = 0
    for l in range(1, fd.max_level + 1):
        for cell in cells[l]:
            checked += 1
            s, tt = cell.spine[0]
            head, hi, lo = ind(cell.head, env), ind(s, env), ind(tt, env)
            if s == tt:
                ok = head == 0
                want = "ind(head) = 0 on a degenerate top pair"
            else:
                ok = 0 <= head < hi - lo
                want = f"0 <= ind(head) < {hi}-{lo}"
            if not ok:
                fails.append(
                    AxiomFailure(
                        "index-bound",
                        f"{x_render(cell)}: ind(head)={head}, want {want}",
                    )
                )
    entries.append(AxiomEntry("index-bound", checked, tuple(fails)))

    return AxiomReport(tuple(entries))
