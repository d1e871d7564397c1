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

from .axioms import AxiomReport, _Law, _Memo, _Run
from .errors import ConstraintViolation, FlowDataInconsistent, InvalidArguments, UnknownAtom
from .flowdata import FlowData
from .vcat import VCategory, VCell
from .wcat import WCategory, w_make
from .xcat import Atom, Pt, XCategory, XCell, x_render

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


def check_functor_laws(fd: FlowData, target: str = "g") -> AxiomReport:
    """Functoriality of G (or F) over the document's cells and all their
    composites, plus the head-index bound that makes the image land where
    it should: on a non-degenerate top pair, 0 <= ind(head) < ind(s) - ind(t);
    on a degenerate one, ind(head) = 0.  The laws read one axiom-engine
    run over W (for G) or V (for F), the receiving category:
    each distinct cell's image is computed once, and its boundaries,
    identity and composites in the receiving category are read from the
    run's tables, so the functor must be deterministic per cell.  Each
    X composite comes from the closure's composite table, not a new glue.
    """
    if target == "g":
        name, functor, tcat = "G", functor_g, WCategory()
    elif target == "f":
        name, functor, tcat = "F", functor_f, VCategory()
    else:
        raise InvalidArguments(f"unknown functor target {target!r}")
    env = ind_env(fd)
    cat = XCategory(fd, include_composites=True)
    run = _Run(tcat, 0, None, ())
    image = _Memo(lambda cell: functor(cell, env), run.ids)
    src, tgt, one, comp = (
        _Law(f"functor-{target}-{law}") for law in ("source", "target", "identity", "compose")
    )
    bound = _Law("index-bound")

    for l in range(fd.max_level + 1):
        for cell in cat.cells(l):
            if l < fd.max_level:
                run.check(
                    one,
                    lambda: f"{name}(1({x_render(cell)}))",
                    lambda: (image(cat.identity(cell)), run.identity(image(cell))),
                )
            if l == 0:
                continue
            run.check(
                src,
                lambda: f"{name}(s({x_render(cell)}))",
                lambda: (image(cat.source(cell)), run.source(image(cell))),
            )
            run.check(
                tgt,
                lambda: f"{name}(t({x_render(cell)}))",
                lambda: (image(cat.target(cell)), run.target(image(cell))),
            )
            bound.checked += 1
            s, t = cell.spine[0]
            head, hi, lo = ind(cell.head, env), ind(s, env), ind(t, env)
            if s == t:
                ok, want = head == 0, "ind(head) = 0 on a degenerate top pair"
            else:
                ok, want = 0 <= head < hi - lo, f"0 <= ind(head) < {hi}-{lo}"
            if not ok:
                bound.fail(f"{x_render(cell)}: ind(head)={head}, want {want}")
        for p in range(l):
            for a, c in cat.pairs(l, p):
                run.check(
                    comp,
                    lambda: f"{name}(C o_{p} A) for A={x_render(a)}, C={x_render(c)}",
                    lambda: (image(cat.compose(p, a, c)), run.compose(p, image(a), image(c))),
                )

    return AxiomReport(tuple(law.entry() for law in (src, tgt, one, comp, bound)))
