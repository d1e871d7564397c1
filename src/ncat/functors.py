"""The index functors out of a Morse category X.

G sends a cell to the index data of its critical points: the head label
to its total index, every spine label to the same, giving a W cell.  F
records the corresponding spaces by dimension, giving a V cell.  Indices
of labels: a registered point contributes its declared index, a diagonal
point contributes 0, a gluing contributes the sum of its pieces — so
normalization never changes an index, which is what makes G well defined
on the almost strict structure.

A check_functor_laws run walks X on X's own cell ids: each level's id
list and X's face and identity tables.  It reads each label's index from
one axioms._Memo keyed on label ids, and each distinct cell's image, as an
id of the receiving run, from a second _Memo over an image table: G and F
read only the cell's label indices, so the table builds and checks one
image per index tuple (ind(head), ind(s0), ind(t0), ...), a point of the
image, whose cells are its fibre.  The functor and torus commands map
cells through one too.  functor_g and functor_f compute indices directly.
"""

from __future__ import annotations

from itertools import chain

from .axioms import AxiomReport, _Law, _Memo, _Run
from .errors import ConstraintViolation, FlowDataInconsistent, InvalidArguments, NCatError, UnknownAtom
from .flowdata import FlowData
from .vcat import VCategory, VCell, v_render
from .wcat import WCategory, w_make, w_render
from .xcat import Atom, Pt, Seq, XCategory, XCell, _malformed, _not_a_label, x_render

__all__ = ["ind_env", "ind", "functor_g", "functor_f", "check_functor_laws"]


def ind_env(fd: FlowData) -> dict:
    """id -> declared index, for every registered point."""
    if not isinstance(fd, FlowData):
        raise InvalidArguments(f"expected a FlowData, got {fd!r}")
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
    if isinstance(label, Seq):
        return sum(ind(p, env) for p in label.parts)
    raise _not_a_label(label)


def functor_g(cell: XCell, env: dict):
    """Index data of a cell; bare int at level 0, else a W cell.

    Raises FlowDataInconsistent when the indices in the document cannot
    satisfy the W constraints (e.g. a declared index too large for the
    space the point sits on).
    """
    return _image(_g, cell, env)


def functor_f(cell: XCell, env: dict) -> VCell:
    """Dimension data of a cell: the same integers read as space dims,
    assembled independently of functor_g and wrapped as a V cell."""
    return _image(_f, cell, env)


def _image(through, cell, env):
    """through(cell, index), each label's index computed from env."""
    if not isinstance(cell, XCell):
        raise InvalidArguments(f"expected an XCell, got {cell!r}")
    if not isinstance(env, dict):  # else its TypeError would read as a malformed cell's
        raise InvalidArguments(f"expected an index environment (a dict), got {env!r}")
    try:
        return through(cell, lambda label: ind(label, env))
    except TypeError:
        raise _malformed(cell) from None


def _g(cell, index, render=x_render):
    """functor_g, each label's index given by index(label); render(cell) names it in an error."""
    head, spine = cell
    if not spine:
        return index(head)
    try:
        return w_make(index(head), [(index(s), index(t)) for s, t in spine])
    except ConstraintViolation as e:
        raise FlowDataInconsistent(f"G({render(cell)}) is not a valid cell: {e}") from e


def _f(cell, index, render=x_render) -> VCell:
    """functor_f, each label's index given by index(label); render(cell) names it in an error."""
    head, spine = cell
    if not spine:
        return tuple.__new__(VCell, (index(head),))
    dims = [(index(s), index(t)) for s, t in spine]
    try:
        return tuple.__new__(VCell, (w_make(index(head), dims),))
    except ConstraintViolation as e:
        raise FlowDataInconsistent(f"F({render(cell)}) is not a valid cell: {e}") from e


def _image_table(through, wrap, index):
    """image(labels, render): wrap(through's image of the cell whose labels (head, s0, t0, ...) are
    labels), built once per tuple of index(label)s.  An image that raises is not kept: each cell on
    its tuple raises anew, and its FlowDataInconsistent names it by render(cell)."""
    table = {}

    def image(labels, render):
        out = table.get(key := tuple(map(index, labels)))
        if out is None:
            k = iter(key)  # the cell (head, spine) on its labels' indices
            out = table[key] = wrap(through((next(k), tuple(zip(k, k))), _same, render))
        return out
    return image


def _rendered_images(fd: FlowData, target: str):
    """image(cell, name): the rendered G or F image of the XCell named name, for the CLI."""
    env, index = ind_env(fd), lambda label: ind(label, env)
    image = _image_table(*((_g, w_render) if target == "g" else (_f, v_render)), _Memo(index).peek)
    return lambda cell, name: image(chain((cell[0],), *cell[1]), lambda _: name)


def check_functor_laws(fd: FlowData, target: str = "g") -> AxiomReport:
    """Functoriality of G (or F) over the document's cells and all their
    composites, plus the head-index bound that makes the image land where
    it should: on a non-degenerate top pair, 0 <= ind(head) < ind(s) - ind(t);
    on a degenerate one, ind(head) = 0.  The laws walk the tables of one
    axiom-engine run over W (for G) or V (for F), the receiving category,
    as every axiom does: each distinct cell's image, and its boundaries,
    identity and composites there, are computed once (so the functor must
    be deterministic per cell), and only a failing instance reaches settle.
    X is walked on its own ids and tables, images read from keys; an XCell
    is decoded only for text or for another functor.
    """
    if target == "g":
        name, functor, tcat = "G", functor_g, WCategory()
    elif target == "f":
        name, functor, tcat = "F", functor_f, VCategory()
    else:
        raise InvalidArguments(f"unknown functor target {target!r}")
    env = ind_env(fd)
    through = _THROUGH.get(functor)  # None for a functor put in place of G or F
    cat = XCategory(fd, include_composites=True)  # a plain XCategory: its own tables are read
    (s_x, t_x, one_x, _), composites, decode = cat._on_keys, cat._composites, cat._out
    run, keys, labels = _Run(tcat, 0, None, ()), cat._ids.key, cat._labels.key
    ids, render = run.ids, lambda i: x_render(decode[i])
    index = _Memo(lambda u: ind(labels[u], env)).peek  # ind of label id u, each label's once per run
    table = _image_table(through, ids.__getitem__, index)  # index tuple -> the image's id in run

    def image_id(i):  # the id in run of cell i's image, or the NCatError raised
        try:
            if through is None:
                return ids[functor(decode[i], env)]
            return table(keys[i], lambda _: render(i))
        except NCatError as e:
            return e

    image = _Memo(image_id).peek
    src, tgt, one, comp = (_Law(f"functor-{target}-{law}")
                           for law in ("source", "target", "identity", "compose"))
    bound = _Law("index-bound")
    maps = ((one, one_x.peek, run.identity.peek, "1"), (src, s_x.peek, run.source.peek, "s"),
            (tgt, t_x.peek, run.target.peek, "t"))

    for l in range(fd.max_level + 1):
        cells = cat._at(l)
        # the identity law below the top level, the boundary laws above level 0
        for law, on_x, on_image, op in maps[l == fd.max_level : 3 if l else 1]:
            law.checked += len(cells)
            for cell in cells:
                lhs = image(on_x(cell))
                rhs = on_image(image(cell)) if lhs.__class__ is int else lhs
                if lhs != rhs or lhs.__class__ is not int:
                    ctx = lambda: f"{name}({op}({render(cell)}))"
                    run.settle(law, ctx, (lhs, rhs, "{} != {}"))
        for cell in cells if l else ():  # the index bound above level 0
            bound.checked += 1
            h, s, t = keys[cell][:3]
            head, hi, lo = index(h), index(s), index(t)
            if s == t:
                ok, want = head == 0, "ind(head) = 0 on a degenerate top pair"
            else:
                ok, want = 0 <= head < hi - lo, f"0 <= ind(head) < {hi}-{lo}"
            if not ok:
                bound.fail(f"{render(cell)}: ind(head)={head}, want {want}")
        for p in range(l):
            pairs = cat._pair_ids(l, p)  # the closure glued each of them
            comp.checked += len(pairs)
            for a, c in pairs:
                lhs = image(composites[p, a, c])
                rhs = image(a) if lhs.__class__ is int else lhs  # then image(c), if an id
                if rhs.__class__ is int:
                    rhs = run.composite.peek((p, rhs, image(c)))
                if lhs != rhs or lhs.__class__ is not int:
                    ctx = lambda: f"{name}(C o_{p} A) for A={render(a)}, C={render(c)}"
                    run.settle(comp, ctx, (lhs, rhs, "{} != {}"))

    return AxiomReport(tuple(law.entry() for law in (src, tgt, one, comp, bound)))


# G and F as a check run calls them, through its image table; a functor put
# in their place is called as functor(cell, env)
_THROUGH = {functor_g: _g, functor_f: _f}
_same = lambda n: n  # index of a label of an image table's cell, which is its index already
