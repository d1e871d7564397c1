"""X's law and functor checks on X's own cell ids, against the same checks
on XCells through X's public calls.

A law run on an XCategory that overrides none of the protocol reads the
instance's cell ids and its calls on cell keys (XCategory._on_ids); on any
other category it interns the cells itself and calls their methods.  The
tests here hold the two paths to equal reports, witnesses included, and
check that an override is called.  They also hold the id path to its
contract: closed levels are id lists in cells() order, a passing check
decodes no cell, and the face tables live on the instance without keeping
it from being freed."""

import gc
import json
import weakref
from collections import Counter

import pytest

from ncat import axioms, functors, xcat
from ncat.axioms import AxiomReport, _Law, _Memo, _Run, check_axioms, check_globularity
from ncat.errors import InvalidArguments, NCatError, NoSource
from ncat.families import tilted_torus
from ncat.flowdata import parse_flow_data
from ncat.functors import check_functor_laws, functor_f, functor_g, ind, ind_env
from ncat.torus import torus_flow_data
from ncat.vcat import VCategory
from ncat.wcat import WCategory
from ncat.xcat import XCategory, x_render

from oracles import chain_document
from test_axioms import seeded_chain
from test_functors import overweight_document, raising_g, shifted_g, short_chain

PROTOCOL = ("cells", "level_of", "source", "target", "identity", "compose", "normalize", "render")


class PassThrough:
    """An XCategory's protocol calls behind an object that is no XCategory,
    so a run on it takes the generic path: it interns XCells and calls the
    instance's methods."""

    def __init__(self, cat):
        self.max_level = cat.max_level
        for name in PROTOCOL:
            setattr(self, name, getattr(cat, name))


def generic_functor_laws(fd, target, functor=None):
    """check_functor_laws on XCells: X's cells, pairs, faces, identities and
    composites from its public calls, and each image from functor(cell,
    env), over a run of the receiving category, as the check ran before it
    walked X's ids."""
    name, tcat = ("G", WCategory()) if target == "g" else ("F", VCategory())
    functor = functor or (functor_g if target == "g" else functor_f)
    env, cat, run = ind_env(fd), XCategory(fd, include_composites=True), _Run(tcat, 0, None, ())

    def image_id(cell):
        try:
            return run.ids[functor(cell, env)]
        except NCatError as e:
            return e

    image = _Memo(image_id).peek
    laws = [_Law(f"functor-{target}-{law}") for law in ("source", "target", "identity", "compose")]
    src, tgt, one, comp = laws
    bound = _Law("index-bound")
    maps = (
        (one, cat.identity, run.identity.peek, "1"),
        (src, cat.source, run.source.peek, "s"),
        (tgt, cat.target, run.target.peek, "t"),
    )
    for l in range(fd.max_level + 1):
        for cell in cat.cells(l):
            for law, on_x, on_image, op in maps[l == fd.max_level : 3 if l else 1]:
                law.checked += 1
                lhs = image(on_x(cell))
                rhs = on_image(image(cell)) if lhs.__class__ is int else lhs
                if lhs != rhs or lhs.__class__ is not int:
                    run.settle(law, lambda: f"{name}({op}({x_render(cell)}))", (lhs, rhs, "{} != {}"))
            if l:
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
                comp.checked += 1
                lhs = image(cat.compose(p, a, c))
                rhs = image(a) if lhs.__class__ is int else lhs
                if rhs.__class__ is int:
                    rhs = run.composite.peek((p, rhs, image(c)))
                if lhs != rhs or lhs.__class__ is not int:
                    ctx = lambda: f"{name}(C o_{p} A) for A={x_render(a)}, C={x_render(c)}"
                    run.settle(comp, ctx, (lhs, rhs, "{} != {}"))
    return AxiomReport(tuple(law.entry() for law in (*laws, bound)))


def doc(d):
    return parse_flow_data(json.dumps(d))


DOCS = {
    "torus": torus_flow_data,
    "chain-3-2": lambda: doc(chain_document(3, 2)),
    **{f"chain-4-2-seed-{seed}": (lambda seed=seed: seeded_chain(4, 2, seed)) for seed in range(8)},
    "tilted-torus-3": lambda: doc(tilted_torus(3)),
    "overweight": lambda: doc(overweight_document()),
    "short-chain": short_chain,
}


def poisoned(cat):
    """cat with every composite its closures glued made wrong: a's id."""
    for l in range(cat.max_level + 1):
        cat.cells(l)
    for key in cat._composites:
        cat._composites[key] = key[1]
    return cat


def x_laws(cat, samples):
    return check_globularity(cat).merged(check_axioms(cat, samples=samples))


@pytest.mark.parametrize("samples", [1000, None], ids=["capped", "uncapped"])
@pytest.mark.parametrize("name", sorted(DOCS) + ["torus-poisoned"])
def test_x_laws_on_ids_are_the_x_laws_on_cells(name, samples):
    make = (lambda fd: poisoned(XCategory(fd, True))) if name.endswith("poisoned") else (
        lambda fd: XCategory(fd, True))
    fd = DOCS[name.removesuffix("-poisoned")]()
    cat = make(fd)
    assert _Run(cat, 0, 0, ()).cell is cat._out  # the id path, which PassThrough never takes
    got, want = x_laws(cat, samples), x_laws(PassThrough(make(fd)), samples)
    assert got == want and any(e.checked for e in got.entries)
    assert got.passed != name.endswith("poisoned")


@pytest.mark.parametrize("target", ["g", "f"])
@pytest.mark.parametrize("name", sorted(DOCS))
def test_functor_laws_on_ids_are_the_functor_laws_on_cells(name, target):
    fd = DOCS[name]()
    got = check_functor_laws(fd, target)
    assert got == generic_functor_laws(fd, target)
    assert got.passed != (name == "overweight")


@pytest.mark.parametrize(
    "name, functor",
    [
        ("torus", shifted_g),
        ("torus", raising_g("w", "wx_d")),
        ("short-chain", raising_g("b0", "b1", "b2", "p0_0")),
    ],
    ids=["torus-shifted-g", "torus-raising-g", "chain-raising-g"],
)
def test_a_functor_in_place_of_g_is_checked_as_on_cells(monkeypatch, name, functor):
    fd = DOCS[name]()
    monkeypatch.setattr(functors, "functor_g", functor)
    got = check_functor_laws(fd, "g")
    assert not got.passed and got == generic_functor_laws(fd, "g", functor)


def counting(name):
    """A subclass of XCategory whose protocol method name counts its calls,
    then does what XCategory's does."""

    def method(self, *args):
        self.calls += 1
        return XCategory.__dict__[name].__get__(self, XCategory)(*args)

    return type(f"Counting_{name}", (XCategory,), {name: method, "calls": 0})


@pytest.mark.parametrize("name", ["compose", "normalize", "source"])
def test_an_overridden_protocol_method_is_called(name):
    fd = seeded_chain(4, 2, 3)
    cat = counting(name)(fd, True)
    assert cat._on_ids() is None and x_laws(cat, None) == x_laws(XCategory(fd, True), None)
    assert cat.calls > 0


def test_an_instance_attribute_takes_the_generic_path():
    fd = torus_flow_data()
    cat = XCategory(fd, True)
    calls = []
    cat.render = lambda cell: calls.append(cell) or x_render(cell)
    report = x_laws(poisoned(cat), None)
    assert not report.passed and calls  # witness text through the instance's render
    assert report == x_laws(poisoned(XCategory(fd, True)), None)


CLOSED = {"chain-4-2": lambda: doc(chain_document(4, 2)), "tilted-torus-3": DOCS["tilted-torus-3"]}


def counted(monkeypatch, name):
    """The calls of xcat's function name, each one's arguments, from every
    XCategory built after this."""
    calls, real = [], getattr(xcat, name)
    monkeypatch.setattr(xcat, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_closure_and_passing_checks_decode_no_cell(monkeypatch, name):
    # only a cell that leaves the instance is decoded: the closure sorts ids
    # on label values, and the checks read ids, keys and tables
    decoded = counted(monkeypatch, "_decode")
    fd = CLOSED[name]()
    cat = XCategory(fd, True)
    for l in range(fd.max_level + 1):
        cat._level(l, True)
    assert decoded == []
    assert check_globularity(cat).passed and check_axioms(cat, samples=None).passed
    assert check_functor_laws(fd, "g").passed and check_functor_laws(fd, "f").passed
    assert decoded == []


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_closed_levels_are_sorted_and_the_generic_path_sees_them_in_that_order(name):
    fd = CLOSED[name]()
    cat, generic = XCategory(fd, True), PassThrough(XCategory(fd, True))
    for l in range(fd.max_level + 1):
        cells = cat.cells(l)
        assert cells == sorted(cells) == generic.cells(l) and len(set(cells)) == len(cells)
        on_ids, on_cells = _Run(cat, 0, None, [l]), _Run(generic, 0, None, [l])
        assert [on_ids.cell[i] for i in on_ids.sample[l]] == cells
        assert [on_cells.cell[i] for i in on_cells.sample[l]] == cells


@pytest.mark.parametrize("closed", [False, True], ids=["plain", "closed"])
def test_pairs_keep_their_answers_for_bad_arguments(closed):
    cat = XCategory(DOCS["chain-3-2"](), closed)  # max_level 2
    for level, p, text in [(1, 1, "depth p=1 out of range for level 1"),
                           (True, 0, "level must be an integer, got True"),
                           (-1, 0, "level must be non-negative")]:
        with pytest.raises(InvalidArguments, match=f"^{text}$"):
            cat.pairs(level, p)
    with pytest.warns(UserWarning, match="no cells above level 2"):
        assert cat.pairs(3, 0) == []


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_globularity_then_axioms_compute_each_face_once(monkeypatch, name):
    # the source and target tables live on the instance, so the second
    # check reads the faces the first one computed
    faces = counted(monkeypatch, "_key_face")
    fd = CLOSED[name]()
    cat = XCategory(fd, True)
    got = check_globularity(cat), check_axioms(cat, samples=None)
    assert faces and max(Counter(faces).values()) == 1
    monkeypatch.undo()
    assert got == (check_globularity(XCategory(fd, True)), check_axioms(XCategory(fd, True), samples=None))


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_a_globularity_run_on_a_closed_instance_copies_no_composite(monkeypatch, name):
    # globularity composes nothing, so its run leaves the composites X's
    # closures glued where they are; a run of the composition laws starts with them
    runs = []

    class Recorded(_Run):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            runs.append(self)

    monkeypatch.setattr(axioms, "_Run", Recorded)
    fd = CLOSED[name]()
    cat = XCategory(fd, True)
    for l in range(fd.max_level + 1):
        cat._level(l, True)
    got = check_globularity(cat), check_axioms(cat, samples=None)
    assert cat._composites and len(runs[0].composite) == 0
    assert cat._composites.items() <= runs[1].composite.items()
    assert got == (check_globularity(PassThrough(XCategory(fd, True))),
                   check_axioms(PassThrough(XCategory(fd, True)), samples=None))


def test_an_instance_with_filled_tables_is_freed_without_the_collector():
    # the tables that live as long as the instance hold no reference to it,
    # a stored NoSource's traceback included
    fd = DOCS["chain-3-2"]()
    cat = XCategory(fd, True)
    alive = weakref.ref(cat)
    gc.disable()
    try:
        assert check_globularity(cat).passed and check_axioms(cat, samples=None).passed
        run = _Run(cat, 0, None, ())
        assert isinstance(run.source.peek(cat._cell_id(cat.cells(0)[0])), NoSource)
        del run, cat
        assert alive() is None
    finally:
        gc.enable()
