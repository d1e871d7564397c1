"""Index functors: values on known cells, laws, and inconsistent data."""

import hashlib
import json
from collections import Counter

import pytest

from ncat import functors
from ncat.errors import FlowDataInconsistent, InvalidArguments, UnknownAtom
from ncat.flowdata import parse_flow_data
from ncat.functors import check_functor_laws, functor_f, functor_g, ind, ind_env
from ncat.torus import torus_flow_data
from ncat.vcat import v_render, v_to_w
from ncat.wcat import WCategory, w_make
from ncat.xcat import Atom, Pt, Seq, XCategory, XCell, x_cells, x_compose, x_identity, x_render

from ncat.families import tilted_torus
from oracles import chain_document
from test_axioms import CallLog

FD = torus_flow_data()
ENV = ind_env(FD)


def x1(ident):
    (cell,) = [c for c in x_cells(FD, 1) if c.head == Atom(ident)]
    return cell


def test_ind_of_labels():
    assert ind(Atom("w"), ENV) == 2
    assert ind(Atom("wz_max_dd"), ENV) == 1
    assert ind(Pt(Atom("wz_max_dd")), ENV) == 0
    assert ind(Seq((Atom("wx_d"), Atom("xz_d"))), ENV) == 0
    assert ind(Seq((Atom("w"), Atom("x"))), ENV) == 3


def test_ind_unknown_atom():
    with pytest.raises(UnknownAtom):
        ind(Atom("nope"), ENV)


def test_g_on_objects_is_the_bare_index():
    assert functor_g(XCell(Atom("w"), ()), ENV) == 2
    assert functor_g(XCell(Atom("z"), ()), ENV) == 0


def test_g_on_flow_cells():
    assert functor_g(x1("wx_d"), ENV) == w_make(0, [(2, 1)])
    assert functor_g(x1("yz_s"), ENV) == w_make(0, [(1, 0)])
    assert functor_g(x1("wz_max_dd"), ENV) == w_make(1, [(2, 0)])
    assert functor_g(x1("wz_min_ss"), ENV) == w_make(0, [(2, 0)])


def test_g_on_diagonal_and_level_two_cells():
    assert functor_g(x_identity(x1("wx_d")), ENV) == w_make(0, [(0, 0), (2, 1)])
    (arc,) = [c for c in x_cells(FD, 2) if c.head == Atom("arc_dd")]
    assert functor_g(arc, ENV) == w_make(0, [(1, 0), (2, 0)])


def test_g_separates_composite_from_registered_maximum():
    # same boundary, different head index: 0 for the gluing, 1 for the point
    glued = x_compose(FD, 0, x1("wx_d"), x1("xz_d"))
    assert functor_g(glued, ENV) == w_make(0, [(2, 0)])
    assert functor_g(x1("wz_max_dd"), ENV) == w_make(1, [(2, 0)])


def test_f_wraps_the_same_dimension_data():
    cell = x1("wx_d")
    assert v_render(functor_f(cell, ENV)) == "(R^0, Hom(R^2,R^1))"
    assert v_to_w(functor_f(cell, ENV)) == functor_g(cell, ENV)


def test_f_equals_v_of_g_everywhere():
    for l in range(3):
        for cell in x_cells(FD, l, include_composites=True):
            assert v_to_w(functor_f(cell, ENV)) == functor_g(cell, ENV)


def test_functor_laws_g():
    report = check_functor_laws(FD, "g")
    assert report.passed
    assert all(e.checked > 0 for e in report.entries)
    assert {e.axiom for e in report.entries} == {
        "functor-g-source", "functor-g-target", "functor-g-identity",
        "functor-g-compose", "index-bound",
    }


def test_functor_laws_f():
    report = check_functor_laws(FD, "f")
    assert report.passed
    assert all(e.checked > 0 for e in report.entries)


def test_functor_laws_rejects_unknown_target():
    with pytest.raises(InvalidArguments):
        check_functor_laws(FD, "h")


def overweight_document():
    """A declared index too large for its home space."""
    return {
        "name": "overweight",
        "max_level": 1,
        "base_points": [{"id": "a", "index": 1}, {"id": "b", "index": 0}],
        "moduli": [
            {
                "level": 1, "source": "a", "target": "b", "dim": 0,
                "components": ["c"],
                "critical_points": [{"id": "ab", "index": 5, "component": "c"}],
            }
        ],
    }


def test_inconsistent_indices_raise_on_apply():
    fd = parse_flow_data(json.dumps(overweight_document()))
    (cell,) = x_cells(fd, 1)
    with pytest.raises(FlowDataInconsistent):
        functor_g(cell, ind_env(fd))
    with pytest.raises(FlowDataInconsistent):
        functor_f(cell, ind_env(fd))


def test_inconsistent_indices_are_reported_by_the_law_check():
    fd = parse_flow_data(json.dumps(overweight_document()))
    report = check_functor_laws(fd, "g")
    assert not report.passed
    assert report.entry("index-bound").verdict == "fail"


@pytest.mark.parametrize("target", ["g", "f"])
def test_overweight_functor_witnesses(target):
    fd = parse_flow_data(json.dumps(overweight_document()))
    report = check_functor_laws(fd, target)
    name = target.upper()
    bad = (
        f"raised {name}((ab; a->b)) is not a valid cell: "
        "level 0: entry above level 0 must be < i_0-j_0=1, got 5"
    )
    assert {e.axiom: (e.checked, [f.detail for f in e.failures]) for e in report.entries} == {
        f"functor-{target}-source": (1, [f"{name}(s((ab; a->b))): {bad}"]),
        f"functor-{target}-target": (1, [f"{name}(t((ab; a->b))): {bad}"]),
        f"functor-{target}-identity": (2, []),
        f"functor-{target}-compose": (0, []),
        "index-bound": (1, ["(ab; a->b): ind(head)=5, want 0 <= ind(head) < 1-0"]),
    }


def twin_overweight_document():
    """overweight with a second point of index 5 on the same space: two
    cells with one index tuple, whose image raises."""
    doc = overweight_document()
    doc["moduli"][0]["critical_points"].append({"id": "ab2", "index": 5, "component": "c"})
    return doc


@pytest.mark.parametrize("target", ["g", "f"])
def test_each_raising_image_names_its_own_cell(target):
    # an image that raises is not kept by the image table, so the second
    # cell on the same index tuple gets a witness naming itself
    fd = parse_flow_data(json.dumps(twin_overweight_document()))
    report = check_functor_laws(fd, target)
    name = target.upper()
    bad = "level 0: entry above level 0 must be < i_0-j_0=1, got 5"
    assert {e.axiom: (e.checked, [f.detail for f in e.failures]) for e in report.entries} == {
        f"functor-{target}-source": (2, [
            f"{name}(s(({p}; a->b))): raised {name}(({p}; a->b)) is not a valid cell: {bad}"
            for p in ("ab", "ab2")
        ]),
        f"functor-{target}-target": (2, [
            f"{name}(t(({p}; a->b))): raised {name}(({p}; a->b)) is not a valid cell: {bad}"
            for p in ("ab", "ab2")
        ]),
        f"functor-{target}-identity": (2, []),
        f"functor-{target}-compose": (0, []),
        "index-bound": (2, [f"({p}; a->b): ind(head)=5, want 0 <= ind(head) < 1-0" for p in ("ab", "ab2")]),
    }


@pytest.mark.parametrize(
    "doc",
    [lambda: FD, lambda: parse_flow_data(json.dumps(chain_document(4, 2))),
     lambda: parse_flow_data(json.dumps(tilted_torus(3)))],
    ids=["torus", "chain-4-2", "tilted-torus-3"],
)
@pytest.mark.parametrize("target, name", [("g", "functor_g"), ("f", "functor_f")])
def test_each_index_tuple_is_imaged_once(monkeypatch, doc, target, name):
    fd = doc()
    real = getattr(functors, name)
    monkeypatch.setattr(functors, name, lambda cell, env: real(cell, env))  # no image table: per cell
    want = check_functor_laws(fd, target)
    monkeypatch.undo()
    through, built = functors._THROUGH[real], Counter()

    def counting(cell, index, render):  # cell is (head, spine) on its labels' indices
        built[cell] += 1
        return through(cell, index, render)

    monkeypatch.setitem(functors._THROUGH, real, counting)
    report = check_functor_laws(fd, target)
    assert report.passed and report.to_dict() == want.to_dict()
    assert set(built.values()) == {1}
    env, cat = ind_env(fd), XCategory(fd, include_composites=True)
    cells = [c for l in range(fd.max_level + 1) for c in cat.cells(l)]
    tuples = {(ind(c.head, env), tuple((ind(s, env), ind(t, env)) for s, t in c.spine)) for c in cells}
    assert tuples <= set(built) and len(tuples) < len(cells)


@pytest.mark.parametrize("target, name", [("g", "functor_g"), ("f", "functor_f")])
def test_each_image_is_computed_once(monkeypatch, target, name):
    want = check_functor_laws(FD, target)
    real, images = getattr(functors, name), Counter()

    def counting(cell, env):
        images[cell] += 1
        return real(cell, env)

    monkeypatch.setattr(functors, name, counting)
    report = check_functor_laws(FD, target)
    assert images and set(images.values()) == {1}
    assert report.to_dict() == want.to_dict()


@pytest.mark.parametrize(
    "doc",
    [lambda: FD, lambda: parse_flow_data(json.dumps(chain_document(4, 2))),
     lambda: parse_flow_data(json.dumps(tilted_torus(3)))],
    ids=["torus", "chain-4-2", "tilted-torus-3"],
)
@pytest.mark.parametrize("target", ["g", "f"])
def test_each_label_index_is_computed_once(monkeypatch, doc, target):
    fd = doc()
    want = check_functor_laws(fd, target)
    real, calls, depth = functors.ind, Counter(), [0]  # top-level ind calls, by label

    def counting(label, env):
        if not depth[0]:
            calls[label] += 1
        depth[0] += 1
        try:
            return real(label, env)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(functors, "ind", counting)
    report = check_functor_laws(fd, target)
    monkeypatch.undo()
    assert report.passed and report.to_dict() == want.to_dict()
    assert set(calls.values()) == {1}  # the run's index table: one ind per distinct label
    cat = XCategory(fd, include_composites=True)
    cells = [c for l in range(fd.max_level + 1) for c in cat.cells(l)]
    assert {lab for c in cells for lab in (c.head, *sum(c.spine, ()))} <= set(calls)


def shifted_g(cell, env):
    """G, but a glued level-1 cell's target index is one too high: not a
    functor, yet every image is a valid W cell, so nothing raises."""
    if cell.level == 1 and isinstance(cell.head, Seq):
        ((s, t),) = cell.spine
        return w_make(ind(cell.head, env), [(ind(s, env), ind(t, env) + 1)])
    return functor_g(cell, env)


def test_non_functor_that_never_raises_is_compared_not_raised(monkeypatch):
    monkeypatch.setattr(functors, "functor_g", shifted_g)
    report = check_functor_laws(FD, "g")
    assert {e.axiom: (e.checked, len(e.failures)) for e in report.entries} == {
        "functor-g-source": (44, 8),
        "functor-g-target": (44, 16),
        "functor-g-identity": (28, 8),
        "functor-g-compose": (32, 8),
        "index-bound": (44, 0),
    }
    assert {e.axiom: [f.detail for f in e.failures[:1]] for e in report.entries} == {
        "functor-g-source": [
            "G(s((pt((wx_d, xz_d)); (wx_d, xz_d)->(wx_d, xz_d), w->z))): "
            "(0, [2 ; 1]) != (0, [2 ; 0])"
        ],
        "functor-g-target": ["G(t(((wx_d, xz_d); w->z))): 0 != 1"],
        "functor-g-identity": [
            "G(1(((wx_d, xz_d); w->z))): (0, [0 2 ; 0 0]) != (0, [0 2 ; 0 1])"
        ],
        "functor-g-compose": [
            "G(C o_0 A) for A=(wx_d; w->x), C=(xz_d; x->z): (0, [2 ; 1]) != (0, [2 ; 0])"
        ],
        "index-bound": [],
    }
    assert not [f for e in report.entries for f in e.failures if "raised" in f.detail]


def raising_g(*heads):
    """G, raising on the plain cells with these head ids."""

    def g(cell, env):
        if cell.head in {Atom(h) for h in heads}:
            raise FlowDataInconsistent(f"no image of {x_render(cell)}")
        return functor_g(cell, env)

    return g


def short_chain():
    """b0 -> b1 -> b2 at max_level 1: the glued cell is the one composite,
    and the outer cell of its pair has its image read nowhere else once G
    raises on every base point."""
    return parse_flow_data(json.dumps({**chain_document(2, 1), "max_level": 1}))


# fd, and the head ids G raises on
CASES = {
    "torus": (lambda: FD, ()),
    "overweight": (lambda: parse_flow_data(json.dumps(overweight_document())), ()),
    "torus-raising-g": (lambda: FD, ("w", "wx_d")),
    "chain-raising-g": (short_chain, ("b0", "b1", "b2", "p0_0")),
}


# number of calls, sha256 of json.dumps of the sorted distinct reprs of
# every G call and every call on the receiving W, and sha256 of the
# report's JSON, as the check with raising per-instance sides made them
CALLS = {
    "torus": (
        88,
        "e126e182002065d01236e9a2d8a0849adbf063f33c22dfe40ac456354db2eca1",
        "e93775c3b976a7ab3c7761f516ed85d81f077c22b769b0b1e64963a2a6bc7aa5",
    ),
    "overweight": (
        7,
        "c38346ff27dc57abc70629b04a00be8bb94db0ed68e95104dc27cf77f40f4017",
        "6160401541b4acbc9b0eb12cec2939329fb91bbf2f35b2a3707a2ec170d94a7a",
    ),
    "torus-raising-g": (
        84,
        "0aa841284d525689b393ef290e228c23ba497e1b43c070d7f930c0cb42089514",
        "37022570641a43d88e0cd04e02d98bd345a7f09142ea39076ad31031fae9054c",
    ),
    "chain-raising-g": (
        8,
        "33ca5d6105404432bd1abfeb114bc52e7541ca425371aa1e32f6ef7e4c200165",
        "bfe19781e85b3e3b46f161c57e3a88788a80956e91bc0c2b78bf409a10db2127",
    ),
}


@pytest.mark.parametrize("case", sorted(CALLS))
def test_functor_check_calls_are_unchanged(monkeypatch, case):
    # the functor and W are asked for exactly what they were asked for
    # before: a side read after a raising one, or one read eagerly, shows here
    make_fd, heads = CASES[case]
    fd, g = make_fd(), raising_g(*heads)
    log = CallLog(WCategory())

    def logged_g(cell, env):
        log.calls.append(("functor_g", cell))
        return g(cell, env)

    monkeypatch.setattr(functors, "functor_g", logged_g)
    monkeypatch.setattr(functors, "WCategory", lambda: log)
    report = check_functor_laws(fd, "g")
    calls = json.dumps(sorted({repr(call) for call in log.calls}))
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert (
        len(log.calls),
        hashlib.sha256(calls.encode()).hexdigest(),
        hashlib.sha256(text.encode()).hexdigest(),
    ) == CALLS[case]
