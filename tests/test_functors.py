"""Index functors: values on known cells, laws, and inconsistent data."""

import json
from collections import Counter

import pytest

from ncat import functors
from ncat.errors import FlowDataInconsistent, InvalidArguments, UnknownAtom
from ncat.flowdata import parse_flow_data
from ncat.functors import check_functor_laws, functor_f, functor_g, ind, ind_env
from ncat.torus import torus_flow_data
from ncat.vcat import v_render, v_to_w
from ncat.wcat import w_make
from ncat.xcat import Atom, Pt, Seq, XCell, x_cells, x_compose, x_identity

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
