"""The tilted_torus(n) family, and X, its laws and its functors at depth.

tilted_torus(n) has max_level n, so it is the one input that takes the
closure, the X laws and the functor laws above level 2.  Its closure is
checked against a fixpoint that glues through the oracles' reference
composition, and its level-1 count against a closed form from the shape
alone.
"""

import gc
import json
import pickle

import pytest

from ncat.axioms import check_axioms, check_globularity
from ncat.errors import InvalidArguments
from ncat.families import tilted_torus
from ncat.flowdata import emit_flow_data, parse_flow_data, validate_flow_data
from ncat.functors import check_functor_laws
from ncat.torus import torus_document
from ncat.xcat import XCategory, XCell

from oracles import naive_closure, reference_compose, tilted_torus_level1_count


def tt_fd(n):
    fd = parse_flow_data(json.dumps(tilted_torus(n)))
    assert validate_flow_data(fd).passed
    return fd


TT3 = tt_fd(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_member_validates(n):
    report = validate_flow_data(parse_flow_data(json.dumps(tilted_torus(n))))
    assert report.passed and report.checks


@pytest.mark.parametrize("bad", [0, -1, 10, True, 1.5, "3", None])
def test_n_must_be_an_integer_from_one_to_nine(bad):
    with pytest.raises(InvalidArguments):
        tilted_torus(bad)


def test_two_circles_are_the_torus():
    # the built-in torus under a fixed renaming of its ids
    name = {"w": "b12", "x": "b1", "y": "b2", "z": "b"}
    for i in "ds":
        for q in "xy":
            name[f"w{q}_{i}"] = f"b12{name[q]}{i}.0"
            name[f"{q}z_{i}"] = f"{name[q]}b{i}.0"
    for c in ("dd", "ds", "sd", "ss"):
        name[f"wz_max_{c}"], name[f"wz_min_{c}"] = f"b12b{c}.1", f"b12b{c}.0"
        name[f"arc_{c}"] = f"b12b{c}.10arc.0"
    text = json.dumps(torus_document())
    for old in sorted(name, key=len, reverse=True):
        text = text.replace(f'"{old}"', f'"{name[old]}"')

    def canonical(doc):
        doc = emit_flow_data(parse_flow_data(json.dumps(doc)))
        for sp in doc["moduli"]:
            sp["critical_points"].sort(key=lambda cp: cp["id"])
        doc["moduli"].sort(key=lambda sp: (sp["level"], sp["source"], sp["target"]))
        return {**doc, "name": None}

    assert canonical(json.loads(text)) == canonical(tilted_torus(2))


@pytest.mark.parametrize(
    "n, plain, closed",
    [
        (2, [4, 16, 12], [4, 24, 20]),
        (3, [8, 96, 80, 72], [8, 288, 232, 224]),
        (4, [16, 512, 576, 496, 480], [16, 4160, 3408, 3184, 3168]),
    ],
)
def test_cells_per_level(n, plain, closed):
    fd = tt_fd(n)
    assert fd.max_level == n
    assert [len(XCategory(fd).cells(l)) for l in range(n + 1)] == plain
    assert [len(XCategory(fd, True).cells(l)) for l in range(n + 1)] == closed


def test_level_one_closed_form():
    assert [tilted_torus_level1_count(n) for n in range(2, 6)] == [24, 288, 4160, 73600]
    for n in (2, 3, 4):
        assert len(XCategory(tt_fd(n), True).cells(1)) == tilted_torus_level1_count(n)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_closure_at_depth_matches_a_reference_fixpoint(level):
    # the fixpoint glues through reference_normalize, never through xcat's glue
    want = naive_closure(TT3, level, compose=reference_compose)
    assert XCategory(TT3, True).cells(level) == want


def test_every_composite_is_the_reference_composite():
    cat = XCategory(TT3, True)
    for l in range(TT3.max_level + 1):
        cat.cells(l)
    assert len(cat._composites) == 1096
    cell = cat._decode  # the table holds cell ids
    for (p, a, c), out in cat._composites.items():
        assert cell(out) == reference_compose(TT3, p, cell(a), cell(c))


def test_equal_copies_compose_as_the_handed_out_cells():
    # copies built apart, labels too, are found by value, not by identity
    cat = XCategory(TT3, True)
    apart = lambda x: XCell(*pickle.loads(pickle.dumps((x.head, x.spine))))
    pairs = [(p, a, c) for l in range(1, TT3.max_level + 1) for p in range(l) for a, c in cat.pairs(l, p)]
    assert len(pairs) == 1096
    for p, a, c in pairs:
        a2, c2 = apart(a), apart(c)
        assert a2 == a and a2 is not a and a2.head is not a.head
        out = cat.compose(p, a, c)
        assert cat.compose(p, a2, c2) is out and cat.compose(p, a, c2) is out
        assert out == reference_compose(TT3, p, a2, c2)


def test_closed_tables_hold_nothing_the_collector_tracks():
    # the composite and label-pair tables hold ints and exact tuples of ints only
    cat = XCategory(TT3, True)
    for l in range(TT3.max_level + 1):
        cat.cells(l)
    gc.collect()
    tables = cat._composites, cat._glued
    assert all(tables)
    assert not [x for table in tables for item in table.items() for x in item if gc.is_tracked(x)]


def test_x_laws_hold_at_level_three():
    cat = XCategory(TT3, True)
    report = check_globularity(cat).merged(check_axioms(cat, samples=10**6))
    assert report.passed
    assert {e.axiom: e.checked for e in report.entries} == {
        "globular-ss": 456,
        "globular-ts": 456,
        "comp-st": 1096,
        "id-st": 528,
        "assoc": 600,
        "unit": 1424,
        "binary-interchange": 608,
        "nullary-interchange": 560,
    }


@pytest.mark.parametrize("target", ["g", "f"])
def test_functor_laws_hold_at_level_three(target):
    report = check_functor_laws(TT3, target)
    assert report.passed
    assert {e.axiom: e.checked for e in report.entries} == {
        f"functor-{target}-source": 744,
        f"functor-{target}-target": 744,
        f"functor-{target}-identity": 528,
        f"functor-{target}-compose": 1096,
        "index-bound": 744,
    }


def test_laws_hold_at_level_four():
    # the X laws where diagonals glue three deep; one closure serves
    # globularity and the axioms, uncapped, and each functor check closes its own
    fd = tt_fd(4)
    cat = XCategory(fd, True)
    report = check_globularity(cat).merged(check_axioms(cat, samples=None))
    assert report.passed
    assert {e.axiom: e.checked for e in report.entries} == {
        "globular-ss": 9760,
        "globular-ts": 9760,
        "comp-st": 31696,
        "id-st": 10768,
        "assoc": 20992,
        "unit": 33200,
        "binary-interchange": 25968,
        "nullary-interchange": 20112,
    }
    for target in ("g", "f"):
        report = check_functor_laws(fd, target)
        assert report.passed
        assert {e.axiom: e.checked for e in report.entries} == {
            f"functor-{target}-source": 13920,
            f"functor-{target}-target": 13920,
            f"functor-{target}-identity": 10768,
            f"functor-{target}-compose": 31696,
            "index-bound": 13920,
        }
