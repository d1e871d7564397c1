"""V delegates everything to the dimension data; rendering is the point."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncat.errors import ConstraintViolation, InvalidArguments, NCatError, NotComposable
from ncat.vcat import (
    VCell,
    v_compose,
    v_from_w,
    v_identity,
    v_render,
    v_source,
    v_target,
    v_to_w,
)
from ncat.wcat import w_compose, w_enumerate, w_identity, w_make, w_source, w_target

from oracles import random_composable_wpair, random_wcell


def vcell(head, spine):
    return v_from_w(w_make(head, spine))


def test_round_trip():
    q = w_make(0, [(2, 1)])
    assert v_to_w(v_from_w(q)) == q
    assert v_to_w(v_from_w(3)) == 3


def test_vcell_is_not_a_wcell():
    q = w_make(0, [(2, 1)])
    v = v_from_w(q)
    assert v != q
    assert v == VCell(q)


def test_from_w_rejects_junk():
    with pytest.raises(InvalidArguments):
        v_from_w("2")
    with pytest.raises(InvalidArguments):
        v_to_w(w_make(0, [(2, 1)]))


def test_render_level_zero():
    assert v_render(v_from_w(2)) == "R^2"
    assert v_render(v_from_w(0)) == "R^0"


def test_render_level_one():
    assert v_render(vcell(0, [(2, 1)])) == "(R^0, Hom(R^2,R^1))"


def test_render_level_two():
    assert v_render(vcell(0, [(1, 0), (2, 0)])) == "(R^0, Hom(R^1,R^0), Hom(R^2,R^0))"


def test_str_is_render():
    for v in (v_from_w(2), vcell(0, [(2, 1)]), vcell(0, [(1, 0), (2, 0)])):
        assert str(v) == v_render(v)
    assert str(VCell(w_make(0, [(2, 1)]))) == "(R^0, Hom(R^2,R^1))"


def test_render_rejects_invalid_dims_upstream():
    with pytest.raises(ConstraintViolation):
        vcell(0, [(1, 2), (2, 0)])  # j > i is caught by w_make


def test_compose_delegates():
    a = vcell(0, [(2, 1)])
    c = vcell(0, [(1, 0)])
    assert v_compose(0, a, c) == vcell(0, [(2, 0)])
    with pytest.raises(NotComposable):
        v_compose(0, c, a)


def test_identity_and_boundaries_delegate():
    v = vcell(0, [(0, 0), (2, 1)])
    assert v_source(v) == vcell(0, [(2, 1)])
    assert v_target(v) == vcell(0, [(2, 1)])
    assert v_identity(vcell(0, [(2, 1)])) == vcell(0, [(0, 0), (2, 1)])
    assert v_identity(v_from_w(2)) == vcell(0, [(2, 2)])


@given(st.sampled_from(w_enumerate(2, 3)))
def test_prop_wrapper_commutes_with_boundaries(q):
    # v_source o v_from_w = v_from_w o w_source, and likewise for target
    assert v_source(v_from_w(q)) == v_from_w(w_source(q))
    assert v_target(v_from_w(q)) == v_from_w(w_target(q))


@given(st.sampled_from(w_enumerate(1, 3)), st.sampled_from(w_enumerate(1, 3)))
def test_prop_wrapper_commutes_with_compose(a, c):
    if w_target(a) == w_source(c):
        assert v_compose(0, v_from_w(a), v_from_w(c)) == v_from_w(w_compose(0, a, c))


def _outcome(call, *args):
    try:
        return call(*args)
    except NCatError as e:
        return type(e), str(e)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=200)
def test_prop_v_calls_are_wrapped_w_calls(seed, level):
    # each v_ call gives VCell of the W call's result, exactly a VCell, or the W
    # call's error class and text: faces of level 0 and level >= 1 cells, identities,
    # and composites of a composable pair, of the pair swapped, and of unrelated cells
    rng = random.Random(seed)
    p = rng.randint(0, level - 1)
    q = w_make(*random_wcell(rng, level, 4))
    (ha, sa), (hc, sc) = random_composable_wpair(rng, level, p, 4)
    a, c = w_make(ha, sa), w_make(hc, sc)
    bare = rng.randint(0, 4)
    calls = [(v, w, (), (cell,)) for v, w in ((v_source, w_source), (v_target, w_target), (v_identity, w_identity))
             for cell in (q, bare)]
    calls += [(v_compose, w_compose, (p,), pair) for pair in ((a, c), (c, a), (q, a))]
    for v_call, w_call, depth, cells in calls:
        w_out = _outcome(w_call, *depth, *cells)
        v_out = _outcome(v_call, *depth, *map(VCell, cells))
        if type(w_out) is tuple:  # the W call raised: (class, text)
            assert v_out == w_out
        else:
            assert v_out == VCell(w_out) and type(v_out) is VCell
