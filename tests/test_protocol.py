"""The category protocol shared by W, V and X: each class binds its module's
functions, and one depth check guards every composability entry point."""

from collections import Counter

import pytest

from ncat import wcat
from ncat.axioms import check_axioms, check_globularity, composable
from ncat.errors import InvalidArguments, NoSource, NotComposable
from ncat.functors import check_functor_laws, functor_f, functor_g, ind, ind_env
from ncat.torus import torus_flow_data
from ncat.vcat import VCategory, VCell, v_compose, v_identity, v_render, v_source, v_target
from ncat.wcat import (
    WCategory,
    WCell,
    w_compose,
    w_composable,
    w_identity,
    w_make,
    w_render,
    w_source,
    w_target,
)
from ncat.xcat import (
    Atom,
    XCategory,
    XCell,
    glue,
    normalize,
    point_like,
    x_cells,
    x_composable,
    x_composable_pairs,
    x_compose,
    x_identity,
    x_render,
    x_source,
    x_target,
)

FD = torus_flow_data()
W1 = w_make(0, [(2, 1)])
W2 = w_make(0, [(0, 0), (2, 1)])
X1 = x_cells(FD, 1)[0]
X2 = x_cells(FD, 2)[0]
CLOSED = XCategory(FD, include_composites=True)
XA, XC = CLOSED.pairs(1, 0)[0]  # a pair the closure glued: compose reads it from the table
XM = XCell(Atom("w"), (5,))  # hand-built, with a spine entry that is no pair
XM_TEXT = "XCell(head=Atom(id='w'), spine=(5,))"
ENV = ind_env(FD)


@pytest.mark.parametrize(
    "cls, name, fn",
    [
        (WCategory, "source", w_source),
        (WCategory, "target", w_target),
        (WCategory, "identity", w_identity),
        (WCategory, "compose", w_compose),
        (WCategory, "render", w_render),
        (VCategory, "source", v_source),
        (VCategory, "target", v_target),
        (VCategory, "identity", v_identity),
        (VCategory, "compose", v_compose),
        (VCategory, "render", v_render),
        (XCategory, "source", x_source),
        (XCategory, "target", x_target),
        (XCategory, "identity", x_identity),
        (XCategory, "render", x_render),
    ],
)
def test_category_binds_its_module_function(cls, name, fn):
    assert getattr(cls, name) is fn


# every entry point that takes a depth p, called on level-1 cells, and a level-2
# cell to put in the place of the outer one (None where the call takes a level)
DEPTH_CALLS = {
    "w_compose": (lambda p, a=W1, c=W1: w_compose(p, a, c), W2),
    "w_composable": (lambda p, a=W1, c=W1: w_composable(p, a, c), W2),
    "v_compose": (lambda p, a=W1, c=W1: v_compose(p, VCell(a), VCell(c)), W2),
    "composable-w": (lambda p, a=W1, c=W1: composable(WCategory(), p, a, c), W2),
    "composable-v": (lambda p, a=W1, c=W1: composable(VCategory(), p, VCell(a), VCell(c)), W2),
    "x_compose": (lambda p, a=X1, c=X1: x_compose(FD, p, a, c), X2),
    "x_composable": (lambda p, a=X1, c=X1: x_composable(p, a, c), X2),
    "composable-x": (lambda p, a=X1, c=X1: composable(XCategory(FD), p, a, c), X2),
    # False and 0.0 hash as the depth 0 of the pair's table key
    "XCategory.compose-closed": (lambda p, a=XA, c=XC: CLOSED.compose(p, a, c), X2),
    "XCategory.pairs": (lambda p: XCategory(FD).pairs(1, p), None),
    "x_composable_pairs": (lambda p: x_composable_pairs(FD, 1, p), None),
    "x_composable_pairs-closed": (lambda p: x_composable_pairs(FD, 1, p, include_composites=True), None),
}


@pytest.mark.parametrize("bad", ["0", 0.0, 1.5, True, False, None], ids=["str", "zero-float", "float", "true", "false", "none"])
@pytest.mark.parametrize("call", sorted(DEPTH_CALLS))
def test_non_int_depth_is_invalid_arguments(call, bad):
    # "0" and 1.5 used to raise TypeError, and True composed at depth 1
    with pytest.raises(InvalidArguments, match=f"^depth must be an integer, got {bad!r}$"):
        DEPTH_CALLS[call][0](bad)


@pytest.mark.parametrize("call", sorted(DEPTH_CALLS))
def test_depth_check_keeps_its_messages(call):
    fn, other = DEPTH_CALLS[call]
    for p in (1, -1):
        with pytest.raises(InvalidArguments, match=rf"^depth p={p} out of range for level 1$"):
            fn(p)
    if other is not None:
        with pytest.raises(InvalidArguments, match="^levels differ: 1 vs 2$"):
            fn(0, c=other)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: w_identity(True), "expected a cell, got a bool"),
        (lambda: w_identity("x"), "expected a WCell, got 'x'"),
        (lambda: w_source("x"), "expected a WCell, got 'x'"),
        (lambda: w_target(W1.spine), "expected a WCell, got ((2, 1),)"),
        (lambda: w_render(1.5), "expected a WCell, got 1.5"),
        (lambda: w_compose(0, W1, "x"), "expected a WCell, got 'x'"),
        # these used to raise a bare AttributeError (or TypeError, for the list)
        (lambda: v_source("x"), "expected a VCell, got 'x'"),
        (lambda: v_identity(3), "expected a VCell, got 3"),
        (lambda: v_render(None), "expected a VCell, got None"),
        (lambda: x_source("x"), "expected an XCell, got 'x'"),
        (lambda: x_identity(5), "expected an XCell, got 5"),
        (lambda: x_render(None), "expected an XCell, got None"),
        (lambda: x_compose(FD, 0, "a", "b"), "expected an XCell, got 'a'"),
        (lambda: CLOSED.compose(0, XA, ["a"]), "expected an XCell, got ['a']"),
        (lambda: XCategory(FD).normalize("a"), "expected an XCell, got 'a'"),
        (lambda: composable(WCategory(), 0, "a", "b"), "expected a WCell, got 'a'"),
        (lambda: composable(VCategory(), 0, "a", "b"), "expected a VCell, got 'a'"),
        (lambda: composable(XCategory(FD), 0, "a", "b"), "expected an XCell, got 'a'"),
        # these used to raise a bare AttributeError
        (lambda: XCategory(None), "expected a FlowData, got None"),
        (lambda: XCategory("junk"), "expected a FlowData, got 'junk'"),
        (lambda: x_compose(None, 0, X1, X1), "expected a FlowData, got None"),
        (lambda: x_cells(None, 0), "expected a FlowData, got None"),
        (lambda: x_composable_pairs(None, 1, 0), "expected a FlowData, got None"),
        # malformed hand-built cells: these used to raise a bare TypeError (IndexError for the empty spine)
        (lambda: w_source(WCell(0, (5,))), "malformed WCell spine (5,)"),
        (lambda: w_source(WCell(0, ())), "malformed WCell spine ()"),
        (lambda: w_render(WCell(0, (5,))), "malformed WCell spine (5,)"),
        (lambda: w_identity(WCell(0, None)), "malformed WCell spine None"),
        (
            lambda: w_compose(1, WCell(0, (5, (1, 0))), WCell(0, ((0, 0), (1, 0)))),
            "malformed WCell spine (5, (1, 0))",
        ),
        (
            lambda: w_composable(1, WCell(0, ((0, 0), (1, 0))), WCell(0, (5, (1, 0)))),
            "malformed WCell spine (5, (1, 0))",
        ),
        (lambda: x_source(XCell(Atom("w"), 5)), "malformed XCell: XCell(head=Atom(id='w'), spine=5)"),
        (lambda: x_identity(XCell(Atom("w"), 5)), "malformed XCell: XCell(head=Atom(id='w'), spine=5)"),
        (lambda: x_render(XM), f"malformed XCell: {XM_TEXT}"),
        (lambda: x_composable(0, XM, XM), f"malformed XCell: {XM_TEXT} or {XM_TEXT}"),
        (lambda: XCategory(FD).compose(0, XM, XM), f"malformed XCell: {XM_TEXT} or {XM_TEXT}"),
        (lambda: XCategory(FD).normalize(XM), f"malformed XCell: {XM_TEXT}"),
        (lambda: functor_g(XM, ENV), f"malformed XCell: {XM_TEXT}"),
        # non-cells, non-labels and non-documents: these used to raise AttributeError,
        # and glue returned Seq(parts=(5, 6))
        (lambda: ind(5, ENV), "expected a label, got 5"),
        (lambda: ind_env("x"), "expected a FlowData, got 'x'"),
        (lambda: functor_g(5, ENV), "expected an XCell, got 5"),
        (lambda: functor_f("x", ENV), "expected an XCell, got 'x'"),
        (lambda: functor_g(XA, None), "expected an index environment (a dict), got None"),
        (lambda: check_functor_laws("x"), "expected a FlowData, got 'x'"),
        (lambda: normalize(5), "expected a label, got 5"),
        (lambda: point_like(5, FD), "expected a label, got 5"),
        (lambda: glue(5, 6), "expected a label, got 5"),
        (lambda: glue(Atom("w"), 6), "expected a label, got 6"),
    ],
    ids=["identity-of-bool", "identity-of-str", "source-of-str", "target-of-tuple", "render-of-float", "compose-with-str",
         "v-source-of-str", "v-identity-of-int", "v-render-of-none", "x-source-of-str", "x-identity-of-int",
         "x-render-of-none", "x-compose-with-str", "x-compose-with-list", "x-normalize-of-str",
         "composable-w-of-str", "composable-v-of-str", "composable-x-of-str", "x-category-of-none",
         "x-category-of-str", "x-compose-over-none", "x-cells-over-none", "x-pairs-over-none",
         "w-source-of-int-spine-entry", "w-source-of-empty-spine", "w-render-of-int-spine-entry",
         "w-identity-of-none-spine", "w-compose-of-int-spine-entry", "w-composable-of-int-spine-entry",
         "x-source-of-int-spine", "x-identity-of-int-spine", "x-render-of-int-spine-entry",
         "x-composable-of-int-spine-entry", "x-compose-of-int-spine-entry", "x-normalize-of-int-spine-entry",
         "functor-g-of-int-spine-entry", "ind-of-int", "ind-env-of-str", "functor-g-of-int",
         "functor-f-of-str", "functor-g-over-none", "functor-laws-of-str", "normalize-of-int", "point-like-of-int",
         "glue-of-ints", "glue-of-atom-and-int"],
)
def test_w_argument_errors_keep_their_text(call, message):
    with pytest.raises(InvalidArguments) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize(
    "face, cell, name",
    [
        (w_source, 2, "source"),
        (w_target, 0, "target"),
        (v_source, VCell(2), "source"),
        (v_target, VCell(0), "target"),
        (x_source, XCell(Atom("w"), ()), "source"),
        (x_target, XCell(Atom("w"), ()), "target"),
    ],
    ids=["w-source", "w-target", "v-source", "v-target", "x-source", "x-target"],
)
def test_level_zero_cells_have_no_faces(face, cell, name):
    with pytest.raises(NoSource) as e:
        face(cell)
    assert str(e.value) == f"level-0 cells have no {name}"


@pytest.mark.parametrize("cls", [WCategory, VCategory])
def test_w_and_v_cells_above_max_level_are_empty(cls):
    cat = cls(max_level=1, bound=2)
    assert len(cat.cells(1)) == 7
    assert cat.cells(2) == [] and cat.cells(5) == []


@pytest.mark.parametrize("cls, wrap", [(WCategory, lambda q: q), (VCategory, VCell)], ids=["w", "v"])
def test_w_and_v_enumerate_each_level_once_per_instance(cls, wrap, monkeypatch):
    enumerated, w_enumerate = Counter(), wcat.w_enumerate

    def counted(level, bound):
        enumerated[level] += 1
        return w_enumerate(level, bound)

    monkeypatch.setattr(wcat, "w_enumerate", counted)
    cat = cls(4, 3)
    check_globularity(cat)
    check_axioms(cat)
    assert enumerated == {l: 1 for l in range(5)}
    cat.cells(2).clear()  # a copy: the cache keeps its cells
    assert cat.cells(2) == [wrap(q) for q in w_enumerate(2, 3)]
    assert enumerated == {l: 1 for l in range(5)}
    for bad in (True, 1.0):  # both hash as the cached level 1
        with pytest.raises(InvalidArguments, match="^level and bound must be integers"):
            cat.cells(bad)


@pytest.mark.parametrize(
    "cat, cells",
    [
        (WCategory(), [2, W1, W2]),
        (VCategory(), [VCell(2), VCell(W1), VCell(W2)]),
        (XCategory(FD), [x_cells(FD, 0)[0], X1, X2]),
    ],
    ids=["w", "v", "x"],
)
def test_level_of_is_the_spine_length(cat, cells):
    assert [cat.level_of(x) for x in cells] == [0, 1, 2]
    assert [x.level for x in cells[1:]] == [1, 2]


# the rows a change to the composite path could move, through every W and V entry
# point that takes a depth: level-2 cells, so the depth and the splice have room
Q2 = w_make(0, [(1, 0), (2, 0)])
R2 = w_make(0, [(0, 0), (2, 0)])  # composable with Q2 at p=1
S2 = w_make(0, [(0, 0), (2, 1)])  # meets Q2's top pair at p=1, not its lower spine
COMPOSITE_CALLS = {
    "w_compose": w_compose,
    "v_compose": lambda p, a, c: v_compose(p, VCell(a), VCell(c)),
    "w_composable": w_composable,
    "composable-w": lambda p, a, c: composable(WCategory(), p, a, c),
    "composable-v": lambda p, a, c: composable(VCategory(), p, VCell(a), VCell(c)),
}


@pytest.mark.parametrize(
    "p, a, c, message",
    [
        (True, Q2, R2, "depth must be an integer, got True"),
        (-1, Q2, R2, "depth p=-1 out of range for level 2"),
        (2, Q2, R2, "depth p=2 out of range for level 2"),
        (0, W1, R2, "levels differ: 1 vs 2"),
        (True, W1, R2, "levels differ: 1 vs 2"),  # the levels are tested before the depth
    ],
    ids=["true", "minus-one", "level", "levels-differ", "true-and-levels-differ"],
)
@pytest.mark.parametrize("call", sorted(COMPOSITE_CALLS))
def test_composite_entry_points_keep_their_argument_errors(call, p, a, c, message):
    with pytest.raises(InvalidArguments) as e:
        COMPOSITE_CALLS[call](p, a, c)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "p, a, c, message",
    [
        (1, Q2, Q2, "not composable at p=1: j_p of inner is 0, i_p of outer is 1"),
        (1, Q2, S2, "not composable at p=1: spines below p differ"),
    ],
    ids=["top-pair", "below-p"],
)
@pytest.mark.parametrize("call", sorted(COMPOSITE_CALLS))
def test_composite_entry_points_keep_their_not_composable_texts(call, p, a, c, message):
    if call.endswith("compose"):
        with pytest.raises(NotComposable) as e:
            COMPOSITE_CALLS[call](p, a, c)
        assert str(e.value) == message
    else:
        assert COMPOSITE_CALLS[call](p, a, c) is False


def test_composites_are_exactly_w_and_v_cells():
    assert w_compose(1, Q2, R2) == Q2 and type(w_compose(1, Q2, R2)) is WCell
    assert v_compose(1, VCell(Q2), VCell(R2)) == VCell(Q2)
    assert type(v_compose(1, VCell(Q2), VCell(R2))) is VCell
    assert all(COMPOSITE_CALLS[call](1, Q2, R2) is True for call in COMPOSITE_CALLS if call.endswith("able"))


class _SubVCell(VCell):
    pass


def test_v_calls_accept_a_vcell_subclass_and_return_a_vcell():
    sub = _SubVCell(Q2)
    for out in (v_source(sub), v_target(sub), v_identity(sub), v_compose(1, sub, _SubVCell(R2))):
        assert type(out) is VCell
    assert v_compose(1, sub, VCell(R2)) == VCell(Q2)


@pytest.mark.parametrize(
    "p, inner, outer",
    [
        (0, WCell(0, [(2, 1)]), WCell(0, ((1, 0),))),
        (0, WCell(0, ((2, 1),)), WCell(0, [(1, 0)])),
        (1, WCell(0, [(1, 0), (2, 0)]), R2),
        (1, Q2, WCell(0, [(0, 0), (2, 0)])),
        (1, WCell(0, [(1, 0), (2, 0)]), WCell(0, [(0, 0), (2, 0)])),
    ],
    ids=["list-inner-level-1", "list-outer-level-1", "list-inner-level-2", "list-outer-level-2", "both-lists"],
)
def test_a_list_spine_composes_like_its_tuple_spine(p, inner, outer):
    # composable(cat, ...) is left out: its run hashes the cells, and a list spine is unhashable
    tuples = WCell(inner.head, tuple(inner.spine)), WCell(outer.head, tuple(outer.spine))
    out = w_compose(p, inner, outer)
    assert out == w_compose(p, *tuples) and type(out) is WCell and type(out.spine) is tuple
    v_out = v_compose(p, VCell(inner), VCell(outer))
    assert v_out == VCell(out) and type(v_out) is VCell
    assert w_composable(p, inner, outer) is True


@pytest.mark.parametrize(
    "call",
    [
        lambda: w_compose(0, WCell(0, ((1,),)), WCell(0, ((1, 0),))),
        lambda: w_composable(0, WCell(0, ((1,),)), WCell(0, ((1, 0),))),
        lambda: w_compose(0, WCell(0, ((2, 1),)), WCell(0, ((1,),))),
        lambda: v_compose(0, VCell(WCell(0, ((1,),))), VCell(WCell(0, ((1, 0),)))),
    ],
    ids=["w-compose-inner", "w-composable-inner", "w-compose-outer", "v-compose-inner"],
)
def test_a_one_entry_pair_at_p_is_malformed(call):
    # these used to raise a bare IndexError
    with pytest.raises(InvalidArguments) as e:
        call()
    assert str(e.value).startswith("malformed WCell spine ((1,),)")


@pytest.mark.parametrize(
    "p, inner, outer",
    [
        (0, WCell(0, [(2, 1)]), WCell(0, ((1, 0),))),
        (0, WCell(0, ((2, 1),)), WCell(0, [(1, 0)])),
        (0, WCell(0, [(2, 1)]), WCell(0, [(1, 0)])),
        (0, WCell(0, [(2, 1)]), WCell(0, [(0, 0)])),
        (1, WCell(0, [(1, 0), (2, 0)]), WCell(0, ((0, 0), (2, 0)))),
        (1, WCell(0, ((1, 0), (2, 0))), WCell(0, [(0, 0), (2, 0)])),
        (1, WCell(0, [(1, 0), (2, 0)]), WCell(0, [(0, 0), (2, 0)])),
    ],
    ids=["list-inner", "list-outer", "both-lists", "not-composable", "level-2-list-inner",
         "level-2-list-outer", "level-2-both-lists"],
)
def test_composable_answers_as_w_composable_on_a_list_spine(p, inner, outer):
    # composable used to hash the cells into a run's table: TypeError, unhashable type: 'list'.
    # At level 2 the chains are level-1 cells: w_source and w_target give them a tuple spine,
    # so a list spine's chain equals the same tuple spine's
    want = w_composable(p, inner, outer)
    assert composable(WCategory(), p, inner, outer) is want
    assert composable(VCategory(), p, VCell(inner), VCell(outer)) is want
