"""Cell constraints, boundary maps, composition, and enumeration for W."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncat.errors import ConstraintViolation, InvalidArguments, NoSource, NotComposable
from ncat.wcat import (
    WCategory,
    WCell,
    w_compose,
    w_composable,
    w_enumerate,
    w_identity,
    w_make,
    w_render,
    w_source,
    w_target,
)

from oracles import brute_wcells, ok_wtuple, random_composable_wpair, random_wcell


def cell(head, spine):
    return w_make(head, spine)


# ---------------------------------------------------------------- w_make

def test_make_accepts_basic_cells():
    assert cell(0, [(2, 1)]) == WCell(0, ((2, 1),))
    assert cell(1, [(2, 0)]).head == 1
    assert cell(0, [(0, 0), (2, 2)]).spine == ((0, 0), (2, 2))


def test_make_rejects_head_at_the_bound():
    # head must be strictly below i - j
    with pytest.raises(ConstraintViolation):
        cell(1, [(2, 1)])


def test_make_rejects_j_above_i():
    with pytest.raises(ConstraintViolation) as e:
        cell(0, [(1, 2)])
    assert e.value.level == 0


def test_make_degenerate_pair_forces_zero_above():
    cell(0, [(2, 2)])
    with pytest.raises(ConstraintViolation):
        cell(1, [(2, 2)])
    with pytest.raises(ConstraintViolation):
        cell(0, [(1, 0), (2, 2)])  # i_1 = 1 sits above the degenerate (2,2)


def test_make_rejects_negatives_and_nonints():
    with pytest.raises(ConstraintViolation):
        cell(-1, [(2, 0)])
    with pytest.raises(ConstraintViolation):
        cell(0, [(2, -1)])
    with pytest.raises(ConstraintViolation):
        cell(0.5, [(2, 0)])
    with pytest.raises(ConstraintViolation):
        cell(0, [])


@pytest.mark.parametrize(
    "make,message,level",
    [
        (lambda: w_make(1.5, [(3, 0)]), "head must be an integer, got 1.5", None),
        (lambda: w_make(0, [(True, 0)]), "i_0 must be an integer, got True", None),
        (lambda: w_make(0, [(0, 0), (-1, 0)]), "i_0 must be non-negative, got -1", None),
        (lambda: w_make(0, [(2, "1"), (3, 1)]), "j_1 must be an integer, got '1'", None),
        (lambda: w_make(0, [(1, 2)]), "level 0: j_0=2 exceeds i_0=1", 0),
        (
            lambda: w_make(0, [(2, 0), (1, 1)]),
            "level 0: entry above a degenerate pair (i_0=j_0=1) must be 0, got 2",
            0,
        ),
        (lambda: w_make(1, [(2, 1)]), "level 0: entry above level 0 must be < i_0-j_0=1, got 1", 0),
        (lambda: w_make(0, []), "spine must be non-empty; level-0 cells are bare integers", None),
        (lambda: w_identity(-1), "cell must be non-negative, got -1", None),
        (lambda: w_make(0, 5), "spine must be a sequence of pairs, got 5", None),
        (lambda: w_make(0, None), "spine must be a sequence of pairs, got None", None),
        (lambda: w_make(0, [5]), "spine entry 0 is not a pair", None),
        (lambda: w_make(0, [(2, 1), (3, 0, 0)]), "spine entry 1 is not a pair", None),
        (
            lambda: w_compose(0, WCell(5, ((1, 0),)), WCell(0, ((0, 0),))),
            "level 0: entry above level 0 must be < i_0-j_0=1, got 5",
            0,
        ),
        # the sums of a non-integer entry used to raise a bare TypeError
        (lambda: w_compose(0, WCell("a", ((1, 0),)), WCell(0, ((0, 0),))), "head must be an integer, got 'a'", None),
        (lambda: w_compose(0, WCell(None, ((1, 0),)), WCell(0, ((0, 0),))), "head must be an integer, got None", None),
        (lambda: w_compose(0, WCell(0, ((1, 0),)), WCell(None, ((0, 0),))), "head must be an integer, got None", None),
        (
            lambda: w_compose(0, WCell(0, ((0, 0), (1, 0))), WCell(0, (("0", 0), (0, 0)))),
            "i_1 must be an integer, got '0'",
            None,
        ),
        # a hand-built list spine is copied into the composite, not concatenated to a tuple
        (
            lambda: w_compose(1, WCell(5, [(1, 0), (3, 0)]), WCell(0, [(0, 0), (3, 0)])),
            "level 1: entry above level 1 must be < i_1-j_1=1, got 5",
            1,
        ),
    ],
    ids=["head", "bool", "negative-i", "non-int-j", "j-above-i", "degenerate", "bound",
         "empty-spine", "identity-of-negative", "spine-number", "spine-none", "entry-number",
         "entry-triple", "compose-invalid-operand", "compose-str-head", "compose-none-head",
         "compose-outer-none-head", "compose-str-entry", "compose-list-spine"],
)
def test_make_error_text(make, message, level):
    with pytest.raises(ConstraintViolation) as e:
        make()
    assert str(e.value) == message
    assert e.value.level == level


# ------------------------------------------------------- source / target

def test_source_target_level_one_are_bare_ints():
    q = cell(0, [(2, 1)])
    assert w_source(q) == 2
    assert w_target(q) == 1
    assert isinstance(w_source(q), int)


def test_source_target_promote_the_top_pair():
    q = cell(0, [(0, 0), (2, 1)])
    assert w_source(q) == cell(0, [(2, 1)])
    assert w_target(q) == cell(0, [(2, 1)])


def test_level_zero_has_no_boundary():
    with pytest.raises(NoSource):
        w_source(2)
    with pytest.raises(NoSource):
        w_target(0)


def test_globularity_on_enumerated_cells():
    for q in w_enumerate(2, 3) + w_enumerate(3, 2):
        assert w_source(w_source(q)) == w_source(w_target(q))
        assert w_target(w_source(q)) == w_target(w_target(q))


# --------------------------------------------------------------- identity

def test_identity_of_an_integer():
    assert w_identity(2) == cell(0, [(2, 2)])


def test_iterated_identity():
    assert w_identity(w_identity(2)) == cell(0, [(0, 0), (2, 2)])


def test_identity_boundaries():
    q = cell(1, [(3, 0)])
    assert w_source(w_identity(q)) == q
    assert w_target(w_identity(q)) == q


# ---------------------------------------------------------------- compose

def test_compose_level_one():
    a = cell(0, [(2, 1)])
    c = cell(0, [(1, 0)])
    assert w_compose(0, a, c) == cell(0, [(2, 0)])


def test_compose_depth_zero_at_level_two():
    a = cell(0, [(0, 0), (2, 1)])
    c = cell(0, [(0, 0), (1, 0)])
    assert w_compose(0, a, c) == cell(0, [(0, 0), (2, 0)])


def test_compose_top_depth_keeps_lower_spine():
    a = cell(0, [(2, 1), (3, 0)])
    c = cell(0, [(1, 0), (3, 0)])
    assert w_compose(1, a, c) == cell(0, [(2, 0), (3, 0)])


def test_compose_of_hand_built_list_spines():
    a = WCell(0, [(2, 1), (3, 0)])
    c = WCell(0, [(1, 0), (3, 0)])
    assert w_compose(1, a, c) == cell(0, [(2, 0), (3, 0)])
    assert w_compose(0, WCell(0, [(2, 1)]), WCell(0, [(1, 0)])) == cell(0, [(2, 0)])


def test_compose_heads_add():
    a = cell(1, [(3, 1)])
    c = cell(0, [(1, 0)])
    assert w_compose(0, a, c) == cell(1, [(3, 0)])


def test_compose_mismatch_at_p():
    with pytest.raises(NotComposable):
        w_compose(0, cell(0, [(2, 1)]), cell(0, [(2, 0)]))


def test_compose_mismatch_below_p():
    a = cell(0, [(2, 1), (3, 0)])
    c = cell(0, [(1, 0), (3, 1)])
    with pytest.raises(NotComposable):
        w_compose(1, a, c)


def test_compose_bad_arguments():
    a = cell(0, [(2, 1)])
    with pytest.raises(InvalidArguments):
        w_compose(1, a, a)  # p must be < level
    with pytest.raises(InvalidArguments):
        w_compose(0, a, cell(0, [(0, 0), (1, 0)]))  # level mismatch


def test_composable_predicate():
    a = cell(0, [(2, 1)])
    c = cell(0, [(1, 0)])
    assert w_composable(0, a, c)
    assert not w_composable(0, c, a)


def test_source_of_composite_at_top_depth():
    # s(C o A) = s(A), t(C o A) = t(C) when p = l-1
    a = cell(0, [(2, 1)])
    c = cell(0, [(1, 0)])
    out = w_compose(0, a, c)
    assert w_source(out) == w_source(a)
    assert w_target(out) == w_target(c)


def test_unit_law_instance():
    a = cell(0, [(1, 0), (3, 1)])
    t = w_target(a)
    assert w_compose(1, a, w_identity(t)) == a
    s = w_source(a)
    assert w_compose(1, w_identity(s), a) == a


# -------------------------------------------------------------- enumerate

# Counts frozen from the brute-force oracle (tests/oracles.py).
ENUM_COUNTS = {
    (0, 3): 4,
    (1, 2): 7,
    (1, 3): 14,
    (2, 2): 8,
    (2, 3): 20,
    (3, 2): 8,
    (3, 3): 21,
}


@pytest.mark.parametrize("level,bound", sorted(ENUM_COUNTS))
def test_enumerate_counts(level, bound):
    assert len(w_enumerate(level, bound)) == ENUM_COUNTS[(level, bound)]


@pytest.mark.parametrize("level,bound", sorted(ENUM_COUNTS))
def test_enumerate_matches_brute_force(level, bound):
    got = w_enumerate(level, bound)
    want = brute_wcells(level, bound)
    if level == 0:
        assert got == want
    else:
        assert [(q.head, q.spine) for q in got] == want


def test_enumerate_level_one_bound_two_membership():
    got = set(w_enumerate(1, 2))
    assert cell(0, [(0, 0)]) in got
    assert cell(0, [(1, 0)]) in got
    assert cell(1, [(2, 0)]) in got
    assert cell(0, [(2, 2)]) in got
    assert WCell(2, ((2, 0),)) not in got  # not even a valid cell
    assert len(got) == 7


def test_enumerate_is_sorted():
    out = w_enumerate(2, 3)
    assert out == sorted(out, key=lambda q: (q.head, q.spine))


@pytest.mark.parametrize("bad", [1.5, "1", True, None], ids=["float", "str", "bool", "none"])
def test_enumerate_rejects_a_non_int_level_or_bound(bad):
    # a float level used to recurse through 0.5, -0.5, ... to RecursionError,
    # and True was taken for 1
    for level, bound in ((bad, 2), (2, bad)):
        with pytest.raises(InvalidArguments, match="must be integers"):
            w_enumerate(level, bound)
    with pytest.raises(InvalidArguments, match="must be integers"):
        WCategory(max_level=2, bound=2).cells(bad)


def test_enumerate_keeps_the_negative_message():
    for level, bound in ((-1, 2), (2, -1)):
        with pytest.raises(InvalidArguments, match="^level and bound must be non-negative$"):
            w_enumerate(level, bound)


def test_enumerate_closed_under_boundaries():
    for level, bound in ((1, 3), (2, 3), (3, 2)):
        cells = set(w_enumerate(level - 1, bound))
        for q in w_enumerate(level, bound):
            assert w_source(q) in cells
            assert w_target(q) in cells


# ----------------------------------------------------------------- render

def test_render():
    assert w_render(2) == "2"
    assert w_render(cell(0, [(2, 1)])) == "(0, [2 ; 1])"
    assert w_render(cell(0, [(0, 0), (2, 1)])) == "(0, [0 2 ; 0 1])"
    assert str(cell(1, [(3, 0)])) == "(1, [3 ; 0])"


# ------------------------------------------------------ property checks

@given(st.sampled_from(w_enumerate(2, 3)), st.sampled_from(w_enumerate(2, 3)), st.integers(0, 1))
def test_prop_compose_closure_level_two(a, c, p):
    # any composable pair composes to a valid cell (w_make re-validates)
    if w_composable(p, a, c):
        out = w_compose(p, a, c)
        assert out.level == 2


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=200)
def test_prop_random_cells_are_valid(seed, level):
    rng = random.Random(seed)
    head, spine = random_wcell(rng, level, 4)
    q = w_make(head, spine)  # must not raise
    assert q.level == level


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=200)
def test_prop_random_composable_pairs_compose(seed, level):
    rng = random.Random(seed)
    p = rng.randint(0, level - 1)
    (ha, sa), (hc, sc) = random_composable_wpair(rng, level, p, 4)
    a, c = w_make(ha, sa), w_make(hc, sc)
    out = w_compose(p, a, c)  # closure: construction re-validates
    assert out.level == level


def assert_valid_composite(p, a, c):
    # valid although w_compose no longer goes through w_make, and the
    # composite of the comp-st law: inner's depth-p source, outer's target
    out = w_compose(p, a, c)
    assert ok_wtuple(out.head, out.spine)
    assert out == w_make(out.head, out.spine)
    assert out.level == a.level
    s_out, s_a, t_out, t_c = out, a, out, c
    for _ in range(a.level - p):
        s_out, s_a = w_source(s_out), w_source(s_a)
        t_out, t_c = w_target(t_out), w_target(t_c)
    assert s_out == s_a and t_out == t_c


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=300)
def test_prop_composites_are_valid_by_construction(seed, level):
    rng = random.Random(seed)
    p = rng.randint(0, level - 1)
    (ha, sa), (hc, sc) = random_composable_wpair(rng, level, p, 4)
    assert_valid_composite(p, w_make(ha, sa), w_make(hc, sc))


def test_every_composable_pair_of_w33_composes_to_a_valid_cell():
    composed = 0  # 198 pairs over levels 1-3, by the brute-force oracle
    for level in range(1, 4):
        cells = w_enumerate(level, 3)
        for p in range(level):
            for a in cells:
                for c in cells:
                    if w_composable(p, a, c):
                        assert_valid_composite(p, a, c)
                        composed += 1
    assert composed == 198


def test_composing_invalid_cells_still_names_the_constraint():
    # only cells that were never valid give an invalid composite
    a = WCell(1, ((0, 0),))  # a degenerate pair needs 0 above it
    with pytest.raises(ConstraintViolation, match="entry above a degenerate pair"):
        w_compose(0, a, cell(0, [(0, 0)]))


def _hand_built(level, bound):
    """Every WCell(head, spine) at the level with entries 0..bound, valid or not."""
    entries = range(bound + 1)
    return [
        WCell(head, tuple(zip(flat[::2], flat[1::2])))
        for head in entries
        for flat in itertools.product(entries, repeat=2 * level)
    ]


def _outcome(build, *args):
    """What build(*args) gives: a cell, or a ConstraintViolation's (text, level)."""
    try:
        return build(*args)
    except ConstraintViolation as e:
        return str(e), e.level


def test_make_and_compose_share_the_one_constraint_check():
    # w_make raises iff the oracle rejects the tuple, entries 0..3 at levels 1-2
    made = [q for level in (1, 2) for q in _hand_built(level, 3)]
    assert len(made) == 64 + 1024
    for q in made:
        assert isinstance(_outcome(w_make, *q), WCell) == ok_wtuple(*q)
    # w_compose on every composable pair of hand-built cells, valid or not, with
    # entries 0..3 at level 1 and 0..2 at level 2 (to stay well under a second):
    # it raises iff the oracle rejects the spliced composite, with w_make's text
    # and level
    composed = Counter()
    for level, bound in ((1, 3), (2, 2)):
        built = _hand_built(level, bound)
        for p in range(level):
            top = level - 1 - p
            for q in built:
                for r in built:
                    if not w_composable(p, q, r):
                        continue
                    head = q.head + r.head
                    spine = tuple((a + c, b + d) for (a, b), (c, d) in zip(q.spine[:top], r.spine[:top]))
                    spine += ((q.spine[top][0], r.spine[top][1]),) + q.spine[top + 1 :]
                    out = _outcome(w_compose, p, q, r)
                    assert out == _outcome(w_make, head, spine)
                    assert isinstance(out, WCell) == ok_wtuple(head, spine)
                    composed[isinstance(out, WCell)] += 1
    assert composed == {True: 136, False: 22758}  # valid composites, raising ones
