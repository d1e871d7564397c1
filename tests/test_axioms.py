"""The axiom engine: green on the strict categories, loud on broken ones."""

import hashlib
import json
import random
import re
import sys
from collections import Counter

import pytest

from ncat.axioms import (
    AXIOM_IDS,
    _assoc,
    _nullary_interchange,
    _Run,
    _unit,
    check_axioms,
    check_globularity,
    composable,
)
from ncat.errors import ConstraintViolation, InvalidArguments, NCatError, NotComposable
from ncat.flowdata import parse_flow_data
from ncat.functors import check_functor_laws
from ncat.torus import torus_flow_data
from ncat.vcat import VCategory, VCell, v_compose
from ncat.wcat import (
    WCategory,
    WCell,
    w_compose,
    w_enumerate,
    w_identity,
    w_make,
    w_render,
    w_source,
    w_target,
)
from ncat.xcat import XCategory

from oracles import brute_composable_pairs, capped_law_instances, chain_document, sampled_levels


def test_composable_matches_brute_force():
    cat = WCategory(max_level=2, bound=2)
    for l, p in ((1, 0), (2, 0), (2, 1)):
        cells = cat.cells(l)
        want = brute_composable_pairs(cells, p, w_source, w_target, cat.level_of)
        got = [(a, c) for a in cells for c in cells if composable(cat, p, a, c)]
        assert got == want


def test_composable_rejects_bad_arguments():
    cat = WCategory()
    a = cat.cells(1)[0]
    with pytest.raises(InvalidArguments):
        composable(cat, 1, a, a)
    with pytest.raises(InvalidArguments):
        composable(cat, 0, a, cat.cells(2)[0])


def test_globularity_w():
    report = check_globularity(WCategory(max_level=3, bound=3))
    assert report.passed
    assert {e.axiom for e in report.entries} == {"globular-ss", "globular-ts"}
    assert report.entry("globular-ss").checked > 0


def test_axioms_w_all_pass():
    report = check_axioms(WCategory(max_level=3, bound=3))
    assert report.passed
    assert [e.axiom for e in report.entries] == list(AXIOM_IDS[2:])
    for e in report.entries:
        assert e.checked > 0, f"{e.axiom} never fired"


def test_axioms_v_all_pass():
    report = check_axioms(VCategory(max_level=3, bound=2))
    assert report.passed
    assert all(e.checked > 0 for e in report.entries)


def test_globularity_v():
    assert check_globularity(VCategory(max_level=3, bound=2)).passed


def test_report_is_deterministic():
    a = check_axioms(WCategory(max_level=2, bound=3), seed=5, samples=10)
    b = check_axioms(WCategory(max_level=2, bound=3), seed=5, samples=10)
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_subsampling_caps_the_cells():
    report = check_axioms(WCategory(max_level=1, bound=3), samples=3)
    # level-1 has 14 cells at bound 3; id-st sees levels 0 only (n=1),
    # so count the unit checks instead: 3 cells, p=0 each
    assert report.entry("unit").checked == 3


class HeavyCompose(WCategory):
    """Deliberately wrong: composition inflates the head by one."""

    def compose(self, p, a, c):
        out = w_compose(p, a, c)
        return WCell(out.head + 1, out.spine)


def test_broken_compose_is_reported_not_raised():
    # nothing may raise out of the engine, even when composites go bad
    report = check_axioms(HeavyCompose(max_level=2, bound=3), samples=200)
    assert not report.passed
    assert report.entry("unit").verdict == "fail"
    assert report.entry("unit").failures  # witnesses recorded


class LazyIdentity(WCategory):
    """Deliberately wrong: the identity forgets the head history."""

    def identity(self, cell):
        if isinstance(cell, int):
            return WCell(0, ((cell, cell),))
        return WCell(0, ((0, 0),) + cell.spine)


def test_broken_identity_is_reported():
    report = check_axioms(LazyIdentity(max_level=2, bound=3), samples=200)
    assert not report.passed
    assert report.entry("id-st").verdict == "fail"


def test_to_dict_shape():
    report = check_axioms(WCategory(max_level=1, bound=2))
    d = report.to_dict()
    assert d["passed"] is True
    assert {e["axiom"] for e in d["entries"]} == set(AXIOM_IDS[2:])
    assert all(set(e) == {"axiom", "checked", "failures", "verdict"} for e in d["entries"])


HEAVY_COUNTS = {
    "globular-ss": (20, 0), "globular-ts": (20, 0), "comp-st": (101, 88), "id-st": (18, 0),
    "assoc": (165, 250), "unit": (54, 108), "binary-interchange": (60, 120),
    "nullary-interchange": (30, 30),
}
HEAVY_FIRST = {
    "comp-st": "l=2 p=0 A=(0, [0 0 ; 0 0]) C=(0, [0 0 ; 0 0]): s(CoA)=(0, [0 ; 0]) != (1, [0 ; 0])",
    "assoc": "l=1 p=0 A=(0, [0 ; 0]) C=(0, [0 ; 0]) E=(0, [0 ; 0]): raised level 0: "
    "entry above a degenerate pair (i_0=j_0=0) must be 0, got 1",
    "unit": "l=1 p=0 A=(0, [0 ; 0]): 1-tower o_p A = (1, [0 ; 0]) != A",
    "binary-interchange": "l=2 p=1 q=0 A=(0, [0 0 ; 0 0]) C=(0, [0 0 ; 0 0]) "
    "E=(0, [0 0 ; 0 0]) H=(0, [0 0 ; 0 0]): raised level 1: "
    "entry above a degenerate pair (i_1=j_1=0) must be 0, got 2",
    "nullary-interchange": "l=1 p=0 A=(0, [0 ; 0]) C=(0, [0 ; 0]): "
    "(1, [0 0 ; 0 0]) != (0, [1 0 ; 1 0])",
}
LAZY_COUNTS = {
    "globular-ss": (20, 0), "globular-ts": (20, 0), "comp-st": (101, 0), "id-st": (18, 4),
    "assoc": (165, 0), "unit": (54, 15), "binary-interchange": (60, 0),
    "nullary-interchange": (30, 0),
}
LAZY_FIRST = {
    "id-st": "level 1: A=(1, [2 ; 0])",
    "unit": "l=2 p=1 A=(0, [1 2 ; 0 0]): raised not composable at p=1: "
    "j_p of inner is 0, i_p of outer is 1",
}


@pytest.mark.parametrize(
    "cls, counts, first",
    [(HeavyCompose, HEAVY_COUNTS, HEAVY_FIRST), (LazyIdentity, LAZY_COUNTS, LAZY_FIRST)],
    ids=["heavy-compose", "lazy-identity"],
)
def test_witnesses_of_broken_categories(cls, counts, first):
    cat = cls(max_level=2, bound=3)
    report = check_globularity(cat).merged(check_axioms(cat, samples=200))
    assert {e.axiom: (e.checked, len(e.failures)) for e in report.entries} == counts
    assert {e.axiom: e.failures[0].detail for e in report.entries if e.failures} == first


class CountsRenders:
    renders = 0

    def render(self, cell):
        self.renders += 1
        return super().render(cell)


class CountingW(CountsRenders, WCategory):
    pass


class CountingHeavy(CountsRenders, HeavyCompose):
    pass


def test_passing_run_renders_nothing():
    cat = CountingW(max_level=3, bound=3)
    report = check_globularity(cat).merged(check_axioms(cat))
    assert report.passed
    assert cat.renders == 0


def test_witnesses_render_the_cells_they_name():
    cat = CountingHeavy(max_level=2, bound=3)
    report = check_axioms(cat, samples=200)
    assert cat.renders > 0
    a = cat.cells(1)[0]
    detail = report.entry("unit").failures[0].detail
    assert detail.startswith(f"l=1 p=0 A={w_render(a)}: ")
    assert f"= {w_render(cat.compose(0, a, w_identity(w_target(a))))} != A" in detail


class LowComposeRaises(WCategory):
    """Deliberately broken: composing level-1 cells raises."""

    def compose(self, p, a, c):
        if self.level_of(a) == 1:
            raise NotComposable(p, "level-1 composition is broken")
        return w_compose(p, a, c)


class IdentityRaises(WCategory):
    """Deliberately broken: no cell has an identity."""

    def identity(self, cell):
        raise InvalidArguments("no identities here")


class TargetRaises(WCategory):
    """Deliberately broken: level-1 cells have no target."""

    def target(self, cell):
        if self.level_of(cell) == 1:
            raise InvalidArguments("no targets of level-1 cells")
        return super().target(cell)


BROKEN = ": raised not composable at p=0: level-1 composition is broken"
LOW_COMPOSE_COUNTS = {
    "comp-st": (23, 40), "id-st": (10, 0), "assoc": (49, 36), "unit": (23, 14),
    "binary-interchange": (16, 0), "nullary-interchange": (12, 12),
}
LOW_COMPOSE_FIRST = {
    "comp-st": "l=1 p=0 A=(0, [0 ; 0]) C=(0, [0 ; 0])" + BROKEN,
    "assoc": "l=1 p=0 A=(0, [0 ; 0]) C=(0, [0 ; 0]) E=(0, [0 ; 0])" + BROKEN,
    "unit": "l=1 p=0 A=(0, [0 ; 0])" + BROKEN,
    "nullary-interchange": "l=1 p=0 A=(0, [0 ; 0]) C=(0, [0 ; 0])" + BROKEN,
}
IDENTITY_COUNTS = {
    "comp-st": (35, 0), "id-st": (10, 10), "assoc": (49, 0), "unit": (23, 46),
    "binary-interchange": (16, 0), "nullary-interchange": (12, 24),
}
IDENTITY_FIRST = {
    "id-st": "level 0: A=0: raised no identities here",
    "unit": "l=1 p=0 A=(0, [0 ; 0]): raised no identities here",
    "nullary-interchange": "l=1 p=0 A=(0, [0 ; 0]) C=(0, [0 ; 0]): raised no identities here",
}


class NormalizeRaises(HeavyCompose):
    """Deliberately broken: level-1 cells with head 1 have no normal form."""

    def normalize(self, cell):
        if self.level_of(cell) == 1 and cell.head == 1:
            raise InvalidArguments("no normal form")
        return super().normalize(cell)


NO_NORMAL = ": raised no normal form"
NORMALIZE_RAISES_COUNTS = {
    "comp-st": (32, 30), "id-st": (10, 0), "assoc": (45, 78), "unit": (23, 46),
    "binary-interchange": (10, 20), "nullary-interchange": (12, 12),
}
NORMALIZE_RAISES_FIRST = {
    "comp-st": "l=2 p=0 A=(0, [0 0 ; 0 0]) C=(0, [0 0 ; 0 0])" + NO_NORMAL,
    "assoc": HEAVY_FIRST["assoc"],
    "unit": "l=1 p=0 A=(0, [0 ; 0])" + NO_NORMAL,
    "binary-interchange": HEAVY_FIRST["binary-interchange"],
    "nullary-interchange": HEAVY_FIRST["nullary-interchange"],
}


@pytest.mark.parametrize(
    "cls, counts, first",
    [
        (LowComposeRaises, LOW_COMPOSE_COUNTS, LOW_COMPOSE_FIRST),
        (IdentityRaises, IDENTITY_COUNTS, IDENTITY_FIRST),
    ],
    ids=["low-compose-raises", "identity-raises"],
)
def test_raising_category_calls_are_witnesses(cls, counts, first):
    report = check_axioms(cls(max_level=2, bound=2))
    assert {e.axiom: (e.checked, len(e.failures)) for e in report.entries} == counts
    assert {e.axiom: e.failures[0].detail for e in report.entries if e.failures} == first


def test_raising_normalize_of_compared_sides_is_a_witness():
    # comparing two sides normalizes them, under the same guard as the sides
    test_raising_category_calls_are_witnesses(
        NormalizeRaises, NORMALIZE_RAISES_COUNTS, NORMALIZE_RAISES_FIRST
    )


def test_raising_expected_boundary_is_a_witness():
    # comp-st composes the boundaries of a level-2 pair one level down
    report = check_axioms(LowComposeRaises(max_level=2, bound=2))
    details = [f.detail for f in report.entry("comp-st").failures]
    assert details.count("l=2 p=0 A=(0, [0 0 ; 0 0]) C=(0, [0 0 ; 0 0])" + BROKEN) == 2
    assert sum(d.startswith("l=2 ") for d in details) == 28


def test_raising_boundary_in_globularity_is_a_witness():
    report = check_globularity(TargetRaises(max_level=2, bound=2))
    assert {e.axiom: (e.checked, len(e.failures)) for e in report.entries} == {
        "globular-ss": (8, 0), "globular-ts": (8, 8),
    }
    assert report.entry("globular-ts").failures[0].detail == (
        "level 2: x=(0, [0 0 ; 0 0]): raised no targets of level-1 cells"
    )


def _witnesses(ctx, lhs, rhs, render):
    """What the engine records for one two-sided instance: each side that
    raises, then a mismatch of two computed sides."""
    out, sides = [], []
    for side in (lhs, rhs):
        try:
            sides.append(side())
        except NCatError as e:
            out.append(f"{ctx}: raised {e}")
    if len(sides) == 2 and sides[0] != sides[1]:
        out.append(f"{ctx}: {render(sides[0])} != {render(sides[1])}")
    return out


def _check_capped_order(cat, cap):
    """Assert that check_axioms(cat, samples=cap) checks the assoc and
    binary-interchange instances of capped_law_instances, in its order,
    with the witnesses each gives; return the report."""
    report = check_axioms(cat, samples=cap)
    r, comp = cat.render, cat.compose
    cap = 10**9 if cap is None else cap
    assoc, interchange = [], []
    for l, cells in sampled_levels(cat, range(cat.max_level + 1), 0, cap).items():
        triples, quads = capped_law_instances(cells, l, cap, cat.source, cat.target)
        for p, found in triples.items():
            for a, c, e in found:
                assoc.append(_witnesses(
                    f"l={l} p={p} A={r(a)} C={r(c)} E={r(e)}",
                    lambda: comp(p, comp(p, a, c), e),
                    lambda: comp(p, a, comp(p, c, e)),
                    r,
                ))
        for (p, q), found in quads.items():
            for a, c, e, h in found:
                interchange.append(_witnesses(
                    f"l={l} p={p} q={q} A={r(a)} C={r(c)} E={r(e)} H={r(h)}",
                    lambda: comp(q, comp(p, a, c), comp(p, e, h)),
                    lambda: comp(p, comp(q, a, e), comp(q, c, h)),
                    r,
                ))
    for axiom, want in (("assoc", assoc), ("binary-interchange", interchange)):
        entry = report.entry(axiom)
        assert entry.checked == len(want)
        assert [f.detail for f in entry.failures] == [w for ws in want for w in ws]
    return report


@pytest.mark.parametrize("cap", [20, 25, 50, 200])
def test_capped_assoc_and_interchange_keep_the_all_pairs_order(cap):
    report = _check_capped_order(HeavyCompose(max_level=3, bound=3), cap)
    # the cap cuts both laws short below 200 (306 and 203 instances uncapped)
    assert (report.entry("assoc").checked < 306) == (cap < 200)
    assert (report.entry("binary-interchange").checked < 203) == (cap < 200)


class HeavyVCompose(VCategory):
    """HeavyCompose's fault in V: composition inflates the head by one."""

    def compose(self, p, a, c):
        out = v_compose(p, a, c).dims
        return VCell(WCell(out.head + 1, out.spine))


@pytest.mark.parametrize("cap", [40, None], ids=["cap-40", "uncapped"])
@pytest.mark.parametrize("cls", [HeavyCompose, HeavyVCompose], ids=["w", "v"])
def test_capped_order_holds_at_level_four(cls, cap):
    # at level 4 the cap of 40 cuts the depth-0 pairs (80) and the (p, q)
    # quadruple lists (1, 0), (2, 0) and (3, 0) (64, 48 and 46) partway
    report = _check_capped_order(cls(max_level=4, bound=3), cap)
    checked = (report.entry("assoc").checked, report.entry("binary-interchange").checked)
    assert checked == ((468, 443) if cap is None else (338, 353))


def test_negative_samples_are_invalid_arguments():
    with pytest.raises(InvalidArguments):
        check_axioms(WCategory(max_level=1, bound=2), samples=-1)
    # "3" raised TypeError, 1.5 failed inside random.sample, and True meant 1
    for bad in ("3", 1.5, True, False):
        with pytest.raises(InvalidArguments, match=f"^samples must be an integer or None, got {bad!r}$"):
            check_axioms(WCategory(max_level=1, bound=2), samples=bad)
    with pytest.raises(InvalidArguments, match="^samples must be non-negative, got -1$"):
        check_axioms(WCategory(max_level=1, bound=2), samples=-1)


@pytest.mark.parametrize("cap", [sys.maxsize, sys.maxsize + 1, 2**70], ids=["maxsize", "maxsize+1", "2**70"])
@pytest.mark.parametrize(
    "cat", [lambda: WCategory(2, 2), lambda: XCategory(torus_flow_data(), include_composites=True)], ids=["w", "x"]
)
def test_a_cap_past_maxsize_checks_everything(cat, cap):
    # islice took no stop past sys.maxsize: these caps raised ValueError
    assert check_axioms(cat(), samples=cap) == check_axioms(cat(), samples=10**9)


@pytest.mark.parametrize("bad", [1.5, "1", True, None], ids=["float", "str", "bool", "none"])
@pytest.mark.parametrize("cat", [WCategory(max_level=2, bound=2), VCategory(max_level=2, bound=2)], ids=["w", "v"])
def test_non_int_level_is_invalid_arguments(cat, bad):
    with pytest.raises(InvalidArguments, match="must be integers"):
        check_axioms(cat, levels=[bad])
    with pytest.raises(InvalidArguments, match="must be integers"):
        check_globularity(cat, levels=[bad])


@pytest.mark.parametrize(
    "cat",
    [lambda: WCategory(max_level=2, bound=2), lambda: VCategory(max_level=2, bound=2),
     lambda: XCategory(torus_flow_data(), include_composites=True)],
    ids=["w", "v", "x"],
)
def test_a_negative_level_raises_the_categorys_own_error(cat):
    # the level filter used to drop -1, so both checks passed with every count 0
    with pytest.raises(InvalidArguments) as want:
        cat().cells(-1)
    for check in (check_axioms, check_globularity):
        with pytest.raises(InvalidArguments) as got:
            check(cat(), levels=[-1])
        assert str(got.value) == str(want.value)
    assert all(e.checked == 0 for e in check_globularity(cat(), levels=[0, 1]).entries)


def test_unknown_axiom_entry_is_invalid_arguments():
    report = check_axioms(WCategory(max_level=1, bound=2))
    assert report.entry("assoc").axiom == "assoc"
    with pytest.raises(InvalidArguments, match="unknown axiom 'associativity'"):
        report.entry("associativity")


def test_raising_chain_walk_is_a_comp_st_witness():
    # target raises on every level-1 cell, so no level-1 cell has a depth-0
    # t-chain and no level-2 cell a depth-0 chain: each is one comp-st
    # witness, left out of that pair list; (2, 1) keeps its pairs
    report = check_axioms(TargetRaises(max_level=2, bound=2))
    assert {e.axiom: (e.checked, len(e.failures)) for e in report.entries} == {
        "comp-st": (9, 15), "id-st": (10, 3), "assoc": (10, 0), "unit": (23, 15),
        "binary-interchange": (0, 0), "nullary-interchange": (0, 0),
    }
    details = [f.detail for f in report.entry("comp-st").failures]
    raised = ": raised no targets of level-1 cells"
    assert details[0] == "l=1 p=0 x=(0, [0 ; 0])" + raised
    assert details[7] == "l=2 p=0 x=(0, [0 0 ; 0 0])" + raised
    assert [d.split(" x=")[0] for d in details] == ["l=1 p=0"] * 7 + ["l=2 p=0"] * 8


class CountsComposites:
    """Counts each cat.compose call by its arguments."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.composed = Counter()

    def compose(self, p, a, c):
        self.composed[p, a, c] += 1
        return super().compose(p, a, c)


class CountingComposeW(CountsComposites, WCategory):
    pass


class CountingComposeV(CountsComposites, VCategory):
    pass


@pytest.mark.parametrize(
    "counting, plain, level, bound, samples",
    [
        (CountingComposeW, WCategory, 3, 3, 10**9),
        (CountingComposeV, VCategory, 3, 2, 10**9),
        (CountingComposeW, WCategory, 4, 7, 300),
    ],
    ids=["w33", "v32", "w47-sampled"],
)
def test_each_composite_is_computed_once(counting, plain, level, bound, samples):
    cat = counting(max_level=level, bound=bound)
    report = check_axioms(cat, samples=samples)
    assert cat.composed and set(cat.composed.values()) == {1}
    want = check_axioms(plain(max_level=level, bound=bound), samples=samples)
    assert report.to_dict() == want.to_dict()


MAPS = ("source", "target", "identity", "normalize")


class CountsMaps:
    """Counts each call of a one-cell map (MAPS) by map and argument."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handed = Counter()

    def source(self, cell):
        self.handed["source", cell] += 1
        return super().source(cell)

    def target(self, cell):
        self.handed["target", cell] += 1
        return super().target(cell)

    def identity(self, cell):
        self.handed["identity", cell] += 1
        return super().identity(cell)

    def normalize(self, cell):
        self.handed["normalize", cell] += 1
        return super().normalize(cell)


class CountingMapsW(CountsMaps, WCategory):
    pass


class CountingMapsV(CountsMaps, VCategory):
    pass


@pytest.mark.parametrize(
    "counting, plain, level, bound, samples",
    [
        (CountingMapsW, WCategory, 3, 3, 10**9),
        (CountingMapsV, VCategory, 3, 2, 10**9),
        (CountingMapsW, WCategory, 4, 7, 300),
    ],
    ids=["w33", "v32", "w47-sampled"],
)
def test_each_cell_is_handed_to_each_map_once(counting, plain, level, bound, samples):
    cat = counting(max_level=level, bound=bound)
    report = check_axioms(cat, samples=samples)
    for name in MAPS:
        calls = [n for (m, _), n in cat.handed.items() if m == name]
        assert calls and max(calls) == 1, name
    want = check_axioms(plain(max_level=level, bound=bound), samples=samples)
    assert report.to_dict() == want.to_dict()


class ForgetHead(HeavyCompose):
    """HeavyCompose read up to heads: normalize sets the head to 0, so two
    cells that differ only in their heads are equal."""

    def normalize(self, cell):
        return cell if isinstance(cell, int) else WCell(0, cell.spine)


FORGET_HEAD_COUNTS = {
    "globular-ss": (20, 0), "globular-ts": (20, 0), "comp-st": (101, 47), "id-st": (18, 0),
    "assoc": (330, 586), "unit": (54, 15), "binary-interchange": (164, 328),
    "nullary-interchange": (30, 30),
}


def test_sides_that_are_different_cells_are_still_normalized():
    # the composites of HeavyCompose carry a wrong head; normalize forgets
    # it, so unit fails 15 times here against 108 (HEAVY_COUNTS) for an
    # engine that compared the cells without normalizing them
    cat = ForgetHead(max_level=2, bound=3)
    report = check_globularity(cat).merged(check_axioms(cat, samples=200))
    assert {e.axiom: (e.checked, len(e.failures)) for e in report.entries} == FORGET_HEAD_COUNTS


class OnePairRaises(WCategory):
    """Deliberately broken: one pair of level-2 cells does not compose."""

    PAIR = (WCell(0, ((2, 1), (3, 0))), WCell(0, ((1, 0), (3, 0))))

    def compose(self, p, a, c):
        if (a, c) == self.PAIR:
            raise NotComposable(p, "this pair is broken")
        return w_compose(p, a, c)


BROKEN_PAIR = ": raised not composable at p=1: this pair is broken"
ONE_PAIR_RAISES = {
    "comp-st": (100, 1, "l=2 p=1 A=(0, [2 3 ; 1 0]) C=(0, [1 3 ; 0 0])" + BROKEN_PAIR),
    "id-st": (18, 0, None),
    "assoc": (
        165, 6, "l=2 p=1 A=(0, [2 3 ; 1 0]) C=(0, [1 3 ; 0 0]) E=(0, [0 3 ; 0 0])" + BROKEN_PAIR
    ),
    "unit": (54, 0, None),
    "binary-interchange": (
        60, 4, "l=2 p=1 q=0 A=(0, [0 3 ; 0 3]) C=(0, [0 3 ; 0 3]) "
        "E=(0, [2 3 ; 1 0]) H=(0, [1 3 ; 0 0])" + BROKEN_PAIR
    ),
    "nullary-interchange": (30, 0, None),
}


def test_cached_errors_give_every_instance_its_witness():
    # the pair is composed once per run, yet each instance using it records
    # its own witness: the same ones an engine composing on every use gives
    report = check_axioms(OnePairRaises(max_level=2, bound=3))
    got = {
        e.axiom: (e.checked, len(e.failures), e.failures[0].detail if e.failures else None)
        for e in report.entries
    }
    assert got == ONE_PAIR_RAISES


@pytest.mark.parametrize(
    "counting, plain, level, bound",
    [(CountingMapsW, WCategory, 3, 3), (CountingMapsV, VCategory, 3, 2)],
    ids=["w33", "v32"],
)
def test_globularity_hands_each_cell_to_each_map_once(counting, plain, level, bound):
    cat = counting(max_level=level, bound=bound)
    report = check_globularity(cat)
    for name in ("source", "target", "normalize"):
        assert all(n == 1 for (m, _), n in cat.handed.items() if m == name), name
    assert cat.handed
    assert report.to_dict() == check_globularity(plain(max_level=level, bound=bound)).to_dict()


class ForgetfulCompose(WCategory):
    """Deliberately wrong, and never raising: a composite forgets one unit
    of its inner cell's head, so two sides can be different valid cells."""

    def compose(self, p, a, c):
        out = w_compose(p, a, c)
        return WCell(max(a.head - 1, 0) + c.head, out.spine)


class TopTargetZero(WCategory):
    """Deliberately wrong, and never raising: a composite at the top depth
    gets target entry 0 in its top pair, so its target is the wrong cell."""

    def compose(self, p, a, c):
        out = w_compose(p, a, c)
        if p < a.level - 1:
            return out
        (i, _), *rest = out.spine
        return WCell(out.head, ((i, 0), *rest))


class SpliceMaxCompose(WCategory):
    """Deliberately wrong, and never raising on a composable pair: at depth
    0 above level 1, each pair above the splice gets i = max(i_a, i_c) +
    j_a + j_c where that is a valid cell, so a depth-0 composite can differ
    from a depth-1 one in its spine and binary interchange fails between
    two valid cells."""

    def compose(self, p, a, c):
        out = w_compose(p, a, c)
        if p or a.level < 2:
            return out
        above = [(max(x[0], y[0]) + x[1] + y[1], x[1] + y[1]) for x, y in zip(a.spine, c.spine[:-1])]
        try:
            return w_make(out.head, (*above, out.spine[-1]))
        except ConstraintViolation:
            return out


# sha256 of json.dumps(report.to_dict(), sort_keys=True) for
# check_globularity(cat).merged(check_axioms(cat, samples=s)) on
# cls(max_level=3, bound=3), as the engine gave them before law instances
# were walked optimistically and replayed on failure (SpliceMaxCompose: as
# the engine gave it with the guarded replay)
REPORT_DIGESTS = {
    "HeavyCompose": (
        "e50f2f934acc84cad5e3d9c792e10a861e19e4ecc943f821c962b89f3c819ddb",
        "71a0add8e79c3278e1183779f17bf10d9565f90e0bfcd85b7f29b13f200d5ea1",
        "22ee4143dbc47e14b2b19e623e9dffcdf80e19ac627a505b90aa790dc6464120",
    ),
    "LazyIdentity": (
        "03578523377c6397edd3e990ed3022c0a42964e559e8fed9971b65e4a2c4277b",
        "6ff0345f1e5cce6025fd301a4d7ca93a5940ceddbad8992c50ebe36694a623df",
        "99b701e9d058a553102cc22f56b111bd0d26e700b42be244684d2532097cbfc6",
    ),
    "ForgetHead": (
        "01eb579fd626864bac0564641ad68879d6a03737fe74c048d46a0a359c03ceee",
        "030a56a60609f5040a57518cf9ecda869b0aec4bd523e18824c91165f38f4ccd",
        "a2673ae76c7f5cff748bc9502f189d8f839d27dc94c37b6360f775c91bfcbd12",
    ),
    "LowComposeRaises": (
        "c2f692f7fb398e54ae78e019e68bc76ee747416cebb948567ab28c0206198b3d",
        "ac3d3a4874baa82ed60401c094f26be3ab55fbacc5bbdc34d86c14d97fbc4bd1",
        "37b6abebd36bcef01965989beeacd2165d03fff566548050c28debb93694c99d",
    ),
    "IdentityRaises": (
        "4990eea53579d8f0cd9ff652058afdff9ecb4d248a00c19baf16f350cdbe53fe",
        "b1855c154f18e227ab60708159bfe2ed6479f34073bd43f04283bcb0adb7c383",
        "58ea225f0330f28caafdf072f385f58cca87a5af8fa326ea368d787173244869",
    ),
    "TargetRaises": (
        "951246b438db98628d15500895959d44f1032a1cdd8705624cf6d75ef133a072",
        "a09b75e5142cd2f38060f7e764e52833ab163388e9f1c7dd3e849aef0b23ed24",
        "a09b75e5142cd2f38060f7e764e52833ab163388e9f1c7dd3e849aef0b23ed24",
    ),
    "NormalizeRaises": (
        "690bfff19d5fe86a450f1e436780533fbd888fdc8a6d5b6ef9158b3fc4f34d78",
        "2adeaf90aa8366f442768740dfb49ad703ce75335628b0639fc140b339e0d580",
        "019e9b5f60aa090a0667f5f67b3dd477d5135f888639bbd9a7551610a86e7ce1",
    ),
    "ForgetfulCompose": (
        "6df1a1460df15dd6edd8ee87a758411204b09c81a710d6ea3db7b56e3e7dd4cf",
        "622f2bef7112d3de134c600cc0c287999e545e10cf04e0936f6c92829fbff30b",
        "35d3f25f29eb5e1861b9d39277851d5e106c86e1c5a0b2a6131d1f30581710f6",
    ),
    "TopTargetZero": (
        "5eca64f625a99c74a846cf85607b47aac6ec56ff98b230b0f0568c56c51d7c69",
        "814a7ed31ee1346f2033d686b4b1b5745685938ec415cf1090a29027e7d38e11",
        "137666d1e5336a80b698b0c52f62e41dd147fea24de0bcbc6b53422c5ac24e84",
    ),
    "OnePairRaises": (
        "bc5868ab52017c24db53de83f71b4df9a18d370f40b0cd40aae2e5f9bdbe9026",
        "31d15119fef6f45b23cea9b37a95e9cefb2292cc885d00618850a302ed8d3e6e",
        "fa05341a2e1fb7842d60e1fc249f6618b272baa31be0e883dbc352a629e3ecf4",
    ),
    "SpliceMaxCompose": (
        "c9a08aeb60832729c12996c15d9e11e59b9a943199e67a801c7ff2de66deeb1b",
        "7ab59238e38b6f810898e539af7c03f718a3a91b38de8f82718f8d389cd50d9b",
        "e5de1509d76ec077310a4ad8d42a0c22492d34c6aef5141aa724ce669a7f0b15",
    ),
}


@pytest.mark.parametrize("at", range(3), ids=["samples-20", "samples-50", "samples-200"])
@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_broken_category_reports_are_byte_identical(name, at):
    cat = globals()[name](max_level=3, bound=3)
    report = check_globularity(cat).merged(check_axioms(cat, samples=(20, 50, 200)[at]))
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name][at]


class CallLog:
    """A category seen through a log of every method call made on it."""

    def __init__(self, cat):
        self.cat, self.calls = cat, []

    def __getattr__(self, name):
        attr = getattr(self.cat, name)
        if not callable(attr):
            return attr

        def logged(*args):
            self.calls.append((name, *args))
            return attr(*args)

        return logged


# sha256 of json.dumps([number of calls, sorted distinct reprs of (method,
# *args)]) for the category calls of the REPORT_DIGESTS check, as the
# engine with the guarded replay made them
CALL_DIGESTS = {
    "ForgetHead": (
        "2cf2c4c626c1f3de00cfc5f88ef06ccee7a031517a03276ec4fcd59de2323e89",
        "41517114e31524a546fac1c294d84d0b9abdd6e902019faa5f1908ad5079dace",
        "05de8e8633c0e5a85b9855fa032d599d1922bcb92af7d7d19ead397a67249c64",
    ),
    "ForgetfulCompose": (
        "a73d44ca8b8ada1292a3a113bdb9bb42b1cb007c979df444a517355f7a513f3c",
        "3a6bddf47efcdadd02b8084948512eaf37501f3d55d9051f08d6550462cffa50",
        "3a6bddf47efcdadd02b8084948512eaf37501f3d55d9051f08d6550462cffa50",
    ),
    "HeavyCompose": (
        "9919e4600c074fe88da3175a195edb17070eea67830eab63b19ff832896c4216",
        "173b3d630700b463072cb89b6d4bc0a0b1ca9178b57c305c0ab877bb00eb029e",
        "4ed37be8f78293eddd84b56f362e1e62cfa71bb3c0ab281a665f3be17017416c",
    ),
    "IdentityRaises": (
        "51ed45dcea8832cca016144dacada7785a1c9d9fcd775ca04a1c7fa6842541fd",
        "0c534c08ff5046830a3d00e42a5fb37b9f4407514b0269f5a926f0a71d914186",
        "0c534c08ff5046830a3d00e42a5fb37b9f4407514b0269f5a926f0a71d914186",
    ),
    "LazyIdentity": (
        "28813cd8fe4631e4bb5e070d07dcc929b42200a7c5903d8573f47ddc3dc00a52",
        "99e186e624cfedc3653c51be84c83698f0be03d706e53ed4e32dd11aad7983e6",
        "99e186e624cfedc3653c51be84c83698f0be03d706e53ed4e32dd11aad7983e6",
    ),
    "LowComposeRaises": (
        "4fb12b16392fc68708c75dbb730e1bc06164cbe6d67ed0208d027aa5576bfc81",
        "5be4aa9bf98286d168594b4edfd4e2c245185f728337ec0a249676db48b92801",
        "ac037505db5848da35cd1b49abcf2bbc39b52b80630f4e485f5dac4ec2a97990",
    ),
    "NormalizeRaises": (
        "b71aa220acab0ef7f805889cdb45f2bd5da2b2c30234f7cca9265439eab1e641",
        "ee97bd99d0b91922b35c667256943ecabed7d70ec749c159b4e405a8ab60623a",
        "dbaf15a0dccb3c705762a59bddaba2314056ef4927e946d6c6a876e2aa8266a1",
    ),
    "OnePairRaises": (
        "67c6af3de8f9ea6454659c72f7e63081f1a976fcf964fbed0a8526fae0a2936c",
        "88e31c0d4a0f8b94a6f2689d5c7858b4161e804e9287b8811231d4ec30094611",
        "5ed076fa47af78a8b4c154487489278e4e4b789bd271b3390b4430e5975341ed",
    ),
    "SpliceMaxCompose": (
        "d8aba5fea7ca953e77e2744e77823891771248d9693f219fa74fad39004c8152",
        "fcf5572ce61d02f765c56206fa5d53d8239bc2321d014040fd5674a02572b050",
        "9d02752dc74f367de7c80bad0fe3b357c653153758e1b78af415473cf0fdc393",
    ),
    "TargetRaises": (
        "ab542d634d23dacea3e685bda02602dc34b5caa639f06803a0fdca3a3e5cad71",
        "35961a6e7598bbbb7d004305c33ed61b0757d769b3c6a222cd1132bbbacdc711",
        "35961a6e7598bbbb7d004305c33ed61b0757d769b3c6a222cd1132bbbacdc711",
    ),
    "TopTargetZero": (
        "ccf1e08a830fc60e4a4a71bd4a6f3a1f34bbcb1e9bc3a5fef461077720d58fba",
        "53b9a2556804fd2bc39b8b12187a342ff33763aed4d0574c865e2c0a30e62513",
        "ea8f30c90cb34771db8bc2edd9dbf23bd9f5ed6b29cef3bd8ff9201ae6d86d7b",
    ),
}


@pytest.mark.parametrize("at", range(3), ids=["samples-20", "samples-50", "samples-200"])
@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_broken_category_calls_are_unchanged(name, at):
    # the law engine asks each category for exactly the results it asked for
    # before: a witness path that computed one side more or less shows here
    cat = CallLog(globals()[name](max_level=3, bound=3))
    check_globularity(cat).merged(check_axioms(cat, samples=(20, 50, 200)[at]))
    calls = sorted({repr(call) for call in cat.calls})
    text = json.dumps([len(cat.calls), calls])
    assert hashlib.sha256(text.encode()).hexdigest() == CALL_DIGESTS[name][at]


def seeded_chain(k, m, seed):
    """chain(k, m) with its point ids renamed in a seeded order, which
    reorders its cells."""
    text = json.dumps(chain_document(k, m))
    ids = re.findall(r'"id": "(\w+)"', text)
    for old, new in zip(ids, random.Random(seed).sample(range(len(ids)), len(ids))):
        text = text.replace(f'"{old}"', f'"v{new:02d}"')
    return parse_flow_data(text)


def _settled(monkeypatch, check):
    """check()'s report, and the axiom of each law instance handed to
    _Run.settle: the one path that builds witness contexts and writes
    witnesses."""
    settled = []
    real_settle = _Run.settle

    def counted_settle(run, law, ctx, *sides, each=False):
        settled.append(law.axiom)
        return real_settle(run, law, ctx, *sides, each=each)

    monkeypatch.setattr(_Run, "settle", counted_settle)
    return check(), settled


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_axioms(WCategory(max_level=3, bound=3), samples=10**9),
        lambda: check_axioms(VCategory(max_level=3, bound=2), samples=10**9),
        lambda: check_axioms(WCategory(max_level=4, bound=7), samples=300),
        lambda: check_globularity(WCategory(max_level=4, bound=5)),
        lambda: check_functor_laws(torus_flow_data(), "g"),
        lambda: check_functor_laws(torus_flow_data(), "f"),
        lambda: check_functor_laws(seeded_chain(3, 2, seed=7), "g"),
    ],
    ids=["w33", "v32", "w47-sampled", "w45-globularity", "torus-g", "torus-f", "chain32-g"],
)
def test_passing_run_takes_no_guarded_path(monkeypatch, check):
    report, settled = _settled(monkeypatch, check)
    assert report.passed and all(e.checked > 0 for e in report.entries)
    assert settled == []


def test_failing_run_replays_only_its_failures(monkeypatch):
    # each assoc instance with a witness is settled once, and no other one
    cat = HeavyCompose(max_level=2, bound=3)
    report, settled = _settled(monkeypatch, lambda: check_axioms(cat, samples=200))
    failing = {f.detail.split(": ")[0] for f in report.entry("assoc").failures}
    assert 0 < len(failing) == Counter(settled)["assoc"] < report.entry("assoc").checked
    want = check_axioms(HeavyCompose(max_level=2, bound=3), samples=200)
    assert report.to_dict() == want.to_dict()


@pytest.mark.parametrize(
    "law, walk, per_instance",
    [("assoc", _assoc, 2), ("unit", _unit, 2), ("nullary-interchange", _nullary_interchange, 1)],
)
def test_raise_first_met_in_a_walk_is_one_witness_per_raising_side(law, walk, per_instance):
    # on a fresh run no comp-st walk has composed the level-1 pairs first, so
    # the law's own walk is where the raising compose is first met
    run = _Run(LowComposeRaises(max_level=2, bound=2), 0, 1000, None)
    assert not run.composite
    entry = walk(run)
    assert entry == check_axioms(LowComposeRaises(max_level=2, bound=2)).entry(law)
    assert entry.checked == LOW_COMPOSE_COUNTS[law][0]
    raised = Counter(f.detail[: -len(BROKEN)] for f in entry.failures if f.detail.endswith(BROKEN))
    assert len(raised) == len(entry.failures) // per_instance > 0
    assert set(raised.values()) == {per_instance}


class TallHasNoBoundary(WCategory):
    """Deliberately broken: a level-2 cell whose top pair has i >= 2 has no
    source or target.  Some depth-0 composites of two cells that have
    boundaries are such cells, so comp-st meets a composite whose
    boundaries raise."""

    def _boundary(self, cell, step):
        if self.level_of(cell) == 2 and cell.spine[0][0] >= 2:
            raise InvalidArguments("no boundaries of tall level-2 cells")
        return step(cell)

    def source(self, cell):
        return self._boundary(cell, super().source)

    def target(self, cell):
        return self._boundary(cell, super().target)


TALL = ": raised no boundaries of tall level-2 cells"


def _tall(cell):
    return cell.level == 2 and cell.spine[0][0] >= 2


@pytest.mark.parametrize("p", [0, 1])
def test_composable_raises_a_stored_boundary_error(p):
    # composable walks the chains by category calls, and a boundary raises
    cat = TallHasNoBoundary(max_level=2, bound=4)
    tall = next(x for x in cat.cells(2) if _tall(x))
    with pytest.raises(InvalidArguments, match="^no boundaries of tall level-2 cells$"):
        composable(cat, p, tall, tall)


def test_globularity_computes_no_rhs_after_a_raising_lhs():
    # s(x) raises on a tall x, so both laws' lhs raise and neither rhs is
    # computed; only an rhs would ask for t(x)
    cat = CallLog(TallHasNoBoundary(max_level=2, bound=4))
    report = check_globularity(cat)
    assert {e.axiom: (e.checked, len(e.failures)) for e in report.entries} == {
        "globular-ss": (46, 19), "globular-ts": (46, 19),
    }
    assert all(f.detail.endswith(TALL) for e in report.entries for f in e.failures)
    assert not [call for call in cat.calls if call[0] == "target" and _tall(call[1])]


def test_comp_st_reads_no_expected_side_after_a_raising_boundary():
    # on level 2 alone, comp-st is the one law that composes level-1 cells:
    # a pair's boundaries, for the expected s(CoA) and t(CoA).  A pair with
    # a tall composite has heads summing to 2 or more on both boundaries,
    # which no pair with a short composite has, so only reading the
    # expected side after the raising one composes such boundaries
    cat = CallLog(TallHasNoBoundary(max_level=2, bound=4))
    report = check_axioms(cat, levels=[2])
    assert report.entry("comp-st").checked == 112
    details = [f.detail for f in report.entry("comp-st").failures]
    assert sum(d.startswith("l=2 p=0 A=") and d.endswith(TALL) for d in details) == 8
    low = [call[1:] for call in cat.calls if call[0] == "compose" and call[2].level == 1]
    assert low and all(w_compose(*args).head < 2 for args in low)
