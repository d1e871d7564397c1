"""Labels, the normalization rewrite system, and the Morse category ops.

The confluence test rebuilds the rewrite rules in raw one-step form and
applies them in hypothesis-chosen random order to every label the torus
data can actually produce (composition closure plus unit towers); the
result must always equal normalize()'s.
"""

import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncat.axioms as axioms
import ncat.xcat as xcat
from ncat.axioms import check_axioms, check_globularity
from ncat.cli import main as cli_main
from ncat.errors import FlowDataInconsistent, InvalidArguments, NoSource, NotComposable
from ncat.flowdata import FlowData, parse_flow_data, validate_flow_data
from ncat.families import tilted_torus
from ncat.functors import check_functor_laws
from ncat.torus import torus_document, torus_flow_data
from ncat.xcat import (
    Atom,
    Pt,
    Seq,
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

from oracles import (
    chain_closure_counts,
    chain_document,
    naive_closure,
    reference_compose,
    reference_normalize,
    uncached_cell_key,
    uncached_label_key,
)

FD = torus_flow_data()


def chain_fd(k, m):
    fd = parse_flow_data(json.dumps(chain_document(k, m)))
    assert validate_flow_data(fd).passed
    return fd


def tt_fd(n):
    fd = parse_flow_data(json.dumps(tilted_torus(n)))
    assert validate_flow_data(fd).passed
    return fd


def atom(i):
    return Atom(i)


def seq(*parts):
    return Seq(tuple(parts))


# ----------------------------------------------------------------- labels

def test_seq_needs_two_parts():
    with pytest.raises(InvalidArguments):
        Seq((atom("a"),))


def test_label_rendering():
    assert str(seq(atom("a"), Pt(atom("b")))) == "(a, pt(b))"


def test_label_key_orders_atoms_diagonals_gluings():
    a, p, s = atom("a"), Pt(atom("a")), seq(atom("a"), atom("b"))
    assert sorted([s, p, a]) == sorted([s, p, a], key=uncached_label_key) == [a, p, s]


def test_point_like():
    assert point_like(Pt(atom("anything")), FD)
    assert point_like(atom("wx_d"), FD)  # home is zero-dimensional
    assert not point_like(atom("wz_max_dd"), FD)  # home is one-dimensional
    assert not point_like(atom("w"), FD)  # base points are not
    assert point_like(seq(atom("wx_d"), atom("xz_s")), FD)
    assert not point_like(seq(atom("wx_d"), atom("wz_min_dd")), FD)


# -------------------------------------------------------------- normalize

def test_normalize_flattens():
    out = normalize(seq(seq(atom("wx_d"), atom("xz_d")), atom("q")), FD)
    assert out == seq(atom("wx_d"), atom("xz_d"), atom("q"))


def test_normalize_absorbs_diagonal_pieces():
    # gluing a diagonal point onto a real piece changes nothing
    assert normalize(seq(atom("wx_d"), Pt(atom("x"))), FD) == atom("wx_d")
    assert normalize(seq(Pt(atom("w")), atom("wx_d")), FD) == atom("wx_d")


def test_normalize_fuses_diagonals():
    u, v = atom("wx_d"), atom("xz_d")
    assert normalize(seq(Pt(u), Pt(v)), FD) == Pt(seq(u, v))


def test_normalize_collapses_repeated_point_like():
    # a point on a zero-dimensional space glued to itself along the diagonal
    assert normalize(seq(atom("wx_d"), atom("wx_d")), FD) == atom("wx_d")
    # repeated blocks collapse as blocks
    s = seq(atom("wx_d"), atom("xz_d"), atom("wx_d"), atom("xz_d"))
    assert normalize(s, FD) == seq(atom("wx_d"), atom("xz_d"))


def test_normalize_keeps_repeats_of_positive_dim_points():
    s = seq(atom("wz_max_dd"), atom("wz_max_dd"))
    assert normalize(s, FD) == s


def test_normalize_equal_neighbour_diagonals():
    assert normalize(seq(Pt(atom("wx_d")), Pt(atom("wx_d"))), FD) == Pt(atom("wx_d"))


def test_normalize_without_data_treats_atoms_as_rigid():
    assert normalize(seq(atom("wx_d"), atom("wx_d")), None) == seq(
        atom("wx_d"), atom("wx_d")
    )
    assert normalize(seq(atom("a"), Pt(atom("b"))), None) == atom("a")


# ------------------------------------------- raw rewriting as the oracle

def rewrite_options(x, fd):
    """Every single-step rewrite of x, at any position, raw rule forms."""
    opts = []
    if isinstance(x, Atom):
        return opts
    if isinstance(x, Pt):
        return [Pt(r) for r in rewrite_options(x.of, fd)]
    parts = x.parts
    for i, p in enumerate(parts):
        for r in rewrite_options(p, fd):
            opts.append(Seq(parts[:i] + (r,) + parts[i + 1 :]))
    for i, p in enumerate(parts):
        if isinstance(p, Seq):  # flatten one nested gluing
            opts.append(Seq(parts[:i] + p.parts + parts[i + 1 :]))
    has_pt = any(isinstance(p, Pt) for p in parts)
    has_real = any(not isinstance(p, Pt) for p in parts)
    if has_pt and has_real:  # absorb one diagonal piece
        for i, p in enumerate(parts):
            if isinstance(p, Pt):
                rest = parts[:i] + parts[i + 1 :]
                opts.append(rest[0] if len(rest) == 1 else Seq(rest))
    if has_pt and not has_real:  # fuse a gluing of diagonals
        opts.append(Pt(Seq(tuple(p.of for p in parts))))
    n = len(parts)
    for k in range(1, n // 2 + 1):  # collapse a repeated point-like block
        for i in range(n - 2 * k + 1):
            if parts[i : i + k] == parts[i + k : i + 2 * k] and all(
                point_like(p, fd) for p in parts[i : i + k]
            ):
                rest = parts[: i + k] + parts[i + 2 * k :]
                opts.append(rest[0] if len(rest) == 1 else Seq(rest))
    return opts


def rewrite_randomly(x, fd, rng):
    while True:
        opts = rewrite_options(x, fd)
        if not opts:
            return x
        x = rng.choice(opts)


def arising_labels(fd):
    """Labels normalize() actually sees over this document: every glue
    term from composing closure cells, and from the unit towers."""
    raw = []

    def glue_terms(a, c, p):
        l = a.level
        top = l - 1 - p
        raw.append(Seq((a.head, c.head)))
        for k in range(top):
            raw.append(Seq((a.spine[k][0], c.spine[k][0])))
            raw.append(Seq((a.spine[k][1], c.spine[k][1])))

    for l in range(1, fd.max_level + 1):
        cells = x_cells(fd, l, include_composites=True)
        for p in range(l):
            for a in cells:
                for c in cells:
                    if x_composable(p, a, c):
                        glue_terms(a, c, p)
            for a in cells:
                s = t = a
                for _ in range(l - p):
                    s, t = x_source(s), x_target(t)
                left, right = s, t
                for _ in range(l - p):
                    left, right = x_identity(left), x_identity(right)
                glue_terms(a, right, p)
                glue_terms(left, a, p)
    return raw


ARISING = arising_labels(FD)


def test_arising_labels_is_substantial():
    assert len(ARISING) > 100


@given(st.integers(0, 2**32 - 1), st.sampled_from(ARISING))
@settings(max_examples=600, deadline=None)
def test_prop_random_rewriting_is_confluent(seed, label):
    rng = random.Random(seed)
    assert rewrite_randomly(label, FD, rng) == normalize(label, FD)


def label_trees(ids):
    return st.recursive(
        st.sampled_from([Atom(i) for i in ids]),
        lambda kids: st.one_of(
            kids.map(Pt),
            st.lists(kids, min_size=2, max_size=4).map(lambda ps: Seq(tuple(ps))),
        ),
        max_leaves=8,
    )


@given(label_trees(["w", "x", "wx_d", "xz_d", "wz_max_dd", "wz_min_dd"]))
@settings(max_examples=300)
def test_prop_normalize_is_idempotent(label):
    once = normalize(label, FD)
    assert normalize(once, FD) == once


@given(label_trees(["w", "wx_d", "wz_max_dd"]))
@settings(max_examples=300)
def test_prop_normalize_reaches_a_rewrite_normal_form(label):
    # whatever normalize returns, no raw rewrite applies to it anymore
    assert rewrite_options(normalize(label, FD), FD) == []


# ----------------------------------- gluing normal labels, and the oracle

@pytest.mark.parametrize("fd", [FD, chain_fd(3, 2), chain_fd(4, 3)], ids=["torus", "chain-3-2", "chain-4-3"])
def test_glue_matches_reference_normalize(fd):
    labels = ARISING if fd is FD else arising_labels(fd)
    for label in labels:
        u, v = label.parts
        assert glue(u, v, fd) == reference_normalize(label, fd)


@pytest.mark.parametrize("fd", [FD, chain_fd(3, 2), chain_fd(4, 3)], ids=["torus", "chain-3-2", "chain-4-3"])
def test_diagonal_seam_is_absorbed_whole(fd):
    labels = ARISING if fd is FD else arising_labels(fd)
    seams = [label.parts for label in labels if Pt in map(type, label.parts)]
    assert seams and any(type(u) is not type(v) for u, v in seams)
    for u, v in seams:
        out = glue(u, v, fd)
        assert out == reference_normalize(Seq((u, v)), fd)
        if type(u) is not Pt:
            assert out is u
        elif type(v) is not Pt:
            assert out is v


@pytest.mark.parametrize("fd", [FD, None], ids=["torus", "no-data"])
def test_diagonal_seam_cases(fd):
    s = seq(atom("wx_d"), atom("xz_d"))
    cases = [  # u, v, glue(u, v, fd)
        (Pt(atom("x")), s, s),
        (s, Pt(atom("x")), s),
        (Pt(s), Pt(s), Pt(s)),
        (Pt(atom("wx_d")), Pt(atom("xz_d")), Pt(s)),
        # the inside is glued over fd: wx_d is point-like only with the data
        (Pt(atom("wx_d")), Pt(s), Pt(s if fd else seq(atom("wx_d"), atom("wx_d"), atom("xz_d")))),
    ]
    for u, v, want in cases:
        out = glue(u, v, fd)
        assert out == want == reference_normalize(Seq((u, v)), fd)
        if type(u) is not type(v):  # a real label is returned itself
            assert out is (v if type(u) is Pt else u)


@pytest.mark.parametrize("build", [lambda: Pt(atom("x")), lambda: Pt(Pt(seq(atom("wx_d"), atom("xz_d"))))],
                         ids=["diagonal", "diagonal-of-diagonal"])
def test_equal_diagonals_built_apart_glue_to_the_first(monkeypatch, build):
    # not one object, but one id: glued by the short cut, never stored or rewritten
    def no_rewrite(parts, fd):
        raise AssertionError(f"_rewrite called on {parts}")

    monkeypatch.setattr(xcat, "_rewrite", no_rewrite)
    u, v = build(), build()
    assert u == v and u is not v
    assert glue(u, v, FD) is u and glue(v, u, FD) is v
    cat = XCategory(FD)
    labels = cat._labels  # the closure's label ids, and its gluing over them
    i = labels[u]
    assert labels[v] == i and labels.key[i] is u
    assert cat._glue(i, i) == i and not cat._glued


def test_distinct_real_pieces_are_joined_without_a_rewrite(monkeypatch):
    # no rule can fire on pairwise distinct pieces with no diagonal among them
    def no_collapse(parts, fd):
        raise AssertionError(f"_collapse called on {parts}")

    monkeypatch.setattr(xcat, "_collapse", no_collapse)
    s = seq(atom("wx_d"), atom("xz_d"))
    cases = [
        (atom("wx_d"), atom("xz_d")),
        (s, atom("wz_max_dd")),
        (atom("wz_min_ds"), s),
        (s, seq(atom("wy_s"), atom("yz_s"))),
    ]
    for fd in (FD, None):
        for u, v in cases:
            assert glue(u, v, fd) == Seq(tuple(xcat._pieces(u) + xcat._pieces(v)))


def test_a_repeated_point_like_piece_at_the_seam_still_collapses(monkeypatch):
    collapsed = []
    real = xcat._collapse

    def counting(parts, fd):
        collapsed.append(list(parts))
        return real(parts, fd)

    monkeypatch.setattr(xcat, "_collapse", counting)
    s = seq(atom("wx_d"), atom("xz_d"))
    cases = [  # u, v, glue(u, v, FD): xz_d and wx_d are point-like, wz_max_dd is not
        (atom("wx_d"), atom("wx_d"), atom("wx_d")),
        (s, atom("xz_d"), s),
        (s, seq(atom("xz_d"), atom("wz_max_dd")), seq(atom("wx_d"), atom("xz_d"), atom("wz_max_dd"))),
        (atom("wz_max_dd"), atom("wz_max_dd"), seq(atom("wz_max_dd"), atom("wz_max_dd"))),
    ]
    for u, v, want in cases:
        collapsed.clear()
        assert glue(u, v, FD) == want == reference_normalize(Seq((u, v)), FD)
        assert collapsed  # a repeated piece takes the rewrite


TT3 = tt_fd(3)
TT3_LABELS = sorted(
    {lab for l in range(4) for c in XCategory(TT3, True).cells(l) for lab in (c.head, *sum(c.spine, ()))}
)


@given(st.sampled_from(TT3_LABELS), st.sampled_from(TT3_LABELS))
@settings(max_examples=300)
def test_prop_glue_of_closed_tilted_torus_labels_matches_reference(u, v):
    assert glue(u, v, TT3) == reference_normalize(Seq((u, v)), TT3)


TREE_IDS = ["w", "x", "wx_d", "xz_d", "wz_max_dd", "wz_min_dd"]


@given(label_trees(TREE_IDS), st.sampled_from([FD, None]))
@settings(max_examples=300)
def test_prop_normalize_matches_reference(label, fd):
    assert normalize(label, fd) == reference_normalize(label, fd)


@given(label_trees(TREE_IDS), label_trees(TREE_IDS), st.sampled_from([FD, None]))
@example(Atom("wx_d"), Atom("wx_d"), FD)  # (4) on two atoms
@example(Pt(Atom("wx_d")), Pt(Atom("xz_d")), FD)  # (3)
@example(Pt(Atom("w")), Atom("wx_d"), None)  # (2)
@settings(max_examples=300)
def test_prop_glue_of_normal_labels_matches_reference(u, v, fd):
    assert glue(normalize(u, fd), normalize(v, fd), fd) == reference_normalize(Seq((u, v)), fd)


# -------------------- the rewrite system is not confluent on general labels

def normal_forms(x, fd):
    """Every rewrite-normal label that raw rewriting can reach from x."""
    seen, todo = {x}, [x]
    while todo:
        for y in rewrite_options(todo.pop(), fd):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return {y for y in seen if not rewrite_options(y, fd)}


def seam_window_merge(u, v, fd):
    """Glue normal u and v by pushing v's pieces one at a time onto u's and
    collapsing a repeated point-like block at the top after each push: the
    seam-window plan, on labels with no diagonal pieces."""
    stack = list(xcat._pieces(u))
    for piece in xcat._pieces(v):
        stack.append(piece)
        k = 1
        while 2 * k <= len(stack):
            block = stack[-k:]
            if stack[-2 * k : -k] == block and all(point_like(p, fd) for p in block):
                del stack[-k:]
                k = 1
            else:
                k += 1
    return stack[0] if len(stack) == 1 else Seq(tuple(stack))


def test_diagonals_reach_two_normal_forms():
    w, x = atom("w"), atom("x")
    label = seq(Pt(w), Pt(x), Pt(w), Pt(x))
    fused = Pt(seq(w, x, w, x))  # rule (3) first: base points are not point-like
    assert normalize(label, FD) == Pt(seq(w, x)) == reference_normalize(label, FD)
    assert fused in rewrite_options(label, FD) and rewrite_options(fused, FD) == []
    assert normal_forms(label, FD) == {Pt(seq(w, x)), fused}
    folded = Pt(w)
    for part in (Pt(x), Pt(w), Pt(x)):
        folded = glue(folded, part, FD)
    assert folded == fused  # a left fold of glue gives the other form


def test_point_like_atoms_reach_two_normal_forms():
    a, b, c = atom("wx_d"), atom("xz_d"), atom("wy_d")
    label = seq(a, b, c, b, a, b, c, b, c)
    seven, three = seq(a, b, c, b, a, b, c), seq(a, b, c)
    assert normalize(label, FD) == seven == reference_normalize(label, FD)
    assert normal_forms(label, FD) == {seven, three}
    u, v = seq(a, b, c, b, a, b), seq(c, b, c)
    assert normalize(u, FD) == u and normalize(v, FD) == v
    # collapsing only at the seam finds (a, b, c, b)(a, b, c, b) first
    assert seam_window_merge(u, v, FD) == three
    assert glue(u, v, FD) == seven == reference_normalize(Seq((u, v)), FD)


# ------------------------------- tuple order and equality against the key

def cell_trees(ids):
    labels = label_trees(ids)
    spines = st.lists(st.tuples(labels, labels), max_size=2).map(tuple)
    return st.builds(XCell, labels, spines)


@pytest.mark.parametrize(
    "values, key",
    [(label_trees(TREE_IDS), uncached_label_key), (cell_trees(TREE_IDS[:3]), uncached_cell_key)],
    ids=["labels", "cells"],
)
def test_prop_order_and_equality_are_the_uncached_keys(values, key):
    @given(st.lists(values, max_size=6))
    @settings(max_examples=200)
    def check(xs):
        assert sorted(xs) == sorted(xs, key=key)
        assert [key(x) for x in sorted(xs)] == sorted(map(key, xs))
        copies = pickle.loads(pickle.dumps(xs))  # equal values, built apart
        for a in xs:
            for b in xs + copies:
                assert (a == b) == (key(a) == key(b))

    check()


# ------------------------------------------------------ cached label hashes

BUILT = {  # kind -> (a fresh value each call, its compared fields)
    "atom": (lambda: Atom("wx_d"), lambda x: (0, x.id)),
    "pt": (lambda: Pt(seq(atom("wx_d"), atom("xz_d"))), lambda x: (1, x.of)),
    "seq": (lambda: seq(atom("wx_d"), Pt(atom("x")), atom("xz_s")), lambda x: (2, x.parts)),
    "xcell": (
        lambda: XCell(seq(atom("wx_d"), atom("xz_d")), ((Atom("w"), Atom("z")),)),
        lambda x: (x.head, x.spine),
    ),
}


@pytest.mark.parametrize("kind", sorted(BUILT))
def test_hash_is_the_value_hash(kind):
    build, compared = BUILT[kind]
    x = build()
    assert hash(x) == hash(compared(x))
    assert hash(x) == hash(compared(x))  # the second call reads the cache


@pytest.mark.parametrize("kind", sorted(BUILT))
def test_equal_labels_built_apart_stay_equal(kind):
    build, _ = BUILT[kind]
    a, b = build(), build()
    assert a is not b and a == b  # neither hashed
    hash(a)
    assert a == b and b == a  # one hashed
    assert hash(b) == hash(a) and len({a, b}) == 1  # both hashed
    c = build()
    assert c == a and {a: 1}[c] == 1  # a fresh one finds a hashed one


UNPICKLE_ELSEWHERE = """
import pickle, sys
for x, fields in pickle.loads(sys.stdin.buffer.read()):
    assert hash(x) == hash(fields), x
"""


def test_labels_pickled_after_hashing_hash_by_value_elsewhere():
    # str hashes differ between processes, so a cached hash must not travel
    values = []
    for build, compared in BUILT.values():
        x = build()
        hash(x)
        values.append((x, compared(x)))
    data = pickle.dumps(values)
    assert pickle.loads(data) == values
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", UNPICKLE_ELSEWHERE], input=data,
                              capture_output=True, env=env)
        assert done.returncode == 0, done.stderr.decode()


def test_repr_is_unchanged_by_the_hash_cache():
    a = Atom("a")
    hash(a)
    assert repr(a) == repr(Atom("a")) == "Atom(id='a')"
    assert repr(Pt(a)) == "Pt(of=Atom(id='a'))"
    assert repr(seq(a, atom("b"))) == "Seq(parts=(Atom(id='a'), Atom(id='b')))"
    assert repr(XCell(a, ())) == "XCell(head=Atom(id='a'), spine=())"


def test_label_key_cache_is_not_a_field():
    x = seq(atom("a"), Pt(atom("b")))
    fresh = seq(atom("a"), Pt(atom("b")))
    assert not hasattr(x, "_k")  # a label is its own sort key; none is cached
    assert x == fresh and repr(x) == repr(fresh) and hash(x) == hash(fresh)
    y = pickle.loads(pickle.dumps(x))
    assert y == x and not hasattr(y, "_k") and uncached_label_key(y) == uncached_label_key(x)


def test_seq_still_needs_two_parts():
    for parts in ((), (atom("a"),)):
        with pytest.raises(InvalidArguments):
            Seq(parts)


# ------------------------------------------- normal forms computed once

class RecordingX(XCategory):
    """Records every cell the axiom engine hands to normalize."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handed = []

    def normalize(self, cell):
        self.handed.append(cell)
        return super().normalize(cell)


class ReferenceX(XCategory):
    """Composes and normalizes through reference_normalize, which
    normalizes every label from scratch on every call."""

    def compose(self, p, a, c):
        return reference_compose(self.fd, p, a, c)

    def normalize(self, cell):
        n = lambda lab: reference_normalize(lab, self.fd)
        return XCell(n(cell.head), tuple((n(s), n(t)) for s, t in cell.spine))


def test_each_cell_is_normalized_once(monkeypatch):
    real = xcat.normalize
    calls = Counter()  # top-level normalize calls, by label
    depth = [0]

    def counting(x, fd=None):
        if not depth[0]:
            calls[x] += 1
        depth[0] += 1
        try:
            return real(x, fd)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(xcat, "normalize", counting)
    cat = RecordingX(FD, include_composites=True)
    report = check_globularity(cat).merged(check_axioms(cat))
    monkeypatch.undo()
    distinct = set(cat.handed)
    assert len(cat.handed) == len(distinct)
    # the instance's normal-form table: one normalize per distinct label
    labels = lambda c: [c.head] + [lab for pair in c.spine for lab in pair]
    assert calls == Counter({lab for c in distinct for lab in labels(c)})
    ref = ReferenceX(FD, include_composites=True)
    assert report.to_dict() == check_globularity(ref).merged(check_axioms(ref)).to_dict()


@given(st.lists(cell_trees(TREE_IDS), min_size=1, max_size=4))
@settings(max_examples=200)
def test_prop_category_normalize_matches_reference(cells):
    # one instance for every cell, and each cell twice: the second pass
    # reads every label's normal form from the instance's table
    cat = XCategory(FD)
    n = lambda lab: reference_normalize(lab, FD)
    for _ in range(2):
        for cell in cells:
            want = XCell(n(cell.head), tuple((n(s), n(t)) for s, t in cell.spine))
            assert cat.normalize(cell) == want


# ------------------------------------------- composites computed once

@pytest.mark.parametrize(
    "fd, closed, distinct",
    [
        (lambda: chain_fd(4, 2), 236, 444),
        (lambda: chain_fd(3, 3), 198, 414),
        (lambda: FD, 32, 128),
        (lambda: tt_fd(3), 1096, 3128),
    ],
    ids=["chain-4-2", "chain-3-3", "torus", "tilted-torus-3"],
)
def test_each_composite_is_glued_once(monkeypatch, fd, closed, distinct):
    # closed: the (p, A, C) the closure glues; distinct: those that the
    # closure, globularity and the X laws compose between them, counted as
    # distinct compose arguments of the same checks without the table
    fd = fd()
    glued, checked = [], []  # checked: the pairs compose splices itself, on a table miss
    composing = [0]
    real_glue, real_compose = XCategory._splice, XCategory.compose

    def counted_glue(self, p, a, c):
        glued.append((p, a, c))
        if composing[0]:
            checked.append((p, a, c))
        return real_glue(self, p, a, c)

    def counted_compose(self, p, a, c):
        composing[0] += 1
        try:
            return real_compose(self, p, a, c)
        finally:
            composing[0] -= 1

    monkeypatch.setattr(XCategory, "_splice", counted_glue)  # (p, a, c) on cell ids, one per cell
    monkeypatch.setattr(XCategory, "compose", counted_compose)
    cat = XCategory(fd, include_composites=True)  # one instance for every X check
    for l in range(fd.max_level + 1):
        cat.cells(l)
    assert len(glued) == len(set(glued)) == closed and not checked
    report = check_globularity(cat).merged(check_axioms(cat, samples=10**6))
    assert report.passed and all(e.checked > 0 for e in report.entries)
    assert len(glued) == len(set(glued)) == distinct
    # compose glues only on a table miss: on pairs the closure never glued
    assert checked == glued[closed:]
    # a functor check composes only closed pairs, so its own closure's
    # table serves every one of them
    for target in ("g", "f"):
        glued.clear()
        checked.clear()
        assert check_functor_laws(fd, target).passed
        assert len(glued) == len(set(glued)) == closed and not checked


@pytest.mark.parametrize(
    "fd, checked",
    [
        (lambda: chain_fd(4, 2), [52, 52, 236, 57, 180, 156, 92, 92]),
        (lambda: chain_fd(3, 3), [54, 54, 198, 58, 108, 162, 72, 72]),
        (lambda: FD, [20, 20, 32, 28, 16, 64, 8, 8]),
        (lambda: tt_fd(3), [456, 456, 1096, 528, 600, 1424, 608, 560]),
    ],
    ids=["chain-4-2", "chain-3-3", "torus", "tilted-torus-3"],
)
def test_each_label_pair_is_rewritten_once(monkeypatch, fd, checked):
    # the closure, globularity and the X laws on one instance: a label pair
    # reaches _rewrite from glue at most once, and never with a diagonal;
    # checked: each report entry's count, in report order
    fd = fd()
    stack, rewritten = [], Counter()  # stack: the glue calls in progress
    real_glue, real_rewrite = xcat._glue_in, xcat._rewrite

    def counted_glue(labels, table, fd, u, v):  # label ids, counted as the labels they stand for
        stack.append((labels.key[u], labels.key[v]))
        try:
            return real_glue(labels, table, fd, u, v)
        finally:
            stack.pop()

    def counted_rewrite(parts, fd):
        if stack and stack[-1] is not None:  # called by glue, not by _rewrite
            rewritten[stack[-1]] += 1
        stack.append(None)
        try:
            return real_rewrite(parts, fd)
        finally:
            stack.pop()

    monkeypatch.setattr(xcat, "_glue_in", counted_glue)
    monkeypatch.setattr(xcat, "_rewrite", counted_rewrite)
    cat = XCategory(fd, include_composites=True)
    for l in range(fd.max_level + 1):
        cat.cells(l)
    report = check_globularity(cat).merged(check_axioms(cat, samples=10**6))
    monkeypatch.undo()
    assert report.passed and [e.checked for e in report.entries] == checked
    assert rewritten and set(rewritten.values()) == {1}
    assert not [uv for uv in rewritten if Pt in map(type, uv)]


@pytest.mark.parametrize("fd", [lambda: chain_fd(4, 2), lambda: FD], ids=["chain-4-2", "torus"])
def test_table_gives_what_x_compose_gives(fd):
    fd = fd()
    cat = XCategory(fd, include_composites=True)
    for l in range(1, fd.max_level + 1):
        for p in range(l):
            pairs = cat.pairs(l, p)
            assert pairs and all(cat.compose(p, a, c) == x_compose(fd, p, a, c) for a, c in pairs)


def test_table_keeps_the_not_composable_message():
    cat = XCategory(FD, include_composites=True)
    closed = cat.cells(1)
    glued = [x for x in closed if isinstance(x.head, Seq)]
    cases = [
        (x1("wx_d"), x1("yz_d"), "not composable at p=0: t-chain x != s-chain y"),
        (glued[0], glued[1], "not composable at p=0: t-chain z != s-chain w"),
    ]
    for a, c, message in cases:
        assert a in closed and c in closed
        with pytest.raises(NotComposable) as raised:
            cat.compose(0, a, c)
        assert str(raised.value) == message
        with pytest.raises(NotComposable) as raised:
            x_compose(FD, 0, a, c)
        assert str(raised.value) == message


def _not_composable_text(compose, *args):
    with pytest.raises(NotComposable) as raised:
        compose(*args)
    return str(raised.value)


@pytest.mark.parametrize("fd, missed", [(lambda: chain_fd(4, 2), 7876), (lambda: FD, 1344)], ids=["chain-4-2", "torus"])
def test_a_miss_of_compose_raises_as_x_compose_does(fd, missed):
    # the closure glues every composable pair of closed cells, so each miss
    # among them is a pair that does not compose: compose gives x_compose's
    # NotComposable text for it and stores nothing
    fd = fd()
    cat = XCategory(fd, include_composites=True)
    misses = 0
    for l in range(1, fd.max_level + 1):
        cells = cat.cells(l)
        table = dict(cat._composites)  # keyed (p, a, c) on the ids of handed-out cells
        for p in range(l):
            for a in cells:
                for c in cells:
                    if (p, cat._cell_id(a), cat._cell_id(c)) not in table:
                        text = _not_composable_text(cat.compose, p, a, c)
                        assert text == _not_composable_text(x_compose, fd, p, a, c)
                        misses += 1
        assert cat._composites == table
    assert misses == missed


def test_reference_category_bypasses_the_table():
    # every entry of the table is made wrong: XCategory reads it and fails
    # its laws, ReferenceX composes for itself and reports as before
    want = check_axioms(XCategory(FD, include_composites=True)).to_dict()
    poisoned = []
    for cls in (XCategory, ReferenceX):
        cat = cls(FD, include_composites=True)
        for l in range(FD.max_level + 1):
            cat.cells(l)
        assert cat._composites
        for key in cat._composites:
            cat._composites[key] = key[1]
        poisoned.append(check_axioms(cat).to_dict())
    assert poisoned[0] != want and poisoned[1] == want


# ------------------------------------------------------------ cell algebra

def x1(ident):
    (cell,) = [c for c in x_cells(FD, 1) if c.head == Atom(ident)]
    return cell


def x2(head_label):
    (cell,) = [c for c in x_cells(FD, 2) if c.head == head_label]
    return cell


def test_boundaries_of_registered_cell():
    c = x1("wz_max_dd")
    assert x_source(c) == XCell(Atom("w"), ())
    assert x_target(c) == XCell(Atom("z"), ())
    with pytest.raises(NoSource):
        x_source(x_source(c))


def test_identity_shape():
    c = x1("wx_d")
    one = x_identity(c)
    assert one.head == Pt(Atom("wx_d"))
    assert one.spine == ((Atom("wx_d"), Atom("wx_d")), (Atom("w"), Atom("x")))
    assert x_source(one) == c and x_target(one) == c


def test_diagonal_cells_are_identities_of_their_base():
    assert x2(Pt(Atom("wx_d"))) == x_identity(x1("wx_d"))


def test_compose_two_flows():
    out = x_compose(FD, 0, x1("wx_d"), x1("xz_s"))
    assert out.head == seq(atom("wx_d"), atom("xz_s"))
    assert out.spine == ((Atom("w"), Atom("z")),)


def test_composite_is_not_a_registered_maximum():
    # the glued configuration and the critical point at the same spot
    # stay distinct cells (their head indices differ: 0+0 vs 1)
    out = x_compose(FD, 0, x1("wx_d"), x1("xz_d"))
    assert out != x1("wz_max_dd")
    assert x_source(out) == x_source(x1("wz_max_dd"))


def test_diagonal_absorbs_itself():
    v = x2(Pt(Atom("wx_d")))
    assert x_compose(FD, 1, v, v) == v


def test_double_diagonal_composite_is_idempotent():
    a = x2(Pt(Atom("wx_d")))
    c = x2(Pt(Atom("xz_d")))
    d = x_compose(FD, 0, a, c)
    inner = seq(atom("wx_d"), atom("xz_d"))
    assert d.head == Pt(inner)
    assert d.spine == ((inner, inner), (Atom("w"), Atom("z")))
    assert x_compose(FD, 1, d, d) == d


def test_compose_rejects_mismatches():
    with pytest.raises(NotComposable):
        x_compose(FD, 0, x1("wx_d"), x1("yz_d"))
    with pytest.raises(InvalidArguments):
        x_compose(FD, 1, x1("wx_d"), x1("xz_d"))
    with pytest.raises(InvalidArguments):
        x_compose(FD, 0, x1("wx_d"), x2(Pt(Atom("wx_d"))))


def test_unit_towers_absorb():
    suit = x2(Atom("arc_dd"))
    tz = x_identity(x_identity(XCell(Atom("z"), ())))
    tw = x_identity(x_identity(XCell(Atom("w"), ())))
    assert x_compose(FD, 0, suit, tz) == suit
    assert x_compose(FD, 0, tw, suit) == suit
    tmin = x_identity(x_target(suit))
    tmax = x_identity(x_source(suit))
    assert x_compose(FD, 1, suit, tmin) == suit
    assert x_compose(FD, 1, tmax, suit) == suit


# ------------------------------------------------------------- enumeration

def test_cell_counts():
    assert [len(x_cells(FD, l)) for l in range(3)] == [4, 16, 12]


def test_cells_above_max_level_warn_and_are_empty():
    with pytest.warns(UserWarning):
        assert x_cells(FD, 3) == []


@pytest.mark.parametrize("bad", [1.5, "1", True, None], ids=["float", "str", "bool", "none"])
def test_non_int_level_is_invalid_arguments(bad):
    # 1.5 used to recurse through levels 0.5, -0.5, ... to RecursionError,
    # "1" raised TypeError, and True was taken for level 1
    calls = [
        lambda: XCategory(FD).cells(bad),
        lambda: XCategory(FD, True).cells(bad),
        lambda: x_cells(FD, bad),
        lambda: XCategory(FD).pairs(bad, 0),
        lambda: x_composable_pairs(FD, bad, 0, include_composites=True),
        lambda: check_axioms(XCategory(FD, True), levels=[bad]),
        lambda: check_globularity(XCategory(FD), levels=[bad]),
    ]
    for call in calls:
        with pytest.raises(InvalidArguments, match="level must be an integer"):
            call()


def test_negative_level_keeps_its_message():
    with pytest.raises(InvalidArguments, match="^level must be non-negative$"):
        x_cells(FD, -1)


def test_cells_are_sorted_and_deterministic():
    a = x_cells(FD, 2)
    b = x_cells(FD, 2)
    assert a == b == sorted(a, key=uncached_cell_key)


@pytest.mark.parametrize(
    "fd, closed",
    [(lambda: FD, False), (lambda: FD, True), (lambda: chain_fd(3, 2), True),
     (lambda: chain_fd(300, 8), False)],
    ids=["torus", "torus-closed", "chain-3-2-closed", "chain-300-8"],
)
def test_levels_come_out_in_uncached_key_order(fd, closed):
    # a cell is its own sort key; its order must be the one the key built
    # from the fields gives, on every level
    fd = fd()
    cat = XCategory(fd, include_composites=closed)
    for level in range(fd.max_level + 1):
        cells = cat.cells(level)
        assert cells and cells == sorted(cells, key=uncached_cell_key)
        assert [c.head for c in cells] == [uncached_label_key(c.head) for c in cells]


def test_closure_counts():
    # 8 glued level-1 configurations, 8 glued diagonals at level 2
    assert len(x_cells(FD, 1, include_composites=True)) == 24
    assert len(x_cells(FD, 2, include_composites=True)) == 20


def test_closure_contains_only_new_seq_cells():
    plain = set(x_cells(FD, 1))
    extra = [c for c in x_cells(FD, 1, include_composites=True) if c not in plain]
    assert len(extra) == 8
    assert all(isinstance(c.head, Seq) for c in extra)


def test_composable_pair_counts():
    assert len(x_composable_pairs(FD, 1, 0)) == 8
    assert len(x_composable_pairs(FD, 2, 1)) == 8
    assert len(x_composable_pairs(FD, 2, 0)) == 8


def test_x0_pairs_at_level_two_match_same_letter_diagonals_and_more():
    pairs = x_composable_pairs(FD, 2, 0)
    for q in ("x", "y"):
        for i in ("d", "s"):
            a = x2(Pt(Atom(f"w{q}_{i}")))
            c = x2(Pt(Atom(f"{q}z_{i}")))
            assert (a, c) in pairs
    # the matching is by boundary alone, so mixed-letter pairs appear too
    assert (x2(Pt(Atom("wx_d"))), x2(Pt(Atom("xz_s")))) in pairs


def test_composable_pairs_with_composites_match_brute_force():
    for l in range(1, FD.max_level + 1):
        cells = x_cells(FD, l, include_composites=True)
        for p in range(l):
            brute = [(a, c) for a in cells for c in cells if x_composable(p, a, c)]
            assert x_composable_pairs(FD, l, p, include_composites=True) == brute


@pytest.mark.parametrize("closed", [False, True], ids=["plain", "closed"])
@pytest.mark.parametrize("fd", [lambda: chain_fd(4, 2), lambda: tt_fd(3)], ids=["chain-4-2", "tilted-torus-3"])
def test_pairs_on_ids_are_the_brute_force_pairs_of_the_handed_out_cells(fd, closed):
    # pairs() matches chains on cell ids: the same pairs in the same order,
    # a then c in cells() order, and each one the very cell cells() handed out
    fd = fd()
    cat = XCategory(fd, include_composites=closed)
    for l in range(1, fd.max_level + 1):
        cells = cat.cells(l)
        handed = {id(x) for x in cells}
        for p in range(l):
            brute = [(a, c) for a in cells for c in cells if x_composable(p, a, c)]
            got = cat.pairs(l, p)
            assert got == brute and {id(x) for pair in got for x in pair} <= handed


@pytest.mark.parametrize("closed", [False, True], ids=["plain", "closed"])
def test_pairs_are_listed_once_per_instance_and_handed_out_as_copies(monkeypatch, closed):
    # one ChainIndex per (level, p) for every pairs() call on an instance, and
    # a caller that changes the list it was handed changes no later one
    cat = XCategory(chain_fd(4, 2), include_composites=closed)
    cells = cat.cells(2)  # the closure's own indexes are built here
    built, real_init = [], axioms.ChainIndex.__init__

    def counted_init(self, chains, p):
        built.append(p)
        real_init(self, chains, p)

    monkeypatch.setattr(axioms.ChainIndex, "__init__", counted_init)
    first = cat.pairs(2, 1)
    want = [(a, c) for a in cells for c in cells if x_composable(1, a, c)]
    assert first == want
    first.reverse()
    first.append(first[0])
    second = cat.pairs(2, 1)
    assert second == want and second is not first and built == [1]
    assert cat.pairs(2, 0) == [(a, c) for a in cells for c in cells if x_composable(0, a, c)]
    assert built == [1, 0]


@pytest.mark.parametrize("spine", ["triple", "single", "list"])
def test_compose_names_a_malformed_spine_and_takes_a_list_spine(spine):
    # each spine entry must be a pair; a list of pairs composes like its
    # tuple twin, as in W
    cat = XCategory(FD, include_composites=True)
    a, c = cat.pairs(1, 0)[0]
    (s, t), = a.spine
    bad = {"triple": ((s, t, t),), "single": ((s,),), "list": [[s, t]]}[spine]
    cell = XCell(a.head, bad)
    if spine == "list":
        assert cat.compose(0, cell, c) == cat.compose(0, a, c) == x_compose(FD, 0, cell, c)
    else:
        with pytest.raises(InvalidArguments, match="^malformed XCell: "):
            cat.compose(0, cell, c)


@pytest.mark.parametrize("fd", [FD, chain_fd(3, 2)], ids=["torus", "chain-3-2"])
def test_closure_matches_naive_fixpoint(fd):
    for l in range(fd.max_level + 1):
        assert x_cells(fd, l, include_composites=True) == naive_closure(fd, l)


@pytest.mark.parametrize("k,m", [(4, 2), (5, 2), (5, 3)])
def test_chain_closure_counts_follow_closed_form(k, m):
    fd = chain_fd(k, m)
    counts = [len(x_cells(fd, l, include_composites=True)) for l in range(3)]
    assert counts == chain_closure_counts(k, m)


def test_category_closes_once_and_hands_out_copies():
    fd = chain_fd(4, 2)
    cat = XCategory(fd, include_composites=True)
    first = cat.cells(1)
    assert cat.cells(1) == first == x_cells(fd, 1, include_composites=True)
    first.clear()
    assert len(cat.cells(1)) == chain_closure_counts(4, 2)[1]
    for l in range(1, 3):
        for p in range(l):
            assert cat.pairs(l, p) == x_composable_pairs(fd, l, p, include_composites=True)


def count_level_builds(monkeypatch) -> Counter:
    """Count plain-level builds per level: level 0 starts from
    _base_cells, every higher level from the document's spaces at it."""
    builds = Counter()
    base, spaces = xcat._base_cells, FlowData.spaces_at_level

    def counted_base(fd):
        builds[0] += 1
        return base(fd)

    def counted_spaces(fd, level):
        builds[level] += 1
        return spaces(fd, level)

    monkeypatch.setattr(xcat, "_base_cells", counted_base)
    monkeypatch.setattr(FlowData, "spaces_at_level", counted_spaces)
    return builds


def test_category_builds_each_plain_level_once(monkeypatch):
    builds = count_level_builds(monkeypatch)
    cat = XCategory(FD, include_composites=True)
    check_globularity(cat).merged(check_axioms(cat))
    for l in range(1, FD.max_level + 1):
        for p in range(l):
            cat.pairs(l, p)
    assert builds == {l: 1 for l in range(FD.max_level + 1)}


@pytest.mark.parametrize(
    "argv",
    [["build", "{file}"], ["functor", "{file}", "--target", "g"], ["torus"]],
    ids=["build", "functor-g", "torus"],
)
def test_cli_builds_each_plain_level_once(argv, monkeypatch, tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(torus_document()))
    builds = count_level_builds(monkeypatch)
    assert cli_main([a.format(file=path) for a in argv]) == 0
    assert builds == {l: 1 for l in range(FD.max_level + 1)}
    assert capsys.readouterr().out


def test_level_two_space_over_a_base_point_is_inconsistent():
    doc = {
        "name": "over-a-base-point",
        "max_level": 2,
        "base_points": [{"id": "a", "index": 1}, {"id": "b", "index": 0}],
        "moduli": [
            {"level": 1, "source": "a", "target": "b", "dim": 0, "components": ["c"],
             "critical_points": [{"id": "ab", "index": 0, "component": "c"}]},
            {"level": 2, "source": "a", "target": "ab", "dim": 0, "components": ["c"],
             "critical_points": [{"id": "q", "index": 0, "component": "c"}]},
        ],
    }
    fd = parse_flow_data(json.dumps(doc))
    with pytest.raises(FlowDataInconsistent, match=r"\(a,ab\)"):
        x_cells(fd, 2)
    with pytest.raises(FlowDataInconsistent, match=r"\(a,ab\)"):
        check_functor_laws(fd, "g")
