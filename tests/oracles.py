"""Independent oracles for expected values frozen into the test suite.

Everything here deliberately avoids the package's own construction code
paths: enumeration is a filter over the raw integer product, composability
is checked by walking sources/targets, and the X closure is the plain
all-pairs fixpoint over single compositions, so agreement with the
library is evidence rather than tautology.  reference_normalize is the
label normal form as it was before gluing learned to skip normal halves:
it normalizes every part of every label it is given, from scratch.
"""

from __future__ import annotations

import itertools
import math
import random

from ncat.xcat import (
    Atom,
    Pt,
    Seq,
    XCell,
    point_like,
    x_cells,
    x_composable,
    x_compose,
    x_source,
    x_target,
)


def ok_wtuple(head, pairs) -> bool:
    """The cell constraints, expressed as one flat predicate."""
    above = head
    for i, j in pairs:
        if j > i:
            return False
        if i == j:
            if above != 0:
                return False
        elif above >= i - j:
            return False
        above = i
    return True


def brute_wcells(level: int, bound: int):
    """All valid (head, spine) tuples with entries <= bound, by filtering
    the full cartesian product.  Returns a sorted list of plain tuples
    (ints at level 0)."""
    if level == 0:
        return list(range(bound + 1))
    entries = range(bound + 1)
    out = []
    for head in entries:
        for flat in itertools.product(entries, repeat=2 * level):
            pairs = tuple((flat[2 * k], flat[2 * k + 1]) for k in range(level))
            if ok_wtuple(head, pairs):
                out.append((head, pairs))
    out.sort()
    return out


def brute_composable_pairs(cells, p, source, target, level_of):
    """All ordered pairs (a, c) with s^(l-p)(c) == t^(l-p)(a), found by
    actually iterating the boundary maps.  ``cells`` must share one level."""
    def walk(cell, step, depth):
        for _ in range(depth):
            cell = step(cell)
        return cell

    out = []
    for a in cells:
        l = level_of(a)
        for c in cells:
            if level_of(c) != l:
                continue
            k = l - p
            if walk(a, target, k) == walk(c, source, k):
                out.append((a, c))
    return out


def sampled_levels(cat, levels, seed: int, cap: int) -> dict:
    """Each level's cells as check_axioms samples them: a level with more
    than cap cells keeps cap of them, drawn by one random.Random(seed) in
    level order and kept in enumeration order."""
    rng = random.Random(seed)
    out = {}
    for l in levels:
        cells = cat.cells(l)
        if len(cells) > cap:
            cells = [cells[i] for i in sorted(rng.sample(range(len(cells)), cap))]
        out[l] = cells
    return out


def capped_law_instances(cells, level: int, cap: int, source, target):
    """The assoc and binary-interchange instances on one level's cells in
    the order the engine checks them, found by all-pairs scans.  Each
    depth's composable pairs are capped at cap.  assoc takes (A, C, E) for
    each pair (C, E), then each pair (A, C); binary interchange takes
    (A, C, E, H) for each p-pair (A, C), then each p-pair (E, H) whose
    (A, E) and (C, H) are q-pairs.  Each p, or (p, q), keeps its first cap
    instances.  Returns ({p: triples}, {(p, q): quadruples})."""
    pairs = {
        p: brute_composable_pairs(cells, p, source, target, lambda _: level)[:cap]
        for p in range(level)
    }
    assoc = {
        p: [(a, c, e) for c, e in pairs[p] for a, c2 in pairs[p] if c2 == c][:cap]
        for p in range(level)
    }
    interchange = {}
    for p in range(1, level):
        for q in range(p):
            set_q = set(pairs[q])
            interchange[p, q] = [
                (a, c, e, h)
                for a, c in pairs[p]
                for e, h in pairs[p]
                if (a, e) in set_q and (c, h) in set_q
            ][:cap]
    return assoc, interchange


def random_wcell(rng, level: int, bound: int):
    """A uniform-ish random valid cell, built bottom-up so every choice
    range is already legal.  Returns (head, spine) with spine top-down."""
    if level == 0:
        return rng.randint(0, bound)
    i = rng.randint(0, bound)
    j = rng.randint(0, i)
    pairs = [(i, j)]
    for _ in range(level - 1):
        i_top, j_top = pairs[0]
        nxt = 0 if i_top == j_top else rng.randint(0, min(i_top - j_top - 1, bound))
        pairs.insert(0, (nxt, rng.randint(0, nxt)))
    i_top, j_top = pairs[0]
    head = 0 if i_top == j_top else rng.randint(0, min(i_top - j_top - 1, bound))
    return head, tuple(pairs)


def random_composable_wpair(rng, level: int, p: int, bound: int):
    """A random pair ((head, spine), (head, spine)) composable at depth p:
    the outer cell is regrown above p over the inner cell's lower spine."""
    head_a, spine_a = random_wcell(rng, level, bound)
    top = level - 1 - p
    i_p = spine_a[top][1]  # outer's i at level p must meet inner's j
    j_p = rng.randint(0, i_p)
    pairs = [(i_p, j_p)] + list(spine_a[top + 1 :])
    for _ in range(top):
        i_top, j_top = pairs[0]
        nxt = 0 if i_top == j_top else rng.randint(0, min(i_top - j_top - 1, bound))
        pairs.insert(0, (nxt, rng.randint(0, nxt)))
    i_top, j_top = pairs[0]
    head_c = 0 if i_top == j_top else rng.randint(0, min(i_top - j_top - 1, bound))
    return (head_a, spine_a), (head_c, tuple(pairs))


def chain_document(k: int, m: int) -> dict:
    """chain(k, m): base points b0..bk with index(b_i) = k - i, each
    adjacent pair joined by a zero-dimensional level-1 space with m
    one-point components, max_level = 2."""
    return {
        "name": f"chain-{k}-{m}",
        "max_level": 2,
        "base_points": [{"id": f"b{i}", "index": k - i} for i in range(k + 1)],
        "moduli": [
            {
                "level": 1,
                "source": f"b{i}",
                "target": f"b{i + 1}",
                "dim": 0,
                "components": [f"c{j}" for j in range(m)],
                "critical_points": [
                    {"id": f"p{i}_{j}", "index": 0, "component": f"c{j}"}
                    for j in range(m)
                ],
            }
            for i in range(k)
        ],
    }


def chain_closure_counts(k: int, m: int) -> list:
    """Closed cells per level of chain(k, m), from the shape alone: a
    level-1 cell is a broken line from b_i to b_{i+L} with m choices per
    piece, and level 2 holds exactly their diagonals."""
    level1 = sum((k - length + 1) * m**length for length in range(1, k + 1))
    return [k + 1, level1, level1]


def uncached_label_key(x):
    """A label's sort key built from its fields: atoms, then diagonals,
    then gluings, each by value, recursively."""
    if isinstance(x, Atom):
        return (0, x.id)
    if isinstance(x, Pt):
        return (1, uncached_label_key(x.of))
    return (2, tuple(uncached_label_key(p) for p in x.parts))


def uncached_cell_key(cell):
    """A cell's sort key from uncached_label_key: head, then spine."""
    k = uncached_label_key
    return (k(cell.head), tuple((k(s), k(t)) for s, t in cell.spine))


def tilted_torus_level1_count(n: int) -> int:
    """Closed level-1 cells of tilted_torus(n), from the shape alone.  A
    closed level-1 cell is a broken flow line along a strict chain
    S > U1 > ... > T, one point per factor, and no rewrite applies to it:
    level 1 has no diagonals, and adjacent pieces lie in different spaces.
    A factor that drops b elements has 2^b components of b points each, so
    the lines across a gap of m elements number a(m), with a(0) = 1 and
    a(m) = sum over b of C(m, b) b 2^b a(m - b); the pairs S > T with a gap
    of m number C(n, m) 2^(n - m)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, b) * b * 2**b * a[m - b] for b in range(1, m + 1)))
    return sum(math.comb(n, m) * 2 ** (n - m) * a[m] for m in range(1, n + 1))


def naive_closure(fd, level: int, compose=x_compose) -> list:
    """The level's cells closed under composition by the plain fixpoint:
    every round composes every composable pair of the whole pool, until
    a round adds nothing.  Sorted by uncached_cell_key.  compose(fd, p, a,
    c) glues a pair; reference_compose keeps xcat's glue out of it."""
    pool = set(x_cells(fd, level))
    while True:
        cells = sorted(pool, key=uncached_cell_key)
        new = {
            compose(fd, p, a, c)
            for p in range(level)
            for a, c in brute_composable_pairs(
                cells, p, x_source, x_target, lambda x: x.level
            )
        }
        if new <= pool:
            return cells
        pool |= new


def reference_normalize(x, fd=None):
    """Flatten the normalized parts, collapse repeated point-like blocks,
    drop diagonal pieces beside real ones and collapse again, and fuse a
    gluing of diagonals into the diagonal of the normalized gluing."""
    if isinstance(x, Atom):
        return x
    if isinstance(x, Pt):
        return Pt(reference_normalize(x.of, fd))
    parts = []
    for p in x.parts:
        n = reference_normalize(p, fd)
        parts.extend(n.parts) if isinstance(n, Seq) else parts.append(n)
    parts = _reference_collapse(parts, fd)
    if any(isinstance(p, Pt) for p in parts) and not all(isinstance(p, Pt) for p in parts):
        parts = _reference_collapse([p for p in parts if not isinstance(p, Pt)], fd)
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, Pt) for p in parts):
        return Pt(reference_normalize(Seq(tuple(p.of for p in parts)), fd))
    return Seq(tuple(parts))


def _reference_collapse(parts: list, fd) -> list:
    k = 1
    while 2 * k <= len(parts):
        for i in range(len(parts) - 2 * k + 1):
            block = parts[i : i + k]
            if parts[i + k : i + 2 * k] == block and all(point_like(p, fd) for p in block):
                del parts[i + k : i + 2 * k]
                k = 0
                break
        k += 1
    return parts


def reference_compose(fd, p: int, a, c):
    """c o_p a with every glued label normalized from scratch."""
    if not x_composable(p, a, c):
        return x_compose(fd, p, a, c)  # raises NotComposable with its message
    top = a.level - 1 - p

    def glue(u, v):
        return reference_normalize(Seq((u, v)), fd)

    spine = [
        (glue(a.spine[k][0], c.spine[k][0]), glue(a.spine[k][1], c.spine[k][1]))
        for k in range(top)
    ]
    spine.append((a.spine[top][0], c.spine[top][1]))
    spine.extend(a.spine[top + 1 :])
    return XCell(glue(a.head, c.head), tuple(spine))
