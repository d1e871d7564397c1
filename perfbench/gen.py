"""Seeded input generators for the benchmark (standard library only).

chain(k, m) is the synthetic family of the ROADMAP: base points b0..bk
with index(b_i) = k - i, each adjacent pair joined by a zero-dimensional
level-1 space with m one-point components, max_level = 2.  It is valid
flow data, and closing it under composition gives a count per level that
follows from the shape alone (closure_counts), so the benchmark can check
the closure without trusting xcat.

rename_and_shuffle(doc, rng) renames every id and component to a name of
fixed width and shuffles every declaration list.  It changes neither the
work nor any count, only the names and the order the parser sees.
"""

from __future__ import annotations

import json


def chain(k: int, m: int) -> dict:
    """The chain(k, m) document in canonical order and naming."""
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
                    {"id": f"p{i}_{j}", "index": 0, "component": f"c{j}"} for j in range(m)
                ],
            }
            for i in range(k)
        ],
    }


def closure_counts(k: int, m: int) -> dict:
    """Cells per level of chain(k, m) closed under composition.

    Level 0 holds the k+1 base points.  A level-1 cell is a broken flow
    line from b_i to b_{i+L}: k-L+1 places to start, m choices per piece,
    so sum_{L=1..k} (k-L+1) m^L cells.  Every level-1 cell lies on a
    zero-dimensional space, so level 2 holds exactly their diagonals.
    """
    level1 = sum((k - length + 1) * m**length for length in range(1, k + 1))
    return {0: k + 1, 1: level1, 2: level1}


def rename_and_shuffle(doc: dict, rng) -> dict:
    """The same document under a seeded bijective renaming of every point
    id and component name, with every declaration list shuffled.  Boundary
    strata are not carried over; chain(k, m) has none."""
    ids = [bp["id"] for bp in doc["base_points"]]
    ids += [cp["id"] for sp in doc["moduli"] for cp in sp["critical_points"]]
    comps = sorted({c for sp in doc["moduli"] for c in sp["components"]})
    new_ids = _names("v", len(ids), rng)
    new_comps = _names("k", len(comps), rng)
    rid = dict(zip(ids, new_ids))
    rcomp = dict(zip(comps, new_comps))

    base_points = [{"id": rid[bp["id"]], "index": bp["index"]} for bp in doc["base_points"]]
    rng.shuffle(base_points)
    moduli = []
    for sp in doc["moduli"]:
        new = {
            "level": sp["level"],
            "source": rid[sp["source"]],
            "target": rid[sp["target"]],
            "dim": sp["dim"],
            "components": [rcomp[c] for c in sp["components"]],
            "critical_points": [
                {"id": rid[cp["id"]], "index": cp["index"], "component": rcomp[cp["component"]]}
                for cp in sp["critical_points"]
            ],
        }
        rng.shuffle(new["components"])
        rng.shuffle(new["critical_points"])
        moduli.append(new)
    rng.shuffle(moduli)
    return {"name": doc["name"], "max_level": doc["max_level"],
            "base_points": base_points, "moduli": moduli}


def _names(prefix: str, n: int, rng) -> list:
    """n distinct names of one width in seeded order, so the renaming
    does not change how long the labels are."""
    width = len(str(n - 1))
    order = list(range(n))
    rng.shuffle(order)
    return [f"{prefix}{i:0{width}d}" for i in order]


def dumps(doc: dict) -> str:
    """A document as the CLI would emit it."""
    return json.dumps(doc, indent=2) + "\n"
