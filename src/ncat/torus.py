"""Built-in fixture: a height function on the 2-torus, tilted so every
flow line is isolated.

One maximum w (index 2), two saddles x, y (index 1), one minimum z
(index 0).  Each adjacent pair is connected by a zero-dimensional moduli
space with two flow lines, labeled d and s.  The space between w and z is
one-dimensional with four components; each component carries one
index-1 point (a broken-flow maximum) and one index-0 point, and is
named after the (d/s, d/s) type of its maximum.  Between each such
maximum and minimum sits one zero-dimensional level-2 space with a
single point, arc_<component>.

torus_expected() is the hand-checked answer sheet the acceptance tests
compare against; its image table is transcribed, not computed.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .flowdata import FlowData, parse_flow_data

__all__ = ["torus_document", "torus_flow_data", "torus_expected", "TorusExpected"]

_COMPONENTS = ("dd", "ds", "sd", "ss")


def torus_document() -> dict:
    """The fixture as a plain JSON-ready document."""
    moduli = [
        {
            "level": 1,
            "source": "w",
            "target": "x",
            "dim": 0,
            "components": ["d", "s"],
            "critical_points": [
                {"id": "wx_d", "index": 0, "component": "d"},
                {"id": "wx_s", "index": 0, "component": "s"},
            ],
        },
        {
            "level": 1,
            "source": "w",
            "target": "y",
            "dim": 0,
            "components": ["d", "s"],
            "critical_points": [
                {"id": "wy_d", "index": 0, "component": "d"},
                {"id": "wy_s", "index": 0, "component": "s"},
            ],
        },
        {
            "level": 1,
            "source": "w",
            "target": "z",
            "dim": 1,
            "components": list(_COMPONENTS),
            "boundary": [
                [{"source": "w", "target": "x"}, {"source": "x", "target": "z"}],
                [{"source": "w", "target": "y"}, {"source": "y", "target": "z"}],
            ],
            "critical_points": (
                [{"id": f"wz_max_{c}", "index": 1, "component": c} for c in _COMPONENTS]
                + [{"id": f"wz_min_{c}", "index": 0, "component": c} for c in _COMPONENTS]
            ),
        },
        {
            "level": 1,
            "source": "x",
            "target": "z",
            "dim": 0,
            "components": ["d", "s"],
            "critical_points": [
                {"id": "xz_d", "index": 0, "component": "d"},
                {"id": "xz_s", "index": 0, "component": "s"},
            ],
        },
        {
            "level": 1,
            "source": "y",
            "target": "z",
            "dim": 0,
            "components": ["d", "s"],
            "critical_points": [
                {"id": "yz_d", "index": 0, "component": "d"},
                {"id": "yz_s", "index": 0, "component": "s"},
            ],
        },
    ] + [
        {
            "level": 2,
            "source": f"wz_max_{c}",
            "target": f"wz_min_{c}",
            "dim": 0,
            "components": ["arc"],
            "critical_points": [{"id": f"arc_{c}", "index": 0, "component": "arc"}],
        }
        for c in _COMPONENTS
    ]
    return {
        "name": "tilted-torus",
        "max_level": 2,
        "base_points": [
            {"id": "w", "index": 2},
            {"id": "x", "index": 1},
            {"id": "y", "index": 1},
            {"id": "z", "index": 0},
        ],
        "moduli": moduli,
    }


def torus_flow_data() -> FlowData:
    """The fixture through the real parser, so both stay honest."""
    return parse_flow_data(json.dumps(torus_document()))


class TorusExpected(NamedTuple):
    counts: dict
    g_table: dict  #  rendered cell -> rendered image
    pair_counts: dict
    listed_x0_pairs: tuple = ()  # (inner, outer) renders known by hand


def torus_expected() -> TorusExpected:
    g = {
        "w": "2",
        "x": "1",
        "y": "1",
        "z": "0",
    }
    for i in ("d", "s"):
        g[f"(wx_{i}; w->x)"] = "(0, [2 ; 1])"
        g[f"(wy_{i}; w->y)"] = "(0, [2 ; 1])"
        g[f"(xz_{i}; x->z)"] = "(0, [1 ; 0])"
        g[f"(yz_{i}; y->z)"] = "(0, [1 ; 0])"
        g[f"(pt(wx_{i}); wx_{i}->wx_{i}, w->x)"] = "(0, [0 2 ; 0 1])"
        g[f"(pt(wy_{i}); wy_{i}->wy_{i}, w->y)"] = "(0, [0 2 ; 0 1])"
        g[f"(pt(xz_{i}); xz_{i}->xz_{i}, x->z)"] = "(0, [0 1 ; 0 0])"
        g[f"(pt(yz_{i}); yz_{i}->yz_{i}, y->z)"] = "(0, [0 1 ; 0 0])"
    for c in _COMPONENTS:
        g[f"(wz_max_{c}; w->z)"] = "(1, [2 ; 0])"
        g[f"(wz_min_{c}; w->z)"] = "(0, [2 ; 0])"
        g[f"(arc_{c}; wz_max_{c}->wz_min_{c}, w->z)"] = "(0, [1 2 ; 0 0])"

    listed = tuple(
        (
            f"(pt(w{q}_{i}); w{q}_{i}->w{q}_{i}, w->{q})",
            f"(pt({q}z_{i}); {q}z_{i}->{q}z_{i}, {q}->z)",
        )
        for q in ("x", "y")
        for i in ("d", "s")
    )

    return TorusExpected(
        counts={0: 4, 1: 16, 2: 12},
        g_table=g,
        pair_counts={(1, 0): 8, (2, 1): 8, (2, 0): 8},
        listed_x0_pairs=listed,
    )
