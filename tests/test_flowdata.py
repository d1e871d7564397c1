"""Parsing is strict, validation is a report; both failure modes covered."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncat.flowdata as flowdata
from ncat.errors import DuplicateId, InvalidArguments, NCatError, SchemaError, UnknownId
from ncat.families import tilted_torus
from ncat.flowdata import (
    CritPoint,
    FlowData,
    emit_flow_data,
    parse_flow_data,
    validate_flow_data,
)
from ncat.torus import torus_document, torus_flow_data
from ncat.xcat import Atom, point_like

from oracles import chain_document


def doc(**overrides):
    """A minimal healthy document: one flow from a to b, two lines."""
    base = {
        "name": "pair",
        "max_level": 1,
        "base_points": [{"id": "a", "index": 1}, {"id": "b", "index": 0}],
        "moduli": [
            {
                "level": 1,
                "source": "a",
                "target": "b",
                "dim": 0,
                "components": ["d", "s"],
                "critical_points": [
                    {"id": "ab_d", "index": 0, "component": "d"},
                    {"id": "ab_s", "index": 0, "component": "s"},
                ],
            }
        ],
    }
    base.update(overrides)
    return base


def parse(document):
    return parse_flow_data(json.dumps(document))


def test_parse_healthy_document():
    fd = parse(doc())
    assert fd.name == "pair"
    assert fd.max_level == 1
    assert [p.id for p in fd.base_points()] == ["a", "b"]
    assert fd.space(("a", "b")).points == ("ab_d", "ab_s")
    assert fd.point("ab_d").home == ("a", "b")
    assert fd.point("ab_d").level == 1
    assert fd.home_of("a") is None


def test_unknown_space_is_an_unknown_id():
    fd = parse(doc())
    with pytest.raises(UnknownId, match="^\\$: unknown id 'a->c'$"):
        fd.space(("a", "c"))
    with pytest.raises(UnknownId, match="^\\$: unknown id 'b->a'$"):
        fd.space(["b", "a"])


@pytest.mark.parametrize(
    "call, arg",
    [("point", ["w"]), ("home_of", ["w"]), ("space", ("w", ["x"])), ("space", 5),
     ("space", "wx"), ("space", ["w"]), ("space", None)],
    ids=["point-list", "home-of-list", "space-unhashable-end", "space-int", "space-str",
         "space-one-end", "space-none"],
)
def test_unreadable_ids_are_unknown_ids(call, arg):
    # an unhashable id, or a space key that is not a (source, target) pair,
    # is an id the document never declared; a string is not split into one
    with pytest.raises(UnknownId):
        getattr(torus_flow_data(), call)(arg)


def test_parse_rejects_invalid_json():
    with pytest.raises(SchemaError) as e:
        parse_flow_data("{not json")
    assert e.value.path == "$"


def test_parse_rejects_unknown_field():
    with pytest.raises(SchemaError) as e:
        parse(doc(extra=1))
    assert e.value.path == "$.extra"


def test_parse_rejects_missing_field():
    d = doc()
    del d["moduli"][0]["dim"]
    with pytest.raises(SchemaError) as e:
        parse(d)
    assert "dim" in str(e.value)


def test_parse_rejects_wrong_types():
    with pytest.raises(SchemaError):
        parse(doc(max_level="2"))
    with pytest.raises(SchemaError):
        parse(doc(max_level=True))  # bools are not integers here
    d = doc()
    d["moduli"][0]["components"] = ["d", 3]
    with pytest.raises(SchemaError):
        parse(d)


def test_parse_rejects_duplicate_ids():
    d = doc()
    d["base_points"].append({"id": "a", "index": 0})
    with pytest.raises(DuplicateId):
        parse(d)
    d = doc()
    d["moduli"][0]["critical_points"][1]["id"] = "ab_d"
    with pytest.raises(DuplicateId):
        parse(d)
    d = doc()
    d["moduli"].append(dict(d["moduli"][0], critical_points=[]))
    with pytest.raises(DuplicateId):
        parse(d)


def test_parse_rejects_unknown_endpoint():
    d = doc()
    d["moduli"][0]["target"] = "nowhere"
    with pytest.raises(UnknownId) as e:
        parse(d)
    assert e.value.ident == "nowhere"


def test_parse_rejects_unknown_boundary_factor_id():
    d = doc()
    d["moduli"][0]["boundary"] = [[{"source": "a", "target": "ghost"}]]
    with pytest.raises(UnknownId):
        parse(d)


def test_parse_rejects_level_out_of_range():
    d = doc()
    d["moduli"][0]["level"] = 2
    with pytest.raises(SchemaError):
        parse(d)


def test_parse_ids_are_case_sensitive():
    d = doc()
    d["base_points"].append({"id": "A", "index": 0})
    fd = parse(d)
    assert fd.point("A") is not fd.point("a")


def test_validate_healthy():
    report = validate_flow_data(parse(doc()))
    assert report.passed
    assert {c.check for c in report.checks} >= {
        "endpoints", "dim-formula", "component-refs", "index-bound",
    }


def test_validate_dim_formula_failure():
    d = doc()
    d["moduli"][0]["dim"] = 3
    report = validate_flow_data(parse(d))
    bad = [c for c in report.failures() if c.check == "dim-formula"]
    assert bad and bad[0].subject == "(a,b)"
    # the index bound now also fires is fine; dim-formula must be among them
    assert not report.passed


def test_validate_component_refs_failure():
    d = doc()
    d["moduli"][0]["critical_points"][0]["component"] = "nope"
    report = validate_flow_data(parse(d))
    assert any(c.check == "component-refs" and c.subject == "ab_d" for c in report.failures())


def test_validate_index_bound_failure():
    d = doc()
    d["moduli"][0]["critical_points"][0]["index"] = 5
    report = validate_flow_data(parse(d))
    assert any(c.check == "index-bound" and c.subject == "ab_d" for c in report.failures())


@pytest.mark.parametrize(
    "target, failed",
    [("xz_d", ["endpoints"]), ("wz_max_dd", ["endpoints", "dim-formula"])],
    ids=["other-home", "same-point"],
)
def test_validate_endpoints_failure(target, failed):
    # a level-2 space of the torus from wz_max_dd to a point of another
    # level-1 space, or to wz_max_dd itself
    d = torus_document()
    space = next(sp for sp in d["moduli"] if sp["source"] == "wz_max_dd")
    space["target"] = target
    report = validate_flow_data(parse(d))
    assert [c.check for c in report.failures()] == failed
    assert report.failures()[0].subject == f"(wz_max_dd,{target})"
    assert report.failures()[0].detail == "endpoints must be distinct level-1 points with one home"


def three_step():
    """a -> m -> b with a 1-dim total space and a declared boundary."""
    return {
        "name": "threestep",
        "max_level": 1,
        "base_points": [
            {"id": "a", "index": 2}, {"id": "m", "index": 1}, {"id": "b", "index": 0},
        ],
        "moduli": [
            {
                "level": 1, "source": "a", "target": "m", "dim": 0,
                "components": ["c"], "critical_points": [],
            },
            {
                "level": 1, "source": "m", "target": "b", "dim": 0,
                "components": ["c"], "critical_points": [],
            },
            {
                "level": 1, "source": "a", "target": "b", "dim": 1,
                "components": ["c"],
                "boundary": [[{"source": "a", "target": "m"}, {"source": "m", "target": "b"}]],
                "critical_points": [],
            },
        ],
    }


def test_validate_boundary_checks_pass():
    report = validate_flow_data(parse(three_step()))
    assert report.passed
    assert any(c.check == "boundary-monotonicity" for c in report.checks)
    assert any(c.check == "boundary-dim-sum" for c in report.checks)


def test_validate_boundary_monotonicity_failure():
    d = three_step()
    # break the chain: endpoints no longer the space's endpoints
    d["moduli"][2]["boundary"] = [[{"source": "m", "target": "b"}]]
    report = validate_flow_data(parse(d))
    assert any(c.check == "boundary-monotonicity" for c in report.failures())


def test_validate_boundary_dim_sum_failure():
    d = three_step()
    d["moduli"][2]["dim"] = 0  # also trips dim-formula; dim-sum must fire too
    report = validate_flow_data(parse(d))
    assert any(c.check == "boundary-dim-sum" for c in report.failures())


def test_validate_boundary_undeclared_factor():
    d = three_step()
    del d["moduli"][0]  # (a,m) gone, boundary still names it
    report = validate_flow_data(parse(d))
    assert any(
        c.check == "boundary-dim-sum" and "undeclared" in c.detail
        for c in report.failures()
    )


def test_emit_round_trips():
    d = three_step()
    fd = parse(d)
    assert emit_flow_data(fd) == d
    assert emit_flow_data(parse(emit_flow_data(fd))) == d


DROP = object()  # as a mutant's value: delete the field


def mutant(path, value):
    """doc() with the value at ``path`` (keys and indices) replaced, deleted
    (DROP) or, one past the end of an array, appended."""
    if not path:
        return value
    d = doc()
    *parents, last = path
    node = d
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    elif isinstance(node, list) and last == len(node):
        node.append(value)
    else:
        node[last] = value
    return d


# Documents with exactly one schema error, each pinned to the exception
# class, path and message the parser gave before its schema became one table.
SINGLE_ERRORS = [
    ("unknown-$", ("extra",), 1, SchemaError, "$.extra", "unknown field"),
    ("unknown-base-point", ("base_points", 0, "extra"), 1,
     SchemaError, "$.base_points[0].extra", "unknown field"),
    ("unknown-space", ("moduli", 0, "extra"), 1,
     SchemaError, "$.moduli[0].extra", "unknown field"),
    ("unknown-critical-point", ("moduli", 0, "critical_points", 0, "extra"), 1,
     SchemaError, "$.moduli[0].critical_points[0].extra", "unknown field"),
    ("unknown-factor", ("moduli", 0, "boundary"), [[{"source": "a", "target": "b", "extra": 1}]],
     SchemaError, "$.moduli[0].boundary[0][0].extra", "unknown field"),
    ("missing-$-name", ("name",), DROP, SchemaError, "$", "missing field 'name'"),
    ("missing-$-max_level", ("max_level",), DROP, SchemaError, "$", "missing field 'max_level'"),
    ("missing-$-base_points", ("base_points",), DROP,
     SchemaError, "$", "missing field 'base_points'"),
    ("missing-$-moduli", ("moduli",), DROP, SchemaError, "$", "missing field 'moduli'"),
    ("missing-base-point-id", ("base_points", 0, "id"), DROP,
     SchemaError, "$.base_points[0]", "missing field 'id'"),
    ("missing-base-point-index", ("base_points", 0, "index"), DROP,
     SchemaError, "$.base_points[0]", "missing field 'index'"),
    ("missing-space-level", ("moduli", 0, "level"), DROP,
     SchemaError, "$.moduli[0]", "missing field 'level'"),
    ("missing-space-source", ("moduli", 0, "source"), DROP,
     SchemaError, "$.moduli[0]", "missing field 'source'"),
    ("missing-space-target", ("moduli", 0, "target"), DROP,
     SchemaError, "$.moduli[0]", "missing field 'target'"),
    ("missing-space-dim", ("moduli", 0, "dim"), DROP,
     SchemaError, "$.moduli[0]", "missing field 'dim'"),
    ("missing-space-components", ("moduli", 0, "components"), DROP,
     SchemaError, "$.moduli[0]", "missing field 'components'"),
    ("missing-space-critical_points", ("moduli", 0, "critical_points"), DROP,
     SchemaError, "$.moduli[0]", "missing field 'critical_points'"),
    ("missing-critical-point-id", ("moduli", 0, "critical_points", 0, "id"), DROP,
     SchemaError, "$.moduli[0].critical_points[0]", "missing field 'id'"),
    ("missing-critical-point-index", ("moduli", 0, "critical_points", 0, "index"), DROP,
     SchemaError, "$.moduli[0].critical_points[0]", "missing field 'index'"),
    ("missing-critical-point-component", ("moduli", 0, "critical_points", 0, "component"), DROP,
     SchemaError, "$.moduli[0].critical_points[0]", "missing field 'component'"),
    ("missing-factor-source", ("moduli", 0, "boundary"), [[{"target": "b"}]],
     SchemaError, "$.moduli[0].boundary[0][0]", "missing field 'source'"),
    ("missing-factor-target", ("moduli", 0, "boundary"), [[{"source": "a"}]],
     SchemaError, "$.moduli[0].boundary[0][0]", "missing field 'target'"),
    ("type-$", (), [], SchemaError, "$", "expected an object, got []"),
    ("type-name", ("name",), 5, SchemaError, "$.name", "expected a string, got 5"),
    ("type-max_level-string", ("max_level",), "1",
     SchemaError, "$.max_level", "expected an integer, got '1'"),
    ("type-max_level-bool", ("max_level",), True,
     SchemaError, "$.max_level", "expected an integer, got True"),
    ("type-base_points", ("base_points",), {},
     SchemaError, "$.base_points", "expected an array, got {}"),
    ("type-moduli", ("moduli",), "x", SchemaError, "$.moduli", "expected an array, got 'x'"),
    ("type-base-point", ("base_points", 0), "a",
     SchemaError, "$.base_points[0]", "expected an object, got 'a'"),
    ("type-base-point-id", ("base_points", 0, "id"), 1,
     SchemaError, "$.base_points[0].id", "expected a string, got 1"),
    ("type-base-point-index", ("base_points", 0, "index"), 1.0,
     SchemaError, "$.base_points[0].index", "expected an integer, got 1.0"),
    ("type-space", ("moduli", 0), 3, SchemaError, "$.moduli[0]", "expected an object, got 3"),
    ("type-space-level", ("moduli", 0, "level"), "1",
     SchemaError, "$.moduli[0].level", "expected an integer, got '1'"),
    ("type-space-source", ("moduli", 0, "source"), 1,
     SchemaError, "$.moduli[0].source", "expected a string, got 1"),
    ("type-space-target", ("moduli", 0, "target"), None,
     SchemaError, "$.moduli[0].target", "expected a string, got None"),
    ("type-space-dim", ("moduli", 0, "dim"), False,
     SchemaError, "$.moduli[0].dim", "expected an integer, got False"),
    ("type-space-components", ("moduli", 0, "components"), "d",
     SchemaError, "$.moduli[0].components", "expected an array, got 'd'"),
    ("type-space-component", ("moduli", 0, "components", 1), 3,
     SchemaError, "$.moduli[0].components[1]", "expected a string"),
    ("type-critical-point", ("moduli", 0, "critical_points", 0), "x",
     SchemaError, "$.moduli[0].critical_points[0]", "expected an object, got 'x'"),
    ("type-critical-point-id", ("moduli", 0, "critical_points", 0, "id"), ["ab_d"],
     SchemaError, "$.moduli[0].critical_points[0].id", "expected a string, got ['ab_d']"),
    ("type-critical-point-index", ("moduli", 0, "critical_points", 0, "index"), "0",
     SchemaError, "$.moduli[0].critical_points[0].index", "expected an integer, got '0'"),
    ("type-factor", ("moduli", 0, "boundary"), [[5]],
     SchemaError, "$.moduli[0].boundary[0][0]", "expected an object, got 5"),
    ("boundary-chain-empty", ("moduli", 0, "boundary"), [[]],
     SchemaError, "$.moduli[0].boundary[0]", "expected a non-empty array of factors"),
    ("boundary-chain-not-array", ("moduli", 0, "boundary"), [{"source": "a", "target": "b"}],
     SchemaError, "$.moduli[0].boundary[0]", "expected a non-empty array of factors"),
    ("negative-base-point-index", ("base_points", 0, "index"), -1,
     SchemaError, "$.base_points[0].index", "must be non-negative"),
    ("negative-critical-point-index", ("moduli", 0, "critical_points", 1, "index"), -1,
     SchemaError, "$.moduli[0].critical_points[1].index", "must be non-negative"),
    ("negative-max_level", ("max_level",), -1, SchemaError, "$.max_level", "must be non-negative"),
    ("level-zero", ("moduli", 0, "level"), 0,
     SchemaError, "$.moduli[0].level", "must be between 1 and max_level=1"),
    ("level-above-max", ("moduli", 0, "level"), 2,
     SchemaError, "$.moduli[0].level", "must be between 1 and max_level=1"),
    ("duplicate-base-point", ("base_points", 2), {"id": "a", "index": 0},
     DuplicateId, "$.base_points[2]", "duplicate id 'a'"),
    ("duplicate-critical-point", ("moduli", 0, "critical_points", 1, "id"), "ab_d",
     DuplicateId, "$.moduli[0].critical_points[1]", "duplicate id 'ab_d'"),
    ("critical-point-names-base-point", ("moduli", 0, "critical_points", 0, "id"), "b",
     DuplicateId, "$.moduli[0].critical_points[0]", "duplicate id 'b'"),
    ("duplicate-space", ("moduli", 1), dict(doc()["moduli"][0], critical_points=[]),
     DuplicateId, "$.moduli[1]", "duplicate id 'a->b'"),
    ("duplicate-component", ("moduli", 0, "components", 1), "d",
     DuplicateId, "$.moduli[0].components[1]", "duplicate id 'd'"),
    ("unknown-source", ("moduli", 0, "source"), "nowhere",
     UnknownId, "$.moduli[0].source", "unknown id 'nowhere'"),
    ("unknown-target", ("moduli", 0, "target"), "nowhere",
     UnknownId, "$.moduli[0].target", "unknown id 'nowhere'"),
    ("unknown-factor-source", ("moduli", 0, "boundary"), [[{"source": "ghost", "target": "b"}]],
     UnknownId, "$.moduli[0].boundary[0][0].source", "unknown id 'ghost'"),
    ("unknown-factor-target", ("moduli", 0, "boundary"), [[{"source": "a", "target": "ghost"}]],
     UnknownId, "$.moduli[0].boundary[0][0].target", "unknown id 'ghost'"),
    ("empty-components", ("moduli", 0, "components"), [],
     SchemaError, "$.moduli[0].components", "must be non-empty"),
]


@pytest.mark.parametrize(
    "path, value, cls, where, reason",
    [row[1:] for row in SINGLE_ERRORS],
    ids=[row[0] for row in SINGLE_ERRORS],
)
def test_single_error_documents_keep_their_report(path, value, cls, where, reason):
    with pytest.raises(NCatError) as e:
        parse(mutant(path, value))
    assert (type(e.value), e.value.path, str(e.value)) == (cls, where, f"{where}: {reason}")


@pytest.mark.parametrize(
    "path, value, where, reason",
    [
        (("moduli", 0, "critical_points"), 5,
         "$.moduli[0].critical_points", "expected an array, got 5"),
        (("moduli", 0, "critical_points"), {},
         "$.moduli[0].critical_points", "expected an array, got {}"),
        (("moduli", 0, "boundary"), 5, "$.moduli[0].boundary", "expected an array, got 5"),
        (("moduli", 0, "boundary"), None, "$.moduli[0].boundary", "expected an array, got None"),
        (("moduli", 0, "boundary"), {}, "$.moduli[0].boundary", "expected an array, got {}"),
        (("moduli", 0, "boundary"), [[{"source": ["a"], "target": "b"}]],
         "$.moduli[0].boundary[0][0].source", "expected a string, got ['a']"),
        (("moduli", 0, "boundary"), [[{"source": "a", "target": 5}]],
         "$.moduli[0].boundary[0][0].target", "expected a string, got 5"),
        (("moduli", 0, "critical_points", 0, "component"), 5,
         "$.moduli[0].critical_points[0].component", "expected a string, got 5"),
    ],
    ids=[
        "critical_points-number", "critical_points-object", "boundary-number", "boundary-null",
        "boundary-object", "factor-source-array", "factor-target-number", "component-number",
    ],
)
def test_every_field_is_type_checked(path, value, where, reason):
    with pytest.raises(SchemaError) as e:
        parse(mutant(path, value))
    assert (e.value.path, e.value.reason) == (where, reason)


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"name": ' + "1" * 5000 + "}", None, 5, {"name": "t"}],
    ids=["deep", "long-integer", "none", "number", "object"],
)
def test_unreadable_json_is_a_schema_error(text):
    with pytest.raises(SchemaError) as e:
        parse_flow_data(text)
    assert e.value.path == "$"
    assert e.value.reason.startswith("invalid JSON: ")


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("name",), "x\ud800", "$.name"),
        (("base_points", 0, "id"), "x\ud800", "$.base_points[0].id"),
        (("moduli", 0, "source"), "x\udbff", "$.moduli[0].source"),
        (("moduli", 0, "components", 1), "x\udc00", "$.moduli[0].components[1]"),
        (("moduli", 0, "critical_points", 0, "component"), "x\ud800",
         "$.moduli[0].critical_points[0].component"),
        (("moduli", 0, "boundary"), [[{"source": "a", "target": "b\udfff"}]],
         "$.moduli[0].boundary[0][0].target"),
        (("moduli", 0, "x\ud800"), 1, "$.moduli[0]"),
    ],
    ids=[
        "name", "base-point-id", "source", "component", "point-component", "factor-target",
        "unknown-key",
    ],
)
def test_lone_surrogates_are_schema_errors(path, value, where):
    with pytest.raises(SchemaError) as e:
        parse(mutant(path, value))
    assert e.value.path == where
    assert e.value.reason.startswith("lone surrogate U+D")
    assert e.value.reason.endswith(" at character 1")
    str(e.value).encode("utf-8")  # the message itself is writable


def test_surrogate_pairs_still_parse():
    fd = parse_flow_data(json.dumps(doc(name="pair \U0001d53b")))
    assert fd.name == "pair \U0001d53b"


@pytest.mark.parametrize(
    "call",
    [lambda: validate_flow_data("junk"), lambda: emit_flow_data(None)],
    ids=["validate-str", "emit-none"],
)
def test_a_non_flow_data_is_invalid_arguments(call):
    with pytest.raises(InvalidArguments, match="^expected a FlowData, got "):
        call()


def test_an_undeclared_home_is_an_unknown_id():
    # a hand-built FlowData whose point lives on a space it never declares
    points = {"a": CritPoint("a", 1, 0, None, None), "b": CritPoint("b", 0, 0, None, None),
              "p": CritPoint("p", 0, 1, ("a", "b"), "c")}
    with pytest.raises(UnknownId) as e:
        validate_flow_data(FlowData("h", 1, points, {}))
    assert (e.value.path, e.value.ident) == ("$", "a->b")


@pytest.mark.parametrize(
    "call",
    [lambda fd: fd.home_of("p"), lambda fd: point_like(Atom("p"), fd)],
    ids=["home-of", "point-like"],
)
def test_lookups_of_an_undeclared_home_raise_unknown_id(call):
    # these used to raise a bare KeyError: ('a', 'b')
    points = {"a": CritPoint("a", 1, 0, None, None), "b": CritPoint("b", 0, 0, None, None),
              "p": CritPoint("p", 0, 1, ("a", "b"), "c")}
    with pytest.raises(UnknownId) as e:
        call(FlowData("h", 1, points, {}))
    assert (e.value.path, e.value.ident, str(e.value)) == ("$", "a->b", "$: unknown id 'a->b'")


def renamed_chain(seed):
    """chain_document(3, 2) under a seeded renaming of its ids and
    components, with its base points, spaces and critical points shuffled."""
    rng = random.Random(seed)
    d = chain_document(3, 2)
    names = {bp["id"] for bp in d["base_points"]}
    for sp in d["moduli"]:
        names.update(sp["components"], (cp["id"] for cp in sp["critical_points"]))
    text = json.dumps(d)
    for old, i in zip(sorted(names), rng.sample(range(100), len(names))):
        text = text.replace(f'"{old}"', f'"n{i}"')  # no old name starts with n
    d = json.loads(text)
    for entries in [d["base_points"], d["moduli"]] + [sp["critical_points"] for sp in d["moduli"]]:
        rng.shuffle(entries)
    return d


def late_targets():
    """(name, document, path in the document, its JSON path, string field,
    integer field, another entry's id) for the last base point, the last
    space, that space's last critical point, and the last factor of the
    last boundary stratum of tilted_torus(3)."""
    d = renamed_chain(7)
    n, m = len(d["moduli"]) - 1, len(d["moduli"][-1]["critical_points"]) - 1
    first = d["base_points"][0]["id"]
    yield ("base-point", d, ("base_points", len(d["base_points"]) - 1),
           f"$.base_points[{len(d['base_points']) - 1}]", "id", "index", first)
    yield ("space", d, ("moduli", n), f"$.moduli[{n}]", "source", "dim", None)
    yield ("critical-point", d, ("moduli", n, "critical_points", m),
           f"$.moduli[{n}].critical_points[{m}]", "id", "index", first)
    t = tilted_torus(3)
    n = max(i for i, sp in enumerate(t["moduli"]) if sp.get("boundary"))
    m = len(t["moduli"][n]["boundary"]) - 1
    k = len(t["moduli"][n]["boundary"][m]) - 1
    yield ("factor", t, ("moduli", n, "boundary", m, k), f"$.moduli[{n}].boundary[{m}][{k}]",
           "source", None, None)


def late_errors():
    """One row per error kind and late entry: the edits (field -> value,
    DROP to delete), the exception class, its path and its message."""
    for name, d, where, path, text, number, taken in late_targets():
        rows = [
            ("unknown-field", {"extra": 1}, SchemaError, f"{path}.extra", "unknown field"),
            ("missing-field", {text: DROP}, SchemaError, path, f"missing field {text!r}"),
            ("wrong-type", {text: 5}, SchemaError, f"{path}.{text}", "expected a string, got 5"),
            ("lone-surrogate", {text: "x\ud800"}, SchemaError, f"{path}.{text}",
             "lone surrogate U+D800 at character 1"),
        ]
        if number:
            rows.append(("bool-for-int", {number: True}, SchemaError, f"{path}.{number}",
                         "expected an integer, got True"))
        if number == "index":
            rows.append(("negative-index", {number: -1}, SchemaError, f"{path}.index",
                         "must be non-negative"))
        if taken:
            rows.append(("duplicate-id", {"id": taken}, DuplicateId, path, f"duplicate id {taken!r}"))
        if name == "space":  # the first space's endpoints again
            s, t = d["moduli"][0]["source"], d["moduli"][0]["target"]
            rows.append(("duplicate-id", {"source": s, "target": t}, DuplicateId, path,
                         f"duplicate id '{s}->{t}'"))
        if name in ("space", "factor"):
            rows.append(("unknown-id", {text: "ghost"}, UnknownId, f"{path}.{text}",
                         "unknown id 'ghost'"))
        for kind, edits, cls, at, reason in rows:
            yield pytest.param(d, where, edits, cls, at, reason, id=f"{name}-{kind}")


@pytest.mark.parametrize("d, where, edits, cls, at, reason", list(late_errors()))
def test_late_entries_keep_their_report(d, where, edits, cls, at, reason):
    # paths are built only once a check fails; they must still name the
    # right n, m and k
    d = json.loads(json.dumps(d))
    node = d
    for key in where:
        node = node[key]
    for field, value in edits.items():
        if value is DROP:
            del node[field]
        else:
            node[field] = value
    with pytest.raises(NCatError) as e:
        parse(d)
    assert (type(e.value), e.value.path, str(e.value)) == (cls, at, f"{at}: {reason}")


def canonical(d):
    """d as emit_flow_data writes it: an empty boundary is left out."""
    d = json.loads(json.dumps(d))
    for sp in d["moduli"]:
        if sp.get("boundary") == []:
            del sp["boundary"]
    return d


def non_ascii(d):
    """d with every point id, component name and its own name marked by a
    non-ASCII prefix (two-byte, three-byte or astral in UTF-8), one mark
    per name."""
    marks = ("é", "点", "\U0001d53b")

    def mark(x):
        return marks[sum(map(ord, x)) % 3] + x

    d = json.loads(json.dumps(d))
    d["name"] = marks[2] + d["name"]
    for bp in d["base_points"]:
        bp["id"] = mark(bp["id"])
    for sp in d["moduli"]:
        sp["source"], sp["target"] = mark(sp["source"]), mark(sp["target"])
        sp["components"] = [mark(c) for c in sp["components"]]
        for chain in sp.get("boundary", []):
            for f in chain:
                f["source"], f["target"] = mark(f["source"]), mark(f["target"])
        for cp in sp["critical_points"]:
            cp["id"], cp["component"] = mark(cp["id"]), mark(cp["component"])
    return d


@pytest.mark.parametrize(
    "make, marked",
    [(lambda: chain_document(3, 2), False), (lambda: tilted_torus(3), False),
     (lambda: non_ascii(chain_document(3, 2)), True), (lambda: non_ascii(tilted_torus(3)), True)],
    ids=["chain-3-2", "tilted-torus-3", "chain-3-2-non-ascii", "tilted-torus-3-non-ascii"],
)
def test_only_non_ascii_strings_take_the_full_check(monkeypatch, make, marked):
    # an ASCII document clears every object in one pass; a non-ASCII one
    # takes the ordered checks, encodes its strings and still parses
    encoded = []
    real_text = flowdata._text
    monkeypatch.setattr(flowdata, "_text", lambda v, path: encoded.append(v) or real_text(v, path))
    d = make()
    fd = parse(d)
    assert bool(encoded) == marked
    assert all(not s.isascii() for s in encoded)
    assert list(fd.points) == [bp["id"] for bp in d["base_points"]] + [
        cp["id"] for sp in d["moduli"] for cp in sp["critical_points"]]
    assert validate_flow_data(fd).passed
    assert emit_flow_data(fd) == canonical(d)


class _DictSubclass(dict):
    """An object _object's one pass skips: it takes the ordered checks."""


SCHEMAS = {
    "document": flowdata._DOCUMENT,
    "base-point": flowdata._BASE_POINT,
    "crit-point": flowdata._CRIT_POINT,
    "space": flowdata._SPACE,
    "factor": flowdata._FACTOR,
}
VALUES = {
    int: st.integers(-2, 9),
    str: st.text("abz_0", min_size=1, max_size=4),
    list: st.lists(st.integers(0, 3), max_size=2),
}
OTHER = st.sampled_from([None, 1.5, 3, "a", [], {"a": 1}])  # a value of some JSON type


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_the_one_pass_and_the_ordered_checks_agree(data):
    # _object clears a dict with exact types and ASCII strings in one pass and
    # runs the ordered checks on anything else; both give one value or error
    schema = SCHEMAS[data.draw(st.sampled_from(sorted(SCHEMAS)))]
    fields, optional = schema[0], schema[4]
    value = {key: data.draw(VALUES[kind]) for key, kind in fields.items()
             if key not in optional or data.draw(st.booleans())}
    value = {key: value[key] for key in data.draw(st.permutations(list(value)))}
    mutation = data.draw(st.sampled_from(["none", "drop", "add", "type", "bool", "non-ascii", "surrogate"]))
    keys = list(fields)
    if mutation in ("non-ascii", "surrogate"):
        keys = [k for k in fields if fields[k] is str]
    elif mutation == "bool":
        keys = [k for k in fields if fields[k] is int] or keys
    key = data.draw(st.sampled_from(keys))
    if mutation == "drop":
        value.pop(key, None)
    elif mutation == "add":
        value[data.draw(st.sampled_from(["extra", "Name", "\u00e9", "\ud800"]))] = data.draw(OTHER)
    elif mutation == "type":
        value[key] = data.draw(OTHER.filter(lambda v: type(v) is not fields[key]))
    elif mutation == "bool":
        value[key] = data.draw(st.booleans())
    elif mutation == "non-ascii":
        value[key] = data.draw(VALUES[str]) + data.draw(st.sampled_from(["\u00e9", "\u03c0", "\U0001d11e"]))
    elif mutation == "surrogate":
        value[key] = data.draw(st.text("ab", max_size=2)) + data.draw(st.sampled_from(["\ud800", "\udfff"]))

    def outcome(v):
        try:
            return flowdata._object(v, schema, "$.moduli[{}]", (2,))
        except NCatError as e:
            return type(e), str(e)

    assert outcome(value) == outcome(_DictSubclass(value))


@pytest.mark.parametrize(
    "make",
    [lambda: non_ascii(chain_document(3, 2)), lambda: non_ascii(tilted_torus(3)),
     lambda: tilted_torus(2), lambda: tilted_torus(3), lambda: tilted_torus(4)],
    ids=["chain-3-2-non-ascii", "tilted-torus-3-non-ascii", "tilted-torus-2", "tilted-torus-3",
         "tilted-torus-4"],
)
def test_emit_round_trips_generated_documents(make):
    d = make()
    emitted = emit_flow_data(parse(d))
    assert json.dumps(emitted) == json.dumps(canonical(d))  # field order too
    assert emit_flow_data(parse_flow_data(json.dumps(emitted, ensure_ascii=False))) == emitted


def _edited(d, edit):
    edit(d)
    return d


def _torus_target(target):
    d = torus_document()
    next(sp for sp in d["moduli"] if sp["source"] == "wz_max_dd")["target"] = target
    return d


# Documents whose validation report is pinned, valid ones and the failing
# fixtures above, by a maker of each
REPORT_DOCUMENTS = {
    "torus": torus_document,
    "tilted-torus-2": lambda: tilted_torus(2),
    "tilted-torus-3": lambda: tilted_torus(3),
    "tilted-torus-4": lambda: tilted_torus(4),
    "chain-300-8": lambda: chain_document(300, 8),
    "dim-formula": lambda: mutant(("moduli", 0, "dim"), 3),
    "component-refs": lambda: mutant(("moduli", 0, "critical_points", 0, "component"), "nope"),
    "index-bound": lambda: mutant(("moduli", 0, "critical_points", 0, "index"), 5),
    "endpoints-other-home": lambda: _torus_target("xz_d"),
    "endpoints-same-point": lambda: _torus_target("wz_max_dd"),
    "boundary-monotonicity": lambda: _edited(
        three_step(), lambda d: d["moduli"][2].update(boundary=[[{"source": "m", "target": "b"}]])),
    "boundary-dim-sum": lambda: _edited(three_step(), lambda d: d["moduli"][2].update(dim=0)),
    "boundary-undeclared-factor": lambda: _edited(three_step(), lambda d: d["moduli"].pop(0)),
}

# sha256 of json.dumps(validate_flow_data(fd).to_dict(), sort_keys=True),
# as validation gave them before parsing and validating took one pass
VALIDATION_DIGESTS = {
    "boundary-dim-sum": "a6dce33cf0429679b2e2b30a474809abb119e33d996e642f87a66d5f16e459c8",
    "boundary-monotonicity": "73a0ca7874c28ac57820a3e3561385300b0880c59fd44083ff1cac84f96c7918",
    "boundary-undeclared-factor": "766d01f032443e37cf6e8dd0bdc9b0c66ee2791af9a6b222fac430bed8e6284b",
    "chain-300-8": "dbf6a2914263f04dd85d9e255fc2e3c9b2c98ce79696c0f0c141b217886a90e8",
    "component-refs": "8a3cbe1c9dddc606844ce4972a34de9f970ad20617c7fbd936bad63375f52305",
    "dim-formula": "4b032b0b14f0fbc666e03c28f155ce85de976b88b35b87bb1d33f28697939b7c",
    "endpoints-other-home": "f76ce40088accda17c2112d1b5c1c05755e68b4106c7441466d917bc91d941fa",
    "endpoints-same-point": "e92f683f9a49608125bbc7ff10beac6d245dd01bfc9a3a15ad76d6bb6c0e034d",
    "index-bound": "b5a52bba5391916b1e69acbe5cacf6a06edf63d4816b7283380c8d590190b73b",
    "tilted-torus-2": "4dffedf67d629663bb24ab3be87ca1c22b99674b5aff7019449cdd3c6d9682a8",
    "tilted-torus-3": "8ec8d03cee8499d52e2431e0626a97af486060419fe30a8a1fa8ea210d2d107a",
    "tilted-torus-4": "73c4809e85539439cc870a601532bc65d1ec4be664185aa3e73067f4d565abff",
    "torus": "c0bc4745b81d7716901426927fa5b55062a3c4b5f6131e3b5f245e87df25d46a",
}


@pytest.mark.parametrize("name", sorted(REPORT_DOCUMENTS))
def test_validation_reports_are_byte_identical(name):
    report = validate_flow_data(parse(REPORT_DOCUMENTS[name]()))
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VALIDATION_DIGESTS[name]
