"""End-to-end CLI runs: output shape, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncat.cli import main
from ncat.errors import FlowDataInconsistent
from ncat.families import tilted_torus
from ncat.flowdata import parse_flow_data
from ncat.functors import functor_f, functor_g, ind_env
from ncat.vcat import v_render
from ncat.wcat import w_render
from ncat.xcat import XCategory, x_render

from oracles import chain_document

CMD = [sys.executable, "-m", "ncat"]


def run(*args, **kw):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def torus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "torus.json"
    out = run("torus", "--emit")
    assert out.returncode == 0
    path.write_text(out.stdout)
    return str(path)


def test_torus_text(capfd):
    out = run("torus")
    assert out.returncode == 0
    assert "|X(0)| = 4, |X(1)| = 16, |X(2)| = 12" in out.stdout
    assert "expected tables: match" in out.stdout


def test_torus_json():
    out = run("torus", "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["schema"] == 1
    assert doc["command"] == "torus"
    assert doc["counts"] == {"0": 4, "1": 16, "2": 12}
    assert doc["match"] is True


def test_emitted_fixture_validates(torus_file):
    out = run("validate", torus_file)
    assert out.returncode == 0
    assert out.stdout.strip().endswith("checks)")
    assert "FAIL" not in out.stdout


def test_validate_json(torus_file):
    out = run("validate", torus_file, "--format", "json")
    doc = json.loads(out.stdout)
    assert doc["schema"] == 1
    assert doc["report"]["passed"] is True


def test_validate_failure_names_the_check(tmp_path, torus_file):
    broken = json.loads(Path(torus_file).read_text())
    broken["moduli"][2]["dim"] = 7  # the (w,z) space
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    out = run("validate", str(path))
    assert out.returncode == 1
    assert "dim-formula" in out.stdout


def test_parse_error_is_exit_two(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"name": "x"}')
    out = run("validate", str(path))
    assert out.returncode == 2
    assert "missing field" in out.stderr


def test_missing_file_is_exit_two():
    out = run("validate", "/nonexistent/f.json")
    assert out.returncode == 2


def test_usage_error_is_exit_two():
    assert run("axioms").returncode == 2  # --category required
    assert run("axioms", "--category", "x").returncode == 2  # file required
    assert run("nonsense").returncode == 2


def test_build(torus_file):
    out = run("build", torus_file, "--level", "2")
    assert out.returncode == 0
    assert "level 0: 4 cells" in out.stdout
    assert "level 1: 16 cells" in out.stdout
    assert "level 2: 12 cells" in out.stdout


def test_build_past_the_top_level(torus_file):
    out = run("build", torus_file, "--level", "9")
    assert out.returncode == 0
    assert "no cells above level 2" in out.stdout


def test_axioms_w_and_v():
    for category in ("w", "v"):
        out = run("axioms", "--category", category, "--level", "2", "--samples", "50")
        assert out.returncode == 0
        assert "result: PASS" in out.stdout


def test_axioms_x(torus_file):
    out = run("axioms", torus_file, "--category", "x")
    assert out.returncode == 0
    for axiom in (
        "globular-ss", "globular-ts", "comp-st", "id-st",
        "assoc", "unit", "binary-interchange", "nullary-interchange",
    ):
        assert axiom in out.stdout
    assert "result: PASS" in out.stdout


def test_axioms_json_report():
    out = run("axioms", "--category", "w", "--level", "1", "--format", "json")
    doc = json.loads(out.stdout)
    assert doc["schema"] == 1
    assert doc["report"]["passed"] is True
    assert {e["axiom"] for e in doc["report"]["entries"]} >= {"assoc", "unit"}


def test_functor_g(torus_file):
    out = run("functor", torus_file, "--target", "g")
    assert out.returncode == 0
    assert "  w -> 2" in out.stdout
    assert "(wz_max_dd; w->z) -> (1, [2 ; 0])" in out.stdout


def test_functor_f(torus_file):
    out = run("functor", torus_file, "--target", "f")
    assert out.returncode == 0
    assert "  w -> R^2" in out.stdout
    assert "(wx_d; w->x) -> (R^0, Hom(R^2,R^1))" in out.stdout


def test_inconsistent_data_is_exit_one(tmp_path):
    doc = {
        "name": "overweight",
        "max_level": 1,
        "base_points": [{"id": "a", "index": 3}, {"id": "b", "index": 0}],
        "moduli": [{
            "level": 1, "source": "a", "target": "b", "dim": 2,
            "components": ["c"],
            "critical_points": [{"id": "ab", "index": 9, "component": "c"}],
        }],
    }
    path = tmp_path / "overweight.json"
    path.write_text(json.dumps(doc))
    out = run("validate", str(path))
    assert out.returncode == 1
    assert "index-bound" in out.stdout


def test_byte_identical_reruns(torus_file):
    for args in (
        ["torus"],
        ["torus", "--emit"],
        ["axioms", "--category", "w", "--level", "2", "--seed", "7", "--samples", "40"],
        ["axioms", torus_file, "--category", "x", "--format", "json"],
    ):
        first, second = run(*args), run(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout


# sha256 of the stdout of `axioms --category <c> --level 4 --samples 300
# --seed 0 --format <f>`, frozen at commit 6056041: the level-4 capped path
# of the CLI default, which the byte-identity runs above reach only at level 2.
# At the CLI's entry bound the cap cuts nothing, so other seeds check the same
# instances and differ only in the header's seed.
AXIOMS_LEVEL_4 = {
    ("w", "text"): "9c0da7859b22aec980ce75dbcb89ed305fc05c43f8229cb663f80c0d4688adb4",
    ("w", "json"): "bcfcd0adafdf7ff25421aef401258604d5ca91ac78f441a2d0292383bb25f0ba",
    ("v", "text"): "d781631f699af9766147d4091d77b3a8bbb3b0f39062277315a22babc8b36a5d",
    ("v", "json"): "3c4ca62d1b9b2cc85d04853781ce0f83cab6520fe04508f8e157c39482259c3a",
}


@pytest.mark.parametrize("category, fmt", sorted(AXIOMS_LEVEL_4))
def test_axioms_level_four_output_is_pinned(capsys, category, fmt):
    argv = ["axioms", "--category", category, "--level", "4", "--samples", "300", "--seed", "0"]
    assert main(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == AXIOMS_LEVEL_4[category, fmt]


OVERWEIGHT = {
    "name": "overweight",
    "max_level": 1,
    "base_points": [{"id": "a", "index": 3}, {"id": "b", "index": 0}],
    "moduli": [{
        "level": 1, "source": "a", "target": "b", "dim": 2,
        "components": ["c"],
        "critical_points": [{"id": "ab", "index": 9, "component": "c"}],
    }],
}
OVERWEIGHT_CHECKS = [
    ("endpoints", "(a,b)", ""),
    ("dim-formula", "(a,b)", ""),
    ("component-refs", "ab", ""),
    ("index-bound", "ab", "index 9 exceeds home dimension 2"),
]
NOT_DONE = "flow data overweight failed validation; not {}\n  index-bound ab: index 9 exceeds home dimension 2\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "args, head, text",
    [
        (
            ["build"],
            {"command": "build", "name": "overweight"},
            "flow data: overweight\n"
            "  endpoints              (a,b)                    pass\n"
            "  dim-formula            (a,b)                    pass\n"
            "  component-refs         ab                       pass\n"
            "  index-bound            ab                       FAIL  index 9 exceeds home dimension 2\n"
            "result: FAIL (4 checks)\n",
        ),
        (
            ["axioms", "--category", "x"],
            {"command": "axioms", "category": "x"},
            NOT_DONE.format("checking axioms"),
        ),
        (
            ["functor", "--target", "g"],
            {"command": "functor", "target": "g"},
            NOT_DONE.format("applying the functor"),
        ),
    ],
    ids=["build", "axioms-x", "functor"],
)
def test_invalid_document_is_refused(tmp_path, fmt, args, head, text):
    path = tmp_path / "overweight.json"
    path.write_text(json.dumps(OVERWEIGHT))
    out = run(args[0], str(path), *args[1:], "--format", fmt)
    if fmt == "json":
        checks = [
            {"check": c, "subject": s, "passed": not d, "detail": d}
            for c, s, d in OVERWEIGHT_CHECKS
        ]
        report = {"checks": checks, "passed": False}
        text = json.dumps({"schema": 1, **head, "report": report}, indent=2) + "\n"
    assert (out.returncode, out.stdout) == (1, text)


def _document_file(tmp_path, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


NOT_AN_ARRAY = dict(OVERWEIGHT, moduli=[dict(OVERWEIGHT["moduli"][0], critical_points=5)])


@pytest.mark.parametrize(
    "content, stderr",
    [
        (NOT_AN_ARRAY, "ncat: SchemaError: $.moduli[0].critical_points: expected an array, got 5"),
        ("[" * 100_000, "ncat: SchemaError: $: invalid JSON: "),
        (b'{"name": "\xff\xfe"}', "ncat: cannot read "),
    ],
    ids=["critical_points-number", "deep-json", "not-utf8"],
)
def test_unreadable_document_is_exit_two(tmp_path, content, stderr):
    out = run("validate", _document_file(tmp_path, content))
    assert out.returncode == 2
    assert out.stderr.startswith(stderr)
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["axioms", "--category", "w", "--samples", "-1"],
        ["axioms", "--category", "w", "--level", "-1"],
        ["build", "{file}", "--level", "-1"],
        ["functor", "{file}", "--target", "g", "--level", "-1"],
    ],
    ids=["axioms-samples", "axioms-level", "build-level", "functor-level"],
)
def test_negative_counts_are_usage_errors(torus_file, args):
    out = run(*(torus_file if a == "{file}" else a for a in args))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "non-negative integer" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("category", ["w", "x"])
def test_a_cap_past_maxsize_checks_everything(capsys, torus_file, category):
    # --samples 2**63 reached islice, which raised ValueError, exit 1
    args = ["axioms", torus_file, "--category", category, "--level", "2", "--format", "json", "--samples"]
    reports = []
    for cap in ("9223372036854775808", "1000000"):
        assert main(args + [cap]) == 0
        reports.append(json.loads(capsys.readouterr().out)["report"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lone_surrogate_is_exit_two(tmp_path, fmt):
    content = '{"name": "\\ud800", "max_level": 0, "base_points": [], "moduli": []}'
    out = run("validate", _document_file(tmp_path, content), "--format", fmt)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "ncat: SchemaError: $.name: lone surrogate U+D800 at character 0\n"


# ------------------------------------------------- the interpreter process

def test_importing_the_cli_loads_no_dataclasses():
    # every value type is a NamedTuple, so CLI start needs no dataclasses
    done = subprocess.run([sys.executable, "-c", "import sys, ncat.cli; sys.exit('dataclasses' in sys.modules)"])
    assert done.returncode == 0


def test_the_runtime_imports_only_the_standard_library():
    # -I -S leave site-packages off sys.path, so a non-stdlib import fails, and -W error fails a warning
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import ncat.cli, ncat.families"
    done = subprocess.run([sys.executable, "-I", "-S", "-W", "error", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("args", [["-c", "import ncat.cli"], ["-m", "ncat", "torus"]], ids=["import", "torus"])
def test_the_cli_raises_no_warning(args):
    # -W error makes a deprecation warning on a newer Python fail the run
    done = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def seed_documents(tmp_path_factory, torus_file):
    folder = tmp_path_factory.mktemp("seeds")
    docs = {"torus": torus_file}
    for name, doc in (("chain-4-2", chain_document(4, 2)), ("tilted-torus-3", tilted_torus(3))):
        docs[name] = str(folder / f"{name}.json")
        (folder / f"{name}.json").write_text(json.dumps(doc))
    return docs


# Label and cell hashes are tuple hashes over str ids, which PYTHONHASHSEED
# changes, so no output may follow set or dict hash order.  XCategory's
# tables key on label and cell ids, which it hands out in the order it first
# meets a label or cell, and every compose miss interns its operands and
# glues through the label-pair table (the capped chain run has such misses).
# Only a document above level 2 glues pairs of diagonals deeply, so
# tilted_torus(3) runs at level 3.
HASH_SEED_RUNS = [
    ("build", "torus"),
    ("functor --target g", "torus"),
    ("functor --target f", "torus"),
    ("axioms --category x --format json", "torus"),
    ("axioms --category x --format json", "chain-4-2"),
    ("axioms --category x --samples 7 --seed 3 --format json", "chain-4-2"),
    ("build --level 3", "tilted-torus-3"),
    ("axioms --category x --level 3 --format json", "tilted-torus-3"),
    ("functor --target g", "chain-4-2"),
    ("functor --target f", "chain-4-2"),
    ("functor --target g --level 3", "tilted-torus-3"),
    ("functor --target f --level 3", "tilted-torus-3"),
]


@pytest.mark.parametrize("args, doc", HASH_SEED_RUNS, ids=[f"{a}:{d}" for a, d in HASH_SEED_RUNS])
def test_output_does_not_depend_on_the_hash_seed(seed_documents, args, doc):
    outs = [
        subprocess.run(CMD + args.split() + [seed_documents[doc]], capture_output=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed))
        for seed in ("0", "1")
    ]
    assert [o.returncode for o in outs] == [0, 0], outs[0].stderr
    assert outs[0].stdout == outs[1].stdout


def functor_reference(fd, target, level, fmt):
    """`functor` output built cell by cell from functor_g or functor_f."""
    env, top, rows, failures = ind_env(fd), min(level, fd.max_level), [], []
    apply, render = (functor_g, w_render) if target == "g" else (functor_f, v_render)
    x = XCategory(fd)
    for l in range(top + 1):
        for cell in x.cells(l):
            try:
                rows.append((x_render(cell), render(apply(cell, env))))
            except FlowDataInconsistent as e:
                failures.append(str(e))
    if fmt == "json":
        doc = {"schema": 1, "command": "functor", "target": target, "name": fd.name,
               "images": [{"cell": c, "image": i} for c, i in rows], "failures": failures}
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"functor {target.upper()} on {fd.name}, levels 0..{top}"]
    lines += [f"  {c} -> {i}" for c, i in rows] + [f"  INCONSISTENT  {m}" for m in failures]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("target", ["g", "f"])
@pytest.mark.parametrize("doc, level", [("torus", 2), ("chain-4-2", 2), ("tilted-torus-3", 3)])
def test_functor_output_equals_the_per_cell_images(capsys, seed_documents, doc, level, target, fmt):
    # the command maps cells through an image table on index tuples and
    # renders each image once; the output is still each cell's own image
    path = seed_documents[doc]
    with open(path, encoding="utf-8") as fh:
        fd = parse_flow_data(fh.read())
    assert main(["functor", path, "--target", target, "--level", str(level), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out == functor_reference(fd, target, level, fmt)
    assert len(out.splitlines()) > 10


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("chain") / "chain-300-8.json"
    path.write_text(json.dumps(chain_document(300, 8)))
    return str(path)


def test_unbuffered_output_is_byte_identical(chain_file):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    outs = [
        subprocess.run(CMD + ["validate", chain_file], capture_output=True, env=dict(env, **extra))
        for extra in ({}, {"PYTHONUNBUFFERED": "1"})
    ]
    assert [o.returncode for o in outs] == [0, 0], outs[0].stderr
    assert outs[0].stdout.count(b"\n") > 5000
    assert outs[0].stdout == outs[1].stdout


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_report_is_one_write(chain_file, monkeypatch, fmt):
    out = _CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["validate", chain_file, "--format", fmt]) == 0
    assert out.writes == 1
    assert out.getvalue().endswith("checks)\n" if fmt == "text" else "}\n")
