"""Command-line front end.

    ncat validate <file>              schema + semantic checks on flow data
    ncat build <file> --level L       enumerate cells up to a level
    ncat axioms [<file>] --category w|v|x   run the category laws
    ncat functor <file> --target g|f  apply an index functor to every cell
    ncat torus [--emit]               the built-in fixture and its tables

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or parse
error.  Output for a given (command, input, seed) is byte-identical
across runs; --format json wraps the same data as a versioned document.
"""

from __future__ import annotations

import argparse
import json
import sys

from .axioms import check_axioms, check_globularity
from .errors import FlowDataInconsistent, NCatError
from .flowdata import parse_flow_data, validate_flow_data
from .functors import _rendered_images
from .torus import torus_document, torus_expected, torus_flow_data
from .vcat import VCategory
from .wcat import WCategory
from .xcat import XCategory, x_render

SCHEMA_VERSION = 1
ENUM_BOUND = 3  # entry bound behind `axioms --category w|v`


def _emit(payload: dict, args, text_lines) -> None:
    """Write the report with one write, so unbuffered output costs no write per line."""
    if args.fmt == "json":
        sys.stdout.write(json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join([*text_lines, ""]))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _Usage(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})") from None


class _Usage(Exception):
    pass


def _load(path: str):
    fd = parse_flow_data(_read(path))
    report = validate_flow_data(fd)
    return fd, report


def _validation_lines(fd, report):
    lines = [f"flow data: {fd.name}"]
    for c in report.checks:
        status = "pass" if c.passed else f"FAIL  {c.detail}"
        lines.append(f"  {c.check:<22} {c.subject:<24} {status}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'} ({len(report.checks)} checks)")
    return lines


def cmd_validate(args) -> int:
    fd, report = _load(args.file)
    _emit(
        {"command": "validate", "name": fd.name, "report": report.to_dict()},
        args,
        _validation_lines(fd, report),
    )
    return 0 if report.passed else 1


def _load_valid(args, head: dict, doing: str | None = None):
    """The document named by ``args.file``, or None after printing the
    refusal of one that fails validation.  With ``doing``, the refusal says
    what was not done and lists the failed checks; without it, it is
    `validate`'s report with the document's name added to ``head``."""
    fd, report = _load(args.file)
    if report.passed:
        return fd
    if doing is None:
        head = {**head, "name": fd.name}
        lines = _validation_lines(fd, report)
    else:
        lines = [f"flow data {fd.name} failed validation; not {doing}"]
        lines += [f"  {c.check} {c.subject}: {c.detail}" for c in report.failures()]
    _emit({**head, "report": report.to_dict()}, args, lines)
    return None


def cmd_build(args) -> int:
    fd = _load_valid(args, {"command": "build"})
    if fd is None:
        return 1
    x = XCategory(fd)
    top = min(args.level, fd.max_level)
    levels = {l: [x_render(c) for c in x.cells(l)] for l in range(top + 1)}
    lines = [f"flow data: {fd.name} (levels 0..{top})"]
    for l, cells in levels.items():
        lines.append(f"level {l}: {len(cells)} cells")
        lines.extend(f"  {c}" for c in cells)
    if args.level > fd.max_level:
        lines.append(f"note: no cells above level {fd.max_level}")
    _emit(
        {
            "command": "build",
            "name": fd.name,
            "counts": {str(l): len(cells) for l, cells in levels.items()},
            "cells": {str(l): cells for l, cells in levels.items()},
        },
        args,
        lines,
    )
    return 0


def cmd_axioms(args) -> int:
    if args.category == "x":
        if args.file is None:
            raise _Usage("axioms --category x needs a flow-data file")
        head = {"command": "axioms", "category": "x"}
        fd = _load_valid(args, head, "checking axioms")
        if fd is None:
            return 1
        cat, name = XCategory(fd, include_composites=True), fd.name
    else:
        make = WCategory if args.category == "w" else VCategory
        cat, name = make(max_level=args.level, bound=ENUM_BOUND), args.category
    levels = range(min(args.level, cat.max_level) + 1)
    report = check_globularity(cat, levels).merged(
        check_axioms(cat, seed=args.seed, samples=args.samples, levels=levels)
    )
    lines = [
        f"axioms: category {args.category} ({name}), levels 0..{levels[-1]}, "
        f"seed {args.seed}, samples {args.samples}"
    ]
    for e in report.entries:
        lines.append(f"  {e.axiom:<22} checked {e.checked:<5} {e.verdict}")
        lines.extend(f"    {f.detail}" for f in e.failures)
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    _emit(
        {
            "command": "axioms",
            "category": args.category,
            "config": {"level": args.level, "seed": args.seed, "samples": args.samples},
            "report": report.to_dict(),
        },
        args,
        lines,
    )
    return 0 if report.passed else 1


def cmd_functor(args) -> int:
    head = {"command": "functor", "target": args.target}
    fd = _load_valid(args, head, "applying the functor")
    if fd is None:
        return 1
    image, x = _rendered_images(fd, args.target), XCategory(fd)  # each distinct image rendered once
    top, rows, failures = min(args.level, fd.max_level), [], []
    for l in range(top + 1):
        for cell in x.cells(l):
            name = x_render(cell)
            try:
                rows.append((name, image(cell, name)))
            except FlowDataInconsistent as e:
                failures.append(str(e))
    lines = [f"functor {args.target.upper()} on {fd.name}, levels 0..{top}"]
    lines.extend(f"  {cell} -> {img}" for cell, img in rows)
    lines.extend(f"  INCONSISTENT  {msg}" for msg in failures)
    images = [{"cell": c, "image": i} for c, i in rows]
    _emit({**head, "name": fd.name, "images": images, "failures": failures}, args, lines)
    return 0 if not failures else 1


def cmd_torus(args) -> int:
    if args.emit:
        print(json.dumps(torus_document(), indent=2))
        return 0
    fd, exp = torus_flow_data(), torus_expected()
    x, image = XCategory(fd), _rendered_images(fd, "g")
    levels = [x.cells(l) for l in range(fd.max_level + 1)]
    counts = {l: len(cells) for l, cells in enumerate(levels)}
    table = {name: image(c, name) for cells in levels for c in cells for name in (x_render(c),)}
    problems = []
    if counts != exp.counts:
        problems.append(f"cell counts {counts} != expected {exp.counts}")
    for cell, want in exp.g_table.items():
        got = table.get(cell)
        if got != want:
            problems.append(f"G({cell}) = {got}, expected {want}")
    for cell in table:
        if cell not in exp.g_table:
            problems.append(f"unexpected cell {cell}")

    lines = [f"{fd.name} cell counts: " + ", ".join(f"|X({l})| = {n}" for l, n in counts.items())]
    lines.append("G images:")
    lines.extend(f"  {cell} -> {img}" for cell, img in table.items())
    lines.extend(f"MISMATCH  {p}" for p in problems)
    lines.append("expected tables: " + ("match" if not problems else "MISMATCH"))
    _emit(
        {
            "command": "torus",
            "name": fd.name,
            "counts": {str(l): n for l, n in counts.items()},
            "g_table": table,
            "match": not problems,
            "problems": problems,
        },
        args,
        lines,
    )
    return 0 if not problems else 1


def _non_negative(text: str) -> int:
    """The type of --level and --samples: anything but a non-negative
    integer is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncat",
        description="cell algebra and law checking for combinatorial Morse flow data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_level=True):
        if with_level:
            p.add_argument(
                "--level", type=_non_negative, default=2, help="top level to use (default 2)"
            )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt",
            help="output format (default text)",
        )

    p = sub.add_parser("validate", help="check a flow-data file")
    p.add_argument("file")
    common(p, with_level=False)
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("build", help="enumerate the cells of a flow-data file")
    p.add_argument("file")
    common(p)
    p.set_defaults(run=cmd_build)

    p = sub.add_parser("axioms", help="check the category laws")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--category", choices=("w", "v", "x"), required=True)
    p.add_argument("--seed", type=int, default=0, help="subsampling seed (default 0)")
    p.add_argument(
        "--samples", type=_non_negative, default=1000,
        help="cap on cells/pairs per law instance (default 1000)",
    )
    common(p)
    p.set_defaults(run=cmd_axioms)

    p = sub.add_parser("functor", help="apply an index functor to every cell")
    p.add_argument("file")
    p.add_argument("--target", choices=("g", "f"), required=True)
    common(p)
    p.set_defaults(run=cmd_functor)

    p = sub.add_parser("torus", help="the built-in fixture and its tables")
    p.add_argument("--emit", action="store_true", help="print the fixture as JSON and exit")
    common(p, with_level=False)
    p.set_defaults(run=cmd_torus)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except _Usage as e:
        print(f"ncat: {e}", file=sys.stderr)
        return 2
    except NCatError as e:
        print(f"ncat: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
