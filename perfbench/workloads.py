"""The four workloads: inputs, fixed job list, correctness gate, layer probes.

A workload builds its inputs in setup(), then jobs(i) gives the fixed job
list for pass i of a run.  Each job takes a tracer (spans.Tracer or
spans.NullTracer), so the untraced and the traced run execute the same code.  gate() checks one
job's result against the tables frozen in expected.json and against the
first result seen in this process; it returns the reasons a job failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time

from ncat import (
    VCategory,
    WCategory,
    XCategory,
    check_axioms,
    check_functor_laws,
    check_globularity,
    functor_f,
    functor_g,
    ind_env,
    parse_flow_data,
    torus_document,
    validate_flow_data,
    x_cells,
    x_composable_pairs,
)
from ncat.cli import main as cli_main

import gen

UNCAPPED = 10**9  # above every level size, pair list and quadruple count
DEFAULT_SEED = 0  # the seed whose CLI output digests are frozen
PROBE_REPS = 5


class SetupError(Exception):
    """An input the benchmark generated failed validation."""


class Result:
    """What a library job returns: its reports by name, plus extra data
    the gate checks (e.g. closure counts)."""

    def __init__(self, reports, extra=None):
        self.reports = reports
        self.extra = extra or {}

    def signature(self):
        return {
            "reports": {k: r.to_dict() for k, r in self.reports.items()},
            "extra": self.extra,
        }


def counts(report) -> dict:
    return {e.axiom: e.checked for e in report.entries}


def parse_validated(text: str, what: str):
    fd = parse_flow_data(text)
    report = validate_flow_data(fd)
    if not report.passed:
        raise SetupError(f"{what}: generated document fails validation: {report.failures()}")
    return fd


def laws(tr, cat, label, globularity=True, **kw):
    """check_globularity plus check_axioms on one category, through the
    tracer's proxy so the traced run counts every callback."""
    cat = tr.wrap(cat, label)
    reports = {}
    if globularity:
        with tr.span("check_globularity", label):
            reports[f"{label}:globularity"] = check_globularity(cat)
    with tr.span("check_axioms", label):
        reports[f"{label}:axioms"] = check_axioms(cat, **kw)
    return Result(reports)


def child_env(root) -> dict:
    """Environment of every child interpreter: the checkout's source,
    fixed string hashing, and byte-code cached under the benchmark's own
    output directory, so every call after the first imports compiled code
    whatever the caller's PYTHONDONTWRITEBYTECODE says."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(root, "perfbench", "out", "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _times(fn, reps=PROBE_REPS) -> list:
    """Wall times of reps calls; the benchmark reports their median."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


class Workload:
    min_job_samples = 0
    tracks_reference = False  # whether run.py scales wall times by the reference loop

    def __init__(self, root, seed, expected):
        self.root = root
        self.seed = seed
        self.expected = expected.get(self.name, {})
        self.seen = {}  # job name -> first signature, for repeat identity

    def setup(self):
        pass

    def jobs(self, i):
        """The job list of pass i: (name, fn(tracer)) pairs."""
        raise NotImplementedError

    def instances(self, result) -> int:
        return sum(e.checked for r in result.reports.values() for e in r.entries)

    def signature(self, result):
        return result.signature()

    def latencies(self, lists) -> list:
        """The samples behind cmd_p50_s and cmd_p90_s.  For a library
        workload one call is one pass of the job list, that is one verdict."""
        return [lst.scaled for lst in lists]

    def gate(self, name, result) -> list:
        fails = [f"{k}: {len(r.failures())} failures" for k, r in result.reports.items()
                 if not r.passed]
        sig = self.signature(result)
        first = self.seen.setdefault(name, sig)
        if sig != first:
            fails.append(f"{name}: result differs from the first repeat in this run")
        want = self.expected.get(name)
        if want is not None:
            got = self.pinned(name, result)
            if got != want:
                fails.append(f"{name}: pinned counts {got} != frozen {want}")
        return fails

    def pinned(self, name, result):
        return {k: counts(r) for k, r in result.reports.items()}

    def probes(self, lists):
        """Per-layer numbers from direct calls outside the timed lists, and
        their gate failures.  A list of samples stands for its median.
        lists[0] is the untraced list."""
        return {}, []

    def peak_rss_mb(self, lists) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class WVLaws(Workload):
    """W(4,5) and V(4,5), every law, nothing capped.  No randomness
    reaches the program: both categories enumerate every cell up to the
    bound, so the seed has nothing to choose."""

    name = "wv-laws"
    tracks_reference = True

    def setup(self):
        self.cats = {"w": WCategory(4, 5), "v": VCategory(4, 5)}

    def jobs(self, i):
        return [(label, lambda tr, label=label, cat=cat: laws(tr, cat, label, samples=UNCAPPED))
                for label, cat in self.cats.items()]

    def probes(self, lists):
        took = {j.name: j.seconds for j in lists[0].jobs}
        return {"vcat.overhead_ratio": took["v"] / took["w"]}, []


class WSampled(Workload):
    """W(4,7) with samples=300, the capped path behind the CLI default,
    over engine seeds derived from the benchmark seed.  The passes of a run
    take the run's engine seeds in turn, PER_PASS at a time, so every seed
    repeats and the median covers all of them."""

    name = "w-sampled"
    tracks_reference = True
    SEEDS = 4  # engine seeds of a run: SEEDS * seed ... SEEDS * seed + SEEDS - 1
    PER_PASS = 2

    def setup(self):
        self.cat = WCategory(4, 7)
        self.engine_seeds = [self.SEEDS * self.seed + i for i in range(self.SEEDS)]

    def jobs(self, i):
        start = i * self.PER_PASS % len(self.engine_seeds)
        return [(f"seed-{s}",
                 lambda tr, s=s: laws(tr, self.cat, "w", globularity=False, seed=s, samples=300))
                for s in self.engine_seeds[start:start + self.PER_PASS]]

    def pinned(self, name, result):
        return counts(result.reports["w:axioms"])


class XClosure(Workload):
    """chain(4, 2) under seeded renamings: X closure, X laws on the
    closed cells, and both functor law checks.  Each job takes the next of
    VARIANTS renamings, because the time depends on the names and the
    declaration order even though the work counted does not; a pass then
    averages over four orderings."""

    name = "x-closure"
    tracks_reference = True
    K, M = 4, 2
    VARIANTS = 64  # more than the jobs a 30 s run makes

    def setup(self):
        rng = random.Random(self.seed)
        docs = [gen.rename_and_shuffle(gen.chain(self.K, self.M), rng)
                for _ in range(self.VARIANTS)]
        self.texts = [json.dumps(doc) for doc in docs]
        self.fds = [parse_validated(text, self.name) for text in self.texts]

    def jobs(self, i):
        fd = [self.fds[(4 * i + j) % len(self.fds)] for j in range(4)]
        return [
            ("closure", lambda tr: self._closure(tr, fd[0])),
            ("x-laws", lambda tr: laws(tr, XCategory(fd[1], include_composites=True), "x",
                                       samples=UNCAPPED)),
            ("functor-g", lambda tr: self._functor(tr, fd[2], "g")),
            ("functor-f", lambda tr: self._functor(tr, fd[3], "f")),
        ]

    def _closure(self, tr, fd):
        cells = {}
        for level in range(fd.max_level + 1):
            with tr.span("x_cells", str(level)):
                cells[level] = x_cells(fd, level, include_composites=True)
        self.closed = cells
        return Result({}, {"closure_cells": {str(l): len(c) for l, c in cells.items()}})

    def _functor(self, tr, fd, target):
        with tr.span("check_functor_laws", target):
            return Result({f"functor-{target}": check_functor_laws(fd, target)})

    def gate(self, name, result):
        fails = super().gate(name, result)
        if name == "closure":
            want = {str(l): n for l, n in gen.closure_counts(self.K, self.M).items()}
            if result.extra["closure_cells"] != want:
                fails.append(f"closure counts {result.extra['closure_cells']} != closed form {want}")
        return fails

    def pinned(self, name, result):
        if name == "closure":
            return result.extra["closure_cells"]
        return super().pinned(name, result)

    def probes(self, lists):
        fd = self.fds[0]  # the closure job's variant in both traced-run lists; self.closed holds its cells
        out = {}
        t = 0.0
        for level in range(1, fd.max_level + 1):
            for p in range(level):
                start = time.perf_counter()
                x_composable_pairs(fd, level, p, include_composites=True)
                t += time.perf_counter() - start
        out["xcat.pairs_s"] = t
        env = ind_env(fd)
        cells = [c for level in self.closed.values() for c in level]
        start = time.perf_counter()
        for c in cells:
            functor_g(c, env)
            functor_f(c, env)
        out["functors.apply_s"] = time.perf_counter() - start
        out["flowdata.parse_s"] = _times(lambda: parse_flow_data(self.texts[0]))
        out["flowdata.validate_s"] = _times(lambda: validate_flow_data(fd))
        return out, []


class Call:
    """One finished `python -m ncat` subprocess."""

    def __init__(self, returncode, stdout, stderr, seconds, rss_kb):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.rss_kb = rss_kb


class Cli(Workload):
    """A fixed script of `python -m ncat` calls, one at a time: a closed
    loop with a single client."""

    name = "cli"
    K, M = 300, 8
    min_job_samples = 110  # so that at least ten samples lie beyond p90

    def setup(self):
        self.workdir = os.path.join(self.root, "perfbench", "out", "cli")
        os.makedirs(self.workdir, exist_ok=True)
        chain_doc = gen.rename_and_shuffle(gen.chain(self.K, self.M), random.Random(self.seed))
        self.docs = {"chain.json": gen.dumps(chain_doc), "torus.json": gen.dumps(torus_document())}
        for fname, text in self.docs.items():
            parse_validated(text, fname)
            with open(os.path.join(self.workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.env = child_env(self.root)
        self.commands = {
            "torus": ["torus"],
            "torus-emit": ["torus", "--emit"],
            "validate": ["validate", "chain.json"],
            "build": ["build", "chain.json"],
            "functor-g": ["functor", "chain.json", "--target", "g"],
            "functor-f": ["functor", "chain.json", "--target", "f"],
            "axioms-w": ["axioms", "--category", "w", "--level", "3", "--seed", str(self.seed),
                         "--samples", "300"],
            "axioms-x": ["axioms", "torus.json", "--category", "x"],
        }

    def jobs(self, i):
        out = []
        for cmd, argv in self.commands.items():
            formats = ("text",) if cmd == "torus-emit" else ("text", "json")
            for fmt in formats:
                full = ["-m", "ncat", *argv] + (["--format", "json"] if fmt == "json" else [])
                out.append((f"{cmd}:{fmt}", lambda tr, full=full: self.spawn(full)))
        return out

    def spawn(self, args) -> Call:
        """Run the interpreter with args, wait, and keep the child's own
        resource usage (os.wait4), so its peak RSS is exact."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=fo, stderr=fe,
                                    cwd=self.workdir, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # e.g. the run's deadline: never leave the child behind
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Call(proc.returncode, stdout, stderr, seconds, usage.ru_maxrss)

    def instances(self, call) -> int:
        if not call.stdout.startswith(b"axioms:") and b'"command": "axioms"' not in call.stdout:
            return 0
        if call.stdout.startswith(b"{"):
            doc = json.loads(call.stdout)
            return sum(e["checked"] for e in doc["report"]["entries"])
        return sum(int(n) for n in re.findall(rb" checked (\d+) ", call.stdout))

    def signature(self, call):
        return (call.returncode, call.stdout)

    def gate(self, name, call):
        fails = []
        if call.returncode != 0:
            fails.append(f"{name}: exit {call.returncode}: {call.stderr[-300:]!r}")
        if b"Traceback" in call.stderr:
            fails.append(f"{name}: traceback on stderr")
        first = self.seen.setdefault(name, self.signature(call))
        if self.signature(call) != first:
            fails.append(f"{name}: stdout differs from the first repeat in this run")
        if self.seed == DEFAULT_SEED:
            digest = hashlib.sha256(call.stdout).hexdigest()
            if digest != self.expected["digests"].get(name):
                fails.append(f"{name}: stdout digest {digest[:12]} != frozen")
        if name == "torus-emit:text" and call.stdout != self.docs["torus.json"].encode():
            fails.append("torus --emit does not reproduce the fixture document")
        if name.endswith(":json") and not fails:
            fails.extend(self._json_gate(name, json.loads(call.stdout)))
        return fails

    def _json_gate(self, name, doc):
        """Seed-independent content checks on the JSON form."""
        k, m = self.K, self.M
        cells = {"0": k + 1, "1": k * m, "2": k * m}  # build does not close chain(k, m)
        cmd = name.split(":")[0]
        if cmd == "build" and doc["counts"] != cells:
            return [f"build counts {doc['counts']} != {cells}"]
        if cmd.startswith("functor") and (doc["failures"]
                                          or len(doc["images"]) != sum(cells.values())):
            return [f"{cmd}: {len(doc['images'])} images, {len(doc['failures'])} failures"]
        if cmd in ("validate", "axioms-w", "axioms-x") and not doc["report"]["passed"]:
            return [f"{cmd}: report did not pass"]
        if cmd == "torus" and not doc["match"]:
            return ["torus tables do not match"]
        if cmd == "axioms-x":
            got = {e["axiom"]: e["checked"] for e in doc["report"]["entries"]}
            if got != self.expected["axioms-x"]:
                return [f"axioms-x counts {got} != frozen"]
        return []

    def latencies(self, lists) -> list:
        return [j.seconds for lst in lists for j in lst.jobs]

    def peak_rss_mb(self, lists) -> float:
        return max(j.result.rss_kb for lst in lists for j in lst.jobs if j.result) / 1024

    def probes(self, lists):
        out = {}
        out["cli.interp_s"] = _times(lambda: self.spawn(["-c", "pass"]))
        started = _times(lambda: self.spawn(["-c", "import ncat"]))
        out["cli.import_s"] = statistics.median(started) - statistics.median(out["cli.interp_s"])
        out["cli.startup_share"] = (statistics.median(started)
                                    / statistics.median(j.seconds for j in lists[0].jobs))
        texts = list(self.docs.values())
        out["flowdata.parse_s"] = _times(lambda: [parse_flow_data(t) for t in texts])
        fds = [parse_flow_data(t) for t in texts]
        out["flowdata.validate_s"] = _times(lambda: [validate_flow_data(fd) for fd in fds])
        by_name = {j.name: j.result for j in lists[0].jobs}
        fails = []
        cwd = os.getcwd()
        os.chdir(self.workdir)  # the commands name their files relative to it
        try:
            for cmd, argv in self.commands.items():
                buf = io.StringIO()

                def call(buf=buf, argv=argv):
                    buf.seek(0)
                    buf.truncate()
                    with contextlib.redirect_stdout(buf):
                        cli_main(list(argv))

                out[f"cli.main_s.{cmd}"] = _times(call, 3)
                if buf.getvalue().encode() != by_name[f"{cmd}:text"].stdout:
                    fails.append(f"in-process main({cmd}) output differs from the subprocess's")
        finally:
            os.chdir(cwd)
        return out, fails


WORKLOADS = {w.name: w for w in (WVLaws, WSampled, XClosure, Cli)}
