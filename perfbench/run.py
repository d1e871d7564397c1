"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The untraced run (--trace 0) repeats the
workload's fixed job list for up to S seconds and prints the end-to-end
metrics; the traced run (--trace 1) runs the list once untraced
and once traced, checks that both give the same reports, and prints the
per-layer metrics.  Every job is gated on its output being correct.  The
last line of stdout is the result as one JSON object; the full record,
with run metadata and every sample's quartiles, goes to
perfbench/out/results/.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback

from spans import AXIOM_CALLS, NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 15
DEADLINE_S = 170  # the whole run, set-up included
NULL = NullTracer()
REF_ITERS = 100_000
REF_S = 0.135  # reference() on the machine that defined the benchmark (median)


def reference() -> float:
    """Wall time of a fixed pure-Python loop that calls no ncat code: the
    machine's current speed.  See README.md, "Noise and speed scaling"."""
    start = time.perf_counter()
    seen = {}
    for i in range(REF_ITERS):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        f"{i}:{key}"  # string building, as rendering does
    sorted(seen.items())
    return time.perf_counter() - start


class Job:
    def __init__(self, name, result, seconds, fails):
        self.name = name
        self.result = result
        self.seconds = seconds
        self.fails = fails


class JobList:
    """One pass of the job list, with the reference samples taken right
    before and right after it.  scale brings its wall times to reference
    speed on workloads that track the reference loop, and is 1 on the
    others."""

    def __init__(self, jobs, ref_before, ref_after, tracks):
        self.jobs = jobs
        self.refs = [ref_before, ref_after]
        self.seconds = sum(j.seconds for j in jobs)
        self.scale = REF_S / statistics.fmean(self.refs) if tracks else 1.0

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def run_list(wl, tr, ref_before, i=0) -> JobList:
    """Pass i of the workload's fixed job list, timed, followed by a
    reference sample; gates run after the clock stops.  ref_before is the
    reference sample taken just before, usually the previous list's last."""
    gc.collect()
    done = []
    for name, fn in wl.jobs(i):
        t = time.perf_counter()
        with tr.span("job", name):
            try:
                result, err = fn(tr), None
            except Exception:  # a crashing job is a failed job, not a crashed benchmark
                result, err = None, traceback.format_exc(limit=3)
        done.append(Job(name, result, time.perf_counter() - t, [err] if err else []))
    lst = JobList(done, ref_before, reference(), wl.tracks_reference)
    for job in done:
        if job.result is not None:
            try:
                job.fails = wl.gate(job.name, job.result)
            except Exception:  # output the gate cannot even read
                job.fails = [traceback.format_exc(limit=3)]
    return lst


def quartiles(values) -> dict:
    v = sorted(values)
    if len(v) == 1:
        q = [v[0]] * 3
    else:
        q = statistics.quantiles(v, n=4, method="inclusive")
    return {"samples": len(v), "q1": q[0], "median": q[1], "q3": q[2]}


def percentile(values, pct) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def setup_samples(args) -> tuple:
    """Set-up time of fresh processes, one after another, each scaled to
    reference speed by the reference sample its process took just before;
    and the raw times."""
    from workloads import child_env

    out = []
    for _ in range(1 + SETUP_PROBES):  # the first fills the byte-code cache
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, env=child_env(ROOT), timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    out = out[1:]
    return [p["setup_s"] * REF_S / p["reference_s"] for p in out], [p["setup_s"] for p in out]


def untraced(wl, args):
    """Repeat the job list for --seconds; end-to-end metrics and their samples."""
    setups, setup_walls = setup_samples(args)
    lists = []
    ref = reference()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        lists.append(run_list(wl, NULL, ref, len(lists)))
        ref = lists[-1].refs[-1]
        now = time.perf_counter()
        n_jobs = sum(len(lst.jobs) for lst in lists)
        # stop before a list that would end past --seconds, once there are enough samples
        if now - start + (now - began) > args.seconds and n_jobs >= wl.min_job_samples:
            break
    verdicts = [lst.scaled for lst in lists]
    rates = [sum(wl.instances(j.result) for j in lst.jobs if not j.fails) / lst.scaled
             for lst in lists]
    latencies = wl.latencies(lists)
    p90 = percentile(latencies, 90)
    samples = {
        "setup_s": setups,
        "setup_wall_s": setup_walls,
        "verdict_s": verdicts,
        "laws_per_s": rates,
        "cmd_p50_s": latencies,
        "cmd_p90_s": latencies,
        "verdict_wall_s": [lst.seconds for lst in lists],
        "reference_s": lists[0].refs[:1] + [lst.refs[1] for lst in lists],
        "scale": [lst.scale for lst in lists],
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(verdicts),
        "laws_per_s": statistics.median(rates),
        "cmd_p50_s": percentile(latencies, 50),
        "cmd_p90_s": p90,
        "peak_rss_mb": wl.peak_rss_mb(lists),
    }
    stats = {k: quartiles(v) for k, v in samples.items()}
    stats["cmd_p90_s"]["beyond"] = sum(1 for x in latencies if x > p90)
    jobs = [j for lst in lists for j in lst.jobs]
    passes = [{"wall_s": lst.seconds, "reference_s": lst.refs} for lst in lists]
    return metrics, stats, jobs, {"passes": passes}


def traced(wl, args):
    """One untraced and one traced list, the per-layer split, and the probes."""
    base = run_list(wl, NULL, reference())
    tr = Tracer()
    seen = run_list(wl, tr, base.refs[-1])
    fails = [f"{a.name}: traced result differs from the untraced one"
             for a, b in zip(base.jobs, seen.jobs)
             if a.result is None or b.result is None
             or wl.signature(a.result) != wl.signature(b.result)]
    extra = {
        "untraced_list": {"seconds": base.seconds, "reference_s": base.refs},
        "traced_list": {"seconds": seen.seconds, "reference_s": seen.refs},
        "traced_equals_untraced": not fails,
        "spans": [s.to_dict() for s in tr.spans],
    }
    m = layers(tr, seen)
    m["trace.overhead_share"] = seen.scaled / base.scaled - 1
    probed, probe_fails = wl.probes([base, seen])
    stats = {}
    for name, value in probed.items():
        if isinstance(value, list):
            stats[name] = quartiles(value)
            value = statistics.median(value)
        m[name] = value
    jobs = base.jobs + seen.jobs + [Job("trace-check", None, 0.0, fails + probe_fails)]
    return m, stats, jobs, extra


def layers(tr, lst) -> dict:
    """Per-layer metrics from the spans and reports of one traced list."""
    from workloads import Result

    m = {}
    ax, gl = tr.named("check_axioms"), tr.named("check_globularity")
    m["axioms.check_s"] = sum(s.dur for s in ax)
    m["axioms.globularity_s"] = sum(s.dur for s in gl)
    m["axioms.self_s"] = sum(s.dur - s.callback_s() for s in ax)
    for meth in AXIOM_CALLS:
        m[f"axioms.calls.{meth}"] = sum(n for s in ax + gl for (_, k), n in s.calls.items()
                                        if k == meth)
    results = [j.result for j in lst.jobs if isinstance(j.result, Result)]
    reports = {k: r for res in results for k, r in res.reports.items()}
    for key, report in reports.items():
        if key.startswith("functor-"):
            t = key.removeprefix("functor-")
            for e in report.entries:
                m[f"functors.checked.{t}.{e.axiom.removeprefix(key + '-')}"] = e.checked
        else:
            for e in report.entries:
                name = f"axioms.checked.{e.axiom}"
                m[name] = m.get(name, 0) + e.checked
    instances = sum(e.checked for k, r in reports.items() if k.endswith(":axioms")
                    for e in r.entries)
    compose = sum(s.calls.get((s.tag, "compose"), 0) for s in ax)
    m["axioms.compose_per_instance"] = compose / instances if instances else 0
    m["axioms.share"] = (m["axioms.check_s"] + m["axioms.globularity_s"]) / lst.seconds

    charged = [s for s in tr.spans if s.calls]
    m["wcat.enumerate_s"] = sum(s.cb_s.get(("w", "cells"), 0.0) for s in charged)
    m["wcat.compose_s"] = sum(s.cb_s.get(("w", "compose"), 0.0) for s in charged)
    m["wcat.compose_calls"] = sum(s.calls.get(("w", "compose"), 0) for s in charged)

    closure = sum(s.dur for s in tr.named("x_cells"))
    closure += sum(s.cb_s.get(("x", "cells"), 0.0) for s in charged)
    m["xcat.closure_s"] = closure
    m["xcat.closure_share"] = closure / lst.seconds
    for res in results:
        for level, n in res.extra.get("closure_cells", {}).items():
            m[f"xcat.closure_cells.{level}"] = n

    for t in "gf":
        m[f"functors.check_s.{t}"] = sum(s.dur for s in tr.named("check_functor_laws", t))
    return m


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # a checkout need not be a git repository
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ncat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def setup_probe(args) -> int:
    """Child mode: time one set-up from before `import ncat` to ready inputs."""
    import io, random, re, resource  # noqa: F401  the benchmark's own imports, untimed
    import gen  # noqa: F401

    ref = reference()
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, {})
    wl.setup()
    took = time.perf_counter() - start
    _check_source()
    print(json.dumps({"setup_s": took, "reference_s": ref}))
    return 0


def _check_source():
    import ncat

    if not os.path.abspath(ncat.__file__).startswith(os.path.join(SRC, "ncat") + os.sep):
        raise RuntimeError(f"imported ncat from {ncat.__file__}, not from {SRC}")


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncat", "__init__.py")):
        print(f"perfbench: no ncat package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loadavg_start": os.getloadavg(), **machine()}

    import workloads

    _check_source()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, expected)
    wl.setup()
    measure = traced if args.trace else untraced
    metrics, stats, jobs, extra = measure(wl, args)
    meta["loadavg_end"] = os.getloadavg()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {d["name"] for d in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    failed = [j for j in jobs if j.fails]
    attempted = max(len(jobs), 1)
    out = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {d["name"]: {"value": metrics.get(d["name"], 0), "unit": d["unit"]}
                    for d in declared},
    }
    record = {
        "meta": meta,
        "result": out,
        "failed_share": len(failed) / attempted,
        "stats": stats,
        "failures": [f"{j.name}: {msg}" for j in failed for msg in j.fails][:50],
        **extra,
    }
    results = os.path.join(HERE, "out", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    signal.alarm(0)
    for line in record["failures"][:10]:
        print(f"FAILED {line}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
