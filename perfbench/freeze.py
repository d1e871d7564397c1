"""Write expected.json: the pinned counts and digests the gates compare to.

    python3 perfbench/freeze.py

The tables record the program's output at the commit that defined the
benchmark.  A change that claims a speed-up keeps them as they are: an
engine that is faster because it checks fewer instances is not faster.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

W_SAMPLED_TABLE = 128  # engine seeds with frozen counts; benchmark seeds 0..31 use only these


def run(wl):
    """One job list at the default seed, each job gated for passing reports."""
    wl.setup()
    out = {}
    for name, fn in wl.jobs(0):
        result = fn(NullTracer())
        fails = wl.gate(name, result)
        if fails:
            raise SystemExit(f"{wl.name}/{name} fails its gate, not freezing: {fails}")
        out[name] = result
    return out


def main():
    seed = workloads.DEFAULT_SEED
    expected = {}
    wl = workloads.WVLaws(ROOT, seed, {})
    expected[wl.name] = {n: wl.pinned(n, r) for n, r in run(wl).items()}

    wl = workloads.WSampled(ROOT, seed, {})
    wl.SEEDS = wl.PER_PASS = W_SAMPLED_TABLE
    expected[wl.name] = {n: wl.pinned(n, r) for n, r in run(wl).items()}

    wl = workloads.XClosure(ROOT, seed, {})
    expected[wl.name] = {n: wl.pinned(n, r) for n, r in run(wl).items()}

    wl = workloads.Cli(ROOT, seed, {})
    wl.gate = lambda name, call: [] if call.returncode == 0 else [call.stderr]  # nothing to compare yet
    calls = run(wl)
    report = json.loads(calls["axioms-x:json"].stdout)["report"]
    expected[wl.name] = {
        "digests": {n: hashlib.sha256(c.stdout).hexdigest() for n, c in calls.items()},
        "axioms-x": {e["axiom"]: e["checked"] for e in report["entries"]},
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
