"""Paired benchmark runs of two source checkouts, summarised into a BENCH file.

    python3 tools/bench_pairs.py --base DIR --head DIR --workload W
                                 --seeds 11-20 --out BENCH_<n>.json [--trace]
    python3 tools/bench_pairs.py --base DIR --head DIR --kernels --out BENCH_<n>.json
    python3 tools/bench_pairs.py --base DIR --head DIR --tier1 --out BENCH_<n>.json

For each seed it runs the unmodified ``perfbench/run.py --workload W --seed S
--seconds 10`` once in each checkout, alternating which side runs first, and
reads the JSON object on the last line of its output.  It then merges into
--out, under the workload's name, every run and, per end-to-end metric of
BENCHMARK.json, each side's median and quartiles and the pairs the head won
(ties count for neither).  With --trace it also runs ``--trace 1`` once per
checkout at the first seed and records, under "per_layer", each side's
per-layer metrics (one traced round: jet operations, provider calls,
time per layer).  With --kernels it records, under "kernels", each side's
L0 times: microseconds per ``Jet2 * Jet2`` and ``Jet2 / Jet2`` at orders 4, 6
and 8, on scalar jets and at batch width 21, for a bivariate pair of random
coefficients and for a pair built from ``Jet2.variable("u")``; each the best
of 11 repeats in a process, and the least of those over KERNEL_RUNS
processes per side, run alternately, since the host's slow spells last
longer than one process.  They use the public Jet2 API only, so any checkout
can be timed.  With --tier1 it records, under "tier1", each side's L6: the
wall time of the tier-1 command (``python -m pytest -q
--continue-on-collection-errors`` with the checkout's src on the path, run in
the checkout) over TIER1_RUNS runs per side, run alternately, with each run's
exit code and pytest summary line, and the least wall time per side.  The
file also records the commit of each checkout and the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy


def _run(root, workload, seed, seconds, trace=0):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=root, capture_output=True, text=True, timeout=3600)
    if not out.stdout.strip():
        raise RuntimeError(f"{root}: perfbench printed no result\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    res["exit"] = out.returncode
    return res


KERNEL_RUNS = 5

# L0 timing script, run with a checkout's src on the path
_KERNELS = r"""
import json, timeit
import numpy as np
from swallowkit.jets import Jet2
rng = np.random.default_rng(0)
out = {}
for order in (4, 6, 8):
    terms = (order + 1) * (order + 2) // 2
    for width in ("scalar", "w21"):
        shape = () if width == "scalar" else (21,)
        u = Jet2.variable("u", 0.2 if shape == () else np.linspace(0.1, 0.3, 21), order, shape)
        b = rng.standard_normal((terms,) + shape)
        b[0] += 3.0
        pairs = {"bivariate": (Jet2(order, rng.standard_normal((terms,) + shape)), Jet2(order, b)),
                 "u": ((u + 1.0) ** 3, 2.0 + u * u)}
        for kind, (x, y) in pairs.items():
            for op, fn in (("mul", lambda x=x, y=y: x * y), ("div", lambda x=x, y=y: x / y)):
                best = min(timeit.repeat(fn, repeat=11, number=500)) / 500
                out[f"{op}/{kind}/order{order}/{width}"] = best * 1e6
print(json.dumps(out))
"""


def _kernels(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    out = subprocess.run([sys.executable, "-c", _KERNELS], cwd=root, env=env,
                         capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


TIER1_RUNS = 3


def _tier1(root):
    """Wall time, exit code and pytest summary line of one tier-1 run."""
    src = os.path.join(os.path.abspath(root), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=3600)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": out.returncode, "summary": lines[-1] if lines else ""}


def _alternately(args, measure, n):
    """{side: [measure(checkout) of each run]}, n runs per side, alternating
    which side runs first."""
    runs = {"base": [], "head": []}
    for i in range(n):
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            runs[side].append(measure(getattr(args, side)))
    return runs


def _commit(root):
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() or None


def _quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--head", required=True, help="checkout of the change")
    p.add_argument("--workload")
    p.add_argument("--seeds", help="first-last, inclusive")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true",
                   help="also record one traced run per side (per-layer metrics)")
    p.add_argument("--kernels", action="store_true",
                   help="record each side's L0 kernel times (microseconds per call)")
    p.add_argument("--tier1", action="store_true",
                   help="record each side's tier-1 wall time (L6)")
    args = p.parse_args(argv)
    if not (args.kernels or args.tier1) and not (args.workload and args.seeds):
        p.error("give --workload and --seeds, --kernels or --tier1")

    doc = json.load(open(args.out)) if os.path.exists(args.out) else {}
    doc["base_commit"], doc["head_commit"] = _commit(args.base), _commit(args.head)
    doc["host"] = {"machine": platform.machine(), "cpus": os.cpu_count(),
                   "python": platform.python_version(), "numpy": numpy.__version__,
                   "system": platform.platform()}
    if args.kernels:
        runs = _alternately(args, _kernels, KERNEL_RUNS)
        doc["kernels"] = {"unit": "us per call", "runs": KERNEL_RUNS, **{
            side: {k: min(r[k] for r in rs) for k in rs[0]}
            for side, rs in runs.items()}}
    if args.tier1:
        runs = _alternately(args, _tier1, TIER1_RUNS)
        doc["tier1"] = {"runs": TIER1_RUNS, **{
            side: {"wall_s": min(r["wall_s"] for r in rs), "each": rs}
            for side, rs in runs.items()}}
    if args.workload:
        doc.setdefault("workloads", {})[args.workload] = _pairs(args)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def _pairs(args):
    """The paired runs of one workload, their summary and, with --trace,
    the per-layer metrics of one traced run per side."""
    bench = json.load(open(os.path.join(args.head, "BENCHMARK.json")))
    first, last = (int(s) for s in args.seeds.split("-"))
    runs = {"base": [], "head": []}
    for i, seed in enumerate(range(first, last + 1)):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            res = _run(getattr(args, side), args.workload, seed, bench["run_seconds"])
            res["seed"] = seed
            runs[side].append(res)
            print(f"{args.workload} seed {seed} {side}: "
                  f"{ {k: round(m['value'], 4) for k, m in res.get('metrics', {}).items()} }",
                  file=sys.stderr)

    summary = {}
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        won = sum((h < b) if lower else (h > b) for b, h in zip(vals["base"], vals["head"]))
        summary[name] = {"unit": m["unit"], "better": m["better"],
                         "base": _quartiles(vals["base"]), "head": _quartiles(vals["head"]),
                         "head_won": won, "pairs": len(vals["base"])}

    per_layer = {}
    if args.trace:
        for side in ("base", "head"):
            res = _run(getattr(args, side), args.workload, first, bench["run_seconds"], trace=1)
            per_layer[side] = {k: m["value"] for k, m in res.get("metrics", {}).items()}
            per_layer[side]["exit"] = res["exit"]

    out = {"seeds": [first, last], "run_seconds": bench["run_seconds"],
           "metrics": summary, "runs": runs}
    if per_layer:
        out["per_layer"] = {"seed": first, **per_layer}
    return out


if __name__ == "__main__":
    sys.exit(main())
