"""End-to-end benchmark of swallowkit, with a traced per-layer run.

    python3 perfbench/run.py --workload certify|classify|roundtrip|surfaces
                             --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``.  With ``--trace 0`` it runs whole rounds of the workload until
``--seconds`` have passed (at least one) and reports the end-to-end metrics;
with ``--trace 1`` it runs one round untraced and the same round traced, and
reports the per-layer metrics and the tracing overhead.  Operation
timings are adjusted to the host's nominal speed (see speed.py).  The last line of
standard output is one JSON object; a readable summary goes to standard
error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import swallowkit; "
                "print(time.perf_counter() - t)")


def _child_import_s(env) -> float:
    """Import time of swallowkit in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "swallowkit", "__init__.py")):
        print(f"perfbench: no swallowkit sources under {SRC}", file=sys.stderr)
        return 2
    # serial certificates, pure numpy backend as tier-1 runs it
    os.environ.pop("SWALLOWKIT_THREADS", None)
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    t0 = time.perf_counter()
    from swallowkit import jets      # imports the whole package
    import_s = [time.perf_counter() - t0]
    import_s += [_child_import_s(env) for _ in range(SETUP_REPEATS - 1)]

    from tracer import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, outdir)
        wl.generate()
        gen_s.append(time.perf_counter() - t)
    setup_s = statistics.median(import_s) + statistics.median(gen_s)

    try:
        if args.trace:
            t = time.perf_counter()
            wl.run_round(0)
            untraced = time.perf_counter() - t
            tracer = Tracer().install()
            try:
                t = time.perf_counter()
                wl.run_round(0, tracer)
                traced = time.perf_counter() - t
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            metrics["trace.untraced_s"] = {"value": untraced, "unit": "s"}
            metrics["trace.traced_s"] = {"value": traced, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
            os.makedirs(OUT, exist_ok=True)
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed,
                         "backend": jets.backend_name()})
        else:
            start = time.perf_counter()
            rounds = 0
            wl.speed.start()
            try:
                while rounds == 0 or time.perf_counter() - start < args.seconds:
                    wl.run_round(rounds)
                    rounds += 1
            finally:
                wl.speed.stop()
            vals = wl.metrics()
            raw = wl.metrics(adjusted=False)
            print(f"[{args.workload}] {rounds} rounds; raw wall time: "
                  f"op_s {raw['op_s']:.6g} s, items_per_s {raw['items_per_s']:.6g} 1/s",
                  file=sys.stderr)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_s": {"value": vals["op_s"], "unit": "s"},
                "items_per_s": {"value": vals["items_per_s"], "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    correct = not wl.errors
    for err in wl.errors[:20]:
        print(f"[{args.workload}] WRONG: {err}", file=sys.stderr)
    print(f"[{args.workload}] seed={args.seed} backend={jets.backend_name()} "
          f"attempted={wl.attempted} failed={wl.failed} correct={correct}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
