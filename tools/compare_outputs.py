"""Run a fixed list of CLI calls in two source checkouts and compare their outputs.

    python3 tools/compare_outputs.py --base DIR --head DIR

Each call runs ``python -m swallowkit.cli`` with ``DIR/src`` on the path, in a
fresh working directory per checkout that holds the same input specs, so the
output paths that a command prints are the same on both sides.  For every
call the script prints the exit code and the sha256 of its stdout, its stderr
and every file it wrote, base and head side by side, and exits 1 if any of
them differ.
Under an output that differs it also prints how many of its lines and of the
numbers in them differ, and the largest absolute and relative difference
between those numbers, matched by their position in the line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

SPECS = {
    "ex217.json": {"kind": "swallowtail-data", "xi": ["2", "3*u", "0"],
                   "b": ["0", "0", "1"], "a": 0.0},
    "ex217s.json": {"kind": "swallowtail-data", "xi": ["4", "6*u", "0"],
                    "b": ["0", "0", "2"], "a": 0.0},
    "fplus.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                   "q": "0", "r": ["u^2", "0-2*u", "1"], "a": 0.0},
    "fplus2.json": {"kind": "asymptotic-data", "xi": ["1", "u", "2*u^2"],
                    "q": "0", "r": ["u^2", "0-3*u", "1"], "a": 0.0},
    "fminus.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                    "q": "0", "r": ["0-u^2", "2*u", "0-1"], "a": 0.0},
    "fminus2.json": {"kind": "asymptotic-data", "xi": ["1", "u", "2*u^2"],
                     "q": "0", "r": ["0-u^2", "3*u", "0-1"], "a": 0.0},
    "flipb.json": {"kind": "swallowtail-data", "xi": ["1", "u", "u^2"],
                   "b": ["0", "0", "0-0.5"], "a": 0.0},
    # a non-polynomial xi: gamma is a quadrature (fields.CurveIntegral), not a closed form
    "trig.json": {"kind": "swallowtail-data", "xi": ["cos(u)", "sin(u)", "u"],
                  "b": ["0", "0", "1"], "a": 0.0},
    # the conformal models: ex217 and ex217s at a = -1, fplus and fplus2 at a = 1
    "h217.json": {"kind": "swallowtail-data", "xi": ["2", "3*u", "0"],
                  "b": ["0", "0", "1"], "a": -1.0},
    "h217s.json": {"kind": "swallowtail-data", "xi": ["4", "6*u", "0"],
                   "b": ["0", "0", "2"], "a": -1.0},
    "sfplus.json": {"kind": "asymptotic-data", "xi": ["1", "u", "u^2"],
                    "q": "0", "r": ["u^2", "0-2*u", "1"], "a": 1.0},
    "sfplus2.json": {"kind": "asymptotic-data", "xi": ["1", "u", "2*u^2"],
                     "q": "0", "r": ["u^2", "0-3*u", "1"], "a": 1.0},
    "cusp3.json": {"kind": "curve", "gamma": ["u^2/2", "u^3/3", "u^4/4"]},
    "corank2.json": {"kind": "raw-germ", "f": ["u^2", "v^2", "u*v"], "a": 0.0},
    "raw.json": {"kind": "raw-germ", "f": ["u", "2*v^3+u*v", "3*v^4+u*v^2"], "a": 0.0},
}

CALLS = [
    ["cgc", "--out-prefix", "cgc"],
    ["cgc", "--grid", "61,41", "--window=-0.3,0.3,0.8,1.2", "--out-prefix", "small"],
    # base (0, 1) off centre in both directions: each sweep's two legs differ in length
    ["cgc", "--grid", "33,57", "--window=-0.2,0.4,0.75,1.3", "--out-prefix", "asym"],
    # base (0, 1) on the window's edge v = 1: the column sweep has one leg only
    ["cgc", "--grid", "41,31", "--window=-0.3,0.3,1.0,1.3", "--out-prefix", "edge"],
    ["mesh", "ex217.json", "--domain=-0.3,0.3,-0.2,0.2", "--res=60,60", "--out", "mesh.obj"],
    ["classify", "ex217.json"],
    ["classify", "ex217.json", "--at", "0.05,0.03"],
    # the jets of gamma by quadrature, at every vertex of the mesh and its K column
    ["mesh", "trig.json", "--domain=-0.3,0.3,-0.2,0.2", "--res=30,30", "--out", "trig.obj"],
    # a singular set off the u-axis: classified after make_admissible
    ["classify", "raw.json"],
    ["build", "ex217.json"],
    ["frenet", "--kappa", "1+u^2", "--tau", "0.5*sin(u)", "--out", "curve.csv"],
    # an asymmetric interval, each side ending in a shorter step
    ["frenet", "--kappa", "2+u", "--tau", "u", "--interval=-0.4,0.9", "--step", "0.02",
     "--samples", "17", "--out", "curve2.csv"],
    # the half-arclength chain (t(u) by series reversion) outside a certificate
    ["cusp", "normalize", "cusp3.json"],
    ["cusp", "classify", "cusp3.json"],
    ["cusp", "factor", "cusp3.json"],
    ["deform", "ex217.json", "ex217s.json", "--recipe", "A"],
    ["deform", "fplus.json", "fplus2.json", "--recipe", "D"],
    # the xi-interpolation marches its 2 and 4 interior t as one batch
    ["deform", "ex217.json", "ex217s.json", "--recipe", "A", "--steps", "4"],
    ["deform", "fplus.json", "fplus2.json", "--recipe", "D", "--steps", "6"],
    # negatively curved: the sqrt(1 - t) weights of the to-negative-normal-form stage
    ["deform", "fminus.json", "fminus2.json", "--recipe", "D"],
    ["deform", "fminus.json", "fminus2.json", "--recipe", "D", "--steps", "6"],
    # curvature signs differ: the general route, scaling (q, r) away
    ["deform", "fplus.json", "fminus.json", "--recipe", "D"],
    # Prop 2.13: the b-scale and b-to-generic stages around Theorem A
    ["deform", "ex217.json", "fplus.json", "--recipe", "any"],
    ["deform", "flipb.json", "fplus.json", "--recipe", "any", "--steps", "6"],
    # a band wider than every sign, and a certificate decided in a wider band
    ["--tol-sign", "10", "classify", "ex217.json"],
    ["--tol-sign", "1e-3", "deform", "ex217.json", "ex217s.json", "--recipe", "A", "--steps", "4"],
    # a != 0: the conformal factor and connection of the model metric
    ["classify", "h217.json"],
    ["invariants", "sfplus.json"],
    ["classify", "sfplus.json", "--at", "0.05,0.03"],
    ["mesh", "h217.json", "--domain=-0.3,0.3,-0.2,0.2", "--res=30,30", "--out", "h217.obj"],
    # the K column at a = 1
    ["mesh", "sfplus.json", "--domain=-0.3,0.3,-0.2,0.2", "--res=30,30", "--out", "sfplus.obj"],
    ["deform", "h217.json", "h217s.json", "--recipe", "A"],
    ["deform", "sfplus.json", "sfplus2.json", "--recipe", "D"],
    # exit 3: a corank-2 origin cannot be made admissible
    ["classify", "corank2.json"],
    # exit 4: recipe A on asymptotic endpoints is a precondition mismatch
    ["deform", "fplus.json", "fplus2.json", "--recipe", "A"],
]


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def numeric_diff(a: bytes, b: bytes):
    """(lines that differ, numbers that differ in them, largest absolute and
    largest relative difference between those numbers) of two texts; a line
    missing on one side counts as differing, and a line whose count of
    numbers differs enters only the line count.  NaN or inf against a number
    differs by inf."""
    la, lb = a.splitlines(), b.splitlines()
    lines, numbers, dabs, drel = abs(len(la) - len(lb)), 0, 0.0, 0.0
    for x, y in zip(la, lb):
        if x == y:
            continue
        lines += 1
        nx, ny = NUMBER.findall(x), NUMBER.findall(y)
        if len(nx) != len(ny):
            continue
        for p, q in zip(map(float, nx), map(float, ny)):
            if p == q or (p != p and q != q):
                continue
            d = abs(p - q)
            rel = d / max(abs(p), abs(q))
            if d != d or rel != rel:   # NaN or inf against a number
                d = rel = float("inf")
            numbers += 1
            dabs, drel = max(dabs, d), max(drel, rel)
    return lines, numbers, dabs, drel


def _run_all(root):
    """{call index: {"exit", "stdout", "stderr", file name: contents}} for one checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    results = []
    with tempfile.TemporaryDirectory() as work:
        for name, doc in SPECS.items():
            with open(os.path.join(work, name), "w") as fh:
                json.dump(doc, fh)
        for argv in CALLS:
            before = set(os.listdir(work))
            out = subprocess.run([sys.executable, "-m", "swallowkit.cli", *argv],
                                 cwd=work, env=env, capture_output=True, timeout=600)
            res = {"exit": str(out.returncode).encode(), "stdout": out.stdout,
                   "stderr": out.stderr}
            for name in sorted(set(os.listdir(work)) - before):
                with open(os.path.join(work, name), "rb") as fh:
                    res[name] = fh.read()
                os.remove(os.path.join(work, name))
            results.append(res)
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--head", required=True, help="checkout of the change")
    args = p.parse_args(argv)

    base, head = _run_all(args.base), _run_all(args.head)
    differ = 0
    streams = ("exit", "stdout", "stderr")
    for argv_, b, h in zip(CALLS, base, head):
        print("swallowkit " + " ".join(argv_))
        for key in sorted(set(b) | set(h), key=lambda k: (k not in streams, k)):
            bv, hv = b.get(key), h.get(key)
            bs, hs = ("-" if v is None else v.decode() if key == "exit" else _sha(v)[:16]
                      for v in (bv, hv))
            print(f"  {key:<14} {bs:<16} {hs:<16} {'same' if bv == hv else 'DIFFERS'}")
            differ += bv != hv
            if bv != hv and bv is not None and hv is not None and key != "exit":
                lines, numbers, dabs, drel = numeric_diff(bv, hv)
                print(f"  {'':<14} {lines} line(s) and {numbers} number(s) differ, largest "
                      f"difference {dabs:.3g} absolute, {drel:.3g} relative")
    print(f"{differ} difference(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
