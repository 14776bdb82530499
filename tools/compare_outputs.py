"""Run a fixed list of CLI and library calls in two source checkouts and compare
their outputs.

    python3 tools/compare_outputs.py --base DIR --head DIR

The calls are those of tools/output_calls.py.  Each CLI call runs ``python
-m swallowkit.cli`` and each library call ``python -c`` with a script of
LIBRARY after PRELUDE, with ``DIR/src`` on the path, in a
fresh working directory per checkout that holds the same input specs, so the
output paths that a command prints are the same on both sides.  A library
call prints, with repr, the jet coefficients of providers that no CLI command
prints: the data that extract_data and convert_to_asymptotic_form recover and
the half-arclength normalization of deform.  For every
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

from output_calls import CALLS, LIBRARY, PRELUDE, SPECS

COMMANDS = ([("swallowkit " + " ".join(argv), ["-m", "swallowkit.cli", *argv])
             for argv in CALLS]
            + [("python -c <" + name + ">", ["-c", PRELUDE + code]) for name, code in LIBRARY])


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
        for _, argv in COMMANDS:
            before = set(os.listdir(work))
            out = subprocess.run([sys.executable, *argv],
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
    for (label, _), b, h in zip(COMMANDS, base, head):
        print(label)
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
