"""Byte-identity of the deterministic outputs: every call of
tools/output_calls.py, run in this process, against a committed table of
digests.

Each CLI call runs through cli.main(argv) in a directory that holds the
input specs, and each library script runs in-process after PRELUDE.  The
sha256 of each call's exit code, stdout, stderr and every file it writes
must equal the table's.  The table records the Python and numpy versions
it was made with; on other versions the test skips.  A change that moves an
output rewrites the table in the same commit and explains each moved
digest.  Run as a script, the test prints each call label and output key
whose digest moved against the table (or "none"), then rewrites it:

    PYTHONPATH=src python3 tests/test_golden_outputs.py
"""

import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from swallowkit import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from output_calls import CALLS, LIBRARY, PRELUDE, SPECS  # noqa: E402

TABLE = Path(__file__).resolve().with_name("golden_outputs.json")


def _cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:      # argparse's own exits
        return exc.code


def _library(code):
    exec(compile(PRELUDE + code, "<library call>", "exec"), {"__name__": "__library__"})
    return 0


def _calls():
    """(label, thunk) of every call; labels as tools/compare_outputs.py prints them."""
    return ([("swallowkit " + " ".join(argv), lambda argv=argv: _cli(argv)) for argv in CALLS]
            + [("python -c <" + name + ">", lambda code=code: _library(code))
               for name, code in LIBRARY])


def _digests(work):
    """{label: {"exit" | "stdout" | "stderr" | file name: sha256}} of every
    call, each run in the directory work with the specs in it."""
    for name, doc in SPECS.items():
        (work / name).write_text(json.dumps(doc))
    out = {}
    for label, run in _calls():
        before = set(os.listdir(work))
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run()
        res = {"exit": str(code).encode(), "stdout": stdout.getvalue().encode(),
               "stderr": stderr.getvalue().encode()}
        for name in sorted(set(os.listdir(work)) - before):
            res[name] = (work / name).read_bytes()
            (work / name).unlink()
        out[label] = {k: hashlib.sha256(v).hexdigest() for k, v in res.items()}
    return out


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _moved(got, calls):
    """{label: sorted output keys whose digest differs} of every call that
    moved between the digests got and the table's calls; a call on one side
    only moves whole."""
    moved = {}
    for label in dict.fromkeys([*got, *calls]):
        d, e = got.get(label, {}), calls.get(label, {})
        keys = sorted(k for k in set(d) | set(e) if d.get(k) != e.get(k))
        if keys:
            moved[label] = keys
    return moved


def test_every_output_has_its_committed_digest(tmp_path, monkeypatch):
    table = json.loads(TABLE.read_text())
    if table["versions"] != _versions():
        pytest.skip(f"table made with {table['versions']}, running {_versions()}")
    monkeypatch.chdir(tmp_path)
    got = _digests(tmp_path)
    assert list(got) == list(table["calls"])
    assert _moved(got, table["calls"]) == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        calls = _digests(Path(work))
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {"versions": None, "calls": {}}
    if old["versions"] != _versions():
        print(f"table made with {old['versions']}, running {_versions()}")
    moved = _moved(calls, old["calls"])
    for label, keys in moved.items():
        print("moved:", label, " ".join(keys))
    if not moved:
        print("moved: none")
    TABLE.write_text(json.dumps({"versions": _versions(), "calls": calls}, indent=1) + "\n")
    print(f"wrote {len(calls)} calls to {TABLE}")
