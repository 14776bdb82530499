"""The benchmark command, run as a separate process."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH

ROOT = os.path.dirname(BENCH)


def _run(workload, seed, trace, cwd=ROOT):
    out = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace)],
                         cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


@pytest.mark.parametrize("workload", ["classify", "roundtrip", "surfaces"])
def test_per_layer_counts_repeat_at_one_seed(workload):
    runs = []
    for _ in range(2):
        out = _run(workload, 3, 1)
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    first, second = runs
    assert first["correct"] and first["failed"] == 0
    counts = lambda r: {k: m["value"] for k, m in r["metrics"].items()
                        if m["unit"] in ("count", "bytes")}
    assert counts(first) == counts(second)
    assert first["attempted"] == second["attempted"]
    assert counts(first)["jets.mul_calls"] > 0


def test_untraced_run_prints_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = _run("classify", 4, 0)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] > 0 and res["failed"] == 0
    for m in spec["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_package_sources():
    """A directory holding only BENCHMARK.json and the benchmark."""
    bare = os.path.join(ROOT, ".perfbench_out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        out = _run("classify", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
