"""tools/bench_pairs.py --trajectory: the medians of every BENCH file, file by file."""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def _bench(workloads):
    """A BENCH document with the given {workload: {metric: (base, head)}} medians."""
    def side(median):
        return {"median": median, "q1": median, "q3": median, "iqr": 0.0}
    return {"base_commit": "a", "head_commit": "b", "workloads": {
        w: {"metrics": {m: {"unit": "s", "better": "lower", "base": side(b), "head": side(h),
                            "head_won": 0, "pairs": 1} for m, (b, h) in ms.items()}}
        for w, ms in workloads.items()}}


def test_trajectory_prints_each_files_medians_in_pr_order(tmp_path, monkeypatch, capsys):
    """Files in the order of their PR number (9 before 10), a held-out file
    after its PR's own and marked, each with its own base and head; a
    workload missing from a file has no line for it; nothing is run."""
    (tmp_path / "BENCH_10.json").write_text(json.dumps(_bench(
        {"certify": {"op_s": (0.2, 0.1)}, "classify": {"op_s": (0.004, 0.005)}})))
    (tmp_path / "BENCH_9.json").write_text(json.dumps(_bench({"certify": {"op_s": (0.3, 0.25)}})))
    (tmp_path / "BENCH_9_heldout.json").write_text(json.dumps(_bench(
        {"certify": {"op_s": (0.31, 0.26)}})))
    (tmp_path / "notes.json").write_text("{}")

    def refuse(*args, **kwargs):
        raise AssertionError("the trajectory runs nothing")
    monkeypatch.setattr(subprocess, "run", refuse)
    assert bench_pairs.main(["--trajectory", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "certify op_s",
        "  BENCH_9.json             base 0.3          head 0.25         s",
        "  BENCH_9_heldout.json     base 0.31         head 0.26         s  held out",
        "  BENCH_10.json            base 0.2          head 0.1          s",
        "classify op_s",
        "  BENCH_10.json            base 0.004        head 0.005        s",
    ]
