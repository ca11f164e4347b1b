"""Self-tests of the benchmark: each workload at the smallest scale (one pass).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
KNOWN_DEFECTS = {"verify": 1}


def bench(workload, seed, trace, hashseed=None):
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report: "))[len("report: "):])
    return report, json.loads(lines[-1])


def assert_clean(workload, report, result):
    assert result["correct"], report["failures"]
    assert report["failures"] == []
    assert len(report["known_defects"]) == KNOWN_DEFECTS.get(workload, 0)
    expected_failed = KNOWN_DEFECTS.get(workload, 0) * (report["passes_untraced"] + report["passes_traced"])
    assert result["failed"] == expected_failed


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exactly_under_any_hash_seed(workload):
    r1, res1 = bench(workload, 7, 1, hashseed=1)
    r2, res2 = bench(workload, 7, 1, hashseed=2)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res1["metrics"].items()} == want
    assert_clean(workload, r1, res1)
    assert counts(res1) == counts(res2)
    assert r1["output_digest"] == r2["output_digest"]
    assert r1["decided_ratio"] == r2["decided_ratio"]
    assert (r1["PYTHONHASHSEED"], r1["traced"], r1["seed"]) == ("1", True, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics_on_another_seed(workload):
    report, result = bench(workload, 8, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert_clean(workload, report, result)
    assert (report["decided_ratio"] is None) == (workload == "present")
    for key in ("host.calib_s", "nproc", "python", "PYTHONHASHSEED", "seed", "traced"):
        assert key in report


def test_fails_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
