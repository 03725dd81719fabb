"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench -q

Every workload runs end to end in both modes; the metric names it prints
must be exactly the ones BENCHMARK.json declares for that mode.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "spec.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds",
                "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    provenance = json.loads(proc.stdout.splitlines()[-2])["provenance"]
    assert provenance["seed"] == 4
    assert provenance["input"]["records"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spec_covers_benchmark():
    assert SPEC["held_out_seed"] != SPEC["default_seed"]
    assert set(SPEC["workloads"]) == set(WORKLOADS)
    assert set(SPEC["per_layer_moves"]) == {m["name"]
                                            for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert set(SPEC["per_layer_moves"].values()) - {None} <= e2e


def test_expanded_pairs_match_brute_force():
    rng = np.random.default_rng(0)
    cyc_a = np.sort(rng.integers(0, 40, 300)).astype(np.uint64)
    cyc_b = np.sort(rng.integers(0, 40, 200)).astype(np.uint64)
    brute = sum(int(np.count_nonzero(cyc_b == c)) for c in cyc_a)
    assert tracing._expanded_pairs(cyc_a, cyc_b) == brute


def test_self_time_subtracts_direct_children():
    def span(start, end, parent):
        s = tracing.Span("x", "x.y", start, parent)
        s.end = end
        return s

    spans = [span(0.0, 10.0, None), span(1.0, 4.0, 0), span(2.0, 3.0, 1),
             span(5.0, 6.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
