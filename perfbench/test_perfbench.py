"""Tests of the benchmark itself (slow: each starts benchmark processes).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Exact work counters: identical for every run of the same seed.
COUNTERS = (
    "cli.import_modules",
    "gaussian.calls",
    "serialize.bytes",
    "torontonian.calls",
    "torontonian.subsets",
    "torontonian.chol_flops",
    "hafnian.calls",
    "hafnian.subsets",
    "probabilities.tor_calls",
    "sampler.branch_updates",
    "sampler.peak_branches",
    "sampler.peak_branch_mb",
    "cv.densities",
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(cwd, workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_counters_in_spec():
    names = {m["name"] for m in _spec()["per_layer"]}
    assert set(COUNTERS) <= names


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_counters_repeat_exactly(workload):
    first, second = (_result(_bench(ROOT, workload, seed=7, trace=1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_spec(trace, section):
    spec = _spec()[section]
    result = _result(_bench(ROOT, "cv", seed=3, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "sample", seed=1, trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
