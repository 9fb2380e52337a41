"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/selfcheck.py

The file name keeps it out of the library's test collection: every case
runs real benchmark passes, about two minutes in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, seed=3, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def _result(workload, trace, seed=3):
    proc = _bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def _check_shape(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec_metrics}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    pins = json.loads((HERE / "pins.json").read_text())
    assert sorted(pins) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run(workload):
    result, record = _result(workload, trace=1)
    _check_shape(result, SPEC["per_layer"])
    assert result["correct"]
    # the known cube (2, 3) defect fails once in every grid pass
    expected_failed = len(record["passes"]) if workload == "grid" else 0
    assert result["failed"] == expected_failed
    m = {name: v["value"] for name, v in result["metrics"].items()}
    if workload in ("grid", "simulate"):
        assert m["canon.canonical_key.calls"] == 0
        assert m["canon.automorphism_order.calls"] == 0
    if workload != "expand":
        assert m["ratfun.add.calls"] == m["ratfun.mul.calls"] == 0
    if workload != "grid":
        assert m["backend.canonical_state.calls"] == 0
        assert m["backend.search_min_maximal.calls"] == 0
    traced = [p for p in record["passes"] if p["mode"] == "trace"]
    for p in traced:
        for name, (calls, total, own) in p["trace"]["spans"].items():
            assert calls > 0 and -1e-6 <= own <= total + 1e-6, name
    if workload == "simulate":
        assert m["montecarlo.trials"] > 0
        assert m["montecarlo.steps"] == traced[0]["extra"]["report_steps"]


@pytest.mark.parametrize("workload", ["grid", "simulate"])
def test_end_to_end_run(workload):
    result, record = _result(workload, trace=0)
    _check_shape(result, SPEC["end_to_end"])
    assert result["correct"]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["ok_frac"] == 1 - result["failed"] / result["attempted"]
    assert m["ok_frac"] == (0.75 if workload == "grid" else 1.0)
    assert all(v > 0 for v in m.values())
    assert {"git_sha", "python", "numpy", "nproc", "seed",
            "cubepack_threads_set"} <= set(record["provenance"])


def test_refuses_without_source_tree():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("grid", 0, root=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
