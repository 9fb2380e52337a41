"""The cubepack benchmark: one workload, timed cold, gated on pinned outputs.

Usage:
    python3 perfbench/run.py --workload {census,expand,grid,simulate}
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``cubepack`` from
``src`` and builds nothing.  Every pass is a fresh interpreter
(``worker.py``), started one at a time, because the library's LRU caches make
in-process repeats cheaper than the cold calls a command-line user makes.
Passes repeat until another would overrun ``--seconds``, with at least one.

Other tenants of a shared host slow every operation down by a factor that
drifts over seconds to minutes, by up to two times on a 2-vCPU VM, often for
a whole run.  So each pass times a fixed pure-Python probe after set-up and
around every operation, and every timing is reported at the probe's nominal
host speed: ``seconds * PROBE_NOMINAL_S / probe_around_it``.  On an
uncontended host of the kind the benchmark was tuned on, that is the wall
time; the uncorrected figures stay in the record file.

With ``--trace 0`` the end-to-end metrics are ``wall_s`` (first operation
to last, each operation's median over the passes), ``setup_s`` (interpreter
start, imports and input building; the median over every pass and some
extra set-up-only interpreters), ``peak_rss_mb`` (median ``ru_maxrss``) and
``ok_frac``, the share of operations that returned their pinned output;
``failed`` counts the others.  ``correct`` is false only when an operation
returned an output that differs from its pin; one that raised counts in
``failed`` alone.

With ``--trace 1`` untraced and traced passes alternate.  The per-layer
metrics are low medians over the traced passes (``layertrace.py``); their
times are not corrected.  ``trace.overhead_frac`` compares the corrected wall
times of the traced and untraced passes.

Every pass's outputs are compared with ``pins.json``.  The last line of
stdout is the JSON result; the lines above it print each metric with its
unit, the provenance and any failed operation.  A full record, spans
included, goes to ``.bench_out/``.  Exit status is 0 when the benchmark
ran, whatever the gate found, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PINS = HERE / "pins.json"
OUT = ROOT / ".bench_out"

WORKLOADS = ("census", "expand", "grid", "simulate")
# Set-up-only interpreters per untraced run, on top of one per pass.
SETUP_SAMPLES = 8
# Every pass must end by then, so the run exits within three minutes.
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
from layertrace import layer_metrics  # noqa: E402
from worker import PROBE_NOMINAL_S  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not run: no source tree, or a pass crashed."""


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_step"):
        return "calls/step"
    return "count"


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ok_frac": "frac"}


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _spawn(workload, seed, mode, deadline):
    t0 = time.monotonic()
    remaining = deadline - t0
    if remaining <= 0:
        raise BenchError("out of time before the pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), mode],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} overran the deadline")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"{mode} pass of {workload} exited with "
                         f"{proc.returncode}: " + " | ".join(tail))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["mode"] = mode
    result["setup_s"] = result["setup_end"] - t0
    return result


def _gate(workload, passes, pins):
    """Mark each operation ok or not; returns (attempted, failed, mismatched).

    An operation fails when it raised or its output differs from the pin.
    For simulate, every pass of one seed must also draw identical counts.
    """
    expected = pins[workload]
    digests = {p["extra"].get("counts_sha256") for p in passes}
    attempted = failed = mismatched = 0
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if op["error"] is None:
                if op["label"] not in expected:
                    op["error"] = "no pinned output"
                elif op["observed"] != expected[op["label"]]:
                    op["error"] = "output differs from the pin"
                    mismatched += 1
                elif len(digests) > 1:
                    op["error"] = "counts differ between passes of one seed"
                    mismatched += 1
            failed += op["error"] is not None
    return attempted, failed, mismatched


def _wall(passes):
    """First operation to last, at the probe's nominal host speed.

    Each operation's time is scaled by PROBE_NOMINAL_S over the probe taken
    around it; the median over the passes is summed over the operations.
    """
    return sum(
        statistics.median(
            p["ops"][i]["seconds"] * PROBE_NOMINAL_S / p["ops"][i]["probe"]
            for p in passes)
        for i in range(len(passes[0]["ops"])))


def _provenance(seed, passes):
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "git_sha": sha,
        "cubepack": passes[0]["version"],
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "cubepack_threads_set": "CUBEPACK_THREADS" in os.environ,
        "cubepack_threads": os.environ.get("CUBEPACK_THREADS"),
    }


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "cubepack" / "__init__.py").is_file():
        raise BenchError(f"no cubepack source tree under {ROOT}")
    pins = json.loads(PINS.read_text())
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    # byte-compiles the sources and warms the file cache; not measured
    _spawn(workload, seed, "setup", deadline)
    modes = ("run", "trace") if trace else ("run",)
    passes = []
    t_measure = time.monotonic()
    while True:
        passes.append(_spawn(workload, seed, modes[len(passes) % len(modes)],
                             deadline))
        elapsed = time.monotonic() - t_measure
        if (len(passes) >= len(modes)
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    attempted, failed, mismatched = _gate(workload, passes, pins)
    untraced = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "trace"]
    setups = passes + [_spawn(workload, seed, "setup", deadline)
                       for _ in range(0 if trace else SETUP_SAMPLES)]
    wall = _wall(untraced)
    if trace:
        per_pass = [layer_metrics(p["trace"], p["extra"]) for p in traced]
        # median_low keeps counts whole; thread races make them vary
        metrics = {name: statistics.median_low(m[name] for m in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead_frac"] = _wall(traced) / wall - 1
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(
                p["setup_s"] * PROBE_NOMINAL_S / p["setup_probe"]
                for p in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": _provenance(seed, passes),
        "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "passes": passes,
        "setup_only": setups[len(passes):],
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    result = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        record, result = run(args.workload, args.seed, args.seconds,
                             args.trace)
    except (BenchError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}: {len(record['passes'])} passes, "
          f"{record['attempted']} operations, {record['failed']} failed "
          f"(failed_frac {record['failed_frac']:.4f}); uncorrected wall "
          f"{record['raw_wall_s']:.4f} s")
    for name, m in result["metrics"].items():
        print(f"  {name:44} {m['value']:.6g} {m['unit']}")
    for p in record["passes"]:
        for op in p["ops"]:
            if op["error"] is not None:
                print(f"  failed [{p['mode']}] {op['label']}: {op['error']}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
