"""One cold pass of one benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build the inputs, then stop), ``run`` (run
every operation untraced) or ``trace`` (run them under the layer tracer).
The pass prints one JSON object on stdout.  ``setup_end`` is read from
``time.monotonic``, which the parent shares, so the parent can measure set-up
from before it started this interpreter.  A host-speed probe runs after
set-up and around every operation, outside the timed spans.

A workload is a fixed list of public-API calls.  Each runs cold, because the
LRU caches in ``canon`` and ``montecarlo`` make in-process repeats about ten
times cheaper and a command-line user pays the cold cost on every call.  The
seed reaches only the Monte Carlo sampler; the exact workloads have fixed
inputs.  Outputs are reduced to the fields pinned in ``pins.json`` after the
timed region, with the tracer removed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_out"

# The exact E(M(4)) of the dimension-4 torus census.
EXACT_EM4 = Fraction(15253049369, 1006387200)
# Trials per simulate pass, and how far the pass mean may sit from EXACT_EM4:
# about five standard errors of a 400-trial mean, plus the N = 50 grid's
# offset from the limit.
SIM_TRIALS = 400
SIM_MEAN_TOL = 0.6
# Iterations of the host-speed probe, and the probe's time on the 2-vCPU,
# 2.0 GHz VM with Python 3.11 the benchmark was tuned on, when no other
# tenant slowed it down.
PROBE_LOOPS = 300_000
PROBE_NOMINAL_S = 0.018


def _rows(records):
    """Sorted (m, nparams, prob, aut) rows, the census fields that are pinned."""
    rows = sorted((r.m, r.nparams, r.prob, r.aut) for r in records)
    return [[m, k, str(q), a] for m, k, q, a in rows]


def _census_ops(seed):
    from cubepack import canon, census, cli, constructions

    checkpoint = WORK / f"census-checkpoint-{seed}.json"
    checkpoint.unlink(missing_ok=True)
    built = {
        "rod_tiling(5)": constructions.rod_tiling(5),
        "rod_tiling(6)": constructions.rod_tiling(6),
        "hn_tiling(5)": constructions.hn_tiling(5),
        "k8_factorization": constructions.factorization_packing(
            constructions.one_factorization(8)),
        "h_matrix(7)": constructions.h_matrix(7),
    }

    def positive(records):
        return {"rows": _rows(records),
                "expected_cubes": str(census.expected_cubes_limit(3, records)),
                "laminated_mass": str(census.laminated_mass(records))}

    def tracked(records):
        return sorted([r.m, r.nparams, str(r.prob), r.aut,
                       [[list(h), str(q)] for h, q in r.paths]]
                      for r in records)

    def key_ok(key):
        return isinstance(key, canon.CanonicalKey) and len(key.bytes) > 0

    ops = [
        ("torus_limit_census(3)",
         lambda: census.torus_limit_census(3), positive),
        ("torus_limit_census(3, include_zero_prob)",
         lambda: census.torus_limit_census(3, include_zero_prob=True), _rows),
        ("torus_limit_census(3, track_paths)",
         lambda: census.torus_limit_census(3, track_paths=True), tracked),
        ("torus_limit_census(3, checkpoint write)",
         lambda: census.torus_limit_census(3, checkpoint_path=checkpoint),
         positive),
        ("torus_limit_census(3, checkpoint resume)",
         lambda: census.torus_limit_census(3, checkpoint_path=checkpoint),
         positive),
    ]
    ops += [(f"verify_fixture({name})",
             lambda name=name: cli.verify_fixture(name), dict)
            for name in sorted(constructions.fixtures())]
    for label, p in built.items():
        ops.append((f"canonical_key({label})",
                    lambda p=p: canon.canonical_key(p), key_ok))
        ops.append((f"automorphism_order({label})",
                    lambda p=p: canon.automorphism_order(p), int))

    def extra():
        return {"census.checkpoint_bytes": checkpoint.stat().st_size
                if checkpoint.exists() else 0}

    def cleanup():
        checkpoint.unlink(missing_ok=True)

    return ops, extra, cleanup


def _expand_ops(seed):
    from cubepack import census

    dims = range(1, 7)
    series = {}

    def expansion(n):
        series[n] = census.cube_expansion(n, 4)
        return series[n]

    ops = [(f"cube_expansion({n}, 4)", lambda n=n: expansion(n),
            lambda s: [str(c) for c in s.coeffs]) for n in dims]
    ops.append(("interpolate_Ck(4, 1..6)",
                lambda: census.interpolate_Ck(4, dims, expansions=series),
                lambda polys: [[str(c) for c in p.coeffs] for p in polys]))
    return ops, None, None


def _grid_ops(seed):
    from cubepack import discrete
    from cubepack.model import CUBE, TORUS

    def witness_checked(result):
        # re-check the witness directly: pairwise disjoint and maximal
        size, witness = result
        n, N = 4, 2
        disjoint = not any(discrete.grid_overlaps(a, b, N, TORUS)
                           for i, a in enumerate(witness)
                           for b in witness[i + 1:])
        maximal = all(any(discrete.grid_overlaps(pos, w, N, TORUS)
                          for w in witness)
                      for pos in discrete.grid_positions(n, N, TORUS))
        return {"size": size, "cubes": len(witness),
                "disjoint": disjoint, "maximal": maximal}

    def mass_one(records):
        # finite_census(2, 3, cube) raises at the parent commit, so there is
        # no value to pin; a run that returns must at least conserve mass
        return sum(r.prob for r in records) == 1

    ops = [
        ("finite_census(3, 2, torus)",
         lambda: discrete.finite_census(3, 2, space=TORUS), _rows),
        ("finite_census(3, 2, cube)",
         lambda: discrete.finite_census(3, 2, space=CUBE), _rows),
        ("finite_census(2, 3, cube)",
         lambda: discrete.finite_census(2, 3, space=CUBE), mass_one),
        ("min_maximal_packing(4, 2)",
         lambda: discrete.min_maximal_packing(4, 2), witness_checked),
    ]
    return ops, None, None


def _simulate_ops(seed):
    from cubepack import montecarlo
    from cubepack.model import TORUS

    cfg = montecarlo.SimConfig(space=TORUS, dim=4, N=50, trials=SIM_TRIALS,
                               seed=seed, track_lamination=True)
    reports = []

    def simulate():
        reports.append(montecarlo.estimate_expectation(cfg))
        return reports[-1]

    def observe(report):
        return {"mean_within_tol":
                abs(report.mean - float(EXACT_EM4)) <= SIM_MEAN_TOL}

    def extra():
        if not reports:
            return {}
        counts = reports[-1].counts
        digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
        return {"report_steps": sum(counts), "counts_sha256": digest,
                "mean": reports[-1].mean}

    return [("estimate_expectation(torus, 4, 50)", simulate, observe)], \
        extra, None


# Each function makes its workload's inputs and returns (ops, extra, cleanup).
# ops lists (label, call, observe); observe reduces the call's output to its
# pinned fields.  extra() gives counts measured from the outputs and cleanup()
# removes the files the pass wrote; either may be None.
WORKLOADS = {
    "census": _census_ops,
    "expand": _expand_ops,
    "grid": _grid_ops,
    "simulate": _simulate_ops,
}


def _probe():
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    Other tenants of the host slow every operation down by a factor that
    drifts over seconds to minutes; the parent scales each timing by
    PROBE_NOMINAL_S over the probe taken around it.
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(PROBE_LOOPS):
        acc += k * k
    return time.perf_counter() - t0


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def run_pass(workload, seed, mode):
    """One pass; returns the JSON-ready result dict."""
    # every module is imported during set-up, so its cost shows in setup_s
    # and the tracer finds every module that holds a wrapped function
    import cubepack
    import numpy
    from cubepack import (backend, canon, census, cli, constructions,  # noqa: F401
                          discrete, extend, model, montecarlo, ratfun)

    WORK.mkdir(exist_ok=True)
    ops, extra, cleanup = WORKLOADS[workload](seed)
    out = {"setup_end": time.monotonic()}
    out.update(setup_probe=_probe(), version=cubepack.__version__,
               numpy=numpy.__version__)
    if mode == "setup":
        if cleanup:
            cleanup()
        return out
    tracer = None
    if mode == "trace":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    probe = _probe()
    try:
        for label, fn, _ in ops:
            t0 = time.perf_counter()
            try:
                value, error = fn(), None
            except Exception as exc:
                value, error = None, _describe(exc)
            seconds = time.perf_counter() - t0
            after = _probe()
            results.append((label, value, error, seconds, (probe + after) / 2))
            probe = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["wall_s"] = sum(r[3] for r in results)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    observe = {label: obs for label, _, obs in ops}
    out["ops"] = []
    for label, value, error, seconds, probe in results:
        observed = None
        if error is None:
            try:
                observed = observe[label](value)
            except Exception as exc:
                error = "observing the output: " + _describe(exc)
        out["ops"].append({"label": label, "seconds": seconds, "probe": probe,
                           "error": error, "observed": observed})
    out["extra"] = extra() if extra else {}
    if tracer is not None:
        out["trace"] = tracer.report()
    if cleanup:
        cleanup()
    return out


def main(argv):
    workload, seed, mode = argv
    if workload not in WORKLOADS or mode not in ("setup", "run", "trace"):
        raise SystemExit(f"usage: worker.py {{{','.join(WORKLOADS)}}} SEED "
                         "{setup,run,trace}")
    print(json.dumps(run_pass(workload, int(seed), mode)))


if __name__ == "__main__":
    main(sys.argv[1:])
