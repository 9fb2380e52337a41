"""Command-line front end.

Subcommands map onto the library: enumerate (censuses), expand (cube-space
series), simulate (Monte Carlo), construct (named packings), verify
(fixture corpus), canon (canonical data of a packing file).  Exact values
are printed as rational strings; floats appear in simulation reports only.
Stdout carries results only; errors go to stderr.
Exit codes: 0 success, 1 validation or verification failure, 2 refusal by
a resource guard.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .canon import CANON_MAX_DIM, automorphism_order, canonical_key
from .census import interpolate_Ck, positive_path_exists, torus_limit_census
from .constructions import (
    ROD_MAX_DIM,
    ConstructionError,
    factorization_packing,
    fixtures,
    h_matrix,
    hn_tiling,
    load_fixture,
    one_factorization,
    product,
    rod_tiling,
)
from .discrete import finite_census
from .extend import max_nb
from .model import (
    CUBE,
    TORUS,
    ResourceGuardError,
    dumps,
    is_tiling,
    load_file,
    validate,
)
from .montecarlo import SimConfig, estimate_expectation
from .ratfun import format_polynomial

SCHEMA_VERSION = 1
CENSUS_COLUMNS = ("key", "m", "nparams", "prob", "extensible", "aut")
# Coordinate codes (cubes x coordinates) a construction may hold without
# --long-running: those of the largest default rod tiling.
MAX_CONSTRUCT_CODES = 2 ** ROD_MAX_DIM * ROD_MAX_DIM


class UsageError(Exception):
    pass


class VerificationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _build_parser():
    parser = _Parser(prog="cubepack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", parents=[], help="terminal-class census")
    p.add_argument("--space", choices=(TORUS, CUBE), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--regime", choices=("limit", "finite"), default="limit")
    p.add_argument("--N", type=int, help="grid resolution (finite regime)")
    p.add_argument("--include-zero-prob", action="store_true")
    p.add_argument("--long-running", action="store_true",
                   help="lift resource guards")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="resumable sweep state file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("expand", help="series coefficient in the dimension")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dims", required=True, metavar="A..B",
                   help="dimension range to fit across, e.g. 1..4")
    p.add_argument("--long-running", action="store_true",
                   help="lift resource guards")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("simulate", help="seeded Monte Carlo runs")
    p.add_argument("--space", choices=(TORUS, CUBE), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--track-lamination", action="store_true")
    p.add_argument("--emit-histogram", action="store_true")
    p.add_argument("--long-running", action="store_true",
                   help="lift resource guards")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("construct", help="emit a named packing as JSON")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--product", nargs=2, metavar=("A.json", "B.json"),
                   help="semidirect product of two packing files")
    g.add_argument("--hmatrix", type=int, metavar="N",
                   help="the n-cube congruence-matrix packing, n odd")
    g.add_argument("--hn-tiling", dest="hn_tiling", type=int, metavar="N",
                   help="completed tiling over the congruence matrix")
    g.add_argument("--one-factorization", dest="one_factorization",
                   type=int, metavar="2P",
                   help="packing from the round-robin factorization of K_2p")
    g.add_argument("--rod", type=int, metavar="N",
                   help="rod tiling: the 3-dim rod tiling times the "
                        "laminated (N-3)-dim tiling")
    g.add_argument("--fixture", metavar="NAME",
                   help="a packing from the bundled corpus")
    p.add_argument("--long-running", action="store_true",
                   help="lift resource guards")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-derive fixture properties")
    p.add_argument("--fixtures", required=True, metavar="NAME",
                   help="fixture name, name prefix, or 'all'")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("canon", help="canonical data of a packing file")
    p.add_argument("--in", dest="path", required=True, metavar="FILE",
                   help=f"packing JSON of dimension at most {CANON_MAX_DIM}")
    p.set_defaults(func=_cmd_canon)
    return parser


def _emit_census(records, fmt, out):
    # every census record is terminal, hence never extensible
    rows = [
        {
            "key": r.key.hex(),
            "m": r.m,
            "nparams": r.nparams,
            "prob": str(r.prob),
            "extensible": False,
            "aut": r.aut,
        }
        for r in records
    ]
    if fmt == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
        return
    out.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CENSUS_COLUMNS)
    for row in rows:
        writer.writerow([row[c] if c != "extensible" else "false"
                         for c in CENSUS_COLUMNS])


def _cmd_enumerate(args, out):
    finite = args.regime == "finite"
    for given, message in (
        (args.N is not None and not finite,
         "--N applies to the finite regime only"),
        (args.include_zero_prob and finite,
         "--include-zero-prob applies to the limit regime only"),
        (args.checkpoint is not None and finite,
         "--checkpoint applies to the limit regime only"),
    ):
        if given:
            raise UsageError(message)
    if not finite:
        if args.space != TORUS:
            raise UsageError("the limit census is defined on the torus; "
                             "use expand for cube-space asymptotics")
        records = torus_limit_census(
            args.dim,
            include_zero_prob=args.include_zero_prob,
            allow_large=args.long_running,
            checkpoint_path=args.checkpoint,
        )
    else:
        if args.N is None:
            raise UsageError("the finite regime needs --N")
        records = finite_census(
            args.dim, args.N, space=args.space,
            allow_large=args.long_running,
        )
    _emit_census(records, args.format, out)
    return 0


def _parse_dims(text):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse dimension range {text!r}")
    if not dims:
        raise UsageError("empty dimension range")
    return dims


def _cmd_expand(args, out):
    dims = _parse_dims(args.dims)
    polys = interpolate_Ck(args.order, dims, allow_large=args.long_running)
    out.write(f"C_{args.order} = {format_polynomial(polys[args.order])}\n")
    return 0


def _cmd_simulate(args, out):
    cfg = SimConfig(
        space=args.space, dim=args.dim, N=args.N, trials=args.trials,
        seed=args.seed, track_lamination=args.track_lamination,
    )
    report = estimate_expectation(cfg, emit_histogram=args.emit_histogram,
                                  allow_large=args.long_running)
    payload = {
        "space": cfg.space,
        "dim": cfg.dim,
        "N": cfg.N,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "mean": report.mean,
        "variance": report.variance,
        "ci95": list(report.ci95),
    }
    if report.lamination_frequency is not None:
        payload["lamination_frequency"] = report.lamination_frequency
    if report.histogram is not None:
        payload["histogram"] = [list(kv) for kv in report.histogram]
    json.dump(payload, out, indent=2)
    out.write("\n")
    return 0


def _check_construct_size(cubes, dim, args):
    # negative sizes fall through to the constructions' own checks
    if (min(cubes, dim) > 0 and cubes * dim > MAX_CONSTRUCT_CODES
            and not args.long_running):
        raise ResourceGuardError(
            f"packing with {cubes} cubes of dimension {dim} exceeds "
            f"{MAX_CONSTRUCT_CODES} coordinate codes"
        )


def _load_valid(path):
    p = load_file(path)
    violation = validate(p)
    if violation is not None:
        raise ValueError(f"{path}: {violation.detail}")
    return p


def _cmd_construct(args, out):
    if args.product is not None:
        p, q = map(_load_valid, args.product)
        _check_construct_size(p.m * q.m, p.dim + q.dim, args)
        p = product(p, q)
    elif args.hmatrix is not None:
        _check_construct_size(args.hmatrix, args.hmatrix, args)
        p = h_matrix(args.hmatrix)
    elif args.hn_tiling is not None:
        p = hn_tiling(args.hn_tiling)
    elif args.one_factorization is not None:
        v = args.one_factorization
        _check_construct_size(v, v - 1, args)
        p = factorization_packing(one_factorization(v))
    elif args.rod is not None:
        p = rod_tiling(args.rod, allow_large=args.long_running)
    else:
        p = load_fixture(args.fixture)
    out.write(dumps(p, indent=2))
    out.write("\n")
    return 0


# Pinned properties of the bundled corpus; verify re-derives each field
# from scratch and reports any drift.
_FIXTURE_EXPECTATIONS = {
    "dim6-1": dict(m=8, nparams=21, aut=4, extensible=False, positive=False),
    "dim6-2": dict(m=8, nparams=22, aut=64, extensible=False, positive=False),
    "dim6-3": dict(m=8, nparams=22, aut=64, extensible=False, positive=False),
    "dim6-4": dict(m=8, nparams=22, aut=16, extensible=False, positive=False),
    "dim6-5": dict(m=8, nparams=22, aut=16, extensible=False, positive=False),
    "dim6-6": dict(m=8, nparams=22, aut=16, extensible=False, positive=False),
    "dim6-7": dict(m=8, nparams=22, aut=32, extensible=False, positive=False),
    "dim6-8": dict(m=8, nparams=22, aut=8, extensible=False, positive=False),
    "dim6-9": dict(m=8, nparams=22, aut=16, extensible=False, positive=False),
    "dim4-1over480": dict(
        m=6, nparams=10, aut=4, extensible=False, positive=True
    ),
    "h5": dict(m=5, nparams=15, aut=20, extensible=True, positive=True),
    "laminated-product": dict(
        m=8, nparams=7, aut=128, extensible=False, positive=True
    ),
    "laminated-mixed": dict(
        m=8, nparams=7, aut=128, extensible=False, positive=True
    ),
    "rod": dict(m=8, nparams=6, aut=32, extensible=False, positive=True),
    "minimal-packing": dict(
        m=4, nparams=6, aut=24, extensible=False, positive=True
    ),
}


def verify_fixture(name):
    """Re-derive every pinned property of a bundled fixture.

    Returns the derived report dict; raises VerificationError when the
    fixture is not a valid packing, and with a field-by-field diff when
    anything drifted.
    """
    p = load_fixture(name)
    violation = validate(p)
    if violation is not None:
        raise VerificationError(f"{name}: invalid: {violation.detail}")
    derived = dict(
        m=p.m,
        nparams=p.nparams,
        aut=automorphism_order(p),
        extensible=max_nb(p) is not None,
        positive=positive_path_exists(p),
    )
    expected = _FIXTURE_EXPECTATIONS.get(name)
    if expected is None:
        raise VerificationError(f"no pinned expectations for {name!r}")
    diffs = [
        f"  {field}: expected {expected[field]}, derived {value}"
        for field, value in derived.items()
        if value != expected[field]
    ]
    if diffs:
        raise VerificationError(
            "\n".join([f"{name}: mismatch"] + diffs)
        )
    derived["name"] = name
    derived["tiling"] = is_tiling(p)
    return derived


def _cmd_verify(args, out):
    corpus = sorted(fixtures())
    if args.fixtures == "all":
        names = corpus
    elif args.fixtures in corpus:
        names = [args.fixtures]
    else:
        names = [n for n in corpus if n.startswith(args.fixtures)]
    if not names:
        raise UsageError(f"no fixture matches {args.fixtures!r}")
    failures = 0
    for name in names:
        try:
            report = verify_fixture(name)
        except VerificationError as exc:
            print(exc, file=sys.stderr)
            failures += 1
            continue
        if report["tiling"]:
            status = "tiling"
        elif report["extensible"]:
            status = "extensible"
        else:
            status = "non-extensible"
        out.write(
            f"{name}: {status}, params={report['nparams']}, "
            f"aut={report['aut']}\n"
        )
    return 1 if failures else 0


def _cmd_canon(args, out):
    p = _load_valid(args.path)
    payload = {
        "key": canonical_key(p).hex(),
        "m": p.m,
        "nparams": p.nparams,
        "aut": automorphism_order(p),
        "extensible": max_nb(p) is not None,
        "tiling": is_tiling(p),
    }
    json.dump(payload, out, indent=2)
    out.write("\n")
    return 0


def run(argv, out=None):
    """Entry point; returns the exit code instead of raising SystemExit."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except BrokenPipeError:
        raise  # main's to handle, though an OSError
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ResourceGuardError as exc:
        # canon's cap has no override
        hint = (" (pass --long-running to override)"
                if "long_running" in args else "")
        print(f"refused: {exc}{hint}", file=sys.stderr)
        return 2
    except (ConstructionError, OSError, ValueError,
            VerificationError) as exc:
        print(exc, file=sys.stderr)
        return 1


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # flush at interpreter exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
