"""Exact censuses of the sequential packing process.

Enumerates the reachable equivalence classes together with their exact
probabilities, either on the torus in the fine-grid limit, in the cube-space
asymptotic-expansion regime, or on a finite grid.  All probabilities are
fractions or rational functions; nothing is sampled here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .canon import CanonicalKey, automorphism_order, canonical_key
from .extend import (
    enumerate_extension_classes,
    class_representative,
    limit_step_distribution,
    max_nb_classes,
)
from .model import (
    CUBE,
    TORUS,
    add_cube,
    coordinate_params,
    empty_packing,
    from_json_obj,
    is_literal,
    param_of,
    to_json_obj,
)
from .ratfun import RationalFunction, X, expand, interpolate, ratfun


class ResourceGuardError(RuntimeError):
    """The request exceeds the default size limits; pass the long-running
    flag to proceed deliberately."""


@dataclass(frozen=True)
class CensusRecord:
    """One terminal equivalence class of the process.

    prob is a Fraction in the limit and finite regimes and a
    RationalFunction of the grid resolution in the expansion regime.  paths,
    when tracked, maps per-step new-parameter histograms to the probability
    mass arriving through paths with that histogram.
    """

    key: CanonicalKey
    rep: object
    m: int
    nparams: int
    prob: object
    extensible: bool
    aut: int
    paths: tuple = None

    @property
    def zero_prob(self):
        return self.prob == 0


@dataclass(frozen=True)
class PathStats:
    """histogram[k] = number of process steps that added k new parameters."""

    histogram: tuple
    probability: Fraction


def path_stats(record):
    """The distribution over new-parameter histograms of a tracked record."""
    if record.paths is None:
        raise ValueError("census was run without track_paths")
    return tuple(PathStats(h, q) for h, q in record.paths)


def _merge_paths(target, hist, weight):
    target[hist] = target.get(hist, Fraction(0)) + weight


def _bump(hist, k):
    out = list(hist)
    out[k] += 1
    return tuple(out)


def torus_limit_census(
    n,
    include_zero_prob=False,
    track_paths=False,
    allow_large=False,
    checkpoint_path=None,
    checkpoint_interval=1,
    _level_order=None,
):
    """All terminal classes of the limit process on the n-torus.

    Runs a breadth-first sweep over cube counts, merging states by canonical
    key and accumulating exact probabilities, so the result is independent
    of processing order.

    Args:
        n: dimension.
        include_zero_prob: also walk extension classes below the maximal
            new-parameter count; the extra classes carry probability zero
            and surface the unreachable-at-random types.
        track_paths: record, per terminal class, the distribution of
            per-step new-parameter histograms (see path_stats).
        allow_large: lift the default n <= 4 guard (n <= 3 with
            include_zero_prob).
        checkpoint_path: JSON file updated while sweeping and resumed from
            when present.
        checkpoint_interval: levels between checkpoint writes; the final
            state is always written.

    Returns:
        List of CensusRecord sorted by descending probability.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if include_zero_prob and track_paths:
        raise ValueError("path tracking applies to the positive process only")
    limit = 3 if include_zero_prob else 4
    if n > limit and not allow_large:
        raise ResourceGuardError(
            f"dimension {n} census exceeds the default limit {limit}"
        )
    start_level = 0
    frontier = {}
    records = {}
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        start_level, frontier, records = _load_checkpoint(
            checkpoint_path, n, include_zero_prob, track_paths
        )
    if start_level == 0:
        p0 = empty_packing(TORUS, n)
        paths0 = {(0,) * (n + 1): Fraction(1)} if track_paths else None
        frontier = {canonical_key(p0).bytes: [p0, Fraction(1), paths0]}
    for level in range(start_level, 2 ** n + 1):
        if not frontier:
            break
        items = list(frontier.values())
        if _level_order is not None:
            _level_order(items)
        frontier = {}
        for rep, prob, paths in items:
            for child, share, nb in _limit_steps(rep, include_zero_prob):
                ckey = canonical_key(child).bytes
                entry = frontier.get(ckey)
                if entry is None:
                    entry = [child, Fraction(0), {} if track_paths else None]
                    frontier[ckey] = entry
                entry[1] += prob * share
                if track_paths and share:
                    for hist, w in paths.items():
                        _merge_paths(entry[2], _bump(hist, nb), w * share)
            if not limit_step_distribution(rep):
                rkey = canonical_key(rep).bytes
                entry = records.get(rkey)
                if entry is None:
                    entry = [rep, Fraction(0), {} if track_paths else None]
                    records[rkey] = entry
                entry[1] += prob
                if track_paths:
                    for hist, w in paths.items():
                        _merge_paths(entry[2], hist, w)
        if checkpoint_path is not None and (
            (level + 1) % checkpoint_interval == 0 or not frontier
        ):
            _save_checkpoint(
                checkpoint_path, n, include_zero_prob, track_paths,
                level + 1, frontier, records,
            )
    out = []
    for rep, prob, paths in records.values():
        out.append(
            CensusRecord(
                key=canonical_key(rep),
                rep=rep,
                m=rep.m,
                nparams=rep.nparams,
                prob=prob,
                extensible=False,
                aut=automorphism_order(rep),
                paths=_freeze_paths(paths),
            )
        )
    out.sort(key=lambda r: (-r.prob, r.m, r.nparams, r.key.bytes))
    total = sum(r.prob for r in out)
    if total != 1:
        raise AssertionError(f"census mass {total} != 1")
    return out


def _limit_steps(p, include_zero_prob):
    """Yield (child, probability share, new-parameter count) per class."""
    if include_zero_prob:
        classes = enumerate_extension_classes(p)
        if not classes:
            return
        best = max(c.nb for c in classes)
        r = sum(1 for c in classes if c.nb == best)
        for c in classes:
            share = Fraction(1, r) if c.nb == best else Fraction(0)
            yield add_cube(p, class_representative(p, c)), share, c.nb
    else:
        for c, share in limit_step_distribution(p):
            yield add_cube(p, class_representative(p, c)), share, c.nb


def _freeze_paths(paths):
    if paths is None:
        return None
    return tuple(sorted(paths.items()))


def _save_checkpoint(path, n, zero, tracked, level, frontier, records):
    def enc(entry):
        rep, prob, paths = entry
        enc_paths = None
        if paths is not None:
            enc_paths = [[list(h), str(w)] for h, w in sorted(paths.items())]
        return [to_json_obj(rep), str(prob), enc_paths]

    blob = {
        "schema_version": 1,
        "regime": "limit",
        "n": n,
        "include_zero_prob": zero,
        "track_paths": tracked,
        "level": level,
        "frontier": [enc(e) for e in frontier.values()],
        "records": [enc(e) for e in records.values()],
    }
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(blob))
    tmp.replace(path)


def _load_checkpoint(path, n, zero, tracked):
    blob = json.loads(Path(path).read_text())
    if (
        blob.get("regime") != "limit"
        or blob.get("n") != n
        or blob.get("include_zero_prob") != zero
        or blob.get("track_paths") != tracked
    ):
        raise ValueError(f"checkpoint {path} does not match this census")

    def dec(entry):
        obj, prob, paths = entry
        dec_paths = None
        if paths is not None:
            dec_paths = {tuple(h): Fraction(w) for h, w in paths}
        return [from_json_obj(obj), Fraction(prob), dec_paths]

    frontier = {}
    records = {}
    for entry in blob["frontier"]:
        e = dec(entry)
        frontier[canonical_key(e[0]).bytes] = e
    for entry in blob["records"]:
        e = dec(entry)
        records[canonical_key(e[0]).bytes] = e
    return blob["level"], frontier, records


def expected_cubes_limit(n, census=None):
    """E(M(n)): the expected number of cubes at termination, exactly."""
    if census is None:
        census = torus_limit_census(n)
    return sum(r.prob * r.m for r in census)


def min_nonextensible(records):
    """Minimal terminal cube count and the classes attaining it."""
    best = min(r.m for r in records)
    return best, [r for r in records if r.m == best]


def laminated(p):
    """Whether some coordinate carries exactly one parameter."""
    return min(len(s) for s in coordinate_params(p)) == 1


def laminated_mass(records):
    """Total probability of the laminated terminal classes."""
    return sum((r.prob for r in records if laminated(r.rep)), Fraction(0))


def _new_param_count(sets, cube):
    fresh = set()
    for j, code in enumerate(cube):
        if is_literal(code) and param_of(code) not in sets[j]:
            fresh.add((j, param_of(code)))
    return len(fresh)


def _max_newparams(p):
    if p.m == 0:
        return p.dim
    classes = max_nb_classes(p)
    return classes[0].nb if classes else None


def replay_is_positive(p, order=None):
    """Whether inserting p's cubes in the given order is a positive path.

    A step keeps positive probability exactly when the inserted cube's
    new-parameter count equals the maximum over the extension classes of
    the prefix.
    """
    idx = list(range(p.m)) if order is None else list(order)
    if sorted(idx) != list(range(p.m)):
        raise ValueError("order must be a permutation of the cube indices")
    sub = empty_packing(p.space, p.dim)
    for i in idx:
        best = _max_newparams(sub)
        if best is None:
            return False
        if _new_param_count(coordinate_params(sub), p.cubes[i]) != best:
            return False
        sub = add_cube(sub, p.cubes[i])
    return True


def positive_path_exists(p, allow_large=False):
    """Whether any insertion order of p's cubes is a positive path.

    Walks the lattice of cube subsets level by level, so all m! orders are
    covered at 2^m cost.
    """
    if p.m > 16 and not allow_large:
        raise ResourceGuardError(f"subset walk over 2^{p.m} states")
    m = p.m
    level = {0}
    for size in range(m):
        nxt = set()
        for mask in level:
            sub = empty_packing(p.space, p.dim)
            for i in range(m):
                if mask >> i & 1:
                    sub = add_cube(sub, p.cubes[i])
            best = _max_newparams(sub)
            if best is None:
                continue
            sets = coordinate_params(sub)
            for i in range(m):
                if not mask >> i & 1:
                    if _new_param_count(sets, p.cubes[i]) == best:
                        nxt.add(mask | 1 << i)
        level = nxt
        if not level:
            return False
    return (1 << m) - 1 in level


def cube_expansion(n, order, allow_long=False, return_records=False):
    """Expansion of E(M(n)) for cube space in powers of 1/(N-1).

    Runs the truncated exact process: extension classes whose probability
    already carries order beyond the target are dropped, and each step's
    denominator is restricted to the kept classes so the kept probabilities
    sum to one exactly.  The census mass check therefore certifies the
    truncation bookkeeping.

    Args:
        n: dimension.
        order: highest power of 1/(N-1) wanted.
        allow_long: lift the default order <= 4 guard.
        return_records: also return the terminal CensusRecord list with
            rational-function probabilities.

    Returns:
        Series of length order + 1, or (Series, records).

    Raises:
        ValueError: if order is negative.
        ResourceGuardError: if order > 4 without allow_long.
    """
    if order < 0:
        raise ValueError(f"expansion order must be >= 0, got {order}")
    if order > 4 and not allow_long:
        raise ResourceGuardError(f"expansion order {order} needs the long flag")
    one = ratfun(1)
    p0 = empty_packing(CUBE, n)
    frontier = {canonical_key(p0).bytes: [p0, one]}
    records = {}
    while frontier:
        nxt = {}
        for rep, prob in frontier.values():
            classes = enumerate_extension_classes(rep)
            if not classes:
                entry = records.get(canonical_key(rep).bytes)
                if entry is None:
                    records[canonical_key(rep).bytes] = [rep, prob]
                else:
                    entry[1] = entry[1] + prob
                continue
            budget = order - prob.order_at_infinity()
            dmax = max(c.nb for c in classes)
            kept = [c for c in classes if dmax - c.nb <= budget]
            weights = {nb: (X - 1) ** nb for nb in {c.nb for c in kept}}
            den = sum(weights[c.nb] for c in kept)
            shares = {nb: RationalFunction(w, den) for nb, w in weights.items()}
            for c in kept:
                share = shares[c.nb]
                child = add_cube(rep, class_representative(rep, c))
                ckey = canonical_key(child).bytes
                entry = nxt.get(ckey)
                if entry is None:
                    nxt[ckey] = [child, prob * share]
                else:
                    entry[1] = entry[1] + prob * share
        frontier = nxt
    total = sum(prob for _, prob in records.values())
    if total != one:
        raise AssertionError("expansion mass is not 1")
    emean = sum(prob * rep.m for rep, prob in records.values())
    series = expand(emean, order)
    if not return_records:
        return series
    out = [
        CensusRecord(
            key=canonical_key(rep),
            rep=rep,
            m=rep.m,
            nparams=rep.nparams,
            prob=prob,
            extensible=False,
            aut=automorphism_order(rep),
        )
        for rep, prob in records.values()
    ]
    out.sort(key=lambda r: (r.prob.order_at_infinity(), r.m, r.key.bytes))
    return series, out


def comb_type_counts(records, order):
    """counts[k] = number of terminal classes of probability order <= k."""
    orders = [r.prob.order_at_infinity() for r in records]
    return tuple(sum(1 for o in orders if o <= k) for k in range(order + 1))


def interpolate_Ck(order, dims, expansions=None, allow_long=False):
    """Coefficient polynomials of the expansion as functions of dimension.

    Args:
        order: highest coefficient index.
        dims: dimensions to run (or look up) expansions for; needs at least
            order + 2 values so every fit is checked on a spare point.
        expansions: optional {n: Series} to reuse precomputed runs.

    Returns:
        List of order + 1 Polynomials in the dimension; coefficient k is
        fitted with degree k and verified on the remaining dimensions.
    """
    dims = list(dims)
    if len(dims) < order + 2:
        raise ValueError("need at least order + 2 dimensions")
    if expansions is None:
        expansions = {}
    series = {}
    for n in dims:
        got = expansions.get(n)
        if got is None:
            got = cube_expansion(n, order, allow_long=allow_long)
        series[n] = got
    polys = []
    for k in range(order + 1):
        points = [(n, series[n].coeffs[k]) for n in dims]
        polys.append(interpolate(points, k))
    return polys


def closed_form_expansion_polys():
    """Coefficient polynomials (in the dimension) of the closed second-order
    form 1 + 2n/(N+1) + 4n(n-1)/(N+1)^2, re-expanded in powers of 1/(N-1).

    Exact by degree bounds: each coefficient is a polynomial of degree at
    most 2 in n, fitted through five dimensions with the spare points
    checked.
    """
    series = {}
    for n in range(1, 6):
        f = ratfun(1) + ratfun(2 * n, X + 1) + ratfun(4 * n * (n - 1), (X + 1) ** 2)
        series[n] = expand(f, 2)
    polys = []
    for k in range(3):
        points = [(n, series[n].coeffs[k]) for n in range(1, 6)]
        polys.append(interpolate(points, k))
    return polys


def finite_N_census(n, N, space=TORUS, allow_large=False):
    """Census of the process on the finite (1/N)-grid.

    Probabilities are accumulated over discrete packings up to grid
    symmetry (coordinate permutations, per-coordinate grid translations on
    the torus, and reflections); the reported classes additionally merge
    states whose pairwise blocking-count structures agree, the calibrated
    classification that matches the published half-step counts.

    Returns:
        List of CensusRecord sorted by descending probability; rep is the
        combinatorial type of a class representative and aut the order of
        its discrete stabilizer.
    """
    from . import discrete

    return discrete.finite_census(n, N, space, allow_large=allow_large)
