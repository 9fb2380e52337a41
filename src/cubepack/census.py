"""Exact censuses of the sequential packing process.

Enumerates the reachable equivalence classes together with their exact
probabilities, either on the torus in the fine-grid limit, in the cube-space
asymptotic-expansion regime, or on a finite grid (discrete.finite_census),
and decides whether a packing is reached along a positive path
(positive_path_exists).  All four run the one breadth-first engine, sweep,
and differ only in their step rule, merge key and weight: Fractions, path
histograms, power series in 1/(N-1) truncated at the expansion order, or
counts of positive insertion orders.  Nothing is sampled here.
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
    max_nb,
    max_nb_classes,
)
from .model import (
    CUBE,
    TORUS,
    ResourceGuardError,
    add_cube,
    coordinate_params,
    empty_packing,
    from_json_obj,
    is_literal,
    param_of,
    to_json_obj,
)
from .ratfun import Series, interpolate


@dataclass(frozen=True)
class CensusRecord:
    """One terminal equivalence class of the process.

    rep is a packing of the class; m and nparams read it.  Terminal
    classes are never extensible: a terminal state has no extension class
    of positive size, and a non-extensible type has none at all.  prob is
    a Fraction in the limit and finite regimes and, in the expansion
    regime, a Series in x = 1/(N-1) truncated at the expansion order: the
    class's probability through that order.  paths, when tracked, is the
    sorted (histogram, probability) pairs: histogram[k] counts the steps
    that added k new parameters, and probability is the mass arriving
    through paths with that histogram.  None when untracked.
    """

    key: CanonicalKey
    rep: object
    prob: object
    aut: int
    paths: tuple = None

    @property
    def m(self):
        return self.rep.m

    @property
    def nparams(self):
        return self.rep.nparams


class _Paths(dict):
    """A path-tracked weight: per-step new-parameter histogram -> the
    probability mass arriving through paths with that histogram.  Weights
    add by merging histograms; the total mass is the probability.
    """

    def __add__(self, other):
        out = _Paths(self)
        for hist, w in other.items():
            out[hist] = out[hist] + w if hist in out else w
        return out

    def step(self, nb, share):
        """The weight after a step of probability share adding nb new
        parameters."""
        return _Paths({
            hist[:nb] + (hist[nb] + 1,) + hist[nb + 1:]: w * share
            for hist, w in self.items()
        })

    @property
    def prob(self):
        return sum(self.values(), Fraction(0))


def sweep(start, key, children, on_level=None, _level_order=None):
    """Breadth-first sweep of the packing process, one cube per level.

    start is (level, frontier, records), frontier and records mapping a key
    to a [state, weight] entry.  children(state, weight) returns the
    (child, weight) pairs of one step, an empty list for a terminal state;
    key(child) is the child's merge key.  Entries with equal keys merge by
    adding weights with +, the first arrival stored as is.  A terminal
    state moves to records under the key it arrived with.  After each level
    on_level(level, frontier, records) runs, level counting the levels
    done.  Returns records: every terminal state with its total weight.
    """
    level, frontier, records = start
    while frontier:
        items = list(frontier.items())
        if _level_order is not None:
            _level_order(items)
        frontier = {}
        for k, (state, weight) in items:
            steps = children(state, weight)
            if not steps:
                _merge(records, k, state, weight)
            for child, w in steps:
                _merge(frontier, key(child), child, w)
        level += 1
        if on_level is not None:
            on_level(level, frontier, records)
    return records


def _merge(table, k, state, weight):
    entry = table.get(k)
    if entry is None:
        table[k] = [state, weight]
    else:
        entry[1] = entry[1] + weight


def _census_key(p):
    return canonical_key(p).bytes


def _terminal_record(rep, prob, paths=None):
    return CensusRecord(key=canonical_key(rep), rep=rep, prob=prob,
                        aut=automorphism_order(rep), paths=paths)


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

    Sweeps over cube counts, merging states by canonical key and
    accumulating exact probabilities, so the result is independent of
    processing order.

    Args:
        n: dimension.
        include_zero_prob: also walk extension classes below the maximal
            new-parameter count; the extra classes carry probability zero
            and surface the unreachable-at-random types.
        track_paths: record, per terminal class, the distribution of
            per-step new-parameter histograms (CensusRecord.paths).
        allow_large: lift the default n <= 4 guard (n <= 3 with
            include_zero_prob).
        checkpoint_path: JSON file updated while sweeping and resumed from
            when present.
        checkpoint_interval: levels between checkpoint writes, at least 1;
            the final state is always written.

    Returns:
        List of CensusRecord sorted by descending probability.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if checkpoint_interval < 1:
        raise ValueError(
            f"checkpoint interval must be >= 1, got {checkpoint_interval}"
        )
    if include_zero_prob and track_paths:
        raise ValueError("path tracking applies to the positive process only")
    limit = 3 if include_zero_prob else 4
    if n > limit and not allow_large:
        raise ResourceGuardError(
            f"dimension {n} census exceeds the default limit {limit}"
        )

    def children(rep, weight):
        # uniform over the classes of maximal nb, zero on the rest
        classes = (enumerate_extension_classes(rep) if include_zero_prob
                   else max_nb_classes(rep))
        if not classes:
            return []
        best = max(c.nb for c in classes)
        share = Fraction(1, sum(c.nb == best for c in classes))
        out = []
        for c in classes:
            q = share if c.nb == best else Fraction(0)
            out.append((add_cube(rep, class_representative(rep, c)),
                        weight.step(c.nb, q) if track_paths else weight * q))
        return out

    def on_level(level, frontier, records):
        if level % checkpoint_interval == 0 or not frontier:
            _save_checkpoint(checkpoint_path, n, include_zero_prob,
                             track_paths, level, frontier, records)

    if checkpoint_path is not None and Path(checkpoint_path).exists():
        start = _load_checkpoint(
            checkpoint_path, n, include_zero_prob, track_paths
        )
    else:
        p0 = empty_packing(TORUS, n)
        w0 = (_Paths({(0,) * (n + 1): Fraction(1)}) if track_paths
              else Fraction(1))
        start = (0, {_census_key(p0): [p0, w0]}, {})
    records = sweep(
        start, _census_key, children,
        on_level=None if checkpoint_path is None else on_level,
        _level_order=_level_order,
    )
    out = [
        _terminal_record(rep, weight.prob, tuple(sorted(weight.items())))
        if track_paths else _terminal_record(rep, weight)
        for rep, weight in records.values()
    ]
    out.sort(key=lambda r: (-r.prob, r.m, r.nparams, r.key.bytes))
    total = sum(r.prob for r in out)
    if total != 1:
        raise AssertionError(f"census mass {total} != 1")
    return out


def _save_checkpoint(path, n, zero, tracked, level, frontier, records):
    def enc(entry):
        rep, weight = entry
        if not tracked:
            return [to_json_obj(rep), str(weight), None]
        paths = [[list(h), str(w)] for h, w in sorted(weight.items())]
        return [to_json_obj(rep), str(weight.prob), paths]

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
        not isinstance(blob, dict)
        or blob.get("regime") != "limit"
        or blob.get("n") != n
        or blob.get("include_zero_prob") != zero
        or blob.get("track_paths") != tracked
    ):
        raise ValueError(f"checkpoint {path} does not match this census")
    for field in ("level", "frontier", "records"):
        if field not in blob:
            raise ValueError(f"checkpoint {path} lacks the field {field!r}")

    def dec(entries):
        table = {}
        for obj, prob, paths in entries:
            rep = from_json_obj(obj)
            if paths is None:
                weight = Fraction(prob)
            else:
                weight = _Paths({tuple(h): Fraction(w) for h, w in paths})
            table[_census_key(rep)] = [rep, weight]
        return table

    return blob["level"], dec(blob["frontier"]), dec(blob["records"])


def expected_cubes_limit(n, census=None):
    """E(M(n)): the expected number of cubes at termination, exactly."""
    if census is None:
        census = torus_limit_census(n)
    return sum(r.prob * r.m for r in census)


def laminated(p):
    """Whether some coordinate carries exactly one parameter."""
    return min(len(s) for s in coordinate_params(p)) == 1


def laminated_mass(records):
    """Total probability of the laminated terminal classes."""
    return sum((r.prob for r in records if laminated(r.rep)), Fraction(0))


def _positive_cubes(sub, cubes):
    """The keys k of cubes, a {k: cube} map, whose insertion into sub is a
    positive step: the cube adds as many fresh parameters as the best
    extension class of sub.  Empty when sub is non-extensible."""
    best = max_nb(sub)
    if best is None:
        return []
    sets = coordinate_params(sub)
    return [
        k for k, cube in cubes.items()
        if sum(is_literal(c) and param_of(c) not in s
               for c, s in zip(cube, sets)) == best
    ]


# Test-only: the brute-force order tests check _positive_cubes through it.
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
        if not _positive_cubes(sub, {i: p.cubes[i]}):
            return False
        sub = add_cube(sub, p.cubes[i])
    return True


def positive_path_exists(p, allow_large=False):
    """Whether any insertion order of p's cubes is a positive path.

    Sweeps the lattice of cube subsets, states keyed by their cube mask and
    weighted by their number of positive orders, so all m! orders are
    covered at 2^m cost.
    """
    if p.m > 16 and not allow_large:
        raise ResourceGuardError(f"subset walk over 2^{p.m} states")
    full = (1 << p.m) - 1

    def children(state, count):
        mask, sub = state
        rest = {i: p.cubes[i] for i in range(p.m) if not mask >> i & 1}
        if not rest:
            return []
        return [((mask | 1 << i, add_cube(sub, p.cubes[i])), count)
                for i in _positive_cubes(sub, rest)]

    start = (0, {0: [(0, empty_packing(p.space, p.dim)), 1]}, {})
    return full in sweep(start, lambda state: state[0], children)


def cube_expansion(n, order, allow_large=False, return_records=False):
    """Expansion of E(M(n)) for cube space in powers of x = 1/(N-1).

    Runs the truncated process on power series in x cut after x^order.  A
    step from a state with d_max the largest new-parameter count of its
    extension classes gives class c the share x^(d_max - nb_c) over the sum
    of that power over the kept classes; the denominator's constant term
    counts the top classes, so the share is a power series.  A class is
    kept when its share's valuation fits the order left after the state's
    own, so every dropped class would only contribute beyond x^order.  The
    kept probabilities sum to one through x^order, which the census mass
    check certifies.

    Args:
        n: dimension.
        order: highest power of 1/(N-1) wanted.
        allow_large: lift the default order <= 4 guard.
        return_records: also return the terminal CensusRecord list with
            Series probabilities.

    Returns:
        Series of length order + 1, or (Series, records).

    Raises:
        ValueError: if order is negative.
        ResourceGuardError: if order > 4 without allow_large.
    """
    if order < 0:
        raise ValueError(f"expansion order must be >= 0, got {order}")
    if order > 4 and not allow_large:
        raise ResourceGuardError(f"expansion order {order} needs the long flag")

    def children(rep, prob):
        classes = enumerate_extension_classes(rep)
        if not classes:
            return []
        budget = order - prob.valuation
        dmax = max(c.nb for c in classes)
        kept = [c for c in classes if dmax - c.nb <= budget]
        den = [0] * (order + 1)
        for c in kept:
            den[dmax - c.nb] += 1
        step = prob * Series(den, order).inverse()
        return [(add_cube(rep, class_representative(rep, c)),
                 step.shift(dmax - c.nb)) for c in kept]

    zero = Series((0,) * (order + 1), order)
    one = Series((1,) + (0,) * order, order)
    p0 = empty_packing(CUBE, n)
    start = (0, {_census_key(p0): [p0, one]}, {})
    records = sweep(start, _census_key, children)
    total = sum((prob for _, prob in records.values()), zero)
    if total != one:
        raise AssertionError("expansion mass is not 1")
    series = sum((prob * rep.m for rep, prob in records.values()), zero)
    if not return_records:
        return series
    out = [_terminal_record(rep, prob) for rep, prob in records.values()]
    out.sort(key=lambda r: (r.prob.valuation, r.m, r.key.bytes))
    return series, out


def interpolate_Ck(order, dims, expansions=None, allow_large=False):
    """Coefficient polynomials of the expansion as functions of dimension.

    Args:
        order: highest coefficient index.
        dims: dimensions to run (or look up) expansions for; needs at least
            order + 2 values so every fit is checked on a spare point.
        expansions: optional {n: Series} to reuse precomputed runs.
        allow_large: lift cube_expansion's order guard.

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
            got = cube_expansion(n, order, allow_large=allow_large)
        series[n] = got
    polys = []
    for k in range(order + 1):
        points = [(n, series[n].coeffs[k]) for n in dims]
        polys.append(interpolate(points, k))
    return polys
