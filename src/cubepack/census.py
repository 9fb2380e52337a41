"""Exact censuses of the sequential packing process.

Enumerates the reachable equivalence classes together with their exact
probabilities, either on the torus in the fine-grid limit, in the cube-space
asymptotic-expansion regime, or on a finite grid (discrete.finite_census),
and decides whether a packing is reached along a positive path
(positive_path_exists).  All four run the one breadth-first engine, sweep,
and differ only in their step rule, merge key and weight: Fractions, path
histograms, power series in 1/(N-1) truncated at the expansion order, or
counts of positive insertion orders.  Nothing is sampled here.

Both exact sweeps build one child per orbit of a state's extension
classes under its automorphisms and weight it by the orbit's class count:
the classes of an orbit give equivalent children with equal shares.  The
limit census lists the classes; the cube-space expansion takes orbits of
its touched patterns and counts of untouched ZERO/ONE choices, and never
lists the classes those groups stand for.  A state ends with the key it
merges by, whose generators give its orbits (_form_key).  The limit census
builds and searches a child only when a cheap relabeling of its cube rows
(_relabelled) does not match a child already searched at its level; a
matched child is that child's state, already merged at this level.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from .canon import (
    canonical_key,
    class_orbit_leaders,
    group_order,
)
from .extend import (
    FRESH,
    ExtensionClass,
    enumerate_extension_classes,
    class_representative,
    max_nb,
    max_nb_classes,
)
from .model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    ResourceGuardError,
    add_cube,
    coordinate_params,
    empty_packing,
    from_json_obj,
    is_literal,
    literal,
    make_packing,
    param_of,
    to_json_obj,
    validate,
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


def _form_key(state):
    """An exact sweep state's merge key: the bytes of its last item."""
    return state[-1].bytes


def _census_state(p):
    return p, canonical_key(p)


def _relabelled(cubes):
    """The cube rows of a torus packing under a cheap relabeling: a normal
    form, a tuple of rows, that equivalent packings often, not always,
    share.

    A literal's mark is the number of cubes holding it and the number
    holding its opposite.  The coordinates are ordered by their sorted
    columns of marks, ties in index order.  Then, until nothing changes
    or for at most 4 rounds, the parameters are renumbered by first
    occurrence, the first shift seen of each becoming shift 0, and the
    cubes are sorted by their rows of marks, then by their codes.  A
    relabeling carries every mark along, so a round leaves the columns
    and their order alone.  Every step is a coordinate permutation, a
    parameter renaming with literal swaps or a cube reordering, so the
    result is the rows of a packing equivalent to the given one.
    """
    held = Counter([c for cube in cubes for c in cube])
    # a mark (h, h') is the int h * w + h', in the pairs' order as h' < w
    w = len(cubes) + 1
    marks = [[held[c] * w + held[c ^ 1] for c in cube] for cube in cubes]
    columns = [sorted(column) for column in zip(*marks)]
    order = sorted(range(len(columns)), key=columns.__getitem__)
    rows = sorted([(tuple([mark[j] for j in order]),
                    tuple([cube[j] for j in order]))
                   for mark, cube in zip(marks, cubes)])
    for _ in range(4):
        names = {}
        # code 2q + s, the literal t_q + s, becomes 2i + (s xor s0): i is
        # q's rank by first occurrence and s0 the shift it first had
        renamed = sorted([
            (mark, tuple([names.setdefault(c >> 1, 2 * len(names) + (c & 1))
                          ^ (c & 1) for c in cube]))
            for mark, cube in rows])
        if renamed == rows:
            break
        rows = renamed
    return tuple([cube for _, cube in rows])


def _terminal_record(rep, key, prob, paths=None):
    return CensusRecord(key=key, rep=rep, prob=prob, aut=group_order(rep, key),
                        paths=paths)


def torus_limit_census(
    n,
    include_zero_prob=False,
    track_paths=False,
    allow_large=False,
    checkpoint_path=None,
    _level_order=None,
):
    """All terminal classes of the limit process on the n-torus.

    Sweeps over cube counts, merging states by canonical key and
    accumulating exact probabilities, so the result is independent of
    processing order.

    A child whose cube rows _relabelled maps to the rows of an earlier
    child of the same level is that child's state: it is neither built nor
    searched.  This is exact.  Every step of _relabelled is a relabeling,
    so equal rows mean equivalent packings and equal keys.  The table holds
    this level's children only (on_level clears it), and sweep has merged
    each into the frontier, so a matched child merges its weight into that
    entry and is never a first arrival.  The stored representatives, keys,
    generators, weights and record order are those a search per child
    gives.  At n = 4 the census searches 8,210 forms instead of 32,685.

    Args:
        n: dimension.
        include_zero_prob: also walk extension classes below the maximal
            new-parameter count; the extra classes carry probability zero
            and surface the unreachable-at-random types.
        track_paths: record, per terminal class, the distribution of
            per-step new-parameter histograms (CensusRecord.paths).
        allow_large: lift the default n <= 4 guard (n <= 3 with
            include_zero_prob).
        checkpoint_path: JSON file rewritten after every level and resumed
            from when present.

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

    searched = {}  # this level's relabelled child rows -> the first's state

    def children(state, weight):
        # uniform over the classes of maximal nb, zero on the rest.  An
        # automorphism keeps nb, so the count classes of an orbit have one
        # share; one child from the leader, the orbit's first class, takes
        # count times it, and the children keep the classes' order
        rep, form = state
        classes = (enumerate_extension_classes(rep) if include_zero_prob
                   else max_nb_classes(rep))
        if not classes:
            return []
        best = max(c.nb for c in classes)
        share = Fraction(1, sum(c.nb == best for c in classes))
        out = []
        for i, count in Counter(
                class_orbit_leaders(rep, classes, form.gens)).items():
            c = classes[i]
            q = share * count if c.nb == best else Fraction(0)
            cube = class_representative(rep, c)
            rows = _relabelled(rep.cubes + (cube,))
            kid = searched.get(rows)
            if kid is None:
                kid = searched[rows] = _census_state(add_cube(rep, cube))
            out.append((kid,
                        weight.step(c.nb, q) if track_paths else weight * q))
        return out

    def on_level(level, frontier, records):
        searched.clear()
        if checkpoint_path is not None:
            _save_checkpoint(checkpoint_path, n, include_zero_prob,
                             track_paths, level, frontier, records)

    if checkpoint_path is not None and Path(checkpoint_path).exists():
        start = _load_checkpoint(
            checkpoint_path, n, include_zero_prob, track_paths
        )
    else:
        s0 = _census_state(empty_packing(TORUS, n))
        w0 = (_Paths({(0,) * (n + 1): Fraction(1)}) if track_paths
              else Fraction(1))
        start = (0, {_form_key(s0): [s0, w0]}, {})
    records = sweep(
        start, _form_key, children,
        on_level=on_level,
        _level_order=_level_order,
    )
    out = [
        _terminal_record(rep, form, weight.prob, tuple(sorted(weight.items())))
        if track_paths else _terminal_record(rep, form, weight)
        for (rep, form), weight in records.values()
    ]
    out.sort(key=lambda r: (-r.prob, r.m, r.nparams, r.key.bytes))
    total = sum(r.prob for r in out)
    if total != 1:
        raise AssertionError(f"census mass {total} != 1")
    return out


def _save_checkpoint(path, n, zero, tracked, level, frontier, records):
    def enc(entry):
        (rep, _), weight = entry
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
    """The sweep start stored at path.

    Raises:
        ValueError: unless the header matches this census, level is an
            integer >= 0, every entry is a [packing, prob, paths] triple
            holding a valid packing of the n-torus, with paths null exactly
            when untracked and else histograms that fit the packing, and
            the stored masses sum to 1.
    """
    blob = json.loads(Path(path).read_text())
    if (
        not isinstance(blob, dict)
        or blob.get("regime") != "limit"
        or blob.get("n") != n
        or blob.get("include_zero_prob") != zero
        or blob.get("track_paths") != tracked
    ):
        raise ValueError(f"checkpoint {path} does not match this census")
    for field, kind in (("level", int), ("frontier", list), ("records", list)):
        if type(blob.get(field)) is not kind:
            raise ValueError(f"checkpoint {path}: {field!r} is missing or "
                             f"not of type {kind.__name__}")
    if blob["level"] < 0:
        raise ValueError(f"checkpoint {path}: level {blob['level']} < 0")

    def dec(field):
        table = {}
        for i, entry in enumerate(blob[field]):
            try:
                obj, prob, paths = entry
                rep = from_json_obj(obj)
                weight = (Fraction(prob) if paths is None else
                          _Paths({tuple(h): Fraction(w) for h, w in paths}))
                # validate wants dimension >= 1; the 0-torus states are ()
                # and ((),).  A histogram counts steps by parameters added.
                ok = (rep.space == TORUS and rep.dim == n
                      and (paths is not None) == tracked
                      and (validate(rep) is None if n
                           else rep.cubes in ((), ((),)))
                      and all(len(h) == n + 1 and rep.nparams
                              == sum(k * c for k, c in enumerate(h))
                              for h in (weight if tracked else ())))
            except (TypeError, ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ValueError(f"checkpoint {path}: {field} entry {i} is "
                                 f"not a state of this census")
            state = _census_state(rep)
            table[_form_key(state)] = [state, weight]
        return table

    frontier, records = dec("frontier"), dec("records")
    mass = sum(w.prob if tracked else w
               for _, w in [*frontier.values(), *records.values()])
    if mass != 1:
        raise ValueError(f"checkpoint {path}: masses sum to {mass}, not 1")
    return blob["level"], frontier, records


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


def _positive_cubes(sub, cubes, bound):
    """The keys k of cubes, a {k: cube} map, whose insertion into sub is a
    positive step, and sub's best fresh-parameter count: a positive cube
    adds as many fresh parameters as the best extension class of sub.
    ([], None) when sub is non-extensible.

    bound is max_nb of a packing sub extends, and every cube of cubes is
    addable to sub.  max_nb never rises when a cube is added:
    a class of the larger packing, with its literals of parameters the
    smaller one lacks turned into FRESH, is a class of the smaller one
    with nb at least as large.  An addable cube is a class of sub, so the cubes' best count
    r bounds max_nb(sub) from below, and r == bound closes the bracket
    without max_nb's cover walk.
    """
    sets = coordinate_params(sub)
    counts = {
        k: sum(is_literal(c) and param_of(c) not in s
               for c, s in zip(cube, sets))
        for k, cube in cubes.items()
    }
    if max(counts.values()) == bound:
        best = bound
    else:
        best = max_nb(sub)
        if best is None:
            return [], None
    return [k for k, nb in counts.items() if nb == best], best


# Test-only: the brute-force order tests check _positive_cubes through it.
def replay_is_positive(p, order=None):
    """Whether inserting p's cubes in the given order is a positive path.

    A step keeps positive probability exactly when the inserted cube's
    new-parameter count equals the maximum over the extension classes of
    the prefix.  Each step's best count bounds the next, as in
    positive_path_exists, starting at p.dim; p must be a valid packing.
    """
    idx = list(range(p.m)) if order is None else list(order)
    if sorted(idx) != list(range(p.m)):
        raise ValueError("order must be a permutation of the cube indices")
    sub = empty_packing(p.space, p.dim)
    best = p.dim
    for i in idx:
        keys, best = _positive_cubes(sub, {i: p.cubes[i]}, best)
        if not keys:
            return False
        sub = add_cube(sub, p.cubes[i])
    return True


def positive_path_exists(p):
    """Whether any insertion order of p's cubes is a positive path.

    Sweeps the lattice of cube subsets, states keyed by their cube mask and
    weighted by their number of positive orders, so all m! orders are
    covered at 2^m cost.  Each state carries its first parent's best count
    as the bound of _positive_cubes; any parent's would do, each being a
    sub-packing of the state.  The empty packing's is p.dim, its all-FRESH
    class.  p must be a valid packing (verify_fixture
    validates first): the bound needs every remaining cube to be addable.
    """
    if p.m > 16:
        raise ResourceGuardError(f"subset walk over 2^{p.m} states")
    full = (1 << p.m) - 1

    def children(state, count):
        mask, sub, bound = state
        rest = {i: p.cubes[i] for i in range(p.m) if not mask >> i & 1}
        if not rest:
            return []
        keys, best = _positive_cubes(sub, rest, bound)
        return [((mask | 1 << i, add_cube(sub, p.cubes[i]), best), count)
                for i in keys]

    start = (0, {0: [(0, empty_packing(p.space, p.dim), p.dim), 1]}, {})
    return full in sweep(start, lambda state: state[0], children)


def _expansion_state(p):
    """A cube-space sweep state (p, part, cols, form): part is p on its
    touched coordinates cols, those where some cube holds ZERO or ONE, and
    form is part's canonical key.  part keeps the cubes in order, each
    interior parameter renumbered by its first occurrence, so equal parts
    are one cache entry.
    """
    cols = [j for j in range(p.dim) if any(cube[j] < 0 for cube in p.cubes)]
    params = {}
    part = make_packing(CUBE, len(cols), [
        tuple(cube[j] if cube[j] < 0
              else literal(params.setdefault(cube[j], len(params)))
              for j in cols)
        for cube in p.cubes
    ])
    return p, part, cols, canonical_key(part)


# Per-coordinate rank of a cube-space candidate in walk order: the walk
# lists ZERO, ONE, FRESH (see enumerate_extension_classes).
_WALK_RANK = {ZERO: 0, ONE: 1, FRESH: 2}


def _expansion_groups(state, budget):
    """The kept extension classes of a cube-space sweep state, one group
    per orbit (see cube_expansion).

    A class is kept when its shift, d_max - nb, is at most budget.  Each
    group is (first, shift, count): first is the orbit's first class in
    walk order, shift the orbit's common shift and count its number of
    classes.  The groups are sorted by first in walk order; the list is
    empty when rep is non-extensible.
    """
    rep, part, cols, form = state
    touched = enumerate_extension_classes(part)
    if not touched:
        return []
    tmax = max(t.nb for t in touched)
    kept = [t for t in touched if tmax - t.nb <= budget]
    leaders = class_orbit_leaders(part, kept, form.gens)
    size = Counter(leaders)
    free = [k for k in range(rep.dim) if k not in cols]
    u = len(free)
    groups = []
    for i, t in enumerate(kept):
        if leaders[i] != i:
            continue
        row = [FRESH] * rep.dim
        for k, x in zip(cols, t.coords):
            row[k] = x
        base = tmax - t.nb
        for j in range(min(u, budget - base) + 1):
            if j:
                row[free[j - 1]] = ZERO
            groups.append((ExtensionClass(tuple(row), t.nb + u - j),
                           base + j, size[i] * comb(u, j) << j))
    groups.sort(key=lambda g: [_WALK_RANK[x] for x in g[0].coords])
    return groups


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

    States merge by the canonical key of their touched part
    (_expansion_state), a complete invariant for a fixed n.  In cube space
    only the ZERO/ONE pair blocks, and a class never reuses a parameter:
    FRESH gives the new cube a parameter of its own.  So on a coordinate
    without ZERO or ONE every cube holds a private interior parameter.
    Such an untouched coordinate blocks nothing, and permuting the
    untouched coordinates or reflecting one of them is a symmetry.  FRESH
    keeps a coordinate untouched; ZERO or ONE touches it.  Relabelings map
    touched coordinates to touched ones, so two states are equivalent iff
    their touched parts are, each then with u = n - dim untouched
    coordinates.  Likewise a state's automorphisms are its touched part's
    times the permutations and reflections of the untouched coordinates.

    A step therefore never lists the 3^u choices on the untouched
    coordinates (_expansion_groups).  An untouched coordinate blocks
    nothing, so a class blocks every cube iff its touched pattern t does:
    the state's classes are exactly its touched part's classes t times
    {ZERO, ONE, FRESH}^u.  A class with j ZERO/ONE choices on the
    untouched coordinates has nb = nb_t + u - j, so d_max = t_max + u and
    its shift d_max - nb is t_max - nb_t + j; binom(u, j) 2^j classes
    share t and j.  The orbit of a class is the orbit of t under the
    part's automorphisms (canon.class_orbit_leaders) times its j, and all
    classes of such a group share a shift and give equivalent children.
    So the step builds one child per group, weighted by the group's
    class count times the one class's share; Series are in lowest terms,
    so that product equals the sum of the per-class weights a merge would
    form.  The child is built from the group's first class in walk order,
    which lists ZERO, ONE, FRESH per coordinate: for one t that class has
    ZERO on the first j untouched coordinates and FRESH after, and since
    two patterns with the same j agree off the touched coordinates, the
    first over the orbit is the one of its first pattern.  The groups go
    out in walk order of their first classes, so every key keeps the
    representative and position a class-by-class step gives it.  Terminal
    records carry the full packing's key and automorphism order.

    The limit census's cheap relabeling, whose match reuses an earlier
    child's state, is left out here.  Touched parts recur across
    dimensions and hit canon's cache: n = 1..6 at order 4 search 98 parts
    for 364 keys.  A prototype of the skip on the touched parts took
    cube_expansion(5, 6) from 4.8 to 4.1 s but those six expansions from
    0.050 to 0.059 s (2-core VM).

    Args:
        n: dimension.
        order: highest power of 1/(N-1) wanted.
        allow_large: lift the default order <= 4 and n <= 10 guards.
        return_records: also return the terminal CensusRecord list with
            Series probabilities.

    Returns:
        Series of length order + 1, or (Series, records).

    Raises:
        ValueError: if n or order is negative.
        ResourceGuardError: if order > 4 or n > 10 without allow_large.
    """
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if order < 0:
        raise ValueError(f"expansion order must be >= 0, got {order}")
    if order > 4 and not allow_large:
        raise ResourceGuardError(f"expansion order {order} needs the long flag")
    # kept, though no longer a cost bound: a step lists touched patterns
    # only, and at order 4 every n from 6 to 30 takes 0.04-0.06 s (2-core VM)
    if n > 10 and not allow_large:
        raise ResourceGuardError(f"expansion in dimension {n} exceeds the "
                                 f"default limit 10")

    def children(state, prob):
        groups = _expansion_groups(state, order - prob.valuation)
        if not groups:
            return []
        den = [0] * (order + 1)
        for _, shift, count in groups:
            den[shift] += count
        step = prob * Series(den, order).inverse()
        rep = state[0]
        return [(_expansion_state(
                    add_cube(rep, class_representative(rep, first))),
                 step.shift(shift) * count)
                for first, shift, count in groups]

    zero = Series((0,) * (order + 1), order)
    one = Series((1,) + (0,) * order, order)
    s0 = _expansion_state(empty_packing(CUBE, n))
    records = sweep((0, {_form_key(s0): [s0, one]}, {}), _form_key, children)
    total = sum((prob for _, prob in records.values()), zero)
    if total != one:
        raise AssertionError("expansion mass is not 1")
    series = sum((prob * state[0].m for state, prob in records.values()), zero)
    if not return_records:
        return series
    out = [_terminal_record(rep, canonical_key(rep), prob)
           for (rep, *_), prob in records.values()]
    out.sort(key=lambda r: (r.prob.valuation, r.m, r.key.bytes))
    return series, out


def interpolate_Ck(order, dims, expansions=None, allow_large=False):
    """Coefficient polynomials of the expansion as functions of dimension.

    Args:
        order: highest coefficient index.
        dims: dimensions to run (or look up) expansions for; needs at least
            order + 2 distinct values so every fit is checked on a spare
            point.
        expansions: optional {n: Series} to reuse precomputed runs; a
            series of a higher order is truncated, which is exact.
        allow_large: lift cube_expansion's order guard.

    Returns:
        List of order + 1 Polynomials in the dimension; coefficient k is
        fitted with degree k and verified on the remaining dimensions.

    Raises:
        ValueError: if fewer than order + 2 dimensions are given, or a
            precomputed series has an order below order.
    """
    dims = sorted(set(dims))
    if len(dims) < order + 2:
        raise ValueError("need at least order + 2 distinct dimensions")
    if expansions is None:
        expansions = {}
    for n in dims:
        got = expansions.get(n)
        if got is not None and got.order < order:
            raise ValueError(f"the expansion given for dimension {n} has "
                             f"order {got.order}, below order {order}")
    series = {}
    # largest first, so that a dimension guard refuses before any run
    for n in reversed(dims):
        got = expansions.get(n)
        if got is None:
            got = cube_expansion(n, order, allow_large=allow_large)
        series[n] = got
    polys = []
    for k in range(order + 1):
        points = [(n, series[n].coeffs[k]) for n in dims]
        polys.append(interpolate(points, k))
    return polys
