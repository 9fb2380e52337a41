"""Exact enumeration on finite grids.

A discrete packing at resolution N anchors its cubes on the (1/N)-grid.
One per-coordinate rule, model.grid_blocks, decides blocking everywhere
here: overlap balls, pairwise blocking counts and disjointness checks.
States are kept canonical under the grid symmetries, x -> (s*x + t) mod
|axis| per coordinate after a coordinate permutation.  The census classes
are one step coarser: terminal states merge when a cube bijection
preserves each pair's number of blocking coordinates, the classification
calibrated against the published half-step counts.  The class key is the
least reading of the blocking-count matrix over all cube orders; its tie
search tries one cube per twin class at each step, twins being cubes
whose transposition leaves the matrix unchanged.  The census runs the
sweep engine it shares with the limit census and the cube expansion
(census.sweep), with grid states as keys.  The heavy steps are the
kernels in backend, and both use the symmetry group: a canonical form
sorts only the group rows that send one of the state's anchors to the
smallest orbit minimum among them, and the minimal-maximal-packing search
skips every candidate in the orbit of a failed one, at its first two
levels.  The group's rows come from one array broadcast per coordinate
permutation.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product as iproduct

import numpy as np

from . import backend
from .canon import CanonicalKey
from .census import CensusRecord, sweep
from .model import (
    TORUS,
    ResourceGuardError,
    grid_blocks,
    grid_overlaps,
    phi_grid,
)


def _axis(N, space):
    """The grid indices of one coordinate: mod 2N on the torus, 0..N in
    the cube."""
    return range(2 * N) if space == TORUS else range(N + 1)


def grid_positions(n, N, space):
    return [tuple(v) for v in iproduct(_axis(N, space), repeat=n)]


def _ball_masks(positions, N, space):
    """Per position, the bit mask of the positions whose cubes overlap its
    cube: the product of the axis values its coordinates do not block."""
    axis = _axis(N, space)
    index = {p: i for i, p in enumerate(positions)}
    masks = []
    for p in positions:
        free = [[y for y in axis if not grid_blocks(x, y, N, space)]
                for x in p]
        mask = 0
        for q in iproduct(*free):
            mask |= 1 << index[q]
        masks.append(mask)
    return masks


def _grid_maps(n, size, percoord, perms):
    """Position-index rows of the maps x -> (s*x + t) mod size, with (s, t)
    drawn from percoord in every coordinate, after each coordinate
    permutation in perms.

    Each permutation's rows for all (s, t) combinations come from one
    broadcast, in the order of the combinations, permutation after
    permutation; it runs in int16 whenever that holds every position index.
    """
    dtype = np.int16 if size ** n <= 1 << 15 else np.int64
    positions = np.array(list(iproduct(range(size), repeat=n)), dtype)
    weights = size ** np.arange(n - 1, -1, -1, dtype=dtype)
    combos = list(iproduct(percoord, repeat=n))
    combos = np.array(combos, dtype).reshape(len(combos), 1, n, 2)
    signs, shifts = combos[..., 0], combos[..., 1]
    return np.concatenate([(signs * positions[:, list(sigma)] + shifts)
                           % size @ weights for sigma in perms])


def symmetry_group(n, N, space):
    """All grid symmetries as position-index permutation rows.

    Each maps x to (s*x + t) mod |axis| in every coordinate after a
    coordinate permutation.  Torus: any sign s and translation t.  Cube
    space: the identity and the reflection (s, t) = (-1, N).  The rows are
    distinct and in lexicographic order, deduplicated by a lexsort rather
    than np.unique(axis=0), which imports numpy.ma on first use.
    """
    size = len(_axis(N, space))
    if space == TORUS:
        percoord = [(s, t) for s in (1, -1) for t in range(size)]
    else:
        percoord = [(1, 0), (-1, N)]
    rows = _grid_maps(n, size, percoord, permutations(range(n)))
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[fresh].astype(np.int64)


def blocking_counts(anchors, N, space):
    """Pairwise numbers of blocking coordinates for grid-anchored cubes."""
    m = len(anchors)
    counts = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            c = sum(grid_blocks(x, y, N, space)
                    for x, y in zip(anchors[a], anchors[b]))
            counts[a][b] = counts[b][a] = c
    return counts


def _twin_classes(counts):
    """The twin classes of a symmetric matrix, each in index order and
    ordered by lowest member: a and b are twins when counts[a][x] ==
    counts[b][x] for every x outside {a, b}.  Twinship is an equivalence
    relation (_min_reading), so a cube is compared with class roots only."""
    m = len(counts)
    classes = []
    for v in range(m):
        for cls in classes:
            r = cls[0]
            if all(counts[v][x] == counts[r][x]
                   for x in range(m) if x != v and x != r):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def _min_reading(counts):
    """The lexicographically least lower-triangular reading of a symmetric
    matrix with zero diagonal over all simultaneous row and column
    permutations: the rows counts[o_i][o_j], j < i, of an order o,
    concatenated.

    The search runs breadth first and keeps every tied prefix, but extends
    a prefix by one cube per twin class only, the lowest-index unused
    member.  The matrix is symmetric, so the transposition (a b) of twins
    a and b preserves it.  Twinship is an equivalence relation: if a ~ b
    and b ~ c, then counts[a][x] == counts[c][x] for x outside {a, b, c}
    through b, and counts[a][b] == counts[c][a] == counts[b][c] ==
    counts[c][b] by b ~ c, a ~ b and symmetry.  So every order has an
    image, under the product of the symmetric groups on the classes, that
    places each class in index order and has the same reading.  The
    prefixes this rule generates are exactly those of such restricted
    orders, and each of them extends to one, so the tie search returns the
    least reading over all orders.
    """
    classes = _twin_classes(counts)
    partials = [()]
    reading = []
    for _ in counts:
        best = None
        nxt = []
        for order in partials:
            for cls in classes:
                v = next((u for u in cls if u not in order), None)
                if v is None:
                    continue
                row = [counts[v][u] for u in order]
                if best is None or row < best:
                    best = row
                    nxt = [order + (v,)]
                elif row == best:
                    nxt.append(order + (v,))
        reading += best
        partials = nxt
    return reading


def blocking_class_key(anchors, n, N, space):
    """Class key for a terminal discrete packing.

    Two packings fall in the same class when some cube bijection
    preserves, for every cube pair, the number of blocking coordinates.
    This is the coarsening calibrated to reproduce the published
    half-step class counts; grid-symmetric packings always agree on it.
    """
    data = bytes(_min_reading(blocking_counts(anchors, N, space)))
    m = len(anchors)
    return CanonicalKey(
        f"finite|{space}|{n}|{N}|{m}|".encode() + data.hex().encode(), None)


def _check_grid(n, N):
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if N < 1:
        raise ValueError(f"grid resolution N must be >= 1, got {N}")


def finite_census(n, N, space=TORUS, allow_large=False):
    """Census of terminal discrete packings with exact probabilities.

    Returns:
        List of CensusRecord sorted by descending probability; rep is the
        combinatorial type of a class representative and aut the order of
        its discrete stabilizer.
    """
    _check_grid(n, N)
    npos = len(_axis(N, space)) ** n
    if npos > 64 and not allow_large:
        raise ResourceGuardError(f"finite grid with {npos} positions")
    positions = grid_positions(n, N, space)
    balls = _ball_masks(positions, N, space)
    group = symmetry_group(n, N, space)
    anchored = backend.anchor_rows(group)
    full = (1 << npos) - 1

    def children(state, prob):
        covered = 0
        for i in state:
            covered |= balls[i]
        addable = full & ~covered
        if addable == 0:
            return []
        share = Fraction(1, addable.bit_count())
        out = []
        while addable:
            v = (addable & -addable).bit_length() - 1
            addable &= addable - 1
            child = backend.canonical_state(group, anchored,
                                            tuple(sorted(state + (v,))))
            out.append((child, prob * share))
        return out

    records = sweep((0, {(): [(), Fraction(1)]}, {}), lambda s: s, children)
    classes = {}
    for state, (_, prob) in sorted(records.items()):
        anchors = [positions[i] for i in state]
        key = blocking_class_key(anchors, n, N, space)
        rep = phi_grid(anchors, N, space)
        rec = classes.get(key.bytes)
        if rec is None:
            classes[key.bytes] = CensusRecord(
                key=key, rep=rep, prob=prob,
                aut=backend.stabilizer_order(group, state),
            )
        elif rec.m != rep.m or rec.nparams != rep.nparams:
            raise AssertionError("blocking classes merged unequal shapes")
        else:
            classes[key.bytes] = replace(rec, prob=rec.prob + prob)
    out = sorted(classes.values(), key=lambda r: (-r.prob, r.m, r.key.bytes))
    total = sum(r.prob for r in out)
    if total != 1:
        raise AssertionError(f"finite census mass {total} != 1")
    return out


def min_maximal_packing(n, N):
    """Smallest maximal grid packing: exhaustive cover search with witness.

    Iterative deepening over the size limit.  At each limit
    backend.search_min_maximal branches on the uncovered position with the
    fewest candidate cubes and prunes a node once more positions with
    pairwise disjoint candidate sets remain than cubes; neither rule loses
    a completion, so every size below the answer is exhausted, the returned
    size is a proof, and the witness is re-verified directly.

    The search also skips a candidate once another in its orbit under the
    setwise stabilizer of the chosen cubes has failed, at depths 1 and 2.
    The stabilizer of position 0 is the signed coordinate permutations
    x -> s*x; that of {0, v} is K ∪ r_v∘K, with K the rows fixing v and
    r_v: x -> v - x.  A symmetry g keeping the chosen set maps the maximal
    packings containing it and w onto those containing it and g(w), so a
    skipped candidate would have failed as well, and the size and the
    witness are those of the search without the cut.  Deeper levels would
    need the symmetries moving 0 onto every chosen cube; at n = 4 a cut at
    depth 3 gains 5 ms for them and deeper cuts lose time (backend's
    comment on the search has the measurements).

    Returns:
        (size, witness) with witness a list of anchor tuples.
    """
    _check_grid(n, N)
    if N != 2:
        raise ValueError("the search is specific to the half-step grid")
    npos = (2 * N) ** n
    if npos > 256:
        raise ResourceGuardError(f"cover search over {npos} positions")
    positions = grid_positions(n, N, TORUS)
    balls = _ball_masks(positions, N, TORUS)
    fixers, flips = _search_symmetries(n, N)
    for limit in range(1, 2 ** n + 1):
        found = backend.search_min_maximal(balls, npos, limit, fixers, flips)
        if found is None:
            continue
        witness = [positions[i] for i in found]
        _check_maximal(witness, found, balls, npos, n, N)
        return len(found), witness
    raise AssertionError("no maximal packing found below the grid size")


def _search_symmetries(n, N):
    """The cover search's symmetry input on the torus grid: the signed
    coordinate permutations x -> s*x, which are the symmetries fixing
    position 0, and per position v the flip x -> v - x, as rows in the
    smallest unsigned dtype that holds a position index."""
    size = 2 * N
    dtype = np.min_scalar_type(size ** n - 1)
    fixers = _grid_maps(n, size, [(1, 0), (-1, 0)], permutations(range(n)))
    flips = _grid_maps(n, size, [(-1, t) for t in range(size)], [range(n)])
    return fixers.astype(dtype), flips.astype(dtype)


def _check_maximal(witness, found, balls, npos, n, N):
    for i, a in enumerate(witness):
        for b in witness[i + 1:]:
            if grid_overlaps(a, b, N, TORUS):
                raise AssertionError("witness cubes overlap")
    covered = 0
    for i in found:
        covered |= balls[i]
    if covered != (1 << npos) - 1:
        raise AssertionError("witness is not maximal")
