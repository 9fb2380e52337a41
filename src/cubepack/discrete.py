"""Exact enumeration on finite grids.

A discrete packing at resolution N anchors its cubes on the (1/N)-grid.
One per-coordinate rule, model.grid_blocks, decides blocking everywhere
here: overlap balls, pairwise blocking counts and disjointness checks.
States are kept canonical under the grid symmetries, x -> (s*x + t) mod
|axis| per coordinate after a coordinate permutation.  The census classes
are one step coarser: terminal states merge when a cube bijection
preserves each pair's number of blocking coordinates, the classification
calibrated against the published half-step counts.  The census runs the
sweep engine it shares with the limit census and the cube expansion
(census.sweep), with grid states as keys.  The heavy steps (canonical
forms, the minimal-maximal-packing search) are the kernels in backend.
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


def symmetry_group(n, N, space):
    """All grid symmetries as position-index permutation rows.

    Each maps x to (s*x + t) mod |axis| in every coordinate after a
    coordinate permutation.  Torus: any sign s and translation t.  Cube
    space: the identity and the reflection (s, t) = (-1, N).
    """
    positions = np.array(grid_positions(n, N, space), dtype=np.int64)
    size = len(_axis(N, space))
    weights = size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    if space == TORUS:
        percoord = [(s, t) for s in (1, -1) for t in range(size)]
    else:
        percoord = [(1, 0), (-1, N)]
    combos = [np.array(c, dtype=np.int64).reshape(n, 2)
              for c in iproduct(percoord, repeat=n)]
    rows = []
    for sigma in permutations(range(n)):
        perm = positions[:, sigma]
        for c in combos:
            rows.append((c[:, 0] * perm + c[:, 1]) % size @ weights)
    return np.unique(np.array(rows, dtype=np.int64), axis=0)


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


def _min_matrix_order(counts):
    # lexicographically minimal lower-triangular reading over all
    # simultaneous row/column permutations; ties are kept so the result
    # is canonical
    m = len(counts)
    partials = [()]
    for _ in range(m):
        best = None
        nxt = []
        for order in partials:
            used = set(order)
            for v in range(m):
                if v in used:
                    continue
                row = tuple(counts[v][u] for u in order)
                if best is None or row < best:
                    best = row
                    nxt = [order + (v,)]
                elif row == best:
                    nxt.append(order + (v,))
        partials = nxt
    return partials[0]


def blocking_class_key(anchors, n, N, space):
    """Class key for a terminal discrete packing.

    Two packings fall in the same class when some cube bijection
    preserves, for every cube pair, the number of blocking coordinates.
    This is the coarsening calibrated to reproduce the published
    half-step class counts; grid-symmetric packings always agree on it.
    """
    counts = blocking_counts(anchors, N, space)
    order = _min_matrix_order(counts)
    m = len(anchors)
    data = bytes(counts[order[i]][order[j]]
                 for i in range(m) for j in range(i))
    return CanonicalKey(
        bytes=f"finite|{space}|{n}|{N}|{m}|".encode() + data.hex().encode()
    )


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
            child = backend.canonical_state(group, tuple(sorted(state + (v,))))
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


def min_maximal_packing(n, N, allow_large=False):
    """Smallest maximal grid packing: exhaustive cover search with witness.

    Iterative deepening over the size limit.  At each limit
    backend.search_min_maximal branches on the uncovered position with the
    fewest candidate cubes and prunes a node once more positions with
    pairwise disjoint candidate sets remain than cubes; neither rule loses
    a completion, so every size below the answer is exhausted, the returned
    size is a proof, and the witness is re-verified directly.

    Returns:
        (size, witness) with witness a list of anchor tuples.
    """
    _check_grid(n, N)
    if N != 2:
        raise ValueError("the search is specific to the half-step grid")
    npos = (2 * N) ** n
    if npos > 256 and not allow_large:
        raise ResourceGuardError(f"cover search over {npos} positions")
    positions = grid_positions(n, N, TORUS)
    balls = _ball_masks(positions, N, TORUS)
    for limit in range(1, 2 ** n + 1):
        found = backend.search_min_maximal(balls, npos, limit)
        if found is None:
            continue
        witness = [positions[i] for i in found]
        _check_maximal(witness, found, balls, npos, n, N)
        return len(found), witness
    raise AssertionError("no maximal packing found below the grid size")


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
