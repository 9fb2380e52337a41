"""Exact enumeration on finite grids.

A discrete packing at resolution N anchors its cubes on the (1/N)-grid;
states are kept canonical under the grid symmetries (coordinate
permutations, per-coordinate translations on the torus, reflections).  The
census classes are one step coarser: terminal states merge when a cube
bijection preserves each pair's number of blocking coordinates, the
classification calibrated against the published half-step counts.  The
census runs the sweep engine it shares with the limit census and the cube
expansion (census.sweep), with grid states as keys.  The heavy steps
(canonical forms, the minimal-maximal-packing search) are the kernels in
backend.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product as iproduct

import numpy as np

from . import backend
from .canon import CanonicalKey
from .census import CensusRecord, sweep
from .model import TORUS, ResourceGuardError, grid_overlaps, phi_grid


def grid_positions(n, N, space):
    axis = range(2 * N) if space == TORUS else range(N + 1)
    return [tuple(v) for v in iproduct(axis, repeat=n)]


def _ball_masks(positions, n, N, space):
    index = {p: i for i, p in enumerate(positions)}
    masks = []
    if space == TORUS:
        offsets = [d for d in iproduct(range(2 * N), repeat=n)
                   if all(x != N for x in d)]
        for p in positions:
            mask = 0
            for d in offsets:
                q = tuple((x + y) % (2 * N) for x, y in zip(p, d))
                mask |= 1 << index[q]
            masks.append(mask)
    else:
        for p in positions:
            mask = 0
            for q in positions:
                if grid_overlaps(p, q, N, space):
                    mask |= 1 << index[q]
            masks.append(mask)
    return masks


def symmetry_group(n, N, space):
    """All grid symmetries as position-index permutation rows.

    Torus: coordinate permutations x per-coordinate translation and sign.
    Cube space: coordinate permutations x per-coordinate reflection.
    """
    positions = np.array(grid_positions(n, N, space), dtype=np.int64)
    npos = positions.shape[0]
    base = 2 * N if space == TORUS else N + 1
    weights = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = []
    if space == TORUS:
        percoord = [(s, t) for s in (1, -1) for t in range(2 * N)]
        combos = iproduct(percoord, repeat=n)
    else:
        combos = iproduct([(1, 0), (-1, N)], repeat=n)
    combos = list(combos)
    for sigma in permutations(range(n)):
        perm = positions[:, sigma]
        for combo in combos:
            out = np.empty_like(perm)
            for j, (s, t) in enumerate(combo):
                if space == TORUS:
                    out[:, j] = (s * perm[:, j] + t) % (2 * N)
                else:
                    out[:, j] = s * perm[:, j] + t
            rows.append(out @ weights)
    group = np.unique(np.array(rows, dtype=np.int64), axis=0)
    assert group.shape[1] == npos
    return group


def blocking_counts(anchors, N, space):
    """Pairwise numbers of blocking coordinates for grid-anchored cubes."""
    m = len(anchors)
    counts = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            if space == TORUS:
                c = sum((x - y) % (2 * N) == N
                        for x, y in zip(anchors[a], anchors[b]))
            else:
                c = sum({x, y} == {0, N}
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
    npos = (2 * N) ** n if space == TORUS else (N + 1) ** n
    if npos > 64 and not allow_large:
        raise ResourceGuardError(f"finite grid with {npos} positions")
    positions = grid_positions(n, N, space)
    balls = _ball_masks(positions, n, N, space)
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
        if key.bytes in classes:
            rec = classes[key.bytes]
            if rec.m != len(state) or rec.nparams != rep.nparams:
                raise AssertionError("blocking classes merged unequal shapes")
            classes[key.bytes] = CensusRecord(
                key=rec.key, rep=rec.rep, m=rec.m, nparams=rec.nparams,
                prob=rec.prob + prob, extensible=rec.extensible, aut=rec.aut,
            )
            continue
        classes[key.bytes] = CensusRecord(
            key=key,
            rep=rep,
            m=len(state),
            nparams=rep.nparams,
            prob=prob,
            extensible=False,
            aut=backend.stabilizer_order(group, state),
        )
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
    balls = _ball_masks(positions, n, N, TORUS)
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
