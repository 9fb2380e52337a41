"""Discrete-grid kernels.

Canonical forms and stabilizers of anchor sets under the grid symmetry
group, on numpy, and the minimal-maximal-packing cover search, on Python
integers used as bitmasks.
"""

import numpy as np

# -- canonical form of a discrete anchor set under a permutation group ------


def canonical_state(group, positions):
    """Lexicographically smallest sorted image of positions under the group.

    Args:
        group: (ngroup, npos) int array; row g maps position p to group[g, p].
        positions: sorted tuple of distinct position indices.
    """
    if not positions:
        return ()
    rows = np.sort(group[:, list(positions)], axis=1)
    idx = np.lexsort(rows.T[::-1])
    return tuple(int(v) for v in rows[idx[0]])


def stabilizer_order(group, positions):
    """Number of group elements fixing the position set."""
    if not positions:
        return group.shape[0]
    rows = np.sort(group[:, list(positions)], axis=1)
    ref = np.asarray(sorted(positions))
    return int((rows == ref).all(axis=1).sum())


# -- minimal maximal packing search ------------------------------------------
#
# Positions are bitmask indices; balls[v] is the overlap ball of v as an int.
# A cube set S is a packing iff each placed v was not in the coverage of the
# previous ones, and maximal iff the coverage is full.  The search adds, at
# every step, a cube covering the first uncovered position, which visits
# every maximal packing up to translation.


def search_min_maximal(balls, npos, maxball, limit):
    """Depth-first search for a maximal set of at most limit cubes.

    Returns the chosen position list or None.
    """
    full = (1 << npos) - 1
    chosen = [0]
    found = None

    def rec(covered, depth):
        nonlocal found
        if found is not None:
            return
        if covered == full:
            found = list(chosen)
            return
        if depth == limit:
            return
        uncovered = full & ~covered
        need = (uncovered.bit_count() + maxball - 1) // maxball
        if depth + need > limit:
            return
        u = (uncovered & -uncovered).bit_length() - 1
        cands = balls[u] & ~covered
        while cands:
            v = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            chosen.append(v)
            rec(covered | balls[v], depth + 1)
            chosen.pop()
            if found is not None:
                return

    rec(balls[0], 1)
    return found
