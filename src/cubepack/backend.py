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
# previous ones, and maximal iff the coverage is full.  An uncovered
# position u can only be covered by a cube from its candidate set
# balls[u] & uncovered: such a cube overlaps u and is itself uncovered, so
# it can still be placed.
#
# Bound: positions whose candidate sets are pairwise disjoint each need a
# cube of their own.  They are picked greedily in index order, and a node
# returns as soon as depth + picked exceeds the limit.
#
# Branching: every maximal packing that extends the chosen cubes overlaps
# each uncovered position with a cube from its candidate set.  Branching
# over the candidates of any one uncovered position therefore still
# reaches every completion; the search takes the position with the fewest
# candidates, the lowest index on ties, so the tree is narrow and the
# result deterministic.


def search_min_maximal(balls, npos, limit):
    """Depth-first search for a maximal set of at most limit cubes.

    The first cube sits at position 0, which loses nothing under the
    translation symmetry of the torus grid.

    Returns the chosen position list or None.
    """
    full = (1 << npos) - 1
    chosen = [0]
    found = None

    def rec(covered, depth):
        nonlocal found
        if covered == full:
            found = list(chosen)
            return
        uncovered = full & ~covered
        picked = 0
        taken = 0
        best = None
        best_count = npos + 1
        rest = uncovered
        while rest:
            low = rest & -rest
            rest ^= low
            cands = balls[low.bit_length() - 1] & uncovered
            if not cands & taken:
                taken |= cands
                picked += 1
                if depth + picked > limit:
                    return
            count = cands.bit_count()
            if count < best_count:
                best, best_count = cands, count
        while best:
            low = best & -best
            best ^= low
            v = low.bit_length() - 1
            chosen.append(v)
            rec(covered | balls[v], depth + 1)
            chosen.pop()
            if found is not None:
                return

    rec(balls[0], 1)
    return found
