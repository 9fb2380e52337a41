"""Discrete-grid kernels.

Canonical forms and stabilizers of anchor sets under the grid symmetry
group, on numpy, and the minimal-maximal-packing cover search, on Python
integers used as bitmasks.
"""

import numpy as np

# -- canonical form of a discrete anchor set under a permutation group ------


def anchor_rows(group):
    """Per position p, its orbit minimum and the indices of the rows that
    send p there, as (int, int array) pairs; canonical_state's index."""
    lows = group.min(axis=0)
    return [(int(low), np.flatnonzero(group[:, p] == low))
            for p, low in enumerate(lows)]


def canonical_state(group, anchored, positions):
    """Lexicographically smallest sorted image of positions under the group.

    The smallest image starts with its smallest element, which is r, the
    least orbit minimum over the positions.  A row whose image contains r
    sends some position a of the set to r, so a's orbit minimum is r and
    the row is one of anchored[a]; a row sends only one position to r, so
    these index lists are disjoint.  Only their rows are sorted: at most
    |set| times |stabilizer of r| rows instead of the whole group.

    Args:
        group: (ngroup, npos) int array; row g maps position p to group[g, p].
        anchored: anchor_rows(group).
        positions: sorted tuple of distinct position indices.
    """
    if not positions:
        return ()
    cols = list(positions)
    r = min(anchored[a][0] for a in cols)
    rows = np.concatenate([anchored[a][1] for a in cols
                           if anchored[a][0] == r])
    image = np.sort(group[rows[:, None], cols], axis=1)
    idx = np.lexsort(image.T[::-1])
    return tuple(int(v) for v in image[idx[0]])


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
#
# Root-orbit cut: at the root only cube 0 is placed, and the subtree below
# a root candidate v is searched completely, so v fails exactly when no
# maximal packing of at most limit cubes contains both 0 and v.  A grid
# symmetry g with g(0) = 0 maps those packings onto the ones containing 0
# and g(v), so every candidate in v's orbit under the stabilizer of 0
# fails too and is skipped.  Skipping a failure changes nothing, so the
# first success, and the witness below it, stay the same.  Deeper nodes
# would need the stabilizer of the whole chosen set, so the cut is made at
# the root only.


def search_min_maximal(balls, npos, limit, labels):
    """Depth-first search for a maximal set of at most limit cubes.

    The first cube sits at position 0, which loses nothing under the
    translation symmetry of the torus grid.  labels[v] names v's orbit
    under the symmetries that fix position 0 and preserve the balls:
    positions with equal labels must lie in one orbit (finer labels,
    such as range(npos), only cut less).

    Returns the chosen position list or None.
    """
    full = (1 << npos) - 1
    chosen = [0]
    found = None
    failed = set()

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
        root = depth == 1
        while best:
            low = best & -best
            best ^= low
            v = low.bit_length() - 1
            if root and labels[v] in failed:
                continue
            chosen.append(v)
            rec(covered | balls[v], depth + 1)
            chosen.pop()
            if found is not None:
                return
            if root:
                failed.add(labels[v])

    rec(balls[0], 1)
    return found
