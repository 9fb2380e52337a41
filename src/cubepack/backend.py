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
# Orbit cut: the subtree below a candidate w is searched completely, so w
# fails exactly when no maximal packing of at most limit cubes contains the
# chosen set C and w.  A ball symmetry g that maps C onto itself maps those
# packings onto the ones containing C and g(w), so once w fails, every
# candidate in its orbit under the setwise stabilizer of C fails too and is
# skipped.  Skipping a failure changes nothing, so the first success, its
# size and its witness are those of the search without the cut.
#
# At depth 1, C = {0} and the stabilizer is given as rows.  At depth 2,
# C = {0, v}: a symmetry keeping {0, v} either fixes both, and lies in K,
# the rows with g(v) = v, or swaps them, and then r_v∘g lies in K for a
# flip r_v that swaps 0 and v, on the grids x -> v - x; as r_v is its own
# inverse, the stabilizer is K ∪ r_v∘K.
#
# The cut stops at depth 2.  The stabilizer of a larger set also holds the
# symmetries that move 0 onto each of its other cubes, and building its
# orbits at every node soon costs more than the nodes it saves.  In a
# prototype on a 2-core VM, the whole deepening of min_maximal_packing(4, 2)
# visited 26,395, 9,458, 7,275, 3,642 and 2,987 nodes with the cut at the
# root only, to depth 2, 3, 4 and at every depth, in 0.084, 0.035, 0.030,
# 0.040 and 0.10 s: depth 3 would gain 5 ms for that extra code, and
# deeper cuts lose time.


def _orbit_labels(fixers, flips, chosen):
    """Per position, the least point of its orbit under the setwise
    stabilizer of chosen, which is [0] or [0, v]: positions with equal
    labels lie in one orbit."""
    if len(chosen) == 1:
        return fixers.min(axis=0).tolist()
    v = chosen[1]
    keep = fixers[fixers[:, v] == v]
    return np.minimum(keep.min(axis=0),
                      flips[v][keep].min(axis=0)).tolist()


def search_min_maximal(balls, npos, limit, fixers, flips):
    """Depth-first search for a maximal set of at most limit cubes.

    The first cube sits at position 0, which loses nothing under the
    translation symmetry of the torus grid.  fixers is a group of ball
    symmetries that fix position 0, as rows (row g maps p to fixers[g, p]);
    flips[v] is a ball symmetry that swaps 0 and v.  The identity in their
    place, such as the single row arange(npos) and npos copies of it, only
    cuts less.

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
        cut = depth <= 2
        labels = None
        dead = set()
        while best:
            low = best & -best
            best ^= low
            v = low.bit_length() - 1
            if labels is not None and labels[v] in dead:
                continue
            chosen.append(v)
            rec(covered | balls[v], depth + 1)
            chosen.pop()
            if found is not None:
                return
            if cut:
                if labels is None:
                    labels = _orbit_labels(fixers, flips, chosen)
                dead.add(labels[v])

    rec(balls[0], 1)
    return found
