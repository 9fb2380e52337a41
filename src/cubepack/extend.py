"""Enumeration of the ways a packing can grow by one cube.

An extension class fixes, per coordinate, either an existing literal (torus),
a boundary value (cube space), or a fresh parameter; it stands for all
discrete cubes with that blocking pattern.  Class sizes count the discrete
realizations at grid resolution N.  The step rules built on them live with
their callers: census draws uniformly over the classes with the most fresh
parameters (the limit), montecarlo in proportion to class size (finite N).
"""

from dataclasses import dataclass

from .model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    coordinate_params,
    literal,
    opposite,
    param_of,
)

# Pattern code for a coordinate left fresh; sorts after every literal code.
FRESH = "*"


@dataclass(frozen=True)
class ExtensionClass:
    """One combinatorial way of adding a cube; nb counts fresh coordinates."""

    coords: tuple
    nb: int


def _candidates_per_coordinate(p):
    """Candidate codes per coordinate, literals first, FRESH last."""
    if p.space == TORUS:
        cands = [[] for _ in range(p.dim)]
        seen = [set() for _ in range(p.dim)]
        for cube in p.cubes:
            for j, code in enumerate(cube):
                q = param_of(code)
                if q not in seen[j]:
                    seen[j].add(q)
                    cands[j].append(literal(q, 0))
                    cands[j].append(literal(q, 1))
        for j in range(p.dim):
            cands[j].sort()
            cands[j].append(FRESH)
        return cands
    return [[ZERO, ONE, FRESH] for _ in range(p.dim)]


def _blocked_masks(p, cands):
    """For each coordinate and candidate, the bitmask of cubes it blocks."""
    masks = []
    for j, col in enumerate(cands):
        row = {}
        for cand in col:
            mask = 0
            if cand != FRESH:
                want = opposite(cand)
                for i, cube in enumerate(p.cubes):
                    if cube[j] == want:
                        mask |= 1 << i
            row[cand] = mask
        masks.append(row)
    return masks


def enumerate_extension_classes(p):
    """All classes of cubes non-overlapping with every cube of the packing.

    The candidate masks of one coordinate are pairwise disjoint: a cube
    holds one code per coordinate, a literal blocks only the cubes holding
    its opposite, and FRESH blocks none.  So the walk closes each class at
    the last coordinate without trying its candidates: when every cube is
    already blocked all of them complete it, otherwise only the candidate
    owning the lowest unblocked cube can, and it must block the rest too.

    Returns:
        Tuple of ExtensionClass in deterministic lexicographic order
        (literal codes ascending, FRESH after literals).  Empty when the
        packing is non-extensible.
    """
    if p.dim == 0:
        return () if p.cubes else (ExtensionClass((), 0),)
    cands = _candidates_per_coordinate(p)
    masks = _blocked_masks(p, cands)
    full = (1 << len(p.cubes)) - 1
    last = p.dim - 1
    tail, tail_masks = cands[last], masks[last]
    owner = {}
    for cand in tail:
        mask = tail_masks[cand]
        while mask:
            low = mask & -mask
            owner[low] = cand
            mask ^= low
    out = []
    chosen = [None] * last

    def walk(j, blocked, nb):
        if j == last:
            if blocked == full:
                head = tuple(chosen)
                for cand in tail:
                    out.append(ExtensionClass(head + (cand,), nb + (cand == FRESH)))
                return
            rest = full ^ blocked
            cand = owner.get(rest & -rest)
            if cand is not None and blocked | tail_masks[cand] == full:
                out.append(ExtensionClass(tuple(chosen) + (cand,), nb))
            return
        for cand in cands[j]:
            chosen[j] = cand
            walk(j + 1, blocked | masks[j][cand], nb + (cand == FRESH))

    walk(0, 0, 0)
    return tuple(out)


def class_sizes(p, classes, N):
    """Number of discrete realizations of each class at resolution N.

    Torus: product over fresh coordinates j of (2N - 2 N_j), where N_j
    counts the parameters coordinate j owns; cube space: (N-1)^nb.  Sizes
    may be zero when the grid is too coarse.  Returns a tuple in the order
    of `classes`.
    """
    if p.space == CUBE:
        base = max(0, N - 1)
        return tuple(base ** c.nb for c in classes)
    free = [max(0, 2 * N - 2 * len(s)) for s in coordinate_params(p)]
    sizes = []
    for c in classes:
        size = 1
        for f, cand in zip(free, c.coords):
            if cand == FRESH:
                size *= f
        sizes.append(size)
    return tuple(sizes)


def _min_covers(p, ties):
    """Minimum blocking covers: a class of maximal nb blocks every cube
    through the fewest non-fresh coordinates.

    An unblocked cube is blocked by no chosen literal, so only an unused
    coordinate can block it: the used ones are a bitmask, with no
    consistency check.  Fail-first: branch on the unblocked cube with the
    fewest options.  With ties every cover of the best size is kept;
    without, each cover found limits the walk to strictly smaller ones.

    Returns:
        (k, covers): the fewest coordinates blocking every cube (p.dim + 1
        when none do) and, with ties, the class vectors of that size in
        the order of enumerate_extension_classes.
    """
    m = len(p.cubes)
    cands = _candidates_per_coordinate(p)
    masks = _blocked_masks(p, cands)
    options = [
        [(j, cand, mask) for j, row in enumerate(masks)
         for cand, mask in row.items() if mask >> i & 1]
        for i in range(m)
    ]
    full = (1 << m) - 1
    best = p.dim + 1
    covers = set()
    chosen = [FRESH] * p.dim

    def walk(blocked, used, k):
        nonlocal best, covers
        if blocked == full:
            if k < best:
                best, covers = k, set()
            if ties:
                covers.add(tuple(chosen))
            return
        if k + 1 >= best + ties:
            return
        pick = None
        for i in range(m):
            if blocked >> i & 1:
                continue
            opts = [o for o in options[i] if not used >> o[0] & 1]
            if pick is None or len(opts) < len(pick):
                pick = opts
                if not opts:
                    return
        for j, cand, mask in pick:
            chosen[j] = cand
            walk(blocked | mask, used | 1 << j, k + 1)
            chosen[j] = FRESH

    walk(0, 0, 0)
    rank = [{cand: r for r, cand in enumerate(col)} for col in cands]
    return best, sorted(covers,
                        key=lambda vec: [r[c] for r, c in zip(rank, vec)])


def max_nb(p):
    """The largest fresh-parameter count over p's extension classes.

    None when p is non-extensible.  Counts only: after each cover it finds,
    the minimum-cover walk searches only for strictly smaller ones, so it
    lists no class.
    """
    k, _ = _min_covers(p, ties=False)
    return None if k > p.dim else p.dim - k


def max_nb_classes(p):
    """The extension classes attaining the maximal fresh-parameter count.

    A class has maximal nb exactly when its non-fresh coordinates form a
    minimum blocking cover; the fail-first cover walk (_min_covers) lists
    every cover of the minimum size, pruning branches that would exceed it.
    Sorted like enumerate_extension_classes; empty when p is
    non-extensible.
    """
    k, covers = _min_covers(p, ties=True)
    return tuple(ExtensionClass(vec, p.dim - k) for vec in covers)


def class_representative(p, c):
    """Concrete coordinate codes for a class, fresh slots get new parameters."""
    next_param = p.param_bound
    row = []
    for cand in c.coords:
        if cand == FRESH:
            row.append(literal(next_param, 0))
            next_param += 1
        else:
            row.append(cand)
    return tuple(row)
