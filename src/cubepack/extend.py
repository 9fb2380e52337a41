"""Enumeration of the ways a packing can grow by one cube.

An extension class fixes, per coordinate, either an existing literal (torus),
a boundary value (cube space), or a fresh parameter; it stands for all
discrete cubes with that blocking pattern.  Class sizes count the discrete
realizations at grid resolution N.  The step rules built on them live with
their callers: census draws uniformly over the classes with the most fresh
parameters (the limit), montecarlo in proportion to class size (finite N).
classes_after turns a packing's classes and their sizes into those of its
child by one class representative, without a walk.
"""

from itertools import compress, product, repeat
from math import inf, prod
from operator import eq
from typing import NamedTuple

from .model import CUBE, ONE, TORUS, ZERO, coordinate_params, literal

# Pattern code for a coordinate left fresh.  It compares greater than every
# literal code, so torus classes sort in walk order as plain tuples; the
# cube-space order ZERO, ONE, FRESH is not numeric (see census._WALK_RANK).
FRESH = inf


class ExtensionClass(NamedTuple):
    """One combinatorial way of adding a cube; nb counts fresh coordinates."""

    coords: tuple
    nb: int


def _blocking_masks(p):
    """Per coordinate, {candidate: bitmask of the cubes it blocks}.

    One pass over the cubes per coordinate gives each cube's bit to the
    opposite of its code, the one candidate there that blocks it.  The
    keys are in walk order: on the torus both literals of every parameter
    the coordinate holds, ascending; in the cube space ZERO and ONE (an
    interior parameter blocks nothing).  FRESH, which blocks nothing
    either, comes last.
    """
    torus = p.space == TORUS
    rows = []
    for j in range(p.dim):
        row = {} if torus else {ZERO: 0, ONE: 0}
        bit = 1
        for cube in p.cubes:
            code = cube[j]
            if torus:
                if code not in row:
                    row[code] = 0
                row[code ^ 1] = row.get(code ^ 1, 0) | bit
            elif code < 0:
                row[code ^ 1] |= bit
            bit <<= 1
        if torus:
            row = {code: row[code] for code in sorted(row)}
        row[FRESH] = 0
        rows.append(row)
    return rows


def _owners(row):
    """Each cube bit one coordinate blocks -> the candidate blocking it."""
    owner = {}
    for cand, mask in row.items():
        while mask:
            low = mask & -mask
            owner[low] = cand
            mask ^= low
    return owner


def enumerate_extension_classes(p):
    """All classes of cubes non-overlapping with every cube of the packing.

    The candidate masks of one coordinate are pairwise disjoint: a cube
    holds one code per coordinate, a literal blocks only the cubes holding
    its opposite, and FRESH blocks none.  So the walk closes each class at
    the last coordinate without trying its candidates: when every cube is
    already blocked all of them complete it, otherwise only the candidate
    owning the lowest unblocked cube can, and it must block the rest too.

    The same argument closes the last two coordinates, and the walk runs
    it before descending to the last-but-one, so a dead branch costs no
    call.  Let rest be the cubes the branch leaves unblocked, low the
    lowest of them, and P(c), T(c) the mask of the candidate blocking cube
    c at the last-but-one and the last coordinate (0 when none does).  A
    class exists below the branch iff rest is empty or
      1. r = rest - P(low) is empty or lies within T(lowest of r), or
      2. r = rest - T(low) is empty or lies within P(lowest of r).
    Each case names a closing pair: the owners it uses, completed by any
    candidate of the other coordinate (when P(low) is 0, case 1 asks rest
    within T(low), which any last-but-one candidate completes).
    Conversely, a closing pair blocks low.  If its last-but-one candidate
    does, that candidate is low's owner, mask P(low), so the last one
    blocks r and, r being nonempty, owns its lowest cube: case 1.
    Otherwise the last one does, and case 2 holds symmetrically.

    Returns:
        Tuple of ExtensionClass in deterministic lexicographic order, per
        coordinate the order of _blocking_masks: on the torus literal codes
        ascending, in the cube space ZERO (-1) then ONE (-2); FRESH last.
        Empty when the packing is non-extensible.
    """
    if p.dim == 0:
        return () if p.cubes else (ExtensionClass((), 0),)
    rows = _blocking_masks(p)
    full = (1 << len(p.cubes)) - 1
    last = p.dim - 1
    tail = rows[last]
    owner = _owners(tail)
    tail_of = {bit: tail[cand] for bit, cand in owner.items()}
    pen = rows[last - 1] if last else {}
    pen_of = {bit: pen[cand] for bit, cand in _owners(pen).items()}
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
            if cand is not None and blocked | tail[cand] == full:
                out.append(ExtensionClass(tuple(chosen) + (cand,), nb))
            return
        closing = j + 2 == last
        for cand, mask in rows[j].items():
            child = blocked | mask
            if closing and child != full:
                rest = full ^ child
                low = rest & -rest
                r = rest & ~pen_of.get(low, 0)
                if r & ~tail_of.get(r & -r, 0):
                    r = rest & ~tail_of.get(low, 0)
                    if r & ~pen_of.get(r & -r, 0):
                        continue
            chosen[j] = cand
            walk(j + 1, child, nb + (cand == FRESH))

    walk(0, 0, 0)
    return tuple(out)


def classes_after(p, classes, sizes, cube, N):
    """(classes, sizes) of add_cube(p, cube) at N, from p's.

    classes must be enumerate_extension_classes(p), sizes class_sizes(p,
    classes, N) and cube the class_representative of one of the classes.
    The result is the child's enumerate_extension_classes and their
    class_sizes at N, the same tuples in the same order, without a walk
    and without a second pass for the sizes.  A class blocks a cube iff at
    some coordinate it holds the opposite of the cube's code.

    Cube space: the candidates ZERO, ONE and FRESH do not depend on the
    packing, so the child's classes are the parent's that block the new
    cube, in the parent's order.

    Torus: the new cube brings parameters q >= p.param_bound at the
    coordinates where its class is fresh (the new coordinates), and with
    them the candidates t_q and t_q + 1.  Only the new cube holds q, so t_q
    blocks nothing and t_q + 1 blocks the new cube alone.  Replacing the
    new literals of a child class by FRESH therefore keeps every old cube
    blocked: it gives a parent class, fresh at each replaced coordinate.
    Conversely, at the new coordinates where a parent class is fresh (its
    split coordinates), any choice of FRESH, t_q or t_q + 1 keeps the old
    cubes blocked, and the result is a child class iff it blocks the new
    cube: by some t_q + 1 or by an old literal opposite the cube's.  A
    class with no split coordinate is kept as it is iff it blocks the new
    cube by an old literal.  Each new literal used lowers nb by one.
    Distinct choices give distinct classes, and sorting them as the walk
    lists them (codes ascending, FRESH last) restores its order; FRESH
    compares above every code, so plain tuple order does that.

    Sizes.  Cube space: every size is (N-1)^nb and the kept classes are
    unchanged, so each keeps its size.  Torus: a size is the product over
    the class's fresh coordinates j of f_j = max(0, 2N - 2 N_j), N_j the
    parameters j owns, counted in one pass over p.param_coord.  The child
    owns one more parameter at each new coordinate and the same ones
    elsewhere, so f_j stays at every other coordinate and becomes
    max(0, 2N - 2 (N_j + 1)) = max(0, f_j - 2) at a new one.  A class kept
    without a split is fresh at no new coordinate, so all its factors,
    and its size, are the parent's.  A split class's child keeps the
    parent's factors at its other fresh coordinates; at a split coordinate
    it has the factor max(0, f_j - 2) where it stays FRESH and none where
    it takes the literal t_q or t_q + 1.  The other factors are multiplied
    out, not divided out of the parent's size: f_j at a split coordinate
    can be 0.
    """
    opp = [code ^ 1 for code in cube]
    bound = 2 * p.param_bound
    new = [j for j, code in enumerate(cube) if code >= bound]
    if p.space == CUBE or not new:
        keep = [any(map(eq, c.coords, opp)) for c in classes]
        # via lists: a tuple built from an iterator can keep the slack of
        # its growth, and the sampler caches these
        return (tuple(list(compress(classes, keep))),
                tuple(list(compress(sizes, keep))))
    owned = [0] * p.dim
    for _, j in p.param_coord:
        owned[j] += 1
    free = [max(0, 2 * N - 2 * k) for k in owned]
    # a class matches probe iff it blocks by an old literal or is fresh
    # at a new coordinate; the others have no child.  stay holds the
    # factors the child keeps, 1 at the new coordinates.
    probe = opp[:]
    stay = free[:]
    for j in new:
        probe[j] = FRESH
        stay[j] = 1
    out, out_sizes = [], []
    for c, size in zip(classes, sizes):
        if not any(map(eq, c.coords, probe)):
            continue
        split = [j for j in new if c.coords[j] == FRESH]
        if not split:
            out.append(c)
            out_sizes.append(size)
            continue
        rest = prod(compress(stay, map(eq, c.coords, repeat(FRESH))))
        old = any(map(eq, c.coords, opp))
        blocks = [opp[j] for j in split]
        row = list(c.coords)
        for picks, factors in zip(
                product(*[(cube[j], opp[j], FRESH) for j in split]),
                product(*[(1, 1, max(0, free[j] - 2)) for j in split])):
            if old or any(map(eq, picks, blocks)):
                for j, x in zip(split, picks):
                    row[j] = x
                out.append(ExtensionClass(
                    tuple(row), c.nb - len(split) + picks.count(FRESH)))
                out_sizes.append(prod(factors, start=rest))
    # sorting indices, not (class, size) pairs, allocates no container
    # per class for the garbage collector to track
    order = sorted(range(len(out)), key=out.__getitem__)
    return (tuple([out[i] for i in order]),
            tuple([out_sizes[i] for i in order]))


def class_sizes(p, classes, N):
    """Number of discrete realizations of each class at resolution N.

    Torus: product over fresh coordinates j of max(0, 2N - 2 N_j), where
    N_j counts the parameters coordinate j owns; cube space: (N-1)^nb.
    Sizes may be zero when the grid is too coarse.  Returns a tuple in the
    order of `classes`.  classes_after carries sizes from a packing to its
    child; this sizes a packing's classes from scratch.
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


def max_nb(p):
    """The largest fresh-parameter count over p's extension classes.

    None when p is non-extensible.  A class of maximal nb blocks every cube
    through the fewest non-fresh coordinates, so this is p.dim minus the
    size of a minimum blocking cover.  The cover walk counts only: an
    unblocked cube is blocked by no chosen literal, so only an unused
    coordinate can block it, and the used ones are a bitmask with no
    consistency check.  Fail-first, it branches on the unblocked cube with
    the fewest options, and each cover it finds limits the walk to
    strictly smaller ones.
    """
    # A cube holds one code per coordinate, so at most one candidate per
    # coordinate blocks it.  Keyed by cube bit: the coordinate bits where a
    # candidate blocks the cube, and per coordinate bit that candidate's mask.
    options, blocker = {}, {}
    for j, row in enumerate(_blocking_masks(p)):
        for mask in row.values():
            rest = mask
            while rest:
                low = rest & -rest
                options[low] = options.get(low, 0) | 1 << j
                blocker.setdefault(low, {})[1 << j] = mask
                rest ^= low
    full = (1 << len(p.cubes)) - 1
    best = p.dim + 1

    def walk(blocked, used, k):
        nonlocal best
        if blocked == full:
            best = min(best, k)
            return
        if k + 1 >= best:
            return
        free = ~used
        pick, fewest = None, p.dim + 1
        rest = full ^ blocked
        while rest:
            low = rest & -rest
            count = (options.get(low, 0) & free).bit_count()
            if count < fewest:
                if not count:
                    return
                pick, fewest = low, count
            rest ^= low
        opts = options[pick] & free
        while opts:
            coord = opts & -opts
            walk(blocked | blocker[pick][coord], used | coord, k + 1)
            opts ^= coord

    walk(0, 0, 0)
    return None if best > p.dim else p.dim - best


def max_nb_classes(p):
    """The extension classes attaining the maximal fresh-parameter count.

    The classes of enumerate_extension_classes whose nb is the maximum, in
    its order; empty when p is non-extensible.
    """
    classes = enumerate_extension_classes(p)
    top = max((c.nb for c in classes), default=None)
    return tuple(c for c in classes if c.nb == top)


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
