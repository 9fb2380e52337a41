"""Canonical forms, equivalence, and automorphism orders for packings.

Packings are encoded as colored graphs whose automorphisms are exactly the
allowed relabelings (cube reorder, coordinate permutation, parameter
renaming with literal swap on the torus, 0/1 reflection in the cube case).
Canonical labeling is individualization-refinement with orbit pruning
(McKay, "Practical graph isomorphism", 1981).  Refinement queues only the
splitters that can split: at the root the colour classes encode does not
prove equitable, and after a split every part but the last (_refine).  A
node branches on its first largest non-singleton cell, looked for only
among its parent's non-singleton cells, which hold all of its own.  A
key holds the search's automorphism generators.  class_orbit_leaders maps
a packing's extension classes through the generators its caller passes,
so a sweep whose states carry their keys builds one child per orbit of
classes.  group_order computes the group order from them on each call, so
a caller that only compares keys never pays for it.  The order comes from
a sift-and-close stabilizer chain, which undercounts some groups (see
_PermGroup); the orbit map needs only that each generator is an
automorphism.  The chain converts each generator to intp once and keeps
the products it has still to sift as factor pairs, composing each when it
is popped, so its peak memory stays near that of a narrow-row chain.

Leaves of the search are compared by a certificate: the relabelled edges as
row-major slots a*nv+b (a < b), ascending and negated.  It orders leaves
exactly as the upper-triangle adjacency bitmap of the relabelled graph
does; the key's bytes are that bitmap, built once from the best leaf, and
are unchanged by the cheaper certificate.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .extend import FRESH
from .model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    ResourceGuardError,
    is_literal,
    literal,
    param_of,
    shift_of,
)

COLOR_CUBE = 0
COLOR_COORD = 1
COLOR_PARAM = 2
COLOR_LITERAL = 3
COLOR_CELL = 4
COLOR_BOUNDARY = 5

# The colour classes the root refinement queues, per space: encode's colour
# partition is equitable with respect to every other class (see encode).
TORUS_ROOT_SPLITTERS = (COLOR_CELL,)
CUBE_ROOT_SPLITTERS = (COLOR_LITERAL, COLOR_CELL, COLOR_BOUNDARY)

# Largest dimension the canonical form accepts: the search recurses once per
# individualized vertex, so far larger packings would exhaust the stack.  On
# the empty torus packing a canonical key takes 0.35-0.4 s at 24
# dimensions, 0.55 s at 28 and 0.85-0.9 s at 32, interpreter start
# included (2-core VM, the cap lifted past 24, three runs each).
CANON_MAX_DIM = 24


@dataclass(frozen=True)
class ColoredGraph:
    """Simple undirected loop-free graph with small-integer vertex colors."""

    colors: tuple
    adj: tuple


@dataclass(frozen=True)
class CanonicalKey:
    """Byte certificate; equal keys mean equivalent packings.

    gens, outside comparison and hashing, are the search's automorphism
    generators, a read-only array of one vertex permutation per row; None
    on a key no search built (discrete.blocking_class_key).
    """

    bytes: bytes
    gens: np.ndarray = field(compare=False, repr=False)

    def hex(self):
        return self.bytes.hex()


class _Layout:
    """Vertex numbering of a packing's graph, shared by encode and the
    class orbit map.

    Cubes come first (0..m-1), then coordinates, parameters, literals
    (both shifts of each parameter on the torus, one vertex per interior
    parameter in the cube case), in the cube case the per-coordinate
    boundary pairs 0_j/1_j, and last the (cube, coordinate) cells.
    """

    def __init__(self, p):
        m, n = p.m, p.dim
        self.params = [q for q, _ in p.param_coord]
        self.pindex = {q: i for i, q in enumerate(self.params)}
        npar = len(self.params)
        self.torus = p.space == TORUS
        self.coord_base = m
        self.param_base = m + n
        self.lit_base = self.param_base + npar
        self.bound_base = self.lit_base + (2 * npar if self.torus else npar)
        self.cell_base = self.bound_base + (0 if self.torus else 2 * n)

    def vertex(self, j, code):
        """The literal or boundary vertex of code at coordinate j."""
        if is_literal(code):
            i = self.pindex[param_of(code)]
            if self.torus:
                return self.lit_base + 2 * i + shift_of(code)
            return self.lit_base + i
        return self.bound_base + 2 * j + (code == ONE)

    def code(self, v):
        """The code a torus literal or a cube-space boundary vertex holds."""
        if v >= self.bound_base:
            return ONE if (v - self.bound_base) & 1 else ZERO
        i, s = divmod(v - self.lit_base, 2)
        return literal(self.params[i], s)


def encode(p):
    """Colored-graph encoding of a packing.

    Vertices as numbered by _Layout: one per cube, per coordinate, per
    parameter, per literal (both shifts of each parameter on the torus, a
    single vertex per interior parameter in the cube case, plus
    per-coordinate boundary pairs 0_j/1_j sharing one color), and one cell
    per (cube, coordinate) slot.  A cell is adjacent to its cube, its
    coordinate, and the literal it holds; literals attach to their
    parameter, boundary literals attach to their coordinate.

    The colour partition is equitable with respect to every colour class
    but those of TORUS_ROOT_SPLITTERS or CUBE_ROOT_SPLITTERS, so the root
    refinement queues only those.  Counting each vertex's neighbours in a
    class: every cell has one cube and one coordinate, and nothing else
    touches a cube or a coordinate vertex but (in the cube case) the two
    boundary vertices of each coordinate; every literal has one parameter,
    and nothing else touches a parameter but its literals.  So each vertex
    of a colour counts the same into the cube, the coordinate and the
    parameter classes.  On the torus every cell holds a literal, so each
    cell counts one literal, each parameter two (its two shifts), and every
    other vertex none.  What is left can split: how many cells hold a
    literal or boundary vertex, and in the cube case whether a cell holds
    a literal or a boundary vertex.
    """
    m, n = p.m, p.dim
    lay = _Layout(p)
    npar = len(lay.params)
    colors = [COLOR_CUBE] * m + [COLOR_COORD] * n + [COLOR_PARAM] * npar
    if lay.torus:
        colors += [COLOR_LITERAL] * (2 * npar)
    else:
        colors += [COLOR_LITERAL] * npar + [COLOR_BOUNDARY] * (2 * n)
    colors += [COLOR_CELL] * (m * n)
    adj = [set() for _ in range(lay.cell_base + m * n)]

    def link(u, v):
        adj[u].add(v)
        adj[v].add(u)

    for i in range(npar):
        if lay.torus:
            link(lay.param_base + i, lay.lit_base + 2 * i)
            link(lay.param_base + i, lay.lit_base + 2 * i + 1)
        else:
            link(lay.param_base + i, lay.lit_base + i)
    if not lay.torus:
        for j in range(n):
            link(lay.coord_base + j, lay.bound_base + 2 * j)
            link(lay.coord_base + j, lay.bound_base + 2 * j + 1)
    for i, cube in enumerate(p.cubes):
        for j, code in enumerate(cube):
            cell = lay.cell_base + i * n + j
            link(cell, i)
            link(cell, lay.coord_base + j)
            link(cell, lay.vertex(j, code))
    return ColoredGraph(tuple(colors), tuple(tuple(sorted(s)) for s in adj))


def _refine(adj, lab, cell_of, cell_end, work, cells):
    """Equitable refinement; splits order parts by neighbor count ascending.

    The partition is the vertex list lab with cells indexed by start
    position: v lies in the cell lab[cell_of[v]:cell_end[cell_of[v]]].
    Each splitter counts, per vertex, its neighbors in the splitter, and
    every cell holding a counted vertex is split by count, in ascending
    order of start.  A split rewrites only the cell it splits; its parts
    go in ascending count, each in label order, and every part but the
    last is queued as a splitter.  cells is the partition's number of
    cells; the number after refinement is returned.

    Precondition: each cell of the input partition is in work, or the
    partition is equitable with respect to it, or it is the rest of an
    individualization {v} | rest whose {v} is in work, in a partition
    equitable with respect to the cell {v} + rest.  The root refinement
    queues every colour class but those encode proves equitable, and the
    search individualizes in a refined, hence equitable, partition, so
    both calls meet it.  Two more preconditions serve the singleton
    shortcut below: each cell's segment of lab is ascending, and so is
    each row of adj.  encode sorts its rows, and _initial_partition, the
    search's {v} + rest and every split here write ascending segments.
    Under the first precondition the splits are exactly those of the
    plain rule (every part queued, and the input cells not in work queued
    after it), in its order, because every splitter it processes that is
    left out here splits nothing and queues nothing:
      - an input cell the partition is equitable with respect to stays
        so under refinement;
      - the last part Pk of a split of a cell C into P1..Pk.  When the
        plain rule dequeues Pk, the partition is equitable with respect
        to C, which was queued before its parts (or is, by induction,
        another skipped splitter, or an input cell with the property
        above), and to P1..P(k-1), queued ahead of Pk and processed.  So
        every vertex of a cell counts count(C) - sum count(Pi) into Pk,
        one value per cell.  The rest of an individualization is the
        case k = 2, P1 = {v}.  Skipping the largest part instead
        (Hopcroft's choice) would split the cells in another order, so
        the parts, and the keys, would change.

    The counts live in one list indexed by vertex, grouped by cell as they
    are made, and only the touched entries are reset after each splitter.
    Four shortcuts skip work whose outcome is known, so the splits are
    exactly those of the plain rule, in its order:
      - a singleton cell cannot split, so its vertices are not counted;
      - a cell whose every vertex is touched, all with one count, is a
        single part: it is skipped without reading lab;
      - a singleton splitter {w} counts 1 on each neighbor of w and 0
        elsewhere, the graph being simple (no loops, no repeated
        neighbors).  So a fully touched cell stays whole, and any other
        touched cell splits into its untouched vertices, then its touched
        ones, each in label order.  The touched ones are the cell's
        neighbors of w in the order adj[w] lists them, already ascending,
        so one pass over the cell collects the untouched ones;
      - once every cell is a singleton nothing can split, so the splitters
        still queued are dropped.
    """
    nv = len(lab)
    cnt = [0] * nv
    while work and cells < nv:
        splitter = work.popleft()
        single = len(splitter) == 1
        by_cell = {}
        for w in splitter:
            for u in adj[w]:
                start = cell_of[u]
                if cell_end[start] - start > 1:
                    c = cnt[u]
                    if not c:
                        members = by_cell.get(start)
                        if members is None:
                            by_cell[start] = [u]
                        else:
                            members.append(u)
                    cnt[u] = c + 1
        if not by_cell:
            continue
        for start in sorted(by_cell) if len(by_cell) > 1 else by_cell:
            members = by_cell[start]
            end = cell_end[start]
            if len(members) == end - start:
                if single:
                    continue
                c = cnt[members[0]]
                for u in members:
                    if cnt[u] != c:
                        break
                else:
                    continue
            cell = lab[start:end]
            if single:
                # cell and members are both ascending (the preconditions),
                # so members is the touched part in label order
                parts = ([u for u in cell if not cnt[u]], members)
            else:
                groups = {}
                for u in cell:
                    c = cnt[u]
                    part = groups.get(c)
                    if part is None:
                        groups[c] = [u]
                    else:
                        part.append(u)
                parts = [groups[c] for c in sorted(groups)]
            s = start
            for part in parts:
                e = s + len(part)
                lab[s:e] = part
                cell_end[s] = e
                if s != start:
                    for u in part:
                        cell_of[u] = s
                if e != end:
                    work.append(part)
                s = e
            cells += len(parts) - 1
        for members in by_cell.values():
            for u in members:
                cnt[u] = 0
    return cells


def _initial_partition(colors):
    """The colour classes in colour order, and the partition they form as
    _refine's (lab, cell_of, cell_end)."""
    groups = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    cells = [groups[c] for c in sorted(groups)]
    lab, cell_of, cell_end = [], [0] * len(colors), [0] * len(colors)
    for cell in cells:
        start = len(lab)
        lab += cell
        cell_end[start] = len(lab)
        for v in cell:
            cell_of[v] = start
    return cells, (lab, cell_of, cell_end)


class _Canonicalizer:
    """Individualization-refinement search over one colored graph."""

    def __init__(self, graph, root_colors):
        self.adj = graph.adj
        self.colors = graph.colors
        self.nv = len(graph.colors)
        edges = [
            (u, w) for u, nbrs in enumerate(graph.adj) for w in nbrs if u < w
        ]
        self.us = [u for u, _ in edges]
        self.ws = [w for _, w in edges]
        self.best_cert = None
        self.best_perm = None
        self.gens = []
        self.root_colors = root_colors

    def run(self):
        """Return (key bitmap, automorphism generators).

        The root refinement queues the colour classes of root_colors, in
        colour order; the colour partition must be equitable with respect
        to every other class.
        """
        cells, (lab, cell_of, cell_end) = _initial_partition(self.colors)
        work = deque(c for c in cells if self.colors[c[0]] in self.root_colors)
        ncells = _refine(self.adj, lab, cell_of, cell_end, work, len(cells))
        self._search(lab, cell_of, cell_end, ncells, ((0, self.nv),), (),
                     [], 0)
        return self._bitmap(self.best_cert), self.gens

    def _search(self, lab, cell_of, cell_end, cells, spans, prefix, stab,
                seen):
        """Search below one node of the given number of cells; spans holds
        the (start, end) of the parent's non-singleton cells, ascending,
        and stab the generators of self.gens[:seen] that fix every vertex
        of prefix, in their order."""
        if cells == self.nv:
            self._leaf(lab)
            return
        # Branch on the first largest non-singleton cell.  The node's cells
        # refine its parent's, so every one of them that is not a singleton
        # lies in a span, and the spans are scanned in cell order.  Most
        # spans are still one cell (82 of 91 per node of rod_tiling(6)) and
        # are passed on as they are.
        open_cells = []
        target, size = None, 1
        for span in spans:
            s, end = span
            if cell_end[s] == end:
                open_cells.append(span)
                if end - s > size:
                    target, size = s, end - s
                continue
            while s < end:
                e = cell_end[s]
                if e - s > 1:
                    open_cells.append((s, e))
                    if e - s > size:
                        target, size = s, e - s
                s = e
        end = target + size
        # The orbit of the processed children under stab, grown as both
        # grow; only generators found since seen need the prefix check.
        orbit = set()
        for v in lab[target:end]:
            if orbit:
                if seen < len(self.gens):
                    stab = stab + [g for g in self.gens[seen:]
                                   if all(g[x] == x for x in prefix)]
                    seen = len(self.gens)
                    _close(orbit, list(orbit), stab)
                if v in orbit:
                    continue
            rest = [u for u in lab[target:end] if u != v]
            clab, ccell, cend = lab[:], cell_of[:], cell_end[:]
            clab[target:end] = [v] + rest
            cend[target] = target + 1
            cend[target + 1] = end
            for u in rest:
                ccell[u] = target + 1
            # rest is the last part of the split {v} | rest of a cell of
            # this equitable partition, so it is not queued (_refine's
            # precondition and its last-part rule).
            ccells = _refine(self.adj, clab, ccell, cend, deque([[v]]),
                             cells + 1)
            self._search(clab, ccell, cend, ccells, open_cells, prefix + (v,),
                         [g for g in stab if g[v] == v], seen)
            orbit.add(v)
            _close(orbit, [v], stab)

    def _leaf(self, perm):
        cert = self._certificate(perm)
        if self.best_cert is None or cert < self.best_cert:
            self.best_cert = cert
            self.best_perm = perm
        elif cert == self.best_cert:
            g = [0] * self.nv
            for pos in range(self.nv):
                g[perm[pos]] = self.best_perm[pos]
            g = tuple(g)
            if any(g[i] != i for i in range(self.nv)) and g not in self.gens:
                self.gens.append(g)

    def _certificate(self, perm):
        """Relabelled edges as row-major slots a*nv+b (a < b), ascending, negated.

        Every leaf has the same edge count, so the first differing slot
        decides, and the certificate holding it is the larger adjacency
        bitmap: these lists compare exactly like the bitmaps of _bitmap.
        """
        nv = self.nv
        # pos(v) is v's position in perm
        pos = sorted(range(nv), key=perm.__getitem__).__getitem__
        cert = [-(a * nv + b if a < b else b * nv + a)
                for a, b in zip(map(pos, self.us), map(pos, self.ws))]
        cert.sort(reverse=True)
        return cert

    def _bitmap(self, cert):
        """The key bytes: the certificate's upper-triangle adjacency bitmap.

        Bit k, MSB first, is the k-th pair (a, b), a < b, in row-major order.
        """
        nv = self.nv
        bits = bytearray((nv * (nv - 1) // 2 + 7) // 8)
        for s in cert:
            a, b = divmod(-s, nv)
            k = a * (2 * nv - a - 1) // 2 + b - a - 1
            bits[k >> 3] |= 128 >> (k & 7)
        return bytes(bits)


def _close(orbit, stack, gens):
    """Add to the set orbit the images of the stack's points under the
    generators, until it is closed."""
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)


class _PermGroup:
    """Stabilizer chain with base 0..n-1, grown by sift-and-close.

    Permutations are numpy intp index arrays, composed as a[b] (apply b,
    then a); add converts a generator once, so no sift or product casts a
    narrower row again.  trans[i] maps an image of point i to a transversal
    entry and its inverse.  A new residue is closed only against the
    entries at its level and below, so products with higher-level entries
    are missed and the order can come out too small: 32 for the rod
    fixture, whose group has order 48.  Every pinned aut value is this
    algorithm's; the fix is ROADMAP item 12.

    The stack holds the factor pairs (a, b) of the products still to sift
    and composes each as it is popped, in the order an eager stack would
    have built them.  Eager intp products held hundreds of rows at once on
    the census workload's largest groups: its peak_rss_mb read 39.3 MiB,
    against 36.4 MiB for the pairs and 35.9 MiB for products composed
    eagerly in the keys' uint16 rows.
    """

    def __init__(self, n):
        self.ident = np.arange(n)
        self.trans = [dict() for _ in range(n)]

    def _sift(self, g):
        while True:
            moved = g != self.ident
            i = moved.argmax()
            if not moved[i]:
                return None, None
            entry = self.trans[i].get(int(g[i]))
            if entry is None:
                return i, g
            g = entry[1][g]

    def add(self, g):
        stack = [(self.ident, np.asarray(g, dtype=np.intp))]
        while stack:
            a, b = stack.pop()
            lvl, res = self._sift(a[b])
            if lvl is None:
                continue
            inv = np.empty_like(res)
            inv[res] = self.ident
            self.trans[lvl][int(res[lvl])] = (res, inv)
            for l in range(lvl + 1):
                for u, _ in list(self.trans[l].values()):
                    stack.append((u, res))
                    stack.append((res, u))

    def order(self):
        o = 1
        for t in self.trans:
            o *= len(t) + 1
        return o


def _graph_aut_order(gens):
    """Order of the group generated by the rows of the k x nv array gens."""
    group = _PermGroup(gens.shape[1])
    for g in gens:
        group.add(g)
    return group.order()


# Hit only by calls across censuses: sweep states carry their keys (0 hits).
@lru_cache(maxsize=8192)
def _canon_result(p):
    if p.dim > CANON_MAX_DIM:
        raise ResourceGuardError(
            f"canonical form of dimension {p.dim} exceeds the cap of "
            f"{CANON_MAX_DIM}")
    graph = encode(p)
    root = TORUS_ROOT_SPLITTERS if p.space == TORUS else CUBE_ROOT_SPLITTERS
    cert, gens = _Canonicalizer(graph, root).run()
    counts = {}
    for c in graph.colors:
        counts[c] = counts.get(c, 0) + 1
    header = f"{p.space}|{p.dim}|" + ",".join(f"{c}:{counts[c]}" for c in sorted(counts)) + "|"
    nv = len(graph.colors)
    # the smallest unsigned type that holds a vertex: caches and sweeps keep it
    gens = np.array(gens, dtype=np.min_scalar_type(nv - 1))
    gens = gens.reshape(len(gens), nv)
    gens.flags.writeable = False
    return CanonicalKey(header.encode() + cert, gens)


def canonical_key(p):
    """Key invariant under the declared relabeling group, distinct otherwise."""
    return _canon_result(p)


def automorphism_order(p):
    """Order of the packing's automorphism group (see group_order)."""
    return group_order(p, canonical_key(p))


def group_order(p, key):
    """Order of the automorphism group of p, whose canonical key is key.

    Computed from key's generators by _PermGroup's sift-and-close, which
    undercounts some groups.  The graph group is quotiented by the
    boundary-pair swaps of cube-space coordinates where neither 0 nor 1
    occurs; those act trivially on cubes.
    """
    order = _graph_aut_order(key.gens)
    if p.space == CUBE:
        for j in range(p.dim):
            if not any(cube[j] in (ZERO, ONE) for cube in p.cubes):
                order //= 2
    return order


def class_orbit_leaders(p, classes, gens):
    """For each extension class of p, the index of the first class in its
    orbit under gens, the automorphism generators of p's canonical key.

    A generator g moves coordinate j to g[m+j]-m and a candidate through
    its vertex: a torus literal through its literal vertex, a cube-space
    ZERO or ONE through its boundary vertex; FRESH stays FRESH.  Each g is
    a true automorphism of p, so classes sharing a leader give equivalent
    children even where the generators span only a subgroup (the orbits are
    then finer, never wrong).  classes must be closed under the action, as
    every nb-filtered list of enumerate_extension_classes is.
    """
    leader = list(range(len(classes)))
    m = p.m
    lay = _Layout(p)
    index = {c.coords: i for i, c in enumerate(classes)}

    def find(i):
        while leader[i] != i:
            leader[i] = leader[leader[i]]
            i = leader[i]
        return i

    for g in gens.tolist():
        for i, c in enumerate(classes):
            image = [None] * p.dim
            for j, cand in enumerate(c.coords):
                image[g[m + j] - m] = (
                    cand if cand == FRESH else lay.code(g[lay.vertex(j, cand)]))
            k = index.get(tuple(image))
            if k is None:
                raise AssertionError(
                    f"class {c.coords} maps to {tuple(image)}, not a class "
                    f"of the list")
            a, b = find(i), find(k)
            if a != b:
                leader[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(classes))]
