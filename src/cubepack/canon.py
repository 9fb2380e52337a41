"""Canonical forms, equivalence, and automorphism orders for packings.

Packings are encoded as colored graphs whose automorphisms are exactly the
allowed relabelings (cube reorder, coordinate permutation, parameter
renaming with literal swap on the torus, 0/1 reflection in the cube case).
Canonical labeling is individualization-refinement with orbit pruning.  The
search's automorphism generators are cached with the key, and the group
order is computed from them on the first automorphism_order call, so a
caller that only compares keys never pays for it.  The order comes from a
sift-and-close stabilizer chain over those generators, which undercounts
some groups (see _PermGroup).

Leaves of the search are compared by a certificate: the relabelled edges as
row-major slots a*nv+b (a < b), ascending and negated.  It orders leaves
exactly as the upper-triangle adjacency bitmap of the relabelled graph
does; the key's bytes are that bitmap, built once from the best leaf, and
are unchanged by the cheaper certificate.
"""

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    ResourceGuardError,
    is_literal,
    param_of,
    shift_of,
)

COLOR_CUBE = 0
COLOR_COORD = 1
COLOR_PARAM = 2
COLOR_LITERAL = 3
COLOR_CELL = 4
COLOR_BOUNDARY = 5

# Largest dimension the canonical form accepts: the search recurses once per
# individualized vertex, so far larger packings would exhaust the stack.  On
# the empty torus packing `cubepack canon` takes about 1.2 s at 24
# dimensions, 2.5 s at 28 and 7 s at 32 (2-core VM).
CANON_MAX_DIM = 24


@dataclass(frozen=True)
class ColoredGraph:
    """Simple undirected loop-free graph with small-integer vertex colors."""

    colors: tuple
    adj: tuple


@dataclass(frozen=True)
class CanonicalKey:
    """Byte certificate; equal keys mean equivalent packings."""

    bytes: bytes

    def hex(self):
        return self.bytes.hex()


def encode(p):
    """Colored-graph encoding of a packing.

    Vertices: one per cube, per coordinate, per parameter, per literal (both
    shifts of each parameter on the torus, a single vertex per interior
    parameter in the cube case, plus per-coordinate boundary pairs 0_j/1_j
    sharing one color), and one cell per (cube, coordinate) slot.  A cell is
    adjacent to its cube, its coordinate, and the literal it holds; literals
    attach to their parameter, boundary literals attach to their coordinate.
    """
    m, n = p.m, p.dim
    params = [q for q, _ in p.param_coord]
    pindex = {q: i for i, q in enumerate(params)}
    npar = len(params)
    colors = [COLOR_CUBE] * m + [COLOR_COORD] * n + [COLOR_PARAM] * npar
    coord_base = m
    param_base = m + n
    lit_base = param_base + npar
    if p.space == TORUS:
        nlits = 2 * npar
        colors += [COLOR_LITERAL] * nlits

        def lit_vertex(code):
            return lit_base + 2 * pindex[param_of(code)] + shift_of(code)
    else:
        nlits = npar + 2 * n
        colors += [COLOR_LITERAL] * npar + [COLOR_BOUNDARY] * (2 * n)
        bound_base = lit_base + npar

        def lit_vertex(code):
            return lit_base + pindex[param_of(code)]
    cell_base = lit_base + nlits
    colors += [COLOR_CELL] * (m * n)
    adj = [set() for _ in range(cell_base + m * n)]

    def link(u, v):
        adj[u].add(v)
        adj[v].add(u)

    if p.space == TORUS:
        for i in range(npar):
            link(param_base + i, lit_base + 2 * i)
            link(param_base + i, lit_base + 2 * i + 1)
    else:
        for i in range(npar):
            link(param_base + i, lit_base + i)
        for j in range(n):
            link(coord_base + j, bound_base + 2 * j)
            link(coord_base + j, bound_base + 2 * j + 1)
    for i, cube in enumerate(p.cubes):
        for j, code in enumerate(cube):
            cell = cell_base + i * n + j
            link(cell, i)
            link(cell, coord_base + j)
            if is_literal(code):
                link(cell, lit_vertex(code))
            elif code == ZERO:
                link(cell, bound_base + 2 * j)
            else:
                link(cell, bound_base + 2 * j + 1)
    return ColoredGraph(tuple(colors), tuple(tuple(sorted(s)) for s in adj))


def _refine(adj, lab, cell_of, cell_end, work):
    """Equitable refinement; splits order parts by neighbor count ascending.

    The partition is the vertex list lab with cells indexed by start
    position: v lies in the cell lab[cell_of[v]:cell_end[cell_of[v]]].  A
    split rewrites only the cell it splits, and every part is queued as a
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


def _initial_partition(colors):
    groups = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    return [groups[c] for c in sorted(groups)]


class _Canonicalizer:
    """Individualization-refinement search over one colored graph."""

    def __init__(self, graph):
        self.adj = graph.adj
        self.colors = graph.colors
        self.nv = len(graph.colors)
        self.edges = [
            (u, w) for u, nbrs in enumerate(graph.adj) for w in nbrs if u < w
        ]
        self.best_cert = None
        self.best_perm = None
        self.gens = []

    def run(self):
        """Return (key bitmap, automorphism generators)."""
        cells = _initial_partition(self.colors)
        lab, cell_of, cell_end = [], [0] * self.nv, [0] * self.nv
        for cell in cells:
            start = len(lab)
            lab += cell
            cell_end[start] = len(lab)
            for v in cell:
                cell_of[v] = start
        _refine(self.adj, lab, cell_of, cell_end, deque(cells))
        self._search(lab, cell_of, cell_end, ())
        return self._bitmap(self.best_cert), self.gens

    def _search(self, lab, cell_of, cell_end, prefix):
        # Branch on the first largest non-singleton cell.
        target, size = None, 1
        s = 0
        while s < self.nv:
            e = cell_end[s]
            if e - s > size:
                target, size = s, e - s
            s = e
        if target is None:
            self._leaf(lab)
            return
        end = target + size
        processed = set()
        # Generators that fix the prefix, filtered once per node and
        # extended only when the search below has found new ones.
        stab, seen = [], 0
        for v in lab[target:end]:
            if processed:
                if seen < len(self.gens):
                    stab += [g for g in self.gens[seen:]
                             if all(g[x] == x for x in prefix)]
                    seen = len(self.gens)
                if v in _orbit(processed, stab):
                    continue
            rest = [u for u in lab[target:end] if u != v]
            clab, ccell, cend = lab[:], cell_of[:], cell_end[:]
            clab[target:end] = [v] + rest
            cend[target] = target + 1
            cend[target + 1] = end
            for u in rest:
                ccell[u] = target + 1
            _refine(self.adj, clab, ccell, cend, deque([[v], rest]))
            self._search(clab, ccell, cend, prefix + (v,))
            processed.add(v)

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
        pos = [0] * nv
        for i, v in enumerate(perm):
            pos[v] = i
        slots = []
        for u, w in self.edges:
            a, b = pos[u], pos[w]
            slots.append(a * nv + b if a < b else b * nv + a)
        slots.sort()
        return [-s for s in slots]

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


def _orbit(seeds, gens):
    """Closure of the seed set under the generators."""
    if not gens:
        return seeds
    orb = set(seeds)
    stack = list(seeds)
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in orb:
                orb.add(y)
                stack.append(y)
    return orb


class _PermGroup:
    """Stabilizer chain with base 0..n-1, grown by sift-and-close.

    Permutations are numpy index arrays, composed as a[b] (apply b, then a).
    trans[i] maps an image of point i to a transversal entry and its inverse.
    A new residue is closed only against the entries at its level and below,
    so products with higher-level entries are missed and the order can come
    out too small: 32 for the rod fixture, whose group has order 48.  Every
    pinned aut value is this algorithm's; the fix is ROADMAP item 0.
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
        stack = [np.asarray(g)]
        while stack:
            lvl, res = self._sift(stack.pop())
            if lvl is None:
                continue
            inv = np.empty_like(res)
            inv[res] = self.ident
            self.trans[lvl][int(res[lvl])] = (res, inv)
            for l in range(lvl + 1):
                for u, _ in list(self.trans[l].values()):
                    stack.append(u[res])
                    stack.append(res[u])

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


@dataclass(slots=True)
class _CanonResult:
    """A cached canonical form: the key bytes and the search's generators.

    The generators, one row per permutation, give way to the automorphism
    order on the first automorphism_order call.
    """

    key: bytes
    gens: np.ndarray
    order: int = None


@lru_cache(maxsize=8192)
def _canon_result(p):
    if p.dim > CANON_MAX_DIM:
        raise ResourceGuardError(
            f"canonical form of dimension {p.dim} exceeds the cap of "
            f"{CANON_MAX_DIM}")
    graph = encode(p)
    cert, gens = _Canonicalizer(graph).run()
    counts = {}
    for c in graph.colors:
        counts[c] = counts.get(c, 0) + 1
    header = f"{p.space}|{p.dim}|" + ",".join(f"{c}:{counts[c]}" for c in sorted(counts)) + "|"
    nv = len(graph.colors)
    # the smallest unsigned type that holds a vertex: the cache keeps them
    gens = np.array(gens, dtype=np.min_scalar_type(nv - 1))
    return _CanonResult(header.encode() + cert, gens.reshape(len(gens), nv))


def canonical_key(p):
    """Key invariant under the declared relabeling group, distinct otherwise."""
    return CanonicalKey(_canon_result(p).key)


def automorphism_order(p):
    """Order of the packing's automorphism group.

    Computed on the first call for p from the generators cached with its
    canonical key, by _PermGroup's sift-and-close, which undercounts some
    groups.  The graph group is quotiented by the boundary-pair swaps of
    cube-space coordinates where neither 0 nor 1 occurs; those act
    trivially on cubes.
    """
    entry = _canon_result(p)
    if entry.order is None:
        entry.order = _graph_aut_order(entry.gens)
        entry.gens = None
    order = entry.order
    if p.space == CUBE:
        for j in range(p.dim):
            if not any(cube[j] in (ZERO, ONE) for cube in p.cubes):
                order //= 2
    return order
