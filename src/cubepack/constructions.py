"""Explicit constructions: products, rod tilings, circulant matrices,
1-factorization packings, and the bundled fixture corpus."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .model import (
    TORUS,
    ResourceGuardError,
    literal,
    load_file,
    make_packing,
    opposite,
    param_of,
    shift_of,
    validate,
    is_tiling,
)


class ConstructionError(ValueError):
    """A construction precondition failed or a completion check did not hold."""


def one_dim_tiling():
    """The 1-dimensional tiling {t, t+1}."""
    return make_packing(TORUS, 1, [(literal(0, 0),), (literal(0, 1),)])


def product(p, q):
    """Semidirect product: glue an independent copy of q onto each cube of p.

    The result has cubes (z_i, w_{i,j}) where w_{i,j} runs over the cubes of
    the i-th parameter-renamed copy of q, so m(pq) = m(p) m(q) and
    N(pq) = N(p) + m(p) N(q).

    Raises:
        ConstructionError: if either packing is not torus-space.
    """
    if p.space != TORUS or q.space != TORUS:
        raise ConstructionError("product is defined for torus packings")
    # offsets past the largest parameter id, so sparse numbering cannot clash
    base = p.param_bound
    nq = q.param_bound
    cubes = []
    for i, zi in enumerate(p.cubes):
        off = base + i * nq
        for zj in q.cubes:
            tail = tuple(literal(off + param_of(c), shift_of(c)) for c in zj)
            cubes.append(zi + tail)
    return make_packing(TORUS, p.dim + q.dim, cubes)


def laminated_tiling(k):
    """The fully laminated k-dimensional tiling (iterated product of {t, t+1})."""
    if k < 1:
        raise ConstructionError("dimension must be >= 1")
    out = one_dim_tiling()
    for _ in range(k - 1):
        out = product(one_dim_tiling(), out)
    return out


def h_matrix(n):
    """Circulant matrix packing for odd n: n rows pairwise blocked once each.

    Column j holds a fresh parameter on the diagonal and, for each offset
    k = 1..(n-1)/2, a fresh parameter at row j+k with its shifted partner at
    row j-k (indices mod n), so column values are pairwise distinct and any
    two rows block each other in exactly one coordinate.  Parameters are
    numbered diagonal first, then offset by offset.
    """
    if n < 3 or n % 2 == 0:
        raise ConstructionError("n must be odd and >= 3")
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = literal(j, 0)
        for k in range(1, (n - 1) // 2 + 1):
            t = k * n + j
            rows[(j + k) % n][j] = literal(t, 0)
            rows[(j - k) % n][j] = literal(t, 1)
    return make_packing(TORUS, n, [tuple(r) for r in rows])


def parse_cycles(text, n):
    """Parse cycle notation like "(1,2)(3,5,4)" into a 0-based mapping tuple."""
    perm = list(range(n))
    seen = set()
    body = text.replace(" ", "")
    if not body.startswith("(") or not body.endswith(")"):
        raise ConstructionError(f"bad cycle notation {text!r}")
    for cyc in body[1:-1].split(")("):
        elems = [int(v) - 1 for v in cyc.split(",")]
        if any(v < 0 or v >= n or v in seen for v in elems):
            raise ConstructionError(f"bad cycle notation {text!r}")
        seen.update(elems)
        for a, b in zip(elems, elems[1:] + elems[:1]):
            perm[a] = b
    return tuple(perm)


def dihedral_perms(n):
    """The 2n rotation/reflection index maps i -> i+k and i -> k-i (mod n)."""
    out = []
    for k in range(n):
        out.append(tuple((i + k) % n for i in range(n)))
        out.append(tuple((k - i) % n for i in range(n)))
    return out


def _conjugate(g, sigma):
    n = len(g)
    ginv = [0] * n
    for i, v in enumerate(g):
        ginv[v] = i
    return tuple(g[sigma[ginv[i]]] for i in range(n))


def hn_tiling(n):
    """Complete h_matrix(n) into a tiling with n(n+1)/2 parameters.

    Starts from the n rows of h_matrix(n) plus the same rows with the
    diagonal entry shifted, then adds one cube per permutation in the
    dihedral-conjugation orbits of the bundled cycle-notation table for n
    (completion_perms): the cube for sigma takes, in each coordinate j, the
    shifted partner of row sigma^-1(j)'s entry.

    Args:
        n: 3, 5, 7 or 9.

    Raises:
        ConstructionError: if the orbit cubes do not complete a valid tiling
            with exactly n(n+1)/2 parameters.
    """
    if n not in (3, 5, 7, 9):
        raise ConstructionError("completion data exists for n in {3, 5, 7, 9}")
    base = h_matrix(n)
    cubes = list(base.cubes)
    for i, z in enumerate(base.cubes):
        row = list(z)
        row[i] = opposite(row[i])
        cubes.append(tuple(row))
    orbit = set()
    for s in completion_perms()[str(n)]:
        sigma = parse_cycles(s, n)
        for g in dihedral_perms(n):
            orbit.add(_conjugate(g, sigma))
    for sigma in sorted(orbit):
        inv = [0] * n
        for i, v in enumerate(sigma):
            inv[v] = i
        cubes.append(tuple(opposite(base.cubes[inv[j]][j]) for j in range(n)))
    if len(cubes) != 2 ** n:
        raise ConstructionError(
            f"permutation orbits give {len(cubes)} cubes, need {2 ** n}"
        )
    p = make_packing(TORUS, n, cubes)
    bad = validate(p)
    if bad is not None:
        raise ConstructionError(f"completion is not a packing: {bad.kind}")
    if not is_tiling(p) or p.nparams != n * (n + 1) // 2:
        raise ConstructionError("completion is not a minimal-parameter tiling")
    return p


@dataclass(frozen=True)
class OneFactorization:
    """Perfect matchings partitioning the edges of a complete graph."""

    vertices: int
    matchings: tuple


def one_factorization(v):
    """Round-robin 1-factorization of the complete graph on v vertices.

    Vertex v-1 stays fixed; round r pairs it with r and pairs (r+i, r-i)
    mod v-1 for i = 1..v/2-1.
    """
    if v < 2 or v % 2:
        raise ConstructionError("vertex count must be even and >= 2")
    rounds = []
    for r in range(v - 1):
        edges = [tuple(sorted((r, v - 1)))]
        for i in range(1, v // 2):
            a = (r + i) % (v - 1)
            b = (r - i) % (v - 1)
            edges.append(tuple(sorted((a, b))))
        rounds.append(tuple(sorted(edges)))
    return OneFactorization(v, tuple(rounds))


def factorization_packing(f):
    """Packing with one cube per vertex and one coordinate per matching.

    The edge {u, w} of matching j becomes a parameter occurring as t in cube
    u and t+1 in cube w, so any two cubes block each other exactly in the
    coordinate of the matching containing their edge.
    """
    v = f.vertices
    n = v - 1
    grid = [[None] * n for _ in range(v)]
    t = 0
    for j, matching in enumerate(f.matchings):
        for u, w in matching:
            grid[u][j] = literal(t, 0)
            grid[w][j] = literal(t, 1)
            t += 1
    return make_packing(TORUS, n, [tuple(r) for r in grid])


# The 8 rod axes in the first 3 coordinates: pairwise blocked, 6 parameters.
ROD_VECTORS = (
    (literal(0, 0), literal(1, 0), literal(2, 0)),
    (literal(0, 1), literal(3, 0), literal(4, 0)),
    (literal(5, 0), literal(1, 1), literal(4, 1)),
    (literal(0, 1), literal(3, 1), literal(4, 0)),
    (literal(5, 1), literal(1, 1), literal(4, 1)),
    (literal(0, 0), literal(1, 0), literal(2, 1)),
    (literal(0, 1), literal(1, 0), literal(4, 1)),
    (literal(0, 0), literal(1, 1), literal(4, 0)),
)


# Largest dimension a rod tiling is built in without allow_large; the tiling
# has 2^n cubes, so this caps it at 4096.
ROD_MAX_DIM = 12


def rod_tiling(n, allow_large=False):
    """Tiling of 8 rods: each rod axis extended by a laminated (n-3)-dim tiling.

    For n > 3 this is product(rod_tiling(3), laminated_tiling(n - 3)): each
    rod gets its own parameter-renamed copy of the filler.

    Args:
        n: total dimension, >= 3.
        allow_large: lift the default n <= ROD_MAX_DIM guard.

    Raises:
        ResourceGuardError: if n > ROD_MAX_DIM without allow_large.
    """
    if n < 3:
        raise ConstructionError("rod tilings need dimension >= 3")
    if n > ROD_MAX_DIM and not allow_large:
        raise ResourceGuardError(f"rod tiling with 2^{n} cubes")
    rods = make_packing(TORUS, 3, ROD_VECTORS)
    return rods if n == 3 else product(rods, laminated_tiling(n - 3))


def fixtures_dir():
    """Locate the bundled fixture corpus.

    CUBEPACK_FIXTURES overrides; otherwise walk up from this file looking
    for a fixtures/ directory, falling back to the working directory.
    """
    env = os.environ.get("CUBEPACK_FIXTURES")
    if env:
        return Path(env)
    here = Path(__file__).resolve()
    for parent in here.parents:
        cand = parent / "fixtures"
        if cand.is_dir():
            return cand
    return Path.cwd() / "fixtures"


_FIXTURE_SUBDIRS = ("dim4", "figure2", "figure3", "h-matrices")


def fixtures():
    """Load the named packing corpus as {name: Packing}."""
    root = fixtures_dir()
    out = {}
    for sub in _FIXTURE_SUBDIRS:
        d = root / sub
        if not d.is_dir():
            continue
        for path in sorted(d.glob("*.json")):
            out[path.stem] = load_file(path)
    return out


def load_fixture(name):
    root = fixtures_dir()
    for sub in _FIXTURE_SUBDIRS:
        path = root / sub / f"{name}.json"
        if path.is_file():
            return load_file(path)
    raise ConstructionError(f"no fixture named {name!r}")


def completion_perms():
    """The bundled permutation lists keyed by dimension string."""
    path = fixtures_dir() / "table4" / "perms.json"
    with open(path) as fh:
        return json.load(fh)
