"""Combinatorial cube packings on the torus R^n/2Z^n and the cube [0,2]^n.

A packing is a family of unit cubes whose corner coordinates are symbolic:
on the torus every coordinate is a parameter literal (t or t+1), in the cube
case a coordinate is 0, 1, or an interior parameter.  Two cubes may coexist
exactly when some coordinate separates them by 1.
"""

import json
from dataclasses import dataclass

TORUS = "torus"
CUBE = "cube"

# Coordinate codes: the literal with parameter p and shift s is 2*p + s
# (shift 0 reads "t", shift 1 reads "t+1"); the boundary coordinates of the
# cube space are negative sentinels.  The sentinel values are chosen so that
# ZERO ^ ONE == 1, the same xor signature as an opposite-literal pair.
ZERO = -1
ONE = -2


class DimensionError(ValueError):
    """Cubes or coordinate vectors of mismatched length."""


class InvalidDiscretePackingError(ValueError):
    """A discrete input whose cubes overlap or leave the allowed region."""


class ResourceGuardError(RuntimeError):
    """The request exceeds a size limit.  Where the call takes allow_large
    (the CLI's --long-running), that flag lifts the limit."""


def literal(param, shift=0):
    """Coordinate code for the literal t_param + shift."""
    return 2 * param + shift


def is_literal(code):
    return code >= 0


def param_of(code):
    return code >> 1


def shift_of(code):
    return code & 1


def opposite(code):
    """The blocking partner of a literal or boundary code (t <-> t+1, 0 <-> 1)."""
    return code ^ 1


@dataclass(frozen=True)
class Violation:
    """Structured report of the first packing invariant that fails."""

    kind: str
    detail: str
    cubes: tuple = ()
    coordinate: int | None = None


@dataclass(frozen=True)
class Packing:
    """An ordered family of combinatorial cubes.

    `cubes` is a tuple of coordinate-code tuples, in insertion order (the
    order matters for path statistics; set-level equality is the canonical
    module's job).  `param_coord` lists (param, coordinate) ownership pairs,
    sorted by param; for an invalid packing that reuses a parameter across
    coordinates it records the first coordinate seen.
    """

    space: str
    dim: int
    cubes: tuple
    param_coord: tuple

    @property
    def m(self):
        return len(self.cubes)

    @property
    def nparams(self):
        return len(self.param_coord)

    @property
    def param_bound(self):
        """One more than the largest parameter id (nparams when dense)."""
        return self.param_coord[-1][0] + 1 if self.param_coord else 0


def make_packing(space, dim, cubes):
    """Build a Packing from raw coordinate-code tuples, deriving ownership."""
    owner = {}
    frozen = []
    for cube in cubes:
        frozen.append(tuple(cube))
        for j, code in enumerate(frozen[-1]):
            if is_literal(code):
                owner.setdefault(param_of(code), j)
    return Packing(space, dim, tuple(frozen), tuple(sorted(owner.items())))


def add_cube(p, coords):
    """p with one more cube; the cube's unseen parameters join param_coord
    at their first coordinate, as make_packing would record them."""
    cube = tuple(coords)
    owner = dict(p.param_coord)
    for j, code in enumerate(cube):
        if is_literal(code):
            owner.setdefault(param_of(code), j)
    return Packing(p.space, p.dim, p.cubes + (cube,),
                   tuple(sorted(owner.items())))


def empty_packing(space, dim):
    return make_packing(space, dim, ())


def overlaps(a, b, space):
    """Whether two cubes overlap.

    Non-overlap holds iff some coordinate carries a blocking pair: opposite
    literals of one parameter (torus) or the 0/1 boundary pair (cube).  Both
    pairs have xor signature 1 under the coordinate encoding, so the test is
    space-uniform on valid coordinates.
    """
    if len(a) != len(b):
        raise DimensionError(f"cube lengths {len(a)} and {len(b)} differ")
    for x, y in zip(a, b):
        if (x ^ y) == 1:
            return False
    return True


def _coordinate_ok(code, space):
    if space == TORUS:
        return is_literal(code)
    return code in (ZERO, ONE) or (is_literal(code) and shift_of(code) == 0)


def validate(p):
    """Check all Packing invariants; return None if ok, else the first Violation."""
    if p.space not in (TORUS, CUBE):
        return Violation("space", f"unknown space {p.space!r}")
    if p.dim < 1:
        return Violation("dimension", f"dim must be >= 1, got {p.dim}")
    for i, cube in enumerate(p.cubes):
        if len(cube) != p.dim:
            return Violation("dimension", f"cube {i} has length {len(cube)}, expected {p.dim}", cubes=(i,))
        for j, code in enumerate(cube):
            if not _coordinate_ok(code, p.space):
                return Violation("coordinate-space", f"cube {i}, coordinate {j}: code {code} is invalid for {p.space}", cubes=(i,), coordinate=j)
    owner = {}
    for i, cube in enumerate(p.cubes):
        for j, code in enumerate(cube):
            if is_literal(code):
                q = param_of(code)
                if q not in owner:
                    owner[q] = j
                elif owner[q] != j:
                    return Violation("param-coordinate", f"parameter {q} occurs in coordinates {owner[q]} and {j}", coordinate=j)
    for i in range(len(p.cubes)):
        for k in range(i + 1, len(p.cubes)):
            if overlaps(p.cubes[i], p.cubes[k], p.space):
                return Violation("overlap", f"cubes {i} and {k} overlap", cubes=(i, k))
    if len(p.cubes) > 2 ** p.dim:
        return Violation("cube-count", f"{len(p.cubes)} cubes exceed 2^{p.dim}")
    return None


def is_tiling(p):
    return len(p.cubes) == 2 ** p.dim


def coordinate_params(p):
    """Per-coordinate sets of the parameters each coordinate owns."""
    sets = [set() for _ in range(p.dim)]
    for q, j in p.param_coord:
        sets[j].add(q)
    return sets


def phi_grid(kvecs, N, space):
    """The projection phi of a packing on the (1/N)-grid to its type.

    kvecs are the cubes' integer grid indices (index k means k/N): taken
    mod 2N on the torus, in 0..N in the cube.  Parameters are numbered in
    first-occurrence order: one per (coordinate, residue mod N) on the
    torus, one per (coordinate, interior index) in the cube.
    """
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
    # per coordinate, each grid value -> the bit mask of the cubes holding
    # it; cube i is apart from the holders of its values' partners
    holders = [{} for _ in range(n)]
    for i, vec in enumerate(rows):
        for held, k in zip(holders, vec):
            held[k] = held.get(k, 0) | 1 << i
    later = (1 << len(rows)) - 1
    for i, vec in enumerate(rows):
        later ^= 1 << i
        apart = 0
        for held, k in zip(holders, vec):
            apart |= held.get(grid_partner(k, N, space), 0)
        clash = later & ~apart
        if clash:
            j = (clash & -clash).bit_length() - 1
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


def grid_partner(x, N, space):
    """The grid index that forms a blocking pair with x in one coordinate,
    or None: x + N mod 2N on the torus, the other face for a face 0 or N
    in the cube (an interior index blocks nothing)."""
    if space == TORUS:
        return (x + N) % (2 * N)
    return N - x if x in (0, N) else None


def grid_blocks(x, y, N, space):
    """Whether grid indices x and y of one coordinate form a blocking pair."""
    if space == TORUS:
        y %= 2 * N
    return y == grid_partner(x, N, space)


def grid_overlaps(a, b, N, space):
    """Whether the grid-anchored cubes at a and b overlap."""
    return not any(grid_blocks(x, y, N, space) for x, y in zip(a, b))


def code_to_json(code):
    """JSON form of one coordinate code: 0, 1, or {"p": param, "s": shift}."""
    if code == ZERO:
        return 0
    if code == ONE:
        return 1
    return {"p": param_of(code), "s": shift_of(code)}


def to_json_obj(p):
    cubes = [[code_to_json(code) for code in cube] for cube in p.cubes]
    return {"space": p.space, "dim": p.dim, "cubes": cubes}


def from_json_obj(obj):
    """The Packing of a JSON object as written by to_json_obj.

    Raises:
        ValueError: naming the first missing or ill-typed field.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"packing JSON must be an object, got {type(obj).__name__}")
    for field in ("space", "dim", "cubes"):
        if field not in obj:
            raise ValueError(f"packing JSON lacks the field {field!r}")
    if not _is_int(obj["dim"]):
        raise ValueError(f"packing JSON field 'dim' is not an integer: {obj['dim']!r}")
    if not isinstance(obj["cubes"], list):
        raise ValueError("packing JSON field 'cubes' is not a list")
    cubes = []
    for i, row in enumerate(obj["cubes"]):
        if not isinstance(row, list):
            raise ValueError(f"packing JSON cube {i} is not a list")
        cubes.append(tuple(_code_from_json(c) for c in row))
    return make_packing(obj["space"], obj["dim"], cubes)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _code_from_json(c):
    if c == 0:
        return ZERO
    if c == 1:
        return ONE
    if not isinstance(c, dict):
        raise ValueError(f"bad coordinate {c!r} in packing JSON")
    for field in ("p", "s"):
        if field not in c:
            raise ValueError(f"literal {c!r} in packing JSON lacks the field {field!r}")
    if not _is_int(c["p"]) or c["p"] < 0:
        raise ValueError(f"literal {c!r} in packing JSON: 'p' is not an integer >= 0")
    if c["s"] not in (0, 1):
        raise ValueError(f"literal {c!r} in packing JSON: 's' is not 0 or 1")
    return literal(c["p"], int(c["s"]))


def dumps(p, indent=None):
    return json.dumps(to_json_obj(p), indent=indent)


# Test-only, as is save_file: the two complete the JSON I/O pair whose
# other halves, dumps and load_file, the CLI uses.
def loads(text):
    return from_json_obj(json.loads(text))


def load_file(path):
    with open(path) as fh:
        return from_json_obj(json.load(fh))


def save_file(p, path, indent=2):
    with open(path, "w") as fh:
        json.dump(to_json_obj(p), fh, indent=indent)
        fh.write("\n")
