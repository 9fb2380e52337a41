"""Core representation: coordinates, overlap, validation, phi, JSON."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_coordinate_params,
    grid_blocked,
    normalize_params,
    pairwise_first_overlap,
    pairwise_phi_grid,
    random_packing,
    realize,
)

from cubepack import canon
from cubepack.census import cube_expansion, torus_limit_census
from cubepack.extend import max_nb_classes
from cubepack.constructions import (
    fixtures,
    h_matrix,
    hn_tiling,
    load_fixture,
    rod_tiling,
)
from cubepack.model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    DimensionError,
    InvalidDiscretePackingError,
    add_cube,
    coordinate_params,
    dumps,
    empty_packing,
    from_json_obj,
    is_tiling,
    literal,
    load_file,
    loads,
    make_packing,
    opposite,
    param_of,
    phi_grid,
    save_file,
    shift_of,
    to_json_obj,
    validate,
)

T = literal  # shorthand: T(i) is t_{i+1}, T(i, 1) is t_{i+1}+1


def test_literal_codes_round_trip():
    for q in range(5):
        for s in (0, 1):
            code = literal(q, s)
            assert param_of(code) == q
            assert shift_of(code) == s
            assert opposite(code) == literal(q, 1 - s)
    assert opposite(ZERO) == ONE
    assert opposite(ONE) == ZERO


def _overlapping(space, a, b):
    """Whether validate reports the two cubes a and b as overlapping; it
    must otherwise accept them."""
    v = validate(make_packing(space, len(a), [a, b]))
    assert v is None or (v.kind, v.detail, v.cubes) == (
        "overlap", "cubes 0 and 1 overlap", (0, 1))
    return v is not None


def test_opposite_literals_block_overlap():
    # (t1, t2, t3) and (t1+1, t4, t5) are blocked in the first coordinate
    a = (T(0), T(1), T(2))
    b = (T(0, 1), T(3), T(4))
    assert not _overlapping(TORUS, a, b)
    assert not _overlapping(TORUS, (T(0), T(1)), (T(0), T(1, 1)))
    assert _overlapping(TORUS, (T(0), T(1)), (T(2), T(3)))
    assert _overlapping(TORUS, a, a)


def test_boundary_pair_blocks_overlap_in_cube_space():
    assert not _overlapping(CUBE, (ZERO, T(0)), (ONE, T(1)))
    assert _overlapping(CUBE, (ZERO, T(0)), (ZERO, T(1)))
    assert _overlapping(CUBE, (T(0), T(1)), (T(2), T(3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(1, 4),
    steps=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    copies=st.integers(0, 2),
)
def test_validate_reports_the_pairwise_first_overlap(space, dim, steps, seed,
                                                     copies):
    # a packing with copies of its cubes planted at random indices: each
    # copy overlaps its original, and validate names the first such pair
    rng = random.Random(seed)
    cubes = list(random_packing(rng, space, dim, steps).cubes)
    for _ in range(copies):
        cubes.insert(rng.randrange(len(cubes) + 1), rng.choice(cubes))
    q = make_packing(space, dim, cubes)
    first = pairwise_first_overlap(q.cubes)
    assert (first is None) == (copies == 0)
    v = validate(q)
    if first is None:
        assert v is None
    else:
        assert (v.kind, v.cubes) == ("overlap", first)


def test_validate_accepts_torus_packing():
    p = make_packing(TORUS, 3, [(T(0), T(1), T(2)), (T(0, 1), T(3), T(4))])
    assert validate(p) is None
    assert p.m == 2
    assert p.nparams == 5


def test_validate_rejects_overlapping_cubes():
    p = make_packing(TORUS, 2, [(T(0), T(1)), (T(2), T(3))])
    v = validate(p)
    assert v is not None
    assert v.kind == "overlap"
    assert v.cubes == (0, 1)


def test_validate_rejects_param_in_two_coordinates():
    p = make_packing(TORUS, 2, [(T(0), T(1)), (T(1), T(0, 1))])
    v = validate(p)
    assert v is not None
    assert v.kind == "param-coordinate"


def test_validate_rejects_shifted_literal_in_cube_space():
    p = make_packing(CUBE, 1, [(T(0, 1),)])
    v = validate(p)
    assert v is not None
    assert v.kind == "coordinate-space"


def test_validate_rejects_boundary_code_on_torus():
    p = make_packing(TORUS, 1, [(ZERO,)])
    v = validate(p)
    assert v is not None
    assert v.kind == "coordinate-space"


def test_tiling_is_full_count():
    p = make_packing(TORUS, 1, [(T(0),), (T(0, 1),)])
    assert validate(p) is None
    assert is_tiling(p)
    assert not is_tiling(make_packing(TORUS, 1, [(T(0),)]))


def test_phi_identifies_residue_classes_on_torus():
    # grid index k means the coordinate k/N: here 1/2 and 3/2
    p = phi_grid([(2,), (6,)], 4, TORUS)
    assert p.cubes == ((T(0),), (T(0, 1),))


def test_phi_two_dim_example():
    # (1/4, 1/2) and (5/4, 3/4)
    p = phi_grid([(1, 2), (5, 3)], 4, TORUS)
    assert p.cubes == ((T(0), T(1)), (T(0, 1), T(2)))
    assert validate(p) is None


def test_phi_cube_space_boundaries_and_interior():
    p = phi_grid([(0,), (4,)], 4, CUBE)
    assert p.cubes == ((ZERO,), (ONE,))
    q = phi_grid([(1,)], 4, CUBE)
    assert q.cubes == ((T(0),),)


def test_phi_rejects_overlapping_discrete_cubes():
    with pytest.raises(InvalidDiscretePackingError):
        phi_grid([(0, 0), (1, 2)], 4, CUBE)
    with pytest.raises(InvalidDiscretePackingError):
        phi_grid([(0,), (1,)], 2, TORUS)


def test_phi_rejects_an_unknown_space_and_an_empty_grid():
    # checked before any row is read, with SimConfig's and
    # discrete._check_grid's messages
    with pytest.raises(ValueError, match="unknown space 'bogus'"):
        phi_grid([(0,)], 2, "bogus")
    for space in (TORUS, CUBE):
        for N in (0, -1):
            with pytest.raises(ValueError,
                               match=f"grid resolution N must be >= 1, got {N}"):
                phi_grid([(0,)], N, space)


@st.composite
def _grid_rows(draw):
    # random anchors overlap almost always; kept=True grows a packing of
    # the non-overlapping ones instead, in draw order
    space = draw(st.sampled_from([TORUS, CUBE]))
    N = draw(st.integers(1, 5))
    n = draw(st.integers(0, 4))
    top = 4 * N - 1 if space == TORUS else N
    vecs = draw(st.lists(st.tuples(*[st.integers(0, top)] * n),
                         min_size=1, max_size=12))
    if draw(st.booleans()):
        kept = []
        for vec in vecs:
            if all(any(grid_blocked(x % (2 * N), y % (2 * N), N, space)
                       for x, y in zip(vec, row)) for row in kept):
                kept.append(vec)
        vecs = kept
    return space, N, vecs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DimensionError, InvalidDiscretePackingError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(_grid_rows())
def test_phi_grid_matches_the_pairwise_overlap_scan(case):
    # same packing, or the same error naming the same first pair (i, j)
    space, N, vecs = case
    assert (_outcome(phi_grid, vecs, N, space)
            == _outcome(pairwise_phi_grid, vecs, N, space))



@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(1, 4),
    steps=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_phi_grid_of_a_realization_is_the_type(space, dim, steps, seed):
    # a limit-process path realized on a grid fine enough for every
    # parameter to get its own value projects back to its own type
    p = random_packing(random.Random(seed), space, dim, steps, max_nb_classes)
    N = p.m + 2
    q = phi_grid(realize(p, N), N, space)
    assert q.nparams == p.nparams
    assert canon.canonical_key(q) == canon.canonical_key(p)

def test_phi_rejects_cube_anchor_outside_unit_box():
    with pytest.raises(InvalidDiscretePackingError):
        phi_grid([(5,)], 4, CUBE)


def test_phi_grid_wraps_torus_indices():
    p = phi_grid([(9,)], 4, TORUS)
    q = phi_grid([(1,)], 4, TORUS)
    assert p.cubes == q.cubes


def test_phi_output_always_validates():
    rng = random.Random(7)
    for _ in range(50):
        N = rng.randint(1, 5)
        dim = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 4)):
            cand = tuple(rng.randrange(2 * N) for _ in range(dim))
            ok = all(
                any((cand[j] - r[j]) % (2 * N) == N for j in range(dim))
                for r in rows
            )
            if ok:
                rows.append(cand)
        p = phi_grid(rows, N, TORUS)
        assert validate(p) is None


def test_coordinate_params_match_cube_codes():
    packings = [r.rep for r in torus_limit_census(3, include_zero_prob=True)]
    packings += [load_fixture(name) for name in sorted(fixtures())]
    packings += [rod_tiling(n) for n in (3, 4, 5)]
    packings += [hn_tiling(5), h_matrix(7)]
    packings += [r.rep for r in cube_expansion(3, 3, return_records=True)[1]]
    assert len(packings) == 45
    for p in packings:
        assert coordinate_params(p) == brute_coordinate_params(p)


def test_normalize_params_renumbers_densely():
    p = make_packing(TORUS, 2, [(T(5), T(7)), (T(5, 1), T(9))])
    q = normalize_params(p)
    assert q.cubes == ((T(0), T(1)), (T(0, 1), T(2)))


def test_json_round_trip():
    p = make_packing(CUBE, 3, [(ZERO, T(0), ONE), (ONE, T(1), T(2))])
    assert loads(dumps(p)) == p
    q = make_packing(TORUS, 2, [(T(0), T(1)), (T(0, 1), T(2))])
    assert loads(dumps(q, indent=2)) == q


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(1, 4),
    steps=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_json_round_trips_keep_the_packing_and_its_key(space, dim, steps,
                                                       seed):
    p = random_packing(random.Random(seed), space, dim, steps)
    assert validate(p) is None
    search = canon._canon_result.__wrapped__
    key = search(p)
    for q in (loads(dumps(p)), from_json_obj(to_json_obj(p))):
        assert q == p
        assert search(q) == key


@pytest.mark.parametrize(
    "space, code",
    [(CUBE, False), (CUBE, 0.0), (CUBE, True),
     (TORUS, {"p": 0, "s": True}), (TORUS, {"p": 0, "s": 1.0})],
)
def test_from_json_obj_rejects_non_integer_codes(space, code):
    # a bare code and a shift must be the integers 0 or 1, as "p" and
    # "dim" must be integers
    with pytest.raises(ValueError):
        from_json_obj({"space": space, "dim": 1, "cubes": [[code]]})


def test_json_file_round_trip(tmp_path):
    p = make_packing(TORUS, 2, [(T(0), T(1)), (T(0, 1), T(2))])
    path = tmp_path / "packing.json"
    save_file(p, path)
    assert load_file(path) == p


@st.composite
def _raw_cubes(draw):
    """A space, a dimension and raw cubes over sparse parameter ids; a
    parameter may recur across coordinates, so the packing may be invalid."""
    space = draw(st.sampled_from((TORUS, CUBE)))
    dim = draw(st.integers(1, 4))
    params = st.sampled_from((0, 2, 3, 7, 11, 40))
    if space == TORUS:
        code = st.builds(literal, params, st.integers(0, 1))
    else:
        code = st.one_of(st.sampled_from((ZERO, ONE)), st.builds(literal, params))
    cube = st.tuples(*[code] * dim)
    return space, dim, draw(st.lists(cube, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_raw_cubes())
def test_add_cube_agrees_with_make_packing(case):
    space, dim, cubes = case
    p = make_packing(space, dim, cubes[:-1])
    assert add_cube(p, list(cubes[-1])) == make_packing(space, dim, cubes)


def test_add_cube_keeps_first_coordinate_of_reused_parameter():
    p = make_packing(TORUS, 3, [(literal(3), literal(5), literal(9))])
    q = add_cube(p, (literal(7), literal(3, 1), literal(7, 1)))
    # 3 stays with coordinate 0; the new 7 goes to its first coordinate
    assert q.param_coord == ((3, 0), (5, 1), (7, 0), (9, 2))
    assert q == make_packing(TORUS, 3, p.cubes + (q.cubes[-1],))
