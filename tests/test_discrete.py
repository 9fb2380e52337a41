import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubepack.census import ResourceGuardError
from cubepack.discrete import (
    _ball_masks,
    blocking_class_key,
    blocking_counts,
    finite_census,
    grid_overlaps,
    grid_positions,
    min_maximal_packing,
    symmetry_group,
)
from cubepack.model import CUBE, TORUS, grid_blocks


def test_grid_overlaps_torus():
    assert grid_overlaps((0, 0), (1, 3), 2, TORUS)
    assert not grid_overlaps((0, 0), (2, 1), 2, TORUS)
    assert not grid_overlaps((0, 0), (0, 2), 2, TORUS)


def test_grid_overlaps_cube():
    assert grid_overlaps((0,), (1,), 2, CUBE)
    assert not grid_overlaps((0,), (2,), 2, CUBE)
    assert grid_overlaps((1,), (2,), 2, CUBE)


def _open_interval_cells(x, N, space):
    # the half-step cells (k + 1/2)/N that the open unit interval starting
    # at x/N covers, in R/2Z or in [0, 2]
    if space == TORUS:
        return {(x + d) % (2 * N) for d in range(N)}
    return set(range(x, x + N))


@st.composite
def _anchor_pair(draw):
    space = draw(st.sampled_from([TORUS, CUBE]))
    N = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    top = 2 * N - 1 if space == TORUS else N
    vec = st.lists(st.integers(0, top), min_size=n, max_size=n)
    return space, N, draw(vec), draw(vec)


@given(_anchor_pair())
def test_grid_blocks_and_grid_overlaps_agree(case):
    # a coordinate blocks exactly when the two unit intervals share no open
    # cell, and two cubes overlap exactly when every coordinate shares one
    space, N, a, b = case
    shared = [_open_interval_cells(x, N, space)
              & _open_interval_cells(y, N, space) for x, y in zip(a, b)]
    for x, y, cells in zip(a, b, shared):
        assert grid_blocks(x, y, N, space) == (not cells)
    assert grid_overlaps(a, b, N, space) == all(shared)


@pytest.mark.parametrize("space", [TORUS, CUBE])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_ball_masks_match_pairwise_overlaps(space, N):
    for n in (1, 2, 3):
        positions = grid_positions(n, N, space)
        balls = _ball_masks(positions, N, space)
        for i, p in enumerate(positions):
            expected = sum(1 << j for j, q in enumerate(positions)
                           if grid_overlaps(p, q, N, space))
            assert balls[i] == expected, (n, p)


@pytest.mark.parametrize("space, n, N", [
    (TORUS, 2, 2), (TORUS, 2, 3), (CUBE, 2, 3), (CUBE, 3, 2),
])
def test_symmetry_group_preserves_overlaps(space, n, N):
    positions = grid_positions(n, N, space)
    balls = _ball_masks(positions, N, space)
    for g in symmetry_group(n, N, space).tolist():
        assert sorted(g) == list(range(len(positions)))
        for i, ball in enumerate(balls):
            image = sum(1 << g[j] for j in range(len(positions))
                        if ball >> j & 1)
            assert image == balls[g[i]]


def test_symmetry_group_sizes():
    assert symmetry_group(1, 2, TORUS).shape == (8, 4)
    assert symmetry_group(2, 2, TORUS).shape == (128, 16)
    assert symmetry_group(2, 2, CUBE).shape == (8, 9)


def test_blocking_counts():
    counts = blocking_counts([(0, 0), (2, 2), (0, 2)], 2, TORUS)
    assert counts[0][1] == 2 and counts[0][2] == 1 and counts[1][2] == 1


def test_blocking_class_key_invariance():
    a = blocking_class_key([(0, 0), (2, 2)], 2, 2, TORUS)
    b = blocking_class_key([(1, 3), (3, 1)], 2, 2, TORUS)
    assert a == b


def test_finite_census_torus_table_counts():
    for n, tilings, packings in ((1, 1, 0), (2, 2, 0), (3, 8, 1)):
        recs = finite_census(n, 2)
        til = [r for r in recs if r.m == 2 ** n]
        non = [r for r in recs if r.m < 2 ** n]
        assert len(til) == tilings
        assert len(non) == packings
        assert sum(r.prob for r in recs) == 1
        assert min(r.m for r in recs) == (2, 4, 4)[n - 1]


def test_finite_census_torus_n3_packing_class():
    recs = finite_census(3, 2)
    non = [r for r in recs if r.m < 8]
    assert len(non) == 1 and non[0].m == 4 and non[0].nparams == 6


# sha256 of the census rows below as computed before the censuses shared
# census.sweep.  The classes are the blocking-count classes of
# blocking_class_key; a change of classification re-pins this digest.
BLOCKING_COUNT_ROWS_DIGEST = "1343428030d77dff7d46c445bbd734cb81d49267f1e65f0eb74f985a5f679ab4"


def test_blocking_count_classification_is_pinned():
    rows = []
    for n, N, space in ((3, 2, TORUS), (3, 2, CUBE), (2, 3, TORUS)):
        rows += [[n, N, space, r.key.bytes.hex(), r.m, r.nparams, str(r.prob),
                  r.aut] for r in finite_census(n, N, space)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == BLOCKING_COUNT_ROWS_DIGEST


def test_finite_census_cube_line():
    recs = finite_census(1, 2, CUBE)
    assert [(r.m, r.prob) for r in recs] == [
        (2, Fraction(2, 3)),
        (1, Fraction(1, 3)),
    ]
    recs = finite_census(1, 10, CUBE)
    mean = sum(r.prob * r.m for r in recs)
    assert mean == Fraction(13, 11)


def test_finite_census_torus_line_always_tiles():
    for N in (2, 3, 5):
        recs = finite_census(1, N, TORUS)
        assert len(recs) == 1 and recs[0].m == 2 and recs[0].prob == 1


def test_finite_census_guard():
    with pytest.raises(ResourceGuardError):
        finite_census(3, 3, TORUS)


def test_min_maximal_packing_small():
    size, witness = min_maximal_packing(1, 2)
    assert size == 2
    size, witness = min_maximal_packing(2, 2)
    assert size == 4
    size, witness = min_maximal_packing(3, 2)
    assert size == 4
    assert len(witness) == 4
    for i, a in enumerate(witness):
        for b in witness[i + 1:]:
            assert not grid_overlaps(a, b, 2, TORUS)


def test_min_maximal_packing_requires_half_grid():
    with pytest.raises(ValueError):
        min_maximal_packing(2, 3)


def test_grid_arguments_are_checked():
    for n, N in ((-1, 2), (2, 0)):
        with pytest.raises(ValueError):
            finite_census(n, N, TORUS)
    with pytest.raises(ValueError):
        min_maximal_packing(-1, 2)
    # dimension 0 and N = 1 are degenerate but valid
    assert min_maximal_packing(0, 2) == (1, [()])
    assert sum(r.prob for r in finite_census(2, 1, TORUS)) == 1


def test_min_maximal_packing_guard():
    with pytest.raises(ResourceGuardError):
        min_maximal_packing(5, 2)
