import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from helpers import reference_min_matrix_order, reference_symmetry_group
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepack import discrete
from cubepack.census import ResourceGuardError
from cubepack.discrete import (
    _ball_masks,
    _min_reading,
    _twin_classes,
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


@pytest.mark.parametrize("space", [TORUS, CUBE])
@pytest.mark.parametrize("n, N", [(0, 2), (1, 2), (2, 2), (3, 2), (2, 3),
                                  (3, 3)])
def test_symmetry_group_matches_the_per_combination_loop(space, n, N):
    group = symmetry_group(n, N, space)
    ref = reference_symmetry_group(n, N, space)
    assert group.dtype == ref.dtype
    assert group.shape == ref.shape
    assert group.tobytes() == ref.tobytes()


def test_symmetry_group_past_int16_positions():
    # 201**2 positions overflow int16 indices, so the rows are built in
    # int64 there
    group = symmetry_group(2, 200, CUBE)
    assert group.tobytes() == reference_symmetry_group(2, 200, CUBE).tobytes()


def test_symmetry_group_leaves_numpy_ma_unimported():
    # np.unique(axis=0) would import numpy.ma, about 8 ms of a cold call
    code = ("import sys\n"
            "from cubepack.discrete import symmetry_group\n"
            "from cubepack.model import TORUS\n"
            "symmetry_group(3, 2, TORUS)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


def _reading(counts, order):
    return [counts[order[i]][order[j]]
            for i in range(len(order)) for j in range(i)]


@pytest.mark.parametrize("n, N, space", [
    (1, 2, CUBE), (2, 2, CUBE), (3, 2, CUBE), (1, 10, CUBE),
    (1, 2, TORUS), (2, 2, TORUS), (3, 2, TORUS), (2, 3, TORUS),
    (3, 3, TORUS), (2, 1, TORUS),
])
def test_blocking_class_key_reads_like_the_full_tie_search(monkeypatch, n,
                                                           N, space):
    # every terminal count matrix of the census, read through the order of
    # the former search that tried every unused cube at each step
    seen = []

    def record(anchors, *args):
        seen.append(anchors)
        return blocking_class_key(anchors, *args)

    monkeypatch.setattr(discrete, "blocking_class_key", record)
    finite_census(n, N, space, allow_large=True)
    assert seen
    for anchors in seen:
        counts = blocking_counts(anchors, N, space)
        data = bytes(_reading(counts, reference_min_matrix_order(counts)))
        key = blocking_class_key(anchors, n, N, space)
        assert key.bytes.rsplit(b"|", 1)[1] == data.hex().encode()


@st.composite
def _twinned_matrix(draw):
    # a symmetric matrix with zero diagonal in which some cubes copy the
    # row of another, so that they become its twins
    m = draw(st.integers(1, 6))
    counts = [[0] * m for _ in range(m)]
    for a, b in combinations(range(m), 2):
        counts[a][b] = counts[b][a] = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3)) if m > 1 else 0):
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                             unique=True))
        for x in range(m):
            if x not in (a, b):
                counts[b][x] = counts[x][b] = counts[a][x]
    return counts


@settings(max_examples=300, deadline=None)
@given(_twinned_matrix())
def test_min_reading_is_the_least_over_all_orders(counts):
    best = min(_reading(counts, order)
               for order in permutations(range(len(counts))))
    assert _min_reading(counts) == best


@settings(max_examples=300, deadline=None)
@given(_twinned_matrix())
def test_twin_classes_are_the_twin_relation(counts):
    # the classes partition the cubes, and two cubes share one exactly when
    # they are twins, so twinship is an equivalence relation; swapping two
    # twins leaves the matrix unchanged
    m = len(counts)
    classes = _twin_classes(counts)
    assert sorted(v for cls in classes for v in cls) == list(range(m))
    assert all(cls == sorted(cls) for cls in classes)
    class_of = {v: i for i, cls in enumerate(classes) for v in cls}
    for a, b in combinations(range(m), 2):
        twins = all(counts[a][x] == counts[b][x]
                    for x in range(m) if x not in (a, b))
        assert twins == (class_of[a] == class_of[b])
        if twins:
            swap = list(range(m))
            swap[a], swap[b] = b, a
            assert [[counts[swap[i]][swap[j]] for j in range(m)]
                    for i in range(m)] == counts


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 0 and 4: the calibrated blocking-count merge joins "
    "states with different parameter counts, so the census raises "
    "'blocking classes merged unequal shapes'",
)
def test_cube_census_n2_at_third_steps_classifies():
    recs = finite_census(2, 3, CUBE)
    assert sum(r.prob for r in recs) == 1


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


@pytest.mark.parametrize("N, expected", [
    (2, Fraction(2648, 333)),
    (3, Fraction(10792, 1365)),
])
def test_torus_grid_census_gives_the_finite_n_expectation(N, expected):
    # the independent oracle for finite-N values: the grid census calls
    # nothing of canon, extend or ratfun, and its E(M) at n = 3 is the
    # type process's (560N^3 - 528N^2 + 144N - 8)/(72N^3 - 72N^2 + 24N - 3);
    # only E(M) and the mass are pinned, not the class rows
    recs = finite_census(3, N, TORUS, allow_large=True)
    assert sum(r.prob for r in recs) == 1
    assert sum(r.prob * r.m for r in recs) == expected
    assert expected == Fraction(560 * N**3 - 528 * N**2 + 144 * N - 8,
                                72 * N**3 - 72 * N**2 + 24 * N - 3)


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
