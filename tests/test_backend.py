from functools import cache

import numpy as np
import pytest
from helpers import (
    brute_min_maximal,
    reference_canonical_state,
    reference_search_min_maximal,
    root_orbit_labels,
)
from hypothesis import given
from hypothesis import strategies as st

from cubepack import backend
from cubepack.discrete import (
    _ball_masks,
    _search_symmetries,
    grid_overlaps,
    grid_positions,
    min_maximal_packing,
    symmetry_group,
)
from cubepack.model import CUBE, TORUS


def _is_maximal_packing(witness, n):
    # pairwise disjoint, and every half-step grid position meets some cube
    disjoint = not any(grid_overlaps(a, b, 2, TORUS)
                       for i, a in enumerate(witness) for b in witness[i + 1:])
    return disjoint and all(any(grid_overlaps(pos, w, 2, TORUS)
                                for w in witness)
                            for pos in grid_positions(n, 2, TORUS))


@cache
def _indexed_group(space, n, N):
    group = symmetry_group(n, N, space)
    return group, backend.anchor_rows(group)


def test_canonical_state_is_orbit_invariant():
    group, anchored = _indexed_group(TORUS, 2, 2)
    positions = (0, 5)
    base = backend.canonical_state(group, anchored, positions)
    for g in range(0, group.shape[0], 17):
        image = tuple(sorted(int(group[g, p]) for p in positions))
        assert backend.canonical_state(group, anchored, image) == base


GROUPS = [(TORUS, 1, 2), (TORUS, 2, 2), (TORUS, 3, 2), (TORUS, 2, 3),
          (CUBE, 2, 2), (CUBE, 3, 2), (CUBE, 2, 3)]


@given(st.data())
def test_canonical_state_matches_full_group_reference(data):
    # the anchored rows reach the same smallest image as the whole group
    space, n, N = data.draw(st.sampled_from(GROUPS))
    group, anchored = _indexed_group(space, n, N)
    npos = group.shape[1]
    positions = tuple(sorted(data.draw(
        st.sets(st.integers(0, npos - 1), max_size=npos))))
    assert (backend.canonical_state(group, anchored, positions)
            == reference_canonical_state(group, positions))


def test_stabilizer_order_counts():
    group = symmetry_group(1, 2, TORUS)
    # orbit of the tiling {0, 2} is {{0,2}, {1,3}}: orbit times stabilizer
    # recovers the group order
    assert backend.stabilizer_order(group, (0, 2)) * 2 == group.shape[0]


def test_search_parity_small_grids():
    # the smallest maximal half-step packing has 4 cubes in dimensions 2
    # and 3, and no maximal packing has fewer
    for n in (2, 3):
        size, witness = min_maximal_packing(n, 2)
        assert size == len(witness) == 4
        assert brute_min_maximal(n, 2) == 4
        assert _is_maximal_packing(witness, n)


def _ball_matrix(balls):
    npos = len(balls)
    return np.array([[ball >> q & 1 for q in range(npos)] for ball in balls],
                    dtype=bool)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_symmetries_keep_the_balls_and_the_chosen_pairs(n):
    # every row fixes 0 and maps each ball onto the ball of the image
    # position, every flip swaps 0 and v, and so for every v the rows K
    # fixing v and the flips r_v∘K map {0, v} onto itself
    positions = grid_positions(n, 2, TORUS)
    overlap = _ball_matrix(_ball_masks(positions, 2, TORUS))
    fixers, flips = _search_symmetries(n, 2)
    assert fixers.dtype == flips.dtype == np.uint8
    assert (fixers[:, 0] == 0).all()
    for g in np.concatenate([fixers, flips]).astype(np.intp):
        assert (overlap[np.ix_(g, g)] == overlap).all()
    for v in range(len(positions)):
        assert flips[v, 0] == v and flips[v, v] == 0
        keep = fixers[fixers[:, v] == v]
        pairs = np.concatenate([keep, flips[v][keep]])[:, [0, v]]
        assert (np.sort(pairs, axis=1) == sorted((0, v))).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_orbit_labels_are_the_stabilizer_orbits(n):
    # the depth-1 labels name the orbits of the symmetries fixing 0, which
    # the sorted values min(x, 2N - x) also name, and the depth-2 labels
    # name the orbits of the whole group's setwise stabilizer of {0, v}; a
    # coarser labelling would let the cut skip a candidate that nothing
    # proves fails
    positions = grid_positions(n, 2, TORUS)
    fixers, flips = _search_symmetries(n, 2)
    oracle = root_orbit_labels(positions, 2)
    labels = backend._orbit_labels(fixers, flips, [0])
    for p in range(len(positions)):
        assert ({q for q in range(len(positions)) if labels[q] == labels[p]}
                == {q for q in range(len(positions))
                    if oracle[q] == oracle[p]}), positions[p]
    group = symmetry_group(n, 2, TORUS)
    for v in range(1, len(positions)):
        pairs = np.sort(group[:, [0, v]], axis=1)
        stabilizer = group[(pairs == (0, v)).all(axis=1)]
        assert (backend._orbit_labels(fixers, flips, [0, v])
                == stabilizer.min(axis=0).tolist()), positions[v]


def _uncut(npos):
    # the identity as the only row and as every flip: every orbit is a
    # single position, so the search cuts nothing
    ident = np.arange(npos)
    return ident[None], np.tile(ident, (npos, 1))


def _check_orbit_cut(balls, fixers, flips, answer):
    # the cut skips only failing candidates, so the search returns the same
    # list with the symmetries as with the identity alone, at every limit
    # up to the answer
    npos = len(balls)
    for limit in range(1, answer + 1):
        cut = backend.search_min_maximal(balls, npos, limit, fixers, flips)
        assert cut == backend.search_min_maximal(balls, npos, limit,
                                                 *_uncut(npos)), limit
        assert (cut is not None) == (limit == answer), limit


@pytest.mark.parametrize("n, answer", [(1, 2), (2, 4), (3, 4), (4, 8)])
def test_root_orbit_cut_returns_the_uncut_result(n, answer):
    positions = grid_positions(n, 2, TORUS)
    _check_orbit_cut(_ball_masks(positions, 2, TORUS),
                     *_search_symmetries(n, 2), answer)


@pytest.mark.parametrize("n", range(5, 17))
def test_root_orbit_cut_on_cycles(n):
    # on the cycle C_n, whose balls are a vertex and its two neighbours,
    # the reflection x -> -x fixes 0 and x -> v - x swaps 0 and v; the
    # smallest maximal set has ceil(n / 3) vertices.  Unlike the half-step
    # grids, cycles tell a sound cut from an unsound one: cutting by the
    # orbits of the symmetries fixing 0 at every depth returns another list
    # on C_13, while the setwise stabilizers at depths 1 and 2 must not
    balls = [1 << x | 1 << (x + 1) % n | 1 << (x - 1) % n for x in range(n)]
    x = np.arange(n)
    fixers = np.array([x, -x % n], dtype=np.uint8)
    flips = np.array([(v - x) % n for v in range(n)], dtype=np.uint8)
    _check_orbit_cut(balls, fixers, flips, -(-n // 3))


def test_orbit_cut_stops_at_depth_two(monkeypatch):
    # labels are asked for at the root and below one further cube only;
    # deeper nodes would need the stabilizer of three or more cubes, which
    # _orbit_labels does not compute
    sizes = []

    def spy(fixers, flips, chosen):
        sizes.append(len(chosen))
        return orbit_labels(fixers, flips, chosen)

    orbit_labels = backend._orbit_labels
    monkeypatch.setattr(backend, "_orbit_labels", spy)
    positions = grid_positions(4, 2, TORUS)
    assert backend.search_min_maximal(
        _ball_masks(positions, 2, TORUS), len(positions), 7,
        *_search_symmetries(4, 2)) is None
    assert set(sizes) == {1, 2}


@pytest.mark.parametrize("n, top", [(1, 2), (2, 4), (3, 8), (4, 6)])
def test_search_matches_unpruned_reference(n, top):
    # the pruned search finds a packing at exactly the limits where the
    # unpruned one does; n = 4 stops below its answer 8 to stay quick
    positions = grid_positions(n, 2, TORUS)
    balls = _ball_masks(positions, 2, TORUS)
    fixers, flips = _search_symmetries(n, 2)
    for limit in range(1, top + 1):
        found = backend.search_min_maximal(balls, len(positions), limit,
                                           fixers, flips)
        ref = reference_search_min_maximal(balls, len(positions), limit)
        assert (found is None) == (ref is None), limit
        for chosen in (found, ref):
            if chosen is not None:
                assert len(chosen) <= limit
                assert _is_maximal_packing([positions[i] for i in chosen], n)


def test_min_maximal_packing_dim4():
    size, witness = min_maximal_packing(4, 2)
    assert size == len(witness) == 8
    assert _is_maximal_packing(witness, 4)
    # the search's first packing, the same with and without the root cut
    assert witness == [(0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0), (1, 1, 2, 2),
                       (2, 3, 1, 1), (3, 2, 1, 3), (3, 2, 3, 1), (2, 3, 3, 3)]
