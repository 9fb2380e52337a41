from functools import cache

import pytest
from helpers import (
    brute_min_maximal,
    reference_canonical_state,
    reference_search_min_maximal,
)
from hypothesis import given
from hypothesis import strategies as st

from cubepack import backend
from cubepack.discrete import (
    _ball_masks,
    _root_orbit_labels,
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_orbit_labels_are_the_stabilizer_orbits(n):
    # equal labels exactly on the orbits of the symmetries fixing 0; a
    # coarser labelling would let the root cut skip a candidate that
    # nothing proves fails
    positions = grid_positions(n, 2, TORUS)
    labels = _root_orbit_labels(positions, 2)
    stabilizer = [g for g in symmetry_group(n, 2, TORUS).tolist()
                  if g[0] == 0]
    for p in range(len(positions)):
        orbit = {g[p] for g in stabilizer}
        assert orbit == {q for q in range(len(positions))
                         if labels[q] == labels[p]}, positions[p]


def _check_root_cut(balls, labels, answer):
    # the cut skips only failing root candidates, so the search returns the
    # same list with the orbit labels as with one label per position, at
    # every limit up to the answer
    npos = len(balls)
    for limit in range(1, answer + 1):
        cut = backend.search_min_maximal(balls, npos, limit, labels)
        assert cut == backend.search_min_maximal(balls, npos, limit,
                                                 range(npos)), limit
        assert (cut is not None) == (limit == answer), limit


@pytest.mark.parametrize("n, answer", [(1, 2), (2, 4), (3, 4), (4, 8)])
def test_root_orbit_cut_returns_the_uncut_result(n, answer):
    positions = grid_positions(n, 2, TORUS)
    _check_root_cut(_ball_masks(positions, 2, TORUS),
                    _root_orbit_labels(positions, 2), answer)


@pytest.mark.parametrize("n", range(5, 17))
def test_root_orbit_cut_on_cycles(n):
    # on the cycle C_n, whose balls are a vertex and its two neighbours,
    # the reflection x -> -x fixes 0, so min(x, n - x) names orbits; the
    # smallest maximal set has ceil(n / 3) vertices.  Unlike the half-step
    # grids, cycles tell the root cut from a cut made at every depth: C_13
    # returns another list under the latter
    balls = [1 << x | 1 << (x + 1) % n | 1 << (x - 1) % n for x in range(n)]
    _check_root_cut(balls, [min(x, n - x) for x in range(n)], -(-n // 3))


@pytest.mark.parametrize("n, top", [(1, 2), (2, 4), (3, 8), (4, 6)])
def test_search_matches_unpruned_reference(n, top):
    # the pruned search finds a packing at exactly the limits where the
    # unpruned one does; n = 4 stops below its answer 8 to stay quick
    positions = grid_positions(n, 2, TORUS)
    balls = _ball_masks(positions, 2, TORUS)
    labels = _root_orbit_labels(positions, 2)
    for limit in range(1, top + 1):
        found = backend.search_min_maximal(balls, len(positions), limit,
                                           labels)
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
