import pytest
from helpers import brute_min_maximal, reference_search_min_maximal

from cubepack import backend
from cubepack.discrete import (
    _ball_masks,
    grid_overlaps,
    grid_positions,
    min_maximal_packing,
    symmetry_group,
)
from cubepack.model import TORUS


def _is_maximal_packing(witness, n):
    # pairwise disjoint, and every half-step grid position meets some cube
    disjoint = not any(grid_overlaps(a, b, 2, TORUS)
                       for i, a in enumerate(witness) for b in witness[i + 1:])
    return disjoint and all(any(grid_overlaps(pos, w, 2, TORUS)
                                for w in witness)
                            for pos in grid_positions(n, 2, TORUS))


def test_canonical_state_is_orbit_invariant():
    group = symmetry_group(2, 2, TORUS)
    positions = (0, 5)
    base = backend.canonical_state(group, positions)
    for g in range(0, group.shape[0], 17):
        image = tuple(sorted(int(group[g, p]) for p in positions))
        assert backend.canonical_state(group, image) == base


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


@pytest.mark.parametrize("n, top", [(1, 2), (2, 4), (3, 8), (4, 6)])
def test_search_matches_unpruned_reference(n, top):
    # the pruned search finds a packing at exactly the limits where the
    # unpruned one does; n = 4 stops below its answer 8 to stay quick
    positions = grid_positions(n, 2, TORUS)
    balls = _ball_masks(positions, 2, TORUS)
    for limit in range(1, top + 1):
        found = backend.search_min_maximal(balls, len(positions), limit)
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
