"""Extension classes, class sizes, and the maximal-nb classes of the limit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_extension_classes,
    count_addable_positions,
    dp_max_nb_classes,
    random_packing,
    realize,
    reference_extension_classes,
)

from cubepack import census, montecarlo
from cubepack.constructions import (
    factorization_packing,
    fixtures,
    load_fixture,
    one_factorization,
)
from cubepack.extend import (
    FRESH,
    ExtensionClass,
    class_representative,
    class_sizes,
    classes_after,
    enumerate_extension_classes,
    max_nb,
    max_nb_classes,
)
from cubepack.model import (
    CUBE,
    ONE,
    TORUS,
    ZERO,
    add_cube,
    empty_packing,
    literal,
    make_packing,
    validate,
)

T = literal


def test_single_torus_cube_has_five_classes():
    p = make_packing(TORUS, 2, [(T(0), T(1))])
    classes = enumerate_extension_classes(p)
    got = {(c.coords, c.nb) for c in classes}
    assert got == {
        ((T(0), T(1, 1)), 0),
        ((T(0, 1), T(1)), 0),
        ((T(0, 1), T(1, 1)), 0),
        ((T(0, 1), FRESH), 1),
        ((FRESH, T(1, 1)), 1),
    }


def test_enumeration_order_is_deterministic_lexicographic():
    p = make_packing(TORUS, 2, [(T(0), T(1))])
    classes = enumerate_extension_classes(p)
    assert [c.coords for c in classes] == [
        (T(0), T(1, 1)),
        (T(0, 1), T(1)),
        (T(0, 1), T(1, 1)),
        (T(0, 1), FRESH),
        (FRESH, T(1, 1)),
    ]
    assert classes == enumerate_extension_classes(p)


def test_single_torus_cube_class_sizes_at_n_ten():
    p = make_packing(TORUS, 2, [(T(0), T(1))])
    classes = enumerate_extension_classes(p)
    sizes = {c.coords: s for c, s in zip(classes, class_sizes(p, classes, 10))}
    assert sizes == {
        (T(0), T(1, 1)): 1,
        (T(0, 1), T(1)): 1,
        (T(0, 1), T(1, 1)): 1,
        (T(0, 1), FRESH): 18,
        (FRESH, T(1, 1)): 18,
    }
    # the finite-N step probabilities are the size shares
    total = sum(sizes.values())
    assert Fraction(sizes[(T(0, 1), FRESH)], total) == Fraction(18, 39)
    assert Fraction(sizes[(T(0), T(1, 1))], total) == Fraction(1, 39)


def test_two_blocked_torus_cubes_have_six_limit_classes():
    p = make_packing(TORUS, 3, [(T(0), T(1), T(2)), (T(0, 1), T(3), T(4))])
    classes = max_nb_classes(p)
    assert len(classes) == 6
    assert all(c.nb == 1 for c in classes)
    got = {c.coords for c in classes}
    assert got == {
        (T(0, 1), T(3, 1), FRESH),
        (T(0, 1), FRESH, T(4, 1)),
        (T(0), T(1, 1), FRESH),
        (FRESH, T(1, 1), T(4, 1)),
        (T(0), FRESH, T(2, 1)),
        (FRESH, T(3, 1), T(2, 1)),
    }


def test_empty_cube_space_distribution():
    # the finite-N step probabilities at N = 4 are the size shares
    p = empty_packing(CUBE, 1)
    classes = enumerate_extension_classes(p)
    sizes = class_sizes(p, classes, 4)
    dist = {c.coords: Fraction(s, sum(sizes)) for c, s in zip(classes, sizes)}
    assert dist == {
        (ZERO,): Fraction(1, 5),
        (ONE,): Fraction(1, 5),
        (FRESH,): Fraction(3, 5),
    }


def test_limit_distribution_of_empty_packing_is_all_fresh():
    for space in (TORUS, CUBE):
        p = empty_packing(space, 3)
        assert max_nb_classes(p) == (ExtensionClass((FRESH, FRESH, FRESH), 3),)


def test_torus_tiling_is_not_extensible():
    p = make_packing(TORUS, 1, [(T(0),), (T(0, 1),)])
    assert enumerate_extension_classes(p) == ()
    assert max_nb_classes(p) == ()
    assert max_nb(p) is None


def test_lone_interior_cube_blocks_everything_in_cube_space():
    # an anchor interior in every coordinate leaves no addable position
    p = make_packing(CUBE, 2, [(T(0), T(1))])
    assert enumerate_extension_classes(p) == ()
    assert max_nb(p) is None


def test_extension_witness_validates():
    p = make_packing(TORUS, 3, [(T(0), T(1), T(2)), (T(0, 1), T(3), T(4))])
    assert max_nb(p) is not None
    witness = max_nb_classes(p)[0]
    grown = add_cube(p, class_representative(p, witness))
    assert validate(grown) is None
    assert grown.m == 3


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(1, 4),
    steps=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_class_representative_validates(space, dim, steps, seed):
    # grown by the oracle, so the packings do not depend on the walk
    p = random_packing(random.Random(seed), space, dim, steps,
                       brute_extension_classes)
    classes = enumerate_extension_classes(p)
    for c in classes:
        assert validate(add_cube(p, class_representative(p, c))) is None
    assert (max_nb(p) is None) == (classes == ())


def test_class_representative_uses_fresh_params():
    p = make_packing(TORUS, 2, [(T(0), T(1))])
    c = [c for c in enumerate_extension_classes(p) if c.nb == 1][0]
    rep = class_representative(p, c)
    assert rep == (T(0, 1), T(2)) or rep == (T(2), T(1, 1))


def test_poss_complex_of_boundary_cube():
    # read with FRESH as a free direction, the classes are the faces of
    # [0,1]^2 whose points give addable cubes: two vertices and an edge
    p = make_packing(CUBE, 2, [(ZERO, T(0))])
    assert frozenset(enumerate_extension_classes(p)) == frozenset(
        [
            ExtensionClass((ONE, ZERO), 0),
            ExtensionClass((ONE, ONE), 0),
            ExtensionClass((ONE, FRESH), 1),
        ]
    )
    assert max_nb(p) == 1


def test_serialize_class_patterns():
    p = make_packing(CUBE, 2, [(ZERO, T(0))])
    assert [c.coords for c in enumerate_extension_classes(p)] == [
        (ONE, ZERO),
        (ONE, ONE),
        (ONE, FRESH),
    ]


def test_at_most_n_torus_cubes_are_extensible():
    # The easy half of the paper's minimal non-extensible count: the cube
    # holding, in coordinate i, the opposite of cube i's literal blocks
    # every cube, so at most n cubes never block all of the torus.
    rng = random.Random(31)
    for n in range(1, 7):
        for _ in range(50):
            p = random_packing(rng, TORUS, n, rng.randint(0, n))
            assert p.m <= n
            assert max_nb(p) is not None


@pytest.mark.parametrize("n", [3, 5, 7])
def test_factorization_packing_is_nonextensible_with_n_plus_1_cubes(n):
    # each literal lies in one cube only, so n coordinates block at most n
    # of the n + 1 cubes: n + 1 is the minimum for odd n
    p = factorization_packing(one_factorization(n + 1))
    assert p.m == n + 1
    assert max_nb(p) is None


def test_max_nb_classes_agree_with_full_enumeration():
    rng = random.Random(11)
    for space in (TORUS, CUBE):
        for _ in range(40):
            dim = rng.randint(1, 3)
            p = random_packing(rng, space, dim, rng.randint(0, 4))
            classes = brute_extension_classes(p)
            top = max((c.nb for c in classes), default=None)
            assert max_nb_classes(p) == tuple(c for c in classes
                                              if c.nb == top)


def _assert_max_nb_matches(p, classes):
    top = max((c.nb for c in classes), default=None)
    assert max_nb(p) == top
    assert max_nb_classes(p) == tuple(c for c in classes if c.nb == top)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(0, 5),
    steps=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_nb_matches_brute_force(space, dim, steps, seed):
    # grown by the oracle, so the packings do not depend on the cover walk
    p = random_packing(random.Random(seed), space, dim, steps,
                       brute_extension_classes)
    classes = brute_extension_classes(p)
    _assert_max_nb_matches(p, classes)
    top = max((c.nb for c in classes), default=None)
    assert dp_max_nb_classes(p) == tuple(c for c in classes if c.nb == top)


def _dp_max_nb(p):
    classes = dp_max_nb_classes(p)
    return classes[0].nb if classes else None


@pytest.mark.parametrize("space", (TORUS, CUBE))
@pytest.mark.parametrize("dim", range(4))
def test_max_nb_of_the_empty_packing(space, dim):
    p = empty_packing(space, dim)
    assert max_nb(p) == _dp_max_nb(p) == dim


@pytest.mark.parametrize("space", (TORUS, CUBE))
def test_max_nb_of_one_cube_at_dimension_zero(space):
    # the cube fills the zero-dimensional space and no coordinate can
    # block it
    p = make_packing(space, 0, [()])
    assert max_nb(p) is None
    assert _dp_max_nb(p) is None


def test_max_nb_when_a_cube_space_coordinate_holds_no_boundary_code():
    # coordinate j is always grown fresh, so it holds interior parameters
    # only and no cube has an option there
    rng = random.Random(21)
    for _ in range(60):
        dim = rng.randint(1, 5)
        j = rng.randrange(dim)

        def fresh_at_j(p):
            return tuple(c for c in enumerate_extension_classes(p)
                         if c.coords[j] == FRESH)

        p = random_packing(rng, CUBE, dim, rng.randint(1, 8), fresh_at_j)
        assert validate(p) is None
        assert p.m > 0
        assert all(cube[j] not in (ZERO, ONE) for cube in p.cubes)
        assert max_nb(p) == _dp_max_nb(p)


def test_max_nb_matches_the_dp_on_random_torus_packings():
    rng = random.Random(22)
    for _ in range(150):
        p = random_packing(rng, TORUS, rng.randint(1, 6), rng.randint(0, 8))
        assert p.m <= 8
        assert max_nb(p) == _dp_max_nb(p)


def test_max_nb_matches_oracle_on_positive_path_states(monkeypatch):
    # every subset state the positive-path sweep visits, dimension-6
    # Figure 3 packings included; the brute product is too big there, so
    # the oracle is the coordinate DP, itself checked against it above.
    # Where the bracket closed (no max_nb call), its best must be max_nb.
    seen, closed = {}, {}
    walks = 0
    real_step, real_max_nb = census._positive_cubes, census.max_nb

    def counting_max_nb(p):
        nonlocal walks
        walks += 1
        return real_max_nb(p)

    def record(sub, cubes, bound=None):
        before = walks
        keys, best = real_step(sub, cubes, bound)
        seen[sub] = None
        if walks == before:
            closed[sub] = best
        return keys, best

    monkeypatch.setattr(census, "max_nb", counting_max_nb)
    monkeypatch.setattr(census, "_positive_cubes", record)
    for name in sorted(fixtures()):
        census.positive_path_exists(load_fixture(name))
    monkeypatch.undo()
    assert len(seen) > 1500
    assert 0 < len(closed) < len(seen)
    for p in seen:
        _assert_max_nb_matches(p, dp_max_nb_classes(p))
    for p, best in closed.items():
        assert best == max_nb(p)


def test_class_sizes_partition_all_addable_grid_positions():
    rng = random.Random(12)
    for space in (TORUS, CUBE):
        for _ in range(40):
            dim = rng.randint(1, 3)
            p = random_packing(rng, space, dim, rng.randint(0, 4))
            base = max(
                (p.nparams and max(_params_per_coord(p, j) for j in range(dim))) or 0,
                1,
            )
            for N in (base + 1, base + 2, base + 3):
                anchors = realize(p, N)
                total = sum(class_sizes(p, enumerate_extension_classes(p), N))
                assert total == count_addable_positions(anchors, dim, N, space)


def _params_per_coord(p, j):
    from cubepack.model import is_literal, param_of

    return len({param_of(c[j]) for c in p.cubes if is_literal(c[j])})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(0, 4),
    steps=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_enumeration_matches_brute_force(space, dim, steps, seed):
    # grown by the oracle, so the packings do not depend on the walk
    p = random_packing(random.Random(seed), space, dim, steps,
                       brute_extension_classes)
    assert enumerate_extension_classes(p) == brute_extension_classes(p)


def test_enumeration_matches_brute_force_on_census_sweep(monkeypatch):
    # the sweep steps by the oracle, so the packings do not depend on the walk
    seen = {}

    def record(p):
        seen[p] = brute_extension_classes(p)
        return seen[p]

    monkeypatch.setattr(census, "enumerate_extension_classes", record)
    census.torus_limit_census(3, include_zero_prob=True)
    assert len(seen) > 100
    for p, want in seen.items():
        assert enumerate_extension_classes(p) == want


@pytest.mark.parametrize(
    "space, dim, N, trials",
    [(TORUS, 5, 50, 4), (TORUS, 6, 4, 2), (CUBE, 4, 7, 200)],
)
def test_enumeration_matches_reference_walk_on_sampler_states(
        monkeypatch, space, dim, N, trials):
    # two or more coordinates above the last two, on the states a short
    # simulation visits; every step goes through add_cube whether or not
    # the sampler's cache holds the child, so all transitions are seen;
    # one CPU keeps every trial in this process, where the spy is
    seen = set()

    def record(p, cube):
        seen.add((p, tuple(cube)))
        return add_cube(p, cube)

    monkeypatch.setattr(montecarlo, "add_cube", record)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    montecarlo.estimate_expectation(montecarlo.SimConfig(
        space=space, dim=dim, N=N, trials=trials, seed=1))
    monkeypatch.undo()
    assert len(seen) > 25
    for p, cube in seen:
        child = add_cube(p, cube)
        want = reference_extension_classes(child)
        assert enumerate_extension_classes(child) == want
        parent = reference_extension_classes(p)
        assert classes_after(p, parent, class_sizes(p, parent, N), cube, N) \
            == (want, class_sizes(child, want, N))


def _assert_classes_after_every_class(p):
    # the carried sizes of every child class, zero ones included: at N = 2
    # and 3 the free counts reach 0
    classes = enumerate_extension_classes(p)
    sizes = {N: class_sizes(p, classes, N) for N in (2, 3, 50)}
    for c in classes:
        cube = class_representative(p, c)
        child = add_cube(p, cube)
        want = enumerate_extension_classes(child)
        for N, parent_sizes in sizes.items():
            got = classes_after(p, classes, parent_sizes, cube, N)
            assert got == (want, class_sizes(child, want, N)), (p, c, N)
    return classes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(0, 5),
    steps=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_classes_after_matches_the_walk_on_random_growth(
        space, dim, steps, seed):
    # every class of every state on a random growth path, the path itself
    # chosen uniformly among the classes
    rng = random.Random(seed)
    p = empty_packing(space, dim)
    for _ in range(steps + 1):
        classes = _assert_classes_after_every_class(p)
        if not classes:
            break
        p = add_cube(p, class_representative(p, rng.choice(classes)))


def test_classes_after_matches_the_walk_on_the_census_sweep(monkeypatch):
    seen = []
    walk = census.enumerate_extension_classes

    def record(p):
        seen.append(p)
        return walk(p)

    monkeypatch.setattr(census, "enumerate_extension_classes", record)
    census.torus_limit_census(3, include_zero_prob=True)
    monkeypatch.undo()
    assert len(seen) > 100
    for p in seen:
        _assert_classes_after_every_class(p)
