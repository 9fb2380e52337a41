import hashlib
import json
import random
from fractions import Fraction

import pytest

from cubepack.canon import automorphism_order, canonical_key
from cubepack.census import ResourceGuardError
from cubepack.constructions import (
    ConstructionError,
    ROD_MAX_DIM,
    ROD_VECTORS,
    completion_perms,
    dihedral_perms,
    factorization_packing,
    fixtures,
    h_matrix,
    hn_tiling,
    laminated_tiling,
    load_fixture,
    one_dim_tiling,
    one_factorization,
    parse_cycles,
    product,
    rod_tiling,
)
from cubepack.extend import max_nb, max_nb_classes
from cubepack.model import (
    CUBE,
    TORUS,
    empty_packing,
    is_tiling,
    literal,
    make_packing,
    opposite,
    param_of,
    shift_of,
    validate,
)

from helpers import (
    normalize_params,
    random_packing,
    rod_probability,
    rod_recurrence,
    rod_stage_state,
)


def test_one_dim_tiling():
    p = one_dim_tiling()
    assert p.m == 2 and p.nparams == 1 and p.dim == 1
    assert validate(p) is None and is_tiling(p)


def test_product_small():
    p = product(one_dim_tiling(), one_dim_tiling())
    assert p.dim == 2 and p.m == 4 and p.nparams == 3
    assert validate(p) is None and is_tiling(p)


def test_product_counts_random():
    rng = random.Random(7)
    for _ in range(10):
        p = random_packing(rng, TORUS, rng.randrange(1, 4), rng.randrange(1, 4))
        q = random_packing(rng, TORUS, rng.randrange(1, 4), rng.randrange(1, 4))
        pq = product(p, q)
        assert pq.dim == p.dim + q.dim
        assert pq.m == p.m * q.m
        assert pq.nparams == p.nparams + p.m * q.nparams
        assert validate(pq) is None


def test_product_offsets_past_sparse_parameter_ids():
    # the laminated 2-D tiling with parameters {0, 2, 3}: offsetting copies
    # by nparams would reuse parameter 4 in two coordinates
    t = literal
    q = make_packing(TORUS, 2, [(t(0), t(2)), (t(0), t(2, 1)),
                                (t(0, 1), t(3)), (t(0, 1), t(3, 1))])
    assert validate(q) is None and q.nparams == 3 and q.param_bound == 4
    pq = product(laminated_tiling(1), q)
    assert validate(pq) is None
    assert canonical_key(pq) == canonical_key(
        product(laminated_tiling(1), normalize_params(q)))
    assert canonical_key(product(q, laminated_tiling(1))) == canonical_key(
        product(normalize_params(q), laminated_tiling(1)))


def test_product_extensibility():
    k4 = factorization_packing(one_factorization(4))
    single = make_packing(TORUS, 1, [(literal(0, 0),)])
    assert max_nb(k4) is None
    assert max_nb(product(k4, k4)) is None
    assert max_nb(product(single, k4)) is not None
    assert max_nb(product(k4, single)) is not None
    assert max_nb(product(single, single)) is not None


def test_product_tiling_closure():
    pq = product(laminated_tiling(2), one_dim_tiling())
    assert is_tiling(pq) and validate(pq) is None


def test_product_is_associative_but_not_commutative():
    one = one_dim_tiling()
    left = product(product(one, one), one)
    right = product(one, product(one, one))
    assert left.m == right.m == 8
    assert left.nparams == right.nparams == 7
    assert canonical_key(left) == canonical_key(right)
    rod = rod_tiling(3)
    assert product(one, rod).nparams == 1 + 2 * 6
    assert product(rod, one).nparams == 6 + 8 * 1


def test_product_rejects_cube_space():
    box = empty_packing(CUBE, 1)
    with pytest.raises(ConstructionError):
        product(box, one_dim_tiling())


def test_h_matrix_small():
    p = h_matrix(3)
    assert p.m == 3 and p.nparams == 6
    assert validate(p) is None


def test_h_matrix_five_matches_fixture():
    assert h_matrix(5).cubes == load_fixture("h5").cubes


def test_h_matrix_symmetry_contains_dihedral():
    # Orders frozen from the brute relabeling search in helpers; the
    # 2n coordinate rotations/reflections always embed, and n = 5 gains
    # an index-doubling symmetry on the two circulant layers.
    assert automorphism_order(h_matrix(3)) == 6
    assert automorphism_order(h_matrix(5)) == 20
    for n in (3, 5):
        assert automorphism_order(h_matrix(n)) % (2 * n) == 0


def test_h_matrix_prefix_keeps_max_freedom():
    for n in (3, 5):
        p = h_matrix(n)
        for i in range(1, n + 1):
            prefix = make_packing(TORUS, n, p.cubes[:i])
            classes = max_nb_classes(prefix)
            assert classes and classes[0].nb == n - i


def test_h_matrix_rejects_even_or_tiny():
    for n in (1, 2, 4):
        with pytest.raises(ConstructionError):
            h_matrix(n)


def test_parse_cycles():
    assert parse_cycles("(1,2,3)", 3) == (1, 2, 0)
    assert parse_cycles("(1,2)(3,5,4)", 5) == (1, 0, 4, 2, 3)
    with pytest.raises(ConstructionError):
        parse_cycles("(1,2)(2,3)", 3)
    with pytest.raises(ConstructionError):
        parse_cycles("(0,1)", 3)


def test_dihedral_perms():
    perms = set(dihedral_perms(5))
    assert len(perms) == 10
    assert tuple(range(5)) in perms


def test_hn_tiling_three():
    p = hn_tiling(3)
    assert p.m == 8 and p.nparams == 6
    assert validate(p) is None and is_tiling(p)
    assert canonical_key(p) == canonical_key(rod_tiling(3))


def test_hn_tiling_five():
    p = hn_tiling(5)
    assert p.m == 32 and p.nparams == 15
    assert validate(p) is None and is_tiling(p)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_hn_tiling_is_a_minimal_parameter_tiling(n):
    p = hn_tiling(n)
    assert validate(p) is None and is_tiling(p)
    assert (p.m, p.nparams) == (2 ** n, n * (n + 1) // 2)


# sha256 of the JSON of the cube tuples of hn_tiling(3) and hn_tiling(5).
# Their table orbits are closed under inversion, so these cubes do not
# depend on whether the table's permutations are read as inverses.
HN_CUBES_DIGEST = "816d893453e7ae32baad5c634401e891073790c2a1309f89ba100b7853a84a61"


def test_hn_tiling_cubes_are_pinned():
    cubes = [hn_tiling(n).cubes for n in (3, 5)]
    digest = hashlib.sha256(json.dumps(cubes).encode()).hexdigest()
    assert digest == HN_CUBES_DIGEST


def test_hn_tiling_rejects_bad_perms(monkeypatch, tmp_path):
    # a completion table whose orbits do not fill the tiling
    (tmp_path / "table4").mkdir()
    (tmp_path / "table4" / "perms.json").write_text('{"5": ["(1,2,3,4,5)"]}')
    monkeypatch.setenv("CUBEPACK_FIXTURES", str(tmp_path))
    with pytest.raises(ConstructionError):
        hn_tiling(5)
    with pytest.raises(ConstructionError):
        hn_tiling(4)
    with pytest.raises(ConstructionError):
        hn_tiling(11)


def test_one_factorization_partitions_edges():
    for v in (4, 6, 8):
        matchings = one_factorization(v)
        assert len(matchings) == v - 1
        seen = set()
        for matching in matchings:
            covered = set()
            for a, b in matching:
                assert a < b
                assert (a, b) not in seen
                seen.add((a, b))
                covered.update((a, b))
            assert covered == set(range(v))
        assert len(seen) == v * (v - 1) // 2
    with pytest.raises(ConstructionError):
        one_factorization(5)


def test_factorization_packing_k4():
    p = factorization_packing(one_factorization(4))
    assert p.dim == 3 and p.m == 4 and p.nparams == 6
    assert validate(p) is None
    assert max_nb(p) is None


def test_factorization_packing_k6():
    p = factorization_packing(one_factorization(6))
    assert p.dim == 5 and p.m == 6 and p.nparams == 15
    assert validate(p) is None
    assert max_nb(p) is None


def test_factorization_packing_each_literal_once():
    for v in (4, 6):
        p = factorization_packing(one_factorization(v))
        for j in range(p.dim):
            column = [z[j] for z in p.cubes]
            assert len(set(column)) == len(column)
            for c in column:
                assert column.count(opposite(c)) == 1


def test_rod_tiling_three_is_the_rod_skeleton():
    p = rod_tiling(3)
    assert p.cubes == ROD_VECTORS
    assert p.m == 8 and p.nparams == 6
    assert validate(p) is None and is_tiling(p)


def _explicit_rod_tiling(n):
    """Each rod axis followed by its own parameter-renamed copy of the
    laminated (n-3)-dimensional tiling, parameters numbered rod by rod."""
    filler = laminated_tiling(n - 3)
    cubes = []
    for i, h in enumerate(ROD_VECTORS):
        base = 6 + i * filler.nparams
        cubes += [h + tuple(literal(base + param_of(c), shift_of(c)) for c in w)
                  for w in filler.cubes]
    return make_packing(TORUS, n, cubes)


def test_rod_tiling_higher_dimensions():
    p4 = rod_tiling(4)
    assert p4.m == 16 and p4.nparams == 14
    assert validate(p4) is None and is_tiling(p4)
    p5 = rod_tiling(5)
    assert p5.m == 32 and p5.nparams == 30
    assert validate(p5) is None and is_tiling(p5)
    for n in range(4, ROD_MAX_DIM + 1):
        assert rod_tiling(n) == _explicit_rod_tiling(n)


def test_rod_tiling_rejects_bad_input():
    with pytest.raises(ConstructionError):
        rod_tiling(2)


def test_rod_tiling_size_guard():
    assert rod_tiling(ROD_MAX_DIM).m == 2 ** ROD_MAX_DIM
    with pytest.raises(ResourceGuardError):
        rod_tiling(ROD_MAX_DIM + 1)
    with pytest.raises(ResourceGuardError):
        rod_tiling(100000)
    big = rod_tiling(ROD_MAX_DIM + 1, allow_large=True)
    assert big.m == 2 ** (ROD_MAX_DIM + 1) and is_tiling(big)


def test_rod_recurrence_first_stage():
    assert rod_recurrence(4).probs[(3, 1)] == Fraction(1, 2)
    assert rod_recurrence(5).probs[(3, 1)] == Fraction(3, 5)
    assert rod_recurrence(5).probs[(4, 1)] == Fraction(3, 100)
    with pytest.raises(ConstructionError):
        rod_recurrence(3)
    with pytest.raises(ConstructionError):
        rod_probability(3)


def test_rod_recurrence_mass_is_monotone():
    for n in range(4, 13):
        state = rod_recurrence(n)
        assert all(0 <= v <= 1 for v in state.probs.values())
        totals = state.stage_totals()
        for h in range(4, 16):
            assert totals[h] <= totals[h - 1]
        assert rod_probability(n) == state.probs[(15, 1)]


def test_rod_stage_states_replay():
    # Extension counts of explicit partial rod structures; the two states
    # whose dimension-4 counts depart from the closed forms used above it.
    assert len(max_nb_classes(rod_stage_state(3, (0, 1, 2, 6)))) == 4
    assert len(max_nb_classes(rod_stage_state(4, (0, 1, 2, 6)))) == 13
    assert len(max_nb_classes(rod_stage_state(5, (0, 1, 2, 6)))) == 28
    assert len(max_nb_classes(rod_stage_state(3, (0, 1, 2, 3, 4, 6)))) == 2
    assert len(max_nb_classes(rod_stage_state(4, (0, 1, 2, 3, 4, 6)))) == 4
    assert len(max_nb_classes(rod_stage_state(5, (0, 1, 2, 3, 4, 6)))) == 6


def test_rod_probability_dimension_four():
    # Frozen from the exact dimension-4 census: the mass of the rod class.
    assert rod_probability(4) == Fraction(89, 14976)
    assert rod_recurrence(4).delta4_2 == 13


def test_fixture_corpus_loads():
    corpus = fixtures()
    expected = {f"dim6-{i}" for i in range(1, 10)} | {"dim4-1over480", "h5"}
    assert expected <= set(corpus)
    for name, p in corpus.items():
        assert validate(p) is None, name
    assert corpus["dim6-1"].nparams == 21
    assert all(corpus[f"dim6-{i}"].nparams == 22 for i in range(2, 10))
    assert corpus["dim4-1over480"].m == 6
    assert corpus["dim4-1over480"].nparams == 10
    with pytest.raises(ConstructionError):
        load_fixture("nonsense")


def test_completion_perm_table():
    table = completion_perms()
    assert {len(table[k]) for k in ("3", "5", "7", "9")} == {1, 3, 9, 29}
    assert len(table["3"]) == 1 and len(table["9"]) == 29
