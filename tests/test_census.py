import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from helpers import (
    brute_extension_classes,
    brute_positive_orders,
    closed_form_expansion_polys,
    random_packing,
)

from cubepack import census, extend
from cubepack.canon import canonical_key
from cubepack.census import (
    ResourceGuardError,
    cube_expansion,
    expected_cubes_limit,
    interpolate_Ck,
    laminated,
    laminated_mass,
    positive_path_exists,
    replay_is_positive,
    torus_limit_census,
)
from cubepack.constructions import (
    factorization_packing,
    laminated_tiling,
    load_fixture,
    one_factorization,
    rod_tiling,
)
from cubepack.model import CUBE, TORUS, coordinate_params, make_packing
from cubepack.ratfun import format_polynomial


def census3():
    return torus_limit_census(3)


def test_census_n1_n2():
    recs = torus_limit_census(1)
    assert len(recs) == 1 and recs[0].prob == 1 and recs[0].m == 2
    recs = torus_limit_census(2)
    assert len(recs) == 1 and recs[0].prob == 1 and recs[0].m == 4
    assert recs[0].nparams == 3


def test_census_n3_types():
    recs = census3()
    assert [r.prob for r in recs] == [
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(5, 18),
        Fraction(1, 18),
    ]
    assert [r.m for r in recs] == [8, 8, 8, 4]
    assert [r.nparams for r in recs] == [7, 7, 6, 6]
    assert expected_cubes_limit(3, recs) / 8 == Fraction(35, 36)
    best = min(r.m for r in recs)
    assert best == 4 and sum(r.m == best for r in recs) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_paper_bounds_hold_on_every_positive_class(n):
    """The paper's parameter bound n(n+1)/2 <= nparams, its conjectured
    nparams <= 2^n - 1 (checked on these classes, not proved), and its
    theorem that packings with at least 2^n - 3 cubes are extensible, so no
    terminal class has m in [2^n - 3, 2^n - 1]."""
    recs = [r for r in torus_limit_census(n) if r.prob > 0]
    assert sum(r.prob for r in recs) == 1
    for r in recs:
        assert r.nparams == r.rep.nparams
        assert n * (n + 1) // 2 <= r.nparams <= 2 ** n - 1
        assert not 2 ** n - 3 <= r.m <= 2 ** n - 1
    nonextensible = [r.m for r in recs if r.m < 2 ** n]
    if n == 3:
        assert min(nonextensible) == 4
    else:
        assert nonextensible == []


def test_census_n3_known_constructions():
    recs = {r.key.bytes: r for r in census3()}
    lam = canonical_key(laminated_tiling(3)).bytes
    rod = canonical_key(rod_tiling(3)).bytes
    k4 = canonical_key(factorization_packing(one_factorization(4))).bytes
    assert recs[lam].prob == Fraction(1, 3)
    assert recs[rod].prob == Fraction(5, 18)
    assert recs[k4].prob == Fraction(1, 18)


def test_census_zero_prob_types():
    recs = torus_limit_census(2, include_zero_prob=True)
    assert len(recs) == 2
    assert [r.prob == 0 for r in recs] == [False, True]
    assert [r.nparams for r in recs] == [3, 2]


def test_census_order_independence():
    rng = random.Random(11)
    baseline = [(r.key.bytes, r.prob) for r in census3()]
    shuffled = torus_limit_census(3, _level_order=rng.shuffle)
    assert [(r.key.bytes, r.prob) for r in shuffled] == baseline


def test_census_guard():
    with pytest.raises(ResourceGuardError):
        torus_limit_census(5)
    with pytest.raises(ResourceGuardError):
        torus_limit_census(4, include_zero_prob=True)


def test_census_rejects_tracking_zero_prob():
    with pytest.raises(ValueError):
        torus_limit_census(2, include_zero_prob=True, track_paths=True)


def test_census_checkpoint_resume(tmp_path):
    path = tmp_path / "census3.json"
    full = torus_limit_census(3, checkpoint_path=path)
    assert path.exists()
    resumed = torus_limit_census(3, checkpoint_path=path)
    assert [(r.key.bytes, r.prob) for r in resumed] == [
        (r.key.bytes, r.prob) for r in full
    ]
    with pytest.raises(ValueError):
        torus_limit_census(2, checkpoint_path=path)


@pytest.mark.parametrize("text", [
    "[]",
    '{"regime": "limit", "n": 2, "include_zero_prob": false, '
    '"track_paths": false}',
], ids=["list", "no-level"])
def test_census_rejects_malformed_checkpoint(tmp_path, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        torus_limit_census(2, checkpoint_path=path)
    assert path.read_text() == text


def test_census_rejects_bad_checkpoint_interval(tmp_path):
    for interval in (0, -1):
        with pytest.raises(ValueError):
            torus_limit_census(2, checkpoint_path=tmp_path / "c.json",
                               checkpoint_interval=interval)
    assert not (tmp_path / "c.json").exists()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Interrupted(Exception):
    pass


def _count_levels(calls, stop_at=None):
    """A _level_order hook that counts levels and aborts the sweep at level
    stop_at (1-based)."""

    def hook(items):
        calls.append(len(items))
        if len(calls) == stop_at:
            raise _Interrupted

    return hook


# sha256 of the checkpoint files as written before the censuses shared
# census.sweep; files in this layout (schema_version 1) must keep resuming.
# The interrupted files pin the frontier encoding; a finished file has an
# empty frontier.
@pytest.mark.parametrize("track_paths, digest", [
    (False, "134b2bc299752582d4664be28ae267997eea3a7030b2b91d69b01d76f806ee4d"),
    (True, "fa08b08be9f09befd4fed7e200c41ab0bf1fe115c9c920050fe87e2770ec6764"),
])
def test_census_resumes_mid_sweep(tmp_path, track_paths, digest):
    path = tmp_path / "census3.json"
    with pytest.raises(_Interrupted):
        torus_limit_census(3, track_paths=track_paths, checkpoint_path=path,
                           _level_order=_count_levels([], stop_at=5))
    assert json.loads(path.read_text())["level"] == 4
    assert _sha256(path) == digest
    full_levels, resumed_levels = [], []
    full = torus_limit_census(3, track_paths=track_paths,
                              _level_order=_count_levels(full_levels))
    resumed = torus_limit_census(3, track_paths=track_paths,
                                 checkpoint_path=path,
                                 _level_order=_count_levels(resumed_levels))
    assert resumed_levels == full_levels[4:]
    assert [(r.key.bytes, r.prob, r.paths) for r in resumed] == [
        (r.key.bytes, r.prob, r.paths) for r in full
    ]


@pytest.mark.parametrize("kwargs, digest", [
    ({}, "b54f93b9a7117254516bd81313815c2b341a09b7bec7ab375bd7deb97df948f8"),
    (dict(track_paths=True, checkpoint_interval=2),
     "d238922eaa0c4b82a03ae892c4e52d04768499bceea226af6c5f1a24e26fc514"),
])
def test_finished_checkpoint_bytes_are_pinned(tmp_path, kwargs, digest):
    path = tmp_path / "census3.json"
    torus_limit_census(3, checkpoint_path=path, **kwargs)
    assert _sha256(path) == digest


def test_tracked_paths_consistent():
    recs = torus_limit_census(3, track_paths=True)
    for r in recs:
        assert sum(q for _, q in r.paths) == r.prob
        for hist, _ in r.paths:
            assert sum(k * c for k, c in enumerate(hist)) == r.nparams


def test_tracked_histograms_number_parameters():
    for n in (2, 3):
        for r in torus_limit_census(n, track_paths=True):
            for hist, _ in r.paths:
                assert hist[n] == 1
                assert hist[n - 1] == 1
                if n >= 3:
                    assert hist[n - 2] <= 2
                    assert (hist[n - 2] == 2) == laminated(r.rep)
                assert all(hist[k] >= 1 for k in range(1, n + 1))
                total = sum(k * c for k, c in enumerate(hist))
                assert total >= n * (n + 1) // 2
                if total == n * (n + 1) // 2:
                    assert all(hist[k] == 1 for k in range(1, n + 1))


def test_untracked_census_has_no_paths():
    assert census3()[0].paths is None


def test_laminated_mass_n3():
    recs = census3()
    assert laminated_mass(recs) == Fraction(2, 3)
    lams = [r for r in recs if laminated(r.rep)]
    assert [r.prob for r in lams] == [Fraction(1, 3), Fraction(1, 3)]
    profiles = {tuple(sorted(len(s) for s in coordinate_params(r.rep)))
                for r in lams}
    assert profiles == {(1, 2, 4), (1, 3, 3)}


def test_replay_positive_census_reps():
    # census representatives accumulate cubes in process order, so their
    # listed order is itself a positive path
    for r in census3():
        assert replay_is_positive(r.rep)
    # the construction order of the laminated tiling is not: it exhausts a
    # slab before opening the second one
    assert not replay_is_positive(laminated_tiling(3))
    p = rod_tiling(3)
    with pytest.raises(ValueError):
        replay_is_positive(p, order=[0, 0, 1, 2, 3, 4, 5, 6])


def test_positive_path_exists_census_types():
    for r in census3():
        assert positive_path_exists(r.rep)


def test_positive_path_exists_matches_zero_prob_census():
    # every class of positive probability is reached along a positive path;
    # the zero-probability classes are reached along none
    recs = torus_limit_census(3, include_zero_prob=True)
    got = [positive_path_exists(r.rep) for r in recs]
    assert got == [r.prob > 0 for r in recs]
    assert (got.count(True), got.count(False)) == (4, 14)


def test_positive_paths_match_brute_force_orders():
    rng = random.Random(11)

    def often_best(p):
        # bias growth towards positive steps so both answers are common
        classes = brute_extension_classes(p)
        if classes and rng.random() < 0.6:
            top = max(c.nb for c in classes)
            return [c for c in classes if c.nb == top]
        return classes

    answers = []
    for _ in range(120):
        space = rng.choice([TORUS, TORUS, TORUS, CUBE])
        grown = random_packing(rng, space, rng.randint(1, 3),
                               rng.randint(1, 5), often_best)
        cubes = list(grown.cubes)
        rng.shuffle(cubes)
        p = make_packing(space, grown.dim, cubes)
        orders = set(brute_positive_orders(p))
        assert positive_path_exists(p) == bool(orders)
        for order in permutations(range(p.m)):
            assert replay_is_positive(p, order) == (order in orders)
        answers.append((p.m, bool(orders)))
    assert {(5, True), (5, False), (4, True), (4, False)} <= set(answers)


def test_positive_path_exists_lists_no_classes(monkeypatch):
    # the step rule asks for the best count only, never for the class list
    calls = {"max_nb": 0, "max_nb_classes": 0}
    for mod in (census, extend):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _counting(
                    calls, name, getattr(mod, name)))
    assert not positive_path_exists(load_fixture("dim6-1"))
    assert calls["max_nb_classes"] == 0
    assert calls["max_nb"] > 0


def _counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def test_positive_path_guard():
    p = make_packing(TORUS, 5, laminated_tiling(5).cubes)
    with pytest.raises(ResourceGuardError):
        positive_path_exists(p)


def test_cube_expansion_dim1():
    series = cube_expansion(1, 4)
    assert list(series.coeffs) == [1, 2, -4, 8, -16]


def test_cube_expansion_mass_guard():
    with pytest.raises(ResourceGuardError):
        cube_expansion(2, 5)


def test_cube_expansion_truncations_are_prefixes():
    for n in range(1, 5):
        full = cube_expansion(n, 4).coeffs
        for k in range(4):
            assert cube_expansion(n, k).coeffs == full[: k + 1]


def test_cube_expansion_rejects_negative_order():
    with pytest.raises(ValueError):
        cube_expansion(2, -1)
    with pytest.raises(ValueError):
        interpolate_Ck(-1, [1, 2, 3])


# sha256 of the terminal records of cube_expansion(n, 4) for n = 0..5, each
# prob as its Series coefficients.  The key, m, nparams and aut columns are
# those of the earlier pin, made with exact rational-function probabilities,
# and each prob is the expansion of the old one through x^4.
EXPANSION_RECORDS_DIGEST = "a8a0af7c3f5177ef5ed4db3b6c858d9e725430d4d75abf7cd599112509419034"


def test_cube_expansion_records_are_pinned():
    rows = []
    for n in range(6):
        _, recs = cube_expansion(n, 4, return_records=True)
        rows += [[n, r.key.bytes.hex(), r.m, r.nparams,
                  [str(c) for c in r.prob.coeffs], r.aut] for r in recs]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == EXPANSION_RECORDS_DIGEST


def test_cube_expansion_type_counts():
    _, recs = cube_expansion(3, 3, return_records=True)
    # classes whose probability vanishes to order at most k, k = 0..3
    orders = [r.prob.valuation for r in recs]
    assert tuple(sum(o <= k for o in orders) for k in range(4)) == (1, 2, 3, 7)


def test_interpolate_Ck_low_orders():
    polys = interpolate_Ck(2, range(1, 5))
    assert format_polynomial(polys[0]) == "1"
    assert format_polynomial(polys[1]) == "2n"
    assert format_polynomial(polys[2]) == "4n^2-8n"


def test_interpolate_Ck_needs_spare_points():
    with pytest.raises(ValueError):
        interpolate_Ck(2, [1, 2, 3])


def test_closed_form_matches_low_coefficients():
    direct = interpolate_Ck(2, range(1, 5))
    closed = closed_form_expansion_polys()
    assert [p.coeffs for p in closed] == [p.coeffs for p in direct]
