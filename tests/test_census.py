import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from helpers import (
    brute_equivalent,
    brute_extension_classes,
    brute_positive_orders,
    closed_form_expansion_polys,
    expansion_leaders,
    random_packing,
    random_relabel,
    reference_expansion_children,
    reference_limit_children,
    rod_probability,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepack import canon, census, extend
from cubepack.canon import automorphism_order, canonical_key
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
from cubepack.model import (
    CUBE,
    TORUS,
    add_cube,
    coordinate_params,
    make_packing,
    validate,
)
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


@pytest.mark.parametrize("hist, ok", [
    ([0, 0, 0], True),
    ([0, 0, 1], False),
    ([0, 0], False),
    (["0", 0, 0], False),
])
def test_tracked_checkpoint_histograms_must_fit_the_state(tmp_path, hist, ok):
    # the empty 2-torus, reached by no step, so its histogram is all zero
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "regime": "limit", "n": 2, "include_zero_prob": False,
        "track_paths": True, "level": 0, "records": [],
        "frontier": [[{"space": "torus", "dim": 2, "cubes": []}, "1",
                      [[hist, "1"]]]],
    }))
    if ok:
        assert torus_limit_census(2, track_paths=True, checkpoint_path=path)
    else:
        with pytest.raises(ValueError):
            torus_limit_census(2, track_paths=True, checkpoint_path=path)


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
    (dict(track_paths=True),
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
    calls = {"max_nb": 0, "max_nb_classes": 0,
             "enumerate_extension_classes": 0}
    for mod in (census, extend):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, _counting(
                    calls, name, getattr(mod, name)))
    assert not positive_path_exists(load_fixture("dim6-1"))
    assert calls["max_nb_classes"] == 0
    assert calls["enumerate_extension_classes"] == 0
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


def test_cube_expansion_dimension_guard(monkeypatch):
    with pytest.raises(ResourceGuardError):
        cube_expansion(11, 0)
    # the fit runs its largest dimension first, so it refuses before any run
    calls = {"enumerate_extension_classes": 0}
    monkeypatch.setattr(census, "enumerate_extension_classes", _counting(
        calls, "enumerate_extension_classes",
        census.enumerate_extension_classes))
    with pytest.raises(ResourceGuardError):
        interpolate_Ck(1, [1, 2, 30])
    assert calls["enumerate_extension_classes"] == 0


def test_cube_expansion_rejects_negative_order():
    with pytest.raises(ValueError):
        cube_expansion(2, -1)
    with pytest.raises(ValueError):
        interpolate_Ck(-1, [1, 2, 3])


def test_cube_expansion_rejects_negative_dimension():
    with pytest.raises(ValueError):
        cube_expansion(-1, 1)
    with pytest.raises(ValueError):
        interpolate_Ck(1, [-2, -1, 0])


def _swept_parents(monkeypatch, run):
    """The (state, classes, leaders) of every orbit split of run's
    sweep."""
    seen = []
    split = census.class_orbit_leaders

    def spy(rep, classes, gens):
        leaders = split(rep, classes, gens)
        seen.append((rep, classes, leaders))
        return leaders

    monkeypatch.setattr(census, "class_orbit_leaders", spy)
    canon._canon_result.cache_clear()
    run()
    monkeypatch.undo()
    return seen


def _expansion_steps(monkeypatch, run):
    """The (state, budget, groups) of every step of run's cube_expansion
    sweeps, groups as census._expansion_groups gives them."""
    seen = []
    build = census._expansion_groups

    def spy(state, budget):
        groups = build(state, budget)
        seen.append((state[0], budget, groups))
        return groups

    monkeypatch.setattr(census, "_expansion_groups", spy)
    canon._canon_result.cache_clear()
    run()
    monkeypatch.undo()
    return seen


def _group_members(rep, budget, groups):
    """Each group's full classes: rep's classes within the budget, grouped
    by the rule that listed them all (helpers.expansion_leaders)."""
    classes = extend.enumerate_extension_classes(rep)
    if not groups:
        assert not classes
        return []
    dmax = max(c.nb for c in classes)
    kept = [c for c in classes if dmax - c.nb <= budget]
    members = {}
    for c, lead in zip(kept, expansion_leaders(rep, kept)):
        members.setdefault(kept[lead], []).append(c)
    # the first class of each group, in walk order, leads it
    assert list(members) == [first for first, _, _ in groups]
    for (first, shift, count), cs in zip(groups, members.values()):
        assert len(cs) == count and all(dmax - c.nb == shift for c in cs)
    return list(members.values())


def _child(rep, c):
    return add_cube(rep, extend.class_representative(rep, c))


def test_classes_of_one_orbit_give_equivalent_children(monkeypatch):
    # (state, class leading its orbit, another class of that orbit)
    pairs = []
    for n in range(1, 5):
        steps = _expansion_steps(monkeypatch, lambda: cube_expansion(n, 4))
        for rep, budget, groups in steps:
            for cs in _group_members(rep, budget, groups):
                pairs += [(rep, cs[0], c) for c in cs[1:]]
    parents = _swept_parents(
        monkeypatch, lambda: torus_limit_census(3, include_zero_prob=True))
    assert parents
    for rep, classes, leaders in parents:
        for i, lead in enumerate(leaders):
            assert lead <= i and classes[lead].nb == classes[i].nb
            if lead != i:
                pairs.append((rep, classes[lead], classes[i]))
    shared = brute = 0
    for rep, lead, c in pairs:
        shared += 1
        kid, lead_kid = _child(rep, c), _child(rep, lead)
        assert canonical_key(kid) == canonical_key(lead_kid)
        if rep.m <= 6 and rep.dim <= 3:
            brute += 1
            assert brute_equivalent(kid, lead_kid)
    # 657 children share their leader's, 459 of them checked by brute force
    assert shared >= 600 and brute >= 400


def test_touched_part_key_is_complete_in_the_expansion(monkeypatch):
    # within one dimension, two swept children share the key of their
    # touched part exactly when they share the full canonical key
    same = apart = 0
    for n in range(1, 6):
        steps = _expansion_steps(monkeypatch, lambda: cube_expansion(n, 4))
        kids = [_child(rep, first) for rep, _, groups in steps
                for first, _, _ in groups]
        reps, touched = {}, {}
        for kid in dict.fromkeys(kids):
            t, full = _touched_key(kid), canonical_key(kid)
            rep, rep_full = reps.setdefault(t, (kid, full))
            assert rep_full == full and touched.setdefault(full, t) == t
            if kid.m <= 6 and n <= 3 and kid != rep:
                same += 1
                assert brute_equivalent(kid, rep)
        if n <= 3:
            small = [rep for rep, _ in reps.values() if rep.m <= 6]
            for a, b in combinations(small, 2):
                apart += a.m == b.m
                assert not brute_equivalent(a, b)
    # 20 equivalent children and 127 inequivalent pairs by brute force
    assert same >= 20 and apart >= 120


def _swept_steps(monkeypatch, run):
    """The (packing, weight, children) of every step of run's sweep, each
    child a (packing, weight) pair."""
    seen = []
    engine = census.sweep

    def spy(start, key, children, **kwargs):
        def record(state, weight):
            out = children(state, weight)
            seen.append((state[0], weight, [(s[0], w) for s, w in out]))
            return out
        return engine(start, key, record, **kwargs)

    monkeypatch.setattr(census, "sweep", spy)
    run()
    monkeypatch.undo()
    return seen


def _touched_key(p):
    return census._expansion_state(p)[-1].bytes


def _limit_key(p):
    return canonical_key(p).bytes


def _merged(steps, key=_touched_key):
    """key -> [first child's cubes, summed weight], in arrival order."""
    out = {}
    for child, w in steps:
        k = key(child)
        if k in out:
            out[k][1] = out[k][1] + w
        else:
            out[k] = [child.cubes, w]
    return list(out.items())


@pytest.mark.parametrize("n, order", [
    *((n, 4) for n in range(7)), *((n, 5) for n in range(6))])
def test_group_step_matches_the_class_by_class_step(monkeypatch, n, order):
    # the step over touched patterns and the step that lists every class
    # merge to the same children, weights and stored representatives
    steps = _swept_steps(
        monkeypatch, lambda: cube_expansion(n, order, allow_large=True))
    assert steps
    for rep, prob, kids in steps:
        want = _merged(reference_expansion_children(rep, prob, order))
        assert _merged(kids) == want


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mode", [
    {}, {"include_zero_prob": True}, {"track_paths": True}])
def test_orbit_step_matches_the_class_by_class_limit_step(monkeypatch, n,
                                                          mode):
    # one child per orbit weighted by its class count and the step that
    # weights every class's child merge to the same children, weights and
    # stored representatives.  A child the relabeling matches is the state
    # of an earlier child, maybe of another parent, so every child is
    # searched here; test_relabelled_children_keep_every_record compares
    # whole sweeps with the matches on
    _search_every_child(monkeypatch)
    steps = _swept_steps(monkeypatch, lambda: torus_limit_census(n, **mode))
    orbits = classes = 0
    for rep, weight, kids in steps:
        ref = reference_limit_children(rep, weight, **mode)
        orbits, classes = orbits + len(kids), classes + len(ref)
        assert _merged(kids, _limit_key) == _merged(ref, _limit_key)
    # some orbit holds two classes: 4 children for 6 classes at n = 2, 37
    # for 67 at n = 3, and 10 for 15 and 799 for 1,181 with zero classes
    assert orbits < classes


def _canonical_searches(monkeypatch, run, clear_every_step):
    """The canonical searches run makes from a cold cache, with the cache
    cleared before every sweep step when clear_every_step."""
    searches = 0
    search = canon._Canonicalizer.run

    def counting(self):
        nonlocal searches
        searches += 1
        return search(self)

    monkeypatch.setattr(canon._Canonicalizer, "run", counting)
    if clear_every_step:
        engine = census.sweep

        def spy(start, key, children, **kwargs):
            def cleared(state, weight):
                canon._canon_result.cache_clear()
                return children(state, weight)
            return engine(start, key, cleared, **kwargs)

        monkeypatch.setattr(census, "sweep", spy)
    canon._canon_result.cache_clear()
    run()
    monkeypatch.undo()
    return searches


@pytest.mark.parametrize("run, searches", [
    (lambda: torus_limit_census(3), 29),
    (lambda: cube_expansion(3, 4), 52),
], ids=["census3", "expansion3"])
def test_cache_evictions_add_no_canonical_searches(monkeypatch, run,
                                                   searches):
    # a state carries the key and generators it was built with, so no step
    # and no terminal record searches again when the cache has lost them
    assert _canonical_searches(monkeypatch, run, False) == searches
    assert _canonical_searches(monkeypatch, run, True) == searches


def _search_every_child(monkeypatch):
    # no two children share a relabeling, so every child is searched
    monkeypatch.setattr(census, "_relabelled", lambda p: object())


def _reversed(items):
    items.reverse()


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("mode", [
    {}, {"include_zero_prob": True}, {"track_paths": True}])
@pytest.mark.parametrize("level_order", [None, _reversed],
                         ids=["in-order", "reversed"])
def test_relabelled_children_keep_every_record(monkeypatch, n, mode,
                                               level_order):
    # a child merged by a relabeling's borrowed key bytes changes no record
    def rows():
        return [(r.key.bytes, r.rep.cubes, r.prob, r.aut, r.paths)
                for r in torus_limit_census(n, _level_order=level_order,
                                            **mode)]

    skipped = rows()
    _search_every_child(monkeypatch)
    assert rows() == skipped


@pytest.mark.parametrize("track_paths", [False, True])
def test_relabelled_children_keep_the_checkpoint_bytes(monkeypatch, tmp_path,
                                                       track_paths):
    # written, interrupted at level 4 and resumed to the end
    def files(tag):
        done, part = tmp_path / f"{tag}.json", tmp_path / f"{tag}-part.json"
        torus_limit_census(3, track_paths=track_paths, checkpoint_path=done)
        with pytest.raises(_Interrupted):
            torus_limit_census(3, track_paths=track_paths,
                               checkpoint_path=part,
                               _level_order=_count_levels([], stop_at=5))
        interrupted = part.read_bytes()
        torus_limit_census(3, track_paths=track_paths, checkpoint_path=part)
        return done.read_bytes(), interrupted, part.read_bytes()

    skipped = files("skipped")
    _search_every_child(monkeypatch)
    assert files("searched") == skipped


@pytest.mark.parametrize("mode, skipped, searched", [
    ({}, 29, 38),
    ({"include_zero_prob": True}, 302, 800),
    ({"track_paths": True}, 29, 38),
], ids=["plain", "zero-prob", "tracked"])
def test_relabelled_children_skip_pinned_searches(monkeypatch, mode, skipped,
                                                  searched):
    # n = 3; the empty packing's search is one of each count
    def run():
        torus_limit_census(3, **mode)

    assert _canonical_searches(monkeypatch, run, False) == skipped
    _search_every_child(monkeypatch)
    assert _canonical_searches(monkeypatch, run, False) == searched


@pytest.mark.parametrize("mode, searches", [
    ({}, 29),
    ({"include_zero_prob": True}, 302),
    ({"track_paths": True}, 29),
], ids=["plain", "zero-prob", "tracked"])
def test_a_matched_child_is_never_built(monkeypatch, mode, searches):
    # n = 3: a child is built only to be searched, and the empty packing is
    # searched without add_cube
    calls = {"add_cube": 0}
    monkeypatch.setattr(census, "add_cube",
                        _counting(calls, "add_cube", census.add_cube))
    assert _canonical_searches(
        monkeypatch, lambda: torus_limit_census(3, **mode), False) == searches
    assert calls["add_cube"] == searches - 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dim=st.integers(0, 4), steps=st.integers(0, 16),
       seed=st.integers(0, 2**32 - 1))
def test_relabelled_is_an_equivalent_torus_packing(dim, steps, seed):
    rng = random.Random(seed)
    p = random_relabel(rng, random_packing(rng, TORUS, dim, steps))
    r = make_packing(TORUS, dim, census._relabelled(p.cubes))
    assert (r.space, r.dim, r.m) == (TORUS, p.dim, p.m)
    assert (validate(r) is None if dim else r.cubes == p.cubes)
    assert canonical_key(r).bytes == canonical_key(p).bytes
    if r.m <= 6 and dim <= 3:
        assert brute_equivalent(r, p)


def test_census_n4_values():
    # the paper's dimension-4 census: non-extensible classes reached with
    # positive probability, and the paper's bounds on parameters and
    # cubes; aut is left out, as some of its orders undercount.  About
    # 14 s (2-core VM)
    recs = torus_limit_census(4)
    stuck = [r for r in recs if r.m < 16]
    assert len(recs) == 63 and len(stuck) == 31
    assert {r.m for r in stuck} == {6, 8, 10, 12}
    assert expected_cubes_limit(4, recs) == Fraction(15253049369, 1006387200)
    assert sum(r.prob for r in stuck) == Fraction(75225781, 431308800)
    assert laminated_mass(recs) == Fraction(1, 2)
    prob = {r.key.bytes: r.prob for r in recs}
    rod = canonical_key(rod_tiling(4)).bytes
    assert prob[rod] == rod_probability(4) == Fraction(89, 14976)
    assert prob[canonical_key(load_fixture("dim4-1over480")).bytes] == (
        Fraction(1, 480))
    assert {r.nparams for r in recs} == set(range(10, 16))
    assert not {13, 14, 15} & {r.m for r in recs}


def test_asking_for_orders_leaves_the_orbit_children_alone(monkeypatch):
    # orders asked for every non-terminal state of a census change nothing
    # in the orbits of the next census over the same cache
    canon._canon_result.cache_clear()
    steps = _swept_steps(monkeypatch, lambda: torus_limit_census(3))
    cold = [len(kids) for _, _, kids in steps]
    for rep, _, kids in steps:
        if kids:
            automorphism_order(rep)
    again = _swept_steps(monkeypatch, lambda: torus_limit_census(3))
    assert [len(kids) for _, _, kids in again] == cold
    assert sum(cold) == 37


def test_cube_expansion_canonical_form_count_is_pinned(monkeypatch):
    # one canonical form per distinct touched part; a full key per child
    # computed 1,921 here, a full key per orbit of each state's classes 364
    seen = []
    cached = canon._canon_result

    def spy(p):
        seen.append(p)
        return cached(p)

    monkeypatch.setattr(canon, "_canon_result", spy)
    cached.cache_clear()
    for n in range(1, 7):
        cube_expansion(n, 4)
    assert cached.cache_info().misses == 98
    # every coordinate of a canonicalized part holds a ZERO or ONE
    assert all(any(cube[j] < 0 for cube in p.cubes)
               for p in seen for j in range(p.dim))


def test_cube_expansion_key_count_is_pinned(monkeypatch):
    # each emitted child, one per orbit group of a step, is keyed once as
    # its state is built: 364 keys here, where keying every class's child
    # took 1,921
    calls = {"_expansion_state": 0}
    monkeypatch.setattr(census, "_expansion_state", _counting(
        calls, "_expansion_state", census._expansion_state))
    for n in range(1, 7):
        cube_expansion(n, 4)
    assert calls["_expansion_state"] == 364


def test_cube_expansion_at_large_dimensions_matches_the_fit():
    # C_0..C_4 fitted through n = 1..6 and evaluated at n = 7..12, where
    # the untouched coordinates number up to 12: a step lists touched
    # patterns only, so each run takes milliseconds
    polys = interpolate_Ck(4, range(1, 7))
    for n in range(7, 13):
        series = cube_expansion(n, 4, allow_large=n > 10)
        assert list(series.coeffs) == [p(n) for p in polys]


def test_cube_expansion_c5_at_dimension_8():
    # the C_5 polynomial of the order-5 golden, fitted through n = 1..7,
    # gives -345754/9 at n = 8, a dimension the fit did not use
    series = cube_expansion(8, 5, allow_large=True)
    assert series.coeffs[5] == Fraction(-345754, 9)


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


def test_interpolate_Ck_checks_the_order_of_given_series(monkeypatch):
    low = {n: cube_expansion(n, 2) for n in range(1, 7)}
    with pytest.raises(ValueError, match="dimension 1 has order 2, below order 4"):
        interpolate_Ck(4, range(1, 7), expansions=low)
    # checked before any run, though dimension 7 would run first

    def no_run(*args, **kwargs):
        raise AssertionError("an expansion ran before the order check")

    monkeypatch.setattr(census, "cube_expansion", no_run)
    with pytest.raises(ValueError, match="dimension 3 has order 2"):
        interpolate_Ck(4, range(1, 8), expansions={3: low[3]})
    monkeypatch.undo()
    # a higher-order series truncates exactly
    high = {n: cube_expansion(n, 4) for n in range(1, 5)}
    assert (interpolate_Ck(2, range(1, 5), expansions=high)
            == interpolate_Ck(2, range(1, 5)))


def test_interpolate_Ck_needs_spare_points():
    with pytest.raises(ValueError):
        interpolate_Ck(2, [1, 2, 3])


def test_closed_form_matches_low_coefficients():
    direct = interpolate_Ck(2, range(1, 5))
    closed = closed_form_expansion_polys()
    assert [p.coeffs for p in closed] == [p.coeffs for p in direct]
