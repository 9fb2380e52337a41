import hashlib
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_addable_positions

from cubepack import montecarlo
from cubepack.census import torus_limit_census
from cubepack.extend import FRESH, ExtensionClass, class_representative
from cubepack.model import (
    CUBE,
    TORUS,
    ResourceGuardError,
    literal,
    make_packing,
    param_of,
    phi_grid,
)
from cubepack.montecarlo import (
    SIM_MAX_DIM,
    SimConfig,
    _decode_member,
    _randbelow,
    estimate_expectation,
    sample_packing,
)


def _rng(seed, trial):
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(space="ball", dim=2, N=4, trials=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(space=TORUS, dim=2, N=4, trials=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(space=TORUS, dim=2, N=1, trials=1, seed=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            SimConfig(space=TORUS, dim=2, N=4, trials=1, seed=seed)


def test_dimension_guard(monkeypatch):
    cfg = SimConfig(space=TORUS, dim=SIM_MAX_DIM + 1, N=5, trials=1, seed=1)
    with pytest.raises(ResourceGuardError):
        estimate_expectation(cfg)
    # the override reaches the trials; a stub trial keeps the check instant
    monkeypatch.setattr("cubepack.montecarlo._run_trial",
                        lambda cfg, trial, want_key: (1, None, None))
    assert estimate_expectation(cfg, allow_large=True).counts == (1,)


def test_seeds_above_two_to_the_63_are_distinct():
    # the key word is unsigned 64-bit: a signed or float cast would map
    # both seeds to 2^63
    counts = [
        estimate_expectation(
            SimConfig(space=TORUS, dim=3, N=50, trials=40, seed=seed)).counts
        for seed in (2 ** 63 + 1, 2 ** 63 + 2)
    ]
    assert counts[0] != counts[1]


def test_torus_line_always_two_cubes():
    cfg = SimConfig(space=TORUS, dim=1, N=9, trials=1, seed=0)
    for trial in range(25):
        _, _, count = sample_packing(cfg, _rng(1, trial))
        assert count == 2


def test_cube_line_terminals_and_rate():
    # 5 grid positions, the 2 boundary ones lead to a second cube
    cfg = SimConfig(space=CUBE, dim=1, N=4, trials=1, seed=0)
    hits = 0
    trials = 4000
    for trial in range(trials):
        _, _, count = sample_packing(cfg, _rng(2, trial))
        assert count in (1, 2)
        hits += count == 2
    rate, se = hits / trials, math.sqrt(0.4 * 0.6 / trials)
    assert abs(rate - 0.4) < 4 * se


def test_torus_dim3_terminal_counts():
    cfg = SimConfig(space=TORUS, dim=3, N=1000, trials=1, seed=0)
    counts = {sample_packing(cfg, _rng(3, t))[2] for t in range(60)}
    assert counts <= {4, 8} and 8 in counts


def test_returned_packing_is_projection_of_anchors():
    cases = [
        (TORUS, 2, 5),
        (TORUS, 3, 8),
        (CUBE, 2, 6),
        (CUBE, 2, 2),
        (CUBE, 3, 2),
    ]
    for space, dim, N in cases:
        cfg = SimConfig(space=space, dim=dim, N=N, trials=1, seed=0)
        for trial in range(25):
            packing, grid, count = sample_packing(cfg, _rng(4, trial))
            assert packing.m == count == len(grid)
            # no grid position is left addable: the packing is maximal
            assert count_addable_positions(grid, dim, N, space) == 0
            assert packing == phi_grid(grid, N, space)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    space=st.sampled_from((TORUS, CUBE)),
    dim=st.integers(1, 3),
    N=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_carried_sizes_count_the_addable_grid_positions(space, dim, N, seed):
    # every state after the first gets its sizes from classes_after; with
    # an empty cache each one misses, so the k-th carried list belongs to
    # the state holding the first k drawn cubes
    step = montecarlo.classes_after
    carried = []

    def record(*args):
        out = step(*args)
        carried.append(out[1])
        return out

    cfg = SimConfig(space=space, dim=dim, N=N, trials=1, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_entries", OrderedDict())
        mp.setattr(montecarlo, "classes_after", record)
        _, grid, count = sample_packing(cfg, _rng(seed, 0))
    assert len(carried) == count
    for k, sizes in enumerate(carried, 1):
        assert sum(sizes) == count_addable_positions(grid[:k], dim, N, space)


def test_expectation_cube_line():
    # exact value 1 + 2/(N+1): two boundary anchors out of N+1 lead to a
    # second cube
    cfg = SimConfig(space=CUBE, dim=1, N=10, trials=20000, seed=5)
    report = estimate_expectation(cfg)
    exact = 1 + 2 / 11
    se = math.sqrt(report.variance / cfg.trials)
    assert abs(report.mean - exact) < 3 * se
    assert report.ci95[0] < exact < report.ci95[1]
    assert len(report.counts) == cfg.trials
    assert report.lamination_frequency is None and report.histogram is None


def test_expectation_torus_dim3():
    cfg = SimConfig(
        space=TORUS, dim=3, N=1000, trials=4000, seed=6, track_lamination=True
    )
    report = estimate_expectation(cfg)
    se = math.sqrt(report.variance / cfg.trials)
    assert abs(report.mean - 8 * 35 / 36) < 3 * se
    lam_se = math.sqrt((2 / 3) * (1 / 3) / cfg.trials)
    assert abs(report.lamination_frequency - 2 / 3) < 4 * lam_se


def test_expectation_cube_dim2_matches_expansion():
    # second-order series 1 + 2n/(N+1) + 4n(n-1)/(N+1)^2 at n=2, N=100
    cfg = SimConfig(space=CUBE, dim=2, N=100, trials=20000, seed=7)
    report = estimate_expectation(cfg)
    series = 1 + 4 / 101 + 8 / 101 ** 2
    se = math.sqrt(report.variance / cfg.trials)
    assert abs(report.mean - series) < 3 * se


def test_determinism_across_runs():
    cfg = SimConfig(
        space=TORUS, dim=3, N=50, trials=300, seed=8, track_lamination=True
    )
    first = estimate_expectation(cfg, emit_histogram=True)
    assert estimate_expectation(cfg, emit_histogram=True) == first


@pytest.mark.parametrize(
    "space, dim, N, seed, trials, digest",
    [
        (TORUS, 4, 50, 1, 40,
         "b46a076e85d9519ec699cad6374909d0514baae3f1318e28378e1b9cba2a1588"),
        (CUBE, 3, 7, 2, 50,
         "8dc393fc9be44504b601552666fbd158bfc2f0fffc60bd6f16587a6820cf01a5"),
        (TORUS, 5, 50, 3, 12,
         "902362ab9b24811d9ca0d680052227ff4f386c40e67e5af1211668091b5167d5"),
        (TORUS, 6, 4, 4, 2,
         "17469a108950fca1157d29168c59eb9068a90b6b28c06584aec2accbcdde5c48"),
    ],
)
def test_draws_are_pinned(space, dim, N, seed, trials, digest):
    # sha256 of the JSON counts list; any change to the class order, the
    # class sizes or the member decoding moves it
    cfg = SimConfig(space=space, dim=dim, N=N, trials=trials, seed=seed)
    counts = estimate_expectation(cfg).counts
    assert hashlib.sha256(json.dumps(counts).encode()).hexdigest() == digest


def test_decoded_fresh_params_match_class_representative():
    # sparse ids: parameter 5 is the largest, so the next one is 6, not
    # nparams = 2
    p = make_packing(TORUS, 2, [(literal(0), literal(5))])
    cls = ExtensionClass((literal(0, 1), FRESH), 1)
    assignment = [{0: 0}, {5: 3}]
    vec = _decode_member(p, cls, 0, 4, assignment)
    fresh = param_of(class_representative(p, cls)[1])
    assert assignment[1] == {5: 3, fresh: vec[1]}


def test_counts_are_a_prefix_of_longer_runs():
    # trial t draws from the (seed, t) substream alone
    cfg = SimConfig(space=TORUS, dim=3, N=50, trials=300, seed=8)
    longer = SimConfig(space=TORUS, dim=3, N=50, trials=600, seed=8)
    short = estimate_expectation(cfg).counts
    assert estimate_expectation(longer).counts[:300] == short


def test_histogram_keys_lie_in_zero_probability_census():
    cfg = SimConfig(space=TORUS, dim=3, N=1000, trials=1500, seed=9)
    report = estimate_expectation(cfg, emit_histogram=True)
    all_keys = {r.key.hex() for r in torus_limit_census(3, include_zero_prob=True)}
    positive = {r.key.hex() for r in torus_limit_census(3)}
    assert {key for key, _ in report.histogram} <= all_keys
    top4 = {key for key, _ in report.histogram[:4]}
    assert top4 == positive


def _lamination_frequency(n, N, trials, seed):
    cfg = SimConfig(space=TORUS, dim=n, N=N, trials=trials, seed=seed,
                    track_lamination=True)
    return estimate_expectation(cfg).lamination_frequency


def test_lamination_frequency():
    # the 1-dimensional tiling {t, t+1} has a single-parameter coordinate
    assert _lamination_frequency(1, 100, 10, 0) == 1.0
    # every 2-dimensional terminal is a laminated tiling
    assert _lamination_frequency(2, 100, 50, 1) == 1.0
    freq = _lamination_frequency(3, 500, 3000, 2)
    assert abs(freq - 2 / 3) < 4 * math.sqrt((2 / 3) * (1 / 3) / 3000)


def test_randbelow_wide_totals():
    rng = _rng(10, 0)
    total = 2 ** 70 + 3
    draws = [_randbelow(rng, total) for _ in range(300)]
    assert all(0 <= d < total for d in draws)
    assert any(d < total // 2 for d in draws)
    assert any(d >= total // 2 for d in draws)
    small = {_randbelow(rng, 3) for _ in range(100)}
    assert small == {0, 1, 2}


def test_mean_bounds_assertion():
    cfg = SimConfig(space=CUBE, dim=3, N=3, trials=50, seed=11)
    report = estimate_expectation(cfg)
    assert 1 <= report.mean <= 8


@pytest.mark.parametrize("space", [TORUS, CUBE])
def test_a_trial_past_two_to_the_dim_cubes_fails_fast(monkeypatch, space):
    # a class list that keeps the drawn class, which does not block the
    # cube it just added, would grow the packing without end
    monkeypatch.setattr(montecarlo, "_entries", OrderedDict())
    monkeypatch.setattr(montecarlo, "classes_after",
                        lambda p, classes, sizes, cube, N: (classes, sizes))
    cfg = SimConfig(space=space, dim=2, N=50, trials=1, seed=3)
    with pytest.raises(AssertionError, match=r"past 2\^2 cubes"):
        sample_packing(cfg, _rng(3, 0))
