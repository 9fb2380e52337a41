"""Seeded finite-N sequential random packing simulation.

Each trial runs the exact process at resolution N: the next cube is drawn
uniformly over all addable grid positions.  The draw is done
class-then-member with a single integer sample per step (classes weighted
by their exact discrete size, the member index decoded within the class),
so no grid is ever materialized and arbitrarily fine resolutions cost the
same.  Trials run in trial-index order, each on a counter-based substream
keyed (seed, trial index), so a trial's outcome depends on the seed and its
index only: reports are reproducible, and a run's counts are a prefix of
any longer run's with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .canon import canonical_key
from .census import laminated
from .extend import (
    FRESH,
    class_representative,
    class_sizes,
    enumerate_extension_classes,
)
from .model import (
    CUBE,
    TORUS,
    ONE,
    ZERO,
    ResourceGuardError,
    add_cube,
    empty_packing,
    phi_grid,
)


# Largest dimension simulated without allow_large: one N = 5 trial takes
# about a second at n = 6, and at n = 7 late steps take half a second each.
SIM_MAX_DIM = 6


@dataclass(frozen=True)
class SimConfig:
    """One simulation request; dim >= 0, trials >= 1, N >= 2 and
    0 <= seed < 2^64, the range of the sampler's 64-bit key word."""

    space: str
    dim: int
    N: int
    trials: int
    seed: int
    track_lamination: bool = False

    def __post_init__(self):
        if self.space not in (TORUS, CUBE):
            raise ValueError(f"unknown space {self.space!r}")
        if self.dim < 0:
            raise ValueError("dim must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class SimReport:
    """Aggregated trial outcomes, in trial-index order."""

    counts: tuple
    mean: float
    variance: float
    ci95: tuple
    lamination_frequency: object = None
    histogram: tuple = None


# Sized by measurement: 400 trials at n = 4, N = 50 keep 92-93 % of an
# unbounded cache's hits (85 % at 512) and peak at 40 MiB instead of 56.
@lru_cache(maxsize=1024)
def _class_sizes(p, N):
    classes = enumerate_extension_classes(p)
    sizes = class_sizes(p, classes, N)
    return classes, sizes, sum(sizes)


def _randbelow(rng, total):
    """Uniform integer in [0, total) from one logical draw.

    Falls back to byte-level rejection when total exceeds the generator's
    integer range.
    """
    if total <= (1 << 63):
        return int(rng.integers(0, total))
    nbytes = (total.bit_length() + 7) // 8
    bound = 1 << (8 * nbytes)
    cutoff = bound - bound % total
    while True:
        value = int.from_bytes(rng.bytes(nbytes), "little")
        if value < cutoff:
            return value % total


def sample_packing(cfg, rng):
    """One full trial; returns (combinatorial type, grid, cube count).

    grid holds each cube's integer grid indices (index k means k/N), in
    drawing order, and the packing is their type under phi_grid, so
    cube-space trials where two cubes draw the same interior value share
    a parameter.  A coarser tracking packing drives the class enumeration;
    it can only differ from the returned one by splitting such
    coincidences, which never changes the step distribution.
    """
    N = cfg.N
    p = empty_packing(cfg.space, cfg.dim)
    grid = []
    assignment = [{} for _ in range(cfg.dim)]
    while True:
        classes, sizes, total = _class_sizes(p, N)
        if total == 0:
            # the count gap below holds for torus packings only; cube-space
            # terminals with a single cube are legitimate
            if not classes and cfg.space == TORUS:
                gap = range(2 ** cfg.dim - 3, 2 ** cfg.dim)
                if p.m in gap:
                    raise AssertionError(
                        f"terminal count {p.m} inside the forbidden gap"
                    )
            return phi_grid(grid, N, cfg.space), tuple(grid), p.m
        draw = _randbelow(rng, total)
        for idx, size in enumerate(sizes):
            if draw < size:
                break
            draw -= size
        vec = _decode_member(p, classes[idx], draw, N, assignment)
        grid.append(vec)
        # every member of a class has the same transition
        p = add_cube(p, class_representative(p, classes[idx]))


def _decode_member(p, cls, member, N, assignment):
    """Grid anchors of the drawn member; records fresh parameter bases.

    assignment[j] maps a parameter to its base grid value: in [0, 2N) on
    the torus (the opposite literal sits at +N mod 2N), in [1, N-1] in the
    cube (blocking values are exactly 0 and N).
    """
    next_param = p.nparams
    vec = []
    for j, code in enumerate(cls.coords):
        if code == FRESH:
            if p.space == TORUS:
                free = 2 * (N - len(assignment[j]))
                choice, member = member % free, member // free
                shift, slot = choice % 2, choice // 2
                base = _nth_free_class(assignment[j], N, slot) + shift * N
            else:
                free = N - 1
                choice, member = member % free, member // free
                base = choice + 1
            assignment[j][next_param] = base
            next_param += 1
            vec.append(base)
        elif code == ZERO:
            vec.append(0)
        elif code == ONE:
            vec.append(N)
        else:
            # shift-1 literals occur on the torus only
            base = assignment[j][code >> 1]
            if code & 1:
                base = (base + N) % (2 * N)
            vec.append(base)
    return tuple(vec)


def _nth_free_class(taken, N, slot):
    """slot-th residue class in [0, N) not used by any parameter."""
    value = slot
    for used in sorted(k % N for k in taken.values()):
        if used <= value:
            value += 1
    return value


def _run_trial(cfg, trial, want_key):
    rng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.seed, trial], dtype=np.uint64)))
    packing, _, count = sample_packing(cfg, rng)
    lam = laminated(packing) if cfg.track_lamination else None
    key = canonical_key(packing).hex() if want_key else None
    return count, lam, key


def estimate_expectation(cfg, emit_histogram=False, allow_large=False):
    """Run all trials and aggregate; deterministic for a given (cfg, seed).

    The 95% interval uses the normal approximation, which is adequate at
    the trial counts used here but approximate for small runs.

    Raises:
        ResourceGuardError: if cfg.dim > SIM_MAX_DIM without allow_large.
    """
    if cfg.dim > SIM_MAX_DIM and not allow_large:
        raise ResourceGuardError(
            f"dimension {cfg.dim} simulation exceeds the default limit "
            f"{SIM_MAX_DIM}"
        )
    results = [_run_trial(cfg, t, emit_histogram) for t in range(cfg.trials)]
    counts = tuple(r[0] for r in results)
    mean = sum(counts) / cfg.trials
    if cfg.trials > 1:
        variance = sum((c - mean) ** 2 for c in counts) / (cfg.trials - 1)
    else:
        variance = 0.0
    half = 1.96 * sqrt(variance / cfg.trials)
    lam = None
    if cfg.track_lamination:
        lam = sum(1 for r in results if r[1]) / cfg.trials
    histogram = None
    if emit_histogram:
        tally = {}
        for _, _, key in results:
            tally[key] = tally.get(key, 0) + 1
        histogram = tuple(sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])))
    report = SimReport(
        counts=counts,
        mean=mean,
        variance=variance,
        ci95=(mean - half, mean + half),
        lamination_frequency=lam,
        histogram=histogram,
    )
    if not 1 <= report.mean <= 2 ** cfg.dim:
        raise AssertionError("mean outside [1, 2^n]")
    return report
