"""Seeded finite-N sequential random packing simulation.

Each trial runs the exact process at resolution N: the next cube is drawn
uniformly over all addable grid positions.  The draw is done
class-then-member with a single integer sample per step (classes weighted
by their exact discrete size, the member index decoded within the class),
so no grid is ever materialized and arbitrarily fine resolutions cost the
same.  Only the empty packing's classes come from the class walk, and its
sizes from extend.class_sizes; every later state's classes and sizes are
derived from its parent's in one step by extend.classes_after, which
returns the walk's list in the walk's order.  Each trial runs on a
counter-based substream keyed (seed, trial index), so a trial's outcome
depends on the seed and its index only.  The trials are split by index
into one contiguous chunk per CPU the process may run on: the calling
process runs the first chunk, a forked child each other one, and the
results are joined in trial-index order.  Reports are therefore
reproducible and the same for any CPU count, and a run's counts are a
prefix of any longer run's with the same seed.
"""

from __future__ import annotations

import os
import pickle
import sys
from collections import OrderedDict
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .canon import canonical_key
from .census import laminated
from .extend import (
    FRESH,
    class_representative,
    class_sizes,
    classes_after,
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
# 0.1-0.2 s at n = 6 and 1.2-2 s at n = 7 (seeds 1-5), most of it deriving
# the classes of the first few states, which number in the thousands.
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


# Sized by measurement, per process: each half of 400 trials at n = 4,
# N = 50 keeps 96-97.5 % of an unbounded cache's hits (89-92 % at 512)
# and peaks at 37.7-37.9 MiB instead of 40.4-40.6 (seeds 1-3).  One
# process running all 400 keeps 92-93 % and peaks at 37.9 instead of 45.4.
_CACHE_SIZE = 1024
_entries = OrderedDict()


def _class_sizes(p, N, step=None):
    """(classes, sizes, total size) of p at N, least recently used first out.

    step, when given, is (parent, its classes, their sizes, cube) with
    p = add_cube(parent, cube): a miss then carries the parent's classes
    and sizes over to p by classes_after instead of walking and sizing.
    """
    key = (p, N)
    entry = _entries.get(key)
    if entry is not None:
        _entries.move_to_end(key)
        return entry
    if step is None:
        classes = enumerate_extension_classes(p)
        sizes = class_sizes(p, classes, N)
    else:
        classes, sizes = classes_after(*step, N)
    entry = _entries[key] = classes, sizes, sum(sizes)
    if len(_entries) > _CACHE_SIZE:
        _entries.popitem(last=False)
    return entry


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
    coincidences, which never changes the step distribution.  Each step
    adds the drawn class's representative to it, and a state missing from
    the cache gets its classes from the state it grew from.

    Raises:
        AssertionError: once the packing holds more than 2^dim cubes, more
            than fit: a class list that keeps a class not blocking every
            cube would otherwise grow the trial without end.
    """
    N = cfg.N
    most = 2 ** cfg.dim
    p = empty_packing(cfg.space, cfg.dim)
    grid = []
    assignment = [{} for _ in range(cfg.dim)]
    classes, sizes, total = _class_sizes(p, N)
    while True:
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
        cube = class_representative(p, classes[idx])
        child = add_cube(p, cube)
        classes, sizes, total = _class_sizes(
            child, N, (p, classes, sizes, cube))
        p = child
        if p.m > most:
            raise AssertionError(
                f"trial grew past 2^{cfg.dim} cubes: {p.space} {p.cubes}")


def _decode_member(p, cls, member, N, assignment):
    """Grid anchors of the drawn member; records fresh parameter bases.

    assignment[j] maps a parameter to its base grid value: in [0, 2N) on
    the torus (the opposite literal sits at +N mod 2N), in [1, N-1] in the
    cube (blocking values are exactly 0 and N).
    """
    next_param = p.param_bound
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


def _cpu_count():
    """CPUs in this process's affinity set; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_chunk(cfg, trials, want_key):
    """Run the trials in a forked child; returns (pid, read end of a pipe).

    The child writes the pickled pair (True, results) or (False, the
    exception its trials raised) to the pipe and leaves by os._exit
    whatever happens, so it never returns into the caller's stack.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                reply = True, [_run_trial(cfg, t, want_key) for t in trials]
            except Exception as exc:
                reply = False, exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _trial_results(cfg, want_key):
    """_run_trial's results for every trial, in trial-index order.

    The first of the contiguous chunks runs here and each other one in a
    forked child (_fork_chunk).  A child's exception is raised here, and
    a child that ends without a result raises a RuntimeError naming its
    exit status.  Whatever is raised, every child still running is killed
    and reaped first.
    """
    k = min(cfg.trials, _cpu_count())
    bounds = [cfg.trials * i // k for i in range(k + 1)]
    children = []
    try:
        if k > 1:
            # a child must not write out text buffered before the fork
            sys.stdout.flush()
            sys.stderr.flush()
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_chunk(cfg, range(lo, hi), want_key))
        results = [_run_trial(cfg, t, want_key) for t in range(bounds[1])]
        while children:
            pid, pipe = children[0]
            with pipe:
                reply = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not reply:
                raise RuntimeError(
                    f"trial process {pid} ended without a result, exit "
                    f"status {os.waitstatus_to_exitcode(status)}")
            ok, payload = pickle.loads(reply)
            if not ok:
                raise payload
            results += payload
        return results
    finally:
        if children:
            # imported on this path alone: signal costs about 0.6 ms to import
            import signal
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def estimate_expectation(cfg, emit_histogram=False, allow_large=False):
    """Run all trials and aggregate; deterministic for a given (cfg, seed).

    The trials run in one contiguous chunk per CPU of the process's
    affinity set (os.sched_getaffinity), capped at the trial count: the
    calling process runs the first chunk and forked children the others
    (_trial_results).  Every report field is the same for any CPU count,
    and where os.fork or os.sched_getaffinity is missing one chunk runs
    here.  Python 3.12 and later warn with a DeprecationWarning when a
    process that has threads forks, as numpy's OpenBLAS threads make it;
    the warning is left to the caller's filters, not silenced here.

    Each child keeps its own sampler cache and copies every page it
    writes, so the call's memory grows with the number of chunks, by
    one child's private memory each: 10.8 MiB at n = 4, N = 50 and 400
    trials (the child's ru_maxrss, pages shared with the caller
    included, was 32 MiB).  The speed-up and the memory were measured
    on 2 CPUs only; more chunks are unmeasured.

    The 95% interval uses the normal approximation, which is adequate at
    the trial counts used here but approximate for small runs.

    Raises:
        ResourceGuardError: if cfg.dim > SIM_MAX_DIM without allow_large.
        RuntimeError: if a trial process ends without a result.
    """
    if cfg.dim > SIM_MAX_DIM and not allow_large:
        raise ResourceGuardError(
            f"dimension {cfg.dim} simulation exceeds the default limit "
            f"{SIM_MAX_DIM}"
        )
    results = _trial_results(cfg, emit_histogram)
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
