"""Outside-in layer trace for one benchmark pass.

The tracer wraps the public functions of each ``cubepack`` layer module from
outside the package: every module attribute that holds a wrapped function is
rebound to the wrapper, because ``census``, ``montecarlo`` and ``cli`` import
``canonical_key``, ``max_nb_classes`` and the others by name.
``RationalFunction`` arithmetic is counted through its public dunder methods.

Each wrapper records a span per call on a per-thread stack, so that spans
opened in the Monte Carlo thread pool nest correctly.  A span's self time is
its duration minus the durations of its direct child spans.  Spans are
aggregated per function in memory and written out by ``report`` when the pass
ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from time import perf_counter

# Layer modules whose public functions are all wrapped.
WHOLE_LAYERS = ("canon", "extend", "census", "discrete", "montecarlo")

# Layers wrapped at named functions only.  backend's entry points dispatch to
# kernel functions whose time belongs to them; model's other public
# functions are literal-code helpers called millions of times per pass, where
# a wrapper would cost more than they do.
NAMED_FUNCTIONS = {
    "backend": ("canonical_state", "search_min_maximal", "stabilizer_order"),
    "model": ("add_cube",),
    "ratfun": ("expand",),
}

# RationalFunction dunder methods, by the name they are reported under.
RATFUN_METHODS = {"add": ("__add__", "__radd__"), "mul": ("__mul__", "__rmul__")}


class _ThreadState:
    def __init__(self):
        self.stack = []
        # name -> [calls, total seconds, self seconds]
        self.spans = {}
        self.counts = {}
        self.distinct = set()


class Tracer:
    """Wraps the layer functions of the imported ``cubepack`` modules.

    ``install`` rebinds, ``uninstall`` restores, ``report`` merges the
    per-thread aggregates.  Functions absent from the traced commit are
    skipped, so their metrics read 0.
    """

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._restore = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, name, fn, on_return=None, on_call=None):
        def wrapper(*args, **kwargs):
            state = self._state()
            if on_call is not None:
                on_call(state, args, kwargs)
            stack = state.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                agg = state.spans.get(name)
                if agg is None:
                    agg = state.spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
            if on_return is not None:
                on_return(state, out)
            return out

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cubepack" or n.startswith("cubepack.")]
        targets = []
        for layer in WHOLE_LAYERS:
            mod = _import(layer)
            for attr, fn in sorted(vars(mod).items() if mod else ()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    targets.append((f"{layer}.{attr}", fn))
        for layer, attrs in NAMED_FUNCTIONS.items():
            mod = _import(layer)
            targets += [(f"{layer}.{a}", getattr(mod, a))
                        for a in attrs if hasattr(mod, a)]
        for name, fn in targets:
            wrapper = self._wrap(name, fn, _ON_RETURN.get(name),
                                 _ON_CALL.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebind(mod, attr, wrapper)
        cls = getattr(_import("ratfun"), "RationalFunction", None)
        for short, attrs in RATFUN_METHODS.items() if cls else ():
            wrappers = {}
            for attr in attrs:
                fn = cls.__dict__.get(attr)
                if fn is not None:
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(f"ratfun.{short}", fn)
                    self._rebind(cls, attr, wrappers[fn])

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def report(self):
        """Merged {"spans": {name: [calls, total_s, self_s]}, "counts": {...}}."""
        spans, counts, distinct = {}, {}, set()
        for state in self._states:
            for name, (calls, total, own) in state.spans.items():
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
            distinct |= state.distinct
        counts["canon.distinct_packings"] = len(distinct)
        return {"spans": dict(sorted(spans.items())),
                "counts": dict(sorted(counts.items()))}


def _import(layer):
    try:
        return importlib.import_module(f"cubepack.{layer}")
    except ImportError:
        return None


def _add_len(counter):
    def hook(state, out):
        state.counts[counter] = state.counts.get(counter, 0) + len(out)
    return hook


def _add_steps(state, out):
    state.counts["montecarlo.steps"] = (
        state.counts.get("montecarlo.steps", 0) + out[2])


def _add_distinct(state, args, kwargs):
    state.distinct.add(args[0] if args else kwargs.get("p"))


_ON_RETURN = {
    "extend.max_nb_classes": _add_len("extend.max_nb_classes.classes"),
    "extend.enumerate_extension_classes":
        _add_len("extend.enumerate_extension_classes.classes"),
    "census.torus_limit_census": _add_len("census.terminal_classes"),
    "montecarlo.sample_packing": _add_steps,
}

_ON_CALL = {"canon.canonical_key": _add_distinct}


def layer_metrics(trace, extra):
    """The per-layer metric values of one traced pass.

    Args:
        trace: ``Tracer.report()`` of the pass.
        extra: counts the pass measured from its own outputs
            (``census.checkpoint_bytes``).
    """
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum((v[2] for k, v in spans.items()
                    if k.startswith(layer + ".")), 0.0)

    key_calls = calls("canon.canonical_key")
    steps = counts.get("montecarlo.steps", 0)
    return {
        "canon.canonical_key.calls": key_calls,
        "canon.canonical_key.self_s": own("canon.canonical_key"),
        "canon.automorphism_order.calls": calls("canon.automorphism_order"),
        "canon.automorphism_order.self_s": own("canon.automorphism_order"),
        "canon.encode.self_s": own("canon.encode"),
        "canon.distinct_frac": (counts.get("canon.distinct_packings", 0)
                                / key_calls if key_calls else 0.0),
        "extend.max_nb_classes.calls": calls("extend.max_nb_classes"),
        "extend.max_nb_classes.self_s": own("extend.max_nb_classes"),
        "extend.max_nb_classes.classes":
            counts.get("extend.max_nb_classes.classes", 0),
        "extend.enumerate_extension_classes.calls":
            calls("extend.enumerate_extension_classes"),
        "extend.enumerate_extension_classes.self_s":
            own("extend.enumerate_extension_classes"),
        "extend.enumerate_extension_classes.classes":
            counts.get("extend.enumerate_extension_classes.classes", 0),
        "extend.class_size.calls": calls("extend.class_size"),
        "census.self_s": layer_self("census"),
        "census.terminal_classes": counts.get("census.terminal_classes", 0),
        "census.checkpoint_bytes": extra.get("census.checkpoint_bytes", 0),
        "model.add_cube.calls": calls("model.add_cube"),
        "ratfun.add.calls": calls("ratfun.add"),
        "ratfun.add.self_s": own("ratfun.add"),
        "ratfun.mul.calls": calls("ratfun.mul"),
        "ratfun.mul.self_s": own("ratfun.mul"),
        "ratfun.expand.self_s": own("ratfun.expand"),
        "backend.canonical_state.calls": calls("backend.canonical_state"),
        "backend.canonical_state.self_s": own("backend.canonical_state"),
        "backend.search_min_maximal.calls": calls("backend.search_min_maximal"),
        "backend.search_min_maximal.self_s": own("backend.search_min_maximal"),
        "backend.stabilizer_order.self_s": own("backend.stabilizer_order"),
        "discrete.self_s": layer_self("discrete"),
        "montecarlo.trials": calls("montecarlo.sample_packing"),
        "montecarlo.steps": steps,
        "montecarlo.sample_packing.self_s": own("montecarlo.sample_packing"),
        "montecarlo.enumerate_per_step": (
            calls("extend.enumerate_extension_classes") / steps
            if steps else 0.0),
    }
