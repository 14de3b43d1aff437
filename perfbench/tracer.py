"""Out-of-program tracer for argsim.

Wraps the public functions of the argsim modules, and the public methods
of their core classes, at every binding site a call can go through: the
defining module, every other argsim module that imported the name, dicts
held in module globals (the ``_ENGINES`` registries), and class
attributes. Each wrapped call is a span (name, start, end, parent). Per
span name the tracer keeps the exact call count, the self time (duration
minus the time covered by child spans) and the busy time (duration of the
outermost span of that name). Raw spans are kept in memory only for the
coarse names in ``RECORDED``; the hot leaf calls are aggregated.

Nothing under ``src/`` is modified: wrappers are installed on a live
interpreter and removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("cli", "backintime", "spatial", "state", "density", "rng", "arg", "stats")

# Classes whose public methods are wrapped, by defining module. A method
# is named after that module: Lineage.union is "state.union".
CLASSES = {
    "state": ("State", "Lineage"),
    "density": ("UniformDensity", "BetaDensity"),
    "rng": ("SimRng",),
}

# Trivial accessors called in the innermost loops (value lookups in
# State.check, sort keys). A wrapper per call would cost more than the call
# and bury the caller's self time, so they stay unwrapped.
UNWRAPPED = {"state.value_at", "state.rank_key"}

# Names whose individual spans are kept (not only aggregated): one span per
# command, replicate, validation, parse or test, never per inner step.
RECORDED = frozenset({
    "cli.main", "cli.cmd_simulate", "cli.cmd_validate", "cli.cmd_compare",
    "backintime.simulate_backintime", "spatial.simulate_spatial",
    "arg.validate_arg", "arg.read_args", "arg.write_arg", "arg.summary",
    "stats.run_replicates", "stats.equivalence_report",
    "stats.ks_two_sample", "stats.chi_square_two_sample", "stats.mean_difference_z",
})

ENGINES = ("backintime.simulate_backintime", "spatial.simulate_spatial")


def _count_events(counters, arg):
    counters["events"] = counters.get("events", 0) + arg.event_count


def _count_trace_steps(counters, trace):
    """Rides, detaches and climbs of one Trace, read from its steps.

    A "coal" step ends a free rise; it starts a ride unless it is the last
    step (absorption into the local tree). Absorption can also end a climb.
    """
    steps = trace.steps
    kinds = [step[0] for step in steps]
    coal = kinds.count("coal")
    counters["rides"] = counters.get("rides", 0) + coal - (1 if kinds[-1] == "coal" else 0)
    counters["detaches"] = counters.get("detaches", 0) + kinds.count("detach")
    counters["climbs"] = counters.get("climbs", 0) + kinds.count("climb")


OBSERVERS = {
    "backintime.simulate_backintime": _count_events,
    "spatial.simulate_spatial": _count_events,
    "spatial.trace_lineage": _count_trace_steps,
}


def discover():
    """Every traceable (span name, owner class or None, attribute, function)."""
    found = []
    for mod_name in MODULES:
        mod = importlib.import_module("argsim." + mod_name)
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                continue
            found.append(("%s.%s" % (mod_name, attr), None, attr, obj))
        for cls_name in CLASSES.get(mod_name, ()):
            cls = getattr(mod, cls_name)
            for attr, obj in vars(cls).items():
                name = "%s.%s" % (mod_name, attr)
                # classmethods, staticmethods and properties are not plain
                # functions in the class dict and are left alone
                if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(obj)
                        or inspect.isgeneratorfunction(obj)):
                    continue
                found.append((name, cls, attr, obj))
    return found


class Tracer:
    """Span recorder over a set of argsim names (all traceable names by default)."""

    def __init__(self, names=None, record=True):
        self.names = names
        self.record = record
        self.agg = {}  # name -> [calls, self_s, busy_s, open spans of this name]
        self.spans = []  # (name, start, end, parent index or -1)
        self.counters = {}
        self._stack = [[0.0, -1]]  # frames: [child time, index of nearest recorded span]
        self._undo = []

    def fired(self):
        return {name for name, agg in self.agg.items() if agg[0]}

    def stat(self, name):
        calls, self_s, busy_s, _ = self.agg.get(name, (0, 0.0, 0.0, 0))
        return {"calls": calls, "self_s": self_s, "busy_s": busy_s}

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def install(self):
        wrapped = {}  # id(original function) -> wrapper
        for name, cls, attr, fn in discover():
            if self.names is not None and name not in self.names:
                continue
            wrapper = self._wrap(name, fn)
            if cls is None:
                wrapped[id(fn)] = wrapper
            else:
                self._undo.append((cls, attr, fn, False))
                setattr(cls, attr, wrapper)
        # rebind every reference to a wrapped function: module globals of
        # every argsim module, and dicts held in those globals
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "argsim" or mod_name.startswith("argsim.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._undo.append((mod, attr, obj, False))
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._undo.append((obj, key, val, True))
                            obj[key] = wrapped[id(val)]
        return self

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo = []

    def _wrap(self, name, fn):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans if self.record and name in RECORDED else None
        observe = OBSERVERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if spans is None:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            agg[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur - frame[0]
                agg[3] -= 1
                if not agg[3]:
                    agg[2] += dur
                stack[-1][0] += dur
                if spans is not None:
                    spans[frame[1]] = (name, start, end, parent[1])
            if observe is not None:
                observe(counters, result)
            return result

        return traced
