#!/usr/bin/env python3
"""Time one round of the in-process grid and print its rows as one JSON object.

Times argsim's public API in this process, on whichever argsim is first on
sys.path, so ``PYTHONPATH=<checkout>/src python3 bench/grid.py`` times that
checkout. Two kinds of row, at seed 1 under the uniform law:

* per path, at tier-1's shapes (n, rho) = (4, 1) and (6, 0): each engine's
  ``simulate`` and ``summary`` at sites (0, 0.5) of both engines' paths, in
  microseconds per path. At this size a path's cost is mostly what it pays
  whatever its events.
* per event, at (50, 0), (800, 0), (20, 5) and (20, 60): each engine's
  ``simulate`` and ``validate_arg`` of its paths, in microseconds per event.

Each row is timed in three passes over its paths, after a warm-up path of
its shape, and keeps the fastest; every path's configuration is built
before its clock starts. bench/record.py runs this in alternated rounds,
one subprocess per side and round, and merges the rounds.
"""

from __future__ import annotations

import json
import time

from argsim import SimConfig, simulate_backintime, simulate_spatial, summary, validate_arg

ENGINES = (("backintime", simulate_backintime), ("spatial", simulate_spatial))
SEED = 1
SITES = (0.0, 0.5)
REPEATS = 3  # a row's time is its best pass: a pass the host interrupts reads high
PATH_ROWS = ((4, 1.0, 1500), (6, 0.0, 1500))  # (n, rho, paths)
EVENT_ROWS = ((50, 0.0, 20), (800, 0.0, 2), (20, 5.0, 20), (20, 60.0, 5))


def timed(fn, items):
    """fn over items, with the least seconds it took in REPEATS passes."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        start = clock()
        out = [fn(item) for item in items]
        best = min(best, clock() - start)
    return out, best


def configs(n, rho, paths):
    base = SimConfig(n_samples=n, rho=rho, seed=SEED)
    return [base.with_replicate(r) for r in range(paths)]


def grid_round():
    """One timing of every row: {row name: microseconds}."""
    rows = {}
    for n, rho, paths in PATH_ROWS:
        cfgs = configs(n, rho, paths)
        shape = "n%d_rho%g" % (n, rho)
        args = []
        for engine, simulate in ENGINES:
            simulate(cfgs[0])
            got, seconds = timed(simulate, cfgs)
            rows["%s_us_per_path_%s" % (engine, shape)] = 1e6 * seconds / paths
            args += got
        summary(args[0], SITES)
        _, seconds = timed(lambda arg: summary(arg, SITES), args)
        rows["summary_us_per_path_%s" % shape] = 1e6 * seconds / len(args)
    for n, rho, paths in EVENT_ROWS:
        cfgs = configs(n, rho, paths)
        shape = "n%d_rho%g" % (n, rho)
        for engine, simulate in ENGINES:
            simulate(cfgs[0])
            args, seconds = timed(simulate, cfgs)
            events = sum(arg.event_count for arg in args)
            rows["%s_us_per_event_%s" % (engine, shape)] = 1e6 * seconds / events
            _, seconds = timed(validate_arg, args)
            rows["validate_%s_us_per_event_%s" % (engine, shape)] = 1e6 * seconds / events
    return rows


if __name__ == "__main__":
    print(json.dumps(grid_round()))
