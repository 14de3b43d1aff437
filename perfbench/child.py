"""One workload in one fresh, single-threaded process (started by run.py).

Runs the workload's commands one at a time (closed loop) through the
public entry point ``argsim.cli.main``, checks every output, and writes a
JSON result file. With ``--trace 1`` it runs the loop once under the full
tracer and then the same cycles again untraced, to give the per-layer
numbers and the tracing overhead.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE [--cycles K | --golden-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (sibling module of this script)

COMPARE_CSV_HEADER = "statistic,engineA_n,engineB_n,stat,p,pass"

# Spans that must fire at least once in each workload (the self-test checks
# this, so a renamed or rebound function shows up as a missing span).
_LOG_SPANS = (
    "cli.main", "cli.cmd_simulate", "cli.cmd_validate",
    "arg.validate_arg", "arg.read_args", "arg.write_arg",
    "state.apply", "state.check", "state.active_intervals", "state.union", "state.split",
    "density.cdf", "density.mass", "rng.uniform",
)

WORKLOADS = {
    "spatial-sweep": {
        "simulate": ["--engine", "spatial", "--samples", "20", "--rho", "10", "--density", "uniform"],
        "reps": 10,
        "trace_cycles": 8,
        "spans": _LOG_SPANS + (
            "spatial.simulate_spatial", "spatial.kingman_tree", "spatial.live_intervals",
            "spatial.free_rise", "spatial.sample_next_breakpoint",
            "spatial.sample_recomb_location", "spatial.trace_lineage",
            "spatial.accept_breakpoint", "spatial.graph_to_arg",
        ),
    },
    "backintime-beta-roundtrip": {
        "simulate": ["--engine", "backintime", "--samples", "20", "--rho", "15", "--density", "beta:2,2"],
        "reps": 30,
        "trace_cycles": 2,
        "spans": _LOG_SPANS + (
            "backintime.simulate_backintime", "backintime.total_rate",
            "backintime.sample_event", "backintime.sample_waiting_time",
            "density.sample_truncated",
        ),
    },
    "compare-battery": {
        # alpha 1e-6: at the default 0.001 the seven tests of a correct
        # pair of engines fail about one battery in 150, and a run holds
        # dozens; a broken engine still fails at once with 1000 replicates.
        # (breakpoints_mean_z ignores alpha: see compare_cycle.)
        "compare": ["--samples", "4", "--rho", "1", "--sites", "0,0.5", "--threads", "1",
                    "--alpha", "1e-6"],
        "reps": 1000,
        "trace_cycles": 2,
        "spans": (
            "cli.main", "cli.cmd_compare", "stats.equivalence_report", "stats.run_replicates",
            "stats.ks_two_sample", "stats.chi_square_two_sample", "stats.mean_difference_z",
            "arg.summary", "backintime.simulate_backintime", "backintime.total_rate",
            "backintime.sample_event", "spatial.simulate_spatial", "spatial.kingman_tree",
            "spatial.live_intervals", "spatial.trace_lineage", "spatial.accept_breakpoint",
            "spatial.graph_to_arg", "state.apply", "state.union", "state.split",
            "density.mass", "rng.uniform",
        ),
    },
}

# Exact counts that must repeat at equal seeds (run.py --self-test).
EXACT_COUNTS = (
    "rng.uniform.calls", "density.cdf.calls", "spatial.accept_breakpoint.calls",
    "spatial.rides", "spatial.detaches", "spatial.climbs", "events",
)


# Host speed on a shared machine drifts by tens of percent over tens of
# seconds, and process CPU time drifts with it, so a raw wall time measures
# the host as much as the program. Every command is therefore bracketed by
# a fixed pure-Python reference loop, and its wall time is scaled by
# REFERENCE_LOOP_S / (mean of the two bracketing loop times): the time the
# command would take on a host that runs the loop in REFERENCE_LOOP_S.
# On a 2-core x86-64 VM, identical spatial work repeated for 200 s gave
# 25 s windows that spread 0.14 (IQR over median) raw and 0.02 scaled; for
# backintime work the loop tracks the drift less well. Raw times are
# reported alongside.
REFERENCE_LOOP_S = 0.008


def reference_loop():
    """Wall seconds of one pass of the fixed reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


def cycle_seed(workload, seed, cycle):
    """Root seed of one cycle: a 64-bit hash of (workload, --seed, cycle index)."""
    digest = hashlib.sha256(("%s:%d:%d" % (workload, seed, cycle)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Tally:
    """What a pass of cycles did: command counts, timings, outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.cycles = 0
        self.reps = 0
        self.events = 0
        self.bytes_written = 0
        self.seconds = {"simulate": 0.0, "validate": 0.0, "compare": 0.0}  # raw wall time
        self.scaled = dict.fromkeys(self.seconds, 0.0)  # at reference host speed
        self.loops = []  # reference loop times, one before and one after each command
        self.digest = hashlib.sha256()
        self.z_cut_flags = 0  # compare batteries failed only by the fixed |z| <= 3 cut
        self.per_cycle = []  # per cycle: reps, events and scaled seconds per command

    def wrong(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)

    def call(self, command, argv, judged=()):
        """Run one CLI command in-process; returns (exit code, stdout text).

        Any other exit than 0 counts as a failed command, except the codes in
        ``judged``, which the caller decides on from the command's output.
        """
        from argsim.cli import main

        self.attempted += 1
        out = io.StringIO()
        if not self.loops:
            self.loops.append(reference_loop())
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = main([command] + argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing command is a failed operation, not a crashed benchmark
            code = -1
            self.wrong("%s raised:\n%s" % (command, traceback.format_exc()))
        elapsed = time.perf_counter() - start
        self.loops.append(reference_loop())
        self.seconds[command] += elapsed
        self.scaled[command] += elapsed * 2 * REFERENCE_LOOP_S / (self.loops[-2] + self.loops[-1])
        if code != 0 and code not in judged:
            self.fail("%s %s exited %r" % (command, " ".join(argv), code))
        return code, out.getvalue()

    def fail(self, message):
        self.failed += 1
        self.wrong(message)


_WROTE = re.compile(r"^wrote (\d+) replicate\(s\), (\d+) events -> ")
_PASSED = re.compile(r"^replicate (\d+) \(seed \d+, index (\d+)\): pass \((\d+) events\)$")


def log_cycle(spec, seed, workdir, tally):
    """simulate to an event log, then validate it; check both outputs."""
    reps = spec["reps"]
    path = workdir / "events.log"
    code, text = tally.call("simulate", spec["simulate"] + [
        "--seed", str(seed), "--reps", str(reps), "--out", str(path)])
    if code != 0:
        return
    data = path.read_bytes()
    tally.digest.update(data)
    tally.bytes_written += len(data)
    trailers = [json.loads(line) for line in data.splitlines() if line.startswith(b'{"events":')]
    counts = [t["events"] for t in trailers]
    wrote = _WROTE.match(text)
    if len(counts) != reps or not wrote or (int(wrote[1]), int(wrote[2])) != (reps, sum(counts)):
        tally.wrong("simulate output disagrees with its log trailers: %r" % text.strip())
    tally.reps += reps
    tally.events += sum(counts)
    code, text = tally.call("validate", [str(path)])
    if code != 0:
        return
    passed = [_PASSED.match(line) for line in text.splitlines()]
    if [(int(m[1]), int(m[2]), int(m[3])) if m else None for m in passed] != [
            (r, r, c) for r, c in enumerate(counts)]:
        tally.wrong("validate did not pass every replicate with the trailer's event count")


def compare_cycle(spec, seed, workdir, tally, counters):
    """compare both engines; check the CSV and count the events simulated."""
    reps = spec["reps"]
    path = workdir / "compare.csv"
    before = counters.get("events", 0)
    argv = spec["compare"] + ["--seed", str(seed), "--reps", str(reps), "--out", str(path)]
    code, _ = tally.call("compare", argv, judged=(1,))
    if code not in (0, 1):
        return
    data = path.read_bytes()
    tally.digest.update(data)
    rows = [line.split(",") for line in data.decode().splitlines()]
    sites = spec["compare"][spec["compare"].index("--sites") + 1].split(",")
    if (rows[:1] != [COMPARE_CSV_HEADER.split(",")] or len(rows) != 1 + 2 * len(sites) + 4
            or any(len(r) != 6 or r[1:3] != [str(reps)] * 2 for r in rows[1:])):
        tally.fail("compare report is not a full battery over %d replicates" % reps)
        return
    failing = [r for r in rows[1:] if r[5] != "pass"]
    alpha = float(spec["compare"][spec["compare"].index("--alpha") + 1])
    # breakpoints_mean_z passes only when |z| <= 3, whatever --alpha, so a
    # correct pair of engines fails it on about 0.27% of batteries. A battery
    # whose one failing row is that cut, at p > alpha, is counted apart;
    # every other failing row, and exit 1 without one, is a failed command.
    if code == 1 and len(failing) == 1 and failing[0][0] == "breakpoints_mean_z" \
            and float(failing[0][4]) > alpha:
        tally.z_cut_flags += 1
    elif code == 1 or failing:
        tally.fail("compare %s exited %d with failing rows %s" % (" ".join(argv), code, failing))
    tally.reps += reps
    tally.events += counters.get("events", 0) - before


def run_cycles(name, seeds, workdir, deadline=None, counters=None):
    """Run cycles over ``seeds`` until they run out or a cycle ends past the deadline."""
    spec = WORKLOADS[name]
    tally = Tally()
    for seed in seeds:
        before = (tally.reps, tally.events, dict(tally.scaled))
        if "compare" in spec:
            compare_cycle(spec, seed, workdir, tally, counters)
        else:
            log_cycle(spec, seed, workdir, tally)
        cycle = {cmd: sec - before[2][cmd] for cmd, sec in tally.scaled.items() if sec}
        cycle.update(reps=tally.reps - before[0], events=tally.events - before[1])
        tally.per_cycle.append(cycle)
        tally.cycles += 1
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return tally


def golden(name, workdir):
    """The pinned-seed cycle: warms the process up and fingerprints the stream."""
    pinned = json.loads((HERE / "pinned.json").read_text())
    light = tracer.Tracer(names=tracer.ENGINES, record=False).install()
    try:
        tally = run_cycles(name, [pinned["golden_seed"]], workdir, counters=light.counters)
    finally:
        light.uninstall()
    return tally, tally.digest.hexdigest(), pinned["sha256"].get(name)


def percentiles(samples):
    """(p50, tail percentile, value at it) by nearest rank.

    The tail percentile is the highest whole one with at least ten samples
    beyond it; with ten samples or fewer there is none and it reads 0.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0, 0.0
    if n <= 10:
        return statistics.median(xs), 0, 0.0
    pct = 100 * (n - 10) // n
    return statistics.median(xs), pct, xs[max(0, -(-pct * n // 100) - 1)]


def layer_metrics(full, light, tally, traced_s, untraced_s):
    m = {}

    def span(name, *fields):
        stat = full.stat(name)
        for field in fields:
            m["%s.%s" % (name, field)] = (stat[field], "count" if field == "calls" else "s")

    span("spatial.live_intervals", "calls", "self_s")
    span("spatial.accept_breakpoint", "calls", "self_s")
    span("spatial.trace_lineage", "self_s")
    span("spatial.free_rise", "calls")
    span("spatial.graph_to_arg", "self_s")
    span("spatial.kingman_tree", "self_s")
    span("spatial.sample_next_breakpoint", "self_s")
    span("spatial.sample_recomb_location", "self_s")
    for key in ("rides", "detaches", "climbs"):
        m["spatial." + key] = (full.counters.get(key, 0), "count")
    span("backintime.total_rate", "calls", "self_s")
    span("backintime.sample_event", "self_s")
    span("state.check", "calls", "self_s")
    span("state.apply", "calls", "self_s")
    span("state.active_intervals", "self_s")
    span("state.union", "self_s")
    span("state.split", "self_s")
    span("density.cdf", "calls")
    span("density.mass", "calls", "self_s")
    span("density.sample_truncated", "calls", "self_s")
    span("rng.uniform", "calls")
    span("arg.validate_arg", "calls", "self_s")
    span("arg.read_args", "self_s")
    span("arg.write_arg", "self_s")
    m["arg.bytes_written"] = (tally.bytes_written, "B")
    span("arg.summary", "self_s")
    span("stats.ks_two_sample", "self_s")
    span("stats.chi_square_two_sample", "self_s")
    span("stats.run_replicates", "busy_s")
    m["events"] = (full.counters.get("events", 0), "count")
    # per-replicate latency from the untraced pass (only the engine
    # functions carry a wrapper there)
    for engine in tracer.ENGINES:
        samples = light.durations(engine)
        p50, pct, tail = percentiles(samples)
        m[engine + ".p50_ms"] = (1e3 * p50, "ms")
        m[engine + ".ptail_ms"] = (1e3 * tail, "ms")
        m[engine + ".ptail_pct"] = (pct, "%")
        m[engine + ".samples"] = (len(samples), "count")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    m["trace.cycles"] = (tally.cycles, "count")
    return m


def loop_seconds(tally):
    return sum(tally.scaled.values())


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(name, tally):
    """Medians over cycles, so one costly replicate moves one cycle, not the run."""
    engine = "compare" if "compare" in WORKLOADS[name] else "simulate"
    cycles = [c for c in tally.per_cycle if c["reps"] and c["events"] and engine in c]
    commands = [cmd for cmd in tally.scaled if tally.scaled[cmd]]
    metrics = {
        "reps_per_s": (_median(c["reps"] / sum(c.get(cmd, 0.0) for cmd in commands)
                               for c in cycles), "1/s"),
        "us_per_event": (_median(1e6 * c[engine] / c["events"] for c in cycles), "us"),
    }
    info = {"%s_reps_per_s" % cmd: (_median(c["reps"] / c[cmd] for c in cycles if cmd in c), "1/s")
            for cmd in commands}
    if tally.events:
        info["raw_reps_per_s"] = (tally.reps / sum(tally.seconds.values()), "1/s")
        info["raw_us_per_event"] = (1e6 * tally.seconds[engine] / tally.events, "us")
    info["reference_loop_ms"] = (1e3 * statistics.mean(tally.loops), "ms")
    return metrics, info


def remove_outputs(workdir):
    for leftover in ("events.log", "events.log.manifest.json", "compare.csv"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(workdir / leftover)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--cycles", type=int, default=None,
                   help="run exactly this many cycles instead of --seconds (self-test)")
    p.add_argument("--golden-only", action="store_true",
                   help="run only the pinned-seed cycle (the peak-RSS process)")
    args = p.parse_args(argv)

    import argsim

    src = (ROOT / "src").resolve()
    if Path(argsim.__file__).resolve().parent.parent != src:
        sys.stderr.write("argsim imported from %s, not from %s\n" % (argsim.__file__, src))
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    name = args.workload

    gold, gold_sha, pinned = golden(name, args.workdir)
    result = {"golden_sha256": gold_sha, "pinned_sha256": pinned}
    if args.golden_only:
        result.update(attempted=gold.attempted, failed=gold.failed, errors=gold.errors,
                      z_cut_flags=gold.z_cut_flags)
        remove_outputs(args.workdir)
        args.result.write_text(json.dumps(result))
        return 0
    spec = WORKLOADS[name]
    cycles = args.cycles or (spec["trace_cycles"] if args.trace else None)
    if cycles is not None:
        seeds = [cycle_seed(name, args.seed, c) for c in range(cycles)]
    else:
        seeds = (cycle_seed(name, args.seed, c) for c in itertools.count())
    # A traced run does a fixed number of cycles, so its counts are exact and
    # comparable between commits; --seconds only caps it on a slow host
    # (trace.cycles then reads low).
    deadline = None if args.cycles else time.perf_counter() + (0.5 if args.trace else 1.0) * args.seconds

    if args.trace:
        full = tracer.Tracer().install()
        try:
            tally = run_cycles(name, seeds, args.workdir, deadline, full.counters)
        finally:
            full.uninstall()
        # the same cycles again, untraced but for one wrapper per replicate
        light = tracer.Tracer(names=tracer.ENGINES).install()
        try:
            plain = run_cycles(name, seeds[:tally.cycles], args.workdir, counters=light.counters)
        finally:
            light.uninstall()
        if plain.digest.hexdigest() != tally.digest.hexdigest():
            plain.wrong("traced and untraced passes wrote different outputs")
        result["fired"] = sorted(full.fired())
        metrics = layer_metrics(full, light, tally, loop_seconds(tally), loop_seconds(plain))
        spans_path = args.workdir / ("%s-seed%d.spans.jsonl" % (name, args.seed))
        with open(spans_path, "w") as fh:
            for span in full.spans:
                fh.write(json.dumps(span) + "\n")
        passes = (gold, tally, plain)
    else:
        light = None
        if "compare" in spec:  # compare writes no log: count events at the engines
            light = tracer.Tracer(names=tracer.ENGINES, record=False).install()
        try:
            tally = run_cycles(name, seeds, args.workdir, deadline,
                               light.counters if light else None)
        finally:
            if light:
                light.uninstall()
        metrics, info = end_to_end_metrics(name, tally)
        if not tally.per_cycle or not metrics["us_per_event"][0] > 0:
            tally.wrong("no complete cycle to measure")
        result["info"] = {k: {"value": v, "unit": u} for k, (v, u) in info.items()}
        passes = (gold, tally)

    result.update(
        attempted=sum(t.attempted for t in passes),
        failed=sum(t.failed for t in passes),
        errors=[e for t in passes for e in t.errors],
        cycles=tally.cycles,
        z_cut_flags=sum(t.z_cut_flags for t in passes),
        reps=tally.reps,
        events=tally.events,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    remove_outputs(args.workdir)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
