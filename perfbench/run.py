#!/usr/bin/env python3
"""argsim benchmark: three CLI workloads, end-to-end and per-layer metrics.

One workload, as the benchmark contract runs it (last stdout line is the
JSON result):

    python3 perfbench/run.py --workload spatial-sweep --seed 1 --seconds 25 --trace 0

Every workload, untraced then traced, with a summary table (results also
go to .perfbench_work/results.json):

    python3 perfbench/run.py [--seed N] [--seconds S]

Self-test: every listed span fires in its workload, and two traced runs at
one seed give identical exact counts:

    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the program is imported from its
``src/`` directory, nothing is installed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from child import EXACT_COUNTS, REFERENCE_LOOP_S, WORKLOADS, reference_loop  # noqa: E402

SETUP_RUNS = 5
RUN_BUDGET_S = 170.0  # every process of one run must end within this
# setup time, then the reference loop timed right after it in the same process
SETUP_CODE = (
    "import time; t = time.perf_counter(); import argsim.cli; argsim.cli.build_parser(); "
    "t = time.perf_counter() - t; import sys; sys.path.insert(0, %r); import child; "
    "print(repr(t), repr(child.reference_loop()))" % str(HERE)
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one thread per workload process: no BLAS or OpenMP pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["ARGSIM_THREADS"] = "1"
    return env


def spawn(argv, stdout, deadline):
    """Run a process to completion by a time.monotonic() deadline; return
    (exit code, its own rusage). A process still running then is killed.

    os.wait4 gives the rusage of exactly this child, so each workload's
    peak RSS is its own (RUSAGE_CHILDREN would be the maximum over all).
    """
    proc = subprocess.Popen(argv, stdout=stdout, env=child_env(), cwd=ROOT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                raise TimeoutError("%s ran past the run's %.0f s budget" % (" ".join(argv), RUN_BUDGET_S))
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.send_signal(signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL


def measure_setup(deadline):
    """Median over fresh interpreters of `import argsim.cli` plus build_parser(),
    each scaled to reference host speed like the command times (see child.py);
    returns (scaled, raw) medians."""
    times = []
    raw = []
    for i in range(SETUP_RUNS + 1):  # the first run only fills the bytecode cache
        out_path = WORK / "setup.out"
        with open(out_path, "w") as out:
            code, _ = spawn([sys.executable, "-c", SETUP_CODE], out, deadline)
        if code != 0:
            raise RuntimeError("importing argsim.cli failed (exit %d)" % code)
        if i:
            setup, loop = map(float, out_path.read_text().split())
            times.append(setup * REFERENCE_LOOP_S / loop)
            raw.append(setup)
    return statistics.median(times), statistics.median(raw)


def host_probe():
    """Median of 7 reference loops in ms, before and after a workload: a
    diagnostic of host speed; no metric is computed from it."""
    return 1e3 * statistics.median(reference_loop() for _ in range(7))


def run_child(name, seed, seconds, trace, deadline, extra=()):
    """child.py in a fresh process; returns (its result dict, its own rusage)."""
    result_path = WORK / ("%s-seed%d-trace%d.json" % (name, seed, trace))
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace),
            "--workdir", str(WORK / name), "--result", str(result_path), *extra]
    with open(WORK / ("%s.stdout" % name), "w") as out:
        code, usage = spawn(argv, out, deadline)
    if code != 0 or not result_path.exists():
        raise RuntimeError("workload %s exited %d without a result" % (name, code))
    return json.loads(result_path.read_text()), usage


def run_workload(name, seed, seconds, trace, cycles=None):
    """One workload in a fresh child process; returns the result dict."""
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    probe_before = host_probe()
    extra = () if cycles is None else ("--cycles", str(cycles))
    res, timed_usage = run_child(name, seed, seconds, trace, deadline, extra)
    res["host_probe_ms"] = [probe_before, host_probe()]
    if trace:
        res["metrics"]["host.probe_ms"] = {"value": probe_before, "unit": "ms"}
    else:
        setup_s, raw_setup_s = measure_setup(deadline)
        # Peak RSS comes from a process of its own that runs only the
        # pinned-seed cycle: the peak of a timed run is its largest replicate,
        # which depends on the seed's heaviest draw more than on the program.
        mem, usage = run_child(name, seed, seconds, trace, deadline, ("--golden-only",))
        res["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        res["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        res["info"]["raw_setup_s"] = {"value": raw_setup_s, "unit": "s"}
        res["info"]["timed_run_peak_rss_mb"] = {"value": timed_usage.ru_maxrss / 1024.0,
                                                   "unit": "MB"}
        res["attempted"] += mem["attempted"]
        res["failed"] += mem["failed"]
        res["errors"] += mem["errors"]
        res["z_cut_flags"] += mem["z_cut_flags"]
        if mem["golden_sha256"] != res["golden_sha256"]:
            res["errors"].append("the pinned-seed cycle gave different outputs in two processes")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():  # the metric set a run reports is the one BENCHMARK.json lists
        spec = json.loads(spec_path.read_text())
        listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        if listed != set(res["metrics"]):
            raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                               % sorted(listed.symmetric_difference(res["metrics"])))
    res["correct"] = res["failed"] == 0 and not res["errors"]
    return res


def report(name, seed, trace, res):
    """Human-readable lines for one run (the JSON result goes after them)."""
    lines = ["workload %s seed %d trace %d: %d cycles, %d replicates, %d events, "
             "%d commands, %d failed (failed_frac %.4g)"
             % (name, seed, trace, res["cycles"], res["reps"], res["events"],
                res["attempted"], res["failed"], res["failed"] / res["attempted"])]
    for key, m in sorted({**res.get("info", {}), **res["metrics"]}.items()):
        lines.append("  %-32s %12.6g %s" % (key, m["value"], m["unit"]))
    lines.append("  host probe: %.2f ms before, %.2f ms after (diagnostic only)"
                 % tuple(res["host_probe_ms"]))
    if res["z_cut_flags"]:
        lines.append("  %d compare batteries failed only breakpoints_mean_z's fixed |z| <= 3 cut"
                     " (p > alpha); not counted as failed" % res["z_cut_flags"])
    if res["pinned_sha256"] == res["golden_sha256"]:
        lines.append("  stream: golden outputs sha256 %s match the pinned value" % res["golden_sha256"])
    else:
        lines.append("  STREAM CHANGED: golden outputs sha256 %s, pinned %s"
                     % (res["golden_sha256"], res["pinned_sha256"]))
    for err in res["errors"]:
        lines.append("  ERROR: " + err)
    return lines


def contract_line(res):
    return json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})


def self_test(seed):
    """Spans fire where listed; exact counts repeat at one seed."""
    ok = True
    for name in WORKLOADS:
        first = run_workload(name, seed, 0.0, 1, cycles=1)
        second = run_workload(name, seed, 0.0, 1, cycles=1)
        missing = sorted(set(WORKLOADS[name]["spans"]) - set(first["fired"]))
        counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in (first, second)]
        good = not missing and counts[0] == counts[1] and first["correct"] and second["correct"]
        ok &= good
        print("%s %s: %s" % ("ok  " if good else "FAIL", name, json.dumps(counts[0])))
        if missing:
            print("     spans that never fired: %s" % ", ".join(missing))
        if counts[0] != counts[1]:
            print("     second run: %s" % json.dumps(counts[1]))
        for err in first["errors"] + second["errors"]:
            print("     ERROR: " + err)
    return 0 if ok else 1


def run_all(seed, seconds):
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, seed, seconds, trace)
            print("\n".join(report(name, seed, trace, res)), flush=True)
            results["%s/trace%d" % (name, trace)] = res
    (WORK / "results.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print("results -> %s" % (WORK / "results.json"))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "argsim" / "cli.py").is_file():
        sys.stderr.write("no argsim source at %s; run from a source checkout\n" % (ROOT / "src"))
        return 2
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    try:
        if args.self_test:
            return self_test(args.seed)
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, TimeoutError) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1
    print("\n".join(report(args.workload, args.seed, args.trace, res)))
    print(contract_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
