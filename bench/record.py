#!/usr/bin/env python3
"""Record a parent-against-change benchmark comparison as BENCH_<label>.json.

Runs each side's own ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` unchanged, from two source checkouts, in alternated pairs: pair
i runs both sides at seed ``--first-seed + i``, the parent first in even
pairs and the change first in odd ones. T is BENCHMARK.json's run_seconds.
Each run's end-to-end metrics are read from the JSON of its last stdout
line. The file holds, per workload and metric, every run's value, each
side's median and quartiles, the pairs the change won (ties count for
neither) and whether that is a gain by the rule of at least 9 pairs in 10
won and a median that moves by more than the parent's interquartile range.
Beside them it holds each pair's change/parent ratio with the ratios'
median and quartiles: the host's speed drifts over a session, and the two
runs of a pair drift together. It also holds each side's commit, whether
its tracked files differ from that commit, a digest of its src/ tree, the
golden digests of ``perfbench/child.py --golden-only --seed 0`` and, per
workload, whether that digest differs from the one pinned in
bench/golden.json (the event stream changed), plus nproc and the Python
version. With ``--grid`` it also runs as many rounds of the in-process grid
(bench/grid.py: engine, ``summary`` and ``validate_arg`` costs per path and
per event at fixed shapes) as there are pairs, one subprocess per side and
round on that side's src/, alternated as the pairs are, and holds each
row's values, median and quartiles per side and each round's change/parent
ratio. Run it from any directory:

    python3 bench/record.py --parent DIR --change DIR --label pr34 \\
        --workloads backintime-beta-roundtrip --pairs 10 --first-seed 81 --grid

The two sides run one at a time, so on a shared host nothing else should
run beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "bench" / "golden.json"
GRID = ROOT / "bench" / "grid.py"
SIDES = ("parent", "change")


def child_env(checkout):
    """The environment run.py gives its children: the checkout's src/, one thread."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def git(checkout, *args):
    done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source(checkout):
    """What a side ran: its commit, whether tracked files differ from it, and a digest of src/."""
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    commit = git(checkout, "rev-parse", "HEAD")
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": bool(status) if commit else None,
            "src_sha256": digest.hexdigest()}


def golden(checkout, workload):
    """sha256 of the workload's pinned-seed cycle, by child.py --golden-only --seed 0."""
    with tempfile.TemporaryDirectory() as work:
        result = Path(work) / "golden.json"
        subprocess.run([sys.executable, "perfbench/child.py", "--workload", workload, "--seed", "0",
                        "--seconds", "1", "--trace", "0", "--workdir", work, "--result", str(result),
                        "--golden-only"], cwd=checkout, env=child_env(checkout), check=True)
        res = json.loads(result.read_text())
    if res["failed"] or res["errors"]:
        raise RuntimeError("golden cycle of %s in %s failed: %s" % (workload, checkout, res["errors"]))
    return res["golden_sha256"]


def stream_changed(golden_sha256, pinned):
    """Per workload, whether a side's golden digest differs from the pinned one."""
    return {workload: digest != pinned[workload] for workload, digest in golden_sha256.items()}


def run(checkout, workload, seed, seconds):
    """One benchmark run; returns its contract line (correct, attempted, failed, metrics)."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", repr(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s: run.py --workload %s --seed %d exited %d:\n%s"
                           % (checkout, workload, seed, done.returncode, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def grid_round(checkout):
    """One round of bench/grid.py on the checkout's src/, in a subprocess: {row: microseconds}."""
    done = subprocess.run([sys.executable, str(GRID)], cwd=checkout, env=child_env(checkout),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s: bench/grid.py exited %d:\n%s" % (checkout, done.returncode, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def merge_grid(rounds):
    """Per grid row: each side's values, median and quartiles, and each round's change/parent ratio with theirs."""
    rows = {}
    for name in rounds[0]["parent"]:
        values = {side: [r[side][name] for r in rounds] for side in SIDES}
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        rows[name] = {**{side: {**spread(values[side]), "values": values[side]} for side in SIDES},
                      "ratio": {**spread(ratios), "values": ratios}}
    return rows


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric, runs):
    """One metric over the pairs: each side's values and spread, each pair's ratio, the pairs won, the verdict."""
    lower = metric["better"] == "lower"
    values = {side: [r[side]["metrics"][metric["name"]]["value"] for r in runs] for side in SIDES}
    pairs = list(zip(values["parent"], values["change"]))
    wins = sum((c < p) if lower else (c > p) for p, c in pairs)
    ties = sum(p == c for p, c in pairs)
    ratios = [c / p for p, c in pairs]
    stats = {side: spread(values[side]) for side in SIDES}
    moved = stats["parent"]["median"] - stats["change"]["median"]
    if not lower:
        moved = -moved
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        **{side: {**stats[side], "values": values[side]} for side in SIDES},
        "change_frac": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
        "pair_ratio": {**spread(ratios), "values": ratios},
        "pairs": len(runs), "change_won": wins, "ties": ties,
        "gain": 10 * wins >= 9 * len(runs) and moved > stats["parent"]["q3"] - stats["parent"]["q1"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--label", required=True, help="the file written is BENCH_<label>.json at the repo root")
    p.add_argument("--workloads", required=True, help="comma-separated perfbench workload names")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--grid", action="store_true", help="also run --pairs alternated rounds of bench/grid.py")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",")
    if args.pairs < 2 or args.first_seed < 0 or not set(workloads) <= set(known):
        p.error("--pairs must be at least 2, --first-seed nonnegative, workloads among %s" % known)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            p.error("--%s %s has no perfbench/run.py" % (side, checkout))
    seconds = spec["run_seconds"]
    pinned = json.loads(PINNED.read_text())["golden_sha256"]

    record = {
        "label": args.label,
        "command": "perfbench/run.py --workload W --seed S --seconds %g --trace 0" % seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sides": {},
        "workloads": {},
    }
    for side, checkout in sides.items():
        digests = {w: golden(checkout, w) for w in workloads}
        changed = stream_changed(digests, pinned)
        record["sides"][side] = {**source(checkout), "golden_sha256": digests, "stream_changed": changed}
        for workload in workloads:
            if changed[workload]:
                print("%s: %s stream differs from bench/golden.json" % (side, workload), flush=True)
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run(sides[side], workload, seed, seconds) for side in order}
            runs.append({"seed": seed, "first": order[0], **pair})
            print("%s pair %d seed %d: %s" % (workload, i, seed, ", ".join(
                "%s us_per_event %.3f" % (side, pair[side]["metrics"]["us_per_event"]["value"])
                for side in SIDES)), flush=True)
        record["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "first": [r["first"] for r in runs],
            "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
            "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in SIDES},
            "correct": {side: all(r[side]["correct"] for r in runs) for side in SIDES},
            "metrics": {m["name"]: compare(m, runs) for m in spec["end_to_end"]},
        }
    if args.grid:
        rounds = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            rounds.append({side: grid_round(sides[side]) for side in order})
            print("grid round %d done" % i, flush=True)
        record["grid"] = {"command": "bench/grid.py", "first": [SIDES[i % 2] for i in range(args.pairs)],
                          "rows": merge_grid(rounds)}
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
