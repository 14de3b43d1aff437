"""Command-line surface: simulate / validate / tree / compare.

Exit codes: 0 success, 1 failed validation or failed comparison,
2 usage or parse errors, a run expected to pass the event cap or stopped
at it, or a tree asked of a log that never absorbs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, backintime
from .arg import (
    ArgParseError,
    _field,
    local_tree,
    read_args,
    validate_arg,
    write_arg,
)
from .backintime import EventCapExceeded
from .config import SimConfig
from .density import parse_density
from .rng import SALTS, child_seed
from .state import fmt_locus
from .stats import (
    CSV_HEADER,
    ENGINES,
    equivalence_report,
    kingman_expectations,
    render_report_table,
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="argsim",
        description="Coalescent-with-recombination simulator with two independent engines.",
    )
    p.add_argument("--version", action="version", version="argsim %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one engine and write an event-log stream")
    sim.add_argument("--engine", choices=sorted(ENGINES), default=None)
    sim.add_argument("--samples", type=int, default=None, help="number of sampled leaves (>= 2)")
    sim.add_argument("--rho", type=float, default=None, help="recombination rate (>= 0)")
    sim.add_argument("--density", default=None, help="breakpoint density: uniform or beta:a,b")
    sim.add_argument("--seed", type=int, default=None, help="root seed (uint64)")
    sim.add_argument("--reps", type=int, default=None, help="number of replicates")
    sim.add_argument("--out", default=None, help="output event-log path")
    sim.add_argument("--from-manifest", default=None, metavar="MANIFEST",
                     help="load all settings from a previous run's manifest")

    val = sub.add_parser("validate", help="replay an event-log file and check legality")
    val.add_argument("path")

    tree = sub.add_parser("tree", help="print the local tree at a site")
    tree.add_argument("path")
    tree.add_argument("--site", type=float, required=True)
    tree.add_argument("--format", choices=("newick", "levels"), default="newick")

    cmp_ = sub.add_parser("compare", help="run both engines and test distributional agreement")
    cmp_.add_argument("--samples", type=int, required=True)
    cmp_.add_argument("--rho", type=float, default=0.0)
    cmp_.add_argument("--density", default="uniform")
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--reps", type=int, required=True)
    cmp_.add_argument("--sites", default="0,0.25,0.5,0.75",
                      help="comma-separated sites in [0,1)")
    cmp_.add_argument("--alpha", type=float, default=0.001)
    cmp_.add_argument("--out", default="compare_report.csv", help="CSV report path")
    cmp_.add_argument("--threads", type=int, default=None,
                      help="worker processes, at least 1 (default: CPU count)")
    return p


# (setting, manifest key, JSON types) of the fields a manifest must hold
_MANIFEST_FIELDS = (
    ("engine", "engine", (str,)), ("samples", "n_samples", (int,)), ("rho", "rho", (int, float)),
    ("density", "density", (str,)), ("seed", "seed", (int,)), ("reps", "reps", (int,)),
)


def _simulate_settings(args, parser):
    """Merge --from-manifest with explicit flags; explicit flags win."""
    settings = {
        "engine": "backintime", "samples": None, "rho": 0.0,
        "density": "uniform", "seed": 0, "reps": 1, "out": None,
    }
    if args.from_manifest:
        where = "manifest %s" % args.from_manifest
        try:
            with open(args.from_manifest) as fh:
                man = json.load(fh)
            for setting, key, kinds in _MANIFEST_FIELDS:
                settings[setting] = _field(man, key, kinds, where)
            if "out" in man:
                settings["out"] = _field(man, "out", (str,), where)
        except ArgParseError as exc:
            parser.error(str(exc))
        except (OSError, ValueError) as exc:
            parser.error("cannot read %s: %s" % (where, exc))
        if settings["engine"] not in ENGINES:
            parser.error("%s: unknown engine %r" % (where, settings["engine"]))
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if settings["samples"] is None:
        parser.error("--samples is required (or use --from-manifest)")
    if settings["out"] is None:
        parser.error("--out is required (or use --from-manifest)")
    return settings


def _past_event_cap(n, rho):
    """Whether a path expects more events than the cap; if so, says so.

    A path has n - 1 coalescences and two events per breakpoint, and a
    mean Kingman tree length E[L] gives rho * E[L] / 2 breakpoints.
    """
    expected = n - 1 + rho * kingman_expectations(n)[1]
    cap = backintime.DEFAULT_EVENT_CAP
    if expected > cap:
        sys.stderr.write("error: a path is expected to take %.4g events, past the cap of %d"
                         " (n=%d rho=%g)\n" % (expected, cap, n, rho))
    return expected > cap


def cmd_simulate(args, parser):
    s = _simulate_settings(args, parser)
    try:
        density = parse_density(s["density"])
        base = SimConfig(n_samples=s["samples"], rho=s["rho"], density=density, seed=s["seed"])
    except ValueError as exc:
        parser.error(str(exc))
    if s["reps"] < 1:
        parser.error("--reps must be at least 1")
    if _past_event_cap(base.n_samples, base.rho):
        return 2
    salt = SALTS[s["engine"]]
    run = ENGINES[s["engine"]]
    args_out = []
    for r in range(s["reps"]):
        try:
            arg = run(base.with_replicate(r))
        except EventCapExceeded as exc:
            sys.stderr.write("error: replicate %d: %s\n" % (r, exc))
            return 2
        report = validate_arg(arg)
        if not report.passed:
            sys.stderr.write("engine produced an invalid event path (replicate %d):\n" % r)
            sys.stderr.write(report.render() + "\n")
            return 1
        args_out.append(arg)
    with open(s["out"], "w") as fh:
        for arg in args_out:
            write_arg(arg, fh)
    manifest = {
        "tool": "argsim %s" % __version__,
        "format_version": 1,
        "engine": s["engine"],
        "n_samples": s["samples"],
        "rho": s["rho"],
        "density": density.spec,
        "seed": s["seed"],
        "reps": s["reps"],
        "out": s["out"],
        "child_seeds": [child_seed(s["seed"], r, salt) for r in range(s["reps"])],
    }
    with open(s["out"] + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    total_events = sum(a.event_count for a in args_out)
    print("wrote %d replicate(s), %d events -> %s" % (s["reps"], total_events, s["out"]))
    return 0


def _read_logs(path, parser):
    """The event logs in a file, or None after a one-line parse error."""
    try:
        with open(path) as fh:
            return read_args(fh)
    except OSError as exc:
        parser.error(str(exc))
    except (ArgParseError, UnicodeDecodeError) as exc:
        sys.stderr.write("parse error: %s\n" % exc)
    return None


def cmd_validate(args, parser):
    logs = _read_logs(args.path, parser)
    if logs is None:
        return 2
    ok = True
    for idx, arg in enumerate(logs):
        report = validate_arg(arg)
        tag = "replicate %d (seed %d, index %d)" % (idx, arg.config.seed, arg.config.replicate_index)
        if report.passed:
            print("%s: pass (%d events)" % (tag, arg.event_count))
        else:
            ok = False
            print("%s: FAIL" % tag)
            print(report.render())
    return 0 if ok else 1


def _render_partition(blocks):
    return "|".join("{%s}" % ",".join(str(i) for i in sorted(b)) for b in blocks)


def cmd_tree(args, parser):
    if not (0.0 <= args.site < 1.0):
        parser.error("--site must lie in [0,1)")
    logs = _read_logs(args.path, parser)
    if logs is None:
        return 2
    for idx, arg in enumerate(logs):
        if not arg.final_state.is_absorbed:
            sys.stderr.write(
                "error: replicate %d (seed %d, index %d) does not end in the absorbing state; "
                "run validate for details\n" % (idx, arg.config.seed, arg.config.replicate_index)
            )
            return 2
    for idx, arg in enumerate(logs):
        tree = local_tree(arg, args.site)
        if len(logs) > 1:
            print("# replicate %d" % idx)
        if args.format == "newick":
            print(tree.newick())
        else:
            print("time,partition")
            for t, blocks in tree.levels:
                print("%s,%s" % (fmt_locus(t), _render_partition(blocks)))
    return 0


def cmd_compare(args, parser):
    try:
        sites = tuple(float(tok) for tok in args.sites.split(",") if tok.strip() != "")
    except ValueError:
        parser.error("--sites must be a comma-separated list of numbers")
    if not sites:
        parser.error("--sites must name at least one site")
    names = ["%g" % s for s in sites]  # the report's row names
    if len(set(names)) < len(names):
        parser.error("--sites names a site twice: %s" % ",".join(names))
    for s in sites:
        if not (0.0 <= s < 1.0):
            parser.error("site %g outside [0,1)" % s)
    if not (0.0 < args.alpha <= 1.0):
        parser.error("--alpha must lie in (0,1]")
    if args.reps < 2:
        parser.error("--reps must be at least 2")
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        density = parse_density(args.density)
        SimConfig(n_samples=args.samples, rho=args.rho, density=density, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    if _past_event_cap(args.samples, args.rho):
        return 2
    try:
        reports, _ = equivalence_report(
            args.samples, args.rho, density, args.seed, args.reps,
            sites=sites, alpha=args.alpha, threads=args.threads,
        )
    except EventCapExceeded as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    print(render_report_table(reports))
    with open(args.out, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")
    print("report -> %s" % args.out)
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args, parser)
    if args.command == "validate":
        return cmd_validate(args, parser)
    if args.command == "tree":
        return cmd_tree(args, parser)
    if args.command == "compare":
        return cmd_compare(args, parser)
    parser.error("unknown command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
