"""Command-line surface: simulate / validate / tree / compare.

Exit codes: 0 success, 1 failed validation or failed comparison, 2 a
refusal: a usage or parse error, a run expected to pass the event cap or
stopped at it, or a tree asked of a log that fails clause (c), (d) or (e).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from . import __version__, config
from .arg import (
    ArgParseError,
    _field,
    local_tree,
    read_args,
    validate_arg,
    validate_replayed,
    write_arg,
)
from .config import EventCapExceeded, SimConfig
from .density import parse_density
from .rng import SALTS, child_seed
from .state import fmt_locus, render_typeset
from .stats import (
    CSV_HEADER,
    ENGINES,
    equivalence_report,
    kingman_expectations,
    render_report_table,
)


class _Refusal(Exception):
    """Bad input, raised where it is found: main writes "kind: message" and returns 2."""
    def __init__(self, message, kind="argsim: error"):
        super().__init__("%s: %s" % (kind, message))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's hook, also used by its subparsers
        raise _Refusal(message, "%s: error" % self.prog)


def build_parser():
    p = _Parser(
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
    sim.set_defaults(run=cmd_simulate)

    val = sub.add_parser("validate", help="replay an event-log file and check legality")
    val.add_argument("path")
    val.set_defaults(run=cmd_validate)

    tree = sub.add_parser("tree", help="print the local tree at a site")
    tree.add_argument("path")
    tree.add_argument("--site", type=float, required=True)
    tree.add_argument("--format", choices=("newick", "levels"), default="newick")
    tree.set_defaults(run=cmd_tree)

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
                      help="worker processes, at least 1 (default: CPU count); at most"
                           " min(N, --reps, CPU count) start")
    cmp_.set_defaults(run=cmd_compare)
    return p


# (setting, manifest key, JSON types) of the fields a manifest must hold
_MANIFEST_FIELDS = (
    ("engine", "engine", (str,)), ("samples", "n_samples", (int,)), ("rho", "rho", (int, float)),
    ("density", "density", (str,)), ("seed", "seed", (int,)), ("reps", "reps", (int,)),
)


def _simulate_settings(args):
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
                settings[setting] = _field(man, key, kinds)
            if "out" in man:
                settings["out"] = _field(man, "out", (str,))
        except ArgParseError as exc:
            raise _Refusal("%s: %s" % (where, exc))
        except (OSError, ValueError) as exc:
            raise _Refusal("cannot read %s: %s" % (where, exc))
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if settings["engine"] not in ENGINES:  # --engine has choices: the manifest's engine stands
        raise _Refusal("manifest %s: unknown engine %r" % (args.from_manifest, settings["engine"]))
    if settings["samples"] is None:
        raise _Refusal("--samples is required (or use --from-manifest)")
    if settings["out"] is None:
        raise _Refusal("--out is required (or use --from-manifest)")
    return settings


def _check_out(path):
    """Refuse, before any run, a path that cannot be written as a regular file.

    A path that is, through symlinks, a FIFO or a device is refused: opening
    it may block, and a rename would replace it. The folder checked is the
    one the file is written in, that of the path through symlinks. A
    failure this cannot foresee is reported the same way when the file is
    written.
    """
    if os.path.isdir(path):
        raise _Refusal("cannot write %s: it is a directory" % path)
    real = os.path.realpath(path)
    if os.path.lexists(real) and not os.path.isfile(real):
        raise _Refusal("cannot write %s: not a regular file" % path)
    folder = os.path.dirname(real)
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise _Refusal("cannot write %s: no writable directory %s" % (path, folder))


def _check_event_cap(n, rho):
    """Refuse a run whose paths expect more events than the cap.

    A path has n - 1 coalescences and two events per breakpoint, and a
    mean Kingman tree length E[L] gives rho * E[L] / 2 breakpoints. E[L]
    costs O(n), and SimConfig has already bounded n.
    """
    cap = config.DEFAULT_EVENT_CAP
    events = n - 1 + rho * kingman_expectations(n)[1]
    if events > cap:
        raise _Refusal("a path is expected to take %.4g events, past the cap of %d"
                       " (n=%d rho=%g)" % (events, cap, n, rho), "error")


def cmd_simulate(args):
    s = _simulate_settings(args)
    try:
        base = SimConfig(n_samples=s["samples"], rho=s["rho"], density=parse_density(s["density"]), seed=s["seed"])
    except EventCapExceeded as exc:
        raise _Refusal(str(exc), "error")
    except ValueError as exc:
        raise _Refusal(str(exc))
    if s["reps"] < 1:
        raise _Refusal("--reps must be at least 1")
    targets = (s["out"], s["out"] + ".manifest.json")
    for path in targets:
        _check_out(path)
    # writing through a symlink keeps the link and replaces its target
    renamed = [os.path.realpath(path) for path in targets]
    _check_event_cap(base.n_samples, base.rho)
    salt = SALTS[s["engine"]]
    run = ENGINES[s["engine"]]
    manifest = {
        "tool": "argsim %s" % __version__,
        "format_version": 1,
        "engine": s["engine"],
        "n_samples": base.n_samples,
        "rho": base.rho,
        "density": base.density.spec,
        "seed": base.seed,
        "reps": s["reps"],
        "out": s["out"],
        "child_seeds": [child_seed(base.seed, r, salt) for r in range(s["reps"])],
    }
    # Each replicate is written as soon as it passes validation, into files
    # beside the targets that are renamed over them only once the whole run
    # has passed, so a failed run leaves no log and no manifest behind.
    staged = ["%s.%d.tmp" % (path, os.getpid()) for path in renamed]
    target = targets[0]  # the file a write failure is reported against
    total_events = 0
    try:
        with open(staged[0], "x") as fh:
            for r in range(s["reps"]):
                try:
                    arg = run(base.with_replicate(r))
                except EventCapExceeded as exc:
                    raise _Refusal("replicate %d: %s" % (r, exc), "error")
                report = validate_arg(arg)
                if not report.passed:
                    sys.stderr.write("engine produced an invalid event path (replicate %d):\n" % r)
                    sys.stderr.write(report.render() + "\n")
                    return 1
                write_arg(arg, fh)
                total_events += arg.event_count
                del arg  # hold one replicate at a time: drop it before the next runs
        target = targets[1]
        with open(staged[1], "x") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for tmp, real, target in zip(staged, renamed, targets):
            os.replace(tmp, real)
    except OSError as exc:
        raise _Refusal("cannot write %s: %s" % (target, exc.strerror))
    finally:
        for tmp in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
    print("wrote %d replicate(s), %d events -> %s" % (s["reps"], total_events, s["out"]))
    return 0


def _each_log(path, visit):
    """The list of visit(index, arg) over the event logs of a file, in order.

    A file that cannot be read or parsed is refused, so a caller prints
    nothing before the whole file has parsed. One log is alive at a time:
    map keeps no reference to a log once visit returns, and the reader
    builds the next one only then (a for loop's variable, or enumerate's
    result, would hold the last log while the next is read).
    """
    try:
        with open(path) as fh:
            return list(map(visit, itertools.count(), read_args(fh)))
    except OSError as exc:
        raise _Refusal(str(exc))
    except (ArgParseError, UnicodeDecodeError) as exc:
        raise _Refusal(str(exc), "parse error")


def _tag(idx, arg):
    return "replicate %d (seed %d, index %d)" % (idx, arg.config.seed, arg.config.replicate_index)


def cmd_validate(args):
    def check(idx, arg):
        report = validate_replayed(arg)
        if report.passed:
            return True, "%s: pass (%d events)" % (_tag(idx, arg), arg.event_count)
        return False, "%s: FAIL\n%s" % (_tag(idx, arg), report.render())

    results = _each_log(args.path, check)
    for _, text in results:
        print(text)
    return 0 if all(ok for ok, _ in results) else 1


def cmd_tree(args):
    if not (0.0 <= args.site < 1.0):
        raise _Refusal("--site must lie in [0,1)")

    def draw(idx, arg):
        """The output lines of one log, or the refusal of a log that fails a clause."""
        report = validate_replayed(arg)
        if not report.passed:
            _, clause, message = report.violations[0]
            return _Refusal("%s fails clause (%s): %s; run validate for details"
                            % (_tag(idx, arg), clause, message), "error")
        tree = local_tree(arg, args.site)
        if args.format == "newick":
            return [tree.newick()]
        return ["time,partition"] + [
            "%s,%s" % (fmt_locus(t), "|".join(map(render_typeset, blocks))) for t, blocks in tree.levels
        ]

    results = _each_log(args.path, draw)
    for refusal in (r for r in results if isinstance(r, _Refusal)):
        raise refusal  # only once the whole file has parsed: a parse error comes first
    for idx, lines in enumerate(results):
        if len(results) > 1:
            print("# replicate %d" % idx)
        print("\n".join(lines))
    return 0


def cmd_compare(args):
    try:
        # + 0.0 turns -0.0 into 0.0: one site, one row name
        sites = tuple(float(tok) + 0.0 for tok in args.sites.split(",") if tok.strip() != "")
    except ValueError:
        raise _Refusal("--sites must be a comma-separated list of numbers")
    if not sites:
        raise _Refusal("--sites must name at least one site")
    names = ["%g" % s for s in sites]  # the report's row names
    if len(set(names)) < len(names):
        raise _Refusal("--sites names a site twice: %s" % ",".join(names))
    for s in sites:
        if not (0.0 <= s < 1.0):
            raise _Refusal("site %g outside [0,1)" % s)
    if not (0.0 < args.alpha <= 1.0):
        raise _Refusal("--alpha must lie in (0,1]")
    if args.reps < 2:
        raise _Refusal("--reps must be at least 2")
    if args.threads is not None and args.threads < 1:
        raise _Refusal("--threads must be at least 1")
    try:
        density = parse_density(args.density)
        base = SimConfig(n_samples=args.samples, rho=args.rho, density=density, seed=args.seed)
    except EventCapExceeded as exc:
        raise _Refusal(str(exc), "error")
    except ValueError as exc:
        raise _Refusal(str(exc))
    _check_out(args.out)
    _check_event_cap(base.n_samples, base.rho)
    try:
        reports, _ = equivalence_report(base, args.reps, sites=sites, alpha=args.alpha, threads=args.threads)
    except EventCapExceeded as exc:
        raise _Refusal(str(exc), "error")
    print(render_report_table(reports))
    try:
        with open(args.out, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in reports:
                fh.write(r.csv_row() + "\n")
    except OSError as exc:
        raise _Refusal("cannot write %s: %s" % (args.out, exc.strerror))
    print("report -> %s" % args.out)
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except _Refusal as exc:
        sys.stderr.write("%s\n" % exc)
        return 2
