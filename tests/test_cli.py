"""CLI tests: everything runs in-process through main(argv)."""

import contextlib
import errno
import gc
import io
import json
import math
import os
import stat
import tempfile
import time
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from argsim import arg as arg_module
from argsim import cli, stats
from argsim import config as config_module
from argsim.arg import Arg, read_args, validate_arg, write_arg
from argsim.backintime import simulate_backintime
from argsim.cli import main
from argsim.config import SimConfig
from argsim.rng import SALTS, child_seed
from argsim.state import Coalesce, IllegalEventError, Recombine, State
from conftest import build_arg, random_walk, run_fresh


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_simulate_writes_log_and_manifest(tmp_path):
    out = tmp_path / "run.log"
    rc = main([
        "simulate", "--engine", "backintime", "--samples", "3", "--rho", "0.5",
        "--seed", "17", "--reps", "2", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    man = json.loads((tmp_path / "run.log.manifest.json").read_text())
    assert man["engine"] == "backintime"
    assert man["n_samples"] == 3
    assert man["rho"] == 0.5
    assert man["density"] == "uniform"
    assert man["seed"] == 17
    assert man["reps"] == 2
    assert man["format_version"] == 1
    assert man["tool"].startswith("argsim ")
    assert man["child_seeds"] == [child_seed(17, r, SALTS["backintime"]) for r in range(2)]
    # keys are sorted on disk
    raw = (tmp_path / "run.log.manifest.json").read_text()
    keys = [line.split('"')[1] for line in raw.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    argv = ["simulate", "--engine", "spatial", "--samples", "4", "--rho", "1",
            "--seed", "5", "--reps", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_from_manifest_reproduces(tmp_path):
    first = tmp_path / "first.log"
    argv = ["simulate", "--engine", "backintime", "--samples", "4", "--rho", "1.5",
            "--density", "beta:2,2", "--seed", "23", "--reps", "2", "--out", str(first)]
    assert main(argv) == 0
    second = tmp_path / "second.log"
    rc = main(["simulate", "--from-manifest", str(first) + ".manifest.json",
               "--out", str(second)])
    assert rc == 0
    assert second.read_bytes() == first.read_bytes()
    man2 = json.loads((tmp_path / "second.log.manifest.json").read_text())
    assert man2["density"] == "beta:2,2"
    assert man2["child_seeds"] == [child_seed(23, r, SALTS["backintime"]) for r in range(2)]


def test_simulate_from_manifest_keeps_long_beta_shapes(tmp_path):
    first = tmp_path / "first.log"
    assert main(["simulate", "--engine", "backintime", "--samples", "4", "--rho", "2",
                 "--density", "beta:0.1234567,2", "--seed", "5", "--reps", "2",
                 "--out", str(first)]) == 0
    man = json.loads((tmp_path / "first.log.manifest.json").read_text())
    assert man["density"] == "beta:0.1234567,2"
    second = tmp_path / "second.log"
    assert main(["simulate", "--from-manifest", str(first) + ".manifest.json",
                 "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def test_simulate_flag_overrides_manifest(tmp_path):
    first = tmp_path / "first.log"
    assert main(["simulate", "--engine", "backintime", "--samples", "3", "--rho", "1",
                 "--seed", "2", "--reps", "1", "--out", str(first)]) == 0
    override = tmp_path / "override.log"
    assert main(["simulate", "--from-manifest", str(first) + ".manifest.json",
                 "--rho", "0", "--out", str(override)]) == 0
    man = json.loads((tmp_path / "override.log.manifest.json").read_text())
    assert man["rho"] == 0.0
    assert man["n_samples"] == 3  # inherited
    assert override.read_bytes() != first.read_bytes()


def test_simulate_records_the_config_it_ran(tmp_path):
    # --rho -0 runs rho 0.0: the manifest holds that, and a rerun from it
    # writes the same log
    first = tmp_path / "first.log"
    assert main(["simulate", "--samples", "3", "--rho", "-0", "--seed", "4", "--reps", "2",
                 "--out", str(first)]) == 0
    man = json.loads((tmp_path / "first.log.manifest.json").read_text())
    assert math.copysign(1.0, man["rho"]) == 1.0
    second = tmp_path / "second.log"
    assert main(["simulate", "--from-manifest", str(first) + ".manifest.json",
                 "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert (tmp_path / "second.log.manifest.json").read_text() == (
        (tmp_path / "first.log.manifest.json").read_text().replace("first.log", "second.log"))


def test_simulate_requires_samples_and_out(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--engine", "backintime", "--out", str(tmp_path / "x.log")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--engine", "backintime", "--samples", "3"])
    assert exc.value.code == 2


def test_simulate_rejects_bad_parameters(tmp_path, capsys):
    out = str(tmp_path / "x.log")
    for argv in (
        ["simulate", "--samples", "1", "--out", out],
        ["simulate", "--samples", "3", "--rho", "-1", "--out", out],
        ["simulate", "--samples", "3", "--rho", "inf", "--out", out],
        ["simulate", "--samples", "3", "--density", "beta:0,1", "--out", out],
        # Beta laws that pile mass on one float
        ["simulate", "--samples", "3", "--rho", "5", "--density", "beta:1e-320,1", "--out", out],
        ["simulate", "--samples", "3", "--rho", "5", "--density", "beta:1e300,1e300", "--out", out],
        ["simulate", "--samples", "4", "--rho", "5", "--density", "beta:0.1,0.1", "--out", out],
        ["simulate", "--samples", "4", "--rho", "5", "--density", "beta:0.3,0.3", "--out", out],
        ["simulate", "--samples", "3", "--density", "nope", "--out", out],
        ["simulate", "--samples", "3", "--density", "uniform:junk", "--out", out],
        ["simulate", "--samples", "3", "--reps", "0", "--out", out],
        # an unwritable --out stops before the first replicate runs
        ["simulate", "--samples", "3", "--rho", "1", "--out", str(tmp_path / "missing" / "a.log")],
        ["simulate", "--samples", "3", "--rho", "1", "--out", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert [line for line in err if "error:" in line] == [err[-1]], argv
        assert captured.out == "", argv
    assert list(tmp_path.iterdir()) == []


SIM = ["simulate", "--engine", "spatial", "--samples", "4", "--rho", "1", "--seed", "5", "--reps", "2"]


@pytest.mark.parametrize("manifest", [False, True])
def test_simulate_refuses_a_path_that_is_not_a_regular_file(tmp_path, capsys, manifest):
    # a FIFO, directly or behind a symlink, as the log or as its manifest:
    # exit 2 before any run, with the FIFO still in place and no file written
    out = tmp_path / "run.log"
    named = tmp_path / "run.log.manifest.json" if manifest else out
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for link in (False, True):
        if link:
            os.symlink(fifo, named)
        else:
            os.mkfifo(named)
        with pytest.raises(SystemExit) as exc:
            main(SIM + ["--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == "argsim: error: cannot write %s: not a regular file" % named
        assert captured.out == ""
        assert os.path.islink(named) == link and stat.S_ISFIFO(os.stat(named).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"fifo", named.name})
        os.remove(named)


def test_simulate_writes_through_symlinks(tmp_path):
    want = tmp_path / "want.log"
    assert main(SIM + ["--out", str(want)]) == 0
    # the log links to an old file, the manifest to a file not yet made
    # in another folder: both links stay, and their targets get the bytes
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    target, manifest_target = tmp_path / "old.log", elsewhere / "made.json"
    target.write_bytes(b"old bytes\n")
    out = tmp_path / "run.log"
    os.symlink(target, out)
    os.symlink(manifest_target, tmp_path / "run.log.manifest.json")
    assert main(SIM + ["--out", str(out)]) == 0
    assert os.path.islink(out) and os.path.islink(tmp_path / "run.log.manifest.json")
    assert target.read_bytes() == want.read_bytes()
    assert json.loads(manifest_target.read_text())["out"] == str(out)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "elsewhere", "old.log", "run.log", "run.log.manifest.json", "want.log", "want.log.manifest.json"]
    assert [p.name for p in elsewhere.iterdir()] == ["made.json"]


def refuse_folder(monkeypatch, folder):
    """Make os.access deny writes to one folder.

    chmod shows nothing to a test run as root, which may write anywhere.
    """
    access = os.access
    denied = os.path.realpath(folder)
    monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
        os.path.realpath(path) != denied and access(path, mode, **kw)))


def test_simulate_checks_the_folder_a_link_writes_in(tmp_path, monkeypatch):
    # the log and manifest links sit in a refused folder but point into a
    # writable one: only the targets' folder is written, so the run goes on
    ro, w = tmp_path / "ro", tmp_path / "w"
    ro.mkdir()
    w.mkdir()
    os.symlink(w / "run.log", ro / "link.log")
    os.symlink(w / "run.json", ro / "link.log.manifest.json")
    refuse_folder(monkeypatch, ro)
    assert not os.access(ro, os.W_OK) and os.access(w, os.W_OK)
    assert main(SIM + ["--out", str(ro / "link.log")]) == 0
    assert sorted(p.name for p in w.iterdir()) == ["run.json", "run.log"]
    assert sorted(p.name for p in ro.iterdir()) == ["link.log", "link.log.manifest.json"]


GOOD_MANIFEST = {"engine": "backintime", "n_samples": 3, "rho": 1, "density": "uniform",
                 "seed": 0, "reps": 2}


@pytest.mark.parametrize("manifest, message", [
    ({"engine": "backintime"}, "missing 'n_samples'"),
    ([1, 2], "missing 'engine'"),
    (dict(GOOD_MANIFEST, engine="sideways"), "unknown engine 'sideways'"),
    (dict(GOOD_MANIFEST, n_samples="3"), "'n_samples' must be int, got '3'"),
    (dict(GOOD_MANIFEST, reps="2"), "'reps' must be int, got '2'"),
])
def test_simulate_malformed_manifest_exits_2_with_one_line(tmp_path, capsys, manifest, message):
    path = tmp_path / "run.log.manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "rerun.log"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--from-manifest", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [
        "argsim: error: manifest %s: %s" % (path, message)
    ]
    assert not out.exists()


def test_simulate_manifest_that_is_not_json_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "run.log.manifest.json"
    path.write_text("not json {")
    out = tmp_path / "rerun.log"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--from-manifest", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [
        "argsim: error: cannot read manifest %s: Expecting value: line 1 column 1 (char 0)" % path
    ]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--samples", "3", "--seed", "-1", "--out", "run.log"],
    ["compare", "--samples", "3", "--reps", "10", "--seed", "-1", "--out", "run.csv"],
], ids=["simulate", "compare"])
def test_negative_seed_exits_2_with_one_line(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / a) if a.startswith("run.") else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        "argsim: error: seed must be an unsigned 64-bit integer"
    ]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_simulate_engine_flag_overrides_a_bad_manifest_engine(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dict(GOOD_MANIFEST, engine="foo")))
    out = tmp_path / "run.log"
    assert main(["simulate", "--from-manifest", str(path), "--engine", "spatial",
                 "--out", str(out)]) == 0
    assert json.loads((tmp_path / "run.log.manifest.json").read_text())["engine"] == "spatial"
    assert out.exists()


def test_validate_accepts_engine_output(tmp_path, capsys):
    out = tmp_path / "good.log"
    main(["simulate", "--engine", "spatial", "--samples", "3", "--rho", "1",
          "--seed", "3", "--reps", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["validate", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "replicate" in l]
    assert len(lines) == 2
    assert all(": pass" in l for l in lines)


def test_validate_flags_illegal_path(tmp_path, capsys):
    cfg = SimConfig(n_samples=2, rho=1.0, seed=0)
    bad = build_arg(cfg, [
        (0.2, Recombine(0, 0.5)),
        (0.4, Recombine(1, 0.5)),
        (0.6, Coalesce(0, 1)),
        (0.8, Coalesce(1, 2)),
        (1.0, Coalesce(0, 1)),
    ])
    path = tmp_path / "bad.log"
    with open(path, "w") as fh:
        write_arg(bad, fh)
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr().out
    assert "FAIL" in captured
    assert "(c)" in captured


def test_validate_parse_error_exits_2(tmp_path, capsys):
    out = tmp_path / "trunc.log"
    main(["simulate", "--engine", "backintime", "--samples", "2", "--rho", "0",
          "--seed", "1", "--reps", "1", "--out", str(out)])
    text = out.read_text().splitlines()
    out.write_text("\n".join(text[:-1]) + "\n")
    assert main(["validate", str(out)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err
    empty = tmp_path / "empty.log"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 2
    binary = tmp_path / "binary.log"
    binary.write_bytes(b"\xff\xfe garbage\n")
    capsys.readouterr()
    assert main(["validate", str(binary)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(tmp_path / "missing.log")])
    assert exc.value.code == 2


@pytest.mark.parametrize("line, edit", [
    (2, lambda obj: obj.update(ev={})),
    (2, lambda obj: obj["ev"].update(i="0")),
    (1, lambda obj: obj.update(n_samples=1)),
    pytest.param(1, lambda obj: obj.update(density="uniform:junk"), id="1-density"),
])
def test_validate_malformed_log_exits_2_with_one_line(tmp_path, capsys, line, edit):
    out = tmp_path / "run.log"
    main(["simulate", "--engine", "backintime", "--samples", "3", "--rho", "1",
          "--seed", "2", "--reps", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    obj = json.loads(lines[line - 1])
    edit(obj)
    lines[line - 1] = json.dumps(obj)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error: line %d: " % line)


@pytest.mark.parametrize("number", ["1e400", "NaN", "Infinity"])
def test_non_finite_time_exits_2_in_validate_and_tree(tmp_path, capsys, number):
    # read as inf, a last time would validate, give the tree inf branch
    # lengths and be written back as "inf", which no reader takes
    out = tmp_path / "run.log"
    main(["simulate", "--engine", "backintime", "--samples", "2", "--rho", "0",
          "--seed", "1", "--reps", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    obj = json.loads(lines[1])
    lines[1] = json.dumps(obj).replace(json.dumps(obj["t"]), number)
    out.write_text("\n".join(lines) + "\n")
    for argv in (["validate", str(out)], ["tree", str(out), "--site", "0.5"]):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["parse error: line 2: non-finite number %s" % number]


@pytest.mark.parametrize("line, key, value", [
    (1, "format_version", True),
    (1, "format_version", 1.0),
    (3, "events", True),
    (3, "events", 1.0),
])
def test_integer_log_fields_refuse_bools_and_floats(tmp_path, capsys, line, key, value):
    # true == 1 == 1.0 in Python: the header's format_version and the
    # trailer's event count read as 1 unless their type is checked
    out = tmp_path / "run.log"
    main(["simulate", "--engine", "backintime", "--samples", "2", "--rho", "0",
          "--seed", "1", "--reps", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header, one event, trailer
    obj = json.loads(lines[line - 1])
    assert obj[key] == 1
    obj[key] = value
    lines[line - 1] = json.dumps(obj)
    out.write_text("\n".join(lines) + "\n")
    for argv in (["validate", str(out)], ["tree", str(out), "--site", "0.5"]):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["parse error: line %d: %r must be int, got %r" % (line, key, value)]


def test_integer_time_past_the_float_range_exits_2_in_validate_and_tree(tmp_path, capsys):
    # JSON integers are unbounded: such a time validated, and the tree's
    # length sum died with an OverflowError traceback
    out = tmp_path / "run.log"
    main(["simulate", "--engine", "backintime", "--samples", "2", "--rho", "0",
          "--seed", "1", "--reps", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    obj = json.loads(lines[1])
    lines[1] = json.dumps(obj).replace(json.dumps(obj["t"]), "1" + "0" * 400)
    out.write_text("\n".join(lines) + "\n")
    for argv in (["validate", str(out)], ["tree", str(out), "--site", "0.5"]):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["parse error: line 2: 't' is an integer too large for a float"]


def test_negative_zero_rho_reads_back_byte_for_byte(tmp_path):
    assert math.copysign(1.0, SimConfig(n_samples=2, rho=-0.0).rho) == 1.0
    out = tmp_path / "run.log"
    assert main(["simulate", "--engine", "spatial", "--samples", "3", "--rho", "-0",
                 "--seed", "4", "--reps", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith('{"format_version":1,"n_samples":3,"rho":0,')
    buf = io.StringIO()
    for arg in read_args(io.StringIO(text)):
        write_arg(arg, buf)
    assert buf.getvalue() == text


def test_header_past_the_event_cap_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run.log"
    main(["simulate", "--engine", "backintime", "--samples", "3", "--rho", "0",
          "--seed", "2", "--reps", "1", "--out", str(out)])
    monkeypatch.setattr(config_module, "DEFAULT_EVENT_CAP", 1)
    capsys.readouterr()
    assert main(["validate", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["parse error: line 1: n_samples 3 needs more events than the cap of 1"]


def test_tree_newick_output(tmp_path, capsys):
    cfg = SimConfig(n_samples=2, rho=0.0, seed=0)
    arg = build_arg(cfg, [(1.25, Coalesce(0, 1))])
    path = tmp_path / "one.log"
    with open(path, "w") as fh:
        write_arg(arg, fh)
    assert main(["tree", str(path), "--site", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "(1:1.25,2:1.25);"


def test_tree_levels_output(tmp_path, capsys):
    cfg = SimConfig(n_samples=2, rho=0.0, seed=0)
    arg = build_arg(cfg, [(1.25, Coalesce(0, 1))])
    path = tmp_path / "one.log"
    with open(path, "w") as fh:
        write_arg(arg, fh)
    assert main(["tree", str(path), "--site", "0", "--format", "levels"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "time,partition"
    assert out[1] == "0,{1}|{2}"
    assert out[2] == "1.25,{1,2}"


def test_tree_multiple_replicates_are_labeled(tmp_path, capsys):
    out = tmp_path / "multi.log"
    main(["simulate", "--engine", "backintime", "--samples", "3", "--rho", "0",
          "--seed", "8", "--reps", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["tree", str(out), "--site", "0.2"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "# replicate 0"
    assert printed[2] == "# replicate 1"
    assert printed[1].endswith(";") and printed[3].endswith(";")


@pytest.mark.parametrize("timed_events", [
    [],
    [(0.5, Coalesce(0, 1))],
    [(0.5, Coalesce(0, 1)), (0.3, Coalesce(0, 1))],  # absorbed, with decreasing times
    [(0.1, Recombine(0, 0.5)), (0.2, Recombine(1, 0.5))]  # absorbed, with a repeated locus
    + [(t, Coalesce(0, 1)) for t in (0.3, 0.4, 0.5, 0.6)],
])
def test_tree_on_a_log_that_never_absorbs_exits_2(tmp_path, capsys, timed_events):
    cfg = SimConfig(n_samples=3, rho=0.0, seed=6)
    path = tmp_path / "open.log"
    with open(path, "w") as fh:
        write_arg(build_arg(SimConfig(n_samples=2, rho=0.0, seed=0), [(1.0, Coalesce(0, 1))]), fh)
        write_arg(build_arg(cfg, timed_events), fh)
    capsys.readouterr()
    assert main(["tree", str(path), "--site", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: replicate 1 (seed 6, index 0) ")
    first = validate_arg(build_arg(cfg, timed_events)).violations[0]
    assert "fails clause (%s): %s;" % first[1:] in err[0]


def test_tree_rejects_bad_site(tmp_path):
    path = tmp_path / "x.log"
    main(["simulate", "--engine", "backintime", "--samples", "2", "--rho", "0",
          "--seed", "0", "--reps", "1", "--out", str(path)])
    for site in ("1.0", "-0.1", "1.7"):
        with pytest.raises(SystemExit) as exc:
            main(["tree", str(path), "--site", site])
        assert exc.value.code == 2


def test_compare_refuses_a_path_that_is_not_a_regular_file(tmp_path, monkeypatch, capsys):
    # refused before any replicate runs: opening a FIFO to write blocks
    # until a reader comes, so the run would print its table and hang
    monkeypatch.setattr(cli, "equivalence_report", lambda *a, **k: pytest.fail("compare ran"))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    os.symlink(fifo, tmp_path / "link.csv")
    for out in (fifo, tmp_path / "link.csv", os.devnull):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--samples", "3", "--reps", "10", "--threads", "1", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == "argsim: error: cannot write %s: not a regular file" % out
        assert captured.out == ""
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_compare_checks_the_folder_a_link_writes_in(tmp_path, monkeypatch, capsys):
    # the link sits in a writable folder but points into a refused one:
    # refused before the battery runs, naming the refused folder
    monkeypatch.setattr(cli, "equivalence_report", lambda *a, **k: pytest.fail("compare ran"))
    ro, w = tmp_path / "ro", tmp_path / "w"
    ro.mkdir()
    w.mkdir()
    os.symlink(ro / "report.csv", w / "link.csv")
    refuse_folder(monkeypatch, ro)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--samples", "3", "--reps", "10", "--threads", "1", "--out", str(w / "link.csv")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == "argsim: error: cannot write %s: no writable directory %s" % (
        w / "link.csv", os.path.realpath(ro))
    assert captured.out == ""
    assert list(ro.iterdir()) == []


def test_compare_passes_on_matched_engines(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["compare", "--samples", "3", "--rho", "0.5", "--seed", "11",
               "--reps", "300", "--sites", "0,0.5", "--out", str(out), "--threads", "1"])
    assert rc == 0
    table = capsys.readouterr().out
    assert "tmrca_ks_site_0" in table and "FAIL" not in table
    rows = out.read_text().splitlines()
    assert rows[0] == "statistic,engineA_n,engineB_n,stat,p,pass"
    assert len(rows) == 9
    assert all(row.endswith(",pass") for row in rows[1:])


def test_compare_names_negative_zero_site_0(tmp_path, capsys):
    # --sites -0 is site 0: same rows, same report bytes
    reports = []
    for site in ("0", "-0"):
        out = tmp_path / ("report%s.csv" % site)
        assert main(["compare", "--samples", "2", "--rho", "0", "--seed", "1",
                     "--reps", "50", "--sites", site, "--out", str(out), "--threads", "1"]) == 0
        reports.append(out.read_text())
    capsys.readouterr()
    assert "tmrca_ks_site_0," in reports[1] and "site_-0" not in reports[1]
    assert reports[1] == reports[0]


def test_compare_alpha_one_fails_everything(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["compare", "--samples", "2", "--rho", "0", "--seed", "1",
               "--reps", "50", "--sites", "0", "--out", str(out), "--threads", "1"])
    assert rc == 0
    rc = main(["compare", "--samples", "2", "--rho", "0", "--seed", "1",
               "--reps", "50", "--sites", "0", "--alpha", "1.0",
               "--out", str(out), "--threads", "1"])
    assert rc == 1
    rows = out.read_text().splitlines()
    assert all(row.endswith(",FAIL") for row in rows[1:])


def test_compare_rejects_bad_arguments(tmp_path, capsys):
    base = ["compare", "--samples", "3", "--reps", "10",
            "--out", str(tmp_path / "r.csv")]
    for extra in (
        ["--sites", "0.5,oops"],
        ["--sites", ""],
        ["--sites", "1.0"],
        ["--sites", "0,0"],
        ["--sites", "0,-0"],  # -0.0 == 0.0: one site named twice
        ["--alpha", "0"],
        ["--alpha", "1.5"],
        ["--density", "beta:0,1"],
        ["--density", "beta:0.15,0.15"],
        ["--samples", "1"],
        ["--reps", "0"],
        ["--reps", "1"],
        ["--threads", "0"],
        ["--threads", "-4"],
        ["--density", "uniform:junk"],
        # an unwritable --out stops before the battery runs
        ["--out", str(tmp_path / "missing" / "c.csv")],
        ["--out", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert [line for line in err if "error:" in line] == [err[-1]], extra
        assert captured.out == "", extra


def capped_backintime(config):
    """simulate_backintime with the event cap at 1 for this call only.

    The CLI's up-front estimate reads the same cap, so patching it for the
    whole run would refuse the run before any replicate.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config_module, "DEFAULT_EVENT_CAP", 1)
        return simulate_backintime(config)


def test_event_cap_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(stats.ENGINES, "backintime", capped_backintime)
    out = tmp_path / "capped.log"
    assert main(["simulate", "--engine", "backintime", "--samples", "3", "--rho", "1",
                 "--seed", "4", "--reps", "2", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: replicate 0: exceeded 1 events (n=3 rho=1)"]
    assert main(["compare", "--samples", "3", "--rho", "1", "--seed", "4", "--reps", "10",
                 "--threads", "1", "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: exceeded 1 events (n=3 rho=1)"]


def test_expected_events_past_the_cap_exit_2_up_front(tmp_path, monkeypatch, capsys):
    # n=4, rho=1 expects n - 1 + rho * E[L] = 3 + 11/3 events
    out = tmp_path / "r.log"
    sim = ["simulate", "--samples", "4", "--rho", "1", "--reps", "2", "--out", str(out)]
    cmp_ = ["compare", "--samples", "4", "--rho", "1", "--reps", "10", "--threads", "1",
            "--out", str(tmp_path / "r.csv")]
    monkeypatch.setattr(config_module, "DEFAULT_EVENT_CAP", 6)
    line = "error: a path is expected to take 6.667 events, past the cap of 6 (n=4 rho=1)"
    for argv in (sim, cmp_):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists() and not (tmp_path / "r.csv").exists()
    # at cap 7 the estimate lets the run start, and the engines, which read
    # the same cap, stop the first path that runs past it
    monkeypatch.setattr(config_module, "DEFAULT_EVENT_CAP", 7)
    for argv, line in ((sim, "error: replicate 0: exceeded 7 events (n=4 rho=1)"),
                       (cmp_, "error: exceeded 7 events (n=4 rho=1)")):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists() and not (tmp_path / "r.csv").exists()


def test_huge_rho_is_refused_before_any_event(tmp_path, capsys):
    out = tmp_path / "r.log"
    assert main(["simulate", "--samples", "3", "--rho", "1e300", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: a path is expected to take 3e+300 events, past the cap of 10000000 (n=3 rho=1e+300)"
    ]
    assert not out.exists()


@pytest.mark.parametrize("n", [10 ** 12, 10 ** 399 + 7], ids=["1e12", "400-digit"])
def test_huge_samples_are_refused_at_once_with_one_line(tmp_path, capsys, n):
    # n - 1 alone is past the cap: E[L] would be an O(n) sum, and n may not fit a float
    out, csv = tmp_path / "r.log", tmp_path / "r.csv"
    manifest = tmp_path / "run.log.manifest.json"
    manifest.write_text(json.dumps(dict(GOOD_MANIFEST, n_samples=n)))
    line = ("error: a path is expected to take at least n - 1 events, past the cap of 10000000"
            " (n=%d rho=%%g)" % n)
    for argv, rho in (
        (["simulate", "--samples", str(n), "--out", str(out)], 0),
        (["compare", "--samples", str(n), "--rho", "2", "--reps", "10", "--out", str(csv)], 2),
        (["simulate", "--from-manifest", str(manifest), "--out", str(out)], 1),
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line % rho] and captured.out == ""
    assert list(tmp_path.iterdir()) == [manifest]


# --- streaming: one replicate alive at a time, and nothing half written ------


def _simulate_argv(out, reps=3):
    return ["simulate", "--engine", "backintime", "--samples", "3", "--rho", "1",
            "--seed", "4", "--reps", str(reps), "--out", str(out)]


def _unfinished(config):
    """A backintime path with its last event dropped: it fails clause (d)."""
    arg = simulate_backintime(config)
    return Arg(arg.config, arg.times[:-1], arg.events[:-1], arg.states[:-1], arg.initial)


def _full_disk(arg, fh):
    """write_arg, failing at replicate 1 as a full disk would."""
    if arg.config.replicate_index == 1:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    write_arg(arg, fh)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("failing, writer, code, err", [
    (capped_backintime, write_arg, 2,
     ["error: replicate 1: exceeded 1 events (n=3 rho=1)"]),
    (_unfinished, write_arg, 1,
     ["engine produced an invalid event path (replicate 1):", "INVALID (1 violation):",
      "  clause (d) at path: path does not end in the absorbing state"]),
    (simulate_backintime, _full_disk, 2,
     ["argsim: error: cannot write {out}: No space left on device"]),
], ids=["event-cap", "invalid-path", "write"])
def test_failed_run_leaves_no_partial_output(tmp_path, monkeypatch, capsys, existing, failing,
                                             writer, code, err):
    # replicate 0 is written before replicate 1 fails; the run must still
    # leave no log and no manifest, and an earlier run's files untouched
    out = tmp_path / "run.log"
    if existing:
        out.write_bytes(b"an earlier run's log\n")
        (tmp_path / "run.log.manifest.json").write_bytes(b"{}\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.setitem(stats.ENGINES, "backintime", lambda config: (
        failing if config.replicate_index == 1 else simulate_backintime)(config))
    monkeypatch.setattr(cli, "write_arg", writer)
    try:
        rc = main(_simulate_argv(out))
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-len(err):] == [line.format(out=out) for line in err]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def _watcher(refs):
    """The identity on Args; asserts that every Arg it passed before is dead."""
    def watch(arg):
        gc.collect()
        alive = [r for r, ref in enumerate(refs) if ref() is not None]
        assert alive == [], "replicates %s alive when replicate %d is made" % (alive, len(refs))
        refs.append(weakref.ref(arg))
        return arg
    return watch


def test_commands_hold_one_replicate_at_a_time(tmp_path, monkeypatch, capsys):
    refs = []
    watch = _watcher(refs)
    monkeypatch.setitem(stats.ENGINES, "backintime",
                        lambda config: watch(simulate_backintime(config)))
    out = tmp_path / "run.log"
    assert main(_simulate_argv(out, reps=4)) == 0
    assert len(refs) == 4
    monkeypatch.setattr(cli, "read_args", lambda fp: map(watch, arg_module.read_args(fp)))
    for argv in (["validate", str(out)], ["tree", str(out), "--site", "0.5"]):
        refs.clear()
        assert main(argv) == 0, argv
        assert len(refs) == 4, argv
    capsys.readouterr()


def _three_replicates(tmp_path):
    out = tmp_path / "run.log"
    assert main(_simulate_argv(out)) == 0
    return out, out.read_text().splitlines()


def test_unreplayable_event_is_a_parse_error_naming_its_line(tmp_path, capsys):
    out, lines = _three_replicates(tmp_path)
    headers = [k for k, line in enumerate(lines, start=1) if '"format_version"' in line]
    k = headers[1] + 1  # the first event of replicate 1
    obj = json.loads(lines[k - 1])
    assert obj["n"] == 0
    obj["ev"] = {"type": "coal", "i": 0, "j": 3}  # three lineages: rank 3 is out of range
    lines[k - 1] = json.dumps(obj)
    out.write_text("\n".join(lines[:headers[2] - 1]) + "\n")  # replicates 0 and 1
    capsys.readouterr()
    for argv in (["validate", str(out)], ["tree", str(out), "--site", "0.5"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "parse error: line %d: event 0 cannot be replayed: coalesce ranks out of range:"
            " (0, 3) with 3 lineages" % k
        ]


def test_truncated_last_log_prints_nothing_to_stdout(tmp_path, capsys):
    out, lines = _three_replicates(tmp_path)
    out.write_text("\n".join(lines[:-1]) + "\n")  # the last log loses its trailer
    capsys.readouterr()
    for argv in (["validate", str(out)], ["tree", str(out), "--site", "0.5"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("parse error: "), err


# --- validate FILE: the reader's replay is the only derivation of a state ---


@st.composite
def tampered_logs(draw):
    """A random legal walk, as an Arg, with a time or a locus tampered or its tail dropped.

    The tampered events are replayed up to the first one that is illegal
    (a repeated locus can make a later step illegal), so the log parses.
    """
    n = draw(st.integers(2, 5))
    walk = list(random_walk(n, draw(st.integers(0, 10 ** 6)), draw(st.integers(1, 30))))
    times = [float(t) for t in range(1, len(walk) + 1)]
    events = [event for _, event, _ in walk]
    tamper = draw(st.sampled_from(["none", "equal time", "earlier time", "repeat locus", "drop tail"]))
    m = draw(st.integers(0, len(walk) - 1))
    if tamper == "equal time":
        times[m] = times[m - 1] if m else 0.0
    elif tamper == "earlier time":
        times[m] = (times[m - 1] if m else 0.0) - draw(st.sampled_from([0.25, 1.0, 1.5]))
    elif tamper == "repeat locus":
        # an earlier recombination's locus, on a lineage whose active interval holds it
        loci = [event.locus for event in events[:m] if isinstance(event, Recombine)]
        choices = [(i, u) for u in loci for i, (b, e) in enumerate(walk[m][0].active_intervals()) if b < u < e]
        assume(choices)
        events[m] = Recombine(*draw(st.sampled_from(choices)))
    elif tamper == "drop tail":
        del times[m:], events[m:]
    state, timed = State.initial(n), []
    for t, event in zip(times, events):
        try:
            state = state.apply(event)
        except IllegalEventError:
            break
        timed.append((t, event))
    cfg = SimConfig(n_samples=n, rho=1.0, seed=draw(st.integers(0, 9)))
    return build_arg(cfg.with_replicate(draw(st.integers(0, 9))), timed)


@given(st.lists(tampered_logs(), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_validate_file_reports_what_validate_arg_reports_on_each_read_log(args):
    # validate FILE checks only clauses (c), (d) and (e); validate_arg, run
    # here on each read log, also step-checks the reader's replayed states
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "run.log")
        with open(path, "w") as fh:
            for arg in args:
                write_arg(arg, fh)
        with open(path) as fh:
            read = list(read_args(fh))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(["validate", path])
    reports = [validate_arg(arg) for arg in read]
    want = []
    for idx, (arg, report) in enumerate(zip(read, reports)):
        tag = "replicate %d (seed %d, index %d)" % (idx, arg.config.seed, arg.config.replicate_index)
        want.append("%s: pass (%d events)" % (tag, arg.event_count) if report.passed
                    else "%s: FAIL\n%s" % (tag, report.render()))
    assert printed.getvalue() == "".join(line + "\n" for line in want)
    assert code == (0 if all(report.passed for report in reports) else 1)


def _count_calls(monkeypatch, cls, names):
    """Patch each named method of cls to count its calls in the returned dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, method=getattr(cls, name)):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("engine, flags", [
    ("backintime", ["--samples", "8", "--rho", "5", "--density", "beta:2,2", "--reps", "4"]),
    ("spatial", ["--samples", "6", "--rho", "4", "--reps", "3"]),
])
def test_validate_file_replays_once(tmp_path, monkeypatch, capsys, engine, flags):
    out = tmp_path / "run.log"
    calls = _count_calls(monkeypatch, State, ["apply", "check_step", "check"])
    assert main(["simulate", "--engine", engine, "--seed", "12", "--out", str(out)] + flags) == 0
    reps = int(flags[-1])
    assert calls["check"] == reps  # simulate validates each path: one full check at its start
    events = sum(json.loads(line)["events"] for line in out.read_text().splitlines() if '"checksum"' in line)
    assert events > 10 * reps
    calls.update(dict.fromkeys(calls, 0))
    assert main(["validate", str(out)]) == 0
    assert calls == {"apply": events, "check_step": 0, "check": 0}
    capsys.readouterr()


# runs each argv (a JSON list of lists) through main and records, after the
# import and after each command, which of numpy, scipy and scipy.special
# the process holds
LOADED_AFTER_EACH_COMMAND = """
import contextlib, io, json, sys
from argsim.cli import main

def loaded():
    return [name for name in ("numpy", "scipy", "scipy.special") if name in sys.modules]

seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    seen.append(loaded())
print(json.dumps(seen))
"""


def test_a_uniform_run_never_loads_scipy(tmp_path):
    # uniform simulate, validate and tree need no special function; a Beta
    # law's atom check and compare's p-values do, which shows the probe
    # sees scipy when it is there
    argv = []
    for engine in ("backintime", "spatial"):
        log = str(tmp_path / ("%s.log" % engine))
        argv += [["simulate", "--engine", engine, "--samples", "5", "--rho", "3", "--seed", "4",
                  "--reps", "3", "--out", log],
                 ["validate", log],
                 ["tree", log, "--site", "0.5"]]
    argv.append(["simulate", "--engine", "backintime", "--samples", "3", "--rho", "1",
                 "--density", "beta:2,2", "--seed", "4", "--reps", "1",
                 "--out", str(tmp_path / "beta.log")])
    seen = run_fresh(LOADED_AFTER_EACH_COMMAND, json.dumps(argv))
    assert seen[:-1] == [[]] * len(argv)
    assert seen[-1] == ["numpy", "scipy", "scipy.special"]
    compare = ["compare", "--samples", "2", "--rho", "0", "--seed", "1", "--reps", "50",
               "--sites", "0", "--out", str(tmp_path / "report.csv"), "--threads", "1"]
    assert run_fresh(LOADED_AFTER_EACH_COMMAND, json.dumps([compare])) == [[], ["numpy", "scipy", "scipy.special"]]
