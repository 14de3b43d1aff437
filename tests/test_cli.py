"""CLI tests: everything runs in-process through main(argv)."""

import json
from functools import partial

import pytest

from argsim import backintime, stats
from argsim.arg import Arg, write_arg
from argsim.backintime import simulate_backintime
from argsim.cli import main
from argsim.config import SimConfig
from argsim.rng import SALTS, child_seed
from argsim.state import Coalesce, Recombine, State


def build_arg(config, timed_events):
    state = State.initial(config.n_samples)
    times, events, states = [], [], []
    for t, ev in timed_events:
        state = state.apply(ev)
        times.append(t)
        events.append(ev)
        states.append(state)
    return Arg(config, times, events, states)


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


def test_simulate_requires_samples_and_out(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--engine", "backintime", "--out", str(tmp_path / "x.log")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--engine", "backintime", "--samples", "3"])
    assert exc.value.code == 2


def test_simulate_rejects_bad_parameters(tmp_path):
    out = str(tmp_path / "x.log")
    for argv in (
        ["simulate", "--samples", "1", "--out", out],
        ["simulate", "--samples", "3", "--rho", "-1", "--out", out],
        ["simulate", "--samples", "3", "--rho", "inf", "--out", out],
        ["simulate", "--samples", "3", "--density", "beta:0,1", "--out", out],
        ["simulate", "--samples", "3", "--density", "nope", "--out", out],
        ["simulate", "--samples", "3", "--reps", "0", "--out", out],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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


@pytest.mark.parametrize("timed_events", [[], [(0.5, Coalesce(0, 1))]])
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


def test_tree_rejects_bad_site(tmp_path):
    path = tmp_path / "x.log"
    main(["simulate", "--engine", "backintime", "--samples", "2", "--rho", "0",
          "--seed", "0", "--reps", "1", "--out", str(path)])
    for site in ("1.0", "-0.1", "1.7"):
        with pytest.raises(SystemExit) as exc:
            main(["tree", str(path), "--site", site])
        assert exc.value.code == 2


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
        ["--alpha", "0"],
        ["--alpha", "1.5"],
        ["--density", "beta:0,1"],
        ["--samples", "1"],
        ["--reps", "0"],
        ["--reps", "1"],
        ["--threads", "0"],
        ["--threads", "-4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == [err[-1]], extra


def test_event_cap_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    capped = partial(simulate_backintime, max_events=1)
    monkeypatch.setitem(stats.ENGINES, "backintime", capped)
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
    monkeypatch.setattr(backintime, "DEFAULT_EVENT_CAP", 6)
    line = "error: a path is expected to take 6.667 events, past the cap of 6 (n=4 rho=1)"
    for argv in (sim, cmp_):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists() and not (tmp_path / "r.csv").exists()
    monkeypatch.setattr(backintime, "DEFAULT_EVENT_CAP", 7)
    assert main(sim) == 0
    assert main(cmp_) in (0, 1)
    assert capsys.readouterr().err == ""
    assert out.exists() and (tmp_path / "r.csv").exists()


def test_huge_rho_is_refused_before_any_event(tmp_path, capsys):
    out = tmp_path / "r.log"
    assert main(["simulate", "--samples", "3", "--rho", "1e300", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: a path is expected to take 3e+300 events, past the cap of 10000000 (n=3 rho=1e+300)"
    ]
    assert not out.exists()
