"""The event-log stream is pinned: both engines' `simulate` output bytes,
and one `compare` report.

A change that moves the random stream (a different number of draws, or
draws in a different order) or the log format changes these digests. Such
a change must be declared and the cross-engine battery rerun; then the
digests here are recorded again. The compare digest also pins the test
statistics and their p-values as the CSV prints them.
"""

import hashlib
import itertools

from argsim.cli import main

SEED = 4242
REPS = 5
GRID = list(itertools.product(
    ("backintime", "spatial"), ("uniform", "beta:2,2"), (3, 8), (1, 4),
)) + [
    # the backintime benchmark's shape: long paths, where most lineages
    # keep their recombination mass from one event to the next
    ("backintime", "beta:2,2", 20, 15),
]

# sha256 of each cell's log, as written by `argsim simulate`
PINNED = {
    "backintime uniform n=3 rho=1": "874d89562f56d880eeb9dae20387014003e056da472e9e05492d5cf4bdc95bc5",
    "backintime uniform n=3 rho=4": "be3c1f61b4a5957504f9df016e9c9f3573724dab22036095f4753326a0f3819f",
    "backintime uniform n=8 rho=1": "b73a7c8acee41f25889e18170b6029a17e0d17f89f6b05f091499f76b8ec8e73",
    "backintime uniform n=8 rho=4": "db2160c778832bb8efda93230f545ab3f70b3951279fba9ab4f49334d4359402",
    "backintime beta:2,2 n=3 rho=1": "38d08bb4af8a346e5a811cdcc2d9d5d58e8530c5723323c058d66109a6dd31f8",
    "backintime beta:2,2 n=3 rho=4": "8c93e7130582486ba8178d65ff2fca0b25246b888ae7c0df9e319b380a2976aa",
    "backintime beta:2,2 n=8 rho=1": "e97e424db35eda81face6721c179ef9259fc37d3b69327cfe8cdb8f3bb893937",
    "backintime beta:2,2 n=8 rho=4": "6b529e72efe98429f621aae1b38a0c7f960b2d9f8c290a23b8b10cf0811ce2cc",
    "backintime beta:2,2 n=20 rho=15": "c9e43981cb532e96a552348fca8397bcb9aae7c52dac486b8958dbb2e450e504",
    "spatial uniform n=3 rho=1": "31993982e36e7d702a6e26fe324e204d0ac07ebd768998fd71afb87fdb90945d",
    "spatial uniform n=3 rho=4": "70e21bb48835be400e19e2008347c9e740525f72b1cdeea87f477c49460c063b",
    "spatial uniform n=8 rho=1": "63c909491d8b01ad68bf8cb25f7b58267791b5c1b47d305769e20d91ed3d7d30",
    "spatial uniform n=8 rho=4": "b9517ece57a6b8606f6a48024263c941b791dd43f0f9466c92f54ba0dff0f179",
    "spatial beta:2,2 n=3 rho=1": "8b23713f0e5b48ab852f3aafd2b782f03c99ef4cd99cffeab656720e2ff57fd6",
    "spatial beta:2,2 n=3 rho=4": "3f90f087924b8bd3e05c8e42a2e68c1b8f0939a26e101099edb7cae7bfc0f008",
    "spatial beta:2,2 n=8 rho=1": "87cdcfa20c1f43315e44217cbe4293943ec3e9f9fe3cc60f676c02b7f9a253cb",
    "spatial beta:2,2 n=8 rho=4": "0c7cf3c5b4357d083d38be605d2e261fb357ef3dd614d1bd36fbe8f873faa04d",
}


def log_digest(tmp_path, engine, density, n, rho):
    out = tmp_path / ("%s-%s-%d-%d.log" % (engine, density.replace(":", "_"), n, rho))
    assert main([
        "simulate", "--engine", engine, "--samples", str(n), "--rho", str(rho),
        "--density", density, "--seed", str(SEED), "--reps", str(REPS), "--out", str(out),
    ]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_simulate_logs_match_pinned_digests(tmp_path, capsys):
    got = {"%s %s n=%d rho=%d" % cell: log_digest(tmp_path, *cell) for cell in GRID}
    capsys.readouterr()
    assert got == PINNED


# sha256 of `argsim compare --samples 3 --rho 1 --sites 0,0.5 --reps 200
# --threads 1` at the default seed 0
COMPARE_PINNED = "e31a8d4f046ecbd87f4974c195622e77c7318fc7680ff40ccf9a165c11ac191a"


def test_compare_report_matches_pinned_digest(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    assert main([
        "compare", "--samples", "3", "--rho", "1", "--sites", "0,0.5", "--reps", "200",
        "--threads", "1", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPARE_PINNED
