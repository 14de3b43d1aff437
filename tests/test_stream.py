"""The event-log stream is pinned: both engines' `simulate` output bytes,
one `compare` report, the `summary` of a replicate batch per engine and
the `tree` output read off some of the logs.

A change that moves the random stream (a different number of draws, or
draws in a different order) or the log format changes these digests. Such
a change must be declared and the cross-engine battery rerun; then the
digests here are recorded again. The compare digest also pins the test
statistics and their p-values as the CSV prints them.
"""

import hashlib
import itertools

from argsim.cli import main
from argsim.config import SimConfig
from argsim.stats import run_replicates

SEED = 4242
REPS = 5
GRID = list(itertools.product(
    ("backintime", "spatial"), ("uniform", "beta:2,2"), (3, 8), (1, 4),
)) + [
    # the backintime benchmark's shape: long paths, where most lineages
    # keep their recombination mass from one event to the next
    ("backintime", "beta:2,2", 20, 15),
    # longer paths still: coalescences of lineages that share a break
    ("backintime", "uniform", 20, 30),
    # the spatial benchmark's shape: many stages, long rides and climbs
    # over old edges
    ("spatial", "uniform", 20, 10),
    ("spatial", "beta:2,2", 20, 10),
    # many splits per stage, splits of the top branch included
    ("spatial", "uniform", 20, 30),
    ("spatial", "beta:2,2", 4, 40),
    # many samples: label sets past 64 labels, and labels of two digits,
    # whose numeric order is not their text order
    ("backintime", "uniform", 70, 2),
    ("spatial", "uniform", 70, 2),
    # many lineages at once, where the kept per-rank weights and a
    # reweighing of every rank differ most
    ("backintime", "beta:2,2", 200, 5),
    # loci near 0 and 1, which key the per-path CDF dict
    ("backintime", "beta:0.5,0.5", 20, 15),
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
    "backintime uniform n=20 rho=30": "872c215982632c768bf2b2ee68f60f1fb714c8674fe319b02a18a37e9681f442",
    "backintime uniform n=70 rho=2": "7456862b1fdde772e303447d14a6bd904c88c4f65bc3397160ef8b922f862995",
    "backintime beta:2,2 n=200 rho=5": "1d5d757560de7f79df4994eb3fe3bc9c345e9501354d042a00e163f12daac2d4",
    "backintime beta:0.5,0.5 n=20 rho=15": "ad424a969fdf05c997abd2eb5a2ebcf137c19f6e8f52a71d456f5f0af19f98b9",
    "spatial uniform n=3 rho=1": "31993982e36e7d702a6e26fe324e204d0ac07ebd768998fd71afb87fdb90945d",
    "spatial uniform n=3 rho=4": "70e21bb48835be400e19e2008347c9e740525f72b1cdeea87f477c49460c063b",
    "spatial uniform n=8 rho=1": "63c909491d8b01ad68bf8cb25f7b58267791b5c1b47d305769e20d91ed3d7d30",
    "spatial uniform n=8 rho=4": "b9517ece57a6b8606f6a48024263c941b791dd43f0f9466c92f54ba0dff0f179",
    "spatial beta:2,2 n=3 rho=1": "8b23713f0e5b48ab852f3aafd2b782f03c99ef4cd99cffeab656720e2ff57fd6",
    "spatial beta:2,2 n=3 rho=4": "3f90f087924b8bd3e05c8e42a2e68c1b8f0939a26e101099edb7cae7bfc0f008",
    "spatial beta:2,2 n=8 rho=1": "87cdcfa20c1f43315e44217cbe4293943ec3e9f9fe3cc60f676c02b7f9a253cb",
    "spatial beta:2,2 n=8 rho=4": "0c7cf3c5b4357d083d38be605d2e261fb357ef3dd614d1bd36fbe8f873faa04d",
    "spatial uniform n=20 rho=10": "fa749999205bcfa3fbd966fecb37fecfffb9b073a8a6b3d7269307a4ad4728ee",
    "spatial beta:2,2 n=20 rho=10": "e8e62569acedff12f739188f9f743e029bd7a2607e3b427a84d74e9ea7a843f6",
    "spatial uniform n=20 rho=30": "0293926bf6e05e6aeacb45aaf297309f48ad4718eb9ed289e32cd3c349a1c769",
    "spatial beta:2,2 n=4 rho=40": "7f0e9cd708e6d5168ba0638ec72dc1631fc49aa9bbadd92e8edf1489a6399cee",
    "spatial uniform n=70 rho=2": "acabbdf448b9203549df3336b773b72130c442d1525108f56e44a54e3d633fbe",
}


def simulate_log(tmp_path, engine, density, n, rho):
    out = tmp_path / ("%s-%s-%d-%d.log" % (engine, density.replace(":", "_"), n, rho))
    assert main([
        "simulate", "--engine", engine, "--samples", str(n), "--rho", str(rho),
        "--density", density, "--seed", str(SEED), "--reps", str(REPS), "--out", str(out),
    ]) == 0
    return out


def log_digest(tmp_path, *cell):
    return hashlib.sha256(simulate_log(tmp_path, *cell).read_bytes()).hexdigest()


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


# sha256 over `repr` of every `summary` field of 200 replicates per engine
# (n=8, rho=4, beta:2,2, sites 0, 0.3 and 0.7, seed 4242): pins the site
# trees' heights and lengths to the last bit
SUMMARY_PINNED = {
    "backintime": "20e154a0fa989730282b4b1f6fed4379d5ea8f0f1762cabe09d24ff66f46b5e5",
    "spatial": "acd9d4ffb57a6a1ed98ba5d954c0cdf4e709c5f781e3c2c49ad4b3d1d9ea82b8",
}


def test_summaries_match_pinned_digests():
    got = {}
    for engine in SUMMARY_PINNED:
        h = hashlib.sha256()
        for st in run_replicates(engine, SimConfig(n_samples=8, rho=4.0, density="beta:2,2", seed=SEED), 200,
                                 sites=(0.0, 0.3, 0.7), threads=1):
            h.update(repr((
                st.replicate, st.breakpoint_count, st.grand_mrca, st.max_lineages,
                st.tmrca_at, st.length_at,
            )).encode())
        got[engine] = h.hexdigest()
    assert got == SUMMARY_PINNED


# the GRID logs that `argsim tree` reads, and the sites it reads them at
TREE_CELLS = (
    ("backintime", "beta:2,2", 8, 4),
    ("spatial", "beta:2,2", 8, 4),
    ("backintime", "beta:2,2", 20, 15),
    ("spatial", "beta:2,2", 20, 10),
)
TREE_SITES = ("0", "0.37", "0.999")

# sha256 of the `argsim tree` output in each format, over every cell and site
TREE_PINNED = {
    "newick": "8ae1ee8aea690b21e775b9ad7ae1332e4580e801f4071c7cc453b30e19ee20dc",
    "levels": "d3b3c24a228ae272cf81b873e1632fb698d4805aca49988f5d4c8272a72e7c4f",
}


def test_tree_output_matches_pinned_digests(tmp_path, capsys):
    logs = [simulate_log(tmp_path, *cell) for cell in TREE_CELLS]
    capsys.readouterr()
    got = {}
    for fmt in TREE_PINNED:
        h = hashlib.sha256()
        for log in logs:
            for site in TREE_SITES:
                assert main(["tree", str(log), "--site", site, "--format", fmt]) == 0
                h.update(capsys.readouterr().out.encode())
        got[fmt] = h.hexdigest()
    assert got == TREE_PINNED
