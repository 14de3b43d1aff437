"""The event-log stream is pinned: both engines' `simulate` output bytes.

A change that moves the random stream (a different number of draws, or
draws in a different order) or the log format changes these digests. Such
a change must be declared and the cross-engine battery rerun; then the
digests here are recorded again.
"""

import hashlib
import itertools

from argsim.cli import main

SEED = 4242
REPS = 5
GRID = list(itertools.product(
    ("backintime", "spatial"), ("uniform", "beta:2,2"), (3, 8), (1, 4),
))

# sha256 of each cell's log, as written by `argsim simulate`
PINNED = {
    "backintime uniform n=3 rho=1": "874d89562f56d880eeb9dae20387014003e056da472e9e05492d5cf4bdc95bc5",
    "backintime uniform n=3 rho=4": "be3c1f61b4a5957504f9df016e9c9f3573724dab22036095f4753326a0f3819f",
    "backintime uniform n=8 rho=1": "b73a7c8acee41f25889e18170b6029a17e0d17f89f6b05f091499f76b8ec8e73",
    "backintime uniform n=8 rho=4": "db2160c778832bb8efda93230f545ab3f70b3951279fba9ab4f49334d4359402",
    "backintime beta:2,2 n=3 rho=1": "20a9ad328d2ccbe7b1dce0bbc4a7b59f736ec1e2ae4d46c11099e1e6acaea64a",
    "backintime beta:2,2 n=3 rho=4": "89f0b4fc9503212d54d5bece7ebd82af516aa5f3b392b5bb32e9cb2589fb6b14",
    "backintime beta:2,2 n=8 rho=1": "5a157c655fc2df1df73941f24ad9488637eae1ffeb9764aa99c72c173fee52dd",
    "backintime beta:2,2 n=8 rho=4": "d4fc1c51bb0c464130ed74f869c06f8bc707fb0d0cb20b2f09fb63b8f13aa643",
    "spatial uniform n=3 rho=1": "547477ee5c0dc94e9cecd84f80cf7f1244cd034891543845c757da82e722dfdb",
    "spatial uniform n=3 rho=4": "ae5da0468d45c404e6b28da91e42f317ed5464d9bcb6059bd955d781eef6ecbc",
    "spatial uniform n=8 rho=1": "91a0a7e8ed30d133520105256993c3dfc44aa2b65814fa590458f7271ddb3e1c",
    "spatial uniform n=8 rho=4": "accdaf9cbee194d9239b1ffb4cb6cc8e4893f61c02e2315589fe966389ac05a9",
    "spatial beta:2,2 n=3 rho=1": "cb53e0e13ae0459720b1b9058d72d0781ea76df44bfccbb89eb7c67c0ec42086",
    "spatial beta:2,2 n=3 rho=4": "26872b0924c7c330569c30d587b730b89ab26ea240bc5a7b675f2c79914a527c",
    "spatial beta:2,2 n=8 rho=1": "7b548067eba2abfbb1c6f2978f0602fb32ad215f8a6130ab845ebd4a869a77eb",
    "spatial beta:2,2 n=8 rho=4": "11cc7c43aedf197dbb9f53ad8ac549c89a453dc23d2dcc113b665c52906ce828",
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
