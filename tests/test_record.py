"""The benchmark recorder's pure parts: the verdict over pairs, the per-pair
ratios and the golden-digest check, on synthetic runs with no subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

LOWER = {"name": "us_per_event", "unit": "us", "better": "lower", "bound": 0.25}
HIGHER = {"name": "reps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs_of(metric, parent, change):
    """Pairs as record.run returns them, holding one metric per side."""
    return [{"seed": seed, "first": "parent", "parent": {"metrics": {metric["name"]: {"value": p}}},
             "change": {"metrics": {metric["name"]: {"value": c}}}}
            for seed, (p, c) in enumerate(zip(parent, change))]


PARENT = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]  # IQR 0.1


def test_nine_of_ten_pairs_and_a_move_past_the_iqr_is_a_gain():
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3] + 0.5  # one pair lost
    got = record.compare(LOWER, runs_of(LOWER, PARENT, change))
    assert (got["change_won"], got["ties"], got["pairs"]) == (9, 0, 10)
    assert got["gain"]
    change[4] = PARENT[4] + 0.5  # two lost: 8 of 10
    assert not record.compare(LOWER, runs_of(LOWER, PARENT, change))["gain"]


def test_ties_count_for_neither_side():
    change = [p - 1.0 for p in PARENT]
    change[0] = PARENT[0]
    got = record.compare(LOWER, runs_of(LOWER, PARENT, change))
    assert (got["change_won"], got["ties"], got["gain"]) == (9, 1, True)
    change[1] = PARENT[1]
    got = record.compare(LOWER, runs_of(LOWER, PARENT, change))
    assert (got["change_won"], got["ties"], got["gain"]) == (8, 2, False)


def test_a_move_inside_the_parents_iqr_is_no_gain():
    parent = [8.0, 12.0, 9.0, 11.0, 8.5, 11.5, 10.0, 9.5, 10.5, 10.0]  # IQR 2.0
    change = [p - 0.5 for p in parent]  # every pair won, medians 0.5 apart
    got = record.compare(LOWER, runs_of(LOWER, parent, change))
    assert got["change_won"] == 10
    assert got["parent"]["q3"] - got["parent"]["q1"] > 0.5
    assert not got["gain"]


def test_higher_is_better_wins_upward():
    change = [p + 1.0 for p in PARENT]
    got = record.compare(HIGHER, runs_of(HIGHER, PARENT, change))
    assert (got["change_won"], got["gain"]) == (10, True)
    assert got["change_frac"] > 0
    got = record.compare(HIGHER, runs_of(HIGHER, PARENT, [p - 1.0 for p in PARENT]))
    assert (got["change_won"], got["gain"]) == (0, False)


def test_pair_ratios_are_change_over_parent_with_their_spread():
    # both sides drift upward together; the ratio of each pair stays put
    parent = [10.0 + i for i in range(10)]
    change = [0.9 * p for p in parent]
    got = record.compare(LOWER, runs_of(LOWER, parent, change))
    assert got["pair_ratio"]["values"] == [c / p for p, c in zip(parent, change)]
    for key in ("median", "q1", "q3"):
        assert got["pair_ratio"][key] == pytest.approx(0.9, abs=1e-12)
    assert got["parent"]["q3"] - got["parent"]["q1"] == pytest.approx(4.5)
    assert not got["gain"]  # the medians move by 1.45, less than the parent's IQR
    assert got["parent"]["values"] == parent and got["change"]["values"] == change


def test_stream_changed_reads_each_workload_against_the_pinned_digest():
    pinned = {"a": "1" * 64, "b": "2" * 64}
    assert record.stream_changed({"a": "1" * 64, "b": "2" * 64}, pinned) == {"a": False, "b": False}
    assert record.stream_changed({"a": "1" * 64, "b": "3" * 64}, pinned) == {"a": False, "b": True}
    assert record.stream_changed({"b": "2" * 64}, pinned) == {"b": False}


def test_pinned_digests_cover_every_benchmark_workload():
    pinned = json.loads(record.PINNED.read_text())["golden_sha256"]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(pinned) == sorted(workloads)
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in pinned.values())


def test_grid_rows_hold_each_sides_spread_and_the_round_ratios():
    parent = [{"a_us_per_path": 10.0 + i, "b_us_per_event": 2.0} for i in range(5)]
    change = [{"a_us_per_path": 9.0 + i, "b_us_per_event": 2.2} for i in range(5)]
    rows = record.merge_grid([{"parent": p, "change": c} for p, c in zip(parent, change)])
    assert sorted(rows) == ["a_us_per_path", "b_us_per_event"]
    a = rows["a_us_per_path"]
    assert a["parent"]["values"] == [10.0, 11.0, 12.0, 13.0, 14.0]
    assert a["change"]["values"] == [9.0, 10.0, 11.0, 12.0, 13.0]
    assert [a["parent"][key] for key in ("q1", "median", "q3")] == [11.0, 12.0, 13.0]
    assert [a["change"][key] for key in ("q1", "median", "q3")] == [10.0, 11.0, 12.0]
    # each round's ratio, not the ratio of the medians
    assert a["ratio"]["values"] == [(9.0 + i) / (10.0 + i) for i in range(5)]
    assert [a["ratio"][key] for key in ("q1", "median", "q3")] == [10 / 11, 11 / 12, 12 / 13]
    b = rows["b_us_per_event"]
    for key in ("q1", "median", "q3"):
        assert b["ratio"][key] == pytest.approx(1.1, abs=1e-12)
