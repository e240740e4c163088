"""The summary rules of tools/bench_pairs.py, which writes the BENCH_*.json
files: quartiles, the gain rule in both directions, and failed runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import load_tool

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
HIGHER = {"unit": "clips/s", "better": "higher", "bound": 0.25}
LOWER = {"unit": "s", "better": "lower", "bound": 0.25}


@pytest.fixture(scope="module")
def bench_pairs():
    return load_tool(TOOL)


def test_quartiles_of_one_run_have_no_spread(bench_pairs):
    q = bench_pairs.quartiles([2.5])
    assert (q["q1"], q["median"], q["q3"], q["iqr"]) == (2.5, 2.5, 2.5, 0.0)
    assert q["runs"] == [2.5]


def test_parse_runs(bench_pairs):
    assert bench_pairs.parse_runs("finetune_full:1-3") == ("finetune_full", [1, 2, 3])
    assert bench_pairs.parse_runs("prepare_and_score:3,7") == ("prepare_and_score", [3, 7])
    assert bench_pairs.parse_runs("w:5") == ("w", [5])
    assert bench_pairs.parse_runs("w:1-2,9") == ("w", [1, 2, 9])


def test_gain_on_a_higher_is_better_metric(bench_pairs):
    parent = [2.2, 2.3, 2.25, 2.28, 2.26, 2.24, 2.27, 2.21, 2.29, 2.3]
    out = bench_pairs.summarize_metric(HIGHER, parent, [p + 0.6 for p in parent])
    assert out["change_wins"] == 10 and out["failed_pairs"] == 0
    assert out["median_change_pct"] > 0
    assert out["within_bound"] and out["gain_rule_met"]
    # the same numbers under better=lower are a loss beyond no bound
    worse = bench_pairs.summarize_metric(LOWER, parent, [p + 0.6 for p in parent])
    assert worse["change_wins"] == 0
    assert not worse["within_bound"] and not worse["gain_rule_met"]


def test_a_pair_with_a_failed_run_is_left_out_and_blocks_the_gain(bench_pairs):
    parent = [2.0, 2.1, 2.05, 2.02, 2.08, 2.03, 2.07, 2.01, 2.06, 2.04]
    change = [p + 1.0 for p in parent]
    change[3] = None
    out = bench_pairs.summarize_metric(HIGHER, parent, change)
    assert out["failed_pairs"] == 1
    assert out["change_wins"] == 9
    assert out["parent"]["runs"] == parent[:3] + parent[4:]
    assert None not in out["change"]["runs"]
    assert out["within_bound"] and not out["gain_rule_met"]
    none = bench_pairs.summarize_metric(HIGHER, [None, 2.0], [3.0, None])
    assert none["failed_pairs"] == 2
    assert not none["within_bound"] and not none["gain_rule_met"]


def test_summarize_counts_a_null_metric_as_a_failed_pair(bench_pairs):
    def run(value, failed=0):
        return {"attempted": 10, "failed": failed, "correct": not failed,
                "metrics": {"eval_clips_per_s": {"value": value}}}

    pairs = [{"seed": 1, "parent_first": True, "parent": run(2.0), "change": run(2.6)},
             {"seed": 2, "parent_first": False, "parent": run(2.1), "change": run(None, 10)}]
    out = bench_pairs.summarize(pairs, {"eval_clips_per_s": HIGHER})
    assert out["operations"]["change"] == {"attempted": 20, "failed": 10, "all_correct": False}
    metric = out["metrics"]["eval_clips_per_s"]
    assert metric["failed_pairs"] == 1 and metric["change"]["runs"] == [2.6]
    assert not metric["gain_rule_met"]


def test_a_run_that_crashes_is_a_failed_side_and_the_series_goes_on(bench_pairs, tmp_path, monkeypatch):
    """The change side exits 1 on seed 2 and prints no result on seed 3: both
    are recorded as failed runs, and the series still runs every pair."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "eval_clips_per_s", **HIGHER}]}), encoding="utf-8")
    env = {"nproc": 2, "cpu": "x", "blas": "openblas", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "python": "3", "numpy": "2", "scipy": None}
    calls = []

    def fake_run(argv, cwd, **kwargs):
        side, seed = Path(cwd).name, int(argv[argv.index("--seed") + 1])
        calls.append((side, seed))
        result = {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"eval_clips_per_s": {"value": 2.0 + (side == "change")}}}
        stdout = f"environment {json.dumps(env)}\n{json.dumps(result)}\n"
        if side == "change" and seed == 2:
            return subprocess.CompletedProcess(argv, 1, "", "Traceback ...\nMemoryError\n")
        if side == "change" and seed == 3:
            stdout = f"environment {json.dumps(env)}\n"
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                                      str(out), "--parent-commit", "abc", "--runs", "w:1-3"])
    assert bench_pairs.main() == 0
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    report = json.loads(out.read_text(encoding="utf-8"))
    summary = report["workloads"]["w"]
    assert summary["pairs"] == 3 and summary["seeds"] == [1, 2, 3]
    assert summary["operations"]["change"] == {"attempted": 4, "failed": 0, "all_correct": False}
    assert summary["operations"]["parent"]["all_correct"]
    assert summary["crashed_runs"]["parent"] == []
    assert [run["seed"] for run in summary["crashed_runs"]["change"]] == [2, 3]
    assert "MemoryError" in summary["crashed_runs"]["change"][0]["why"]
    metric = summary["metrics"]["eval_clips_per_s"]
    assert metric["failed_pairs"] == 2 and metric["change"]["runs"] == [3.0]
    assert not metric["gain_rule_met"]
    assert report["machine"]["blas_threads"] == 1
    crashed = bench_pairs.run_bench(tmp_path / "change", "w", 2, ["eval_clips_per_s"])
    assert crashed["metrics"] == {"eval_clips_per_s": {"value": None}} and not crashed["correct"]
    assert "exit status 1" in crashed["crashed"] and "MemoryError" in crashed["crashed"]
