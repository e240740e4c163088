"""Alternating parent/change pairs of the benchmark, summarized as a BENCH_*.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json \\
        --parent-commit SHA --runs prepare_and_score:1-10 --runs finetune_full:21-23

PARENT_DIR and CHANGE_DIR are checkouts of the two commits (for example made
with `git archive`). One pair runs `python3 bench/run.py --workload W --seed S
--seconds 20` once in each checkout, the side that runs first alternating
from pair to pair, and reads the JSON result line that run prints. The
summary is rewritten after every pair, so an interrupted series keeps the
pairs it finished. A run that exits non-zero or prints no JSON result line
is recorded as a failed side (every metric null, `correct` false) and the
series goes on. The bounds and directions come from CHANGE_DIR's
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 20
GAIN_SHARE = 0.9  # the change must win at least this share of the pairs


def run_bench(checkout: Path, workload: str, seed: int, names: list[str]) -> dict:
    """One benchmark run: its result line plus the machine it printed. A run
    that crashes is a failed one: every metric in names None, with the reason."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode:
            raise ValueError(f"exit status {proc.returncode}")
        result = json.loads(lines[-1] if lines else "")
        env = next(line for line in lines if line.startswith("environment "))
        result["environment"] = json.loads(env.split(" ", 1)[1])
    except (ValueError, StopIteration) as exc:
        stderr = proc.stderr.strip().splitlines()
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": {name: {"value": None} for name in names},
                "crashed": f"{type(exc).__name__}: {exc}" + (f"; {stderr[-1]}" if stderr else "")}
    return result


def quartiles(runs: list[float]) -> dict:
    # one run (the first pair of a series) has no spread: count it twice
    q1, median, q3 = statistics.quantiles(runs * (2 if len(runs) < 2 else 1), n=4,
                                          method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}


def summarize_metric(spec: dict, parent: list[float | None], change: list[float | None]) -> dict:
    """One metric over the pairs. A value is None when every repetition of
    that run failed; such a pair counts as failed: it is left out of the
    quartiles, and a series with a failed pair does not meet the gain rule."""
    sign = 1 if spec["better"] == "higher" else -1
    done = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
           "failed_pairs": len(parent) - len(done)}
    if not done:
        return out | {"within_bound": False, "gain_rule_met": False}
    wins = sum(sign * (c - p) > 0 for p, c in done)
    ties = sum(c == p for p, c in done)
    p, c = (quartiles(list(runs)) for runs in zip(*done))
    return out | {
        "parent": p, "change": c, "change_wins": wins, "ties": ties,
        "median_change_pct": 100 * (c["median"] - p["median"]) / p["median"],
        "within_bound": sign * (c["median"] - p["median"]) >= -spec["bound"] * p["median"],
        "gain_rule_met": not out["failed_pairs"] and wins >= GAIN_SHARE * len(parent)
        and sign * (c["median"] - p["median"]) > p["iqr"],
    }


def summarize(pairs: list[dict], specs: dict[str, dict]) -> dict:
    out = {
        "seeds": [pair["seed"] for pair in pairs],
        "pairs": len(pairs),
        "parent_first_in_pairs": sum(pair["parent_first"] for pair in pairs),
        "operations": {
            side: {"attempted": sum(pair[side]["attempted"] for pair in pairs),
                   "failed": sum(pair[side]["failed"] for pair in pairs),
                   "all_correct": all(pair[side]["correct"] for pair in pairs)}
            for side in ("parent", "change")
        },
        "crashed_runs": {side: [{"seed": pair["seed"], "why": pair[side]["crashed"]}
                                for pair in pairs if "crashed" in pair[side]]
                         for side in ("parent", "change")},
        "metrics": {},
    }
    for name, spec in specs.items():
        runs = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                for side in ("parent", "change")}
        out["metrics"][name] = summarize_metric(spec, runs["parent"], runs["change"])
    return out


def _show(result: dict, name: str) -> str:
    value = result["metrics"][name]["value"]
    return "failed" if value is None else f"{value:.3f}"


def parse_runs(text: str) -> tuple[str, list[int]]:
    """'workload:1-10' or 'workload:3,7' -> (workload, seeds)."""
    workload, seeds = text.split(":", 1)
    out = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return workload, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--runs", action="append", type=parse_runs, required=True,
                        help="WORKLOAD:SEEDS, seeds as a range a-b or a comma list")
    args = parser.parse_args()
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "what": "End-to-end benchmark of the commit that adds this file against its parent, "
                "from alternating pairs",
        "parent_commit": args.parent_commit,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {SECONDS} (untraced), "
                   "run from a checkout of each side; one pair = one seed run on both sides, "
                   "the side that runs first alternating from pair to pair",
        "gain_rule": "change wins at least 9 of 10 pairs (ties count for neither) and the "
                     "medians differ by more than the parent's interquartile range",
        "scale": {"name": "paper", "d_model": 512, "n_layers": 6, "n_heads": 8,
                  "d_ffn": 2048, "n_mels": 80, "frames_per_clip": 600, "dtype": "float32"},
        "machine": None,
        "workloads": {},
    }
    n = 0
    for workload, seeds in args.runs:
        pairs = []
        for seed in seeds:
            order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "parent_first": order[0] == "parent"}
            for side in order:
                pair[side] = run_bench(sides[side], workload, seed, list(specs))
            n += 1
            pairs.append(pair)
            env = pair["change"].get("environment") or pair["parent"].get("environment")
            if env:
                report["machine"] = {k: env[k] for k in (
                    "nproc", "cpu", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "python", "numpy", "scipy")} | {"blas_threads": int(env["OPENBLAS_NUM_THREADS"])}
            report["workloads"][workload] = summarize(pairs, specs)
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            print(f"{workload} seed {seed} (parent -> change): "
                  + ", ".join(f"{name} {_show(pair['parent'], name)} -> {_show(pair['change'], name)}"
                              for name in specs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
