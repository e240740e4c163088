"""stutterkit benchmark: the paper's loop at paper scale, measured from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/stutterkit`. Each run generates its
inputs from the seed in a temporary directory under `.bench_tmp/`, then
repeats the loop `curate -> featurize -> train -> eval` at least twice and
for as long as `--seconds` allows. Every command runs in a fresh interpreter
through `stutterkit.cli.main(argv)`, so each pays the cold-process cost a
CLI user pays. Outputs are checked after every repetition and must be
byte-identical across repetitions.

With `--trace 0` the last stdout line holds the end-to-end metrics: each
command's median over the repetitions, and the largest peak RSS of any
command. With `--trace 1` the first repetition runs untraced
and the second traced; the last line holds the per-layer metrics of the
traced one, the layer-by-layer forward probe, and the traced-minus-untraced
overhead of each end-to-end metric. Spans and the machine description go to
`.bench_out/`.

`--scale tiny` swaps in the 2-layer test model so a whole run takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THRESHOLDS = ("0.3", "0.5", "0.7")
DEADLINE_S = 170.0  # the whole run, so a stuck command cannot pass 180 s
# At least two repetitions, so outputs can be compared across them; more only
# while --seconds lasts, because a paper-scale repetition takes 12-17 s.
MIN_REPS = 2
# One BLAS thread: with two on a 2-CPU machine the short commands' times
# split into two modes (featurizing five clips took 0.045 s or 0.09 s).
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "curate_s": "s", "featurize_clips_per_s": "clips/s",
    "eval_clips_per_s": "clips/s", "peak_rss_mb": "MB",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    """The machine and software a result was measured on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
        "blas": blas_name, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _commit(),
    }


class Run:
    """One benchmark run: its inputs, its repetitions and its operation count.

    An operation is a command run or an output check; `failed` counts the
    ones that did not pass.
    """

    def __init__(self, args, tmp: Path) -> None:
        import workloads

        self.args = args
        self.tmp = tmp
        self.started = _now()
        self.workload = workloads.WORKLOADS[args.workload]
        corpus = self.workload.corpus
        model_keys = workloads.TINY_MODEL if args.scale == "tiny" else {}
        self.config = {**model_keys, **self.workload.train}
        self.n_layers = model_keys.get("n_layers", 6)
        self.spec = self.workload.freeze_spec(self.n_layers)
        self.plan = workloads.PLAN
        self.sizes = workloads.expected_split_sizes(corpus)
        self.materialized = workloads.materialized_pairs(corpus)
        self.inputs = workloads.write_inputs(tmp / "inputs", corpus, args.seed, self.config)
        self.n_clips = len(list(self.inputs["audio"].glob("*.wav")))
        self.attempted = 0
        self.failed = 0
        self.missing: set[str] = set()

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {label}: {p}", file=sys.stderr)

    def child(self, run_id: str, mode: str, argv: list) -> dict | None:
        """Start child.py for one command; count it as an operation."""
        result_file = self.tmp / f"{run_id.replace('/', '_')}.json"
        remaining = DEADLINE_S - (_now() - self.started)
        os.sync()  # write back earlier outputs now, not while the command is timed
        started = _now()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(result_file), str(SRC),
                 run_id, mode, "--", *map(str, argv)],
                capture_output=True, text=True, timeout=max(remaining, 1.0), cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            self.op(run_id, [f"still running at the {DEADLINE_S:.0f} s deadline; killed"])
            return None
        if proc.returncode != 0 or not result_file.is_file():
            self.op(run_id, [f"child exited {proc.returncode}: {proc.stderr[-800:]}"])
            return None
        res = json.loads(result_file.read_text(encoding="utf-8"))
        res["setup_s"] = res["imported_at"] - started
        res["stdout"] = proc.stdout
        self.op(run_id, [] if res["rc"] == 0 else [f"exit code {res['rc']}: {proc.stderr[-800:]}"])
        self.missing.update(res.get("missing", []))
        return res

    def expected_trainable(self) -> tuple[int, int]:
        """(trainable, total) parameters for this run's model and freeze spec.

        At paper scale the counts come from `stutterkit params`, whose table
        is for the default model; the tiny model is counted directly.
        """
        import workloads
        from stutterkit import model

        if self.args.scale == "tiny":
            cfg = model.ModelConfig(**{k: v for k, v in self.config.items()
                                       if k in model.ModelConfig.__dataclass_fields__})
            freeze = model.parse_freeze_spec(self.spec, cfg.n_layers)
            return (model.trainable_parameter_count(cfg, freeze),
                    model.trainable_parameter_count(cfg, model.FreezeConfig()))
        res = self.child(f"{self.args.workload}/{self.args.seed}/params", "0",
                         ["params", "--freeze", self.spec])
        counts = {}
        for line in (res or {}).get("stdout", "").splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0] in (self.spec, "(total)"):
                counts[parts[0]] = int(parts[1].replace(",", ""))
        self.op("params table", [
            f"{key}: params prints {counts.get(key)}, the paper's table has {workloads.PAPER_TRAINABLE[key]:,}"
            for key in (self.spec, "(total)") if counts.get(key) != workloads.PAPER_TRAINABLE[key]
        ])
        return counts.get(self.spec, -1), counts.get("(total)", -1)

    def repetition(self, r: int, traced: bool) -> dict:
        """One pass of curate -> featurize -> train -> eval, checked."""
        import checks

        d = self.tmp / f"rep{r}"
        run = f"{self.args.workload}/{self.args.seed}/rep{r}"
        mode = "1" if traced else "0"
        cfg = ["--config", self.inputs["config"]]
        inp = self.inputs
        argv = {
            "curate": ["curate", inp["inventory"], inp["audio"], d / "curated",
                       "--plan", self.plan, "--groups", inp["groups"],
                       "--seed", self.args.seed],
            "featurize": ["featurize", inp["audio"], d / "features", *cfg],
            "train": ["train", d / "curated/train/manifest.csv", d / "curated/val/manifest.csv",
                      d / "run", "--freeze", self.spec, "--seed", self.args.seed, *cfg],
            "eval": ["eval", inp["checkpoint"], d / "curated/test/manifest.csv", d / "eval",
                     "--threshold", *THRESHOLDS, *cfg],
        }
        res = {name: self.child(f"{run}/{name}", mode, a) for name, a in argv.items()}
        self.op(f"{run} curated splits", checks.curated(d / "curated", self.sizes))
        self.op(f"{run} features", checks.features(inp["audio"], d / "features"))
        self.op(f"{run} history", checks.history(d / "run/history.jsonl", self.workload.epochs))
        self.op(f"{run} checkpoint", checks.checkpoint(d / "run/checkpoint.bin", self.trainable))
        self.op(f"{run} eval reports", checks.eval_reports(
            d / "eval", [float(t) for t in THRESHOLDS], self.sizes["test"]))
        outputs = {"curate": "curated", "featurize": "features", "train": "run", "eval": "eval"}
        return {"res": res, "digests": {name: checks.digests(d / outputs[name]) for name in res}}

    def rep_metrics(self, rep: dict) -> dict[str, float]:
        """This repetition's end-to-end metrics; empty if a command failed."""
        res = rep["res"]
        if any(v is None for v in res.values()):
            return {}
        return {
            "setup_s": statistics.median(v["setup_s"] for v in res.values()),
            "train_s": res["train"]["cmd_s"],
            "curate_s": res["curate"]["cmd_s"],
            "featurize_clips_per_s": self.n_clips / res["featurize"]["cmd_s"],
            "eval_clips_per_s": self.sizes["test"] / res["eval"]["cmd_s"],
            "peak_rss_mb": max(v["maxrss_kb"] for v in res.values()) / 1024,
        }

    def execute(self) -> tuple[dict, dict]:
        """All repetitions; returns (metrics for the result line, details)."""
        import checks

        self.trainable, self.total = self.expected_trainable()
        reps = []
        measure_start = _now()
        while True:
            traced = self.args.trace == 1 and len(reps) == 1
            reps.append(self.repetition(len(reps), traced))
            elapsed = _now() - measure_start
            if self.args.trace == 1 and len(reps) == 2:
                break
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > self.args.seconds:
                break
            if _now() - self.started > DEADLINE_S / 2:  # no time for another repetition
                break
        for r, rep in enumerate(reps[1:], 1):
            for name, digest in rep["digests"].items():
                self.op(f"rep{r} {name} digests",
                        checks.same_digests(name, reps[0]["digests"][name], digest))

        per_rep = [self.rep_metrics(rep) for rep in reps]
        details = {"reps": per_rep, "missing": sorted(self.missing)}
        if self.args.trace == 1:
            return self.layer_metrics(reps, per_rep, details), details
        complete = [m for m in per_rep if m]
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            pick = max if name == "peak_rss_mb" else statistics.median
            metrics[name] = (pick(m[name] for m in complete) if complete else float("nan"), unit)
        return metrics, details

    def layer_metrics(self, reps: list[dict], per_rep: list[dict], details: dict) -> dict:
        traced = [v for v in reps[1]["res"].values() if v]
        all_spans, counters = [], {}
        for v in traced:
            offset = len(all_spans)
            all_spans += [{**s, "parent": None if s["parent"] is None else s["parent"] + offset}
                          for s in v["spans"]]
            for k, c in v["counters"].items():
                counters[k] = counters.get(k, 0) + c
        selfs = spans.self_times(all_spans)
        self.op("span nesting", spans.check_nesting(all_spans, selfs))
        metrics = spans.layer_metrics(all_spans, counters)
        details["spans"] = all_spans

        # The counters must reproduce counts known without tracing.
        ratio = metrics["model.backward_pass.useful_grad_ratio"][0]
        want = self.trainable / self.total
        self.op("useful_grad_ratio", [] if abs(ratio - want) < 1e-12 else
                [f"traced ratio {ratio!r}, the freeze spec gives {want!r}"])
        pairs = metrics["curation.pair.pairs"][0]
        self.op("pair count", [] if pairs == self.materialized else
                [f"traced {pairs} pairs, the corpus makes {self.materialized}"])

        wav = sorted(self.inputs["audio"].glob("*.wav"))[0]
        probe = self.child(f"{self.args.workload}/{self.args.seed}/probe", "probe",
                           [wav, json.dumps(self.config)])
        probed = (probe or {}).get("probe", {})
        metrics["model.conv_stem.p50_s"] = (probed.get("model.conv_stem.p50_s", 0.0), "s")
        for k in range(6):
            name = f"model.encoder_layer_forward.{k}.p50_s"
            metrics[name] = (probed.get(name, 0.0), "s")

        base, with_trace = per_rep[0], per_rep[1]
        for name, unit in END_TO_END_UNITS.items():
            delta = with_trace.get(name, float("nan")) - base.get(name, float("nan"))
            metrics[f"trace.overhead.{name}"] = (delta, unit)
        metrics["trace.missing_functions"] = (len(self.missing), "count")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    args = parser.parse_args(argv)
    if not (SRC / "stutterkit" / "cli.py").is_file():
        print(f"error: no stutterkit sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads  # numpy-backed modules load only after the thread count is set


    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        run = Run(args, tmp)
        metrics, details = run.execute()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    env = environment()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    record = {"args": vars(args), "environment": env, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics, **details}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"environment {json.dumps(env)}")
    for name in sorted(details["missing"]):
        print(f"missing: {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(f"{'error_rate':48s} {run.failed / run.attempted:14.6f} ratio "
          f"({run.failed} failed of {run.attempted} command runs and output checks)")
    correct = run.failed == 0 and all(v == v for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value if value == value else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
