"""Tests of the benchmark itself: its output checks, its span arithmetic, its
tracer, and a tiny-config smoke run of every workload.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import workloads
from stutterkit import cli, model

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
THRESHOLDS = [0.3, 0.5, 0.7]


# ---------------------------------------------------------------------------
# Output checks against a real tiny pipeline run, then against corruptions


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """curate -> featurize -> train -> eval on the tiny model, in process."""
    root = tmp_path_factory.mktemp("pipeline")
    wl = workloads.WORKLOADS["finetune_frozen"]
    config = {**workloads.TINY_MODEL, **wl.train}
    inp = workloads.write_inputs(root / "inputs", wl.corpus, seed=3, config=config)
    cfg = ["--config", str(inp["config"])]
    argvs = [
        ["curate", inp["inventory"], inp["audio"], root / "curated", "--plan", workloads.PLAN,
         "--groups", inp["groups"], "--seed", "3"],
        ["featurize", inp["audio"], root / "features", *cfg],
        ["train", root / "curated/train/manifest.csv", root / "curated/val/manifest.csv",
         root / "run", "--freeze", wl.freeze_spec(2), "--seed", "3", *cfg],
        ["eval", inp["checkpoint"], root / "curated/test/manifest.csv", root / "eval",
         "--threshold", *map(str, THRESHOLDS), *cfg],
    ]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([str(a) for a in argv]) == 0
    model_cfg = model.ModelConfig(**{k: v for k, v in config.items()
                                     if k in model.ModelConfig.__dataclass_fields__})
    trainable = model.trainable_parameter_count(
        model_cfg, model.parse_freeze_spec(wl.freeze_spec(2), 2))
    return {"root": root, "audio": inp["audio"], "sizes": workloads.expected_split_sizes(wl.corpus),
            "trainable": trainable, "epochs": wl.epochs}


@pytest.fixture
def copy(pipeline, tmp_path):
    """A private copy of the pipeline outputs that a test may corrupt."""
    dst = tmp_path / "out"
    shutil.copytree(pipeline["root"], dst)
    return dst


def test_genuine_outputs_pass(pipeline):
    root = pipeline["root"]
    assert checks.curated(root / "curated", pipeline["sizes"]) == []
    assert checks.features(pipeline["audio"], root / "features") == []
    assert checks.history(root / "run/history.jsonl", pipeline["epochs"]) == []
    assert checks.checkpoint(root / "run/checkpoint.bin", pipeline["trainable"]) == []
    assert checks.eval_reports(root / "eval", THRESHOLDS, pipeline["sizes"]["test"]) == []


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def test_checkpoint_checks_flag_corruption(copy, pipeline):
    ckpt = copy / "run/checkpoint.bin"
    before = checks.digests(copy / "run")
    _flip_byte(ckpt, ckpt.stat().st_size - 2)  # inside the last tensor's bytes
    assert checks.same_digests("train", before, checks.digests(copy / "run"))

    header_end = ckpt.read_bytes().index(b"\n")
    _flip_byte(ckpt, header_end // 2)
    assert checks.checkpoint(ckpt, pipeline["trainable"])

    shutil.copy(pipeline["root"] / "run/checkpoint.bin", ckpt)
    assert checks.checkpoint(ckpt, pipeline["trainable"] + 1)
    ckpt.write_bytes(ckpt.read_bytes()[:-4])
    assert checks.checkpoint(ckpt, pipeline["trainable"])

    raw = bytearray((pipeline["root"] / "run/checkpoint.bin").read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    ckpt.write_bytes(bytes(raw))
    assert checks.checkpoint(ckpt, pipeline["trainable"])


def test_history_check_flags_bad_rows(copy, pipeline):
    path = copy / "run/history.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text(json.dumps(rows[0]) + "\n")
    assert checks.history(path, pipeline["epochs"])
    rows[0]["train_loss"] = None
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert checks.history(path, pipeline["epochs"])


def test_curation_checks_flag_bad_splits(copy, pipeline):
    sizes = pipeline["sizes"]
    wav = sorted((copy / "curated/test/audio").glob("*.wav"))[0]
    wav.write_bytes(wav.read_bytes()[:-200])
    assert checks.curated(copy / "curated", sizes)

    shutil.copy(pipeline["root"] / "curated/test/audio" / wav.name, wav)
    manifest = copy / "curated/val/manifest.csv"
    train_speaker = (copy / "curated/train/manifest.csv").read_text().splitlines()[1].split(",")[-1]
    lines = manifest.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1] + [train_speaker])
    manifest.write_text("\n".join(lines) + "\n")
    assert any("in both" in p for p in checks.curated(copy / "curated", sizes))

    shutil.copy(pipeline["root"] / "curated/val/manifest.csv", manifest)
    counts = json.loads((copy / "curated/counts.json").read_text())
    counts["train"]["total"] += 1
    (copy / "curated/counts.json").write_text(json.dumps(counts))
    assert checks.curated(copy / "curated", sizes)


def test_feature_checks_flag_missing_and_bad_dumps(copy, pipeline):
    wavs, feats = copy / "inputs/source_audio", copy / "features"
    dumps = sorted(feats.glob("*.melspec"))
    dumps[0].unlink()
    assert checks.features(wavs, feats)
    shutil.copy(pipeline["root"] / "features" / dumps[0].name, dumps[0])
    raw = dumps[1].read_bytes()
    dumps[1].write_bytes(raw[:-4] + np.array([np.inf], dtype="<f4").tobytes())
    assert checks.features(wavs, feats)
    dumps[1].write_bytes(raw[:-8])
    assert checks.features(wavs, feats)


def test_eval_checks_flag_missing_and_inconsistent_reports(copy, pipeline):
    n_test = pipeline["sizes"]["test"]
    (copy / "eval/eval_t0.7.json").unlink()
    assert checks.eval_reports(copy / "eval", THRESHOLDS, n_test)
    path = copy / "eval/eval_t0.5.json"
    report = json.loads(path.read_text())
    assert checks.eval_reports(copy / "eval", [0.5], n_test + 1)
    report["per_class"][0]["tp"] += 1
    path.write_text(json.dumps(report))
    assert checks.eval_reports(copy / "eval", [0.5], n_test)


# ---------------------------------------------------------------------------
# Span arithmetic


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.x", 5.0, 7.0, 3),
        _span("b.y", 6.0, 8.0, 3),  # overlaps b.x: the union is counted once
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])
    assert spans.check_nesting(tree, spans.self_times(tree)) == []


def test_nesting_check_flags_children_longer_than_parent():
    tree = [_span("root", 0.0, 1.0, None), _span("a", 0.0, 1.0, 0)]
    assert spans.check_nesting(tree, [0.0, 1.5])


def test_layer_metrics_sum_calls_and_self_time():
    tree = [
        _span("cli.train", 0.0, 10.0, None),
        _span("trainer.train_step", 1.0, 4.0, 0),
        _span("trainer.train_step", 5.0, 6.0, 0),
        _span("model.backward_pass", 2.0, 3.0, 1),
    ]
    counters = {"model.backward_pass.returned": 200, "model.backward_pass.useful": 50}
    m = spans.layer_metrics(tree, counters)
    assert m["trainer.train_step.calls"][0] == 2
    assert m["trainer.train_step.s"][0] == pytest.approx(4.0)
    assert m["trainer.train_step.self_s"][0] == pytest.approx(3.0)
    assert m["trainer.train_step.p50_s"][0] == pytest.approx(2.0)
    assert m["cli.train.self_s"][0] == pytest.approx(6.0)
    assert m["model.backward_pass.useful_grad_ratio"][0] == pytest.approx(0.25)


def _keep_targets(monkeypatch):
    """Let monkeypatch restore every attribute the tracer will replace."""
    import importlib

    for _, sites, _ in spans.TARGETS:
        for site in sites:
            module_name, attr = site.rsplit(".", 1)
            module = importlib.import_module(f"stutterkit.{module_name}")
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, getattr(module, attr))


def test_tracer_reports_a_missing_function_instead_of_crashing(monkeypatch):
    from stutterkit import trainer

    _keep_targets(monkeypatch)
    monkeypatch.delattr(trainer, "backward_pass")
    tracer = spans.Tracer("r")
    tracer.install()
    assert tracer.missing == ["model.backward_pass (looked up as trainer.backward_pass)"]


def test_tracer_counts_useful_gradients(monkeypatch):
    _keep_targets(monkeypatch)
    tracer = spans.Tracer("r")
    tracer.install()
    cfg = model.ModelConfig(**{k: v for k, v in workloads.TINY_MODEL.items()
                               if k in model.ModelConfig.__dataclass_fields__})
    registry = model.apply_freeze(model.build_registry(cfg, seed=0),
                                  model.parse_freeze_spec("Frz0-0+FrzFE", cfg.n_layers))
    from stutterkit import trainer

    values = np.random.default_rng(0).uniform(-1, 1, (cfg.n_mels, 40))
    trainer.backward([(values, np.eye(6)[0])], registry, cfg)
    useful = tracer.counters["model.backward_pass.useful"]
    assert useful == sum(e.value.size for _, e in registry.items() if e.trainable)
    assert tracer.counters["model.backward_pass.returned"] == registry.total_count()
    backward = next(i for i, s in enumerate(tracer.spans) if s["name"] == "trainer.backward")
    children = [s["name"] for s in tracer.spans if s["parent"] == backward]
    assert children == ["model.forward_with_cache", "model.backward_pass"]


# ---------------------------------------------------------------------------
# Whole runs


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    start = time.monotonic()
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "finetune_full", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
