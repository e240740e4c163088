"""CLI tests: exit codes, artifacts, run manifests, and the end-to-end
curate -> train -> eval chain on a small synthetic corpus."""

import argparse
import codecs
import csv
import errno
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    SnapshotFileSpy,
    curation_fixture,
    edit_checkpoint_tensors,
    inventory_row,
    load_tool,
    traced_memory,
    write_config_file,
    write_inventory_csv,
    write_tone_wav,
)
import stutterkit
from stutterkit import cli, curation, featurizer, model, trainer
from stutterkit.cli import main
from stutterkit.labels import LABELS, NO_STUTTER

TINY_CFG = dict(
    d_model=16, n_layers=2, n_heads=2, d_ffn=32, n_mels=12, max_positions=256,
    d_proj=12, chunk_length_s=3.0, learning_rate=0.001, batch_size=4,
    max_epochs=2, early_stop_patience=1, max_steps=6,
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """curate + train once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    inventory, audio_dir, groups = curation_fixture(root)
    data_dir = root / "curated"
    rc = main([
        "curate", str(inventory), str(audio_dir), str(data_dir),
        "--plan", "SEP-28k-E-merged", "--groups", str(groups), "--seed", "0",
    ])
    assert rc == 0
    cfg_path = root / "tiny.cfg"
    write_config_file(cfg_path, **TINY_CFG)
    run_dir = root / "run"
    rc = main([
        "train", str(data_dir / "train" / "manifest.csv"),
        str(data_dir / "val" / "manifest.csv"), str(run_dir),
        "--config", str(cfg_path), "--freeze", "Frz0-1+FrzFE", "--seed", "3",
    ])
    assert rc == 0
    return root, data_dir, cfg_path, run_dir


# ---------------------------------------------------------------------------
# params


def test_params_prints_all_seven_counts(capsys):
    assert main(["params"]) == 0
    out = capsys.readouterr().out
    for n in ("20,723,462", "19,045,126", "11,267,846", "9,589,510",
              "6,437,638", "3,285,766", "133,894"):
        assert n in out
    for m in ("20.72", "19.05", "11.27", "9.59", "6.44", "3.29", "0.13"):
        assert m in out
    assert "(total)" in out


def test_params_single_freeze(capsys):
    assert main(["params", "--freeze", "Frz0-2"]) == 0
    out = capsys.readouterr().out
    assert "11,267,846" in out
    assert "19,045,126" not in out


def test_params_bad_freeze_is_usage_error(capsys):
    assert main(["params", "--freeze", "Frz9"]) == 2
    assert "freeze spec" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# featurize


def test_featurize_empty_dir_is_usage_error(tmp_path, capsys):
    (tmp_path / "in").mkdir()
    rc = main(["featurize", str(tmp_path / "in"), str(tmp_path / "out")])
    assert rc == 2
    assert "no WAV files" in capsys.readouterr().err


def test_featurize_writes_dump_and_manifest(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "clip.wav", 2.0, 440.0)
    out_dir = tmp_path / "out"
    assert main(["featurize", str(in_dir), str(out_dir)]) == 0
    dump = out_dir / "clip.melspec"
    assert dump.exists()
    spec, cfg = featurizer.load_spectrogram(dump)
    assert spec.values.shape == (cfg.n_mels, cfg.chunk_frames)
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "featurize"
    assert [o["path"] for o in manifest["outputs"]] == ["clip.melspec"]


def test_featurize_manifest_digests_match_files(tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for i in range(3):
        write_tone_wav(in_dir / f"c{i}.wav", 1.0, 300.0 + 100 * i)
    out_dir = tmp_path / "out"
    assert main(["featurize", str(in_dir), str(out_dir)]) == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert len(manifest["outputs"]) == 3
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out_dir / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_featurize_corrupt_wav_fails_without_skip(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    (in_dir / "bad.wav").write_bytes(b"RIFFxxxx")  # truncated header
    rc = main(["featurize", str(in_dir), str(tmp_path / "out")])
    assert rc == 1


def test_featurize_skip_bad_logs_and_continues(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "good.wav", 1.0, 500.0)
    (in_dir / "bad.wav").write_bytes(b"RIFFxxxx")
    out_dir = tmp_path / "out"
    rc = main(["featurize", str(in_dir), str(out_dir), "--skip-bad"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "skipping bad.wav" in captured.err
    assert (out_dir / "good.melspec").exists()
    assert not (out_dir / "bad.melspec").exists()
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert len(manifest["extra"]["skipped"]) == 1


def test_featurize_unknown_config_key_is_usage_error(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "c.wav", 1.0, 440.0)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_melz=40\n", encoding="utf-8")
    rc = main(["featurize", str(in_dir), str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_key_set_twice_is_usage_error(tmp_path, capsys, monkeypatch):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "c.wav", 1.0, 440.0)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n_mels=80\n# the tiny model\nseed=3\n n_mels = 12\n", encoding="utf-8")
    monkeypatch.setattr(featurizer, "load_wav", _fail_if_called)
    out_dir = tmp_path / "out"
    rc = main(["featurize", str(in_dir), str(out_dir), "--config", str(cfg)])
    assert rc == 2
    assert "n_mels is set twice, on lines 1 and 4" in capsys.readouterr().err
    assert not out_dir.exists()


def test_config_file_not_utf8_is_usage_error(tmp_path, capsys, monkeypatch):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "c.wav", 1.0, 440.0)
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfen_mels=80\n")
    monkeypatch.setattr(featurizer, "load_wav", _fail_if_called)
    out_dir = tmp_path / "out"
    rc = main(["featurize", str(in_dir), str(out_dir), "--config", str(cfg)])
    assert rc == 2
    assert f"{cfg}: not UTF-8" in capsys.readouterr().err
    assert not out_dir.exists()
    rc = main(["featurize", str(in_dir), str(out_dir), "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1


def test_config_file_invariant_violation_is_usage_error(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "c.wav", 1.0, 440.0)
    cfg = tmp_path / "bad.cfg"
    write_config_file(cfg, learning_rate=0)
    rc = main(["featurize", str(in_dir), str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 2
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, want_rc",
    [("attention_key_bias=tru", 2), ("batch_size=eight", 2), ("max_steps=none", 0),
     ("n_heads=0", 2), ("max_epochs=0", 2), ("chunk_length_s=inf", 2),
     ("chunk_length_s=1e308", 2), ("learning_rate=nan", 2), ("learning_rate=inf", 2),
     ("threshold=nan", 2), ("threshold=2", 2), ("max_steps=0", 2), ("max_steps=-3", 2),
     ("threshold=0", 0), ("threshold=1", 0), ("n_mels=202", 2), ("n_mels=99999999999", 2),
     ("chunk_length_s=1e9", 2), ("n_mels=201", 0)],
)
def test_config_values_parse_as_their_field_type(tmp_path, capsys, line, want_rc):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "c.wav", 1.0, 440.0)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    rc = main(["featurize", str(in_dir), str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == want_rc
    if want_rc == 2:
        assert line.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("line", ["n_classes=6", "attention_key_bias=false", "seed=0", "n_fft=400",
                                  "window_ms=25", "hop_ms=10", "log_floor=1e-10", "clamp_range=8.0",
                                  "affine_shift=4.0", "affine_scale=4.0", "beta1=0.9",
                                  "beta2=0.999", "eps=1e-8", "weight_decay=0.0",
                                  "early_stop_metric=macro_f1"])
def test_fixed_and_unused_settings_are_not_config_keys(tmp_path, capsys, line):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "c.wav", 1.0, 440.0)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    rc = main(["featurize", str(in_dir), str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_readme_config_keys_match_the_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config files", 1)[1].split("Example:", 1)[0]
    lists = re.findall(r"(?:model|trainer|featurizer)\s*\((.*?)\)", section, re.DOTALL)
    assert len(lists) == 3
    documented = set(re.findall(r"`(\w+)`", " ".join(lists)))
    assert documented == cli._KNOWN_KEYS


def test_readme_documents_every_cli_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    missing = [
        f"{name} {option}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option not in readme
    ]
    assert missing == []


# ---------------------------------------------------------------------------
# curate


def test_curate_artifacts(pipeline):
    _, data_dir, _, _ = pipeline
    for split, n in (("train", 42), ("val", 21), ("test", 21)):
        manifest = data_dir / split / "manifest.csv"
        rows = curation.read_split(manifest)
        assert len(rows) == n
        for row in rows:
            assert row["path"].exists()
    counts = json.loads((data_dir / "counts.json").read_text())
    assert counts["train"]["total"] == 42
    assert counts["train"][curation.NO_STUTTER_KEY] == 2  # one per train speaker
    rejections = json.loads((data_dir / "rejections.json").read_text())
    assert rejections == {}  # the fixture inventory is fully clean
    manifest = json.loads((data_dir / "run_manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["extra"]["plan"] == "SEP-28k-E-merged"
    assert manifest["extra"]["after_balance"] == 84


def test_curate_same_seed_reproduces_output(pipeline, tmp_path):
    root, data_dir, _, _ = pipeline
    rc = main([
        "curate", str(root / "inventory.csv"), str(root / "audio"), str(tmp_path / "again"),
        "--plan", "SEP-28k-E-merged", "--groups", str(root / "groups.json"), "--seed", "0",
    ])
    assert rc == 0
    for rel in ("counts.json", "train/manifest.csv", "val/manifest.csv", "test/manifest.csv"):
        assert (tmp_path / "again" / rel).read_bytes() == (data_dir / rel).read_bytes(), rel
    wavs = sorted(p.relative_to(data_dir) for p in data_dir.glob("*/audio/*.wav"))
    again = sorted(p.relative_to(tmp_path / "again") for p in (tmp_path / "again").glob("*/audio/*.wav"))
    assert wavs == again
    sample = wavs[0]
    assert (tmp_path / "again" / sample).read_bytes() == (data_dir / sample).read_bytes()


def test_curate_unknown_plan_exits_two(pipeline):
    root, _, _, _ = pipeline
    with pytest.raises(SystemExit) as exc:
        main([
            "curate", str(root / "inventory.csv"), str(root / "audio"), str(root / "x"),
            "--plan", "SEP-28k-Z", "--groups", str(root / "groups.json"),
        ])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "option", [["--prune-mode", "fixed"], ["--rare-threshold", "0.01"]],
    ids=["prune-mode", "rare-threshold"],
)
def test_curate_has_no_prune_options(pipeline, tmp_path, option):
    # only the fixed PRUNED_LABELS list names rare labels, so these are unknown options
    root, _, _, _ = pipeline
    with pytest.raises(SystemExit) as exc:
        main([
            "curate", str(root / "inventory.csv"), str(root / "audio"), str(tmp_path / "x"),
            "--plan", "SEP-28k-E", "--groups", str(root / "groups.json"), *option,
        ])
    assert exc.value.code == 2


def test_curate_holds_only_the_first_3_s_of_each_clip(tmp_path):
    # 16 kept clips of 20 s: holding them whole is 41 MB of float64 samples,
    # while their 3 s pair parts are 6 MB
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir()
    labels = [*LABELS[:5], *[NO_STUTTER] * 11]
    rows = []
    for i, label in enumerate(labels):
        write_tone_wav(audio_dir / f"c{i:02d}.wav", 20.0, 200.0 + 40 * i)
        rows.append(inventory_row(f"c{i:02d}", "ep0", "s0", 20.0, label=label))
    write_inventory_csv(tmp_path / "inventory.csv", rows)
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"4-DS": ["s0"], "DS-Set 1": [], "DS-Set 2": []}))
    tracemalloc.start()
    try:
        rc = main([
            "curate", str(tmp_path / "inventory.csv"), str(audio_dir), str(tmp_path / "out"),
            "--plan", "SEP-28k-E", "--groups", str(groups),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    whole_clips = len(labels) * 20 * featurizer.SAMPLE_RATE * 8
    assert peak < whole_clips / 2


def test_curate_missing_groups_file_is_runtime_error(pipeline, tmp_path, capsys):
    root, _, _, _ = pipeline
    rc = main([
        "curate", str(root / "inventory.csv"), str(root / "audio"), str(tmp_path / "x"),
        "--plan", "SEP-28k-E", "--groups", str(tmp_path / "missing.json"),
    ])
    assert rc == 1


def test_curate_malformed_groups_json_is_usage_error(pipeline, tmp_path, capsys, monkeypatch):
    root, _, _, _ = pipeline
    bad = tmp_path / "groups.json"
    monkeypatch.setattr(featurizer, "load_wav", _fail_if_called)
    for text in (json.dumps(["not", "a", "dict"]), '{"4-DS": ["s0"'):
        bad.write_text(text, encoding="utf-8")
        rc = main([
            "curate", str(root / "inventory.csv"), str(root / "audio"), str(tmp_path / "x"),
            "--plan", "SEP-28k-E", "--groups", str(bad),
        ])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err


def test_curate_unreadable_inventory_exits_one_and_names_the_file(pipeline, tmp_path, capsys,
                                                                monkeypatch):
    root, _, _, _ = pipeline
    bad = tmp_path / "inventory.csv"
    monkeypatch.setattr(featurizer, "load_wav", _fail_if_called)
    for tail in (b"\xff\n", b'"' + b"x" * (csv.field_size_limit() + 1) + b'"\n'):
        bad.write_bytes((root / "inventory.csv").read_bytes() + tail)
        rc = main([
            "curate", str(bad), str(root / "audio"), str(tmp_path / "x"),
            "--plan", "SEP-28k-E", "--groups", str(root / "groups.json"),
        ])
        assert rc == 1
        assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["config", "groups", "inventory", "split manifest"])
def test_input_files_may_start_with_a_utf8_byte_order_mark(pipeline, tmp_path, kind):
    """Excel and Notepad start UTF-8 files with a byte-order mark; each input
    file kind reads the same with it as without it."""
    root, data_dir, cfg_path, _ = pipeline
    source, read = {
        "config": (cfg_path, cli._read_config_file),
        "groups": (root / "groups.json", cli._read_speaker_groups),
        "inventory": (root / "inventory.csv", curation.read_inventory),
        "split manifest": (data_dir / "train" / "manifest.csv", curation.read_split),
    }[kind]
    plain, bom = tmp_path / "plain", tmp_path / "bom"  # one directory: manifest paths agree
    plain.write_bytes(source.read_bytes())
    bom.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
    want = read(str(plain))
    assert want and read(str(bom)) == want


# ---------------------------------------------------------------------------
# train


def test_train_artifacts_and_log(pipeline, capsys):
    root, data_dir, cfg_path, run_dir = pipeline
    ckpt = run_dir / "checkpoint.bin"
    history_path = run_dir / "history.jsonl"
    assert ckpt.exists() and history_path.exists()
    registry, model_cfg = model.load_checkpoint(ckpt)
    assert model_cfg.d_model == 16
    assert not registry.entry("conv1.w").trainable  # FrzFE recorded
    assert not registry.entry("layers.1.ffn.w1").trainable
    assert registry.entry("classifier.w").trainable
    rows = [json.loads(line) for line in history_path.read_text().splitlines()]
    assert rows and {"epoch", "step", "val_micro", "val_macro", "val_weighted"} <= set(rows[0])
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    assert manifest["extra"]["freeze"] == "Frz0-1+FrzFE"
    assert manifest["extra"]["trainable_parameters"] == 314  # head only at this width
    _assert_run_cost(manifest)


def _assert_run_cost(manifest):
    """Every command that writes a run manifest records its wall time, its
    minor page faults, its peak resident memory (null without /proc) and
    its thread setup."""
    extra = manifest["extra"]
    assert extra["gemm_workers"] == model.gemm_workers()
    assert extra["blas_thread_env"] == {name: os.environ.get(name) for name in model.BLAS_THREAD_VARS}
    assert isinstance(extra["wall_s"], float) and extra["wall_s"] > 0
    assert isinstance(extra["minor_faults"], int) and extra["minor_faults"] >= 0
    if Path(cli.PROC_STATUS).exists():
        assert isinstance(extra["vmhwm_mb"], float) and extra["vmhwm_mb"] > 0
    else:
        assert extra["vmhwm_mb"] is None


def test_featurize_and_curate_record_their_cost(pipeline, tmp_path):
    _, data_dir, _, _ = pipeline
    _assert_run_cost(json.loads((data_dir / "run_manifest.json").read_text()))
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_tone_wav(in_dir / "clip.wav", 2.0, 440.0)
    assert main(["featurize", str(in_dir), str(tmp_path / "out")]) == 0
    _assert_run_cost(json.loads((tmp_path / "out" / "run_manifest.json").read_text()))


def test_peak_memory_reads_null_without_proc(monkeypatch, tmp_path):
    """The peak memory reads null without /proc, the minor faults without `resource`."""
    monkeypatch.setattr(cli, "PROC_STATUS", str(tmp_path / "missing"))
    assert cli._run_cost((0.0, 0))["vmhwm_mb"] is None
    (tmp_path / "status").write_text("Name:\tpython\nVmHWM:\t  2048 kB\n")
    monkeypatch.setattr(cli, "PROC_STATUS", str(tmp_path / "status"))
    assert cli._run_cost((0.0, 0))["vmhwm_mb"] == 2.0
    monkeypatch.setattr(cli, "resource", None)
    assert cli._run_cost((0.0, None))["minor_faults"] is None


def test_train_exits_one_when_the_best_epoch_snapshot_cannot_be_written(
        pipeline, tmp_path, capsys, monkeypatch):
    """The first epoch improves and a second may follow, so it writes the
    snapshot; a full disk fails the run before any artifact is written."""
    _, data_dir, _, _ = pipeline

    class FullDisk(SnapshotFileSpy):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(trainer.tempfile, "TemporaryFile", lambda: FullDisk({}))
    cfg_path = tmp_path / "two-epochs.cfg"
    write_config_file(cfg_path, **{**TINY_CFG, "max_steps": "none"})
    out = tmp_path / "run"
    rc = main([
        "train", str(data_dir / "val" / "manifest.csv"),
        str(data_dir / "val" / "manifest.csv"), str(out), "--config", str(cfg_path),
        "--freeze", "UnFrz0-1",
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: OSError: [Errno 28]")
    assert not (out / "checkpoint.bin").exists() and not (out / "history.jsonl").exists()


def test_train_prints_trainable_count(pipeline, tmp_path, capsys):
    root, data_dir, cfg_path, _ = pipeline
    rc = main([
        "train", str(data_dir / "val" / "manifest.csv"),
        str(data_dir / "val" / "manifest.csv"), str(tmp_path / "run2"),
        "--config", str(cfg_path), "--freeze", "Frz0-1+FrzFE", "--seed", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "freeze Frz0-1+FrzFE: trainable parameters 314" in out
    assert "trained" in out


def test_train_malformed_freeze_is_usage_error(pipeline, tmp_path, capsys):
    root, data_dir, cfg_path, _ = pipeline
    rc = main([
        "train", str(data_dir / "train" / "manifest.csv"),
        str(data_dir / "val" / "manifest.csv"), str(tmp_path / "x"),
        "--config", str(cfg_path), "--freeze", "Freeze0-1",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "freeze spec" in err and "UnFrz" in err  # grammar reminder


def test_train_freeze_range_checked_against_model_depth(pipeline, tmp_path, capsys):
    root, data_dir, cfg_path, _ = pipeline
    rc = main([
        "train", str(data_dir / "train" / "manifest.csv"),
        str(data_dir / "val" / "manifest.csv"), str(tmp_path / "x"),
        "--config", str(cfg_path), "--freeze", "Frz0-5",  # model has 2 layers
    ])
    assert rc == 2


def test_train_empty_manifest_is_usage_error(pipeline, tmp_path, capsys):
    root, data_dir, cfg_path, _ = pipeline
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(curation.SPLIT_FIELDS) + "\n", encoding="utf-8")
    rc = main([
        "train", str(empty), str(data_dir / "val" / "manifest.csv"), str(tmp_path / "x"),
        "--config", str(cfg_path), "--freeze", "UnFrz0-1",
    ])
    assert rc == 2
    assert "empty training manifest" in capsys.readouterr().err


def test_train_same_seed_reproduces_checkpoint(pipeline, tmp_path):
    root, data_dir, cfg_path, run_dir = pipeline
    rc = main([
        "train", str(data_dir / "train" / "manifest.csv"),
        str(data_dir / "val" / "manifest.csv"), str(tmp_path / "rerun"),
        "--config", str(cfg_path), "--freeze", "Frz0-1+FrzFE", "--seed", "3",
    ])
    assert rc == 0
    assert (tmp_path / "rerun" / "checkpoint.bin").read_bytes() == (run_dir / "checkpoint.bin").read_bytes()
    assert (tmp_path / "rerun" / "history.jsonl").read_bytes() == (run_dir / "history.jsonl").read_bytes()


def test_loaded_spectrograms_are_in_the_model_compute_dtype(pipeline):
    """Spectrograms are held in model.DTYPE, the dtype the forward casts them
    to, so holding them costs half of float64 and changes no result."""
    root, data_dir, cfg_path, run_dir = pipeline
    _, _, feat_cfg = cli._resolve_configs(str(cfg_path))
    examples = cli._load_examples(str(data_dir / "val" / "manifest.csv"), feat_cfg)
    assert examples
    for values, bits in examples:
        assert values.dtype == model.DTYPE
        assert values.shape[0] == feat_cfg.n_mels
        assert bits.dtype == np.float64


# ---------------------------------------------------------------------------
# lazy examples: a clip is featurized when a batch or a scoring pass needs it


def _write_noise_split(root, n, seed):
    """A split manifest over n pairs of distinct noise clips, one label bit each."""
    rng = np.random.default_rng(seed)
    clips, parts = [], {}
    for i in range(n):
        left, right = f"c{i}a", f"c{i}b"
        parts[left], parts[right] = rng.uniform(-0.5, 0.5, (2, curation.PART_SAMPLES))
        labels = tuple(int(j == i % len(LABELS)) for j in range(len(LABELS)))
        clips.append(curation.MultiStutterClip(left, right, labels, "k", "s0", "ep0"))
    return curation.write_split(root, "split", clips, parts)


def _clip_key(samples) -> str:
    return hashlib.sha256(samples.tobytes()).hexdigest()


def _count_featurized(monkeypatch) -> Counter:
    """Calls to featurizer.featurize, counted per clip."""
    calls = Counter()
    featurize = featurizer.featurize

    def counting(clip, cfg):
        calls[_clip_key(clip.samples)] += 1
        return featurize(clip, cfg)

    monkeypatch.setattr(featurizer, "featurize", counting)
    return calls


def _featurize_counts(manifest, calls) -> list[int]:
    """How often each row of a manifest was featurized, in row order."""
    return [calls[_clip_key(featurizer.load_wav(row["path"]).samples)]
            for row in curation.read_split(manifest)]


@pytest.mark.parametrize("spec", ["UnFrz0-1", "Frz0-0+FrzFE"])
@pytest.mark.parametrize("max_steps", [1, None], ids=["one-step", "three-epochs"])
def test_train_featurizes_a_clip_when_a_batch_needs_it(tmp_path, monkeypatch, spec, max_steps):
    train = _write_noise_split(tmp_path / "train", 8, seed=1)
    val = _write_noise_split(tmp_path / "val", 3, seed=2)
    cfg_path = tmp_path / "c.cfg"
    write_config_file(cfg_path, **{**TINY_CFG, "batch_size": 2, "max_steps": max_steps,
                                   "max_epochs": 3, "early_stop_patience": 3})
    calls = _count_featurized(monkeypatch)
    rc = main(["train", str(train), str(val), str(tmp_path / "run"), "--config", str(cfg_path),
               "--freeze", spec])
    assert rc == 0
    epochs = len((tmp_path / "run" / "history.jsonl").read_text().splitlines())
    assert epochs == (1 if max_steps else 3)
    if max_steps:  # one 2-clip batch
        assert sorted(_featurize_counts(train, calls)) == [0] * 6 + [1] * 2
    else:
        assert _featurize_counts(train, calls) == [epochs] * 8
    # one scoring pass per epoch, or one prefix pass under a frozen prefix
    passes = 1 if spec.endswith("+FrzFE") else epochs
    assert _featurize_counts(val, calls) == [passes] * 3
    assert sum(calls.values()) == sum(_featurize_counts(train, calls)) + 3 * passes


def test_eval_featurizes_each_clip_once(pipeline, tmp_path, monkeypatch):
    _, _, cfg_path, run_dir = pipeline
    test = _write_noise_split(tmp_path / "test", 5, seed=3)
    calls = _count_featurized(monkeypatch)
    rc = main(["eval", str(run_dir / "checkpoint.bin"), str(test), str(tmp_path / "eval"),
               "--config", str(cfg_path)])
    assert rc == 0
    assert _featurize_counts(test, calls) == [1] * 5
    assert sum(calls.values()) == 5


def test_eval_and_a_frozen_prefix_train_score_through_forward_split(
    pipeline, tmp_path, monkeypatch
):
    _, data_dir, cfg_path, run_dir = pipeline
    stops = []
    real = trainer.forward_split

    def counting(examples, registry, model_cfg, stop=None):
        stops.append(stop)
        return real(examples, registry, model_cfg, stop)

    monkeypatch.setattr(trainer, "forward_split", counting)
    rc = main(["train", str(data_dir / "train" / "manifest.csv"),
               str(data_dir / "val" / "manifest.csv"), str(tmp_path / "run"),
               "--config", str(cfg_path), "--freeze", "Frz0-0+FrzFE"])
    assert rc == 0
    epochs = len((tmp_path / "run" / "history.jsonl").read_text().splitlines())
    # the pass through the frozen stem and layer 0, then one scoring pass per epoch
    assert stops == [1] + [None] * epochs
    stops.clear()
    rc = main(["eval", str(run_dir / "checkpoint.bin"), str(data_dir / "test" / "manifest.csv"),
               str(tmp_path / "eval"), "--config", str(cfg_path)])
    assert rc == 0
    assert stops == [None]


def _truncate(wav) -> None:
    wav.write_bytes(wav.read_bytes()[:-100])


def _empty(wav) -> None:
    featurizer.save_wav(wav, np.zeros(0))


@pytest.mark.parametrize("split, damage, error", [
    ("train", _truncate, "CorruptFile"), ("val", _truncate, "CorruptFile"),
    ("train", _empty, "EmptyClip"),
], ids=["truncated-train", "truncated-val", "empty-train"])
def test_train_bad_clip_exits_one_before_any_step(
    pipeline, tmp_path, capsys, monkeypatch, split, damage, error
):
    _, _, cfg_path, _ = pipeline
    manifests = {name: _write_noise_split(tmp_path / name, 8, seed=4) for name in ("train", "val")}
    damage(curation.read_split(manifests[split])[-1]["path"])
    monkeypatch.setattr(trainer, "fit", _fail_if_called)
    out_dir = tmp_path / "run"
    rc = main(["train", str(manifests["train"]), str(manifests["val"]), str(out_dir),
               "--config", str(cfg_path), "--freeze", "UnFrz0-1"])
    assert rc == 1
    assert error in capsys.readouterr().err
    assert not (out_dir / "checkpoint.bin").exists()
    assert not (out_dir / "history.jsonl").exists()


def test_eval_bad_clip_exits_one_and_writes_no_report(pipeline, tmp_path, capsys):
    _, _, cfg_path, run_dir = pipeline
    test = _write_noise_split(tmp_path / "test", 4, seed=5)
    _truncate(curation.read_split(test)[-1]["path"])
    rc = main(["eval", str(run_dir / "checkpoint.bin"), str(test), str(tmp_path / "eval"),
               "--config", str(cfg_path)])
    assert rc == 1
    assert "CorruptFile" in capsys.readouterr().err
    assert not list(tmp_path.rglob("eval_t*"))


# 80 mel bins over 6 s: a 192 kB float32 spectrogram, which dwarfs a manifest row
MEMORY_CFG = {**TINY_CFG, "n_mels": 80, "chunk_length_s": 6.0, "max_positions": 300,
              "batch_size": 2, "max_steps": 1}


@pytest.mark.parametrize("command", ["train", "eval"])
def test_peak_memory_does_not_grow_with_the_manifest(tmp_path, capsys, command):
    cfg_path = tmp_path / "m.cfg"
    write_config_file(cfg_path, **MEMORY_CFG)
    model_cfg, _, feat_cfg = cli._resolve_configs(str(cfg_path))
    ckpt = tmp_path / "init.bin"
    model.save_checkpoint(ckpt, model.build_registry(model_cfg, seed=0), model_cfg)
    seeds = iter(range(1000))

    def run(n):
        # Every run reads a manifest of its own (new paths, new clips), so
        # memory that an earlier run left cached by path or content still
        # counts in the run that reads new clips.
        seed = next(seeds)
        manifest = _write_noise_split(tmp_path / f"n{n}-{seed}", n, seed=seed)
        inputs = {"train": [manifest, manifest], "eval": [ckpt, manifest]}[command]
        options = ["--freeze", "UnFrz0-1"] if command == "train" else []
        argv = [command, *map(str, inputs), str(tmp_path / f"out{seed}"), "--config", str(cfg_path)]

        def call():
            assert main([*argv, *options]) == 0

        return traced_memory(call, runs=1)[1]

    run(8)  # one-off allocations (caches, lazy imports) stay out of the peaks
    # Each size runs twice and keeps its lower peak: now and then the
    # interpreter rebuilds a table of its own (once seen: a 1.92 MB string-keyed
    # dict table, whose older table predates tracing) within one run, while
    # memory that grows with the manifest, or is kept across runs for the
    # clips a run reads, shows in every run.
    peak_8, peak_64 = (min(run(n) for _ in range(2)) for n in (8, 64))
    spectrogram_bytes = feat_cfg.n_mels * feat_cfg.chunk_frames * np.dtype(model.DTYPE).itemsize
    assert peak_64 - peak_8 < spectrogram_bytes, (peak_8, peak_64, spectrogram_bytes)


# ---------------------------------------------------------------------------
# eval


def test_eval_threshold_sweep(pipeline, tmp_path, capsys):
    root, data_dir, cfg_path, run_dir = pipeline
    eval_dir = tmp_path / "eval"
    rc = main([
        "eval", str(run_dir / "checkpoint.bin"), str(data_dir / "test" / "manifest.csv"),
        str(eval_dir), "--config", str(cfg_path), "--threshold", "0.3", "0.5", "0.7",
    ])
    assert rc == 0
    for t in ("0.3", "0.5", "0.7"):
        data = json.loads((eval_dir / f"eval_t{t}.json").read_text())
        assert data["threshold"] == float(t)
        assert data["n_examples"] == 21
        text = (eval_dir / f"eval_t{t}.txt").read_text()
        assert text.splitlines()[1].startswith("Micro F1")
    out = capsys.readouterr().out
    assert out.count("threshold") == 3


def test_eval_threshold_defaults_to_the_config_threshold(pipeline, tmp_path):
    root, data_dir, _, run_dir = pipeline
    cfg_path = tmp_path / "t.cfg"
    write_config_file(cfg_path, **TINY_CFG, threshold=0.3)
    eval_dir = tmp_path / "eval"
    rc = main([
        "eval", str(run_dir / "checkpoint.bin"), str(data_dir / "test" / "manifest.csv"),
        str(eval_dir), "--config", str(cfg_path),
    ])
    assert rc == 0
    assert sorted(p.name for p in eval_dir.glob("eval_t*")) == ["eval_t0.3.json", "eval_t0.3.txt"]
    assert json.loads((eval_dir / "eval_t0.3.json").read_text())["threshold"] == 0.3
    manifest = json.loads((eval_dir / "run_manifest.json").read_text())
    assert manifest["extra"]["thresholds"] == [0.3]
    _assert_run_cost(manifest)


@pytest.mark.parametrize("threshold", ["nan", "2", "-1"])
def test_eval_rejects_thresholds_outside_unit_interval(pipeline, tmp_path, capsys, threshold):
    root, data_dir, cfg_path, run_dir = pipeline
    eval_dir = tmp_path / "eval"
    rc = main([
        "eval", str(run_dir / "checkpoint.bin"), str(data_dir / "test" / "manifest.csv"),
        str(eval_dir), "--config", str(cfg_path), "--threshold", "0.5", threshold,
    ])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err
    assert not eval_dir.exists()


def _fail_if_called(*args, **kwargs):
    pytest.fail("read before the usage check ran")


@pytest.mark.parametrize("command", ["curate", "train"])
def test_negative_seed_is_usage_error_before_any_wav_is_read(
    pipeline, tmp_path, capsys, monkeypatch, command
):
    root, data_dir, cfg_path, _ = pipeline
    monkeypatch.setattr(featurizer, "load_wav", _fail_if_called)
    args = {
        "curate": [str(root / "inventory.csv"), str(root / "audio"), str(tmp_path / "out"),
                   "--plan", "SEP-28k-E", "--groups", str(root / "groups.json")],
        "train": [str(data_dir / "train" / "manifest.csv"), str(data_dir / "val" / "manifest.csv"),
                  str(tmp_path / "out"), "--config", str(cfg_path)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pair", [("0.5", "0.50"), ("0.3", "0.30000001")])
def test_eval_rejects_thresholds_that_print_alike(pipeline, tmp_path, capsys, monkeypatch, pair):
    root, data_dir, cfg_path, run_dir = pipeline
    monkeypatch.setattr(model, "load_checkpoint", _fail_if_called)
    rc = main([
        "eval", str(run_dir / "checkpoint.bin"), str(data_dir / "test" / "manifest.csv"),
        str(tmp_path / "eval"), "--config", str(cfg_path), "--threshold", *pair,
    ])
    assert rc == 2
    assert "--threshold:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("eval_t*"))


@pytest.mark.parametrize(
    "command, keys, reason",
    [("train", {"chunk_length_s": 3.01}, "even"), ("train", {"max_positions": 100}, "max_positions"),
     ("eval", {"chunk_length_s": 3.01}, "even"), ("eval", {"chunk_length_s": 6.0}, "max_positions")],
    ids=["train-odd-frames", "train-150-positions", "eval-odd-frames", "eval-300-positions"],
)
def test_frame_count_the_model_cannot_take_is_usage_error(
    pipeline, tmp_path, capsys, monkeypatch, command, keys, reason
):
    root, data_dir, _, run_dir = pipeline
    cfg_path = tmp_path / "c.cfg"
    write_config_file(cfg_path, **{**TINY_CFG, **keys})
    monkeypatch.setattr(featurizer, "load_wav", _fail_if_called)
    out_dir = tmp_path / "out"
    inputs, options = {
        "train": ([data_dir / "train" / "manifest.csv", data_dir / "val" / "manifest.csv"],
                  ["--freeze", "UnFrz0-1"]),
        "eval": ([run_dir / "checkpoint.bin", data_dir / "test" / "manifest.csv"], []),
    }[command]
    rc = main([command, *map(str, inputs), str(out_dir), "--config", str(cfg_path), *options])
    assert rc == 2
    assert reason in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_with_more_mel_bins_than_fft_bins_is_usage_error(pipeline, tmp_path, capsys,
                                                                monkeypatch):
    """n_mels past the FFT's 201 bins used to size a 1.09 PiB stem weight
    after every WAV had been read."""
    _, data_dir, _, _ = pipeline
    cfg_path = tmp_path / "c.cfg"
    write_config_file(cfg_path, **{**TINY_CFG, "n_mels": 99999999999})
    monkeypatch.setattr(featurizer, "load_wav", _fail_if_called)
    out_dir = tmp_path / "out"
    rc = main(["train", str(data_dir / "train" / "manifest.csv"),
               str(data_dir / "val" / "manifest.csv"), str(out_dir), "--config", str(cfg_path)])
    assert rc == 2
    assert "n_mels" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("chunk", [0.02, 1e-300], ids=["320-samples", "0-samples"])
@pytest.mark.parametrize("command", ["featurize", "train", "eval"])
def test_chunk_shorter_than_the_fft_window_is_usage_error(
    pipeline, tmp_path, capsys, monkeypatch, command, chunk
):
    root, data_dir, _, run_dir = pipeline
    cfg_path = tmp_path / "c.cfg"
    write_config_file(cfg_path, **{**TINY_CFG, "chunk_length_s": chunk})
    monkeypatch.setattr(featurizer, "load_wav", _fail_if_called)
    out_dir = tmp_path / "out"
    inputs, options = {
        "featurize": ([data_dir / "train" / "audio"], []),
        "train": ([data_dir / "train" / "manifest.csv", data_dir / "val" / "manifest.csv"],
                  ["--freeze", "UnFrz0-1"]),
        "eval": ([run_dir / "checkpoint.bin", data_dir / "test" / "manifest.csv"], []),
    }[command]
    rc = main([command, *map(str, inputs), str(out_dir), "--config", str(cfg_path), *options])
    assert rc == 2
    assert "n_fft=400 exceeds chunk" in capsys.readouterr().err
    assert not out_dir.exists()


def test_time_command_times_eval_in_both_checkouts(pipeline):
    """tools/time_command.py: 2 pairs of a tiny eval, one checkout on both
    sides, alternating which runs first, each run's time, own peak memory and
    minor faults; every report has the same bytes."""
    root, data_dir, cfg_path, run_dir = pipeline
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "time_command.py"), str(repo), str(repo),
         "--pairs", "2", "--", "eval", str(run_dir / "checkpoint.bin"),
         str(data_dir / "test" / "manifest.csv"), "{out}", "--config", str(cfg_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair 1 (parent first)") and lines[1].startswith("pair 2 (change first)")
    for side, line in zip(("parent", "change"), lines[2:4]):
        assert re.fullmatch(rf"{side}: median [\d.]+ s \(quartiles [\d.]+ / [\d.]+\), "
                            r"won [0-2] of 2 pairs; VmHWM [\d.]+ MB, won [0-2] of 2 pairs; "
                            r"minor faults [\d,]+, won [0-2] of 2 pairs", line), line
    assert lines[4] == "outputs: the same bytes on both sides (2 files besides run_manifest.json)"


def test_time_command_reports_a_missing_peak_as_na(monkeypatch):
    """Without /proc a run reads no VmHWM: its median prints n/a, and a pair
    without both peaks is won by neither side."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))  # time_command imports bench_pairs
    tool = load_tool(tools / "time_command.py")
    assert tool.megabytes([None, None]) == "n/a"
    assert tool.megabytes([512.0, 640.0, 600.0]) == "600.0 MB"
    peaks = {"parent": [600.0, None, 610.0], "change": [550.0, 540.0, 610.0]}
    assert tool.pairs_won(peaks) == {"parent": 0, "change": 1}


def test_time_command_sets_only_pythonpath_and_blas_threads_for_the_timed_child(monkeypatch, tmp_path):
    """The timed child runs in the tool's own environment plus the checkout's
    src as PYTHONPATH and one BLAS thread, as bench/run.py sets it, with
    nothing else added: glibc's allocator keeps its defaults, as in a
    benchmark run."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))  # time_command imports bench_pairs
    tool = load_tool(tools / "time_command.py")
    seen = {}

    def stopped(argv, env, **kwargs):
        seen.update(env)
        return subprocess.CompletedProcess(argv, 1, "", "stopped before the command ran")

    monkeypatch.setattr(tool.subprocess, "run", stopped)
    with pytest.raises(tool.RunFailed):
        tool.run_once(tmp_path, ["eval"], tmp_path / "work")
    assert seen == dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def test_time_command_reads_the_cost_from_the_run_manifest(monkeypatch, tmp_path):
    """run_once returns the wall time, VmHWM and minor faults the command
    wrote to its run manifest, and the digests of its other outputs; a
    manifest without them fails the run."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    monkeypatch.syspath_prepend(str(tools))  # time_command imports bench_pairs
    tool = load_tool(tools / "time_command.py")
    cost = {"wall_s": 0.5, "vmhwm_mb": 133.5, "minor_faults": 31_000}

    def command(argv, **kwargs):
        out = Path(argv[-1])
        out.mkdir()
        (out / "report.txt").write_text("scores\n")
        (out / "run_manifest.json").write_text(json.dumps({"extra": {"thresholds": [0.5], **cost}}))
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(tool.subprocess, "run", command)
    took, peak, faults, digests = tool.run_once(tmp_path, ["eval", "{out}"], tmp_path / "a")
    assert (took, peak, faults) == (0.5, 133.5, 31_000)
    assert digests == {"report.txt": hashlib.sha256(b"scores\n").hexdigest()}
    del cost["minor_faults"]
    with pytest.raises(tool.RunFailed, match="lacks wall_s"):
        tool.run_once(tmp_path, ["eval", "{out}"], tmp_path / "b")


def test_eval_mel_width_mismatch_is_usage_error(pipeline, tmp_path, capsys):
    root, data_dir, _, run_dir = pipeline
    rc = main([
        "eval", str(run_dir / "checkpoint.bin"), str(data_dir / "test" / "manifest.csv"),
        str(tmp_path / "x"),  # no --config: defaults to 80 mel bins
    ])
    assert rc == 2
    assert "mel bins" in capsys.readouterr().err


def test_eval_empty_manifest_is_usage_error(pipeline, tmp_path, capsys):
    root, data_dir, cfg_path, run_dir = pipeline
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(curation.SPLIT_FIELDS) + "\n", encoding="utf-8")
    rc = main([
        "eval", str(run_dir / "checkpoint.bin"), str(empty), str(tmp_path / "x"),
        "--config", str(cfg_path),
    ])
    assert rc == 2


def test_eval_checkpoint_outside_config_layout_exits_one(pipeline, tmp_path, capsys):
    root, data_dir, cfg_path, run_dir = pipeline
    renamed = tmp_path / "renamed.bin"
    edit_checkpoint_tensors(
        run_dir / "checkpoint.bin", renamed, lambda t: t[0].update(name="conv1.weight")
    )
    rc = main([
        "eval", str(renamed), str(data_dir / "test" / "manifest.csv"), str(tmp_path / "x"),
        "--config", str(cfg_path),
    ])
    assert rc == 1
    assert "ShapeMismatch" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_exits_one(pipeline, tmp_path, capsys):
    root, data_dir, cfg_path, run_dir = pipeline
    padded = tmp_path / "padded.bin"
    padded.write_bytes((run_dir / "checkpoint.bin").read_bytes() + b"\0" * 4)
    rc = main([
        "eval", str(padded), str(data_dir / "test" / "manifest.csv"), str(tmp_path / "x"),
        "--config", str(cfg_path),
    ])
    assert rc == 1
    assert "CorruptCheckpoint" in capsys.readouterr().err


def test_eval_manifest_without_path_column_exits_one(pipeline, tmp_path, capsys):
    _, data_dir, cfg_path, run_dir = pipeline
    lines = (data_dir / "test" / "manifest.csv").read_text(encoding="utf-8").splitlines()
    no_path = tmp_path / "no_path.csv"
    no_path.write_text("\n".join(line.split(",", 1)[1] for line in lines) + "\n", encoding="utf-8")
    rc = main([
        "eval", str(run_dir / "checkpoint.bin"), str(no_path), str(tmp_path / "x"),
        "--config", str(cfg_path),
    ])
    assert rc == 1
    assert "ValueError" in capsys.readouterr().err


def test_curate_short_inventory_row_exits_one(pipeline, tmp_path, capsys):
    root, _, _, _ = pipeline
    lines = (root / "inventory.csv").read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "inventory.csv"
    bad.write_text("\n".join([*lines, lines[1].rsplit(",", 2)[0]]) + "\n", encoding="utf-8")
    rc = main([
        "curate", str(bad), str(root / "audio"), str(tmp_path / "x"),
        "--plan", "SEP-28k-E", "--groups", str(root / "groups.json"),
    ])
    assert rc == 1
    assert "too few fields" in capsys.readouterr().err


def test_programming_errors_propagate_out_of_main(monkeypatch):
    def broken(path):
        raise TypeError("bug")

    monkeypatch.setattr(curation, "read_inventory", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["curate", "inv.csv", "audio", "out", "--plan", "SEP-28k-E", "--groups", "g.json"])


def _library_error_types() -> list[type]:
    modules = [importlib.import_module(f"stutterkit.{m.name}")
               for m in pkgutil.iter_modules(stutterkit.__path__) if not m.name.startswith("_")]
    found = {obj for mod in modules for obj in vars(mod).values()
             if isinstance(obj, type) and issubclass(obj, BaseException)
             and obj.__module__ == mod.__name__}
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


EXIT_TWO = {"UsageError", "FreezeSpecError", "ConfigMismatch", "EmptyDataset"}


@pytest.mark.parametrize("error", [*_library_error_types(), ValueError, OSError],
                         ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_every_error_type_exits_with_its_code(monkeypatch, capsys, error):
    def raise_it(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_params", raise_it)
    assert main(["params"]) == (2 if error.__name__ in EXIT_TWO else 1)
    assert "boom" in capsys.readouterr().err


def test_eval_perfect_memorizer_scores_micro_one(tmp_path, capsys):
    # a checkpoint whose bias nails the only label present must score 1.0
    cfg_path = tmp_path / "tiny.cfg"
    write_config_file(cfg_path, **TINY_CFG)
    model_cfg = model.ModelConfig(
        d_model=16, n_layers=2, n_heads=2, d_ffn=32, n_mels=12,
        max_positions=256, d_proj=12,
    )
    registry = model.build_registry(model_cfg, seed=0)
    for name in registry.names():
        registry[name][:] = 0.0
    registry["classifier.b"][:] = np.array([-10.0] * 5 + [10.0])
    ckpt = tmp_path / "memorizer.bin"
    model.save_checkpoint(ckpt, registry, model_cfg)

    clips = []
    audio = {}
    for i in range(2):
        clips.append(
            curation.MultiStutterClip(
                left_clip_id=f"n{i}a", right_clip_id=f"n{i}b",
                labels=(0, 0, 0, 0, 0, 1),
                combination_key=curation.NO_STUTTER_KEY,
                speaker_id="s0", episode_id="ep0",
            )
        )
        for side in "ab":
            audio[f"n{i}{side}"] = np.zeros(curation.PART_SAMPLES)
    manifest = curation.write_split(tmp_path, "test", clips, audio)
    eval_dir = tmp_path / "eval"
    rc = main(["eval", str(ckpt), str(manifest), str(eval_dir), "--config", str(cfg_path)])
    assert rc == 0
    data = json.loads((eval_dir / "eval_t0.5.json").read_text())
    assert data["micro_f1"] == 1.0
    assert data["per_class"][5]["f1"] == 1.0
    assert data["per_class"][0]["f1"] == 0.0  # absent class scores 0, not NaN


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "stutterkit" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    """Every command pays the import of stutterkit.cli; scipy alone used to
    cost about half a second of it."""
    package_root = str(Path(stutterkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, stutterkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_starts_no_thread():
    """The model's worker thread, and the executor module it comes from, are
    loaded on its first product, not at import: the import every command
    pays starts no thread. The import runs with the worker rule on."""
    package_root = str(Path(stutterkit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, threading; before = threading.active_count(); import stutterkit.cli; "
            "print(before, threading.active_count(), 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    before, after, executor_loaded = out.split()
    assert after == before and executor_loaded == "False"
