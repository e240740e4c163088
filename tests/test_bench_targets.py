"""The benchmark looks up program functions by name (`bench/spans.py`
TARGETS for tracing, `model.conv_stem` and `model.encoder_layer_forward`
for the per-layer probe); a name that no longer resolves shows there only
as `trace.missing_functions`. This checks every lookup site resolves, and
that the tracer's spans still nest when the model's worker thread runs."""

import csv
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

from helpers import write_config_file, write_tone_wav
from stutterkit import cli, model
from stutterkit.curation import SPLIT_FIELDS
from stutterkit.labels import LABELS

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PROBE_SITES = ("model.conv_stem", "model.encoder_layer_forward")


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_benchmark_lookup_site_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    sites = [site for _, target_sites, _ in spans.TARGETS for site in target_sites]
    assert sites
    missing = []
    for site in [*sites, *PROBE_SITES]:
        module_name, attr = site.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"stutterkit.{module_name}"), attr, None)):
            missing.append(site)
    assert missing == []


def _write_split(root: Path, name: str, n_clips: int) -> Path:
    out = root / name
    out.mkdir()
    with open(out / "manifest.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(SPLIT_FIELDS)
        for i in range(n_clips):
            write_tone_wav(out / f"{i}.wav", 1.0, 200.0 + 50 * i)
            bits = [int(j == i % len(LABELS)) for j in range(len(LABELS))]
            writer.writerow([f"{i}.wav", *bits, "k", "spk"])
    return out / "manifest.csv"


def test_the_benchmark_tracer_nests_with_the_worker_on(monkeypatch, tmp_path):
    """A traced tiny `train` with the worker forced on: every traced call runs
    on the main thread, so the one span stack of bench/spans.py nests."""
    spans = _load_spans(monkeypatch)
    monkeypatch.setattr(model, "_use_worker", True)
    monkeypatch.setattr(model, "_pool", None)
    for _, sites, _ in spans.TARGETS:  # install() rebinds these; put them back afterwards
        for site in sites:
            module_name, attr = site.rsplit(".", 1)
            module = importlib.import_module(f"stutterkit.{module_name}")
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = spans.Tracer("train")
    threads = []
    open_span = tracer.open
    tracer.open = lambda name: threads.append(threading.current_thread()) or open_span(name)
    tracer.install()
    cfg_path = tmp_path / "tiny.cfg"
    write_config_file(cfg_path, d_model=16, n_layers=2, n_heads=4, d_ffn=32, n_mels=12,
                      max_positions=64, d_proj=8, chunk_length_s=1.0, batch_size=2,
                      max_epochs=2, max_steps=2)
    root = tracer.open("cli.train")
    rc = cli.main(["train", str(_write_split(tmp_path, "train", 2)),
                   str(_write_split(tmp_path, "val", 2)), str(tmp_path / "run"),
                   "--config", str(cfg_path), "--freeze", "UnFrz0-1", "--seed", "1"])
    tracer.close(root)
    assert rc == 0 and tracer.missing == []
    assert model._pool is not None  # the worker started
    names = {s["name"] for s in tracer.spans}
    assert {"model.forward_with_cache", "model.backward_pass", "trainer.evaluate_split"} <= names
    assert spans.check_nesting(tracer.spans, spans.self_times(tracer.spans)) == []
    assert len(threads) == len(tracer.spans)
    assert all(t is threading.main_thread() for t in threads)
