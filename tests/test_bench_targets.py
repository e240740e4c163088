"""The benchmark looks up program functions by name (`bench/spans.py`
TARGETS for tracing, `model.conv_stem` and `model.encoder_layer_forward`
for the per-layer probe); a name that no longer resolves shows there only
as `trace.missing_functions`. This checks every lookup site resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PROBE_SITES = ("model.conv_stem", "model.encoder_layer_forward")


def test_every_benchmark_lookup_site_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [site for _, target_sites, _ in spans.TARGETS for site in target_sites]
    assert sites
    missing = []
    for site in [*sites, *PROBE_SITES]:
        module_name, attr = site.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"stutterkit.{module_name}"), attr, None)):
            missing.append(site)
    assert missing == []
