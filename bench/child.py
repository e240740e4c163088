"""Run one stutterkit command in a fresh interpreter and report what it cost.

    python bench/child.py RESULT_JSON SRC_DIR RUN_ID TRACE -- ARGV...
    python bench/child.py RESULT_JSON SRC_DIR RUN_ID probe -- WAV CONFIG_JSON

The command goes through `stutterkit.cli.main(argv)`, the same entry point
as the console script, so every run pays the cold-process cost a CLI user
pays. RESULT_JSON receives the exit code, the command's wall time, the
moment the import of `stutterkit.cli` finished (CLOCK_MONOTONIC, which the
parent compares with the moment it started this process), this process's
own peak RSS and, with TRACE=1, the spans recorded around the program's
public functions.

The `probe` mode times the model's forward pass layer by layer through the
public `model.conv_stem` and `model.encoder_layer_forward` functions.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_command(argv: list[str], run_id: str, trace: bool) -> dict:
    from stutterkit import cli

    imported_at = _now()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer(run_id)
        tracer.install()
        root = tracer.open(f"cli.{argv[0]}")
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    wall = time.perf_counter() - start
    out = {"rc": rc, "cmd_s": wall, "imported_at": imported_at}
    if tracer:
        tracer.close(root)
        out.update(spans=tracer.spans, counters=dict(tracer.counters), missing=tracer.missing)
    return out


PROBE_REPEATS = 3


def run_probe(wav: str, config: dict) -> dict:
    """p50 forward time of the conv stem and of each encoder layer."""
    from dataclasses import fields

    from stutterkit import featurizer, model

    imported_at = _now()
    missing = [f"model.{f}" for f in ("conv_stem", "encoder_layer_forward") if not hasattr(model, f)]
    if missing:
        return {"rc": 0, "imported_at": imported_at, "probe": {}, "missing": missing}

    def build(cls):
        return cls(**{f.name: config[f.name] for f in fields(cls) if f.name in config})

    model_cfg, feat_cfg = build(model.ModelConfig), build(featurizer.FeaturizerConfig)
    registry = model.build_registry(model_cfg, seed=0)
    values = featurizer.featurize(featurizer.load_wav(wav), feat_cfg).values
    times: dict[str, list[float]] = {}
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        h = model.conv_stem(values, registry, model_cfg)
        times.setdefault("model.conv_stem.p50_s", []).append(time.perf_counter() - t)
        h = h + registry["embed_positions"][: h.shape[0]]
        for k in range(model_cfg.n_layers):
            t = time.perf_counter()
            h = model.encoder_layer_forward(h, registry, k, model_cfg)
            times.setdefault(f"model.encoder_layer_forward.{k}.p50_s", []).append(
                time.perf_counter() - t)
    probe = {name: statistics.median(ts) for name, ts in times.items()}
    return {"rc": 0, "imported_at": imported_at, "probe": probe, "missing": []}


def main() -> None:
    result_path, src, run_id, mode, sep, *rest = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT SRC RUN_ID TRACE|probe -- ARGV...")
    sys.path.insert(0, src)
    if mode == "probe":
        out = run_probe(rest[0], json.loads(rest[1]))
    else:
        out = run_command(rest, run_id, trace=mode == "1")
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
