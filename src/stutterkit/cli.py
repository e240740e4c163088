"""Command-line interface: featurize / curate / train / eval / params.

Exit codes: 0 success, 1 runtime failure (an OSError, or a ValueError: every
bad-data error the library raises is one), 2 usage or configuration error
(USAGE_ERRORS, caught first). Every run that writes artifacts also writes a
run_manifest.json recording the command, resolved-config digest, seed, input
paths, a sha256 digest per output file, and what the command cost from after
argument parsing to after that hashing (_run_cost). Timestamps and costs
appear only in the run manifest, so reruns with the same inputs and seed are
byte-identical everywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import typing
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import curation, featurizer, model, trainer
from .evaluator import check_threshold, f1_report, predict
from .headers import write_json

try:
    import resource
except ImportError:  # Windows
    resource = None


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


RUNTIME_ERRORS = (OSError, ValueError)

USAGE_ERRORS = (
    UsageError,
    model.FreezeSpecError,
    featurizer.ConfigMismatch,
    trainer.EmptyDataset,
)


# ---------------------------------------------------------------------------
# Config plumbing: plain key=value files feeding the three config dataclasses


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8: {e}") from None
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise UsageError(f"{path}: {key} is set twice, on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        out[key] = value
    return out


_CONFIG_TYPES = {
    cls: typing.get_type_hints(cls)
    for cls in (model.ModelConfig, trainer.TrainConfig, featurizer.FeaturizerConfig)
}

_KNOWN_KEYS = set().union(*_CONFIG_TYPES.values())


def _parse_value(key: str, raw: str, typ):
    """A config string parsed as its field's type; UsageError if it does not parse."""
    args = typing.get_args(typ)
    if type(None) in args:  # `T | None`
        if raw.lower() in ("none", ""):
            return None
        typ = args[0]
    try:
        return typ(raw)
    except ValueError:
        raise UsageError(f"{key}: expected {typ.__name__}, got {raw!r}") from None


def _coerce(cls, overrides: dict[str, str]):
    """Build a config dataclass from its defaults plus string overrides."""
    types = _CONFIG_TYPES[cls]
    kwargs = {
        key: _parse_value(key, raw, types[key]) for key, raw in overrides.items() if key in types
    }
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _resolve_configs(config_path: str | None):
    overrides = _read_config_file(config_path) if config_path else {}
    unknown = set(overrides) - _KNOWN_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    model_cfg = _coerce(model.ModelConfig, overrides)
    train_cfg = _coerce(trainer.TrainConfig, overrides)
    feat_cfg = _coerce(featurizer.FeaturizerConfig, overrides)
    return model_cfg, train_cfg, feat_cfg


def _config_digest(model_cfg, train_cfg, feat_cfg) -> str:
    resolved = {**asdict(feat_cfg), **asdict(train_cfg), **asdict(model_cfg)}
    text = "\n".join(f"{k}={resolved[k]}" for k in sorted(resolved))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Run manifests


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_run_manifest(
    out_dir: Path,
    command: str,
    config_digest: str,
    inputs: list[Path],
    outputs: list[Path],
    seed: int | None,
    started: tuple[float, int | None],
    extra: dict | None = None,
) -> None:
    write_json(out_dir / "run_manifest.json", {
        "command": command,
        "config_digest": config_digest,
        "inputs": [str(p) for p in inputs],
        "outputs": [{"path": str(p.relative_to(out_dir)), "sha256": _sha256_file(p)}
                    for p in sorted(outputs)],
        "seed": seed,
        "timestamp": time.time(),
        "version": __version__,
        "extra": {**(extra or {}), **_run_cost(started)},  # after the outputs are hashed
    })


PROC_STATUS = "/proc/self/status"


def _vmhwm_mb() -> float | None:
    """This process's peak resident memory so far (VmHWM) in MB, or None
    where PROC_STATUS cannot be read."""
    try:
        with open(PROC_STATUS, encoding="ascii") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return None


def _minor_faults() -> int | None:
    """The minor page faults this process has taken, or None without `resource`."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _run_cost(started: tuple[float, int | None]) -> dict:
    """Wall seconds and minor faults since main's `started` reading, VmHWM in
    MB and the thread setup; None where the platform gives no number."""
    wall_s, faults = time.perf_counter() - started[0], _minor_faults()
    return {"wall_s": wall_s, "minor_faults": None if faults is None else faults - started[1],
            "vmhwm_mb": _vmhwm_mb(), "gemm_workers": model.gemm_workers(),
            "blas_thread_env": {name: os.environ.get(name) for name in model.BLAS_THREAD_VARS}}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_featurize(args) -> int:
    model_cfg, train_cfg, feat_cfg = _resolve_configs(args.config)
    _check_frame_count(feat_cfg, model_cfg)
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out_dir)
    wavs = sorted(in_dir.glob("*.wav"))
    if not wavs:
        raise UsageError(f"no WAV files in {in_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    skipped: list[dict] = []
    for wav in wavs:
        try:
            clip = featurizer.load_wav(wav)
            spec = featurizer.featurize(clip, feat_cfg)
        except (featurizer.UnsupportedFormat, featurizer.CorruptFile, featurizer.EmptyClip) as e:
            if not args.skip_bad:
                raise
            print(f"skipping {wav.name}: {e}", file=sys.stderr)
            skipped.append({"path": str(wav), "error": str(e)})
            continue
        dump = out_dir / (wav.stem + ".melspec")
        featurizer.dump_spectrogram(dump, spec, feat_cfg)
        outputs.append(dump)
    _write_run_manifest(
        out_dir, "featurize", _config_digest(model_cfg, train_cfg, feat_cfg),
        wavs, outputs, seed=None, started=args.started,
        extra={"skipped": skipped} if skipped else None,
    )
    print(f"featurized {len(outputs)} of {len(wavs)} clips -> {out_dir}")
    return 0


def _read_speaker_groups(path: str) -> dict[str, list[str]]:
    with open(path, encoding="utf-8-sig") as f:
        try:
            groups = json.load(f)
        except ValueError as e:  # not JSON, or not UTF-8
            raise UsageError(f"{path}: not JSON: {e}") from None
    if not isinstance(groups, dict) or not all(
        isinstance(v, list) for v in groups.values()
    ):
        raise UsageError(f"{path}: expected a JSON object mapping group name to speaker list")
    return {str(k): [str(s) for s in v] for k, v in groups.items()}


def cmd_curate(args) -> int:
    out_dir = Path(args.out_dir)
    audio_dir = Path(args.audio_dir)
    records = curation.read_inventory(args.inventory)
    groups = _read_speaker_groups(args.groups)
    kept, rejections = curation.clean(records)
    parts = {
        r.clip_id: curation.pair_part(featurizer.load_wav(audio_dir / f"{r.clip_id}.wav"))
        for r in kept
    }
    pairs = curation.pair(kept)
    balanced = curation.balance_no_stutter(pairs, seed=args.seed)
    plan = curation.PLANS[args.plan]
    manifests = curation.build_splits(balanced, groups, plan)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    for split_name, clips in manifests.items():
        manifest_path = curation.write_split(out_dir, split_name, clips, parts)
        outputs.append(manifest_path)
        outputs.extend(sorted((manifest_path.parent / "audio").glob("*.wav")))
    counts_path = out_dir / "counts.json"
    write_json(counts_path, curation.combination_count_report(manifests))
    rejections_path = out_dir / "rejections.json"
    write_json(rejections_path, rejections)
    outputs += [counts_path, rejections_path]
    _write_run_manifest(
        out_dir, "curate", "-", [Path(args.inventory), audio_dir], outputs,
        seed=args.seed, started=args.started,
        extra={"plan": plan.name, "kept": len(kept), "pairs": len(pairs),
               "after_balance": len(balanced)},
    )
    sizes = {k: len(v) for k, v in manifests.items()}
    print(f"plan {plan.name}: kept {len(kept)} clips, {len(balanced)} pairs, splits {sizes}")
    return 0


class _Examples(Sequence):
    """A split manifest's rows as (values, label bits) examples. A clip is
    loaded and featurized when it is indexed, so only the examples in use
    are held; values are in model.DTYPE, the dtype train and eval compute in."""

    def __init__(self, rows: list[dict], feat_cfg) -> None:
        self.rows = rows
        self.feat_cfg = feat_cfg

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i) -> tuple[np.ndarray, np.ndarray]:
        row = self.rows[i]
        spec = featurizer.featurize(featurizer.load_wav(row["path"]), self.feat_cfg)
        return spec.values.astype(model.DTYPE), np.asarray(row["labels"], dtype=np.float64)


def _load_examples(manifest_path: str, feat_cfg) -> _Examples:
    return _Examples(curation.read_split(manifest_path), feat_cfg)


def _check_clips(examples: _Examples) -> None:
    """Read every clip once, so one that cannot be featurized fails before any step."""
    for row in examples.rows:
        if not featurizer.load_wav(row["path"]).samples.size:
            raise featurizer.EmptyClip(f"{row['path']}: no samples")


def _check_frame_count(feat_cfg, model_cfg) -> None:
    """UsageError unless the model takes the featurizer's frame count."""
    try:
        model.check_frame_count(feat_cfg.chunk_frames, model_cfg)
    except model.ShapeMismatch as e:
        raise UsageError(
            f"chunk_length_s={feat_cfg.chunk_length_s:g} makes {feat_cfg.chunk_frames}-frame clips: {e}"
        ) from e


def cmd_train(args) -> int:
    model_cfg, train_cfg, feat_cfg = _resolve_configs(args.config)
    freeze = model.parse_freeze_spec(args.freeze, model_cfg.n_layers)
    _check_frame_count(feat_cfg, model_cfg)
    n_trainable = model.trainable_parameter_count(model_cfg, freeze)
    print(f"freeze {args.freeze}: trainable parameters {n_trainable:,}")
    train_examples = _load_examples(args.train_manifest, feat_cfg)
    val_examples = _load_examples(args.val_manifest, feat_cfg)
    if not train_examples:
        raise UsageError(f"empty training manifest {args.train_manifest}")
    if not val_examples:
        raise UsageError(f"empty validation manifest {args.val_manifest}")
    _check_clips(train_examples)
    _check_clips(val_examples)
    init_seed, shuffle_seed = np.random.SeedSequence(args.seed).spawn(2)
    registry = model.apply_freeze(model.build_registry(model_cfg, seed=init_seed), freeze)
    registry, history = trainer.fit(
        train_examples, val_examples, registry, model_cfg, train_cfg, seed=shuffle_seed
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.bin"
    model.save_checkpoint(ckpt_path, registry, model_cfg)
    history_path = out_dir / "history.jsonl"
    trainer.write_history(history_path, history)
    _write_run_manifest(
        out_dir, "train", _config_digest(model_cfg, train_cfg, feat_cfg),
        [Path(args.train_manifest), Path(args.val_manifest)],
        [ckpt_path, history_path], seed=args.seed, started=args.started,
        extra={"freeze": args.freeze, "trainable_parameters": n_trainable,
               "epochs_run": len(history)},
    )
    last = history[-1]
    print(
        f"trained {len(history)} epochs ({last['step']} steps); "
        f"best macro_f1 score {max(h['score'] for h in history):.6f}"
    )
    return 0


def cmd_eval(args) -> int:
    _, train_cfg, feat_cfg = _resolve_configs(args.config)
    thresholds = args.threshold or [train_cfg.threshold]
    try:
        for threshold in thresholds:
            check_threshold(threshold)
        names = [f"{t:g}" for t in thresholds]
        if len(set(names)) < len(names):
            raise ValueError(f"thresholds {names} would write one report twice")
    except ValueError as e:
        raise UsageError(f"--threshold: {e}") from e
    registry, model_cfg = model.load_checkpoint(args.checkpoint)
    if model_cfg.n_mels != feat_cfg.n_mels:
        raise UsageError(
            f"checkpoint expects {model_cfg.n_mels} mel bins, featurizer config has {feat_cfg.n_mels}"
        )
    _check_frame_count(feat_cfg, model_cfg)
    examples = _load_examples(args.test_manifest, feat_cfg)
    if not examples:
        raise UsageError(f"empty test manifest {args.test_manifest}")
    logits_list = [z for z, _ in trainer.forward_split(examples, registry, model_cfg)]
    targets = [row["labels"] for row in examples.rows]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    for threshold in thresholds:
        preds = [predict(z, threshold) for z in logits_list]
        report = f1_report(preds, targets, threshold=threshold)
        stem = f"eval_t{threshold:g}"
        json_path = out_dir / f"{stem}.json"
        write_json(json_path, report.to_dict())
        text_path = out_dir / f"{stem}.txt"
        text_path.write_text(report.to_text() + "\n", encoding="utf-8")
        outputs += [json_path, text_path]
        print(f"threshold {threshold:g}")
        print(report.to_text())
    _write_run_manifest(
        out_dir, "eval", _config_digest(model_cfg, train_cfg, feat_cfg),
        [Path(args.checkpoint), Path(args.test_manifest)], outputs, seed=None,
        started=args.started, extra={"thresholds": thresholds},
    )
    return 0


PARAM_AUDIT_SPECS = (
    "UnFrz0-5",
    "UnFrz0-5+FrzFE",
    "Frz0-2",
    "Frz0-2+FrzFE",
    "Frz0-3+FrzFE",
    "Frz0-4+FrzFE",
    "Frz0-5+FrzFE",
)


def cmd_params(args) -> int:
    cfg = model.ModelConfig()
    specs = [args.freeze] if args.freeze else list(PARAM_AUDIT_SPECS)
    rows = []
    for spec in specs:
        freeze = model.parse_freeze_spec(spec, cfg.n_layers)
        n = model.trainable_parameter_count(cfg, freeze)
        rows.append((spec, n, n / 1e6))
    name_w = max(len(r[0]) for r in rows)
    print(f"{'config':{name_w}}  {'trainable':>12}  {'millions':>8}")
    for spec, n, millions in rows:
        print(f"{spec:{name_w}}  {n:>12,}  {millions:>8.2f}")
    total = model.trainable_parameter_count(cfg, model.FreezeConfig())
    print(f"{'(total)':{name_w}}  {total:>12,}  {total / 1e6:>8.2f}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's seeding requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stutterkit",
        description="Multi-stutter curation, featurization, training, and evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="WAV directory -> log-Mel spectrogram dumps")
    p.add_argument("in_dir")
    p.add_argument("out_dir")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--skip-bad", action="store_true",
                   help="skip unreadable clips instead of failing")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("curate", help="clip inventory -> balanced multi-stutter splits")
    p.add_argument("inventory", help="annotated clip CSV")
    p.add_argument("audio_dir", help="directory of <clip_id>.wav files")
    p.add_argument("out_dir")
    p.add_argument("--plan", required=True, choices=sorted(curation.PLANS))
    p.add_argument("--groups", required=True,
                   help="JSON file mapping speaker group name to speaker ids")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("train", help="fine-tune on curated splits")
    p.add_argument("train_manifest")
    p.add_argument("val_manifest")
    p.add_argument("out_dir")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--freeze", default="UnFrz0-5", help=model.FREEZE_GRAMMAR)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a test manifest")
    p.add_argument("checkpoint")
    p.add_argument("test_manifest")
    p.add_argument("out_dir")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--threshold", type=float, nargs="+",
                   help="decision thresholds (default: the config's threshold)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("params", help="trainable-parameter audit per freeze config")
    p.add_argument("--freeze", help=model.FREEZE_GRAMMAR)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = (time.perf_counter(), _minor_faults())
    try:
        return args.func(args)
    except USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RUNTIME_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
