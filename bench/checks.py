"""Output checks. Each returns a list of problems; an empty list is a pass.

The checks read the artifacts with their own parsers rather than the
program's loaders, so a loader bug cannot hide a bad artifact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import wave
from pathlib import Path

import numpy as np

from stutterkit.labels import LABELS

CLIP_SAMPLES = 96_000


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def history(path: Path, epochs: int) -> list[str]:
    """`history.jsonl` has one row per epoch with finite losses."""
    try:
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError) as e:
        return [f"{path}: unreadable ({e})"]
    problems = [] if len(rows) == epochs else [f"{path}: {len(rows)} rows, expected {epochs}"]
    for i, row in enumerate(rows):
        for key in ("train_loss", "val_loss"):
            if not _finite(row.get(key)):
                problems.append(f"{path}: row {i} {key}={row.get(key)!r} is not a finite number")
    return problems


def checkpoint(path: Path, expected_trainable: int) -> list[str]:
    """The checkpoint parses, its values are finite, and its trainable flags
    cover exactly `expected_trainable` parameters."""
    try:
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            blob = f.read()
        tensors = header["tensors"]
        sizes = [int(np.prod(t["shape"], dtype=np.int64)) for t in tensors]
        trainable = sum(n for n, t in zip(sizes, tensors) if t["trainable"] is True)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{path}: unreadable ({type(e).__name__}: {e})"]
    problems = []
    if len(blob) != 4 * sum(sizes):
        problems.append(f"{path}: {len(blob)} value bytes, expected {4 * sum(sizes)}")
    elif not np.all(np.isfinite(np.frombuffer(blob, dtype="<f4"))):
        problems.append(f"{path}: non-finite values")
    if trainable != expected_trainable:
        problems.append(f"{path}: {trainable:,} trainable parameters, expected {expected_trainable:,}")
    return problems


def _wav_samples(path: Path) -> int:
    with wave.open(str(path), "rb") as wf:
        n = wf.getnframes()
        if len(wf.readframes(n)) != 2 * n or wf.getnchannels() != 1 or wf.getsampwidth() != 2:
            raise ValueError("not a complete mono 16-bit WAV")
    return n


def curated(out_dir: Path, expected_sizes: dict[str, int]) -> list[str]:
    """Every split has its expected size, every WAV 96,000 samples, no
    speaker sits in two splits, and counts.json agrees with the manifests."""
    problems = []
    speakers: dict[str, set[str]] = {}
    for split, expected in expected_sizes.items():
        manifest = out_dir / split / "manifest.csv"
        try:
            with open(manifest, newline="", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
        except OSError as e:
            problems.append(f"{manifest}: unreadable ({e})")
            continue
        if len(rows) != expected:
            problems.append(f"{manifest}: {len(rows)} rows, expected {expected}")
        speakers[split] = {r["speaker_id"] for r in rows}
        for r in rows:
            wav = manifest.parent / r["path"]
            try:
                n = _wav_samples(wav)
            except (OSError, EOFError, ValueError, wave.Error) as e:
                problems.append(f"{wav}: unreadable ({e})")
                continue
            if n != CLIP_SAMPLES:
                problems.append(f"{wav}: {n} samples, expected {CLIP_SAMPLES}")
    splits = sorted(speakers)
    for i, a in enumerate(splits):
        for b in splits[i + 1:]:
            if speakers[a] & speakers[b]:
                problems.append(f"speakers {sorted(speakers[a] & speakers[b])} in both {a} and {b}")
    try:
        counts = json.loads((out_dir / "counts.json").read_text(encoding="utf-8"))
        for split, expected in expected_sizes.items():
            if counts[split]["total"] != expected:
                problems.append(f"counts.json: {split} total {counts[split]['total']}, expected {expected}")
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems.append(f"{out_dir / 'counts.json'}: unreadable ({type(e).__name__}: {e})")
    return problems


def features(wav_dir: Path, feat_dir: Path) -> list[str]:
    """Each WAV has exactly one complete, finite `.melspec` dump."""
    wavs = {p.stem for p in wav_dir.glob("*.wav")}
    dumps = {p.stem for p in feat_dir.glob("*.melspec")}
    problems = [f"{feat_dir}: no dump for {s}.wav" for s in sorted(wavs - dumps)]
    problems += [f"{feat_dir}: dump {s}.melspec has no WAV" for s in sorted(dumps - wavs)]
    for stem in sorted(wavs & dumps):
        path = feat_dir / f"{stem}.melspec"
        try:
            with open(path, "rb") as f:
                header = json.loads(f.readline())
                blob = f.read()
            expected = 4 * header["n_mels"] * header["n_frames"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"{path}: unreadable ({type(e).__name__}: {e})")
            continue
        if len(blob) != expected:
            problems.append(f"{path}: {len(blob)} value bytes, expected {expected}")
        elif not np.all(np.isfinite(np.frombuffer(blob, dtype="<f4"))):
            problems.append(f"{path}: non-finite values")
    return problems


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0


def eval_reports(eval_dir: Path, thresholds: list[float], n_test: int) -> list[str]:
    """One `eval_t<T>.json` per threshold, scoring every test row, with F1
    values that follow from its own tp/fp/fn counts."""
    problems = []
    for t in thresholds:
        path = eval_dir / f"eval_t{t:g}.json"
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            classes = report["per_class"]
            tp, fp, fn, support = ([c[k] for c in classes] for k in ("tp", "fp", "fn", "support"))
            per_class = [_f1(a, b, c) for a, b, c in zip(tp, fp, fn)]
            expected = {
                "micro_f1": _f1(sum(tp), sum(fp), sum(fn)),
                "macro_f1": sum(per_class) / len(per_class),
                "weighted_f1": (sum(f * s for f, s in zip(per_class, support)) / sum(support)
                                if sum(support) else 0.0),
            }
            got = {k: report[k] for k in expected}
            got_per_class = [c["f1"] for c in classes]
            labels = [c["label"] for c in classes]
            n_examples = report["n_examples"]
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as e:
            problems.append(f"{path}: unreadable ({type(e).__name__}: {e})")
            continue
        if n_examples != n_test:
            problems.append(f"{path}: n_examples {n_examples}, expected {n_test}")
        if labels != list(LABELS):
            problems.append(f"{path}: classes {labels}")
        for name, want, have in [*zip(LABELS, per_class, got_per_class),
                                 *((k, expected[k], got[k]) for k in expected)]:
            if not _finite(have) or abs(have - want) > 1e-12:
                problems.append(f"{path}: {name} F1 {have!r}, its counts give {want!r}")
    return problems


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under `out_dir` except the run manifest."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "run_manifest.json"
    }


def same_digests(label: str, first: dict[str, str], other: dict[str, str]) -> list[str]:
    """Two repetitions of one command wrote byte-identical artifacts."""
    if first == other:
        return []
    differ = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
    return [f"{label}: artifacts differ between repetitions: {differ[:5]}"
            f"{' ...' if len(differ) > 5 else ''}"]
