"""Dataset curation: clip cleaning, multi-stutter pairing, class balancing,
and speaker-exclusive split materialization.

The pipeline takes an annotated clip inventory (three annotator votes per
label), keeps only clips with a single unanimous retained label, then
pairs same-episode/same-speaker clips into 6-second two-label training
examples. NoStutteredWords pairs are downsampled per speaker to the rounded
mean size of that speaker's disfluent combination groups, and the result is
partitioned into train/val/test by named speaker groups. Pairs are built
from inventory metadata alone; write_split joins each kept pair's audio as
it writes the pair.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .featurizer import AudioClip, pad_or_truncate, save_wav
from .labels import DISFLUENT_LABELS, LABELS, NO_STUTTER, bits_from_labels

N_ANNOTATORS = 3
MIN_DURATION_S = 3.0
PART_SAMPLES = 48000  # each half of a synthesized pair: 3 s @ 16 kHz
TARGET_SAMPLES = 2 * PART_SAMPLES

# Rare non-disfluent annotations dropped outright (each under 1% of the
# corpora this pipeline was designed around).
PRUNED_LABELS = ("NaturalPause", "HardToUnderstand", "Speechless", "BadAudioQuality", "Music")


class SpeakerLeak(ValueError):
    """A speaker appears in more than one partition (or group)."""


@dataclass
class ClipRecord:
    """One annotated source clip. annotator_votes maps label name to the
    number of annotators (0..3) who applied it."""

    clip_id: str
    episode_id: str
    speaker_id: str
    duration_s: float
    annotator_votes: dict[str, int]
    n_speakers_in_clip: int = 1
    label: str | None = None  # single unanimous label, set by clean()

    def __post_init__(self) -> None:
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"clip {self.clip_id!r}: duration must be positive and finite")
        if self.n_speakers_in_clip < 1:
            raise ValueError(f"clip {self.clip_id!r}: n_speakers must be >= 1")
        for name, votes in self.annotator_votes.items():
            if not 0 <= int(votes) <= N_ANNOTATORS:
                raise ValueError(
                    f"clip {self.clip_id!r}: votes for {name!r} must be in 0..{N_ANNOTATORS}"
                )


@dataclass
class MultiStutterClip:
    """A 6 s synthesized example: two 3 s same-speaker/same-episode clips
    concatenated left-then-right, labeled with the union of the parts. It
    names its parts by clip id; write_split builds its audio."""

    left_clip_id: str
    right_clip_id: str
    labels: tuple[int, ...]
    combination_key: str
    speaker_id: str
    episode_id: str

    @property
    def pair_id(self) -> str:
        return f"{self.left_clip_id}__{self.right_clip_id}"


@dataclass(frozen=True)
class SplitPlan:
    """Named assignment of speaker groups to the three partitions."""

    name: str
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


PLANS: dict[str, SplitPlan] = {
    p.name: p
    for p in (
        SplitPlan("SEP-28k-E", ("4-DS",), ("DS-Set 1",), ("DS-Set 2",)),
        SplitPlan("SEP-28k-T", ("DS-Set 1",), ("DS-Set 2",), ("4-DS",)),
        SplitPlan("SEP-28k-D", ("DS-Set 2",), ("DS-Set 1",), ("4-DS",)),
        SplitPlan("SEP-28k-E-merged", ("4-DS", "DS-Set 1"), ("DS-Set 2",), ("FB",)),
        SplitPlan("SEP-28k-T-merged", ("DS-Set 1", "DS-Set 2"), ("4-DS",), ("FB",)),
    )
}


# ---------------------------------------------------------------------------
# Cleaning


def _unanimous(record: ClipRecord) -> tuple[list[str], list[str]]:
    """(retained, other) labels with a full 3/3 vote."""
    retained = [l for l in LABELS if record.annotator_votes.get(l, 0) == N_ANNOTATORS]
    other = [
        l
        for l, v in record.annotator_votes.items()
        if v == N_ANNOTATORS and l not in LABELS
    ]
    return retained, other


def clean(records: list[ClipRecord]) -> tuple[list[ClipRecord], dict[str, int]]:
    """Filter an inventory down to usable single-label clips.

    Keeps a clip iff exactly one of the six retained labels is unanimous,
    its duration is at least 3 s, and it contains a single speaker. Returns
    (kept records with .label set, rejection-reason counts). A clip with no
    unanimous retained label counts as pruned_label when one of its
    unanimous labels is in PRUNED_LABELS.
    """
    kept: list[ClipRecord] = []
    report: Counter[str] = Counter()
    for r in records:
        retained, other = _unanimous(r)
        if len(retained) == 1:
            if r.duration_s < MIN_DURATION_S:
                report["too_short"] += 1
            elif r.n_speakers_in_clip > 1:
                report["multiple_speakers"] += 1
            else:
                kept.append(replace(r, label=retained[0]))
                continue
        elif len(retained) > 1:
            report["multiple_unanimous"] += 1
        elif any(l in PRUNED_LABELS for l in other):
            report["pruned_label"] += 1
        elif other:
            report["unretained_label"] += 1
        else:
            report["no_unanimity"] += 1
    return kept, dict(report)


# ---------------------------------------------------------------------------
# Pairing

def _compatible(a: ClipRecord, b: ClipRecord) -> bool:
    if a.label == b.label:
        return a.label == NO_STUTTER
    return a.label in DISFLUENT_LABELS and b.label in DISFLUENT_LABELS


def pair(records: list[ClipRecord]) -> list[MultiStutterClip]:
    """Every ordered pair (A, B), A != B, from the same episode AND speaker
    whose labels are distinct disfluencies or both NoStutteredWords. Pairs
    hold clip ids only; no audio is read. Output sorted by (episode, left id,
    right id).
    """
    by_group: dict[tuple[str, str], list[ClipRecord]] = defaultdict(list)
    for r in records:
        if r.label is None:
            raise ValueError(f"clip {r.clip_id!r} has no unanimous label; run clean() first")
        by_group[(r.episode_id, r.speaker_id)].append(r)

    out: list[MultiStutterClip] = []
    for (episode_id, speaker_id), group in by_group.items():
        for a in group:
            for b in group:
                if a.clip_id == b.clip_id or not _compatible(a, b):
                    continue
                names = (a.label,) if a.label == b.label else (a.label, b.label)
                out.append(
                    MultiStutterClip(
                        left_clip_id=a.clip_id,
                        right_clip_id=b.clip_id,
                        labels=bits_from_labels(names),
                        combination_key=f"{a.label}_{b.label}_",
                        speaker_id=speaker_id,
                        episode_id=episode_id,
                    )
                )
    out.sort(key=lambda c: (c.episode_id, c.left_clip_id, c.right_clip_id))
    return out


NO_STUTTER_KEY = f"{NO_STUTTER}_{NO_STUTTER}_"


# ---------------------------------------------------------------------------
# Balancing


def no_stutter_targets(pairs: list[MultiStutterClip]) -> dict[str, int]:
    """Per-speaker retention target: the rounded mean of that speaker's
    disfluent combination-group sizes (0 when a speaker has none)."""
    counts: dict[str, Counter[str]] = defaultdict(Counter)
    for p in pairs:
        if p.combination_key != NO_STUTTER_KEY:
            counts[p.speaker_id][p.combination_key] += 1
    speakers = {p.speaker_id for p in pairs}
    return {
        s: int(round(float(np.mean(list(counts[s].values()))))) if counts[s] else 0
        for s in speakers
    }


def balance_no_stutter(pairs: list[MultiStutterClip], seed: int = 0) -> list[MultiStutterClip]:
    """Downsample each speaker's NoStutteredWords pairs to its
    no_stutter_targets count (uniform without replacement, seeded);
    disfluent pairs pass through. Original pair order is preserved."""
    targets = no_stutter_targets(pairs)
    ns_indices: dict[str, list[int]] = defaultdict(list)
    for i, p in enumerate(pairs):
        if p.combination_key == NO_STUTTER_KEY:
            ns_indices[p.speaker_id].append(i)
    rng = np.random.default_rng(seed)
    keep = set(range(len(pairs)))
    for speaker in sorted(ns_indices):
        idx = ns_indices[speaker]
        target = targets.get(speaker, 0)
        if target < len(idx):
            chosen = rng.choice(len(idx), size=target, replace=False)
            dropped = set(idx) - {idx[j] for j in chosen}
            keep -= dropped
    return [pairs[i] for i in sorted(keep)]


# ---------------------------------------------------------------------------
# Splitting


def build_splits(
    pairs: list[MultiStutterClip],
    speaker_groups: dict[str, list[str]],
    plan: SplitPlan,
) -> dict[str, list[MultiStutterClip]]:
    """Partition pairs by the plan's group assignments.

    speaker_groups maps group name -> speaker ids. Raises SpeakerLeak when a
    speaker sits in two groups or (for a degenerate plan) would land in two
    partitions; raises ValueError for pairs whose speaker is in no group.
    """
    group_of: dict[str, str] = {}
    for group, speakers in speaker_groups.items():
        for s in speakers:
            if s in group_of and group_of[s] != group:
                raise SpeakerLeak(f"speaker {s!r} assigned to both {group_of[s]!r} and {group!r}")
            group_of[s] = group
    partition_of: dict[str, str] = {}
    for split_name, groups in (("train", plan.train), ("val", plan.val), ("test", plan.test)):
        for g in groups:
            if g not in speaker_groups:
                raise ValueError(f"plan {plan.name!r} references unknown group {g!r}")
            for s in speaker_groups[g]:
                if s in partition_of and partition_of[s] != split_name:
                    raise SpeakerLeak(
                        f"speaker {s!r} appears in both {partition_of[s]!r} and {split_name!r}"
                    )
                partition_of[s] = split_name
    manifests: dict[str, list[MultiStutterClip]] = {"train": [], "val": [], "test": []}
    for p in pairs:
        if p.speaker_id not in group_of:
            raise ValueError(f"pair speaker {p.speaker_id!r} is in no speaker group")
        split = partition_of.get(p.speaker_id)
        if split is not None:  # groups outside the plan are simply unused
            manifests[split].append(p)
    return manifests


def combination_count_report(manifests: dict[str, list[MultiStutterClip]]) -> dict:
    """Per-split pair counts keyed by combination, plus totals."""
    report: dict = {}
    for split, clips in manifests.items():
        counts = Counter(c.combination_key for c in clips)
        report[split] = {k: counts[k] for k in sorted(counts)}
        report[split]["total"] = len(clips)
    return report


# ---------------------------------------------------------------------------
# Manifest / audio I/O

INVENTORY_FIELDS = [
    "clip_id", "episode_id", "speaker_id", "duration_s", "n_speakers", "source",
    *[f"votes_{l}" for l in LABELS],
    "votes_other_json",
]

SPLIT_FIELDS = ["path", *LABELS, "combination_key", "speaker_id"]


def _csv_rows(path: str | Path, kind: str, fields: list[str]):
    """(line number, row) for each row of a CSV that has every named column;
    ValueError on a missing column, a row with too few fields, a row csv
    cannot parse (such as a field over csv.field_size_limit) or bytes that
    are not UTF-8. A leading UTF-8 byte-order mark is skipped."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        try:
            missing = set(fields) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"{kind} {path} missing columns: {sorted(missing)}")
            for row in reader:
                if None in row.values():
                    raise ValueError(f"{kind} {path} line {reader.line_num}: too few fields")
                yield reader.line_num, row
        except csv.Error as e:  # DictReader.line_num moves only once a row parses
            raise ValueError(f"{kind} {path} line {reader.reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{kind} {path}: not UTF-8: {e}") from None


# The ids for which audio/<left>__<right>.wav names one pair, inside audio/.
_CLIP_ID = re.compile(r"[^_/\\]+(?:_[^_/\\]+)*")


def read_inventory(path: str | Path) -> list[ClipRecord]:
    """Parse the annotated-clip CSV (see INVENTORY_FIELDS for the header).
    Raises ValueError, naming the line, on malformed input, a repeated clip
    id, or one that is empty, holds "/", "\\" or "__", or starts or ends
    with "_"."""
    records = []
    first_line: dict[str, int] = {}
    for line, row in _csv_rows(path, "inventory", INVENTORY_FIELDS):
        try:
            if not _CLIP_ID.fullmatch(row["clip_id"]):
                raise ValueError(f"clip id {row['clip_id']!r} cannot name a pair file")
            votes = {l: int(row[f"votes_{l}"]) for l in LABELS}
            cell = row["votes_other_json"].strip()
            if cell:  # an empty cell means {}; most rows have one, so skip the parse
                other = json.loads(cell)
                if not isinstance(other, dict) or {type(v) for v in other.values()} - {int, str}:
                    raise ValueError(f"bad votes_other_json {other!r}")
                if retained := [l for l in LABELS if l in other]:
                    raise ValueError(f"votes_other_json names retained labels {retained}")
                votes.update({k: int(v) for k, v in other.items()})
            record = ClipRecord(
                clip_id=row["clip_id"],
                episode_id=row["episode_id"],
                speaker_id=row["speaker_id"],
                duration_s=float(row["duration_s"]),
                annotator_votes=votes,
                n_speakers_in_clip=int(row["n_speakers"]),
            )
            if (first := first_line.setdefault(record.clip_id, line)) != line:
                raise ValueError(f"clip {record.clip_id!r} repeats line {first}")
        except ValueError as e:
            raise ValueError(f"inventory {path} line {line}: {e}") from None
        records.append(record)
    return records


def pair_part(clip: AudioClip) -> np.ndarray:
    """What a clip contributes to each of its pairs: its first 3 s,
    zero-padded if shorter. A copy, so the rest of the clip can be freed."""
    return pad_or_truncate(clip.samples, PART_SAMPLES).copy()


def write_split(
    out_dir: str | Path,
    split_name: str,
    clips: list[MultiStutterClip],
    parts: dict[str, np.ndarray],
) -> Path:
    """Write one split: WAV files under <out_dir>/<split>/audio plus a CSV
    manifest (relative path, six label bits, combination key, speaker).

    parts maps clip id to the clip's pair_part. Each pair's audio is its
    left part then its right part, exactly 96,000 samples."""
    split_dir = Path(out_dir) / split_name
    audio_dir = split_dir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = split_dir / "manifest.csv"
    with open(manifest_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(SPLIT_FIELDS)
        for c in clips:
            rel = f"audio/{c.pair_id}.wav"
            samples = np.concatenate([parts[c.left_clip_id], parts[c.right_clip_id]])
            save_wav(audio_dir / f"{c.pair_id}.wav", samples)
            writer.writerow([rel, *c.labels, c.combination_key, c.speaker_id])
    return manifest_path


def read_split(manifest_path: str | Path) -> list[dict]:
    """Rows of a split manifest; 'path' is resolved relative to the manifest.
    Raises ValueError on a missing column, a short row or a label bit other
    than 0/1."""
    base = Path(manifest_path).parent
    rows = []
    for line, row in _csv_rows(manifest_path, "split manifest", SPLIT_FIELDS):
        try:
            labels = tuple(int(row[l]) for l in LABELS)
        except ValueError as e:
            raise ValueError(f"split manifest {manifest_path} line {line}: {e}") from None
        if not set(labels) <= {0, 1}:
            raise ValueError(f"split manifest {manifest_path} line {line}: label bits must be 0/1")
        rows.append(
            {
                "path": base / row["path"],
                "labels": labels,
                "combination_key": row["combination_key"],
                "speaker_id": row["speaker_id"],
            }
        )
    return rows
