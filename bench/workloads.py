"""The benchmark's workloads and the seeded synthetic inputs they run on.

Everything the program reads is generated here from the workload seed:
the annotated-clip inventory CSV, one 16 kHz WAV per clip that survives
cleaning, the speaker-group JSON, a key=value config file and a seeded
checkpoint for `eval`. The program receives only these files.

The inventory mimics the shape of SEP-28k: about 24,000 annotated clips of
which only a small fraction has a single unanimous label. Rejected rows
cost `curate` parsing and cleaning time but no audio, so most are CSV rows
only; a fixed number of them also get a WAV, so the clip directory that
`featurize` reads holds about 160 clips in every workload.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from stutterkit import model
from stutterkit.curation import INVENTORY_FIELDS
from stutterkit.featurizer import SAMPLE_RATE, save_wav
from stutterkit.labels import DISFLUENT_LABELS, LABELS, NO_STUTTER

PLAN = "SEP-28k-E-merged"  # train: 4-DS + DS-Set 1, val: DS-Set 2, test: FB


@dataclass(frozen=True)
class Speaker:
    """One speaker's kept clips, all in one episode.

    `n_labels` distinct disfluency labels with `per_label` clips each, plus
    `n_fluent` NoStutteredWords clips. Curation then makes
    k*m * m*(k-1) disfluent pairs (k = n_labels, m = per_label) and keeps
    min(m*m, f*(f-1)) of the f*(f-1) fluent pairs.
    """

    group: str
    n_labels: int
    per_label: int
    n_fluent: int


@dataclass(frozen=True)
class Corpus:
    speakers: tuple[Speaker, ...]
    n_rejected: int  # inventory rows that fail cleaning
    n_rejected_audio: int  # of those, how many have a WAV in the clip directory


# Speakers whose clips are all fluent: curation materializes every one of
# their f*(f-1) pairs and balancing then drops them all.
FLUENT_ONLY = tuple(Speaker("DS-Set 1", 0, 0, 12) for _ in range(3))

# Fine-tuning corpus: 2 train, 2 val and 3 test clips after curation, so
# `train` and `eval` stay short enough to repeat; the fluent-only speakers
# and the rejected clips' audio give `curate` and `featurize` about a second
# of work each.
FINETUNE_CORPUS = Corpus(
    speakers=(
        Speaker("4-DS", 2, 1, 0),
        Speaker("DS-Set 2", 2, 1, 0),
        Speaker("FB", 2, 1, 2),
        *FLUENT_ONLY,
    ),
    n_rejected=24_000,
    n_rejected_audio=120,
)

# Preparation corpus: two train speakers at 10 disfluent + 12 fluent clips
# (212 pairs materialized, 84 kept each), and small val/test speakers so the
# forward passes of `train` and `eval` stay a minority of the run.
PREPARE_CORPUS = Corpus(
    speakers=(
        Speaker("4-DS", 5, 2, 12),
        Speaker("DS-Set 1", 5, 2, 12),
        Speaker("DS-Set 2", 2, 1, 2),
        Speaker("FB", 2, 1, 2),
    ),
    n_rejected=24_000,
    n_rejected_audio=120,
)


@dataclass(frozen=True)
class Workload:
    corpus: Corpus
    frozen: bool  # freeze every encoder layer but the last, and the feature extractor
    train: dict  # trainer keys of the config file

    def freeze_spec(self, n_layers: int) -> str:
        return f"Frz0-{n_layers - 2}+FrzFE" if self.frozen else f"UnFrz0-{n_layers - 1}"

    @property
    def epochs(self) -> int:
        return self.train["max_epochs"]


FINETUNE_TRAIN = {"max_epochs": 2, "batch_size": 8}

WORKLOADS = {
    # Backward through every layer plus Adam over all 20.7 M parameters: the
    # bypass workload for any freezing optimisation.
    "finetune_full": Workload(FINETUNE_CORPUS, False, FINETUNE_TRAIN),
    # Same inputs and seed under Frz0-4+FrzFE, the paper's sweep workload:
    # 16% of the weights train, so frozen-layer savings show here only.
    "finetune_frozen": Workload(FINETUNE_CORPUS, True, FINETUNE_TRAIN),
    # Curation (O(n^2) pairing, WAV writes), featurizing and forward-only
    # scoring. `train` takes a single 2-clip step, so its time is featurizing
    # both manifests, initialization, one validation pass and the checkpoint.
    "prepare_and_score": Workload(
        PREPARE_CORPUS, False, {"max_epochs": 1, "batch_size": 2, "max_steps": 1}),
}

# Trainable parameters of the paper-scale model, from the paper's table; the
# `params` command must agree with them.
PAPER_TRAINABLE = {"UnFrz0-5": 20_723_462, "Frz0-4+FrzFE": 3_285_766, "(total)": 20_723_462}

TINY_MODEL = {
    "d_model": 16, "n_layers": 2, "n_heads": 2, "d_ffn": 32, "n_mels": 12,
    "max_positions": 256, "d_proj": 12, "chunk_length_s": 3.0,
}


def expected_split_sizes(corpus: Corpus) -> dict[str, int]:
    """Curated clip count per split, from the pairing and balancing rules."""
    split_of = {"4-DS": "train", "DS-Set 1": "train", "DS-Set 2": "val", "FB": "test"}
    sizes = {"train": 0, "val": 0, "test": 0}
    for s in corpus.speakers:
        k, m, f = s.n_labels, s.per_label, s.n_fluent
        disfluent = k * m * m * (k - 1)
        fluent = min(m * m, f * (f - 1)) if disfluent else 0
        sizes[split_of[s.group]] += disfluent + fluent
    return sizes


def materialized_pairs(corpus: Corpus) -> int:
    """Pairs `curation.pair` builds before fluent pairs are balanced away."""
    return sum(
        s.n_labels * s.per_label * s.per_label * (s.n_labels - 1) + s.n_fluent * (s.n_fluent - 1)
        for s in corpus.speakers
    )


def _votes_row(rng: np.random.Generator, unanimous: list[str]) -> dict[str, int]:
    votes = {l: int(rng.integers(0, 3)) for l in LABELS}
    for l in unanimous:
        votes[l] = 3
    return votes


def _row(clip_id, episode, speaker, duration, votes, n_speakers=1, other=None) -> dict:
    row = {
        "clip_id": clip_id, "episode_id": episode, "speaker_id": speaker,
        "duration_s": f"{duration:.3f}", "n_speakers": n_speakers, "source": "SEP28k",
        "votes_other_json": json.dumps(other) if other else "",
    }
    row.update({f"votes_{l}": v for l, v in votes.items()})
    return row


def _rejected_row(rng, i: int, speakers: list[str]) -> dict:
    """An inventory row that `clean` rejects, for one of its five reasons."""
    speaker = speakers[int(rng.integers(len(speakers)))]
    episode = f"ep{int(rng.integers(1000)):04d}"
    clip_id = f"rej{i:06d}"
    label = LABELS[int(rng.integers(len(LABELS)))]
    reason = int(rng.integers(5))
    if reason == 0:  # no unanimous label
        return _row(clip_id, episode, speaker, 3.0 + rng.random() * 3, _votes_row(rng, []))
    if reason == 1:  # too short
        return _row(clip_id, episode, speaker, 0.5 + rng.random() * 2, _votes_row(rng, [label]))
    if reason == 2:  # two speakers
        return _row(clip_id, episode, speaker, 3.5, _votes_row(rng, [label]), n_speakers=2)
    if reason == 3:  # two unanimous retained labels
        other = LABELS[(LABELS.index(label) + 1) % len(LABELS)]
        return _row(clip_id, episode, speaker, 3.5, _votes_row(rng, [label, other]))
    return _row(clip_id, episode, speaker, 3.5, _votes_row(rng, []), other={"Music": 3})


def _clip_audio(rng: np.random.Generator, duration_s: float) -> np.ndarray:
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    tone = 0.3 * np.sin(2 * np.pi * rng.uniform(100, 900) * t)
    return np.clip(tone + 0.05 * rng.standard_normal(n), -1.0, 1.0)


def write_inputs(root: Path, corpus: Corpus, seed: int, config: dict) -> dict[str, Path]:
    """Write every input of one workload run under `root`; returns their paths."""
    rng = np.random.default_rng(seed)
    audio_dir = root / "source_audio"
    audio_dir.mkdir(parents=True)
    groups: dict[str, list[str]] = {g: [] for g in ("4-DS", "DS-Set 1", "DS-Set 2", "FB")}
    rows = []
    for si, spk in enumerate(corpus.speakers):
        speaker = f"spk{si:02d}"
        groups[spk.group].append(speaker)
        labels = list(rng.choice(DISFLUENT_LABELS, size=spk.n_labels, replace=False))
        kept = [l for l in labels for _ in range(spk.per_label)] + [NO_STUTTER] * spk.n_fluent
        for ci, label in enumerate(kept):
            clip_id = f"{speaker}_c{ci:03d}"
            duration = float(rng.uniform(3.0, 6.0))
            save_wav(audio_dir / f"{clip_id}.wav", _clip_audio(rng, duration))
            rows.append(_row(clip_id, f"ep{speaker}", speaker, duration, _votes_row(rng, [label])))
    speakers = [s for g in groups.values() for s in g]
    for i in range(corpus.n_rejected):
        row = _rejected_row(rng, i, speakers)
        if i < corpus.n_rejected_audio:
            audio = _clip_audio(rng, float(row["duration_s"]))
            save_wav(audio_dir / f"{row['clip_id']}.wav", audio)
        rows.append(row)
    rows = [rows[i] for i in rng.permutation(len(rows))]

    inventory = root / "inventory.csv"
    with open(inventory, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=INVENTORY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    groups_path = root / "groups.json"
    groups_path.write_text(json.dumps(groups, indent=2) + "\n", encoding="utf-8")
    config_path = root / "bench.cfg"
    config_path.write_text("".join(f"{k}={v}\n" for k, v in config.items()), encoding="utf-8")

    model_keys = {f.name for f in fields(model.ModelConfig)}
    model_cfg = model.ModelConfig(**{k: v for k, v in config.items() if k in model_keys})
    checkpoint = root / "seeded_checkpoint.bin"
    model.save_checkpoint(checkpoint, model.build_registry(model_cfg, seed=seed), model_cfg)
    return {
        "inventory": inventory, "audio": audio_dir, "groups": groups_path,
        "config": config_path, "checkpoint": checkpoint,
    }
