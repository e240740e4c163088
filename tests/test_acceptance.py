"""Acceptance gate: one test per shipping criterion, named so the `pytest -v`
lines read as the pass/fail checklist. Each test states its tolerance and
runtime budget in the docstring and asserts the wall clock stays inside it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    CRITERION_6_CONFIG,
    brute_force_f1,
    curation_fixture,
    finite_diff_check,
    naive_dft_magnitude,
    tiny_model_config,
    write_config_file,
)
import stutterkit
from stutterkit import curation, featurizer, model, trainer
from stutterkit.cli import main
from stutterkit.evaluator import f1_report
from stutterkit.featurizer import (
    AudioClip,
    FeaturizerConfig,
    LogMelSpectrogram,
    featurize,
    load_wav,
    log_mel,
    normalize,
)
from stutterkit.labels import DISFLUENT_LABELS
from stutterkit.model import ModelConfig, build_registry, conv_stem, forward
from stutterkit.trainer import (
    TrainConfig,
    TrainState,
    backward,
    bce_with_logits,
    evaluate_split,
    train_step,
)


class Budget:
    """Wall-clock guard: `with Budget(seconds):` fails if the block is slower."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"runtime budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
            )


# ---------------------------------------------------------------------------


def test_criterion_1_parameter_counts(capsys):
    """Trainable-parameter audit: five published freeze configurations must
    reproduce their exact integer counts and two-decimal millions. Budget 1 s."""
    expected = {
        "UnFrz0-5": (20_723_462, "20.72"),
        "UnFrz0-5+FrzFE": (19_045_126, "19.05"),
        "Frz0-2": (11_267_846, "11.27"),
        "Frz0-2+FrzFE": (9_589_510, "9.59"),
        "Frz0-4+FrzFE": (3_285_766, "3.29"),
    }
    with Budget(1.0):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines()[1:]:
            parts = line.split()
            rows[parts[0]] = (int(parts[1].replace(",", "")), parts[2])
        for spec, (count, millions) in expected.items():
            assert rows[spec] == (count, millions), spec
        cfg = ModelConfig()
        for spec, (count, _) in expected.items():
            got = model.trainable_parameter_count(cfg, model.parse_freeze_spec(spec))
            assert got == count, spec


def test_criterion_2a_gradient_correctness():
    """Analytic gradients vs central differences (h=1e-3) over every trainable
    scalar of a d_model=8 / 2-layer / 4-mel config, for both norm placements
    and both FFN activations; relative error < 1e-4. Budget 2 min."""
    with Budget(120.0):
        rng = np.random.default_rng(0)
        batch = [
            (rng.uniform(-1.0, 1.0, size=(4, 8)), rng.integers(0, 2, size=6).astype(float))
            for _ in range(2)
        ]
        for placement in ("pre", "post"):
            for activation in ("gelu", "relu"):
                cfg = tiny_model_config(norm_placement=placement, ffn_activation=activation)
                reg = build_registry(cfg, seed=1, dtype=np.float64)
                _, grads = backward(batch, reg, cfg)

                def loss_fn():
                    total = 0.0
                    for x, y in batch:
                        total += bce_with_logits(forward(x, reg, cfg), y)
                    return total / len(batch)

                worst = finite_diff_check(loss_fn, reg, grads, h=1e-3, tol=1e-4)
                assert worst < 1e-4, (placement, activation, worst)


def test_criterion_2b_freeze_bit_identity():
    """Across the seven published freeze configurations, every frozen tensor
    must be byte-identical to its initial value after 100 optimizer steps (and
    every trainable tensor must have moved). Budget 2 min."""
    with Budget(120.0):
        cfg = tiny_model_config(n_layers=6)
        base = build_registry(cfg, seed=2)
        rng = np.random.default_rng(3)
        examples = [
            (rng.uniform(-1.0, 1.0, size=(4, 8)), rng.integers(0, 2, size=6).astype(float))
            for _ in range(8)
        ]
        specs = (
            "UnFrz0-5", "UnFrz0-5+FrzFE", "Frz0-2", "Frz0-2+FrzFE",
            "Frz0-3+FrzFE", "Frz0-4+FrzFE", "Frz0-5+FrzFE",
        )
        train_cfg = TrainConfig(learning_rate=1e-3, batch_size=4)
        for spec in specs:
            reg = base.copy()
            model.apply_freeze(reg, model.parse_freeze_spec(spec))
            state = TrainState()
            step = 0
            while step < 100:
                for start in (0, 4):
                    train_step(examples[start : start + 4], reg, state, cfg, train_cfg)
                    step += 1
                    if step == 100:
                        break
            assert state.step == 100
            for name, e in reg.items():
                if e.trainable:
                    assert not np.array_equal(e.value, base[name]), (spec, name)
                else:
                    assert e.value.tobytes() == base[name].tobytes(), (spec, name)


def test_criterion_2c_overfit_smoke():
    """A reduced-width full model (6 layers, d_model=32) must memorize 8
    tone-coded clips: training micro F1 == 1.0 with loss < 0.05 inside 300
    steps. Budget 5 min."""
    with Budget(300.0):
        model_cfg = ModelConfig(
            d_model=32, n_layers=6, n_heads=4, d_ffn=64, n_mels=20,
            max_positions=256, d_proj=16,
        )
        feat_cfg = FeaturizerConfig(n_mels=20, chunk_length_s=3.0)
        patterns = [
            (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
            (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0),
        ]
        batch = []
        t = np.arange(48000) / 16000.0
        for i, bits in enumerate(patterns):
            x = 0.5 * np.sin(2.0 * np.pi * (300.0 + 150.0 * i) * t)
            spec = featurize(AudioClip(samples=x), feat_cfg)
            batch.append((spec.values, np.asarray(bits, dtype=float)))
        reg = build_registry(model_cfg, seed=0)
        state = TrainState()
        train_cfg = TrainConfig(learning_rate=1e-3, batch_size=8)
        reached = None
        for step in range(1, 301):
            loss = train_step(batch, reg, state, model_cfg, train_cfg)
            if step == 1 or step % 5 == 0:
                _, report = evaluate_split(batch, reg, model_cfg, threshold=0.5)
                if report.micro_f1 == 1.0 and loss < 0.05:
                    reached = step
                    break
        assert reached is not None, "did not memorize 8 clips within 300 steps"


def test_criterion_3_featurizer():
    """Featurizer checks: a sine at a mel-filter center wins that filter's
    argmax for 10 bins; FFT magnitudes match a naive DFT to 1e-6; a 6 s clip
    produces exactly 600 frames and 300 post-stem positions; normalized output
    range never exceeds 2.0 over 1000 random inputs. Budget 1 min."""
    with Budget(60.0):
        cfg = FeaturizerConfig()
        # (a) sine-at-center argmax; low bins are narrower than one FFT bin
        # (40 Hz) and excluded by construction
        centers = featurizer.mel_center_frequencies(cfg)
        duration = int(cfg.chunk_length_s * featurizer.SAMPLE_RATE)
        t = np.arange(duration) / featurizer.SAMPLE_RATE
        for bin_index in (10, 17, 24, 31, 38, 45, 52, 59, 66, 73):
            tone = 0.5 * np.sin(2.0 * np.pi * centers[bin_index] * t)
            spec = log_mel(AudioClip(samples=tone), cfg)
            frame_energy = spec.values[:, 50]
            assert int(np.argmax(frame_energy)) == bin_index, bin_index

        # (b) fast FFT vs naive DFT on random windowed frames
        rng = np.random.default_rng(0)
        for _ in range(3):
            frame = rng.uniform(-1.0, 1.0, size=featurizer.N_FFT)
            fast = np.abs(np.fft.rfft(frame))
            slow = naive_dft_magnitude(frame)
            assert np.max(np.abs(fast - slow)) < 1e-6

        # (c) 6 s -> 600 frames -> 300 positions through the conv stem
        six_s = 0.3 * np.sin(2.0 * np.pi * 440.0 * np.arange(96000) / 16000.0)
        spec = featurize(AudioClip(samples=six_s), cfg)
        assert spec.values.shape == (80, 600)
        stem_out = conv_stem(spec.values, build_registry(ModelConfig(), seed=0), ModelConfig())
        assert stem_out.shape == (300, 512)

        # (d) normalization range bound on 1000 random log-energy panels
        for _ in range(1000):
            fake = rng.uniform(-30.0, 5.0, size=(80, 40))
            panel = LogMelSpectrogram(values=fake)
            out = normalize(panel)
            assert float(out.values.max() - out.values.min()) <= 2.0


def test_criterion_4_metric_oracle():
    """Evaluator equals brute-force confusion counting exactly on 1000 random
    multi-label sets (n <= 32), and the documented 3-class hand case scores
    macro 0.6667 / micro 0.8 within 1e-4. Budget 10 s."""
    with Budget(10.0):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(1, 33))
            k = int(rng.integers(2, 7))
            targets = [tuple(int(b) for b in rng.integers(0, 2, size=k)) for _ in range(n)]
            preds = [tuple(int(b) for b in rng.integers(0, 2, size=k)) for _ in range(n)]
            report = f1_report(preds, targets)
            want = brute_force_f1(preds, targets)
            assert report.per_class_f1 == tuple(want["per_class"]), trial
            assert report.micro_f1 == want["micro"], trial
            assert abs(report.macro_f1 - want["macro"]) < 1e-12, trial
            assert abs(report.weighted_f1 - want["weighted"]) < 1e-12, trial

        hand = f1_report([(1, 0, 0), (0, 1, 0)], [(1, 0, 1), (0, 1, 0)])
        assert hand.per_class_f1 == (1.0, 1.0, 0.0)
        assert hand.macro_f1 == pytest.approx(0.6667, abs=1e-4)
        assert hand.micro_f1 == pytest.approx(0.8, abs=1e-4)
        assert hand.weighted_f1 == pytest.approx(0.6667, abs=1e-4)


def test_criterion_5_curation(tmp_path):
    """Curation properties: the 5-label single-speaker fixture yields exactly
    20 ordered pairs with count(X_Y_) == count(Y_X_); all five split plans
    route the speaker groups as published with zero leaks; every emitted clip
    is exactly 96,000 samples. Budget 30 s."""
    with Budget(30.0):
        records = []
        audio = {}
        for i, label in enumerate(DISFLUENT_LABELS):
            r = curation.ClipRecord(
                clip_id=f"c{i}", episode_id="ep0", speaker_id="s0",
                duration_s=3.5, annotator_votes={label: 3},
            )
            r.label = label
            records.append(r)
            tone = 0.4 * np.sin(2.0 * np.pi * (250.0 + 60.0 * i) * np.arange(56000) / 16000.0)
            audio[r.clip_id] = curation.pair_part(AudioClip(tone))
        pairs = curation.pair(records)
        assert len(pairs) == 20
        counts = {}
        for p in pairs:
            counts[p.combination_key] = counts.get(p.combination_key, 0) + 1
        for row in curation.read_split(curation.write_split(tmp_path, "pairs", pairs, audio)):
            assert load_wav(row["path"]).samples.shape == (96000,)
        for a in DISFLUENT_LABELS:
            for b in DISFLUENT_LABELS:
                if a != b:
                    assert counts[f"{a}_{b}_"] == counts[f"{b}_{a}_"] == 1

        groups = {"4-DS": ["sA"], "DS-Set 1": ["sB"], "DS-Set 2": ["sC"], "FB": ["sD"]}
        speaker_pairs = []
        for i, s in enumerate(["sA", "sB", "sC", "sD"]):
            speaker_pairs.append(
                curation.MultiStutterClip(
                    left_clip_id=f"l{i}", right_clip_id=f"r{i}",
                    labels=(1, 0, 0, 0, 1, 0),
                    combination_key="Block_WordRep_", speaker_id=s, episode_id=f"ep{i}",
                )
            )
            audio[f"l{i}"] = audio[f"r{i}"] = np.zeros(48000)
        published = {
            "SEP-28k-E": ({"sA"}, {"sB"}, {"sC"}),
            "SEP-28k-T": ({"sB"}, {"sC"}, {"sA"}),
            "SEP-28k-D": ({"sC"}, {"sB"}, {"sA"}),
            "SEP-28k-E-merged": ({"sA", "sB"}, {"sC"}, {"sD"}),
            "SEP-28k-T-merged": ({"sB", "sC"}, {"sA"}, {"sD"}),
        }
        assert set(published) == set(curation.PLANS)
        for name, want in published.items():
            manifests = curation.build_splits(speaker_pairs, groups, curation.PLANS[name])
            got = tuple({p.speaker_id for p in manifests[s]} for s in ("train", "val", "test"))
            assert got == want, name
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not (got[i] & got[j]), name
            for split, clips in manifests.items():
                written = curation.write_split(tmp_path / name, split, clips, audio)
                for row in curation.read_split(written):
                    assert load_wav(row["path"]).samples.shape == (96000,)


def _tree_digests(root: Path) -> dict[str, bytes]:
    """Relative path -> content for every artifact except the run manifests,
    which carry timestamps by design."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "run_manifest.json":
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_criterion_6_determinism(tmp_path):
    """featurize -> curate -> train (50 steps) -> eval, run twice with one
    seed, must produce byte-identical spectrogram dumps, split manifests and
    audio, checkpoints, histories, and eval reports. Budget 10 min."""
    with Budget(600.0):
        src = tmp_path / "src"
        src.mkdir()
        inventory, audio_dir, groups = curation_fixture(src)
        cfg_path = tmp_path / "tiny.cfg"
        write_config_file(
            cfg_path,
            d_model=16, n_layers=2, n_heads=2, d_ffn=32, n_mels=12,
            max_positions=256, d_proj=12, chunk_length_s=3.0,
            learning_rate=0.001, batch_size=4, max_epochs=50,
            early_stop_patience=10, max_steps=50,
        )
        for run in ("one", "two"):
            root = tmp_path / run
            rc = main(["featurize", str(audio_dir), str(root / "features"), "--config", str(cfg_path)])
            assert rc == 0
            rc = main([
                "curate", str(inventory), str(audio_dir), str(root / "curated"),
                "--plan", "SEP-28k-E-merged", "--groups", str(groups), "--seed", "11",
            ])
            assert rc == 0
            rc = main([
                "train", str(root / "curated" / "train" / "manifest.csv"),
                str(root / "curated" / "val" / "manifest.csv"), str(root / "run"),
                "--config", str(cfg_path), "--freeze", "Frz0-0+FrzFE", "--seed", "11",
            ])
            assert rc == 0
            rc = main([
                "eval", str(root / "run" / "checkpoint.bin"),
                str(root / "curated" / "test" / "manifest.csv"), str(root / "eval"),
                "--config", str(cfg_path), "--threshold", "0.5",
            ])
            assert rc == 0
        one = _tree_digests(tmp_path / "one")
        two = _tree_digests(tmp_path / "two")
        assert sorted(one) == sorted(two)
        mismatched = [rel for rel in one if one[rel] != two[rel]]
        assert mismatched == []
        history = (tmp_path / "one" / "run" / "history.jsonl").read_text().splitlines()
        assert json.loads(history[-1])["step"] == 50  # the 50-step cap was hit


# The criterion-6 fixture, curated once for the checks below.
@pytest.fixture(scope="module")
def criterion_6_splits(tmp_path_factory):
    root = tmp_path_factory.mktemp("criterion_6")
    inventory, audio_dir, groups = curation_fixture(root / "src")
    cfg_path = root / "tiny.cfg"
    write_config_file(cfg_path, **CRITERION_6_CONFIG)
    rc = main([
        "curate", str(inventory), str(audio_dir), str(root / "curated"),
        "--plan", "SEP-28k-E-merged", "--groups", str(groups), "--seed", "11",
    ])
    assert rc == 0
    return root / "curated", cfg_path


def _train_argv(curated: Path, cfg_path: Path, out_dir: Path) -> list[str]:
    return [
        "train", str(curated / "train" / "manifest.csv"), str(curated / "val" / "manifest.csv"),
        str(out_dir), "--config", str(cfg_path), "--freeze", "Frz0-0+FrzFE", "--seed", "11",
    ]


def test_eval_reproduces_best_validation_row(criterion_6_splits, tmp_path):
    """`eval` of the saved checkpoint on the validation manifest scores
    exactly the micro, macro and weighted F1 of the history row whose epoch
    was kept. Budget 2 min."""
    curated, cfg_path = criterion_6_splits
    with Budget(120.0):
        assert main(_train_argv(curated, cfg_path, tmp_path / "run")) == 0
        rc = main([
            "eval", str(tmp_path / "run" / "checkpoint.bin"),
            str(curated / "val" / "manifest.csv"), str(tmp_path / "eval"),
            "--config", str(cfg_path), "--threshold", "0.5",
        ])
        assert rc == 0
    rows = [json.loads(line) for line in (tmp_path / "run" / "history.jsonl").open()]
    best = [row for row in rows if row["improved"]][-1]
    report = json.loads((tmp_path / "eval" / "eval_t0.5.json").read_text())
    got = (report["micro_f1"], report["macro_f1"], report["weighted_f1"])
    assert got == (best["val_micro"], best["val_macro"], best["val_weighted"])


def test_train_identical_across_blas_thread_counts(criterion_6_splits, tmp_path):
    """The criterion-6 `train`, run in child processes with one and with two
    BLAS threads, writes byte-identical checkpoints and histories. Budget
    3 min."""
    curated, cfg_path = criterion_6_splits
    package_root = str(Path(stutterkit.__file__).resolve().parents[1])
    with Budget(180.0):
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (package_root, os.environ.get("PYTHONPATH")) if p
            )
            argv = _train_argv(curated, cfg_path, tmp_path / threads)
            subprocess.run([sys.executable, "-m", "stutterkit.cli", *argv],
                           env=env, check=True, capture_output=True)
    for name in ("checkpoint.bin", "history.jsonl"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
