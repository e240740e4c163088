"""Independent oracles and fixture builders used across the test suite.

Everything here is deliberately written from first principles (direct DFT
summation, explicit convolution loops, a straight-line transformer forward,
hand confusion counting) so that agreement with the package is evidence, not
tautology. None of these call back into the code paths they check.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import sys
import tempfile
import tracemalloc
import wave

import numpy as np

from stutterkit.featurizer import (
    HOP,
    LOG_FLOOR,
    N_FFT,
    SAMPLE_RATE,
    FeaturizerConfig,
    hann_window,
    mel_filterbank,
)
from stutterkit.labels import LABELS
from stutterkit.model import LN_EPS, ModelConfig, ParameterRegistry


# ---------------------------------------------------------------------------
# Signal oracles


def naive_dft_magnitude(frame: np.ndarray) -> np.ndarray:
    """|DFT| of one real frame by direct summation, positive frequencies only."""
    n = frame.size
    n_bins = n // 2 + 1
    out = np.empty(n_bins)
    for k in range(n_bins):
        re = sum(frame[t] * math.cos(-2.0 * math.pi * k * t / n) for t in range(n))
        im = sum(frame[t] * math.sin(-2.0 * math.pi * k * t / n) for t in range(n))
        out[k] = math.hypot(re, im)
    return out


def naive_log_mel(samples: np.ndarray, cfg: FeaturizerConfig) -> np.ndarray:
    """Full log-Mel path recomputed frame by frame with the naive DFT.

    Slow (direct summation), so call it on short chunks only.
    """
    chunk = np.zeros(cfg.chunk_samples)
    take = min(samples.size, cfg.chunk_samples)
    chunk[:take] = samples[:take]
    padded = np.concatenate([chunk, np.zeros(N_FFT - HOP)])
    window = hann_window(N_FFT)
    fb = mel_filterbank(cfg)
    cols = []
    for t in range(cfg.chunk_frames):
        frame = padded[t * HOP : t * HOP + N_FFT] * window
        power = naive_dft_magnitude(frame) ** 2
        cols.append(np.log(np.maximum(fb @ power, LOG_FLOOR)))
    return np.stack(cols, axis=1)


def whole_chunk_log_mel(samples: np.ndarray, cfg: FeaturizerConfig) -> np.ndarray:
    """log_mel as one whole-array expression over every frame of the chunk,
    padding frames included: the reference that log_mel's skipped padding
    frames and FFT blocks must equal bit for bit."""
    x = samples[: cfg.chunk_samples]
    padded = np.concatenate([x, np.zeros(cfg.chunk_samples - x.size + N_FFT - HOP)])
    frames = np.lib.stride_tricks.sliding_window_view(padded, N_FFT)[::HOP][: cfg.chunk_frames]
    power = np.abs(np.fft.rfft(frames * hann_window(N_FFT), axis=1)) ** 2
    return np.log(np.maximum(power @ mel_filterbank(cfg).T, LOG_FLOOR)).T


# ---------------------------------------------------------------------------
# Model oracles


def naive_conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """1-D convolution by explicit loops: x [C_in, T] -> [C_out, T_out]."""
    c_in, t = x.shape
    c_out, _, k = w.shape
    xp = np.zeros((c_in, t + 2 * padding))
    xp[:, padding : padding + t] = x
    t_out = (t + 2 * padding - k) // stride + 1
    y = np.zeros((c_out, t_out))
    for o in range(c_out):
        for j in range(t_out):
            acc = b[o]
            for i in range(c_in):
                for kk in range(k):
                    acc += w[o, i, kk] * xp[i, j * stride + kk]
            y[o, j] = acc
    return y


def _oracle_gelu(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.reshape(-1)]).reshape(x.shape)


def _oracle_layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = (row - mu) / math.sqrt(var + LN_EPS) * gamma + beta
    return out


def _oracle_softmax_row(row: np.ndarray) -> np.ndarray:
    e = np.exp(row - row.max())
    return e / e.sum()


def _oracle_attention(x: np.ndarray, p: dict[str, np.ndarray], n_heads: int) -> np.ndarray:
    q = x @ p["attn.q.w"] + p["attn.q.b"]
    k = x @ p["attn.k.w"]  # no key bias
    v = x @ p["attn.v.w"] + p["attn.v.b"]
    t, d = x.shape
    dk = d // n_heads
    ctx = np.zeros((t, d))
    for h in range(n_heads):
        qs, ks, vs = (a[:, h * dk : (h + 1) * dk] for a in (q, k, v))
        for i in range(t):
            scores = np.array([qs[i] @ ks[j] / math.sqrt(dk) for j in range(t)])
            probs = _oracle_softmax_row(scores)
            ctx[i, h * dk : (h + 1) * dk] = sum(probs[j] * vs[j] for j in range(t))
    return ctx @ p["attn.out.w"] + p["attn.out.b"]


def _oracle_ffn(x: np.ndarray, p: dict[str, np.ndarray], activation: str) -> np.ndarray:
    z = x @ p["ffn.w1"] + p["ffn.b1"]
    a = _oracle_gelu(z) if activation == "gelu" else np.maximum(z, 0.0)
    return a @ p["ffn.w2"] + p["ffn.b2"]


def oracle_encoder_layer(x: np.ndarray, p: dict[str, np.ndarray], cfg: ModelConfig) -> np.ndarray:
    if cfg.norm_placement == "pre":
        y = x + _oracle_attention(_oracle_layer_norm(x, p["attn_norm.gamma"], p["attn_norm.beta"]), p, cfg.n_heads)
        return y + _oracle_ffn(_oracle_layer_norm(y, p["ffn_norm.gamma"], p["ffn_norm.beta"]), p, cfg.ffn_activation)
    y = _oracle_layer_norm(x + _oracle_attention(x, p, cfg.n_heads), p["attn_norm.gamma"], p["attn_norm.beta"])
    return _oracle_layer_norm(y + _oracle_ffn(y, p, cfg.ffn_activation), p["ffn_norm.gamma"], p["ffn_norm.beta"])


def oracle_forward(spec_values: np.ndarray, registry: ParameterRegistry, cfg: ModelConfig) -> np.ndarray:
    """Whole-model forward recomputed independently (loops + plain matmuls)."""
    h1 = _oracle_gelu(naive_conv1d(spec_values, registry["conv1.w"], registry["conv1.b"], 1, 1))
    h2 = _oracle_gelu(naive_conv1d(h1, registry["conv2.w"], registry["conv2.b"], 2, 1)).T
    h = h2 + registry["embed_positions"][: h2.shape[0]]
    for layer in range(cfg.n_layers):
        p = {
            key: registry[f"layers.{layer}.{key}"]
            for key in (
                "attn.q.w", "attn.q.b", "attn.k.w", "attn.v.w", "attn.v.b",
                "attn.out.w", "attn.out.b", "attn_norm.gamma", "attn_norm.beta",
                "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ffn_norm.gamma", "ffn_norm.beta",
            )
        }
        h = oracle_encoder_layer(h, p, cfg)
    g = _oracle_layer_norm(
        h, registry["post_encoder_layernorm.gamma"], registry["post_encoder_layernorm.beta"]
    )
    pooled = g.mean(axis=0)
    u = pooled @ registry["projector.w"] + registry["projector.b"]
    return u @ registry["classifier.w"] + registry["classifier.b"]


# ---------------------------------------------------------------------------
# Loss / optimizer / metric oracles


def naive_bce(logits: np.ndarray, targets: np.ndarray) -> float:
    """Sigmoid-then-log BCE, mean over elements. Unstable for large |z|."""
    total = 0.0
    z_flat = np.asarray(logits, dtype=np.float64).reshape(-1)
    y_flat = np.asarray(targets, dtype=np.float64).reshape(-1)
    for z, y in zip(z_flat, y_flat):
        p = 1.0 / (1.0 + math.exp(-z))
        total += -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    return total / z_flat.size


def hand_adam_trace(
    grad_fn, w0: float, steps: int, lr: float, beta1=0.9, beta2=0.999, eps=1e-8
) -> list[float]:
    """Scalar Adam stepped by hand; returns the iterate after each step."""
    w, m, v = w0, 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        w = w - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(w)
    return out


def brute_force_f1(predictions, targets) -> dict:
    """Confusion counting with explicit loops; returns all three aggregates."""
    n_classes = len(targets[0])
    tp = [0] * n_classes
    fp = [0] * n_classes
    fn = [0] * n_classes
    support = [0] * n_classes
    for pred, tgt in zip(predictions, targets):
        for c in range(n_classes):
            if tgt[c] == 1:
                support[c] += 1
            if pred[c] == 1 and tgt[c] == 1:
                tp[c] += 1
            elif pred[c] == 1 and tgt[c] == 0:
                fp[c] += 1
            elif pred[c] == 0 and tgt[c] == 1:
                fn[c] += 1

    def f1(tp_c, fp_c, fn_c):
        d = 2 * tp_c + fp_c + fn_c
        return 2 * tp_c / d if d else 0.0

    per_class = [f1(tp[c], fp[c], fn[c]) for c in range(n_classes)]
    micro = f1(sum(tp), sum(fp), sum(fn))
    macro = sum(per_class) / n_classes
    total = sum(support)
    weighted = sum(per_class[c] * support[c] for c in range(n_classes)) / total if total else 0.0
    return {
        "per_class": per_class, "micro": micro, "macro": macro, "weighted": weighted,
        "tp": tp, "fp": fp, "fn": fn, "support": support,
    }


# ---------------------------------------------------------------------------
# Gradient checking


def finite_diff_check(loss_fn, registry: ParameterRegistry, grads: dict[str, np.ndarray],
                      h: float = 1e-3, tol: float = 1e-4) -> float:
    """Central-difference check of every trainable scalar against grads.

    Passes iff |g - g_hat| <= tol * max(1, |g|, |g_hat|) everywhere; returns
    the worst normalized error. loss_fn() must read the registry live.
    """
    worst = 0.0
    for name, entry in registry.items():
        if not entry.trainable:
            continue
        flat = entry.value.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = gflat[i]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
            assert err <= tol, f"{name}[{i}]: analytic {analytic} vs numeric {numeric}"
    return worst


# ---------------------------------------------------------------------------
# Fixture builders


def tiny_model_config(**overrides) -> ModelConfig:
    base = dict(d_model=8, n_layers=2, n_heads=2, d_ffn=16, n_mels=4,
                max_positions=4, d_proj=8)
    base.update(overrides)
    return ModelConfig(**base)


def write_tone_wav(path, seconds: float, freq: float, amplitude: float = 0.5) -> None:
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    x = amplitude * np.sin(2.0 * np.pi * freq * t)
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def write_pcm_wav(path, pcm_values, sample_rate: int = SAMPLE_RATE) -> None:
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(np.asarray(pcm_values, dtype="<i2").tobytes())


INVENTORY_HEADER = (
    ["clip_id", "episode_id", "speaker_id", "duration_s", "n_speakers", "source"]
    + [f"votes_{l}" for l in LABELS]
    + ["votes_other_json"]
)


def inventory_row(clip_id, episode_id, speaker_id, duration_s, label=None,
                  n_speakers=1, votes=None, other_votes=None):
    """One CSV row; label=<name> shorthand for a unanimous 3/3 vote."""
    if votes is None:
        votes = {l: (3 if l == label else 0) for l in LABELS}
    return (
        [clip_id, episode_id, speaker_id, duration_s, n_speakers, "SEP28k"]
        + [votes.get(l, 0) for l in LABELS]
        + [json.dumps(other_votes) if other_votes else ""]
    )


def write_inventory_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(INVENTORY_HEADER)
        writer.writerows(rows)


def curation_fixture(root, speakers=("spkA", "spkB", "spkC", "spkD"),
                     n_no_stutter: int = 3, tone_base: float = 200.0):
    """Inventory CSV + tone WAVs + groups JSON: one clip per disfluent label
    plus n_no_stutter fluent clips per speaker, one episode per speaker.
    Returns (inventory_path, audio_dir, groups_path)."""
    audio_dir = root / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for si, spk in enumerate(speakers):
        episode = f"ep{si}"
        for li, label in enumerate(LABELS[:5]):
            cid = f"{spk}_{label}"
            write_tone_wav(audio_dir / f"{cid}.wav", 3.5, tone_base + 40 * li + 150 * si)
            rows.append(inventory_row(cid, episode, spk, 3.5, label=label))
        for j in range(n_no_stutter):
            cid = f"{spk}_ns{j}"
            write_tone_wav(audio_dir / f"{cid}.wav", 3.2, 900.0 + 15 * j + 150 * si)
            rows.append(inventory_row(cid, episode, spk, 3.2, label="NoStutteredWords"))
    inventory = root / "inventory.csv"
    write_inventory_csv(inventory, rows)
    groups = root / "groups.json"
    groups.write_text(json.dumps(
        {"4-DS": [speakers[0]], "DS-Set 1": [speakers[1]],
         "DS-Set 2": [speakers[2]], "FB": [speakers[3]]}
    ), encoding="utf-8")
    return inventory, audio_dir, groups


# The tiny config of the criterion-6 chain (test_acceptance.py, tools/golden.py).
CRITERION_6_CONFIG = dict(
    d_model=16, n_layers=2, n_heads=2, d_ffn=32, n_mels=12,
    max_positions=256, d_proj=12, chunk_length_s=3.0,
    learning_rate=0.001, batch_size=4, max_epochs=50,
    early_stop_patience=10, max_steps=50,
)


def write_config_file(path, **keys) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()), encoding="utf-8")


def json_bytes(obj) -> bytes:
    return json.dumps(obj).encode()


def without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def rewrite_header(path, corrupt) -> None:
    """Rewrite a checkpoint or `.melspec` dump in place with its JSON header
    line and blob replaced by corrupt(header dict, blob) -> (bytes, bytes)."""
    header, blob = path.read_bytes().split(b"\n", 1)
    header, blob = corrupt(json.loads(header), blob)
    path.write_bytes(header + b"\n" + blob)


def edit_checkpoint_tensors(src, dst, edit) -> None:
    """Copy checkpoint src to dst with `edit` applied to its tensor
    descriptors; the tensor blob is copied unchanged."""
    header, blob = src.read_bytes().split(b"\n", 1)
    manifest = json.loads(header)
    edit(manifest["tensors"])
    dst.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)


def load_tool(path):
    """The script at path (under tools/) as a module, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave tools/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def traced_memory(fn, runs: int = 2) -> tuple[int, int]:
    """(held, peak) bytes that tracemalloc counts above its start while fn
    runs: `held` once fn has returned, with its result still referenced, and
    `peak` the highest count during the call. Each is the lowest over `runs`
    calls. Now and then the interpreter rebuilds a table of its own inside
    one call (once seen: a 1.92 MB string-keyed dict table, whose older table
    predates tracing), which counts in that call only; memory that fn keeps
    or copies counts in every call."""
    readings = []
    for _ in range(runs):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()  # noqa: F841 - referenced so `held` counts it
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        readings.append((held - start, peak - start))
        del result
    return min(held for held, _ in readings), min(peak for _, peak in readings)


_TemporaryFile = tempfile.TemporaryFile  # tests patch the module's


class SnapshotFileSpy:
    """A stand-in for tempfile.TemporaryFile: a real temporary file that
    counts the bytes written to and read from it into `counts`; `short`
    makes each readinto fill its buffer but the last item along its first
    axis (one element of a 1-D array, one row of a 2-D one)."""

    def __init__(self, counts, short=False):
        self.file, self.counts, self.short = _TemporaryFile(), counts, short
        counts.update(written=0, read=0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def __getattr__(self, name):
        return getattr(self.file, name)

    def write(self, data):
        n = self.file.write(data)
        self.counts["written"] += n
        return n

    def readinto(self, buffer):
        n = self.file.readinto(memoryview(buffer)[: len(buffer) - self.short])
        self.counts["read"] += n
        return n
