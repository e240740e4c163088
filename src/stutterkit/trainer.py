"""Fine-tuning loop: binary cross-entropy over six label bits, Adam at its
published constants, layer freezing, and early stopping on validation
macro-F1.

A training example is (spectrogram values [n_mels x T], label bits [6]).
Gradients are averaged over the batch AND the six classes, so the loss is
the mean element-wise BCE. Frozen parameters receive no updates and keep
their initial values bit-for-bit.

Gradients and Adam moments are in the registry's dtype (float32 for
registries from build_registry's default). The six-element loss and its
gradient with respect to the logits are computed in float64; backward_pass
casts that gradient to the registry's dtype.
"""

from __future__ import annotations

import json
import math
import tempfile
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import model
from .evaluator import EvalReport, check_threshold, f1_report, predict, sigmoid
from .model import ModelConfig, ParameterRegistry, backward_pass, forward_with_cache


class EmptyDataset(Exception):
    """Training or validation split has no examples."""


class NonFiniteGradient(ValueError):
    """NaN or Inf gradient; the step is refused."""


# Adam's published defaults (Kingma & Ba, arXiv 1412.6980), which the paper fine-tunes with.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2.5e-5
    batch_size: int = 8
    max_epochs: int = 50
    early_stop_patience: int = 3
    threshold: float = 0.5
    max_steps: int | None = None  # optimizer-step cap, checked across epochs

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        for name in ("batch_size", "max_epochs", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 or none")
        check_threshold(self.threshold)


@dataclass
class TrainState:
    """Adam moments keyed like the registry, plus the optimizer step count."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean element-wise binary cross-entropy, computed in the overflow-safe
    form max(z,0) - z*y + log(1 + exp(-|z|))."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if z.shape != y.shape:
        raise ValueError(f"logits shape {z.shape} != targets shape {y.shape}")
    per_element = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(per_element.mean())


def bce_with_logits_grad(logits: np.ndarray, targets: np.ndarray, batch_size: int = 1) -> np.ndarray:
    """d(mean BCE)/d logits = (sigmoid(z) - y) / (N * batch_size), N = the
    element count of z: one example's share of a batch's mean BCE."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    return (sigmoid(z) - y) / (z.size * batch_size)


def backward(
    batch: list[tuple[np.ndarray, np.ndarray]],
    registry: ParameterRegistry,
    cfg: ModelConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and parameter gradients for a batch, averaged so the loss is the
    mean element-wise BCE over batch x classes. Only trainable parameters
    appear in the gradient dict: one zero-filled accumulator each, passed to
    every example's backward_pass as `into`, so each element sums 0 + g1 +
    g2 ... in example order and no example's whole gradient dict is held."""
    if not batch:
        raise EmptyDataset("cannot run a backward pass on an empty batch")
    n = len(batch)
    grads = {name: np.zeros_like(e.value) for name, e in registry.items() if e.trainable}
    total_loss = 0.0
    for values, bits in batch:
        logits, cache = forward_with_cache(values, registry, cfg)
        total_loss += bce_with_logits(logits, bits)
        backward_pass(bce_with_logits_grad(logits, bits, n), cache, registry, cfg, into=grads)
        del cache  # free before the next example's forward
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient for {name!r}")
    return total_loss / n, grads


def adam_update(
    registry: ParameterRegistry,
    grads: dict[str, np.ndarray],
    state: TrainState,
    cfg: TrainConfig,
) -> None:
    """One Adam step (BETA1, BETA2, EPS) over the trainable parameters, in place.

    Each tensor runs, one model.BLOCK of elements at a time, the chain
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        w -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
    in place, with two block-sized scratch buffers for its temporaries and the
    same operations in the same order, so results are bit-identical."""
    state.step += 1
    t = state.step
    bc1, bc2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    for name, g in grads.items():
        entry = registry.entry(name)
        if not entry.trainable:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(entry.value)
            state.v[name] = np.zeros_like(entry.value)
        scratch = np.empty((2, min(g.size, model.BLOCK)), np.result_type(g, 0.0))
        for gb, m, v, w in model.blocks(g, state.m[name], state.v[name], entry.value):
            step, denom = scratch[:, : gb.size]
            np.multiply(gb, 1.0 - BETA1, out=step)
            m *= BETA1
            m += step
            np.multiply(gb, 1.0 - BETA2, out=denom)
            denom *= gb
            v *= BETA2
            v += denom
            np.divide(m, bc1, out=step)
            step *= cfg.learning_rate
            np.divide(v, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            w -= step


def train_step(
    batch: list[tuple[np.ndarray, np.ndarray]],
    registry: ParameterRegistry,
    state: TrainState,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> float:
    """backward + adam_update; returns the batch loss."""
    loss, grads = backward(batch, registry, model_cfg)
    adam_update(registry, grads, state, train_cfg)
    return loss


def forward_split(
    examples: Iterable[tuple], registry: ParameterRegistry, model_cfg: ModelConfig,
    stop: int | None = None,
) -> list[tuple[np.ndarray | model.LayerInput, np.ndarray]]:
    """[(output, bits), ...] in example order: each input's logits, or with
    `stop` its model.LayerInput to encoder layer `stop`. Iterates `examples`
    once and holds one clip's activations at a time."""
    return [
        (model.forward(values, registry, model_cfg) if stop is None
         else model.forward_prefix(values, registry, model_cfg, stop), bits)
        for values, bits in examples
    ]


def evaluate_split(
    examples: Sequence[tuple[np.ndarray | model.LayerInput, np.ndarray]],
    registry: ParameterRegistry,
    model_cfg: ModelConfig,
    threshold: float,
) -> tuple[float, EvalReport]:
    """(mean loss, F1 report) over a split whose inputs are spectrograms or
    model.LayerInput outputs of the registry's frozen prefix."""
    if not examples:
        raise EmptyDataset("validation split is empty")
    scored = forward_split(examples, registry, model_cfg)
    loss = float(np.mean([bce_with_logits(logits, bits) for logits, bits in scored]))
    preds = [predict(logits, threshold) for logits, _ in scored]
    targets = [tuple(int(b) for b in bits) for _, bits in scored]
    return loss, f1_report(preds, targets, threshold=threshold)


def fit(
    train_examples: Sequence[tuple[np.ndarray, np.ndarray]],
    val_examples: Sequence[tuple[np.ndarray, np.ndarray]],
    registry: ParameterRegistry,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seed=0,
) -> tuple[ParameterRegistry, list[dict]]:
    """Full fine-tuning loop.

    Each epoch shuffles the training set (seeded permutation), walks it in
    batches of batch_size (last batch may be short), then scores the
    validation split. Early stopping keeps the parameters from the best
    epoch: a strict improvement in validation macro-F1 resets the patience
    counter; after early_stop_patience consecutive non-improving epochs
    training stops, so a constant metric runs patience+1 epochs (the first
    always improves on the -inf initial score). Training also stops after
    the epoch in which the step count reaches max_steps, so every epoch takes
    at least one step. `seed` seeds the shuffle stream.

    The best epoch's weights are kept in an anonymous temporary file (under
    TMPDIR, removed when fit returns or raises), not in memory: an improving
    epoch that another epoch may follow writes the trainable tensors' bytes
    there, straight from the registry's arrays (only tensors the registry
    marks trainable change; see model.apply_freeze). An improving last epoch
    writes nothing, since the registry already holds it. If the best epoch
    is not the last one run, its bytes are read back into the same arrays.
    An OSError writing or reading the snapshot propagates; a short read
    raises one naming the tensor.

    `fit` indexes train_examples one batch at a time and iterates
    val_examples once per scoring pass, so a lazy sequence holds only the
    examples in use. When the feature extractor and the first k encoder
    layers are frozen (model.frozen_prefix_depth), val_examples is iterated
    once: each validation clip's layer-k input is computed before the first
    epoch, and every epoch scores validation from there.

    Returns (registry, per-epoch history rows): the input registry itself,
    restored to the best epoch's weights.
    """
    if not train_examples:
        raise EmptyDataset("training split is empty")
    if not val_examples:
        raise EmptyDataset("validation split is empty")
    depth = model.frozen_prefix_depth(registry, model_cfg)
    if depth is not None:
        val_examples = forward_split(val_examples, registry, model_cfg, depth)
    trainable = [name for name, e in registry.items() if e.trainable]
    state = TrainState()
    rng = np.random.default_rng(seed)
    best_epoch, best_score = -1, -np.inf
    epochs_since_improvement = 0
    history: list[dict] = []
    with tempfile.TemporaryFile() as snapshot:
        for epoch in range(train_cfg.max_epochs):
            order = rng.permutation(len(train_examples))
            epoch_losses = []
            for start in range(0, len(order), train_cfg.batch_size):
                if state.step == train_cfg.max_steps:
                    break
                batch = [train_examples[i] for i in order[start : start + train_cfg.batch_size]]
                epoch_losses.append(train_step(batch, registry, state, model_cfg, train_cfg))
            val_loss, report = evaluate_split(
                val_examples, registry, model_cfg, train_cfg.threshold
            )
            last = epoch == train_cfg.max_epochs - 1 or state.step == train_cfg.max_steps
            improved = report.macro_f1 > best_score
            if improved:
                best_epoch, best_score = epoch, report.macro_f1
                epochs_since_improvement = 0
                if not last:
                    snapshot.seek(0)
                    for name in trainable:
                        snapshot.write(registry[name])
                    snapshot.flush()
            else:
                epochs_since_improvement += 1
            history.append(
                {
                    "epoch": epoch,
                    "step": state.step,
                    "train_loss": float(np.mean(epoch_losses)),
                    "val_loss": val_loss,
                    "val_micro": report.micro_f1,
                    "val_macro": report.macro_f1,
                    "val_weighted": report.weighted_f1,
                    "score": report.macro_f1,
                    "improved": improved,
                }
            )
            if last or epochs_since_improvement >= train_cfg.early_stop_patience:
                break
        if best_epoch != epoch:
            snapshot.seek(0)
            for name in trainable:
                if snapshot.readinto(registry[name]) != registry[name].nbytes:
                    raise OSError(f"best-epoch snapshot: short read restoring {name!r}")
    return registry, history


def write_history(path: str | Path, history: list[dict]) -> None:
    """One JSON object per line, in epoch order."""
    with open(path, "w", encoding="utf-8") as f:
        for row in history:
            f.write(json.dumps(row, sort_keys=True) + "\n")
