"""Multi-label evaluation: sigmoid-threshold predictions and F1 reporting.

Per-class F1 is 2*TP / (2*TP + FP + FN) with the 0/0 case defined as 0.
Micro F1 pools TP/FP/FN over all classes before the ratio; macro F1 is the
unweighted mean of per-class F1; weighted F1 weights each class by its
support (true-positive-label count). The report is generic over the number
of classes: it is inferred from the label tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .labels import LABELS


class LengthMismatch(ValueError):
    """Predictions and targets differ in count or in width."""


class EmptySet(ValueError):
    """No examples to score."""


def check_threshold(threshold: float) -> None:
    """ValueError unless threshold is a decision threshold: in [0, 1], not NaN."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, as exp(z) / (1 + exp(z)) where z < 0 so no exp overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def predict(logits: np.ndarray, threshold: float = 0.5) -> tuple[int, ...]:
    """Label bits from logits: bit i is 1 iff sigmoid(logit_i) >= threshold."""
    probs = sigmoid(np.asarray(logits, dtype=np.float64))
    return tuple(int(p >= threshold) for p in probs)


@dataclass
class EvalReport:
    per_class_f1: tuple[float, ...]
    micro_f1: float
    macro_f1: float
    weighted_f1: float
    support: tuple[int, ...]
    tp: tuple[int, ...]
    fp: tuple[int, ...]
    fn: tuple[int, ...]
    n_examples: int
    threshold: float | None = None
    class_names: tuple[str, ...] = field(default=LABELS)

    def to_dict(self) -> dict:
        return {
            "n_examples": self.n_examples,
            "threshold": self.threshold,
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "per_class": [
                {
                    "label": name,
                    "f1": f1,
                    "support": s,
                    "tp": tp,
                    "fp": fp,
                    "fn": fn,
                }
                for name, f1, s, tp, fp, fn in zip(
                    self.class_names, self.per_class_f1, self.support,
                    self.tp, self.fp, self.fn,
                )
            ],
        }

    def to_text(self) -> str:
        """Aligned table: the three averages first, then one row per class."""
        rows = [
            ("Micro F1", self.micro_f1, sum(self.support)),
            ("Macro F1", self.macro_f1, sum(self.support)),
            ("Weighted F1", self.weighted_f1, sum(self.support)),
        ] + [
            (name, f1, s)
            for name, f1, s in zip(self.class_names, self.per_class_f1, self.support)
        ]
        name_w = max(len(r[0]) for r in rows)
        lines = [f"{'':{name_w}}      F1  support"]
        for name, f1, s in rows:
            lines.append(f"{name:{name_w}}  {f1:.4f}  {s:7d}")
        return "\n".join(lines)


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def f1_report(
    predictions: list[tuple[int, ...]],
    targets: list[tuple[int, ...]],
    threshold: float | None = None,
) -> EvalReport:
    """Score multi-label predictions against targets (lists of 0/1 tuples).

    Six-wide labels are named by LABELS, any other width class_0, class_1, ...
    `threshold` is carried into the report as metadata only; thresholding
    itself happens in predict().
    """
    if len(targets) != len(predictions):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(targets)} targets"
        )
    if not targets:
        raise EmptySet("no examples to score")
    widths = {len(t) for t in targets} | {len(p) for p in predictions}
    if len(widths) != 1:
        raise LengthMismatch(f"inconsistent label widths: {sorted(widths)}")
    n_classes = widths.pop()
    class_names = LABELS if n_classes == len(LABELS) else tuple(
        f"class_{i}" for i in range(n_classes)
    )
    y = np.asarray(targets, dtype=np.int64)
    p = np.asarray(predictions, dtype=np.int64)
    tp = np.sum((y == 1) & (p == 1), axis=0)
    fp = np.sum((y == 0) & (p == 1), axis=0)
    fn = np.sum((y == 1) & (p == 0), axis=0)
    support = np.sum(y == 1, axis=0)
    per_class = tuple(_f1_from_counts(int(a), int(b), int(c)) for a, b, c in zip(tp, fp, fn))
    micro = _f1_from_counts(int(tp.sum()), int(fp.sum()), int(fn.sum()))
    macro = float(np.mean(per_class))
    total_support = int(support.sum())
    weighted = (
        float(np.dot(per_class, support) / total_support) if total_support else 0.0
    )
    return EvalReport(
        per_class_f1=per_class,
        micro_f1=micro,
        macro_f1=macro,
        weighted_f1=weighted,
        support=tuple(int(s) for s in support),
        tp=tuple(int(x) for x in tp),
        fp=tuple(int(x) for x in fp),
        fn=tuple(int(x) for x in fn),
        n_examples=len(targets),
        threshold=threshold,
        class_names=class_names,
    )
