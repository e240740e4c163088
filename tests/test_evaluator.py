"""Evaluator tests: thresholded prediction, per-class/micro/macro/weighted F1
against brute-force confusion counting, invariance properties, and report
serialization."""

import json

import numpy as np
import pytest

from helpers import brute_force_f1
from stutterkit.evaluator import (
    EmptySet,
    EvalReport,
    LengthMismatch,
    f1_report,
    predict,
)
from stutterkit.labels import LABELS


# ---------------------------------------------------------------------------
# predict


def test_predict_zero_logits_at_default_threshold():
    # sigmoid(0) = 0.5, and the comparison is >=
    assert predict(np.zeros(6)) == (1, 1, 1, 1, 1, 1)


def test_predict_signs():
    assert predict(np.array([2.0, -2.0, 0.1, -0.1, 10.0, -10.0])) == (1, 0, 1, 0, 1, 0)


def test_predict_threshold_moves_boundary():
    z = np.array([0.0, 1.0, -1.0])
    assert predict(z, threshold=0.8) == (0, 0, 0)  # sigmoid(1) = 0.731 < 0.8
    assert predict(z, threshold=0.7) == (0, 1, 0)
    assert predict(z, threshold=0.2) == (1, 1, 1)  # sigmoid(-1) = 0.269 >= 0.2


def test_predict_survives_extreme_logits():
    assert predict(np.array([1e9, -1e9])) == (1, 0)  # exp must not overflow


# ---------------------------------------------------------------------------
# f1_report basics


def test_perfect_predictions():
    rows = [(1, 0, 1, 0, 0, 1), (0, 1, 0, 0, 1, 0), (1, 1, 1, 1, 1, 1)]
    report = f1_report(rows, rows)
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0
    assert report.weighted_f1 == 1.0
    assert report.per_class_f1 == (1.0,) * 6
    assert report.fp == (0,) * 6
    assert report.fn == (0,) * 6


def test_all_wrong_predictions():
    targets = [(1, 1, 1, 1, 1, 1)]
    preds = [(0, 0, 0, 0, 0, 0)]
    report = f1_report(preds, targets)
    assert report.micro_f1 == 0.0
    assert report.macro_f1 == 0.0
    assert report.weighted_f1 == 0.0


def test_empty_class_scores_zero_not_nan():
    # class never true and never predicted: 0/0 defined as 0
    targets = [(1, 0), (1, 0)]
    preds = [(1, 0), (1, 0)]
    report = f1_report(preds, targets)
    assert report.per_class_f1 == (1.0, 0.0)
    assert report.macro_f1 == 0.5
    assert report.micro_f1 == 1.0  # pooled counts see no FP/FN
    assert report.weighted_f1 == 1.0  # the empty class has no weight


def test_hand_worked_three_class_case():
    # class 0: tp=2 fp=0 fn=0 -> 1.0; class 1: tp=1 fp=0 fn=0 -> 1.0
    # class 2: tp=0 fp=1 fn=1 -> 0.0
    targets = [(1, 1, 0), (1, 0, 1)]
    preds = [(1, 1, 1), (1, 0, 0)]
    report = f1_report(preds, targets)
    assert report.per_class_f1 == (1.0, 1.0, 0.0)
    assert report.macro_f1 == pytest.approx(0.6667, abs=1e-4)
    # pooled: tp=3, fp=1, fn=1 -> 6/8
    assert report.micro_f1 == pytest.approx(0.75, abs=1e-12)
    # supports (2, 1, 1): (2*1 + 1*1 + 1*0) / 4
    assert report.weighted_f1 == pytest.approx(0.75, abs=1e-12)
    assert report.support == (2, 1, 1)
    assert report.n_examples == 2


def test_micro_pools_before_dividing():
    # micro differs from macro when errors concentrate in one class
    targets = [(1, 1), (1, 1), (1, 1), (1, 1)]
    preds = [(1, 0), (1, 0), (1, 0), (1, 0)]
    report = f1_report(preds, targets)
    assert report.per_class_f1 == (1.0, 0.0)
    assert report.macro_f1 == 0.5
    assert report.micro_f1 == pytest.approx(8 / 12)  # tp=4, fn=4


def test_weighted_uses_support():
    targets = [(1, 0), (1, 0), (1, 0), (0, 1)]
    preds = [(1, 0), (1, 0), (0, 0), (0, 0)]
    report = f1_report(preds, targets)
    f1_a = 2 * 2 / (2 * 2 + 0 + 1)
    assert report.per_class_f1 == (pytest.approx(f1_a), 0.0)
    assert report.weighted_f1 == pytest.approx((3 * f1_a + 1 * 0.0) / 4)


# ---------------------------------------------------------------------------
# oracle comparison and properties


def test_matches_brute_force_on_random_data():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, 8))
        targets = [tuple(int(b) for b in rng.integers(0, 2, size=k)) for _ in range(n)]
        preds = [tuple(int(b) for b in rng.integers(0, 2, size=k)) for _ in range(n)]
        report = f1_report(preds, targets)
        want = brute_force_f1(preds, targets)
        assert report.per_class_f1 == tuple(want["per_class"]), trial
        assert report.micro_f1 == want["micro"], trial
        # macro/weighted may differ from the loop oracle in the last ulp
        assert report.macro_f1 == pytest.approx(want["macro"], abs=1e-12), trial
        assert report.weighted_f1 == pytest.approx(want["weighted"], abs=1e-12), trial
        assert report.tp == tuple(want["tp"]) and report.fp == tuple(want["fp"])
        assert report.fn == tuple(want["fn"]) and report.support == tuple(want["support"])


def test_example_order_invariance():
    rng = np.random.default_rng(1)
    targets = [tuple(int(b) for b in rng.integers(0, 2, size=6)) for _ in range(20)]
    preds = [tuple(int(b) for b in rng.integers(0, 2, size=6)) for _ in range(20)]
    base = f1_report(preds, targets)
    perm = rng.permutation(20)
    shuffled = f1_report([preds[i] for i in perm], [targets[i] for i in perm])
    assert shuffled == base


def test_micro_invariant_under_class_relabeling():
    rng = np.random.default_rng(2)
    targets = [tuple(int(b) for b in rng.integers(0, 2, size=6)) for _ in range(15)]
    preds = [tuple(int(b) for b in rng.integers(0, 2, size=6)) for _ in range(15)]
    base = f1_report(preds, targets)
    perm = list(rng.permutation(6))
    relabel = lambda rows: [tuple(row[j] for j in perm) for row in rows]
    swapped = f1_report(relabel(preds), relabel(targets))
    assert swapped.micro_f1 == base.micro_f1
    assert swapped.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)
    assert sorted(swapped.per_class_f1) == sorted(base.per_class_f1)


def test_weighted_equals_macro_on_equal_supports():
    targets = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    preds = [(1, 1, 0), (0, 1, 0), (1, 0, 0)]
    report = f1_report(preds, targets)
    assert report.support == (1, 1, 1)
    assert report.weighted_f1 == pytest.approx(report.macro_f1, abs=1e-12)


def test_fixing_a_false_negative_never_lowers_micro():
    rng = np.random.default_rng(3)
    for _ in range(50):
        targets = [tuple(int(b) for b in rng.integers(0, 2, size=4)) for _ in range(8)]
        preds = [list(p) for p in targets]
        # corrupt some predictions
        for p in preds:
            for c in range(4):
                if rng.random() < 0.3:
                    p[c] ^= 1
        base = f1_report([tuple(p) for p in preds], targets)
        # find one false negative and fix it
        fixed = False
        for i, (p, t) in enumerate(zip(preds, targets)):
            for c in range(4):
                if t[c] == 1 and p[c] == 0:
                    p[c] = 1
                    fixed = True
                    break
            if fixed:
                break
        if not fixed:
            continue
        better = f1_report([tuple(p) for p in preds], targets)
        assert better.micro_f1 >= base.micro_f1


# ---------------------------------------------------------------------------
# validation and class naming


def test_length_mismatch_cases():
    with pytest.raises(LengthMismatch):
        f1_report([(1, 0)], [(1, 0), (0, 1)])
    with pytest.raises(LengthMismatch):
        f1_report([(1, 0), (1,)], [(1, 0), (0, 1)])
    with pytest.raises(EmptySet):
        f1_report([], [])


def test_default_class_names():
    six = f1_report([(1, 0, 0, 0, 0, 0)], [(1, 0, 0, 0, 0, 0)])
    assert six.class_names == LABELS
    three = f1_report([(1, 0, 0)], [(1, 0, 0)])
    assert three.class_names == ("class_0", "class_1", "class_2")


def test_labels_are_the_six_disfluency_classes():
    assert LABELS == (
        "Block", "Interjection", "Prolongation", "SoundRep", "WordRep", "NoStutteredWords",
    )


# ---------------------------------------------------------------------------
# serialization


def _sample_report():
    targets = [(1, 1, 0), (1, 0, 1)]
    preds = [(1, 1, 1), (1, 0, 0)]
    return f1_report(preds, targets, threshold=0.5)


def test_to_dict_round_trips_through_json():
    report = _sample_report()
    data = json.loads(json.dumps(report.to_dict()))
    assert data["n_examples"] == 2
    assert data["threshold"] == 0.5
    assert data["micro_f1"] == report.micro_f1
    assert [row["label"] for row in data["per_class"]] == ["class_0", "class_1", "class_2"]
    assert [row["support"] for row in data["per_class"]] == [2, 1, 1]


def test_to_text_layout():
    text = _sample_report().to_text()
    lines = text.splitlines()
    # header, three averages, one row per class
    assert len(lines) == 1 + 3 + 3
    assert lines[1].startswith("Micro F1")
    assert lines[2].startswith("Macro F1")
    assert lines[3].startswith("Weighted F1")
    assert lines[4].startswith("class_0")
    assert "0.7500" in lines[1]
    assert "0.6667" in lines[2]


def test_report_equality_is_structural():
    assert _sample_report() == _sample_report()
    assert isinstance(_sample_report(), EvalReport)
