"""Trainer tests: BCE loss and gradient against unstable-form and finite
difference oracles, Adam against a hand-stepped scalar trace, freeze masks,
early stopping control flow, and run-to-run determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import stutterkit.model as model_mod
import stutterkit.trainer as trainer_mod
from helpers import (
    SnapshotFileSpy,
    finite_diff_check,
    hand_adam_trace,
    naive_bce,
    set_worker,
    tiny_model_config,
    traced_memory,
    watch_model_calls,
)
from stutterkit.evaluator import sigmoid
from stutterkit.model import (
    FEATURE_EXTRACTOR,
    HEAD,
    FreezeConfig,
    ModelConfig,
    NonFiniteInput,
    ParameterRegistry,
    apply_freeze,
    build_registry,
    forward_with_cache,
    parse_freeze_spec,
)
from stutterkit.trainer import (
    EmptyDataset,
    NonFiniteGradient,
    TrainConfig,
    TrainState,
    adam_update,
    backward,
    bce_with_logits,
    bce_with_logits_grad,
    evaluate_split,
    fit,
    forward_split,
    train_step,
    write_history,
)

TINY = tiny_model_config()
_ALL_BUT_HEAD = frozenset(
    {FEATURE_EXTRACTOR} | {f"encoder_layer_{k}" for k in range(TINY.n_layers)}
)


def _examples(n, cfg=TINY, seed=0, t=8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.uniform(-1.0, 1.0, size=(cfg.n_mels, t))
        y = rng.integers(0, 2, size=6).astype(float)
        out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# sigmoid


def test_sigmoid_basics():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([1000.0]))[0] == 1.0
    assert sigmoid(np.array([-1000.0]))[0] == 0.0  # must not overflow
    z = np.linspace(-20, 20, 101)
    assert np.max(np.abs(sigmoid(z) - 1.0 / (1.0 + np.exp(-z)))) < 1e-12


# ---------------------------------------------------------------------------
# BCE loss


def test_bce_zero_logits_is_ln2():
    z = np.zeros((3, 6))
    for y in (np.zeros((3, 6)), np.ones((3, 6))):
        assert bce_with_logits(z, y) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_confident_correct_is_near_zero():
    assert bce_with_logits(np.array([50.0]), np.array([1.0])) < 1e-12
    assert bce_with_logits(np.array([-50.0]), np.array([0.0])) < 1e-12


def test_bce_hand_value():
    # sigmoid(ln 4) = 0.8, so the loss on a positive target is -ln 0.8
    z = np.array([math.log(4.0)])
    assert bce_with_logits(z, np.array([1.0])) == pytest.approx(0.2231435513, abs=1e-9)
    assert bce_with_logits(z, np.array([0.0])) == pytest.approx(-math.log(0.2), abs=1e-9)


def test_bce_matches_unstable_form_in_safe_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.uniform(-20.0, 20.0, size=(4, 6))
        y = rng.integers(0, 2, size=(4, 6)).astype(float)
        assert bce_with_logits(z, y) == pytest.approx(naive_bce(z, y), abs=1e-6)


def test_bce_safe_at_extreme_logits():
    # the sigmoid-then-log form would produce inf here
    assert bce_with_logits(np.array([1000.0]), np.array([1.0])) == 0.0
    assert bce_with_logits(np.array([1000.0]), np.array([0.0])) == pytest.approx(1000.0)
    assert bce_with_logits(np.array([-1000.0]), np.array([1.0])) == pytest.approx(1000.0)


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_with_logits(np.zeros(6), np.zeros(5))


def test_bce_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    z = rng.uniform(-3.0, 3.0, size=(2, 6))
    y = rng.integers(0, 2, size=(2, 6)).astype(float)
    g = bce_with_logits_grad(z, y)
    h = 1e-6
    for idx in np.ndindex(z.shape):
        zp, zm = z.copy(), z.copy()
        zp[idx] += h
        zm[idx] -= h
        numeric = (bce_with_logits(zp, y) - bce_with_logits(zm, y)) / (2 * h)
        assert g[idx] == pytest.approx(numeric, abs=1e-7)


def test_bce_grad_formula():
    z = np.array([[0.0, math.log(4.0)]])
    y = np.array([[1.0, 0.0]])
    g = bce_with_logits_grad(z, y)
    assert g[0, 0] == pytest.approx((0.5 - 1.0) / 2, abs=1e-12)
    assert g[0, 1] == pytest.approx(0.8 / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# backward


def test_backward_returns_only_trainable_grads():
    reg = build_registry(TINY, seed=0)
    apply_freeze(reg, FreezeConfig(_ALL_BUT_HEAD))
    loss, grads = backward(_examples(2), reg, TINY)
    assert math.isfinite(loss)
    head_names = {n for n, e in reg.items() if e.group == HEAD}
    assert set(grads) == head_names


def test_backward_duplicated_example_same_gradient():
    reg = build_registry(TINY, seed=1)
    ex = _examples(1, seed=2)[0]
    loss1, g1 = backward([ex], reg, TINY)
    loss2, g2 = backward([ex, ex], reg, TINY)
    assert loss2 == pytest.approx(loss1, abs=1e-12)
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-12), name


def test_backward_loss_is_mean_of_example_losses():
    reg = build_registry(TINY, seed=3)
    exs = _examples(3, seed=4)
    losses = [backward([e], reg, TINY)[0] for e in exs]
    batch_loss, _ = backward(exs, reg, TINY)
    assert batch_loss == pytest.approx(float(np.mean(losses)), abs=1e-12)


def test_backward_empty_batch():
    reg = build_registry(TINY, seed=0)
    with pytest.raises(EmptyDataset):
        backward([], reg, TINY)


def test_backward_head_gradients_match_finite_differences():
    # full-network checks run in the acceptance suite; this covers the
    # batch/class loss scaling through the head parameters
    reg = build_registry(TINY, seed=5, dtype=np.float64)
    apply_freeze(reg, FreezeConfig(_ALL_BUT_HEAD))
    batch = _examples(2, seed=6)
    _, grads = backward(batch, reg, TINY)

    def loss_fn():
        return backward(batch, reg, TINY)[0]

    worst = finite_diff_check(loss_fn, reg, grads, h=1e-3, tol=1e-4)
    assert worst < 1e-4


def test_backward_rejects_non_finite_gradient(monkeypatch):
    reg = build_registry(TINY, seed=0)

    def poisoned(dlogits, cache, registry, cfg, into):
        for g in into.values():
            g.fill(np.nan)
        return into

    monkeypatch.setattr(trainer_mod, "backward_pass", poisoned)
    with pytest.raises(NonFiniteGradient):
        backward(_examples(1), reg, TINY)


def test_gradients_and_adam_moments_stay_in_registry_dtype():
    reg = build_registry(TINY, seed=7)
    state = TrainState()
    loss, grads = backward(_examples(2, seed=8), reg, TINY)
    assert isinstance(loss, float)
    adam_update(reg, grads, state, TrainConfig())
    for name, e in reg.items():
        assert e.value.dtype == grads[name].dtype == np.float32, name
        assert state.m[name].dtype == state.v[name].dtype == np.float32, name


# ---------------------------------------------------------------------------
# Adam


def test_adam_matches_hand_trace_on_scalar_quadratic():
    # dL/dw = w - 3, minimized at w = 3
    reg = ParameterRegistry()
    reg.add("w", np.array([10.0]), HEAD)
    state = TrainState()
    cfg = TrainConfig(learning_rate=0.1)
    got = []
    for _ in range(5):
        g = {"w": reg["w"] - 3.0}
        adam_update(reg, g, state, cfg)
        got.append(float(reg["w"][0]))
    want = hand_adam_trace(lambda w: w - 3.0, 10.0, 5, 0.1)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-10
    assert state.step == 5


def test_adam_first_step_size_is_learning_rate():
    # bias correction makes |delta| ~ lr on step 1 regardless of grad scale
    for g0 in (0.1, 1.0, 1e6):
        reg = ParameterRegistry()
        reg.add("w", np.array([0.0]), HEAD)
        state = TrainState()
        adam_update(reg, {"w": np.array([g0])}, state, TrainConfig(learning_rate=0.01))
        assert float(reg["w"][0]) == pytest.approx(-0.01, rel=1e-4)


def test_adam_skips_frozen_entries():
    reg = ParameterRegistry()
    reg.add("w", np.array([1.0]), HEAD, trainable=False)
    state = TrainState()
    adam_update(reg, {"w": np.array([5.0])}, state, TrainConfig(learning_rate=0.1))
    assert float(reg["w"][0]) == 1.0


def test_adam_in_place_is_bit_identical_to_the_reference_expression():
    rng = np.random.default_rng(12)
    shapes = {"a": (64, 48), "b": (48,), "frozen": (5,)}
    reg = ParameterRegistry()
    for name, shape in shapes.items():
        reg.add(name, rng.normal(size=shape).astype(np.float32), HEAD, trainable=name != "frozen")
    ref = {name: reg[name].copy() for name in ("a", "b")}
    ref_m = {name: np.zeros_like(w) for name, w in ref.items()}
    ref_v = {name: np.zeros_like(w) for name, w in ref.items()}
    cfg = TrainConfig(learning_rate=1e-3)
    state = TrainState()
    for t in range(1, 5):
        grads = {name: rng.normal(size=shape).astype(np.float32) for name, shape in shapes.items()}
        adam_update(reg, grads, state, cfg)
        bc1, bc2 = 1.0 - trainer_mod.BETA1**t, 1.0 - trainer_mod.BETA2**t
        for name, w in ref.items():
            g, m, v = grads[name], ref_m[name], ref_v[name]
            m *= trainer_mod.BETA1
            m += (1.0 - trainer_mod.BETA1) * g
            v *= trainer_mod.BETA2
            v += (1.0 - trainer_mod.BETA2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            w -= cfg.learning_rate * mhat / (np.sqrt(vhat) + trainer_mod.EPS)
    for name, w in ref.items():
        assert reg[name].dtype == np.float32
        assert np.array_equal(reg[name], w), name
        assert np.array_equal(state.m[name], ref_m[name]), name
        assert np.array_equal(state.v[name], ref_v[name]), name
    assert "frozen" not in state.m


def _unblocked_adam(w, m, v, g, t, cfg):
    """One Adam step over the whole tensor at once, with full-size temporaries."""
    b1, b2 = trainer_mod.BETA1, trainer_mod.BETA2
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    step = np.multiply(g, 1.0 - b1)
    m *= b1
    m += step
    denom = np.multiply(g, 1.0 - b2)
    denom *= g
    v *= b2
    v += denom
    np.divide(m, bc1, out=step)
    step *= cfg.learning_rate
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += trainer_mod.EPS
    step /= denom
    w -= step


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_adam_equals_the_whole_tensor_chain_and_writes_only_weights_and_moments(dtype):
    rng = np.random.default_rng(13)
    block = model_mod.BLOCK
    shapes = {"block+1": (block + 1,), "odd": (3, block // 2 + 7), "one": (1,), "frozen": (block + 1,)}
    reg = ParameterRegistry()
    for name, shape in shapes.items():
        reg.add(name, rng.normal(size=shape).astype(dtype), HEAD, trainable=name != "frozen")
    frozen_before = reg["frozen"].copy()
    ref = {name: [reg[name].copy(), np.zeros_like(reg[name]), np.zeros_like(reg[name])]
           for name in shapes if name != "frozen"}
    cfg = TrainConfig(learning_rate=1e-3)
    state = TrainState()
    for t in range(1, 4):
        grads = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        grads_before = {name: g.copy() for name, g in grads.items()}
        adam_update(reg, grads, state, cfg)
        for name, (w, m, v) in ref.items():
            _unblocked_adam(w, m, v, grads[name], t, cfg)
        assert all(np.array_equal(grads[n], grads_before[n]) for n in grads)
    for name, (w, m, v) in ref.items():
        assert reg[name].dtype == state.m[name].dtype == dtype
        assert np.array_equal(reg[name], w), name
        assert np.array_equal(state.m[name], m), name
        assert np.array_equal(state.v[name], v), name
    assert np.array_equal(reg["frozen"], frozen_before)
    assert set(state.m) == set(state.v) == set(ref)


# ---------------------------------------------------------------------------
# config validation


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=0)


# ---------------------------------------------------------------------------
# evaluate_split


def test_evaluate_split_empty():
    reg = build_registry(TINY, seed=0)
    with pytest.raises(EmptyDataset):
        evaluate_split([], reg, TINY, threshold=0.5)


def test_evaluate_split_counts_examples():
    reg = build_registry(TINY, seed=0)
    exs = _examples(5, seed=7)
    loss, report = evaluate_split(exs, reg, TINY, threshold=0.5)
    assert math.isfinite(loss)
    assert report.n_examples == 5
    assert report.threshold == 0.5


def test_forward_split_resumed_from_any_layer_equals_the_full_pass():
    reg = build_registry(TINY, seed=42)
    exs = _examples(3, seed=43)
    full = forward_split(exs, reg, TINY)
    for k in range(TINY.n_layers + 1):
        prefix = forward_split(exs, reg, TINY, k)
        assert [out.layer for out, _ in prefix] == [k] * len(exs)
        resumed = forward_split(prefix, reg, TINY)
        assert len(resumed) == len(exs)
        for (logits, bits), (want, _), (_, y) in zip(resumed, full, exs):
            assert bits is y
            assert logits.dtype == want.dtype and logits.tobytes() == want.tobytes(), k


# ---------------------------------------------------------------------------
# memory: one example's forward cache alive at a time

# Long inputs and narrow weights, so the forward cache dominates traced memory.
WIDE_T = tiny_model_config(d_model=32, d_ffn=64, n_mels=16, max_positions=128)


@pytest.mark.parametrize("run", [
    lambda exs, reg: backward(exs, reg, WIDE_T),
    lambda exs, reg: evaluate_split(exs, reg, WIDE_T, threshold=0.5),
    lambda exs, reg: forward_split(exs, reg, WIDE_T),
], ids=["backward", "evaluate_split", "forward_split"])
def test_one_forward_cache_alive_at_a_time(run):
    reg = build_registry(WIDE_T, seed=40)
    exs = _examples(3, cfg=WIDE_T, seed=41, t=256)
    cache_bytes, _ = traced_memory(lambda: forward_with_cache(exs[0][0], reg, WIDE_T))
    _, peak_one = traced_memory(lambda: run(exs[:1], reg))
    _, peak_three = traced_memory(lambda: run(exs, reg))
    assert peak_three - peak_one < cache_bytes / 2, (peak_one, peak_three, cache_bytes)


# Wide weights and a short clip, so the trainable gradients dominate a step.
WIDE_D = tiny_model_config(d_model=256, n_layers=4, n_heads=2, d_ffn=1024, n_mels=16,
                           max_positions=1500, d_proj=64)


def test_a_backward_holds_each_trainable_gradient_about_once():
    """One accumulator per trainable tensor, one example's cache and one
    block's fresh gradients. Holding each example's whole gradient dict
    beside the accumulators took the peak to 2.18x the trainable bytes."""
    reg = apply_freeze(build_registry(WIDE_D, seed=44), parse_freeze_spec("UnFrz0-3", 4))
    batch = _examples(2, cfg=WIDE_D, seed=45, t=64)
    trainable_bytes = sum(e.value.nbytes for _, e in reg.items() if e.trainable)
    backward(batch, reg, WIDE_D)  # warm-up: first-call allocations stay out of the peak
    _, peak = traced_memory(lambda: backward(batch, reg, WIDE_D))
    assert peak < 1.6 * trainable_bytes, (peak, trainable_bytes)


def _work(cfg, frames):
    """One example's multiply-adds as the README states them: (forward,
    weight gradients, input gradients, attention backward), for a
    spectrogram of `frames` frames, so t = frames / 2 positions. conv1's
    input is the spectrogram, so it takes no input gradient; the head's
    products (under 1 M at paper scale) are not counted."""
    t, d, n = frames // 2, cfg.d_model, cfg.n_layers
    conv1, conv2 = 3 * frames * cfg.n_mels * d, 3 * t * d * d
    linear = 4 * t * d * d + 2 * t * d * cfg.d_ffn  # q, k, v, out and the two FFN products
    attention = 2 * t * t * d  # scores and context
    return (conv1 + conv2 + n * (linear + attention), conv1 + conv2 + n * linear,
            conv2 + n * linear, n * 2 * attention)


_MULTIPLY_ADDS = {  # per call of each product op; a backward's input gradient only if need_dx
    "_linear_fwd": lambda a: len(a["x"]) * a["w"].size,
    "_linear_bwd": lambda a: len(a["x"]) * a["w"].size * (1 + a["need_dx"]),
    "_conv_fwd": lambda a: len(a["x"]) // a["stride"] * a["w"].size,
    "_conv_bwd": lambda a: len(a["cols"]) * a["w"].size * (1 + a["need_dx"]),
    "_attention_core_fwd": lambda a: 2 * len(a["q"]) * len(a["k"]) * a["q"].shape[1],
    "_attention_core_bwd": lambda a: 4 * len(a["dctx"]) ** 2 * a["dctx"].shape[1],
}


def test_a_step_does_the_work_the_formula_gives_under_every_audit_spec(monkeypatch):
    """Counted, not timed: trainer.backward runs the README's multiply-adds
    per example under each of the seven audit specs, worker off and on. Every
    spec does the full count today: a frozen layer's backward still runs."""
    from stutterkit.cli import PARAM_AUDIT_SPECS

    paper = _work(ModelConfig(), 600)
    assert paper == (6_524_928_000, 5_971_968_000, 5_898_240_000, 1_105_920_000)
    assert sum(paper) == 19_501_056_000
    cfg = tiny_model_config(n_layers=6, max_positions=16)
    batch = _examples(2, cfg=cfg, seed=62, t=32)
    done = []
    watch_model_calls(monkeypatch, _MULTIPLY_ADDS, lambda name, a: done.append(_MULTIPLY_ADDS[name](a)))
    assert sum(_work(cfg, 32)) == 236_544
    for on in (False, True):
        set_worker(monkeypatch, on)
        for spec in PARAM_AUDIT_SPECS:
            done.clear()
            backward(batch, _freeze(spec, seed=63, cfg=cfg), cfg)
            assert sum(done) == len(batch) * sum(_work(cfg, 32)), (on, spec)


# ---------------------------------------------------------------------------
# fit: early stopping control flow


def _scored(macro, threshold):
    """evaluate_split's (loss, report) with the report's macro-F1 set to `macro`."""
    from stutterkit.evaluator import f1_report

    report = f1_report([(1, 0, 0, 0, 0, 0)], [(1, 0, 0, 0, 0, 0)], threshold=threshold)
    object.__setattr__(report, "macro_f1", macro)
    return 0.5, report


def _fit_with_fake_scores(monkeypatch, scores, **cfg_kw):
    """Run fit with evaluate_split faked to emit the given macro-F1 series."""
    calls = {"n": 0}

    def fake(examples, registry, model_cfg, threshold):
        macro = scores[min(calls["n"], len(scores) - 1)]
        calls["n"] += 1
        return _scored(macro, threshold)

    monkeypatch.setattr(trainer_mod, "evaluate_split", fake)
    reg = build_registry(TINY, seed=8)
    cfg = TrainConfig(learning_rate=1e-4, batch_size=2, **cfg_kw)
    _, history = fit(_examples(4, seed=9), _examples(2, seed=10), reg, TINY, cfg)
    return history


def test_fit_strictly_improving_runs_max_epochs(monkeypatch):
    history = _fit_with_fake_scores(
        monkeypatch, [0.1 * k for k in range(1, 7)], max_epochs=6, early_stop_patience=2
    )
    assert len(history) == 6
    assert all(row["improved"] for row in history)


def test_fit_constant_metric_runs_patience_plus_one(monkeypatch):
    for patience in (1, 2, 3):
        history = _fit_with_fake_scores(
            monkeypatch, [0.5], max_epochs=50, early_stop_patience=patience
        )
        # first epoch improves on -inf; then `patience` non-improving epochs
        assert len(history) == patience + 1
        assert history[0]["improved"]
        assert not any(row["improved"] for row in history[1:])


def test_fit_recovery_resets_patience(monkeypatch):
    history = _fit_with_fake_scores(
        monkeypatch,
        [0.5, 0.4, 0.6, 0.3, 0.3, 0.3],
        max_epochs=50,
        early_stop_patience=2,
    )
    # dip at epoch 1 is forgiven by the improvement at epoch 2
    assert [row["improved"] for row in history] == [True, False, True, False, False]


def test_fit_restores_best_epoch_weights(monkeypatch):
    # metric peaks at epoch 1 then collapses; fit must return epoch-1 weights
    snapshots = []
    scores = [0.3, 0.9, 0.1, 0.1, 0.1]
    calls = {"n": 0}

    def fake(examples, registry, model_cfg, threshold):
        from stutterkit.evaluator import f1_report

        snapshots.append(registry["classifier.b"].copy())
        macro = scores[min(calls["n"], len(scores) - 1)]
        calls["n"] += 1
        report = f1_report([(1, 0, 0, 0, 0, 0)], [(1, 0, 0, 0, 0, 0)], threshold=threshold)
        object.__setattr__(report, "macro_f1", macro)
        return 0.5, report

    monkeypatch.setattr(trainer_mod, "evaluate_split", fake)
    reg = build_registry(TINY, seed=14)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=2, early_stop_patience=2, max_epochs=50)
    best, history = fit(_examples(4, seed=15), _examples(2, seed=16), reg, TINY, cfg)
    # epochs: improve, improve (peak), two non-improving, stop
    assert len(history) == 4
    assert np.array_equal(best["classifier.b"], snapshots[1])
    assert not np.array_equal(best["classifier.b"], snapshots[-1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("spec", ["UnFrz0-1", "Frz0-0+FrzFE"])
def test_fit_reads_the_best_epoch_back_into_the_same_arrays(monkeypatch, spec, dtype):
    reg = apply_freeze(build_registry(TINY, seed=62, dtype=dtype), parse_freeze_spec(spec, 2))
    arrays = {name: e.value for name, e in reg.items()}
    initial = {name: e.value.copy() for name, e in reg.items()}
    trainable = [name for name, e in reg.items() if e.trainable]
    seen = []

    def fake(examples, registry, model_cfg, threshold):
        seen.append({name: registry[name].copy() for name in trainable})
        return _scored([0.3, 0.9, 0.1, 0.1][len(seen) - 1], threshold)

    monkeypatch.setattr(trainer_mod, "evaluate_split", fake)
    counts = {}
    monkeypatch.setattr(trainer_mod.tempfile, "TemporaryFile", lambda: SnapshotFileSpy(counts))
    cfg = TrainConfig(learning_rate=1e-2, batch_size=2, max_epochs=50, early_stop_patience=2)
    best, history = fit(_examples(4, seed=63), _examples(2, seed=64), reg, TINY, cfg)
    assert best is reg and [row["improved"] for row in history] == [True, True, False, False]
    trainable_bytes = sum(initial[name].nbytes for name in trainable)
    assert counts == {"written": 2 * trainable_bytes, "read": trainable_bytes}
    for name, e in reg.items():
        assert e.value is arrays[name], name
        assert np.array_equal(e.value, seen[1][name] if e.trainable else initial[name]), name
    assert any(not np.array_equal(reg[name], seen[-1][name]) for name in trainable)


@pytest.mark.parametrize("scores, cfg_kw, epochs, written", [
    ([0.5], dict(max_epochs=1), 1, 0),
    ([0.1, 0.2, 0.3], dict(max_epochs=3), 3, 2),
    ([0.1, 0.2, 0.3], dict(max_epochs=50, max_steps=4), 2, 1),
], ids=["one-epoch", "improves-to-max-epochs", "improves-to-max-steps"])
def test_fit_writes_no_snapshot_of_its_last_epoch(monkeypatch, scores, cfg_kw, epochs, written):
    """An improving epoch writes the trainable bytes only when another epoch
    may follow; when the best epoch is the last one run nothing is read."""
    counts = {}
    monkeypatch.setattr(trainer_mod.tempfile, "TemporaryFile", lambda: SnapshotFileSpy(counts))
    history = _fit_with_fake_scores(monkeypatch, scores, **cfg_kw)
    reg = build_registry(TINY, seed=8)
    assert len(history) == epochs and all(row["improved"] for row in history)
    assert counts == {"written": written * reg.total_count() * reg.dtype.itemsize, "read": 0}


def test_fit_refuses_a_short_snapshot_read(monkeypatch):
    """A snapshot that reads back short raises an OSError naming the tensor,
    instead of returning a registry partly restored."""
    monkeypatch.setattr(trainer_mod.tempfile, "TemporaryFile",
                        lambda: SnapshotFileSpy({}, short=True))
    first = build_registry(TINY, seed=8).names()[0]
    with pytest.raises(OSError, match=f"short read restoring {first!r}"):
        _fit_with_fake_scores(monkeypatch, [0.9, 0.1], max_epochs=50, early_stop_patience=1)


def test_fit_holds_no_second_copy_of_the_trainable_weights(monkeypatch):
    """Between steps fit holds Adam's two moments beside the registry it
    trains; the best epoch's weights wait in a temporary file. An in-memory
    copy of them took the traced memory held to about 3x the trainable bytes."""
    reg = apply_freeze(build_registry(WIDE_D, seed=65), parse_freeze_spec("UnFrz0-3", 4))
    trainable_bytes = sum(e.value.nbytes for _, e in reg.items() if e.trainable)
    held = []

    def fake(examples, registry, model_cfg, threshold):
        held.append(tracemalloc.get_traced_memory()[0])
        return _scored(0.1 * len(held), threshold)

    monkeypatch.setattr(trainer_mod, "evaluate_split", fake)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=2, max_epochs=3, early_stop_patience=3)
    train, val = _examples(2, cfg=WIDE_D, seed=66, t=64), _examples(1, cfg=WIDE_D, seed=67, t=64)
    tracemalloc.start()
    try:
        best, history = fit(train, val, reg, WIDE_D, cfg)
        held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert best is reg and [row["improved"] for row in history] == [True] * 3
    assert max(held) < 2.5 * trainable_bytes, (held, trainable_bytes)


def test_fit_max_steps_caps_optimizer_steps():
    reg = build_registry(TINY, seed=17)
    cfg = TrainConfig(learning_rate=1e-4, batch_size=2, max_epochs=50, max_steps=3)
    _, history = fit(_examples(4, seed=18), _examples(2, seed=19), reg, TINY, cfg)
    assert history[-1]["step"] == 3


def test_fit_stops_when_max_steps_is_reached_at_an_epoch_boundary():
    # 4 examples in batches of 2: the second step ends the first epoch, so no
    # second epoch may run (it would take no step and re-score the same weights)
    reg = build_registry(TINY, seed=17)
    cfg = TrainConfig(learning_rate=1e-4, batch_size=2, max_epochs=50, max_steps=2)
    _, history = fit(_examples(4, seed=18), _examples(2, seed=19), reg, TINY, cfg)
    assert [(row["epoch"], row["step"]) for row in history] == [(0, 2)]
    assert math.isfinite(history[0]["train_loss"])


def test_fit_empty_splits():
    reg = build_registry(TINY, seed=0)
    with pytest.raises(EmptyDataset):
        fit([], _examples(1), reg, TINY, TrainConfig())
    with pytest.raises(EmptyDataset):
        fit(_examples(1), [], reg, TINY, TrainConfig())


# ---------------------------------------------------------------------------
# freezing during real training


def test_frozen_tensors_bit_identical_after_steps():
    base = build_registry(TINY, seed=20)
    train = _examples(6, seed=21)
    specs = ["UnFrz0-1", "UnFrz0-1+FrzFE", "Frz0-0", "Frz0-0+FrzFE", "Frz0-1+FrzFE"]
    for spec in specs:
        freeze = parse_freeze_spec(spec, n_layers=TINY.n_layers)
        reg = base.copy()
        apply_freeze(reg, freeze)
        state = TrainState()
        cfg = TrainConfig(learning_rate=1e-3, batch_size=2)
        for start in range(0, len(train), 2):
            train_step(train[start : start + 2], reg, state, TINY, cfg)
        assert state.step == 3
        for name, e in reg.items():
            if e.trainable:
                assert not np.array_equal(e.value, base[name]), (spec, name)
            else:
                assert np.array_equal(e.value, base[name]), (spec, name)


# ---------------------------------------------------------------------------
# fit under a frozen prefix: validation starts at the first trainable layer


def _freeze(spec, seed, cfg=TINY):
    return apply_freeze(build_registry(cfg, seed=seed), parse_freeze_spec(spec, cfg.n_layers))


@pytest.mark.parametrize("spec", ["Frz0-0+FrzFE", "Frz0-1+FrzFE", "UnFrz0-1+FrzFE"])
def test_fit_from_the_frozen_prefix_matches_the_full_forward(monkeypatch, spec):
    """Scoring validation from the cached prefix output leaves the history and
    the returned weights bit-identical to scoring it from the spectrogram."""
    cfg = TrainConfig(learning_rate=1e-2, batch_size=2, max_epochs=4, early_stop_patience=4)

    def run():
        reg = _freeze(spec, seed=50)
        return fit(_examples(4, seed=51), _examples(3, seed=52), reg, TINY, cfg, seed=3)

    best_a, hist_a = run()
    monkeypatch.setattr(model_mod, "frozen_prefix_depth", lambda registry, cfg: None)
    best_b, hist_b = run()
    assert hist_a == hist_b
    for name in best_a.names():
        assert np.array_equal(best_a[name], best_b[name]), name


def test_fit_runs_the_frozen_stem_once_per_validation_clip(monkeypatch):
    val_t, calls = 6, {"val": 0}
    real = model_mod._conv_stem_fwd

    def counting(x, registry, cfg):
        calls["val"] += x.shape[1] == val_t
        return real(x, registry, cfg)

    monkeypatch.setattr(model_mod, "_conv_stem_fwd", counting)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=2, max_epochs=3, early_stop_patience=3)
    _, history = fit(_examples(4, seed=53), _examples(2, seed=54, t=val_t),
                     _freeze("Frz0-0+FrzFE", seed=55), TINY, cfg)
    assert len(history) == 3
    assert calls["val"] == 2


def test_fit_rejects_a_non_finite_validation_clip_before_the_first_step(monkeypatch):
    steps = []
    monkeypatch.setattr(trainer_mod, "train_step", lambda *a: steps.append(1) or 0.5)
    val = _examples(2, seed=56)
    val[1][0][0, 3] = np.nan
    with pytest.raises(NonFiniteInput):
        fit(_examples(2, seed=57), val, _freeze("Frz0-0+FrzFE", seed=58), TINY, TrainConfig())
    assert steps == []
    with pytest.raises(NonFiniteInput):  # without a frozen prefix: after the first epoch
        fit(_examples(2, seed=57), val, _freeze("UnFrz0-1", seed=58), TINY, TrainConfig())
    assert steps == [1]


# Narrow inputs and wide layers, so frozen weights dominate traced memory.
WIDE_FFN = tiny_model_config(d_model=16, d_ffn=2048, n_mels=4, max_positions=8)


def test_fit_keeps_no_copy_of_frozen_tensors(monkeypatch):
    """Between steps fit holds Adam moments and the validation prefix outputs
    (the best epoch's trainable tensors wait in a temporary file), and returns
    the registry it trained, so traced memory stays far below one copy of the
    frozen weights, with the worker off and on. An untraced fit first starts
    what a process starts once (the worker thread, lazily imported modules).
    Each reading waits for the worker to drain its queue, where the tasks the
    caller ran itself wait (holding no array) until the worker gets the GIL."""
    held = []
    real = trainer_mod.evaluate_split

    def reading():
        if model_mod._pool is not None:
            model_mod._pool.submit(int).result()
        held.append(tracemalloc.get_traced_memory()[0])

    def traced_evaluate_split(*args):
        reading()
        return real(*args)

    monkeypatch.setattr(trainer_mod, "evaluate_split", traced_evaluate_split)
    cfg = TrainConfig(learning_rate=1e-2, batch_size=2, max_epochs=3, early_stop_patience=3)
    train, val = _examples(2, cfg=WIDE_FFN, seed=60), _examples(2, cfg=WIDE_FFN, seed=61)
    for on in (False, True):
        set_worker(monkeypatch, on)
        reg = _freeze("Frz0-1+FrzFE", seed=59, cfg=WIDE_FFN)
        frozen_bytes = sum(e.value.nbytes for _, e in reg.items() if not e.trainable)
        trainable_bytes = sum(e.value.nbytes for _, e in reg.items() if e.trainable)
        assert frozen_bytes > 50 * trainable_bytes
        fit(train, val, reg, WIDE_FFN, cfg)
        held.clear()
        tracemalloc.start()
        try:
            best, history = fit(train, val, reg, WIDE_FFN, cfg)
            reading()
        finally:
            tracemalloc.stop()
        assert best is reg and len(history) == 3
        assert max(held) < frozen_bytes / 10, (on, held, frozen_bytes)


# ---------------------------------------------------------------------------
# determinism and history files


def test_fit_same_seed_identical_results():
    runs = []
    for _ in range(2):
        reg = build_registry(TINY, seed=22)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=2, max_epochs=3, early_stop_patience=3)
        best, history = fit(_examples(6, seed=23), _examples(3, seed=24), reg, TINY, cfg, seed=7)
        runs.append((best, history))
    assert runs[0][1] == runs[1][1]
    for name in runs[0][0].names():
        assert np.array_equal(runs[0][0][name], runs[1][0][name]), name


def test_fit_seed_changes_shuffle():
    hist = []
    for seed in (1, 2):
        reg = build_registry(TINY, seed=25)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=2, max_epochs=2, early_stop_patience=3)
        _, history = fit(_examples(6, seed=26), _examples(3, seed=27), reg, TINY, cfg, seed=seed)
        hist.append(history)
    assert hist[0] != hist[1]  # different batch order, different losses


def test_write_history_jsonl(tmp_path):
    rows = [
        {"epoch": 0, "step": 2, "train_loss": 0.7, "val_loss": 0.6, "val_micro": 0.5,
         "val_macro": 0.4, "val_weighted": 0.45, "score": 0.4, "improved": True},
        {"epoch": 1, "step": 4, "train_loss": 0.6, "val_loss": 0.5, "val_micro": 0.6,
         "val_macro": 0.5, "val_weighted": 0.55, "score": 0.5, "improved": True},
    ]
    path = tmp_path / "history.jsonl"
    write_history(path, rows)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed == rows
    for line in lines:
        keys = list(json.loads(line))
        assert keys == sorted(keys)
