"""Model tests: conv stem, positions, attention, FFN, layer norm, encoder
layers, whole-model forward against an independent oracle, registry layout,
freezing, and checkpoint serialization."""

import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import stutterkit.model as model_mod

from helpers import (
    edit_checkpoint_tensors,
    finite_diff_check,
    json_bytes,
    naive_conv1d,
    oracle_encoder_layer,
    oracle_forward,
    rewrite_header,
    tiny_model_config,
    traced_memory,
    without,
)
from stutterkit.model import (
    FEATURE_EXTRACTOR,
    HEAD,
    CorruptCheckpoint,
    FreezeConfig,
    FreezeSpecError,
    LayerInput,
    ModelConfig,
    NonFiniteActivation,
    NonFiniteInput,
    ParameterRegistry,
    ShapeMismatch,
    apply_freeze,
    backward_pass,
    build_registry,
    conv_stem,
    encoder_layer_forward,
    encoder_layer_group,
    erf,
    forward,
    forward_prefix,
    forward_with_cache,
    frozen_prefix_depth,
    gelu_grad,
    load_checkpoint,
    param_specs,
    parse_freeze_spec,
    relu,
    save_checkpoint,
    sinusoidal_positions,
    softmax,
    trainable_parameter_count,
)
from stutterkit.model import (
    BLAS_THREAD_VARS,
    BLOCK,
    _attention_core_bwd,
    _attention_core_fwd,
    _conv_fwd,
    _ffn_sublayer_fwd,
    _gelu_fwd,
    _layer_norm_fwd,
    _linear_bwd,
    _worker_rule,
    blocks,
)

TINY = tiny_model_config()


def _layer_params(registry, layer=0):
    keys = (
        "attn.q.w", "attn.q.b", "attn.k.w", "attn.v.w", "attn.v.b",
        "attn.out.w", "attn.out.b", "attn_norm.gamma", "attn_norm.beta",
        "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ffn_norm.gamma", "ffn_norm.beta",
    )
    return {k: registry[f"layers.{layer}.{k}"] for k in keys}


# ---------------------------------------------------------------------------
# Config validation


def test_config_validation():
    with pytest.raises(ShapeMismatch):
        ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(norm_placement="sandwich")
    with pytest.raises(ValueError):
        ModelConfig(ffn_activation="swish")


# ---------------------------------------------------------------------------
# conv stem


def test_conv_stem_halves_time():
    reg = build_registry(ModelConfig(), seed=0)
    x = np.random.default_rng(0).uniform(-1, 1, size=(80, 600))
    out = conv_stem(x, reg, ModelConfig())
    assert out.shape == (300, 512)


def test_conv_stem_zero_propagation():
    cfg = TINY
    reg = build_registry(cfg, seed=0)
    reg["conv1.b"][:] = 0.0
    reg["conv2.b"][:] = 0.0
    out = conv_stem(np.zeros((cfg.n_mels, 6)), reg, cfg)
    assert np.all(out == 0.0)  # gelu(0) == 0


def test_conv_stem_matches_naive_convolution():
    cfg = ModelConfig(d_model=16, n_layers=1, n_heads=2, d_ffn=8, n_mels=80,
                      max_positions=4, d_proj=8)
    reg = build_registry(cfg, seed=4, dtype=np.float64)
    x = np.random.default_rng(1).uniform(-1, 1, size=(80, 4))
    got = conv_stem(x, reg, cfg)
    z1 = naive_conv1d(x, reg["conv1.w"], reg["conv1.b"], stride=1, padding=1)
    z2 = naive_conv1d(_gelu_fwd(z1)[0], reg["conv2.w"], reg["conv2.b"], stride=2, padding=1)
    want = _gelu_fwd(z2)[0].T
    assert got.shape == want.shape == (2, 16)
    assert np.max(np.abs(got - want)) < 1e-6


def test_conv_stem_rejects_bad_shapes():
    reg = build_registry(TINY, seed=0)
    with pytest.raises(ShapeMismatch):
        conv_stem(np.zeros((TINY.n_mels + 1, 6)), reg, TINY)
    with pytest.raises(ShapeMismatch):
        conv_stem(np.zeros((TINY.n_mels, 5)), reg, TINY)  # odd frame count


# ---------------------------------------------------------------------------
# sinusoidal positions


def test_sinusoid_trivial_rows():
    table = sinusoidal_positions(4, 8)
    assert np.all(table[0, 0::2] == 0.0)  # sin(0)
    assert np.all(table[0, 1::2] == 1.0)  # cos(0)


def test_sinusoid_formula_values():
    table = sinusoidal_positions(2, 512)
    assert table[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert table[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)
    # column 2i uses divisor 10000^(2i/d)
    i = 7
    angle = 1.0 / 10000.0 ** (2.0 * i / 512.0)
    assert table[1, 2 * i] == pytest.approx(math.sin(angle), abs=1e-12)
    assert table[1, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-12)


def test_registry_positions_are_sinusoid():
    reg = build_registry(TINY, seed=9, dtype=np.float64)
    assert np.array_equal(
        reg["embed_positions"], sinusoidal_positions(TINY.max_positions, TINY.d_model)
    )


# ---------------------------------------------------------------------------
# attention


def test_attention_single_key_is_projected_v():
    rng = np.random.default_rng(2)
    q, k, v = (rng.normal(size=(1, 8)) for _ in range(3))
    out_w = rng.normal(size=(8, 8))
    out_b = rng.normal(size=8)
    got = _attention_core_fwd(q, k, v, 2)[0] @ out_w + out_b
    assert np.allclose(got, v @ out_w + out_b, atol=1e-12)


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(3)
    t = 5
    q = rng.normal(size=(t, 8))
    k = np.tile(rng.normal(size=(1, 8)), (t, 1))
    v = rng.normal(size=(t, 8))
    for layout in (np.ascontiguousarray, np.asfortranarray):
        core = _attention_core_fwd(layout(q), layout(k), layout(v), 2)[0]
        assert np.allclose(core, np.tile(v.mean(axis=0), (t, 1)), atol=1e-12)


def test_attention_hand_case_two_by_two():
    # single head, T=2, d_k=2, worked through scalar by scalar
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[1.0, 0.0], [0.0, 2.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    scale = 1.0 / math.sqrt(2.0)
    # row 0 scores: [1, 0] * scale; row 1 scores: [0, 2] * scale
    def soft(a, b):
        ea, eb = math.exp(a), math.exp(b)
        return ea / (ea + eb), eb / (ea + eb)

    p00, p01 = soft(1.0 * scale, 0.0)
    p10, p11 = soft(0.0, 2.0 * scale)
    want = np.array(
        [
            [p00 * 1.0 + p01 * 3.0, p00 * 2.0 + p01 * 4.0],
            [p10 * 1.0 + p11 * 3.0, p10 * 2.0 + p11 * 4.0],
        ]
    )
    got = _attention_core_fwd(q, k, v, 1)[0]
    assert np.max(np.abs(got - want)) < 1e-12


def test_attention_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    scores = rng.normal(scale=5.0, size=(3, 7, 7))
    probs = softmax(scores)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(probs >= 0.0)


# ---------------------------------------------------------------------------
# ffn


def _ffn(x, w1, b1, w2, b2, activation):
    """The forward's FFN sub-layer on these weights."""
    p = {"ffn.w1": w1, "ffn.b1": b1, "ffn.w2": w2, "ffn.b2": b2}
    return _ffn_sublayer_fwd(x, p, ModelConfig(ffn_activation=activation))[0]


def test_ffn_zero_with_zero_biases():
    for act in ("relu", "gelu"):
        out = _ffn(np.zeros((3, 4)), np.ones((4, 8)), np.zeros(8), np.ones((8, 4)),
                   np.zeros(4), activation=act)
        assert np.all(out == 0.0)


def test_ffn_relu_gates_negatives():
    d, f = 4, 8
    w1 = np.zeros((d, f))
    w1[:d, :d] = np.eye(d)  # identity into the first d hidden units
    w2 = np.zeros((f, d))
    w2[:d, :d] = np.eye(d)
    x = np.array([[-1.0, 2.0, -3.0, 4.0]])
    out = _ffn(x, w1, np.zeros(f), w2, np.zeros(d), activation="relu")
    assert np.array_equal(out, np.array([[0.0, 2.0, 0.0, 4.0]]))


def test_ffn_matches_naive_double_loop_matmul():
    rng = np.random.default_rng(5)
    d, f = 512, 2048
    x = rng.uniform(-1, 1, size=(1, d))
    w1 = rng.normal(scale=0.02, size=(d, f))
    b1 = rng.normal(scale=0.02, size=f)
    w2 = rng.normal(scale=0.02, size=(f, d))
    b2 = rng.normal(scale=0.02, size=d)
    got = _ffn(x, w1, b1, w2, b2, activation="relu")

    hidden = np.empty(f)
    for j in range(f):
        acc = b1[j]
        for i in range(d):
            acc += x[0, i] * w1[i, j]
        hidden[j] = max(acc, 0.0)
    want = np.empty(d)
    for j in range(d):
        acc = b2[j]
        for i in range(f):
            acc += hidden[i] * w2[i, j]
        want[j] = acc
    assert np.max(np.abs(got[0] - want)) < 1e-5


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row_is_zero():
    x = np.full((3, 8), 2.5)
    out = _layer_norm_fwd(x, np.ones(8), np.zeros(8))[0]
    assert np.max(np.abs(out)) < 1e-6  # epsilon keeps 0/0 at 0


def test_layer_norm_zero_gamma_gives_beta():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 8))
    beta = rng.normal(size=8)
    out = _layer_norm_fwd(x, np.zeros(8), beta)[0]
    assert np.allclose(out, np.tile(beta, (4, 1)), atol=1e-12)


def test_layer_norm_hand_values():
    out = _layer_norm_fwd(np.array([[1.0, 2.0, 3.0, 4.0]]), np.ones(4), np.zeros(4))[0]
    want = np.array([-1.34164, -0.44721, 0.44721, 1.34164])
    assert np.max(np.abs(out[0] - want)) < 1e-4


# ---------------------------------------------------------------------------
# encoder layer


def test_encoder_layer_post_zero_everything():
    cfg = tiny_model_config(norm_placement="post")
    reg = build_registry(cfg, seed=0)
    for name, _, group in param_specs(cfg):
        if group not in (FEATURE_EXTRACTOR, HEAD) and not name.endswith(".gamma"):
            if not name.endswith(".beta"):
                reg[name][:] = 0.0
    out = encoder_layer_forward(np.zeros((3, cfg.d_model)), reg, layer=0, cfg=cfg)
    assert np.all(out == 0.0)


def test_encoder_layer_pre_zero_weights_is_identity():
    cfg = tiny_model_config(norm_placement="pre")
    reg = build_registry(cfg, seed=0, dtype=np.float64)
    for name, _, group in param_specs(cfg):
        if group == "encoder_layer_0" and not name.endswith((".gamma", ".beta")):
            reg[name][:] = 0.0
    x = np.random.default_rng(7).normal(size=(3, cfg.d_model))
    out = encoder_layer_forward(x, reg, layer=0, cfg=cfg)
    assert np.array_equal(out, x)


@pytest.mark.parametrize("placement", ["pre", "post"])
@pytest.mark.parametrize("activation", ["gelu", "relu"])
def test_encoder_layer_matches_oracle(placement, activation):
    cfg = tiny_model_config(norm_placement=placement, ffn_activation=activation)
    reg = build_registry(cfg, seed=8, dtype=np.float64)
    x = np.random.default_rng(9).normal(size=(2, cfg.d_model))
    got = encoder_layer_forward(x, reg, layer=1, cfg=cfg)
    want = oracle_encoder_layer(x, _layer_params(reg, 1), cfg)
    assert np.max(np.abs(got - want)) < 1e-5


def test_encoder_layer_flags_non_finite_activation():
    cfg = TINY
    reg = build_registry(cfg, seed=0, dtype=np.float64)
    # force the ffn output to overflow: hidden ~1e200 times weights ~1e200
    reg["layers.0.ffn.w1"][:] = 0.0
    reg["layers.0.ffn.b1"][:] = 1e200
    reg["layers.0.ffn.w2"][:] = 1e200
    with np.errstate(over="ignore"), pytest.raises(NonFiniteActivation):
        encoder_layer_forward(np.ones((2, cfg.d_model)), reg, layer=0, cfg=cfg)


# ---------------------------------------------------------------------------
# whole model forward


# Frozen once from the independent straight-line oracle (seed 123 registry,
# seed 2024 input); see test_forward_matches_golden_master for the dual check.
GOLDEN_INPUT_SEED = 2024
GOLDEN_REGISTRY_SEED = 123
GOLDEN_LOGITS = np.array(
    [
        -0.5301697609335833,
        0.5325805134296251,
        0.5305078300337538,
        -0.45752291841344317,
        -0.43609865602742964,
        -0.21351938154608896,
    ]
)


def test_forward_matches_golden_master():
    reg = build_registry(TINY, seed=GOLDEN_REGISTRY_SEED, dtype=np.float64)
    x = np.random.default_rng(GOLDEN_INPUT_SEED).uniform(-1.0, 1.0, size=(4, 8))
    fast = forward(x, reg, TINY)
    slow = oracle_forward(x, reg, TINY)
    # both routes must independently reproduce the recorded vector
    assert np.max(np.abs(fast - GOLDEN_LOGITS)) < 1e-10
    assert np.max(np.abs(slow - GOLDEN_LOGITS)) < 1e-10


@pytest.mark.parametrize("placement", ["pre", "post"])
@pytest.mark.parametrize("activation", ["gelu", "relu"])
def test_float32_agrees_with_float64(placement, activation):
    # one seed in both dtypes: logits within 1e-5 * max(1, |z|), every
    # gradient tensor within 1e-4 of its largest float64 entry
    cfg = tiny_model_config(norm_placement=placement, ffn_activation=activation)
    x = np.random.default_rng(GOLDEN_INPUT_SEED).uniform(-1.0, 1.0, size=(4, 8))
    dlogits = np.random.default_rng(1).normal(size=6)
    results = {}
    for dtype in (np.float32, np.float64):
        reg = build_registry(cfg, seed=GOLDEN_REGISTRY_SEED, dtype=dtype)
        logits, cache = forward_with_cache(x, reg, cfg)
        results[dtype] = logits, backward_pass(dlogits, cache, reg, cfg)
    (z32, g32), (z64, g64) = results[np.float32], results[np.float64]
    assert np.all(np.abs(z32 - z64) <= 1e-5 * np.maximum(1.0, np.abs(z64)))
    assert set(g32) == set(g64)
    for name, g in g64.items():
        assert np.max(np.abs(g32[name] - g)) <= 1e-4 * np.max(np.abs(g)), name


@pytest.mark.parametrize("activation", ["gelu", "relu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_compute_follows_registry_dtype(dtype, activation):
    # float64 inputs and dlogits; every output follows the registry
    cfg = tiny_model_config(ffn_activation=activation)
    reg = build_registry(cfg, seed=38, dtype=dtype)
    x = np.random.default_rng(39).uniform(-1.0, 1.0, size=(4, 8))
    assert reg.dtype == dtype
    assert conv_stem(x, reg, cfg).dtype == dtype
    h = np.random.default_rng(40).normal(size=(2, cfg.d_model))
    assert encoder_layer_forward(h, reg, layer=0, cfg=cfg).dtype == dtype
    assert forward(x, reg, cfg).dtype == dtype
    _, cache = forward_with_cache(x, reg, cfg)
    grads = backward_pass(np.ones(6), cache, reg, cfg)
    assert set(grads) == set(reg.names())
    for name, g in grads.items():
        assert g.dtype == dtype, name


def test_forward_deterministic():
    reg = build_registry(TINY, seed=10)
    x = np.random.default_rng(11).uniform(-1, 1, size=(4, 8))
    assert np.array_equal(forward(x, reg, TINY), forward(x.copy(), reg, TINY))


def test_forward_permuting_classifier_rows_permutes_logits():
    reg = build_registry(TINY, seed=12)
    x = np.random.default_rng(13).uniform(-1, 1, size=(4, 8))
    base = forward(x, reg, TINY)
    perm = np.array([3, 0, 5, 1, 4, 2])
    reg["classifier.w"][:] = reg["classifier.w"][:, perm]
    reg["classifier.b"][:] = reg["classifier.b"][perm]
    assert np.allclose(forward(x, reg, TINY), base[perm], atol=1e-12)


def test_forward_finite_for_random_inputs():
    cfg = TINY
    rng = np.random.default_rng(14)
    reg = build_registry(cfg, seed=0)
    names = reg.names()
    for _ in range(1000):
        for name in names:
            if name != "embed_positions":
                reg[name][:] = rng.uniform(-1.0, 1.0, size=reg[name].shape)
        x = rng.uniform(-1.0, 1.0, size=(cfg.n_mels, 8))
        logits = forward(x, reg, cfg)
        assert logits.shape == (6,)
        assert np.all(np.isfinite(logits))


def test_forward_rejects_bad_inputs():
    reg = build_registry(TINY, seed=0)
    x = np.zeros((4, 8))
    x[0, 0] = np.inf
    with pytest.raises(NonFiniteInput):
        forward(x, reg, TINY)
    with pytest.raises(ShapeMismatch):
        forward(np.zeros((4, 10)), reg, TINY)  # 5 positions > max_positions 4


# ---------------------------------------------------------------------------
# registry layout


def test_registry_group_partition():
    cfg = ModelConfig()
    specs = param_specs(cfg)
    names = [n for n, _, _ in specs]
    assert len(names) == len(set(names))
    fe = {n for n, _, g in specs if g == FEATURE_EXTRACTOR}
    assert fe == {"conv1.w", "conv1.b", "conv2.w", "conv2.b", "embed_positions"}
    head = {n for n, _, g in specs if g == HEAD}
    assert head == {
        "post_encoder_layernorm.gamma", "post_encoder_layernorm.beta",
        "projector.w", "projector.b", "classifier.w", "classifier.b",
    }
    layer_groups = {g for _, _, g in specs} - {FEATURE_EXTRACTOR, HEAD}
    assert layer_groups == {f"encoder_layer_{k}" for k in range(6)}


def test_registry_initialization_bounds():
    cfg = TINY
    reg = build_registry(cfg, seed=21)
    # affine weights stay within +-1/sqrt(fan_in)
    w1 = reg["layers.0.ffn.w1"]
    assert np.max(np.abs(w1)) <= 1.0 / math.sqrt(cfg.d_model)
    conv1 = reg["conv1.w"]
    assert np.max(np.abs(conv1)) <= 1.0 / math.sqrt(cfg.n_mels * 3)
    assert np.all(reg["layers.0.attn_norm.gamma"] == 1.0)
    assert np.all(reg["layers.0.attn_norm.beta"] == 0.0)
    # different seeds give different weights
    assert not np.array_equal(reg["conv1.w"], build_registry(cfg, seed=22)["conv1.w"])


def test_registry_rejects_mixed_dtypes():
    reg = ParameterRegistry()
    reg.add("a", np.zeros(2, dtype=np.float32), HEAD)
    with pytest.raises(ValueError):
        reg.add("b", np.zeros(2), HEAD)
    reg.add("c", np.arange(2), HEAD)  # non-floating input takes the default dtype
    assert reg.dtype == np.float32
    assert reg.names() == ["a", "c"]
    with pytest.raises(ValueError):
        build_registry(TINY, seed=0).add("x", np.zeros(1), HEAD)


def test_registry_rejects_duplicates():
    reg = ParameterRegistry()
    reg.add("a", np.zeros(2), HEAD)
    with pytest.raises(ValueError):
        reg.add("a", np.zeros(2), HEAD)


# ---------------------------------------------------------------------------
# freezing


def _layers(*ks):
    return frozenset(f"encoder_layer_{k}" for k in ks)


def test_parse_freeze_spec_grammar():
    fc = parse_freeze_spec("UnFrz0-5")
    assert fc == FreezeConfig(frozenset())
    fc = parse_freeze_spec("Frz0-2")
    assert fc == FreezeConfig(_layers(0, 1, 2))
    fc = parse_freeze_spec("Frz0-4+FrzFE")
    assert fc == FreezeConfig(_layers(0, 1, 2, 3, 4) | {FEATURE_EXTRACTOR})
    fc = parse_freeze_spec("UnFrz2-3")
    assert fc == FreezeConfig(_layers(0, 1, 4, 5))
    for bad in ("", "Frz", "Frz0", "Frz0-9", "Frz3-1", "Unfrz0-5", "Frz0-5+FrzFe", "Frz0-5 +FrzFE"):
        with pytest.raises(FreezeSpecError):
            parse_freeze_spec(bad)


def test_apply_freeze_marks_entries():
    cfg = ModelConfig()
    reg = build_registry(cfg, seed=0)
    apply_freeze(reg, parse_freeze_spec("Frz0-2+FrzFE"))
    assert not reg.entry("conv1.w").trainable
    assert not reg.entry("embed_positions").trainable
    assert not reg.entry("layers.2.ffn.w1").trainable
    assert reg.entry("layers.3.ffn.w1").trainable
    assert reg.entry("classifier.w").trainable  # head always trainable


def test_count_trainable_registry_and_shape_only_agree():
    cfg = ModelConfig()
    reg = build_registry(cfg, seed=0)
    for spec in ("UnFrz0-5", "Frz0-2", "Frz0-2+FrzFE", "Frz0-5+FrzFE"):
        fc = parse_freeze_spec(spec)
        apply_freeze(reg, fc)
        flagged = sum(e.value.size for _, e in reg.items() if e.trainable)
        assert flagged == trainable_parameter_count(cfg, fc)


def test_count_trainable_monotone_in_freeze_set():
    cfg = ModelConfig()
    prev = trainable_parameter_count(cfg, FreezeConfig(frozenset()))
    for k in range(6):
        now = trainable_parameter_count(cfg, FreezeConfig(_layers(*range(k + 1))))
        assert now < prev
        prev = now
    assert trainable_parameter_count(
        cfg, FreezeConfig(frozenset({FEATURE_EXTRACTOR}))
    ) < trainable_parameter_count(cfg, FreezeConfig(frozenset()))


def test_audit_specs_freeze_param_spec_groups_and_never_the_head():
    from stutterkit.cli import PARAM_AUDIT_SPECS

    cfg = ModelConfig()
    groups = {group for _, _, group in param_specs(cfg)}
    for spec in PARAM_AUDIT_SPECS:
        frozen = parse_freeze_spec(spec, cfg.n_layers).frozen_groups
        assert frozen <= groups - {HEAD}, spec
    with pytest.raises(ValueError):
        FreezeConfig(frozenset({HEAD}))


@pytest.mark.parametrize("unknown", ["encoder_layer_9", "Feature_extractor"])
def test_freezing_a_group_the_model_lacks_is_refused(unknown):
    freeze = FreezeConfig(_layers(0) | {unknown})
    with pytest.raises(ValueError, match=unknown):
        trainable_parameter_count(ModelConfig(), freeze)
    reg = build_registry(TINY, seed=0)  # two layers: encoder_layer_2 is unknown too
    with pytest.raises(ValueError, match=unknown):
        apply_freeze(reg, freeze)
    with pytest.raises(ValueError, match="encoder_layer_2"):
        apply_freeze(reg, FreezeConfig(_layers(2)))
    assert all(e.trainable for _, e in reg.items())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = TINY
    reg = build_registry(cfg, seed=33)
    apply_freeze(reg, parse_freeze_spec("Frz0-1+FrzFE", n_layers=cfg.n_layers))
    first = tmp_path / "a.ckpt"
    save_checkpoint(first, reg, cfg)
    loaded, cfg_back = load_checkpoint(first)
    assert cfg_back == cfg
    assert loaded.names() == reg.names()
    assert not loaded.entry("conv1.w").trainable
    assert loaded.entry("classifier.b").trainable
    second = tmp_path / "b.ckpt"
    save_checkpoint(second, loaded, cfg_back)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_values_survive_f32_quantization(tmp_path):
    cfg = TINY
    reg = build_registry(cfg, seed=34, dtype=np.float64)
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, reg, cfg)
    loaded, _ = load_checkpoint(path)
    for name in reg.names():
        want = reg[name].astype("<f4").astype(np.float64)
        assert np.array_equal(loaded[name], want), name


def test_checkpoint_round_trip_of_float32_registry_is_bit_exact(tmp_path):
    cfg = TINY
    reg = build_registry(cfg, seed=34)
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, reg, cfg)
    loaded, _ = load_checkpoint(path)
    assert reg.dtype == loaded.dtype == np.float32
    for name in reg.names():
        assert loaded[name].tobytes() == reg[name].tobytes(), name
    x = np.random.default_rng(34).uniform(-1, 1, size=(4, 8))
    assert forward(x, loaded, cfg).tobytes() == forward(x, reg, cfg).tobytes()


def test_save_checkpoint_refuses_a_registry_outside_the_config_layout(tmp_path):
    """save_checkpoint writes only what load_checkpoint reads back: a registry
    built for another config raises before any file is opened."""
    path = tmp_path / "m.ckpt"
    with pytest.raises(ShapeMismatch):
        save_checkpoint(path, build_registry(TINY, seed=44), tiny_model_config(d_ffn=32))
    assert not path.exists()


def test_checkpoint_rejects_truncated_blob(tmp_path):
    cfg = TINY
    reg = build_registry(cfg, seed=35)
    path = tmp_path / "d.ckpt"
    save_checkpoint(path, reg, cfg)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_ignores_stored_offsets(tmp_path):
    """Older checkpoints carry a byte offset per tensor; the blob is read in
    layout order whatever they say, so one pointed at conv1.w's bytes still
    loads the saved conv1.b."""
    cfg = TINY
    reg = apply_freeze(build_registry(cfg, seed=39), parse_freeze_spec("Frz0-0+FrzFE", 2))
    path = tmp_path / "o.ckpt"
    save_checkpoint(path, reg, cfg)

    def older_format(tensors):
        offsets = np.cumsum([0] + [4 * math.prod(t["shape"]) for t in tensors])
        for t, offset in zip(tensors, offsets.tolist()):
            t["offset"] = offset
        tensors[1]["offset"] = 0

    edit_checkpoint_tensors(path, path, older_format)
    loaded, _ = load_checkpoint(path)
    assert loaded.names()[1] == "conv1.b"
    for name, e in reg.items():
        assert loaded[name].tobytes() == e.value.tobytes(), name
        assert loaded.entry(name).trainable == e.trainable, name


def test_save_checkpoint_writes_without_copying_the_weights(tmp_path):
    cfg = tiny_model_config(d_model=128, n_heads=4, d_ffn=512, n_mels=16, max_positions=1500)
    reg = build_registry(cfg, seed=40)
    weight_bytes = sum(e.value.nbytes for _, e in reg.items())
    assert weight_bytes > 2_000_000
    _, peak = traced_memory(lambda: save_checkpoint(tmp_path / "w.ckpt", reg, cfg))
    assert peak < 0.1 * weight_bytes


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t[0].update(name="conv1.weight"),
        lambda t: t.pop(),
        lambda t: t.append(dict(t[-1], name="classifier.extra")),
        # classifier.w [d_proj, 6] -> [6, d_proj]: same byte count, wrong layout
        lambda t: t[-2].update(shape=t[-2]["shape"][::-1]),
        # conv1.b and conv2.b are both [d]: swapped, every (name, shape) is kept but not the order
        lambda t: t[1].update(name="conv2.b") or t[3].update(name="conv1.b"),
    ],
    ids=["renamed", "missing", "extra", "misshaped", "reordered"],
)
def test_checkpoint_rejects_tensors_outside_config_layout(tmp_path, edit):
    cfg = TINY
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, build_registry(cfg, seed=35), cfg)
    edit_checkpoint_tensors(path, path, edit)
    with pytest.raises(ShapeMismatch):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda m, blob: (b"not json", blob),
        lambda m, blob: (b"[]", blob),
        lambda m, blob: (json_bytes(without(m, "config")), blob),
        lambda m, blob: (json_bytes(without(m, "tensors")), blob),
        lambda m, blob: (json_bytes(dict(m, config=dict(m["config"], dropout=0.1))), blob),
        # a post-norm checkpoint must not load as the default pre-norm
        lambda m, blob: (json_bytes(dict(m, config=without(m["config"], "norm_placement"))), blob),
        lambda m, blob: (json_bytes(dict(m, config=dict(m["config"], d_model="8"))), blob),
        lambda m, blob: (json_bytes(dict(m, config=dict(m["config"], n_heads=0))), blob),
        lambda m, blob: (json_bytes(dict(m, tensors=[dict(m["tensors"][0], trainable="yes")]
                                    + m["tensors"][1:])), blob),
        lambda m, blob: (json_bytes(m), blob + b"\0\0\0\0"),
        lambda m, blob: (json_bytes(m), blob[:-16]),
        # not ModelConfig fields: the head is six-way and the key projection has no bias
        lambda m, blob: (json_bytes(dict(m, config=dict(m["config"], n_classes=6,
                                                   attention_key_bias=False))), blob),
        # a NaN in the last tensor (classifier.b)
        lambda m, blob: (json_bytes(m), blob[:-4] + np.float32(np.nan).tobytes()),
        # a consistent header declaring 32 GB of positions over the same small blob
        lambda m, blob: (json_bytes(dict(
            m, config=dict(m["config"], max_positions=10**9),
            tensors=[dict(t, shape=[10**9, t["shape"][1]]) if t["name"] == "embed_positions"
                     else t for t in m["tensors"]])), blob),
    ],
    ids=["not-json", "not-object", "no-config", "no-tensors", "unknown-config-key",
         "missing-config-key", "mistyped-config-value", "invalid-config", "bad-descriptor",
         "trailing-bytes", "truncated", "n-classes-and-key-bias-keys", "non-finite-value",
         "header-larger-than-file"],
)
def test_checkpoint_rejects_corrupt_file(tmp_path, corrupt):
    cfg = tiny_model_config(norm_placement="post")
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, build_registry(cfg, seed=35), cfg)
    rewrite_header(path, corrupt)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_forward_with_cache_matches_forward():
    reg = build_registry(TINY, seed=36)
    x = np.random.default_rng(37).uniform(-1, 1, size=(4, 8))
    logits, cache = forward_with_cache(x, reg, TINY)
    assert np.array_equal(logits, forward(x, reg, TINY))
    assert cache is not None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("placement", ["pre", "post"])
@pytest.mark.parametrize("activation", ["gelu", "relu"])
def test_prefix_then_forward_equals_forward_with_cache(placement, activation, dtype):
    """Stopping at any layer and resuming there computes the same logits as
    the cached forward, bit for bit; so does the cache-free forward."""
    cfg = tiny_model_config(n_layers=3, norm_placement=placement, ffn_activation=activation)
    reg = build_registry(cfg, seed=38, dtype=dtype)
    x = np.random.default_rng(39).uniform(-1, 1, size=(cfg.n_mels, 8))
    want = forward_with_cache(x, reg, cfg)[0]
    assert want.dtype == dtype
    assert np.array_equal(forward(x, reg, cfg), want)
    for stop in range(cfg.n_layers + 1):
        prefix = forward_prefix(x, reg, cfg, stop)
        assert prefix.layer == stop and prefix.h.dtype == dtype
        assert np.array_equal(forward(prefix, reg, cfg), want), stop


def test_forward_prefix_checks_its_input_and_stop(monkeypatch):
    reg = build_registry(TINY, seed=40)
    x = np.zeros((TINY.n_mels, 8))
    h = np.zeros((4, TINY.d_model), dtype=np.float32)
    with monkeypatch.context() as m:  # refused before any work
        for name in ("_conv_stem_fwd", "_encoder_layer_fwd", "_head_fwd"):
            m.setattr(model_mod, name, lambda *a: pytest.fail("ran before the range check"))
        n = TINY.n_layers
        for start, stop in ((0, n + 1), (0, -1), (-1, 0), (n + 1, n + 1), (2, 1)):
            with pytest.raises(ValueError):
                forward_prefix(x if start == 0 else LayerInput(start, h), reg, TINY, stop)
        for layer in (-1, n + 1):
            with pytest.raises(ValueError):
                forward(LayerInput(layer, h), reg, TINY)
            with pytest.raises(ValueError):
                forward_with_cache(LayerInput(layer, h), reg, TINY)
        nan_h = h.copy()
        nan_h[1, 2] = np.nan
        bad = [(np.zeros((4, TINY.d_model + 1)), ShapeMismatch), (h[0], ShapeMismatch),
               (np.zeros((TINY.max_positions + 1, TINY.d_model)), ShapeMismatch),
               (h[:0], ShapeMismatch), (nan_h, NonFiniteInput)]
        for bad_h, error in bad:
            with pytest.raises(error):
                forward_prefix(LayerInput(1, bad_h), reg, TINY, n)
            with pytest.raises(error):
                forward(LayerInput(1, bad_h), reg, TINY)
            with pytest.raises(error):
                forward_with_cache(LayerInput(1, bad_h), reg, TINY)
    x[0, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        forward_prefix(x, reg, TINY, 0)
    with pytest.raises(ShapeMismatch):
        forward_prefix(np.zeros((TINY.n_mels, 7)), reg, TINY, 1)


def _grads_from_layer(x, reg, cfg, k):
    """backward_pass's gradients from a cached forward that starts at layer k's input."""
    _, cache = forward_with_cache(forward_prefix(x, reg, cfg, k), reg, cfg)
    return backward_pass(np.linspace(-0.5, 0.5, 6), cache, reg, cfg)


def _assert_suffix_of(grads, full, reg, cfg, k):
    """grads holds exactly the head's and layers k..'s tensors, each equal to full's."""
    groups = {HEAD} | {encoder_layer_group(j) for j in range(k, cfg.n_layers)}
    assert set(grads) == {name for name, e in reg.items() if e.group in groups}, k
    for name, g in grads.items():
        assert g.dtype == reg.dtype and np.array_equal(g, full[name]), (k, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("placement", ["pre", "post"])
@pytest.mark.parametrize("activation", ["gelu", "relu"])
def test_backward_from_each_layer_walks_only_the_layers_it_cached(placement, activation, dtype):
    """From layer k's input, for every k, the gradients of layers k.. and of
    the head equal the full path's bit for bit, and no other tensor gets one."""
    cfg = tiny_model_config(n_layers=3, norm_placement=placement, ffn_activation=activation)
    reg = build_registry(cfg, seed=44, dtype=dtype)
    x = np.random.default_rng(45).uniform(-1, 1, size=(cfg.n_mels, 8))
    _, cache = forward_with_cache(x, reg, cfg)
    full = backward_pass(np.linspace(-0.5, 0.5, 6), cache, reg, cfg)
    assert set(full) == set(reg.names())
    for k in range(cfg.n_layers + 1):
        _assert_suffix_of(_grads_from_layer(x, reg, cfg, k), full, reg, cfg, k)


def test_paper_scale_backward_from_the_last_layer_equals_the_full_path():
    cfg = ModelConfig()
    reg = build_registry(cfg, seed=46)
    x = np.random.default_rng(47).uniform(-1, 1, size=(cfg.n_mels, 600)).astype(np.float32)
    _, cache = forward_with_cache(x, reg, cfg)
    full = backward_pass(np.linspace(-0.5, 0.5, 6), cache, reg, cfg)
    _assert_suffix_of(_grads_from_layer(x, reg, cfg, 5), full, reg, cfg, 5)


def test_a_cache_from_a_layer_input_holds_no_stem():
    reg = build_registry(TINY, seed=48)
    x = np.random.default_rng(49).uniform(-1, 1, size=(TINY.n_mels, 8))
    logits, cache = forward_with_cache(forward_prefix(x, reg, TINY, 0), reg, TINY)
    stem, layers, _ = cache
    assert stem is None and len(layers) == TINY.n_layers
    assert np.array_equal(logits, forward(x, reg, TINY))
    grads = backward_pass(np.ones(6), cache, reg, TINY)
    assert not {"conv1.w", "conv1.b", "conv2.w", "conv2.b", "embed_positions"} & set(grads)


@pytest.mark.parametrize("placement", ["pre", "post"])
def test_backward_takes_only_the_input_gradients_a_gradient_reads(placement, monkeypatch):
    """Counted, not timed: from a spectrogram every layer's input gradient is
    taken. From layer k's input, layer k's is not, and neither is the head's
    when no layer ran: the first layer skips its q/k/v input-gradient products
    under post-norm and its attention norm's input gradient under pre-norm
    (where the q/k/v ones feed that norm's gamma and beta)."""
    cfg = tiny_model_config(n_layers=3, norm_placement=placement)
    reg = build_registry(cfg, seed=52)
    x = np.random.default_rng(53).uniform(-1, 1, size=(cfg.n_mels, 8))
    taken = {"_linear_bwd": 0, "_layer_norm_bwd": 0}
    for name in taken:
        def counted(dy, cache_or_x, w_or_gamma, *rest, _name=name, _fn=getattr(model_mod, name),
                    **kw):
            taken[_name] += w_or_gamma is not None  # None: no input gradient
            return _fn(dy, cache_or_x, w_or_gamma, *rest, **kw)
        monkeypatch.setattr(model_mod, name, counted)
    pre = placement == "pre"
    for k in [None, *range(cfg.n_layers + 1)]:
        taken.update(dict.fromkeys(taken, 0))
        if k is None:
            _, cache = forward_with_cache(x, reg, cfg)
            backward_pass(np.linspace(-0.5, 0.5, 6), cache, reg, cfg)
            want = (6 * cfg.n_layers, 2 * cfg.n_layers + 1)
        else:
            _grads_from_layer(x, reg, cfg, k)
            n = cfg.n_layers - k
            want = (6 * n - 3 * (not pre), 2 * n + (not pre)) if n else (0, 0)
        assert (taken["_linear_bwd"], taken["_layer_norm_bwd"]) == want, k


@pytest.mark.parametrize("placement", ["pre", "post"])
def test_backward_from_a_layer_cache_matches_finite_differences(placement):
    """Under Frz0-0+FrzFE the trainable tensors are exactly those a layer-1
    cache holds; central differences (h=1e-3) agree to 1e-4 in float64."""
    from stutterkit.trainer import bce_with_logits, bce_with_logits_grad

    cfg = tiny_model_config(norm_placement=placement)
    reg = apply_freeze(build_registry(cfg, seed=50, dtype=np.float64), parse_freeze_spec("Frz0-0+FrzFE", 2))
    x = np.random.default_rng(51).uniform(-1, 1, size=(cfg.n_mels, 8))
    bits = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    h1 = forward_prefix(x, reg, cfg, 1)
    logits, cache = forward_with_cache(h1, reg, cfg)
    grads = backward_pass(bce_with_logits_grad(logits, bits, 1), cache, reg, cfg)
    assert set(grads) == {name for name, e in reg.items() if e.trainable}
    worst = finite_diff_check(lambda: bce_with_logits(forward(h1, reg, cfg), bits), reg, grads)
    assert worst < 1e-4


@pytest.mark.parametrize("spec, depth", [
    ("UnFrz0-5", None),
    ("UnFrz0-5+FrzFE", 0),
    ("Frz0-2", None),
    ("Frz0-2+FrzFE", 3),
    ("Frz0-3+FrzFE", 4),
    ("Frz0-4+FrzFE", 5),
    ("Frz0-5+FrzFE", 6),
])
def test_frozen_prefix_depth_under_audit_specs(spec, depth):
    from stutterkit.cli import PARAM_AUDIT_SPECS

    assert spec in PARAM_AUDIT_SPECS
    cfg = tiny_model_config(n_layers=6)
    reg = apply_freeze(build_registry(cfg, seed=42), parse_freeze_spec(spec, cfg.n_layers))
    assert frozen_prefix_depth(reg, cfg) == depth


def test_frozen_prefix_depth_needs_the_whole_group_frozen():
    cfg = tiny_model_config(n_layers=2)
    reg = apply_freeze(build_registry(cfg, seed=43), parse_freeze_spec("Frz0-1+FrzFE", 2))
    reg.entry("layers.1.ffn.b2").trainable = True
    assert frozen_prefix_depth(reg, cfg) == 1
    reg.entry("embed_positions").trainable = True
    assert frozen_prefix_depth(reg, cfg) is None


def test_activation_helpers():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 3.0]))
    assert _gelu_fwd(np.zeros(3))[0].tolist() == [0.0, 0.0, 0.0]
    # gelu(x) ~ x for large positive x, ~0 for large negative
    assert _gelu_fwd(np.array([10.0]))[0][0] == pytest.approx(10.0, abs=1e-6)
    assert _gelu_fwd(np.array([-10.0]))[0][0] == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# erf and GELU


def test_erf_float32_kernel_is_within_5e7_of_math_erf():
    x = np.linspace(-8.0, 8.0, 400_001, dtype=np.float32)
    want = np.array([math.erf(v) for v in x.tolist()])
    got = erf(x)
    assert got.dtype == np.float32
    assert np.max(np.abs(got - want)) < 5e-7


def test_erf_float64_is_within_2e16_of_math_erf():
    x = np.linspace(-8.0, 8.0, 40_001)
    want = np.array([math.erf(v) for v in x.tolist()])
    got = erf(x)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 2e-16


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_is_exactly_odd(dtype):
    x = np.random.default_rng(0).normal(scale=3.0, size=10_000).astype(dtype)
    assert np.array_equal(erf(-x), -erf(x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_signed_zero_infinities_and_nan(dtype):
    got = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype))
    assert got.dtype == dtype
    assert got[:4].tolist() == [0.0, 0.0, 1.0, -1.0]
    assert np.signbit(got[:2]).tolist() == [False, True]
    assert np.isnan(got[4])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_of_zero_d_and_empty_arrays(dtype):
    got = erf(np.array(0.5, dtype=dtype))
    assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == dtype
    assert abs(float(got) - math.erf(0.5)) < 5e-7
    for shape in ((0,), (2, 0)):
        empty = erf(np.zeros(shape, dtype=dtype))
        assert empty.shape == shape and empty.dtype == dtype


def test_erf_leaves_its_input_alone():
    x = np.array([-5.0, 0.3, 2.0], dtype=np.float32)
    before = x.copy()
    erf(x)
    assert np.array_equal(x, before)


@pytest.mark.parametrize("where", ["conv1.b", "layers.0.ffn.b1"])
def test_nan_through_gelu_reaches_non_finite_activation(where):
    reg = build_registry(TINY, seed=3)
    reg[where][0] = np.nan
    x = np.random.default_rng(4).uniform(-1, 1, size=(TINY.n_mels, 8))
    with pytest.raises(NonFiniteActivation):
        forward(x, reg, TINY)


def test_gelu_grad_matches_closed_form():
    x = np.linspace(-6.0, 6.0, 1201)
    want = np.array([
        0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) + v * math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
        for v in x.tolist()
    ])
    assert np.max(np.abs(gelu_grad(x, _gelu_fwd(x)[1]) - want)) < 1e-15


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_gelu_terms_come_from_the_forward_cache(dtype):
    """Each FFN cache holds Phi(z1) next to z1, and the stem cache holds the
    GELU derivative of both convolutions: the backward's derivative and the
    rebuilt FFN activation z1 * Phi equal those recomputed from z, bit for bit."""
    reg = build_registry(TINY, seed=5, dtype=dtype)
    x = np.random.default_rng(6).uniform(-1, 1, size=(TINY.n_mels, 8)).astype(dtype)
    _, (stem, layers, _) = forward_with_cache(x, reg, TINY)
    (dgelu1, _), (dgelu2, _) = stem
    z1 = _conv_fwd(x.T, reg["conv1.w"], reg["conv1.b"], 1)[0]  # the stem runs time-major
    z2 = _conv_fwd(_gelu_fwd(z1)[0], reg["conv2.w"], reg["conv2.b"], 2)[0]
    assert dgelu1.dtype == dgelu2.dtype == dtype
    assert np.array_equal(dgelu1, gelu_grad(z1, _gelu_fwd(z1)[1]))
    assert np.array_equal(dgelu2, gelu_grad(z2, _gelu_fwd(z2)[1]))
    for _, z, phi in (layer[1][1] for layer in layers):
        assert phi.dtype == dtype
        assert np.array_equal(gelu_grad(z, phi), gelu_grad(z, _gelu_fwd(z)[1]))
        assert np.array_equal(z * phi, _gelu_fwd(z)[0])


# ---------------------------------------------------------------------------
# Blocked elementwise chains and single-allocation activations


def _unblocked_gelu(z):
    """GELU and Phi as one whole-array chain, the order the blocked kernel keeps."""
    phi = erf(z / math.sqrt(2.0))
    phi += 1.0
    phi *= 0.5
    return z * phi, phi


def _unblocked_gelu_grad(x, phi):
    g = x * x
    g *= -0.5
    np.exp(g, out=g)
    g *= x
    g *= 1.0 / math.sqrt(2.0 * math.pi)
    g += phi
    return g


def _stem_activation(dtype):
    """conv1's output at paper width over 600 frames: time-major and
    C-ordered, [600 x 512], 4.7 blocks."""
    reg = build_registry(ModelConfig(n_layers=1), seed=21, dtype=dtype)
    x = np.random.default_rng(22).uniform(-1, 1, size=(600, 80)).astype(dtype)
    z = _conv_fwd(x, reg["conv1.w"], reg["conv1.b"], 1)[0]
    assert z.shape == (600, 512) and z.flags.c_contiguous
    return z


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", ["one-element", "block", "block+1", "odd-2d", "stem-activation"])
def test_blocked_gelu_kernels_equal_the_whole_array_chain(size, dtype):
    rng = np.random.default_rng(23)
    if size == "stem-activation":
        z = _stem_activation(dtype)
    else:
        shape = {"one-element": (1,), "block": (BLOCK,), "block+1": (BLOCK + 1,),
                 "odd-2d": (3, BLOCK // 2 + 7)}[size]
        z = rng.normal(scale=3.0, size=shape).astype(dtype)
    before = z.copy()
    a, phi = _gelu_fwd(z)
    want_a, want_phi = _unblocked_gelu(z)
    assert a.dtype == phi.dtype == dtype
    assert np.array_equal(a, want_a) and np.array_equal(phi, want_phi)
    assert np.array_equal(gelu_grad(z, phi), _unblocked_gelu_grad(z, want_phi))
    assert np.array_equal(z, before)


def test_blocks_yields_aligned_views_that_write_through():
    c = np.arange(3 * (BLOCK // 2 + 1), dtype=np.float32).reshape(3, -1)
    out = np.zeros_like(c)
    sizes = []
    for cb, ob in blocks(c, out):
        sizes.append(cb.size)
        np.multiply(cb, 2.0, out=ob)
    assert sizes == [BLOCK, BLOCK // 2 + 3]
    assert np.array_equal(out, 2.0 * c)


@pytest.mark.parametrize(
    "arrays",
    [lambda a: (a[:, ::2],), lambda a: (a, np.zeros((3, 16), a.dtype)[:, ::2]),
     lambda a: (a, np.asfortranarray(a)), lambda a: (a, a[:2]), lambda a: (np.asfortranarray(a),)],
    ids=["strided", "strided-second", "mixed-c-and-f", "other-shape", "f-ordered"],
)
def test_blocks_refuses_what_it_cannot_write_through(arrays):
    a = np.zeros((3, 8), dtype=np.float32)
    with pytest.raises(ValueError):
        next(blocks(*arrays(a)))


def _arrays(tree):
    """Every ndarray in a nested tuple/list structure, depth first."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, (tuple, list)):
        return [a for item in tree for a in _arrays(item)]
    return []


@pytest.mark.parametrize("placement, activation", [("pre", "gelu"), ("post", "relu")])
def test_passes_leave_their_inputs_and_caches_unchanged(placement, activation):
    cfg = tiny_model_config(norm_placement=placement, ffn_activation=activation)
    reg = build_registry(cfg, seed=25)
    x = np.random.default_rng(26).uniform(-1, 1, size=(cfg.n_mels, 8)).astype(np.float32)
    x_before = x.copy()
    logits = forward(x, reg, cfg)
    prefix = forward_prefix(x, reg, cfg, 1)
    h_before = prefix.h.copy()
    assert np.array_equal(forward(prefix, reg, cfg), logits)
    assert np.array_equal(prefix.h, h_before)
    cached_logits, cache = forward_with_cache(x, reg, cfg)
    assert np.array_equal(x, x_before) and np.array_equal(cached_logits, logits)
    # a layer's cached sub-layer input is still what that layer was given
    (_, (attn_in, *_)), _ = cache[1][1]
    gamma, beta = reg["layers.1.attn_norm.gamma"], reg["layers.1.attn_norm.beta"]
    assert np.array_equal(attn_in, prefix.h if placement == "post" else _layer_norm_fwd(prefix.h, gamma, beta)[0])
    snapshot = [a.copy() for a in _arrays(cache)]
    dlogits = np.linspace(-0.5, 0.5, 6)
    dlogits_before = dlogits.copy()
    backward_pass(dlogits, cache, reg, cfg)
    assert np.array_equal(dlogits, dlogits_before)
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(cache), snapshot, strict=True))


_FAULT_SCRIPT = """
import resource, sys
import numpy as np
from stutterkit.model import forward, load_checkpoint
reg, cfg = load_checkpoint(sys.argv[1])
x = np.random.default_rng(0).uniform(-1, 1, size=(cfg.n_mels, 600)).astype(np.float32)
forward(x, reg, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
forward(x, reg, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_paper_scale_forward_after_load_checkpoint_reuses_its_pages(tmp_path):
    """A forward allocates each activation once, so once a first forward has
    run, the next faults in few fresh pages; allocating every temporary of
    each elementwise step took 25,144 minor faults (about 100 MB) here."""
    path = tmp_path / "paper.ckpt"
    save_checkpoint(path, build_registry(ModelConfig(), seed=0), ModelConfig())
    src = Path(model_mod.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT, str(path)],
                          env=env, capture_output=True, text=True, check=True)
    assert int(proc.stdout) <= 25_144 // 2


# ---------------------------------------------------------------------------
# The worker thread


def _set_worker(monkeypatch, on):
    """Force the worker on or off; the test's pool goes when the test ends."""
    monkeypatch.setattr(model_mod, "_use_worker", on)
    monkeypatch.setattr(model_mod, "_pool", None)


def _fwd_bwd(x, reg, cfg):
    logits, cache = forward_with_cache(x, reg, cfg)
    return [logits, forward(x, reg, cfg), forward(forward_prefix(x, reg, cfg, 1), reg, cfg),
            backward_pass(np.linspace(-0.5, 0.5, 6), cache, reg, cfg)]


def _assert_same_bits(a, b):
    *logits_a, grads_a = a
    *logits_b, grads_b = b
    assert all(np.array_equal(u, v) for u, v in zip(logits_a, logits_b, strict=True))
    assert set(grads_a) == set(grads_b)
    assert all(np.array_equal(grads_a[name], grads_b[name]) for name in grads_a), [
        name for name in grads_a if not np.array_equal(grads_a[name], grads_b[name])]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("placement", ["pre", "post"])
@pytest.mark.parametrize("activation", ["gelu", "relu"])
def test_worker_on_and_off_give_the_same_bits(placement, activation, dtype, monkeypatch):
    cfg = tiny_model_config(n_heads=4, norm_placement=placement, ffn_activation=activation)
    reg = build_registry(cfg, seed=54, dtype=dtype)
    x = np.random.default_rng(55).uniform(-1, 1, size=(cfg.n_mels, 8))
    runs = []
    for on in (False, True):
        _set_worker(monkeypatch, on)
        runs.append(_fwd_bwd(x, reg, cfg))
    assert model_mod._pool is not None  # the worker started
    _assert_same_bits(*runs)


def test_paper_scale_worker_on_and_off_give_the_same_bits(monkeypatch):
    """UnFrz0-5: every tensor trains, so every product of the backward runs."""
    cfg = ModelConfig()
    reg = apply_freeze(build_registry(cfg, seed=56), parse_freeze_spec("UnFrz0-5"))
    x = np.random.default_rng(57).uniform(-1, 1, size=(cfg.n_mels, 600)).astype(np.float32)
    runs = []
    for on in (False, True):
        _set_worker(monkeypatch, on)
        runs.append(_fwd_bwd(x, reg, cfg))
    _assert_same_bits(*runs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_short_clips_give_the_same_bits_with_the_worker_on_and_off(dtype, monkeypatch):
    """One paper-width layer at every length up to 40 positions, where the
    forward's row halves start at 8 rows each, and at 150, 300 and 1500."""
    cfg = ModelConfig(n_layers=1)
    reg = build_registry(cfg, seed=60, dtype=dtype)
    rng = np.random.default_rng(61)
    dlogits = np.linspace(-0.5, 0.5, 6)
    _set_worker(monkeypatch, True)  # one pool for the test; the loop only switches the rule
    for n_pos in [*range(1, 41), 150, 300, 1500]:
        x = rng.uniform(-1, 1, size=(cfg.n_mels, 2 * n_pos))
        runs = []
        for on in (True, False):
            model_mod._use_worker = on
            plain = forward(x, reg, cfg)
            logits, cache = forward_with_cache(x, reg, cfg)
            runs.append([logits, plain, backward_pass(dlogits, cache, reg, cfg)])
            del cache  # 1500 positions in float64 cache 144 MB of attention weights
        _assert_same_bits(*runs)


def test_the_worker_runs_one_row_half_of_every_forward_product(monkeypatch):
    """Each layer's q, k, v, out, w1 and w2 products and its GELU run one row
    half on the worker, and so do the attention heads and the stem's two
    GELUs; the stem's two products run whole here."""
    cfg = tiny_model_config(max_positions=16)
    reg = build_registry(cfg, seed=62)
    x = np.random.default_rng(63).uniform(-1, 1, size=(cfg.n_mels, 32))  # 16 positions
    ran = []

    class OnWorker(model_mod._Task):
        """A _Task that records the thread it ran on, and waits for the worker."""

        def __init__(self, fn, *args, **kwargs):
            def call(*a, **k):
                ran.append((threading.get_ident(), fn))
                return fn(*a, **k)

            super().__init__(call, *args, **kwargs)

        def wait(self):
            return self.future.result(timeout=60)

    _set_worker(monkeypatch, True)
    monkeypatch.setattr(model_mod, "_Task", OnWorker)
    forward(x, reg, cfg)
    on_worker = [fn for ident, fn in ran if ident != threading.get_ident()]
    assert len(on_worker) == len(ran)
    tensors = [name for fn in on_worker for cell in fn.__closure__ or ()
               for name in reg.names() if cell.cell_contents is reg[name]]
    products = ("attn.q.w", "attn.q.b", "attn.k.w", "attn.v.w", "attn.v.b", "attn.out.w",
                "attn.out.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")
    assert sorted(tensors) == sorted(f"layers.{k}.{key}" for k in range(cfg.n_layers)
                                     for key in products)
    kinds = [fn.__qualname__.split(".")[0] for fn in on_worker]
    assert kinds.count("_linear_fwd") == 6 * cfg.n_layers
    assert kinds.count("_attention_core_fwd") == cfg.n_layers
    assert kinds.count("_gelu_fwd") == cfg.n_layers + 2


def test_with_the_worker_off_the_heads_run_once_whole(monkeypatch):
    """Without the worker, _split_work runs its work in one call over
    slice(None): the attention heads of each layer's forward and backward,
    and the row-split products, which reach it through _row_halves."""
    cfg = tiny_model_config(n_heads=4, max_positions=16)
    reg = build_registry(cfg, seed=62)
    x = np.random.default_rng(63).uniform(-1, 1, size=(cfg.n_mels, 32))  # 16 positions
    calls = []
    split_work = model_mod._split_work

    def logged_split_work(fn, n):
        def logged(s):
            calls.append((fn.__qualname__, s))
            fn(s)

        split_work(logged, n)

    _set_worker(monkeypatch, False)
    monkeypatch.setattr(model_mod, "_split_work", logged_split_work)
    _, cache = forward_with_cache(x, reg, cfg)
    backward_pass(np.linspace(-0.5, 0.5, 6), cache, reg, cfg)
    assert all(s == slice(None) for _, s in calls), calls
    kinds = [name for name, _ in calls]
    for core in ("_attention_core_fwd", "_attention_core_bwd"):
        assert kinds.count(f"{core}.<locals>.heads") == cfg.n_layers, kinds
    assert kinds.count("_linear_fwd.<locals>.rows") == 6 * cfg.n_layers


def test_with_the_worker_off_the_attention_backward_holds_one_scratch(monkeypatch):
    """With the worker off the heads run in one call, which needs one [T x T]
    scratch for its row sums: the traced peak holds dq, dk, dv, the
    [heads x T x T] dprobs and that one scratch, not one per head half."""
    t, d, n_heads = 300, 8, 2
    rng = np.random.default_rng(65)
    q, k, v, dctx = (rng.normal(size=(t, d)) for _ in range(4))
    _set_worker(monkeypatch, False)
    _, cache = _attention_core_fwd(q, k, v, n_heads)
    _, peak = traced_memory(lambda: _attention_core_bwd(dctx, cache, n_heads))
    square = t * t * 8
    assert peak < 3 * t * d * 8 + (n_heads + 1.5) * square, peak / square


@pytest.mark.parametrize("on", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("placement", ["pre", "post"])
def test_a_layer_input_gives_the_same_bits_in_c_and_f_order(placement, dtype, on, monkeypatch):
    """forward of a LayerInput and encoder_layer_forward copy an input in
    another layout to C order once, so an F-ordered one gives the C-ordered
    one's logits and layer output, bit for bit."""
    cfg = tiny_model_config(d_model=64, n_heads=4, d_ffn=128, max_positions=32,
                            norm_placement=placement)
    reg = build_registry(cfg, seed=66, dtype=dtype)
    c = np.random.default_rng(67).uniform(-1, 1, size=(20, cfg.d_model)).astype(dtype)
    f = np.asfortranarray(c)
    assert not f.flags.c_contiguous
    _set_worker(monkeypatch, on)
    assert np.array_equal(forward(LayerInput(1, f), reg, cfg), forward(LayerInput(1, c), reg, cfg))
    assert np.array_equal(encoder_layer_forward(f, reg, 0, cfg), encoder_layer_forward(c, reg, 0, cfg))


@pytest.mark.parametrize("dtype, tasks", [(np.float32, 1), (np.float64, 0)])
def test_only_a_float32_gelu_runs_a_row_half_on_the_worker(dtype, tasks, monkeypatch):
    """float64 erf builds a Python object array, which the worker must not
    allocate, so a float64 GELU runs whole here; its bits do not change."""
    z = np.random.default_rng(64).uniform(-4, 4, size=(2 * model_mod.MIN_SPLIT_ROWS, 24)).astype(dtype)
    _set_worker(monkeypatch, False)
    whole = _gelu_fwd(z)
    submitted = []

    class Counted(model_mod._Task):
        def __init__(self, fn, *args, **kwargs):
            submitted.append(fn)
            super().__init__(fn, *args, **kwargs)

    _set_worker(monkeypatch, True)
    monkeypatch.setattr(model_mod, "_Task", Counted)
    on = _gelu_fwd(z)
    assert len(submitted) == tasks
    assert all(np.array_equal(a, b) for a, b in zip(whole, on, strict=True))


@pytest.mark.parametrize("on", [False, True])
@pytest.mark.parametrize("spec", ["UnFrz0-1", "Frz0-0+FrzFE"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_pass_adds_into_the_accumulators_it_returns(dtype, spec, on, monkeypatch):
    """With `into`, every tensor the forward ran comes back, the trainable ones
    as the accumulators themselves, and after two examples each accumulator
    holds 0 + g1 + g2 of into-less passes, byte for byte."""
    cfg = tiny_model_config(max_positions=16)
    reg = apply_freeze(build_registry(cfg, seed=65, dtype=dtype), parse_freeze_spec(spec, cfg.n_layers))
    rng = np.random.default_rng(66)
    _set_worker(monkeypatch, on)
    passes = []  # (dlogits, cache) per example; clips of 16 and 5 positions
    for frames in (32, 10):
        _, cache = forward_with_cache(rng.uniform(-1, 1, size=(cfg.n_mels, frames)), reg, cfg)
        passes.append((rng.uniform(-0.5, 0.5, size=6), cache))
    fresh = [backward_pass(d, cache, reg, cfg) for d, cache in passes]
    trainable = [name for name, e in reg.items() if e.trainable]
    want = {name: np.zeros_like(reg[name]) + fresh[0][name] + fresh[1][name] for name in trainable}
    into = {name: np.zeros_like(reg[name]) for name in trainable}
    for (d, cache), plain in zip(passes, fresh):
        got = backward_pass(d, cache, reg, cfg, into)
        assert set(got) == set(plain) == set(reg.names())
        for name in got:
            if name in into:
                assert got[name] is into[name], name
            else:
                assert got[name].tobytes() == plain[name].tobytes(), name
    assert all(into[name].tobytes() == want[name].tobytes() for name in trainable)


@pytest.mark.parametrize("env, cpus, on", [
    ({}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8, True),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "1"}, 1, False),
    # OpenBLAS skips a count that is not a positive integer
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "one", "OMP_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "-1"}, 2, False),
])
def test_worker_rule(env, cpus, on, monkeypatch):
    """The rule, and gemm_workers applying it to this process's environment
    and CPU set: when it says no, a backward product starts no thread."""
    assert _worker_rule(env, cpus) is on
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    _set_worker(monkeypatch, None)
    threads = set(threading.enumerate())
    rng = np.random.default_rng(58)
    dy, x, w = (rng.standard_normal(shape) for shape in ((5, 3), (5, 4), (4, 3)))
    _linear_bwd(dy, x, w)
    assert model_mod.gemm_workers() == on
    if not on:
        assert set(threading.enumerate()) <= threads and model_mod._pool is None


def test_a_product_the_worker_has_not_started_runs_on_the_caller(monkeypatch):
    """A busy or unscheduled worker does not stall the caller."""
    _set_worker(monkeypatch, True)
    release = threading.Event()
    busy = model_mod._Task(release.wait, 30)
    try:
        assert model_mod._Task(threading.get_ident).wait() == threading.get_ident()
    finally:
        release.set()
    assert busy.wait() is True


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_starts_its_own_worker(monkeypatch):
    """The parent's worker thread does not exist in a forked child: the
    child's products run on a worker of its own. Budget 60 s."""
    _set_worker(monkeypatch, True)
    rng = np.random.default_rng(59)
    dy, x, w = (rng.standard_normal(shape) for shape in ((50, 30), (50, 40), (40, 30)))
    want = _linear_bwd(dy, x, w)
    assert model_mod._pool is not None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its exit status
        ok = False
        try:
            ran_on = model_mod._Task(threading.get_ident).future.result(timeout=30)
            ok = ran_on != threading.get_ident() and all(
                np.array_equal(a, b) for a, b in zip(_linear_bwd(dy, x, w), want))
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on its parent's worker")
    assert os.waitstatus_to_exitcode(done[1]) == 0
