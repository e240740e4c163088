"""Encoder-only transformer for multi-label audio classification.

Architecture: two-layer conv stem over the mel axis (kernel 3, second conv
stride 2, GELU after each), additive sinusoidal position table, a stack of
self-attention encoder layers (pre- or post-norm), final layer norm, mean
pooling over time, a linear projector, and a linear six-way classifier.
Each conv pads time by one on either side, unfolds the kernel-3 patches
into a [T/stride x C_in*3] matrix and runs one product with its weight.
Every array past the spectrogram is C-contiguous and time-major, [T x C].

All parameters live in a ParameterRegistry keyed by name and grouped into
feature_extractor / encoder_layer_k / head so a freezing strategy is the
set of groups it freezes. Forward passes are pure reads of the registry.
forward_prefix runs the stem (from a spectrogram) and encoder layers up to a
stop; forward and forward_with_cache add the head. backward_pass returns
gradients for what the forward_with_cache that made its cache ran.

Compute follows the registry's dtype: the public entry points cast their
inputs to it and every intermediate, cache entry and gradient stays in it.
build_registry defaults to float32 (DTYPE), the checkpoint's storage dtype,
so a saved model is bit-for-bit the one that was trained and validated; the
oracle tests build float64 registries.

Elementwise steps write into the buffer that holds their result: softmax,
the residual adds, layer norm's centring and scaling, and the linear bias
add. The elementwise chains (GELU, its derivative, trainer.adam_update) run
over BLOCK-element pieces of their arrays (see blocks), so a piece stays in
cache from one operation to the next. Each element sees the same
operations in the same order as in a whole-array chain, so the bits are
identical.

When the BLAS runs one thread and the process may use two or more CPUs (see
_worker_rule), one worker thread runs beside the caller. In the forward,
every linear product of a [T x d] input (q, k, v, out, w1, w2) and every
GELU run in two row halves, the first on the worker and the second on the
caller, into one output the caller allocated; so do the two halves of the
attention heads. In the backward the worker takes each linear's and conv's
weight gradient while the caller takes the input gradient, and the first
half of the heads. A row half of a product gives exactly the whole product's
rows once each half has MIN_SPLIT_ROWS (8) rows, so shorter inputs run
whole, as do the stem's two products; every bit is the same with the worker
on or off. Nothing else runs on the worker: the public functions, the
trainer and Adam stay on the caller's thread.
"""

from __future__ import annotations

import functools
import math
import os
import re
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .headers import read_arrays, read_config, read_header, write_file
from .labels import N_CLASSES

DTYPE = np.float32  # build_registry's default, and the dtype a checkpoint stores (headers)
LN_EPS = 1e-5

FEATURE_EXTRACTOR = "feature_extractor"
HEAD = "head"


class ShapeMismatch(ValueError):
    """Input tensor shape violates an operation's contract."""


class NonFiniteInput(ValueError):
    """NaN or Inf in an operation's input."""


class NonFiniteActivation(ValueError):
    """NaN or Inf appeared mid-layer."""


class FreezeSpecError(ValueError):
    """Freeze spec string does not match the UnFrz/Frz grammar."""


class CorruptCheckpoint(ValueError):
    """Checkpoint header or tensor blob is not one save_checkpoint writes."""


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 512
    n_layers: int = 6
    n_heads: int = 8
    d_ffn: int = 2048
    n_mels: int = 80
    max_positions: int = 1500
    d_proj: int = 256
    norm_placement: str = "pre"  # "pre" | "post"
    ffn_activation: str = "gelu"  # "gelu" | "relu"

    def __post_init__(self) -> None:
        sizes = ("d_model", "n_layers", "n_heads", "d_ffn", "n_mels", "max_positions", "d_proj")
        if any(getattr(self, name) < 1 for name in sizes):
            raise ValueError(f"{', '.join(n for n in sizes if getattr(self, n) < 1)} must be >= 1")
        if self.d_model % self.n_heads:
            raise ShapeMismatch(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.d_model % 2:
            raise ShapeMismatch("d_model must be even for sinusoidal positions")
        if self.norm_placement not in ("pre", "post"):
            raise ValueError(f"norm_placement must be 'pre' or 'post', got {self.norm_placement!r}")
        if self.ffn_activation not in ("gelu", "relu"):
            raise ValueError(f"ffn_activation must be 'gelu' or 'relu', got {self.ffn_activation!r}")


def encoder_layer_group(k: int) -> str:
    return f"encoder_layer_{k}"


# Per-layer tensor key -> shape in symbols (d = d_model, f = d_ffn), in
# registry order. The attention key projection carries no bias.
_LAYER_TENSORS: dict[str, tuple[str, ...]] = {
    "attn.q.w": ("d", "d"), "attn.q.b": ("d",), "attn.k.w": ("d", "d"),
    "attn.v.w": ("d", "d"), "attn.v.b": ("d",), "attn.out.w": ("d", "d"), "attn.out.b": ("d",),
    "attn_norm.gamma": ("d",), "attn_norm.beta": ("d",),
    "ffn.w1": ("d", "f"), "ffn.b1": ("f",), "ffn.w2": ("f", "d"), "ffn.b2": ("d",),
    "ffn_norm.gamma": ("d",), "ffn_norm.beta": ("d",),
}


def param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, group) for every parameter, in registry order.

    Linear weights are stored [in, out] (y = x @ W + b); conv weights
    [out, in, kernel]. The attention key projection carries no bias.
    """
    d, m = cfg.d_model, cfg.n_mels
    dims = {"d": d, "f": cfg.d_ffn}
    specs: list[tuple[str, tuple[int, ...], str]] = [
        ("conv1.w", (d, m, 3), FEATURE_EXTRACTOR),
        ("conv1.b", (d,), FEATURE_EXTRACTOR),
        ("conv2.w", (d, d, 3), FEATURE_EXTRACTOR),
        ("conv2.b", (d,), FEATURE_EXTRACTOR),
        ("embed_positions", (cfg.max_positions, d), FEATURE_EXTRACTOR),
    ]
    for k in range(cfg.n_layers):
        g = encoder_layer_group(k)
        specs += [
            (f"layers.{k}.{key}", tuple(dims[s] for s in shape), g)
            for key, shape in _LAYER_TENSORS.items()
        ]
    specs += [
        ("post_encoder_layernorm.gamma", (d,), HEAD),
        ("post_encoder_layernorm.beta", (d,), HEAD),
        ("projector.w", (d, cfg.d_proj), HEAD),
        ("projector.b", (cfg.d_proj,), HEAD),
        ("classifier.w", (cfg.d_proj, N_CLASSES), HEAD),
        ("classifier.b", (N_CLASSES,), HEAD),
    ]
    return specs


@dataclass
class ParamEntry:
    value: np.ndarray
    group: str
    trainable: bool = True


class ParameterRegistry:
    """Ordered name -> (tensor, group, trainable) map for every model parameter.

    All tensors share one floating dtype, which is the model's compute dtype."""

    def __init__(self) -> None:
        self._entries: dict[str, ParamEntry] = {}

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every tensor (DTYPE while the registry is empty)."""
        for e in self._entries.values():
            return e.value.dtype
        return np.dtype(DTYPE)

    def add(self, name: str, value: np.ndarray, group: str, trainable: bool = True) -> None:
        """Store `value` as is if it is floating (non-floating values become
        DTYPE); ValueError on a duplicate name or a second dtype."""
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        value = np.asarray(value)
        if not np.issubdtype(value.dtype, np.floating):
            value = value.astype(DTYPE)
        if self._entries and value.dtype != self.dtype:
            raise ValueError(f"parameter {name!r} is {value.dtype}; the registry holds {self.dtype}")
        self._entries[name] = ParamEntry(value, group, trainable)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name].value

    def entry(self, name: str) -> ParamEntry:
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def total_count(self) -> int:
        return sum(e.value.size for e in self._entries.values())

    def copy(self) -> "ParameterRegistry":
        out = ParameterRegistry()
        for name, e in self._entries.items():
            out.add(name, e.value.copy(), e.group, e.trainable)
        return out


def sinusoidal_positions(n_pos: int, d: int) -> np.ndarray:
    """[n_pos x d] table: column 2i holds sin(pos / 10000^(2i/d)), column 2i+1 the cosine."""
    if d % 2:
        raise ShapeMismatch("embedding dimension must be even")
    pos = np.arange(n_pos, dtype=np.float64)[:, None]
    i = np.arange(d // 2, dtype=np.float64)[None, :]
    angles = pos / 10000.0 ** (2.0 * i / d)
    table = np.empty((n_pos, d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def build_registry(cfg: ModelConfig, seed: int = 0, dtype=DTYPE) -> ParameterRegistry:
    """Initialize all parameters: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) for
    affine maps, ones/zeros for norms, a fixed sinusoid table for positions.

    Values are drawn in float64 and then cast to `dtype`, so registries of
    one seed in two dtypes hold one model up to rounding."""
    rng = np.random.default_rng(seed)
    reg = ParameterRegistry()
    bounds: dict[str, float] = {}
    for name, shape, group in param_specs(cfg):
        if name == "embed_positions":
            value = sinusoidal_positions(cfg.max_positions, cfg.d_model)
        elif name.endswith(".gamma"):
            value = np.ones(shape)
        elif name.endswith(".beta"):
            value = np.zeros(shape)
        else:
            stem, leaf = name.rsplit(".", 1)
            if leaf.startswith("w"):
                fan_in = shape[1] * shape[2] if len(shape) == 3 else shape[0]
                bound = 1.0 / np.sqrt(fan_in)
                bounds[f"{stem}.{leaf.replace('w', 'b')}"] = bound
            else:
                bound = bounds[name]
            value = rng.uniform(-bound, bound, size=shape)
        reg.add(name, value.astype(dtype), group)
    return reg


# ---------------------------------------------------------------------------
# Freezing


@dataclass(frozen=True)
class FreezeConfig:
    """The param_specs groups a freeze spec freezes; the head always trains."""

    frozen_groups: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if HEAD in self.frozen_groups:
            raise ValueError(f"the {HEAD!r} group always trains")


_FREEZE_RE = re.compile(r"^(UnFrz|Frz)(\d+)-(\d+)(\+FrzFE)?$")

FREEZE_GRAMMAR = (
    "freeze specs: 'UnFrz<a>-<b>' (layers a..b trainable, others frozen) or "
    "'Frz<a>-<b>' (layers a..b frozen), optionally followed by '+FrzFE' to "
    "freeze the feature extractor; e.g. UnFrz0-5, Frz0-2, Frz0-4+FrzFE"
)


def parse_freeze_spec(spec: str, n_layers: int = 6) -> FreezeConfig:
    m = _FREEZE_RE.match(spec.strip())
    if not m:
        raise FreezeSpecError(f"bad freeze spec {spec!r}; {FREEZE_GRAMMAR}")
    kind, lo, hi, fe = m.group(1), int(m.group(2)), int(m.group(3)), bool(m.group(4))
    if lo > hi or hi >= n_layers:
        raise FreezeSpecError(
            f"bad freeze spec {spec!r}: layer range {lo}-{hi} outside 0..{n_layers - 1}"
        )
    span = set(range(lo, hi + 1))
    layers = set(range(n_layers)) - span if kind == "UnFrz" else span
    frozen = {encoder_layer_group(k) for k in layers} | ({FEATURE_EXTRACTOR} if fe else set())
    return FreezeConfig(frozenset(frozen))


def _frozen_groups(freeze: FreezeConfig, groups: set[str]) -> frozenset[str]:
    """freeze.frozen_groups; ValueError if it names a group not in `groups`."""
    unknown = freeze.frozen_groups - groups
    if unknown:
        raise ValueError(f"no parameter groups {sorted(unknown)}; the model has {sorted(groups)}")
    return freeze.frozen_groups


def apply_freeze(registry: ParameterRegistry, freeze: FreezeConfig) -> ParameterRegistry:
    """Mark each tensor trainable unless its group is frozen; ValueError,
    before any mark changes, if `freeze` names a group the registry lacks."""
    frozen = _frozen_groups(freeze, {e.group for _, e in registry.items()})
    for _, e in registry.items():
        e.trainable = e.group not in frozen
    return registry


def trainable_parameter_count(cfg: ModelConfig, freeze: FreezeConfig) -> int:
    """Trainable-parameter count under a freeze config; no tensors are
    allocated. ValueError if `freeze` names a group cfg's model lacks."""
    specs = param_specs(cfg)
    frozen = _frozen_groups(freeze, {group for _, _, group in specs})
    return sum(int(np.prod(shape)) for _, shape, group in specs if group not in frozen)


# ---------------------------------------------------------------------------
# The worker thread

# The variables OpenBLAS takes its thread count from, first match first.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_rule(environ, n_cpus: int) -> bool:
    """Whether the worker runs: the first BLAS_THREAD_VARS entry set to a
    positive integer says 1, and n_cpus >= 2. Beside a multi-threaded BLAS
    a second caller only contends for its threads, so the code runs serially."""
    for name in BLAS_THREAD_VARS:
        try:
            threads = int(environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1 and n_cpus >= 2
    return False


_use_worker: bool | None = None  # None until gemm_workers applies _worker_rule
_pool = None  # the worker's ThreadPoolExecutor, started by the first _Task that needs it
_pool_lock = threading.Lock()


def gemm_workers() -> int:
    """How many worker threads run matrix products beside the caller, 0 or
    1; _worker_rule decides on the first call."""
    global _use_worker
    if _use_worker is None:
        has_affinity = hasattr(os, "sched_getaffinity")
        n_cpus = len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1
        _use_worker = _worker_rule(os.environ, n_cpus)
    return int(_use_worker)


class _Task:
    """fn(*args, **kwargs), queued on the worker if it runs (starting it on
    first use). wait() returns its value, running it here if the worker has
    not started it, so a busy or unscheduled worker holds nothing up.

    fn writes into arrays the caller allocated and allocates no large one
    itself: glibc gives the worker thread its own heap arena, whose freed
    memory only the worker reuses. Letting it allocate its products raised
    one benchmark workload's peak RSS by 59 MB (16%)."""

    def __init__(self, fn, *args, **kwargs):
        global _pool
        self.call = functools.partial(fn, *args, **kwargs)
        self.future = None
        if gemm_workers():
            with _pool_lock:
                if _pool is None:
                    # imported here, so importing the model (every command's setup) pays nothing
                    from concurrent.futures import ThreadPoolExecutor

                    _pool = ThreadPoolExecutor(1, thread_name_prefix="stutterkit-gemm")
                self.future = _pool.submit(self.call)

    def wait(self):
        if self.future is None or self.future.cancel():
            return self.call()
        return self.future.result()


def _forget_pool() -> None:
    """A forked child has no worker thread: it starts its own on first use,
    with a fresh lock in case the fork came while another thread held it."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split_work(fn, n: int) -> None:
    """fn(slice) over the two halves of range(n) when the worker runs, the
    first on the worker and the second here; else fn(slice(None)), once: on
    one thread two half-products pack the weight twice, 5-11% slower than one."""
    if not gemm_workers():
        return fn(slice(None))
    first = _Task(fn, slice(0, n // 2))
    fn(slice(n // 2, n))
    first.wait()


# Fewest rows in each half of a row-split product. From 8 rows up, the halves
# of every linear shape the model runs give the whole product's bits; halves
# of 1-3 rows take other BLAS kernels and do not (at 512x512, T = 2..7).
MIN_SPLIT_ROWS = 8


def _row_halves(fn, x: np.ndarray) -> None:
    """_split_work(fn, len(x)) when x's row halves have MIN_SPLIT_ROWS rows
    each; else fn(slice(None))."""
    if len(x) >= 2 * MIN_SPLIT_ROWS:
        return _split_work(fn, len(x))
    fn(slice(None))


# ---------------------------------------------------------------------------
# Primitive ops (forward + backward pairs)

# Python floats, not NumPy float64 scalars, which would upcast float32 arrays.
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 erf as Eigen and XLA compute it: clamp to [-4, 4] (beyond which
# erf rounds to +-1 in float32), then x * P(x^2) / Q(x^2). Highest power first.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)
_math_erf = np.frompyfunc(math.erf, 1, 1)

# Elements per block of an elementwise chain: 256 KiB of float32, so the few
# arrays a chain touches at once stay in a 2 MiB L2 between its operations.
BLOCK = 1 << 16


def blocks(*arrays: np.ndarray):
    """Yield, BLOCK elements at a time, aligned flat views of same-shaped
    C-contiguous arrays, so an elementwise chain over the views writes
    straight into the arrays. ValueError for an array with another shape or
    layout: a copy would drop the writes."""
    shape = arrays[0].shape
    if any(a.shape != shape or not a.flags.c_contiguous for a in arrays):
        raise ValueError("blocks() needs same-shaped C-contiguous arrays")
    flat = [a.reshape(-1) for a in arrays]
    for start in range(0, flat[0].size, BLOCK):
        yield tuple(f[start : start + BLOCK] for f in flat)


def _erf_inplace(x: np.ndarray, x2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Overwrite the floating array x with erf(x) and return it; x2 and p are
    scratch of x's shape and dtype. float32 runs the rational kernel (abs.
    error below 5e-7, exactly odd); any other dtype takes math.erf per element."""
    if x.dtype != np.float32:
        x[...] = _math_erf(x)
        return x
    np.clip(x, -4.0, 4.0, out=x)
    np.multiply(x, x, out=x2)
    np.multiply(x2, _ERF_P[0], out=p)
    for c in _ERF_P[1:-1]:
        p += c
        p *= x2
    p += _ERF_P[-1]
    p *= x
    q = np.multiply(x2, _ERF_Q[0], out=x)  # x is not read again
    for c in _ERF_Q[1:-1]:
        q += c
        q *= x2
    q += _ERF_Q[-1]
    return np.divide(p, q, out=x)


def erf(x: np.ndarray) -> np.ndarray:
    """erf in x's floating dtype (float64 for integer input)."""
    x = np.asarray(x)
    y = np.array(x, dtype=np.result_type(x, 0.0))
    return _erf_inplace(y, np.empty_like(y), np.empty_like(y))


def gelu_grad(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d GELU / dx = Phi(x) + x * exp(-x^2 / 2) / sqrt(2 pi), given phi =
    Phi(x) from _gelu_fwd; x and phi C-contiguous, of one shape (blocks)."""
    g = np.empty_like(x)
    for xb, pb, gb in blocks(x, phi, g):
        np.multiply(xb, xb, out=gb)
        gb *= -0.5
        np.exp(gb, out=gb)
        gb *= xb
        gb *= _INV_SQRT_2PI
        gb += pb
    return g


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# An activation is (forward, backward). forward(z) -> (a, s), where s is the
# one array the cache keeps: Phi(z) for GELU, a itself for ReLU.
# backward(z, s) -> (a, da/dz), with a rebuilt bit-identically from s.
def _gelu_fwd(z):
    """float32 z runs in row halves if _row_halves splits it, each half with
    its own row of scratch. Any other dtype runs whole here: its erf builds a
    Python object array (see _erf_inplace), which the worker must not
    allocate, and holds the GIL, so a split would not overlap anyway."""
    a, phi = np.empty_like(z), np.empty_like(z)
    x2 = np.empty((1 + gemm_workers(), min(z.size, BLOCK)), z.dtype)

    def rows(s):
        scratch = x2[1 if s.start else 0]  # the second half's row is its own
        for zb, pb, ab in blocks(z[s], phi[s], a[s]):
            np.divide(zb, _SQRT2, out=pb)
            _erf_inplace(pb, scratch[: pb.size], ab)  # ab is scratch until z * Phi lands in it
            pb += 1.0
            pb *= 0.5
            np.multiply(zb, pb, out=ab)

    if z.dtype == np.float32:
        _row_halves(rows, z)
    else:
        rows(slice(None))
    return a, phi


def _gelu_bwd(z, phi):
    return z * phi, gelu_grad(z, phi)


def _relu_fwd(z):
    a = relu(z)
    return a, a


def _relu_bwd(z, a):
    return a, (z > 0).astype(z.dtype)


_ACT = {"gelu": (_gelu_fwd, _gelu_bwd), "relu": (_relu_fwd, _relu_bwd)}


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def _layer_norm_fwd(x, gamma, beta):
    # x - mu is taken once: its squares' mean is the variance (the reduction
    # np.var runs, so the bits match), and it is scaled in place into xhat.
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv_std
    y = xhat * gamma
    y += beta
    return y, (xhat, inv_std)


def _layer_norm_bwd(dy, cache, gamma):
    """(dx, dgamma, dbeta) for a [T x d] dy; dx is None, and costs nothing,
    when gamma is None (an input whose gradient no caller reads)."""
    xhat, inv_std = cache
    dgamma = np.sum(dy * xhat, axis=0)
    dbeta = np.sum(dy, axis=0)
    if gamma is None:
        return None, dgamma, dbeta
    dxhat = dy * gamma
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def _linear_fwd(x, w, b):
    """[T x d_in] x @ w (+ b unless b is None), in row halves (see
    _row_halves), each adding the bias in place."""
    out = np.empty((len(x), w.shape[1]), np.result_type(x, w))

    def rows(s):
        np.matmul(x[s], w, out=out[s])
        if b is not None:
            out[s] += b

    _row_halves(rows, x)
    return out


def _linear_bwd(dy, x, w, with_bias=True):
    """(dx, dw, db) for _linear_fwd, dw on the worker; dx is None, and costs
    nothing, when w is None (an input whose gradient no caller reads)."""
    dw = np.empty((x.shape[1], dy.shape[1]), np.result_type(x, dy))
    dw_done = _Task(np.matmul, x.T, dy, out=dw)
    db = dy.sum(axis=0) if with_bias else None
    dx = None if w is None else dy @ w.T
    dw_done.wait()
    return dx, dw, db


def _conv_fwd(x, w, b, stride):
    """The stem's conv (kernel 3, padding 1), time-major: x [T x C_in] ->
    (z, cols), z the C-contiguous [T/stride x C_out] product and cols the
    unfolded [T/stride x C_in*3] patch matrix the backward reads."""
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(x, ((1, 1), (0, 0))), 3, axis=0)
    cols = windows[::stride].reshape(-1, 3 * x.shape[1])
    return cols @ w.reshape(len(w), -1).T + b, cols


def _conv_bwd(dz, cols, w, stride, need_dx=True):
    """(dx, dw, db) for _conv_fwd, time-major: dz [T/stride x C_out] gives
    a C-contiguous dx [T x C_in], and dw on the worker; dx is None, and costs
    nothing, unless need_dx. Each of the 3 taps adds its patch gradient back
    at every stride-th row of the padded input."""
    dw = np.empty(w.shape, np.result_type(dz, cols))
    dw_done = _Task(np.matmul, dz.T, cols, out=dw.reshape(len(w), -1))
    dx = None
    if need_dx:
        t = stride * len(cols)
        dcols = (dz @ w.reshape(len(w), -1)).reshape(len(cols), -1, 3)
        dxp = np.zeros((t + 2, w.shape[1]), dtype=dz.dtype)
        for j in range(3):
            dxp[j : j + t : stride] += dcols[:, :, j]
        dx = dxp[1 : t + 1]
    db = dz.sum(axis=0)
    dw_done.wait()
    return dx, dw, db


def _split_heads(x, n_heads):
    t, d = x.shape
    return x.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _attention_core_fwd(q, k, v, n_heads):
    """Scaled dot-product attention per head; heads concatenated (no output
    projection). Each softmax row sums to 1. Each half of the heads writes
    its slice of the scores and of the [T x d] output."""
    q3, k3, v3 = (_split_heads(a, n_heads) for a in (q, k, v))
    scale = 1.0 / math.sqrt(q3.shape[-1])
    probs = np.empty((n_heads, len(q), len(k)), q.dtype)
    ctx = np.empty(q.shape, q.dtype)  # C order, so ctx3 is a view
    ctx3 = _split_heads(ctx, n_heads)

    def heads(s):
        scores = np.matmul(q3[s], k3[s].transpose(0, 2, 1), out=probs[s])
        scores *= scale
        np.matmul(softmax(scores, out=scores), v3[s], out=ctx3[s])

    _split_work(heads, n_heads)
    return ctx, (q3, k3, v3, probs, scale)


def _attention_core_bwd(dctx, cache, n_heads):
    q3, k3, v3, probs, scale = cache
    dctx3 = _split_heads(dctx, n_heads)
    dq, dk, dv = (np.empty(dctx.shape, dctx.dtype) for _ in range(3))
    dq3, dk3, dv3 = (_split_heads(a, n_heads) for a in (dq, dk, dv))
    dprobs = np.empty_like(probs)
    products = np.empty((1 + gemm_workers(), *probs.shape[1:]), probs.dtype)  # [T x T] per half

    def heads(s):
        np.matmul(probs[s].transpose(0, 2, 1), dctx3[s], out=dv3[s])
        dscores = np.matmul(dctx3[s], v3[s].transpose(0, 2, 1), out=dprobs[s])
        product = products[1 if s.start else 0]  # the second half's is its own
        for h in range(n_heads)[s]:
            dprobs[h] -= np.multiply(dprobs[h], probs[h], out=product).sum(axis=-1, keepdims=True)
        dscores *= probs[s]
        np.matmul(dscores, k3[s], out=dq3[s])
        dq3[s] *= scale
        np.matmul(dscores.transpose(0, 2, 1), q3[s], out=dk3[s])
        dk3[s] *= scale

    _split_work(heads, n_heads)
    return dq, dk, dv


# ---------------------------------------------------------------------------
# Public spec-level operations


def conv_stem(spec_values: np.ndarray, registry: ParameterRegistry, cfg: ModelConfig) -> np.ndarray:
    """[n_mels x T] -> [T/2 x d_model]: conv(k3,s1,p1) + GELU, conv(k3,s2,p1) + GELU.
    ShapeMismatch unless check_frame_count accepts T."""
    return _conv_stem_fwd(np.asarray(spec_values, dtype=registry.dtype), registry, cfg)[0]


def check_frame_count(n_frames: int, cfg: ModelConfig) -> None:
    """ShapeMismatch unless the model takes n_frames frames: an even count
    (the second conv has stride 2) whose n_frames / 2 positions fit in
    max_positions."""
    if n_frames % 2:
        raise ShapeMismatch("frame count must be even (second conv has stride 2)")
    if n_frames // 2 > cfg.max_positions:
        raise ShapeMismatch(f"{n_frames // 2} positions exceed max_positions={cfg.max_positions}")


def _conv_stem_fwd(x, registry, cfg):
    """[n_mels x T] -> ([T/2 x d_model], one (z, Phi(z), patches) per conv), run on x.T."""
    if x.ndim != 2 or x.shape[0] != cfg.n_mels:
        raise ShapeMismatch(f"expected [{cfg.n_mels} x T] input, got {x.shape}")
    check_frame_count(x.shape[1], cfg)
    x, parts = x.T, []
    for conv, stride in (("conv1", 1), ("conv2", 2)):
        z, cols = _conv_fwd(x, registry[f"{conv}.w"], registry[f"{conv}.b"], stride)
        x, phi = _gelu_fwd(z)
        parts.append((z, phi, cols))
    return x, parts


def _stem_cache(parts):
    """The stem's backward cache from _conv_stem_fwd's parts: a (GELU
    derivative, patches) pair per conv. The backward reads z only through
    GELU's derivative, so the cache keeps that in place of z (and of Phi):
    one array per activation."""
    return [(gelu_grad(z, phi), cols) for z, phi, cols in parts]


def _conv_stem_bwd(dh, cache, registry):
    """conv1's input is the spectrogram, so its input gradient is not taken."""
    (dgelu1, cols1), (dgelu2, cols2) = cache
    da1, dw2, db2 = _conv_bwd(dh * dgelu2, cols2, registry["conv2.w"], 2)
    dz1 = np.multiply(da1, dgelu1, order="F")  # the layout that set conv1's saved bits
    _, dw1, db1 = _conv_bwd(dz1, cols1, registry["conv1.w"], 1, need_dx=False)
    return {"conv1.w": dw1, "conv1.b": db1, "conv2.w": dw2, "conv2.b": db2}


def _layer_tensors(registry: ParameterRegistry, k: int) -> dict[str, np.ndarray]:
    return {key: registry[f"layers.{k}.{key}"] for key in _LAYER_TENSORS}


def _attn_sublayer_fwd(x, p, cfg):
    q = _linear_fwd(x, p["attn.q.w"], p["attn.q.b"])
    k = _linear_fwd(x, p["attn.k.w"], None)
    v = _linear_fwd(x, p["attn.v.w"], p["attn.v.b"])
    ctx, core_cache = _attention_core_fwd(q, k, v, cfg.n_heads)
    out = _linear_fwd(ctx, p["attn.out.w"], p["attn.out.b"])
    return out, (x, ctx, core_cache)


def _attn_sublayer_bwd(dout, cache, p, cfg, need_dx=True):
    x, ctx, core_cache = cache
    dctx, dow, dob = _linear_bwd(dout, ctx, p["attn.out.w"])
    dq, dk, dv = _attention_core_bwd(dctx, core_cache, cfg.n_heads)
    wq, wk, wv = (p[f"attn.{n}.w"] if need_dx else None for n in "qkv")
    dx_q, dqw, dqb = _linear_bwd(dq, x, wq)
    dx_k, dkw, _ = _linear_bwd(dk, x, wk, with_bias=False)
    dx_v, dvw, dvb = _linear_bwd(dv, x, wv)
    grads = {
        "attn.q.w": dqw, "attn.q.b": dqb, "attn.k.w": dkw,
        "attn.v.w": dvw, "attn.v.b": dvb, "attn.out.w": dow, "attn.out.b": dob,
    }
    return (dx_q + dx_k + dx_v if need_dx else None), grads


def _ffn_sublayer_fwd(x, p, cfg):
    act, _ = _ACT[cfg.ffn_activation]
    z1 = _linear_fwd(x, p["ffn.w1"], p["ffn.b1"])
    a, s = act(z1)
    out = _linear_fwd(a, p["ffn.w2"], p["ffn.b2"])
    return out, (x, z1, s)


def _ffn_sublayer_bwd(dout, cache, p, cfg, need_dx=True):
    x, z1, s = cache
    _, act_bwd = _ACT[cfg.ffn_activation]
    a, act_grad = act_bwd(z1, s)
    da, dw2, db2 = _linear_bwd(dout, a, p["ffn.w2"])
    dz1 = da * act_grad
    dx, dw1, db1 = _linear_bwd(dz1, x, p["ffn.w1"] if need_dx else None)
    return dx, {"ffn.w1": dw1, "ffn.b1": db1, "ffn.w2": dw2, "ffn.b2": db2}


def encoder_layer_forward(
    x: np.ndarray, registry: ParameterRegistry, layer: int, cfg: ModelConfig
) -> np.ndarray:
    """One encoder layer. post: z = LN(y + FFN(y)), y = LN(x + Attn(x)).
    pre: z = y + FFN(LN(y)), y = x + Attn(LN(x)). x is taken in C order."""
    x = np.ascontiguousarray(x, dtype=registry.dtype)
    return _encoder_layer_fwd(x, _layer_tensors(registry, layer), cfg)[0]


def _check_finite(x, where):
    if not np.all(np.isfinite(x)):
        raise NonFiniteActivation(f"non-finite activation after {where}")


# A layer is two residual blocks, run in this order: (norm key, sublayer
# forward, sublayer backward, where a non-finite output is reported).
_BLOCKS = (
    ("attn_norm", _attn_sublayer_fwd, _attn_sublayer_bwd, "attention"),
    ("ffn_norm", _ffn_sublayer_fwd, _ffn_sublayer_bwd, "ffn"),
)


def _encoder_layer_fwd(x, p, cfg):
    """Each block is x + sub(LN(x)) under pre-norm, LN(x + sub(x)) under post-norm."""
    pre = cfg.norm_placement == "pre"
    caches = []
    for norm, sub_fwd, _, where in _BLOCKS:
        gamma, beta = p[f"{norm}.gamma"], p[f"{norm}.beta"]
        sub_in, ln = _layer_norm_fwd(x, gamma, beta) if pre else (x, None)
        out, sub_cache = sub_fwd(sub_in, p, cfg)
        _check_finite(out, where)
        out += x  # the residual, in out's buffer: x may be cached or the caller's
        x, ln = (out, ln) if pre else _layer_norm_fwd(out, gamma, beta)
        caches.append((ln, sub_cache))
    return x, caches


def _encoder_layer_bwd(dz, cache, p, cfg, need_dx=True):
    """(input gradient, parameter gradients). With need_dx False the input
    gradient is None, and the first block skips what only it reads: the
    residual sum, and its norm's input gradient under pre-norm or its
    sublayer's under post-norm. (Under pre-norm the sublayer's input
    gradient feeds the norm's gamma and beta gradients.)"""
    pre = cfg.norm_placement == "pre"
    grads: dict[str, np.ndarray] = {}
    for i, ((norm, _, sub_bwd, _), (ln, sub_cache)) in enumerate(zip(_BLOCKS[::-1], cache[::-1])):
        gamma = p[f"{norm}.gamma"]
        dx_read = need_dx or i < len(_BLOCKS) - 1  # the first block's input is the layer's
        if not pre:
            dz, grads[f"{norm}.gamma"], grads[f"{norm}.beta"] = _layer_norm_bwd(dz, ln, gamma)
        d_sub_in, g = sub_bwd(dz, sub_cache, p, cfg, need_dx=pre or dx_read)
        grads.update(g)
        if pre:
            d_sub_in, grads[f"{norm}.gamma"], grads[f"{norm}.beta"] = _layer_norm_bwd(
                d_sub_in, ln, gamma if dx_read else None
            )
        dz = dz + d_sub_in if dx_read else None
    return dz, grads


# ---------------------------------------------------------------------------
# Whole-model forward / backward


@dataclass(frozen=True)
class LayerInput:
    """One clip's input to encoder layer `layer` (`n_layers` means the head),
    as forward_prefix returns it."""

    layer: int
    h: np.ndarray


def _head_fwd(h, registry):
    """Post-encoder layer norm, mean pool, projector, classifier -> (logits, cache)."""
    g, ln_cache = _layer_norm_fwd(
        h, registry["post_encoder_layernorm.gamma"], registry["post_encoder_layernorm.beta"]
    )
    pooled = g.mean(axis=0)
    u = pooled @ registry["projector.w"] + registry["projector.b"]
    logits = u @ registry["classifier.w"] + registry["classifier.b"]
    _check_finite(logits, "classifier")
    return logits, (ln_cache, pooled, u)


def forward_prefix(
    x: np.ndarray | LayerInput, registry: ParameterRegistry, cfg: ModelConfig, stop: int,
    caches: list | None = None,
) -> LayerInput:
    """The input of encoder layer `stop` for a normalized [n_mels x T]
    spectrogram (layer 0: the conv stem plus positions) or a LayerInput, cast
    to the registry's dtype, and a LayerInput's h to C order. Before any work:
    ValueError unless 0 <= x.layer <= stop <= n_layers, ShapeMismatch unless
    a LayerInput's h is [T x d_model] with 1 <= T <= max_positions, and
    NonFiniteInput for a NaN or Inf in either input. If `caches` is given, the
    stem's backward cache (None for a LayerInput) and then each layer's are
    appended to it; otherwise each is freed as soon as its step is done."""
    layer_input = isinstance(x, LayerInput)
    start = x.layer if layer_input else 0
    if not 0 <= start <= stop <= cfg.n_layers:
        raise ValueError(f"layers {start}..{stop} are not a range in 0..{cfg.n_layers}")
    as_input = np.ascontiguousarray if layer_input else np.asarray  # the stem reads x.T
    h, stem = as_input(x.h if layer_input else x, dtype=registry.dtype), None
    if layer_input and (h.shape[1:] != (cfg.d_model,) or not 0 < len(h) <= cfg.max_positions):
        raise ShapeMismatch(f"layer input {h.shape} is not [1..{cfg.max_positions} x {cfg.d_model}]")
    if not np.all(np.isfinite(h)):
        raise NonFiniteInput("non-finite values in the model's input")
    if not layer_input:
        h, stem = _conv_stem_fwd(h, registry, cfg)
        h += registry["embed_positions"][: h.shape[0]]
        stem = None if caches is None else _stem_cache(stem)  # frees z and Phi(z) before the layers
    if caches is not None:
        caches.append(stem)
    for k in range(start, stop):
        h, cache = _encoder_layer_fwd(h, _layer_tensors(registry, k), cfg)
        if caches is not None:
            caches.append(cache)
        del cache
    return LayerInput(stop, h)


def forward(
    x: np.ndarray | LayerInput, registry: ParameterRegistry, cfg: ModelConfig
) -> np.ndarray:
    """Normalized [n_mels x T] spectrogram, or a LayerInput from forward_prefix
    under the same frozen prefix -> 6-vector of pre-sigmoid logits. Keeps no
    cache; the logits equal forward_with_cache's bit for bit."""
    return _head_fwd(forward_prefix(x, registry, cfg, cfg.n_layers).h, registry)[0]


def forward_with_cache(x, registry, cfg):
    """forward's logits and the cache backward_pass reads: (stem cache, or None
    for a LayerInput; one cache per layer run; the head's cache)."""
    caches: list = []
    h = forward_prefix(x, registry, cfg, cfg.n_layers, caches).h
    logits, head_cache = _head_fwd(h, registry)
    return logits, (caches[0], caches[1:], head_cache)


def frozen_prefix_depth(registry: ParameterRegistry, cfg: ModelConfig) -> int | None:
    """How many leading encoder layers are frozen when the feature extractor
    is frozen too, or None if any feature-extractor tensor trains. The
    output of that prefix depends only on the clip (see forward_prefix)."""
    training = {e.group for _, e in registry.items() if e.trainable}
    if FEATURE_EXTRACTOR in training:
        return None
    depth = 0
    while depth < cfg.n_layers and encoder_layer_group(depth) not in training:
        depth += 1
    return depth


def backward_pass(dlogits, cache, registry, cfg, into=None):
    """Gradients, in the registry's dtype, given d loss / d logits and a
    forward_with_cache cache: for the head and each encoder layer the forward
    ran, and for the stem and embed_positions if it started from a spectrogram.

    `into` maps some of those names (a training step's trainable ones) to
    accumulators: each such gradient is added into its accumulator as soon as
    the head, a layer or the stem makes it, and the result holds the
    accumulator itself under that name. Every other name maps to a fresh
    gradient."""
    stem_cache, layer_caches, (ln_cache, pooled, u) = cache
    n_pos = ln_cache[0].shape[0]  # the rows of the head's normalized input
    into = {} if into is None else into
    grads: dict[str, np.ndarray] = {}

    def add(block, prefix=""):
        for key, g in block.items():
            name = prefix + key
            grads[name] = np.add(into[name], g, out=into[name]) if name in into else g

    dlogits = np.asarray(dlogits, dtype=registry.dtype)
    du = registry["classifier.w"] @ dlogits
    dpooled = registry["projector.w"] @ du
    dg = np.tile(dpooled / n_pos, (n_pos, 1))
    # The input gradient of layer k (the head's is k = n_layers) is read from
    # k = lowest up: the first cached layer's only by a stem cache.
    lowest = cfg.n_layers - len(layer_caches) + (stem_cache is None)
    gamma = registry["post_encoder_layernorm.gamma"] if lowest <= cfg.n_layers else None
    dh, dgam, dbet = _layer_norm_bwd(dg, ln_cache, gamma)
    add({"classifier.w": np.outer(u, dlogits), "classifier.b": dlogits,
         "projector.w": np.outer(pooled, du), "projector.b": du,
         "post_encoder_layernorm.gamma": dgam, "post_encoder_layernorm.beta": dbet})
    for k, layer_cache in zip(range(cfg.n_layers - 1, -1, -1), layer_caches[::-1]):
        dh, layer_grads = _encoder_layer_bwd(
            dh, layer_cache, _layer_tensors(registry, k), cfg, need_dx=k >= lowest
        )
        add(layer_grads, f"layers.{k}.")
        del layer_grads  # before the next layer's backward makes its own
    if stem_cache is not None:
        dpos = np.zeros_like(registry["embed_positions"])
        dpos[:n_pos] = dh
        add({"embed_positions": dpos})
        del dpos
        add(_conv_stem_bwd(dh, stem_cache, registry))
    return grads


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path: str | Path, registry: ParameterRegistry, cfg: ModelConfig) -> None:
    """Header {config, tensors: [{name, shape, trainable}]} in registry order,
    then each tensor's values (headers.write_file), written from the array.
    ShapeMismatch, before the file is opened, unless the registry's names and
    shapes are exactly cfg's layout in order (what load_checkpoint requires)."""
    tensors = registry.items()
    _check_layout([(n, e.value.shape) for n, e in tensors], cfg, "registry")
    write_file(
        path,
        {"config": asdict(cfg),
         "tensors": [{"name": n, "shape": list(e.value.shape), "trainable": e.trainable}
                     for n, e in tensors]},
        (e.value for _, e in tensors),
    )


def _check_layout(found: list[tuple[str, tuple[int, ...]]], cfg: ModelConfig, what: str) -> None:
    """ShapeMismatch unless `found` (name, shape) pairs are cfg's layout in order."""
    layout = [(name, shape) for name, shape, _ in param_specs(cfg)]
    if found != layout:
        raise ShapeMismatch(
            f"{what} does not match its config's layout in order: unexpected "
            f"{sorted(set(found) - set(layout))}, missing {sorted(set(layout) - set(found))}"
        )


def _descriptor_ok(desc) -> bool:
    return (
        isinstance(desc, dict)
        and isinstance(desc.get("name"), str)
        and isinstance(desc.get("shape"), list)
        and all(type(n) is int for n in desc["shape"])
        and type(desc.get("trainable")) is bool
    )


def load_checkpoint(path: str | Path) -> tuple[ParameterRegistry, ModelConfig]:
    """Float32 registry laid out by param_specs(config), read from a checkpoint.

    Raises CorruptCheckpoint if the header is not the JSON object
    save_checkpoint writes (config and tensor descriptors), if the config is
    not exactly a valid ModelConfig, if the blob's size is not the layout's
    (checked before any tensor is allocated), or if it holds a NaN or
    infinity; ShapeMismatch unless the stored tensor names and shapes are
    exactly those of the config's layout, in its order."""
    with open(path, "rb") as f:
        manifest = read_header(f, f"checkpoint {path}", CorruptCheckpoint, ("config", "tensors"))
        if not isinstance(manifest["tensors"], list):
            raise CorruptCheckpoint(f"checkpoint {path}: header lacks a tensor list")
        cfg = read_config(ModelConfig, manifest["config"], CorruptCheckpoint)
        if not all(_descriptor_ok(desc) for desc in manifest["tensors"]):
            raise CorruptCheckpoint(f"checkpoint {path}: malformed tensor descriptor")
        stored = [(desc["name"], tuple(desc["shape"])) for desc in manifest["tensors"]]
        _check_layout(stored, cfg, f"checkpoint {path}")
        values = read_arrays(f, f"checkpoint {path}", dict(stored), CorruptCheckpoint)
    reg = ParameterRegistry()
    for (name, _, group), desc, value in zip(param_specs(cfg), manifest["tensors"], values):
        reg.add(name, value, group, desc["trainable"])
    return reg, cfg
