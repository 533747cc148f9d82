"""Batched forward/backward passes for training.

A self-contained reverse-mode implementation over the layer kinds the model
spec allows (conv, batchnorm, relu, max/avg pool, flatten, dense). The API is
NCHW: batches come in as (B, C, H, W); gradients come back as a dict keyed
like ``model.param_arrays``. Inside, activations are channel-last
(B, H, W, C), so a conv's GEMM output is its activation and its output
gradient a GEMM operand without a copy. The im2col columns keep (C, P, Q)
order and flatten restores (C, H, W) order, so logits and every gradient of a
model without batchnorm are those of the NCHW passes this layout replaced, bit
for bit; batchnorm gradients moved in the last bits, and so may an input that
wins three or more overlapping max-pool windows.
Per-channel bias and batchnorm broadcasts run on rows of up to 512 elements,
the vector tiled to match (``_by_column``), with each element's bits unchanged.
Batchnorm runs on batch statistics in training mode and on running statistics
in eval mode; the forward leaves its inputs and parameters untouched. Training
sets the running statistics in ``training._recalibrate_running_stats``;
``update_running_stats`` has no caller in the package. ``backward_batch``
overwrites its caches' large arrays (a conv's ``cols`` takes its column
gradient, batchnorm's ``xhat`` its mean term) and cuts its own from dead
``cols``, so caches are single-use and only their batch statistics stay valid.
``batch_loss`` keeps those arrays in ``params.step_workspace`` for its next
step on the same params; ``forward_batch`` makes fresh ones.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import ConfigurationError, NumericError
from .layers import conv_output_shape, window_taps
from .losses import KDConfig, kd_logit_gradient, ce_logit_gradient, kd_loss, cross_entropy
from .model import ConvSpec, FlattenSpec, ModelSpec, ModelParams, PoolLayerSpec


def _take(kept: dict | None, key: tuple, shape: tuple, dtype) -> np.ndarray:
    """An uninitialised (shape, dtype) array: fresh when ``kept`` is None, else the leading
    rows of the array ``kept`` holds for (key, dtype), which grows to the largest batch."""
    if kept is None:
        return np.empty(shape, dtype)
    buf = kept.get((key, dtype))
    if buf is None or len(buf) < shape[0]:
        buf = kept[key, dtype] = np.empty(shape, dtype)
    return buf[:shape[0]]


def _carve(spare: np.ndarray | None, shape: tuple, dtype) -> tuple:
    """(array, rest): an uninitialised (shape, dtype) array cut from the start of ``spare``,
    a flat array nothing reads any more, and the rest; a fresh array if it has no room."""
    size = math.prod(shape)
    if spare is None or spare.dtype != dtype or spare.size < size:
        return np.empty(shape, dtype), spare
    return spare[:size].reshape(shape), spare[size:]


def _by_column(op, a: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``op(a, v, out=out or a)`` for (rows, m) arrays and an (m,) vector, on (rows/k, m*k) views
    against ``v`` tiled k = gcd(rows, 512 // m) times, so numpy's inner loop spans up to 512
    elements, not m; k = 1 unless both are C-contiguous (flatten's gradient at batch 1 is not)."""
    out = a if out is None else out
    rows, m = a.shape
    k = math.gcd(rows, 512 // m or 1) if a.flags.c_contiguous and out.flags.c_contiguous else 1
    wide = (rows // k, m * k)  # copy=False: never an op on a copy
    op(a.reshape(wide, copy=False), np.tile(v, k), out=out.reshape(wide, copy=False))
    return out


def _max_pool(a: np.ndarray, window: tuple, stride: int, out_hw: tuple, winner: np.ndarray):
    """(pooled, winner): the tap of each window's first maximum, the one ``np.argmax`` picks,
    written into ``winner``."""
    taps = window_taps(a, window, stride, out_hw)
    pooled = reduce(np.maximum, taps)
    winner.fill(0)
    taken = taps[0] == pooled
    for k in range(1, len(taps)):
        hit = (taps[k] == pooled) & ~taken
        taken |= hit
        winner += hit * winner.dtype.type(k)
    return pooled, winner


def _max_pool_backward(dout, winner, dx: np.ndarray, window: tuple, stride: int) -> np.ndarray:
    """Add each pooled gradient to zeros ``dx`` at its window's winning input; overlaps add up."""
    hit, share = np.empty(winner.shape, dtype=bool), np.empty_like(dout)
    for k, tap in enumerate(window_taps(dx, window, stride, winner.shape[1:3])):
        tap += np.multiply(dout, np.equal(winner, k, out=hit), out=share)
    return dx


def forward_batch(spec: ModelSpec, params: ModelParams, x: np.ndarray,
                  training: bool, record_margins: bool = False):
    """Run the chain on a batch; returns (logits, caches).

    ``record_margins`` additionally stores each relu's minimum |pre-activation|
    and each max pool's smallest top-two gap, so finite-difference gradient
    checks can reject instances too close to a nondifferentiable point.

    float32 batches run the whole pass in single precision (desk-scale
    speedup); anything else is promoted to float64.
    """
    return _forward(spec, params, x, training, record_margins, kept=None)


def _forward(spec: ModelSpec, params: ModelParams, x, training: bool, record_margins: bool,
             kept: dict | None):
    """``forward_batch``, its caches' large arrays taken from ``kept`` by ``_take``."""
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if x.ndim != 4 or x.shape[1:] != spec.input_shape:
        raise ConfigurationError(
            f"batch shape {x.shape} does not match input spec {spec.input_shape}")
    caches = []
    out = x.transpose(0, 2, 3, 1)
    for i, (layer, entry) in enumerate(zip(spec.layers, params.entries_for(spec))):
        if isinstance(layer, ConvSpec):
            m, n, p, q = entry.weights.shape
            s, pad = layer.stride, layer.padding
            xp = np.pad(out, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
            win = np.lib.stride_tricks.sliding_window_view(xp, (p, q), axis=(1, 2))[:, ::s, ::s]
            b, oh, ow = win.shape[:3]
            # a copy in the pass's dtype, even for a 1x1 window: the backward writes here
            rows = b * oh * ow
            cols = _take(kept, (i, "cols"), (rows, n * p * q), np.result_type(xp, entry.weights))
            np.copyto(cols.reshape(win.shape), win)
            z = np.matmul(cols, entry.weights.reshape(m, n * p * q).T,
                          out=_take(kept, (i, "z"), (rows, m), cols.dtype))
            _by_column(np.add, z, entry.bias)  # in place: z's dtype covers every parameter's
            cache = {"kind": "conv", "layer": layer, "entry": entry,
                     "cols": cols, "in_shape": xp.shape, "out_hw": (oh, ow)}
            if layer.batchnorm:
                bn = entry.bn
                mu = z.mean(axis=0) if training else bn.mean
                xhat = _by_column(np.subtract, z, mu)  # the matmul output becomes xhat
                # np.var's own steps (so its bits) on the centered values; y then holds the output
                y = _take(kept, (i, "y"), xhat.shape, xhat.dtype)
                var = np.square(xhat, out=y).mean(axis=0) if training else bn.var
                inv_std = 1.0 / np.sqrt(var + bn.eps)
                _by_column(np.multiply, xhat, inv_std)
                z = _by_column(np.multiply, xhat, bn.gamma, out=y)
                _by_column(np.add, z, bn.beta)
                cache["bn"] = {"xhat": xhat, "inv_std": inv_std,
                               "batch_mu": mu, "batch_var": var, "training": training}
            if layer.relu:
                if record_margins:
                    cache["relu_margin"] = float(np.min(np.abs(z)))
                mask = np.greater(z, 0, out=_take(kept, (i, "mask"), z.shape, bool))
                z *= mask
                cache["relu_mask"] = mask
            caches.append(cache)
            out = z.reshape(b, oh, ow, m)
        elif isinstance(layer, PoolLayerSpec):
            (p, q), s = layer.window, layer.stride
            out_hw = conv_output_shape(out.shape[1], out.shape[2], (p, q), s)
            cache = {"kind": "maxpool" if layer.mode == "max" else "avgpool", "layer": layer,
                     "in_shape": out.shape, "out_hw": out_hw}
            if layer.mode == "max":
                winner = _take(kept, (i, "winner"), (out.shape[0], *out_hw, out.shape[3]),
                               np.min_scalar_type(p * q - 1))
                pooled, cache["winner"] = _max_pool(out, (p, q), s, out_hw, winner)
                if record_margins and p * q > 1:
                    top2 = np.sort(np.stack(window_taps(out, (p, q), s, out_hw), axis=-1))[..., -2:]
                    cache["pool_gap"] = float(np.min(top2[..., 1] - top2[..., 0]))
            else:
                win = np.lib.stride_tricks.sliding_window_view(out, (p, q), axis=(1, 2))
                pooled = win[:, ::s, ::s].mean(axis=(-2, -1))
            caches.append(cache)
            out = pooled
        elif isinstance(layer, FlattenSpec):
            caches.append({"kind": "flatten", "layer": layer, "in_shape": out.shape})
            out = out.transpose(0, 3, 1, 2).reshape(out.shape[0], -1)
        else:
            caches.append({"kind": "dense", "layer": layer, "entry": entry, "input": out})
            out = out @ entry.weights.T + entry.bias
    return out, caches


def backward_batch(spec: ModelSpec, params: ModelParams, caches: list,
                   dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every trainable array, given d(loss)/d(logits)."""
    if any(cache.get("spent") for cache in caches):
        raise ConfigurationError("caches are single-use: an earlier backward_batch overwrote them")
    for cache in caches:
        cache["spent"] = True
    grads: dict[str, np.ndarray] = {}
    dout = np.asarray(dlogits)
    spare = None  # the last conv's cols once its column gradient is spread; see _carve
    for cache in reversed(caches):
        layer, kind = cache["layer"], cache["kind"]
        if kind == "dense":
            grads[f"{layer.name}.weights"] = dout.T @ cache["input"]
            grads[f"{layer.name}.bias"] = dout.sum(axis=0)
            dout = dout @ cache["entry"].weights
        elif kind == "flatten":
            b, h, w, c = cache["in_shape"]
            dout = dout.reshape(b, c, h, w).transpose(0, 2, 3, 1)
        elif kind in ("maxpool", "avgpool"):
            dx, spare = _carve(spare, cache["in_shape"], dout.dtype)
            dx.fill(0)
            if kind == "maxpool":
                _max_pool_backward(dout, cache["winner"], dx, layer.window, layer.stride)
            else:
                share = dout / (layer.window[0] * layer.window[1])
                for tap in window_taps(dx, layer.window, layer.stride, cache["out_hw"]):
                    tap += share
            dout = dx
        elif kind == "conv":
            entry = cache["entry"]
            m, n, p, q = entry.weights.shape
            dmat = dout.reshape(-1, m)  # always from an array this loop made: safe to edit in place
            if "relu_mask" in cache:
                dmat *= cache["relu_mask"]
            if "bn" in cache:
                bn_cache = cache["bn"]
                bn = entry.bn
                xhat, inv_std = bn_cache["xhat"], bn_cache["inv_std"]
                ones = np.ones(dmat.shape[0], dtype=dmat.dtype)
                prod, spare = _carve(spare, dmat.shape, np.result_type(dmat, xhat))
                dbeta, dgamma = ones @ dmat, ones @ np.multiply(dmat, xhat, out=prod)
                grads[f"{layer.name}.gamma"] = dgamma
                grads[f"{layer.name}.beta"] = dbeta
                if bn_cache["training"]:
                    count = dmat.shape[0]
                    _by_column(np.subtract, dmat, dbeta / count)
                    _by_column(np.multiply, xhat, dgamma / count)  # after xhat's last read
                    dmat -= xhat
                    _by_column(np.multiply, dmat, bn.gamma * inv_std)
                else:
                    _by_column(np.multiply, dmat, bn.gamma)
                    _by_column(np.multiply, dmat, inv_std)
            grads[f"{layer.name}.kernel"] = (dmat.T @ cache["cols"]).reshape(m, n, p, q)
            grads[f"{layer.name}.bias"] = dmat.sum(axis=0)
            if cache is caches[0]:
                break  # nothing reads the gradient of the network input
            oh, ow = cache["out_hw"]
            dxp, spare = _carve(spare, cache["in_shape"], dmat.dtype)
            dxp.fill(0)
            dcols = np.matmul(dmat, entry.weights.reshape(m, n * p * q), out=cache["cols"])
            dcols = dcols.reshape(-1, oh, ow, n, p * q)
            for k, tap in enumerate(window_taps(dxp, (p, q), layer.stride, (oh, ow))):
                tap += dcols[..., k]
            pad = layer.padding
            dout = dxp[:, pad:dxp.shape[1] - pad, pad:dxp.shape[2] - pad]
            spare = cache["cols"].reshape(-1)
        else:  # pragma: no cover
            raise ConfigurationError(f"unknown cache kind {kind!r}")
    return grads


def update_running_stats(spec: ModelSpec, params: ModelParams, caches: list,
                         momentum: float = 0.1) -> None:
    """Blend batch statistics from a training forward into the running estimates."""
    for cache in caches:
        if cache["kind"] == "conv" and "bn" in cache and cache["bn"]["training"]:
            bn = cache["entry"].bn
            bn.mean[...] = (1.0 - momentum) * bn.mean + momentum * cache["bn"]["batch_mu"]
            bn.var[...] = (1.0 - momentum) * bn.var + momentum * cache["bn"]["batch_var"]


def batch_loss(spec: ModelSpec, params: ModelParams, x, labels,
               teacher_logits=None, kd: KDConfig | None = None,
               training: bool = True, sample_ids=None):
    """Mean loss over a batch plus gradients; returns (loss, grads, logits, caches).

    With teacher logits and a KD config the distillation loss is used,
    otherwise plain cross-entropy. The caches alias ``params.step_workspace``,
    sized for the largest batch yet, and go stale at the next step on
    ``params``. No caller runs two steps on one params at once; nothing locks.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if params.step_workspace is None:
        object.__setattr__(params, "step_workspace", {})
    logits, caches = _forward(spec, params, x, training, False, params.step_workspace)
    b = logits.shape[0]
    finite = np.all(np.isfinite(logits), axis=1)
    losses = np.full(b, np.nan)
    dlogits = np.zeros_like(logits)
    if teacher_logits is not None and kd is not None:
        teacher = np.asarray(teacher_logits)[finite]
        losses[finite] = kd_loss(logits[finite], teacher, labels[finite], kd)
        dlogits[finite] = kd_logit_gradient(logits[finite], teacher, labels[finite], kd)
    else:
        losses[finite] = cross_entropy(logits[finite], labels[finite])
        dlogits[finite] = ce_logit_gradient(logits[finite], labels[finite])
    if not np.all(np.isfinite(losses)):
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        ident = sample_ids[bad] if sample_ids is not None else bad
        raise NumericError(f"non-finite loss for sample {ident!r}")
    grads = backward_batch(spec, params, caches, dlogits / b)
    return float(losses.mean()), grads, logits, caches
