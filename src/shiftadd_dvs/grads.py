"""Batched forward/backward passes for training.

This is a self-contained reverse-mode implementation over the layer kinds the
model spec allows (conv, batchnorm, relu, max/avg pool, flatten, dense).
Batches are (B, C, H, W) float64 arrays; gradients come back as a dict keyed
like ``model.param_arrays``. Batchnorm runs on batch statistics in training
mode and on running statistics in eval mode; running-stat updates are applied
separately by the train loop so the forward stays pure.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, NumericError
from .losses import KDConfig, kd_logit_gradient, ce_logit_gradient, kd_loss, cross_entropy
from .model import ConvSpec, FlattenSpec, ModelSpec, ModelParams, PoolLayerSpec


def _conv_windows(xp: np.ndarray, window: tuple[int, int], stride: int) -> np.ndarray:
    """(B, C, OH, OW, P, Q) view of all stride-aligned windows of a padded batch."""
    win = np.lib.stride_tricks.sliding_window_view(xp, window, axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def forward_batch(spec: ModelSpec, params: ModelParams, x: np.ndarray,
                  training: bool, capture: str | None = None,
                  record_margins: bool = False):
    """Run the chain on a batch; returns (logits, caches[, captured]).

    ``record_margins`` additionally stores each relu's minimum |pre-activation|
    and each max pool's smallest top-two gap, so finite-difference gradient
    checks can reject instances too close to a nondifferentiable point.

    float32 batches run the whole pass in single precision (desk-scale
    speedup); anything else is promoted to float64.
    """
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if x.ndim != 4 or x.shape[1:] != spec.input_shape:
        raise ConfigurationError(
            f"batch shape {x.shape} does not match input spec {spec.input_shape}")
    caches = []
    captured = None
    out = x
    for layer, entry in zip(spec.layers, params.entries):
        if isinstance(layer, ConvSpec):
            conv = entry.conv
            m, n, p, q = conv.kernel.shape
            if out.shape[1] != n:
                raise ConfigurationError(
                    f"layer {layer.name}: input has {out.shape[1]} channels, kernel expects {n}")
            s, pad = conv.stride, conv.padding
            xp = np.pad(out, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            win = _conv_windows(xp, (p, q), s)
            b, _, oh, ow = win.shape[0], win.shape[1], win.shape[2], win.shape[3]
            cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, n * p * q)
            wmat = conv.kernel.reshape(m, n * p * q)
            z = cols @ wmat.T + conv.bias
            out = z.reshape(b, oh, ow, m).transpose(0, 3, 1, 2)
            cache = {"kind": "conv", "layer": layer, "entry": entry,
                     "cols": cols, "in_shape": xp.shape, "out_hw": (oh, ow)}
            if layer.batchnorm:
                bn = entry.bn
                if training:
                    mu = out.mean(axis=(0, 2, 3))
                    var = out.var(axis=(0, 2, 3))
                else:
                    mu, var = bn.mean, bn.var
                inv_std = 1.0 / np.sqrt(var + bn.eps)
                xhat = (out - mu[None, :, None, None]) * inv_std[None, :, None, None]
                out = bn.gamma[None, :, None, None] * xhat + bn.beta[None, :, None, None]
                cache["bn"] = {"xhat": xhat, "inv_std": inv_std,
                               "batch_mu": mu, "batch_var": var, "training": training}
            if layer.relu:
                if record_margins:
                    cache["relu_margin"] = float(np.min(np.abs(out)))
                mask = out > 0
                out = out * mask
                cache["relu_mask"] = mask
            caches.append(cache)
        elif isinstance(layer, PoolLayerSpec):
            p, q = layer.window
            s = layer.stride
            if p > out.shape[2] or q > out.shape[3]:
                raise ConfigurationError(
                    f"layer {layer.name}: window {p}x{q} larger than input {out.shape[2]}x{out.shape[3]}")
            win = _conv_windows(out, (p, q), s)
            b, c, oh, ow = win.shape[:4]
            if layer.mode == "max":
                flat = win.reshape(b, c, oh, ow, p * q)
                idx = np.argmax(flat, axis=-1)
                pooled = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
                cache = {"kind": "maxpool", "layer": layer, "idx": idx,
                         "in_shape": out.shape, "out_hw": (oh, ow)}
                if record_margins and p * q > 1:
                    top2 = np.partition(flat, flat.shape[-1] - 2, axis=-1)[..., -2:]
                    cache["pool_gap"] = float(np.min(top2[..., 1] - top2[..., 0]))
                caches.append(cache)
            else:
                pooled = win.mean(axis=(-2, -1))
                caches.append({"kind": "avgpool", "layer": layer,
                               "in_shape": out.shape, "out_hw": (oh, ow)})
            out = pooled
        elif isinstance(layer, FlattenSpec):
            caches.append({"kind": "flatten", "layer": layer, "in_shape": out.shape})
            out = out.reshape(out.shape[0], -1)
        else:
            if out.shape[1] != entry.weights.shape[1]:
                raise ConfigurationError(
                    f"layer {layer.name}: input length {out.shape[1]} does not match "
                    f"weight columns {entry.weights.shape[1]}")
            caches.append({"kind": "dense", "layer": layer, "entry": entry, "input": out})
            out = out @ entry.weights.T + entry.bias
        if capture is not None and layer.name == capture:
            captured = np.array(out, copy=True)
    if capture is not None:
        if captured is None:
            raise ConfigurationError(f"no layer named {capture!r}")
        return out, caches, captured
    return out, caches


def backward_batch(spec: ModelSpec, params: ModelParams, caches: list,
                   dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every trainable array, given d(loss)/d(logits)."""
    grads: dict[str, np.ndarray] = {}
    dout = np.asarray(dlogits)
    for cache in reversed(caches):
        layer = cache["layer"]
        kind = cache["kind"]
        if kind == "dense":
            entry = cache["entry"]
            grads[f"{layer.name}.weights"] = dout.T @ cache["input"]
            grads[f"{layer.name}.bias"] = dout.sum(axis=0)
            dout = dout @ entry.weights
        elif kind == "flatten":
            dout = dout.reshape(cache["in_shape"])
        elif kind == "maxpool":
            b, c, h, w = cache["in_shape"]
            oh, ow = cache["out_hw"]
            p, q = layer.window
            s = layer.stride
            idx = cache["idx"]
            dx = np.zeros((b, c, h, w), dtype=dout.dtype)
            if s >= p and s >= q:
                # non-overlapping windows: scatter without index collisions
                dwin = np.zeros((b, c, oh, ow, p * q), dtype=dout.dtype)
                np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
                dwin = dwin.reshape(b, c, oh, ow, p, q)
                for pi in range(p):
                    for qi in range(q):
                        dx[:, :, pi::s, qi::s][:, :, :oh, :ow] += dwin[..., pi, qi]
            else:
                bi, ci, ohi, owi = np.indices((b, c, oh, ow), sparse=False)
                rows = ohi * s + idx // q
                cols = owi * s + idx % q
                np.add.at(dx, (bi, ci, rows, cols), dout)
            dout = dx
        elif kind == "avgpool":
            b, c, h, w = cache["in_shape"]
            oh, ow = cache["out_hw"]
            p, q = layer.window
            s = layer.stride
            dx = np.zeros((b, c, h, w), dtype=dout.dtype)
            share = dout / (p * q)
            for pi in range(p):
                for qi in range(q):
                    dx[:, :, pi::s, qi::s][:, :, :oh, :ow] += share
            dout = dx
        elif kind == "conv":
            entry = cache["entry"]
            conv = entry.conv
            m, n, p, q = conv.kernel.shape
            oh, ow = cache["out_hw"]
            if "relu_mask" in cache:
                dout = dout * cache["relu_mask"]
            if "bn" in cache:
                bn_cache = cache["bn"]
                bn = entry.bn
                xhat, inv_std = bn_cache["xhat"], bn_cache["inv_std"]
                grads[f"{layer.name}.gamma"] = np.sum(dout * xhat, axis=(0, 2, 3))
                grads[f"{layer.name}.beta"] = np.sum(dout, axis=(0, 2, 3))
                dxhat = dout * bn.gamma[None, :, None, None]
                if bn_cache["training"]:
                    count = dout.shape[0] * dout.shape[2] * dout.shape[3]
                    sum_dxhat = np.sum(dxhat, axis=(0, 2, 3), keepdims=True)
                    sum_dxhat_xhat = np.sum(dxhat * xhat, axis=(0, 2, 3), keepdims=True)
                    dout = (inv_std[None, :, None, None] / count) * (
                        count * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
                else:
                    dout = dxhat * inv_std[None, :, None, None]
            b = dout.shape[0]
            dmat = dout.transpose(0, 2, 3, 1).reshape(b * oh * ow, m)
            wmat = conv.kernel.reshape(m, n * p * q)
            grads[f"{layer.name}.kernel"] = (dmat.T @ cache["cols"]).reshape(m, n, p, q)
            grads[f"{layer.name}.bias"] = dmat.sum(axis=0)
            dcols = (dmat @ wmat).reshape(b, oh, ow, n, p, q).transpose(0, 3, 1, 2, 4, 5)
            _, _, hp, wp = cache["in_shape"]
            dxp = np.zeros((b, n, hp, wp), dtype=dout.dtype)
            s = conv.stride
            for pi in range(p):
                for qi in range(q):
                    dxp[:, :, pi::s, qi::s][:, :, :oh, :ow] += dcols[:, :, :, :, pi, qi]
            pad = conv.padding
            dout = dxp[:, :, pad:hp - pad, pad:wp - pad] if pad else dxp
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
    otherwise plain cross-entropy.
    """
    labels = np.asarray(labels, dtype=np.int64)
    logits, caches = forward_batch(spec, params, x, training=training)
    b = logits.shape[0]
    losses = np.empty(b)
    dlogits = np.empty_like(logits)
    for i in range(b):
        if not np.all(np.isfinite(logits[i])):
            losses[i] = np.nan
            dlogits[i] = 0.0
            continue
        if teacher_logits is not None and kd is not None:
            losses[i] = kd_loss(logits[i], teacher_logits[i], int(labels[i]), kd)
            dlogits[i] = kd_logit_gradient(logits[i], teacher_logits[i], int(labels[i]), kd)
        else:
            losses[i] = cross_entropy(logits[i], int(labels[i]))
            dlogits[i] = ce_logit_gradient(logits[i], int(labels[i]))
    if not np.all(np.isfinite(losses)):
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        ident = sample_ids[bad] if sample_ids is not None else bad
        raise NumericError(f"non-finite loss for sample {ident!r}")
    grads = backward_batch(spec, params, caches, dlogits / b)
    return float(losses.mean()), grads, logits, caches

