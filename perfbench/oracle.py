"""Independent integer oracle for the shift-add engine and the streaming simulator.

It shares no arithmetic with the program's integer data path. Weights are
rebuilt as plain integers from the stored encoding (layer bias plus code, so
a clamped decode is reproduced exactly as the hardware would apply it), every
convolution is one exact int64 product ``cols @ W_int.T`` and requantization,
saturation and pooling are written out from their definitions. Because it
multiplies, it lives here, outside the program's multiplier-free audit.
"""
from __future__ import annotations

import numpy as np

ACT_LIMIT = (1 << 31) - 1
INT64_LIMIT = 1 << 63


def _as_int_array(values: list[int]) -> np.ndarray:
    """int64 when every value fits, else Python integers (exact either way)."""
    if all(-INT64_LIMIT < v < INT64_LIMIT for v in values):
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


def _layer_ints(entry, align: int, f_a: int):
    """Weights as integers at scale 2^frac_bits (one row per output), biases at
    scale 2^(f_a + frac_bits), and (largest row sum of |weight|, largest |bias|)."""
    enc = entry.encoding
    n_weights = len(entry.weights)
    values = []
    for index, (param, codes) in enumerate(zip(entry.all_params(), enc.codes)):
        extra = 0 if index < n_weights else f_a
        magnitude = sum(1 << (align + extra - (enc.bias + code)) for code in codes)
        values.append(param.sign * magnitude)
    weights, biases = values[:n_weights], values[n_weights:]
    rows = len(biases)
    per_row = n_weights // rows
    l1 = max(sum(abs(v) for v in weights[r * per_row:(r + 1) * per_row]) for r in range(rows))
    bound = (l1, max(abs(v) for v in biases))
    return _as_int_array(weights).reshape(rows, per_row), _as_int_array(biases), bound


def _exact_affine(cols: np.ndarray, weights: np.ndarray, biases: np.ndarray, bound) -> np.ndarray:
    """cols @ weights.T + biases, in int64 when no partial sum can overflow, else in Python ints."""
    l1, bias_max = bound
    if int(np.max(np.abs(cols), initial=0)) * l1 + bias_max < INT64_LIMIT \
            and weights.dtype == np.int64 and biases.dtype == np.int64:
        return cols @ weights.T + biases[None, :]
    return cols.astype(object) @ weights.astype(object).T + biases.astype(object)[None, :]


def _requantize(acc, frac_bits: int) -> tuple[np.ndarray, int]:
    """Round acc / 2^frac_bits half to even, then saturate to +-(2^31 - 1)."""
    scale = 1 << frac_bits
    quotient, remainder = acc // scale, acc % scale  # floor division, also on Python ints
    half = scale // 2
    up = (remainder > half) | ((remainder == half) & (quotient % 2 == 1)) if frac_bits else False
    out = quotient + up
    saturated = int(np.count_nonzero(out > ACT_LIMIT) + np.count_nonzero(out < -ACT_LIMIT))
    return np.clip(out, -ACT_LIMIT, ACT_LIMIT).astype(np.int64), saturated


class IntegerOracle:
    """Reference logits for an encoded QuantizedModel with folded batchnorm."""

    def __init__(self, encoded_model):
        q = encoded_model
        if any(e is not None and e.encoding is None for e in q.entries):
            raise ValueError("the oracle needs an encoded model")
        self.q = q
        align = q.frac_bits + q.int_bits
        self.layers = []
        for layer, entry in zip(q.spec.layers, q.entries):
            kind = type(layer).__name__
            ints = (None, None, None) if entry is None else _layer_ints(entry, align, q.f_a)
            self.layers.append((kind, layer, *ints))

    def quantize(self, frame: np.ndarray) -> np.ndarray:
        scaled = np.rint(np.asarray(frame, dtype=np.float64) * float(1 << self.q.f_a))
        if not np.all(np.isfinite(scaled)) or np.any(np.abs(scaled) > ACT_LIMIT):
            raise ValueError("frame does not fit the 32-bit activation grid")
        return scaled.astype(np.int64)

    def logits(self, frame: np.ndarray) -> tuple[np.ndarray, int]:
        """(int64 logits, total saturations) for one float frame."""
        x = self.quantize(frame)
        saturations = 0
        for kind, layer, weights, biases, bound in self.layers:
            if kind == "ConvSpec":
                x, count = self._conv(x, layer, weights, biases, bound)
                saturations += count
            elif kind == "PoolLayerSpec":
                x = self._pool(x, layer)
            elif kind == "FlattenSpec":
                x = x.reshape(-1)
            else:
                acc = _exact_affine(x[None, :], weights, biases, bound)[0]
                x, count = _requantize(acc, self.q.frac_bits)
                saturations += count
        return x, saturations

    def _conv(self, x, layer, weights, biases, bound):
        m = weights.shape[0]
        p, q = layer.kernel
        s, pad = layer.stride, layer.padding
        c, h, w = x.shape
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.int64)
        xp[:, pad:pad + h, pad:pad + w] = x
        oh = (h + 2 * pad - p) // s + 1
        ow = (w + 2 * pad - q) // s + 1
        cols = np.empty((oh * ow, c * p * q), dtype=np.int64)
        for i in range(oh):
            for j in range(ow):
                cols[i * ow + j] = xp[:, i * s:i * s + p, j * s:j * s + q].reshape(-1)
        acc = _exact_affine(cols, weights, biases, bound)
        out, saturated = _requantize(acc, self.q.frac_bits)
        if layer.relu:
            out = np.maximum(out, 0)
        return out.T.reshape(m, oh, ow), saturated

    @staticmethod
    def _pool(x, layer):
        p, q = layer.window
        s = layer.stride
        c, h, w = x.shape
        oh, ow = (h - p) // s + 1, (w - q) // s + 1
        windows = np.stack([x[:, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s]
                            for i in range(p) for j in range(q)])
        if layer.mode == "max":
            return windows.max(axis=0)
        area = p * q
        return (windows.sum(axis=0) + area // 2) // area


def logits_match(got, expected) -> bool:
    """An inference item passes only if every logit equals the oracle's, bit for bit."""
    got = np.asarray(got)
    expected = np.asarray(expected)
    return got.shape == expected.shape and got.dtype.kind == "i" and bool(np.array_equal(got, expected))


def loss_ok(loss) -> bool:
    """A training step passes only if its loss is a finite number."""
    try:
        return bool(np.isfinite(float(loss)))
    except (TypeError, ValueError):
        return False
