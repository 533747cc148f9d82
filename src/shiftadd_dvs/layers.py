"""Reference floating-point kernels: convolution, pooling, dense, batchnorm, softmax.

Feature maps are plain ``numpy`` arrays of shape (channels, rows, cols); rows are
the time axis and cols the fiber-position axis. The convolution accumulates in a
fixed (in_channel, kernel_row, kernel_col) order so outputs are bit-reproducible
across runs and can be compared exactly against a naive nested-loop evaluation.

Parameters hold arrays only: one ``LayerParams`` record serves a conv and a
dense layer alike. A window's geometry (kernel or pool window, stride,
padding) belongs to the model spec, and callers pass it to
``conv2d_forward`` and ``pool2d_forward``; ``conv_output_shape``, which every
consumer calls, is where it is checked.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


def as_feature_map(x) -> np.ndarray:
    """Validate and return ``x`` as a (channels, rows, cols) float array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ConfigurationError(f"feature map must be 3-D (channels, rows, cols), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ConfigurationError(f"feature map dimensions must all be >= 1, got {arr.shape}")
    return arr


def _as_float(arr) -> np.ndarray:
    """Keep float32/float64 as is, promote everything else to float64."""
    a = np.asarray(arr)
    if a.dtype not in (np.float32, np.float64):
        return a.astype(np.float64)
    return a


@dataclass(frozen=True)
class BatchNormParams:
    """Per-channel affine normalization with running statistics."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        arrays = {}
        for name in ("gamma", "beta", "mean", "var"):
            arrays[name] = _as_float(getattr(self, name))
        shapes = {a.shape for a in arrays.values()}
        if len(shapes) != 1 or arrays["gamma"].ndim != 1:
            raise ConfigurationError("batchnorm arrays must be 1-D and share one shape")
        if np.any(arrays["var"] < 0):
            raise ConfigurationError("batchnorm variance must be >= 0")
        if not self.eps > 0:
            raise ConfigurationError("batchnorm epsilon must be > 0")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class LayerParams:
    """One conv or dense layer: weights, conv [out][in][kh][kw] or dense [out][in], bias [out]
    and the batchnorm that follows, set only where the spec flags one."""

    weights: np.ndarray
    bias: np.ndarray
    bn: BatchNormParams | None = None

    def __post_init__(self):
        weights = _as_float(self.weights)
        bias = _as_float(self.bias)
        if weights.ndim not in (2, 4):
            raise ConfigurationError(
                f"weights must be 4-D [out][in][kh][kw] or 2-D [out][in], got shape {weights.shape}")
        if bias.shape != (weights.shape[0],):
            raise ConfigurationError(f"bias shape {bias.shape} does not match {weights.shape[0]} outputs")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)


def _stride_pair(stride: int | tuple[int, int]) -> tuple[int, int]:
    """(row, column) stride; one int strides both axes."""
    return stride if isinstance(stride, tuple) else (stride, stride)


def conv_output_shape(in_rows: int, in_cols: int, window: tuple[int, int],
                      stride: int | tuple[int, int], padding: int = 0) -> tuple[int, int]:
    """Floor-rule output size shared by convolution and pooling.

    The one check of a window's geometry: a window that is not a pair, a value
    that is not an integer, a window dimension or a stride below 1, a negative
    padding, or a window that does not fit the padded input is rejected.
    """
    if np.shape(window) != (2,):
        raise ConfigurationError(f"window must be a (rows, columns) pair, got {window}")
    (p, q), (sr, sc) = window, _stride_pair(stride)
    if not all(isinstance(v, (int, np.integer)) for v in (p, q, sr, sc, padding)):
        raise ConfigurationError("window, stride and padding must be integers")
    if min(p, q) < 1:
        raise ConfigurationError(f"window {p}x{q} must be >= 1 in both dimensions")
    if min(sr, sc) < 1 or padding < 0:
        raise ConfigurationError("stride must be >= 1 and padding >= 0")
    oh, ow = (in_rows + 2 * padding - p) // sr + 1, (in_cols + 2 * padding - q) // sc + 1
    if oh < 1 or ow < 1:
        raise ConfigurationError(
            f"window {p}x{q} does not fit input {in_rows}x{in_cols} padded by {padding}")
    return oh, ow


def window_taps(x: np.ndarray, window: tuple[int, int], stride: int | tuple[int, int],
                out_hw: tuple[int, int]) -> list[np.ndarray]:
    """One strided view of ``x`` per window tap, in row-major tap order.

    Axes 1 and 2 of ``x`` are its rows and columns, so (C, H, W) maps and
    channel-last (B, H, W, C) batches both fit: tap (pi, qi) holds
    ``x[:, i*SR + pi, j*SC + qi]`` at position (i, j) of the ``out_hw`` grid.
    The integer engine reads its pool windows here, so the function is on the
    multiplier-free audited path: the views are cut without a product.
    """
    (p, q), (oh, ow), (sr, sc) = window, out_hw, _stride_pair(stride)
    return [x[:, pi::sr, qi::sc][:, :oh, :ow] for pi in range(p) for qi in range(q)]


def conv2d_forward(x, params: LayerParams, stride: int | tuple[int, int] = 1,
                   padding: int = 0) -> np.ndarray:
    """Cross-correlate ``x``, zero-padded by ``padding``, with the kernel and add the bias.

    Accumulation is performed term by term in (in_channel, kernel_row,
    kernel_col) order with the bias added last, so every output element sees a
    fixed floating-point operation sequence whatever map its windows are read
    from: the streaming simulator runs it once per stage on its stack of
    line-buffer slabs (padding 0, as the slabs already hold the zeros, and row
    stride P) and matches the whole-map call bit for bit.
    """
    x = as_feature_map(x)
    if params.weights.ndim != 4:
        raise ConfigurationError(f"a convolution needs 4-D weights, got shape {params.weights.shape}")
    m, n, p, q = params.weights.shape
    if x.shape[0] != n:
        raise ConfigurationError(
            f"input has {x.shape[0]} channels but kernel expects {n}")
    oh, ow = conv_output_shape(x.shape[1], x.shape[2], (p, q), stride, padding)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding))) if padding else x
    taps = window_taps(xp, (p, q), stride, (oh, ow))
    weights = params.weights.reshape(m, n, p * q).transpose(1, 2, 0)[..., None, None]
    out = np.zeros((m, oh, ow), dtype=np.float64)
    for ni in range(n):
        for k, tap in enumerate(taps):
            out += weights[ni, k] * tap[ni]
    out += params.bias[:, None, None]
    return out


def pool2d_forward(x, mode: str, window: tuple[int, int],
                   stride: int | tuple[int, int]) -> np.ndarray:
    """Per-channel windowed max (``mode`` "max") or arithmetic mean ("avg")."""
    x = as_feature_map(x)
    if mode not in ("max", "avg"):
        raise ConfigurationError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    oh, ow = conv_output_shape(x.shape[1], x.shape[2], window, stride)
    taps = window_taps(x, window, stride, (oh, ow))
    if mode == "max":
        out = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        return out
    acc = np.zeros((x.shape[0], oh, ow))
    for tap in taps:
        acc += tap
    return acc / len(taps)


def dense_forward(x, params: LayerParams) -> np.ndarray:
    """out[i] = sum_j W[i, j] * x[j] + b[i]."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if params.weights.ndim != 2:
        raise ConfigurationError(f"a dense layer needs 2-D weights, got shape {params.weights.shape}")
    if x.shape[0] != params.weights.shape[1]:
        raise ConfigurationError(
            f"dense input length {x.shape[0]} does not match weight columns {params.weights.shape[1]}")
    return params.weights @ x + params.bias


def batchnorm_apply(x, bn: BatchNormParams) -> np.ndarray:
    """Normalize per channel with the stored running statistics."""
    x = as_feature_map(x)
    if x.shape[0] != bn.channels:
        raise ConfigurationError(
            f"input has {x.shape[0]} channels but batchnorm expects {bn.channels}")
    scale = bn.gamma / np.sqrt(bn.var + bn.eps)
    shift = bn.beta - bn.mean * scale
    return x * scale[:, None, None] + shift[:, None, None]


def fold_batchnorm(params: LayerParams, bn: BatchNormParams) -> LayerParams:
    """Absorb a batchnorm into the preceding conv or dense layer.

    The returned layer, which holds no batchnorm, satisfies
    layer'(x) == bn(layer(x)) for every input.
    """
    if bn.channels != params.weights.shape[0]:
        raise ConfigurationError(
            f"batchnorm has {bn.channels} channels but the layer produces {params.weights.shape[0]}")
    scale = bn.gamma / np.sqrt(bn.var + bn.eps)
    weights = params.weights * scale.reshape(-1, *(1,) * (params.weights.ndim - 1))
    bias = (params.bias - bn.mean) * scale + bn.beta
    return LayerParams(weights=weights, bias=bias)


def relu(x) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax_temperature(logits, temperature: float = 1.0) -> np.ndarray:
    """Tempered softmax with max-subtraction for overflow safety."""
    if not temperature > 0:
        raise DomainError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise DomainError("logits must be finite")
    z = (z - np.max(z, axis=-1, keepdims=True)) / temperature
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(logits) -> np.ndarray:
    """Numerically stable log(softmax(logits)) along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
