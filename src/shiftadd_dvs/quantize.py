"""Shift-parameter quantization: weights as signed sums of powers of two.

A weight is first rounded to a fixed-point grid with ``frac_bits`` fraction
bits and ``int_bits`` integer bits (round half to even), then truncated to its
``n_terms`` most significant binary digits. Each kept digit with exponent e is
stored as a non-negative shift magnitude s = int_bits - e, so magnitudes grow
as terms get smaller and the per-layer offset encoding operates on small
non-negative integers. The dequantized value sign * sum(2^(int_bits - s)) is
exact in binary floating point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RangeError
from .layers import ConvLayerParams, DenseParams
from .model import (
    ConvBlockParams,
    ConvSpec,
    ModelParams,
    ModelSpec,
    layer_arrays,
    weight_shape,
)

DEFAULT_FRAC_BITS = 16
DEFAULT_INT_BITS = 2


def fixed_point_decompose(w: float, frac_bits: int = DEFAULT_FRAC_BITS,
                          int_bits: int = DEFAULT_INT_BITS) -> list[int]:
    """Exponents of |w| rounded to the fixed-point grid, most significant first.

    Returns [] when |w| rounds to zero. Raises RangeError when the rounded
    magnitude needs more than ``int_bits`` integer bits.
    """
    if frac_bits < 0 or int_bits < 0 or frac_bits + int_bits > 31:
        raise ConfigurationError(f"invalid fixed-point frame F={frac_bits}, I={int_bits}")
    if not np.isfinite(w):
        raise RangeError(f"weight {w!r} is not finite")
    scaled = _round_half_even_scaled(abs(float(w)), frac_bits)
    if scaled >= 1 << (frac_bits + int_bits):
        raise RangeError(
            f"|{w}| does not fit fixed point with {int_bits} integer bits")
    return [k - frac_bits for k in range(frac_bits + int_bits - 1, -1, -1)
            if (scaled >> k) & 1]


def _round_half_even_scaled(magnitude: float, frac_bits: int) -> int:
    # float(...) keeps an exact dyadic product; Python round() is half-to-even
    return round(magnitude * float(2 ** frac_bits))


@dataclass(frozen=True)
class ShiftQuantParam:
    """One quantized weight: sign and shift magnitudes (small shifts first).

    ``shifts[j] = int_bits - exponent_j``; freshly quantized weights carry
    strictly increasing shifts (distinct powers), while decoding a clamped
    layer may produce repeats (see encoding.decode_entry).
    """

    sign: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ConfigurationError(f"sign must be -1, 0 or 1, got {self.sign}")
        if (self.sign == 0) != (len(self.shifts) == 0):
            raise ConfigurationError("sign must be 0 exactly when the shift list is empty")

    def exponents(self, int_bits: int = DEFAULT_INT_BITS) -> tuple[int, ...]:
        return tuple(int_bits - s for s in self.shifts)

    def magnitude(self, int_bits: int = DEFAULT_INT_BITS) -> float:
        return float(sum(2.0 ** (int_bits - s) for s in self.shifts))

    def value(self, int_bits: int = DEFAULT_INT_BITS) -> float:
        return self.sign * self.magnitude(int_bits)

    @property
    def term_count(self) -> int:
        return len(self.shifts)


ZERO_PARAM = ShiftQuantParam(sign=0, shifts=())


def shift_quantize_param(w: float, n_terms: int, frac_bits: int = DEFAULT_FRAC_BITS,
                         int_bits: int = DEFAULT_INT_BITS) -> ShiftQuantParam:
    """Keep the ``n_terms`` most significant powers of two of the fixed-point weight."""
    if n_terms < 1:
        raise ConfigurationError(f"n_terms must be >= 1, got {n_terms}")
    exps = fixed_point_decompose(w, frac_bits, int_bits)[:n_terms]
    if not exps:
        return ZERO_PARAM
    sign = 1 if w > 0 else -1
    return ShiftQuantParam(sign=sign, shifts=tuple(int_bits - e for e in exps))


@dataclass(frozen=True)
class LayerEncoding:
    """Per-layer offset binary encoding of the shift magnitudes."""

    bias: int
    bits: int
    codes: tuple[tuple[int, ...], ...]  # one code tuple per weight, term order preserved
    clamp_count: int


@dataclass
class QuantizedLayer:
    """Quantized parameters of one conv or dense layer; geometry and activation live in the spec."""

    name: str
    shape: tuple[int, ...]         # conv: (M, N, P, Q); dense: (out, in)
    weights: list[ShiftQuantParam]  # kernel/weight entries in index order
    biases: list[ShiftQuantParam]
    encoding: LayerEncoding | None = None

    def all_params(self) -> list[ShiftQuantParam]:
        return self.weights + self.biases


@dataclass
class QuantizedModel:
    """Quantized counterpart of (ModelSpec, ModelParams).

    ``entries`` aligns with ``spec.layers``; pool/flatten slots hold None.
    """

    spec: ModelSpec
    entries: list
    n_terms: int
    frac_bits: int = DEFAULT_FRAC_BITS
    int_bits: int = DEFAULT_INT_BITS
    bits: int | None = None        # set once encoded
    f_a: int = 8

    def layers(self) -> list[QuantizedLayer]:
        return [e for e in self.entries if e is not None]


def shift_quantize_model(spec: ModelSpec, params: ModelParams, n_terms: int,
                         frac_bits: int = DEFAULT_FRAC_BITS, int_bits: int = DEFAULT_INT_BITS,
                         quantize_biases: bool = True, f_a: int = 8) -> QuantizedModel:
    """Quantize every weight of the model with one shared (n_terms, F, I) frame.

    Batchnorm must already be folded into the convolutions. With
    ``quantize_biases`` off, biases keep full fixed-point precision (every grid
    digit retained); note the file format caps stored terms at 15.
    """
    if n_terms < 1:
        raise ConfigurationError(f"n_terms must be >= 1, got {n_terms}")
    bias_terms = n_terms if quantize_biases else frac_bits + int_bits
    entries: list = []
    for (layer, in_shape, _), entry in zip(spec.geometry(), params.entries):
        if weight_shape(layer, in_shape) is None:
            entries.append(None)
            continue
        if isinstance(layer, ConvSpec) and layer.batchnorm:
            raise ConfigurationError(f"layer {layer.name}: fold batchnorm before quantization")
        weights, bias = layer_arrays(layer, in_shape, entry)
        entries.append(QuantizedLayer(
            name=layer.name, shape=weights.shape,
            weights=_quantize_array(weights, layer.name, n_terms, frac_bits, int_bits),
            biases=_quantize_array(bias, layer.name, bias_terms, frac_bits, int_bits)))
    return QuantizedModel(spec=spec, entries=entries, n_terms=n_terms,
                          frac_bits=frac_bits, int_bits=int_bits, f_a=f_a)


def _quantize_array(arr: np.ndarray, layer_name: str, n_terms: int,
                    frac_bits: int, int_bits: int) -> list[ShiftQuantParam]:
    out = []
    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    for index, w in enumerate(flat):
        try:
            out.append(shift_quantize_param(float(w), n_terms, frac_bits, int_bits))
        except RangeError as exc:
            raise RangeError(f"layer {layer_name}, weight index {index}: {exc}") from exc
    return out


def dequantize_model(q: QuantizedModel) -> ModelParams:
    """Exact floating-point reconstruction of the quantized model."""
    entries: list = []
    for layer, qentry in zip(q.spec.layers, q.entries):
        if qentry is None:
            entries.append(None)
            continue
        values = np.array([p.value(q.int_bits) for p in qentry.weights]).reshape(qentry.shape)
        biases = np.array([p.value(q.int_bits) for p in qentry.biases])
        if isinstance(layer, ConvSpec):
            conv = ConvLayerParams(kernel=values, bias=biases, stride=layer.stride,
                                   padding=layer.padding)
            entries.append(ConvBlockParams(conv=conv, bn=None))
        else:
            entries.append(DenseParams(weights=values, bias=biases))
    return ModelParams(entries=entries)


def fixed_point_value(w: float, frac_bits: int = DEFAULT_FRAC_BITS,
                      int_bits: int = DEFAULT_INT_BITS) -> float:
    """|w|-signed value on the fixed-point grid (the n_terms -> inf limit)."""
    exps = fixed_point_decompose(w, frac_bits, int_bits)
    magnitude = float(sum(2.0 ** e for e in exps))
    return magnitude if w > 0 else -magnitude
