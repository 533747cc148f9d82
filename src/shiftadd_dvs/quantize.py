"""Shift-parameter quantization: weights as signed sums of powers of two.

A weight is first rounded to a fixed-point grid with ``frac_bits`` fraction
bits and ``int_bits`` integer bits (round half to even), then truncated to its
``n_terms`` most significant binary digits. Each kept digit with exponent e is
stored as a non-negative shift magnitude s = int_bits - e, so magnitudes grow
as terms get smaller and the per-layer offset encoding operates on small
non-negative integers. The dequantized value sign * sum(2^(int_bits - s)) is
exact in binary floating point.

A ``QuantizedLayer``, one folded ``layers.LayerParams`` (weights, then bias),
holds its parameters as arrays, the sign-and-shift form usual for power-of-two
weights: a sign and a term count per parameter and one flat array of shifts.
``shift_quantize_model`` fills them a layer at a time: it rounds with
``np.rint``, then takes each weight's terms in at most min(n_terms, F+I)
passes over the layer, each taking the highest set bit still left in every
rounded magnitude and clearing it.
``ShiftQuantParam`` and ``shift_quantize_param`` are the scalar form of one
weight; a layer's ``weights`` and ``all_params()`` give it as read-only
views, built on first access and used by no inference path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, RangeError
from .layers import LayerParams
from .model import ConvSpec, ModelParams, ModelSpec, check_entries

DEFAULT_FRAC_BITS = 16
DEFAULT_INT_BITS = 2


def _check_frame(frac_bits: int, int_bits: int) -> None:
    if frac_bits < 0 or int_bits < 0 or frac_bits + int_bits > 31:
        raise ConfigurationError(f"invalid fixed-point frame F={frac_bits}, I={int_bits}")


def _check_n_terms(n_terms: int) -> None:
    if n_terms < 1:
        raise ConfigurationError(f"n_terms must be >= 1, got {n_terms}")


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 8:
        raise ConfigurationError(f"encoding width must be in [1, 8], got {bits}")


def fixed_point_decompose(w: float, frac_bits: int = DEFAULT_FRAC_BITS,
                          int_bits: int = DEFAULT_INT_BITS) -> list[int]:
    """Exponents of |w| rounded to the fixed-point grid, most significant first.

    Returns [] when |w| rounds to zero. Raises RangeError when the rounded
    magnitude needs more than ``int_bits`` integer bits.
    """
    _check_frame(frac_bits, int_bits)
    if not np.isfinite(w):
        raise RangeError(f"weight {w!r} is not finite")
    # 2^int_bits is already out of range; the cap keeps a huge |w| from scaling to inf
    scaled = _round_half_even_scaled(min(abs(float(w)), 2.0 ** int_bits), frac_bits)
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
    layer may produce repeats (see encoding.decoded_model).
    """

    sign: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ConfigurationError(f"sign must be -1, 0 or 1, got {self.sign}")
        if (self.sign == 0) != (len(self.shifts) == 0):
            raise ConfigurationError("sign must be 0 exactly when the shift list is empty")

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
    _check_n_terms(n_terms)
    exps = fixed_point_decompose(w, frac_bits, int_bits)[:n_terms]
    if not exps:
        return ZERO_PARAM
    sign = 1 if w > 0 else -1
    return ShiftQuantParam(sign=sign, shifts=tuple(int_bits - e for e in exps))


def _frozen(values) -> np.ndarray:
    """A read-only int64 copy; cached views stay true to arrays nobody can write."""
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _split(flat: np.ndarray, count: np.ndarray) -> list[tuple[int, ...]]:
    """``flat`` cut into one tuple per parameter, ``count[i]`` values each."""
    values, ends = flat.tolist(), np.cumsum(count).tolist()
    return [tuple(values[end - n:end]) for n, end in zip(count.tolist(), ends)]


@dataclass(frozen=True, eq=False)
class LayerEncoding:
    """Per-layer offset binary encoding of the shift magnitudes.

    ``code`` holds one code per term, aligned with the layer's ``shift``;
    ``count`` is the layer's terms per parameter, the layout of ``code``.
    ``bits`` is in [1, 8], ``bias`` >= 0 and every code in [0, 2^bits).
    """

    bias: int
    bits: int
    code: np.ndarray
    count: np.ndarray
    clamp_count: int

    def __post_init__(self):
        object.__setattr__(self, "code", _frozen(self.code))
        object.__setattr__(self, "count", _frozen(self.count))
        _check_bits(self.bits)
        if self.bias < 0:
            raise ConfigurationError(f"encoding bias must be >= 0, got {self.bias}")
        unfit = self.code[(self.code < 0) | (self.code >= 1 << self.bits)]
        if unfit.size:
            raise ConfigurationError(f"code {unfit[0]} outside [0, {1 << self.bits})")

    @cached_property
    def codes(self) -> tuple[tuple[int, ...], ...]:
        """One code tuple per parameter, term order preserved (a read-only view)."""
        return tuple(_split(self.code, self.count))


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    """Quantized parameters of one conv or dense layer; geometry and activation live in the spec.

    Parameters run kernel/weight entries in index order, then biases. ``sign``
    (-1, 0 or 1) and ``count`` (terms) hold one value per parameter; ``shift``
    holds the shift magnitudes parameter after parameter, the ``encoding.Terms``
    layout. Arrays are stored as read-only int64 copies.
    """

    name: str
    shape: tuple[int, ...]         # conv: (M, N, P, Q); dense: (out, in)
    sign: np.ndarray
    count: np.ndarray
    shift: np.ndarray
    encoding: LayerEncoding | None = None

    def __post_init__(self):
        for field in ("sign", "count", "shift"):
            object.__setattr__(self, field, _frozen(getattr(self, field)))
        params = self.weight_count + self.shape[0]
        if self.sign.shape != (params,) or self.count.shape != (params,) \
                or self.shift.shape != (int(self.count.sum()),):
            raise ConfigurationError(
                f"layer {self.name}: arrays of {self.sign.shape} signs, {self.count.shape} "
                f"counts and {self.shift.shape} shifts for {params} parameters")
        if np.any(np.abs(self.sign) > 1) or np.any(self.count < 0) \
                or np.any((self.sign == 0) != (self.count == 0)):
            raise ConfigurationError(f"layer {self.name}: signs must be -1, 0 or 1, "
                                     "and 0 exactly when a parameter has no terms")
        if np.any(self.shift < 0):
            raise ConfigurationError(f"layer {self.name}: shift magnitudes must be non-negative")
        enc = self.encoding
        if enc is not None and (enc.code.shape != self.shift.shape
                                or not np.array_equal(enc.count, self.count)):
            raise ConfigurationError(
                f"layer {self.name}: the encoding's codes do not match its terms")

    @property
    def weight_count(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def _params(self) -> tuple[ShiftQuantParam, ...]:
        return tuple(ShiftQuantParam(sign, shifts) if shifts else ZERO_PARAM
                     for sign, shifts in zip(self.sign.tolist(), _split(self.shift, self.count)))

    @cached_property
    def weights(self) -> tuple[ShiftQuantParam, ...]:
        """Kernel/weight entries as scalar parameters (a read-only view)."""
        return self._params[:self.weight_count]

    def all_params(self) -> tuple[ShiftQuantParam, ...]:
        return self._params


@dataclass(frozen=True)
class QuantizedModel:
    """Quantized counterpart of ``ModelParams``, immutable and checked once, when made.

    ``entries``, stored as a tuple, passes ``model.check_entries`` with a
    ``QuantizedLayer`` in each conv and dense slot. Every conv has its batchnorm
    folded, and no weight holds more than ``n_terms`` (>= 1) terms; a bias may.
    ``bits`` is None exactly when no layer is encoded, else every encoding's
    width, and each stored shift and encoded ``bias + code`` is at most F+I.
    """

    spec: ModelSpec
    entries: tuple
    n_terms: int
    frac_bits: int = DEFAULT_FRAC_BITS
    int_bits: int = DEFAULT_INT_BITS
    bits: int | None = None        # set once encoded
    f_a: int = 8
    # The integer streaming pipeline ``stream.stream_quantized_forward`` builds
    # on the model's first frame and keeps; it lives and dies with the model. Not
    # part of the model's value, and a copy made with ``dataclasses.replace``
    # starts without.
    stream_pipeline: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        _check_n_terms(self.n_terms)
        _check_frame(self.frac_bits, self.int_bits)
        if not 0 <= self.f_a <= 24:  # the activation scales the integer path supports
            raise ConfigurationError(f"f_a must be in [0, 24], got {self.f_a}")
        check_entries(self.spec, self.entries, QuantizedLayer, lambda entry: entry.shape)
        for layer, entry in zip(self.spec.layers, self.entries):
            if isinstance(layer, ConvSpec) and layer.batchnorm:
                raise ConfigurationError(f"layer {layer.name}: fold batchnorm before quantization")
            if entry is None:
                continue
            over = np.flatnonzero(entry.count[:entry.weight_count] > self.n_terms)
            if over.size:
                raise ConfigurationError(
                    f"layer {layer.name}: weight {over[0]} has {entry.count[over[0]]} terms, "
                    f"more than N={self.n_terms}")
            enc = entry.encoding
            bits, top = (None, 0) if enc is None else (enc.bits, enc.bias + enc.code.max(initial=0))
            if bits != self.bits:
                raise ConfigurationError(
                    f"layer {layer.name}: encoded with bits={bits}, the model with bits={self.bits}")
            top = max(top, entry.shift.max(initial=0))
            if top > self.frac_bits + self.int_bits:
                raise ConfigurationError(f"layer {layer.name}: shift magnitude {top} is beyond "
                                         f"F+I={self.frac_bits + self.int_bits}")

    def layers(self) -> list[QuantizedLayer]:
        return [e for e in self.entries if e is not None]


def shift_quantize_model(spec: ModelSpec, params: ModelParams, n_terms: int,
                         frac_bits: int = DEFAULT_FRAC_BITS, int_bits: int = DEFAULT_INT_BITS,
                         f_a: int = 8) -> QuantizedModel:
    """Quantize every weight and bias of the model with one shared (n_terms, F, I) frame.

    Batchnorm must already be folded into the convolutions. Each parameter
    quantizes exactly as ``shift_quantize_param`` quantizes it.
    """
    _check_n_terms(n_terms)
    _check_frame(frac_bits, int_bits)
    entries: list = []
    for layer, entry in zip(spec.layers, params.entries_for(spec)):
        if entry is not None:
            parts = [_quantize_array(arr, layer.name, n_terms, frac_bits, int_bits)
                     for arr in (entry.weights, entry.bias)]
            sign, count, shift = (np.concatenate(arrays) for arrays in zip(*parts))
            entry = QuantizedLayer(name=layer.name, shape=entry.weights.shape,
                                   sign=sign, count=count, shift=shift)
        entries.append(entry)
    return QuantizedModel(spec=spec, entries=entries, n_terms=n_terms,
                          frac_bits=frac_bits, int_bits=int_bits, f_a=f_a)


def _quantize_array(arr: np.ndarray, layer_name: str, n_terms: int, frac_bits: int,
                    int_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sign, count, shift) of every weight of ``arr``, in ``shift_quantize_param``'s terms.

    After rounding, each of at most min(n_terms, F+I) passes over the weights
    takes the highest set bit still left in each rounded magnitude as that
    weight's next term and clears it, so every weight's terms come out most
    significant first.
    """
    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    # as in fixed_point_decompose: cap at 2^int_bits, scale exactly, round half to even
    scaled = np.rint(np.minimum(np.abs(flat), 2.0 ** int_bits) * float(2 ** frac_bits))
    out_of_range = ~(scaled < float(1 << (frac_bits + int_bits)))  # NaN included
    if out_of_range.any():
        index = int(np.argmax(out_of_range))
        try:  # the scalar path words the error
            fixed_point_decompose(float(flat[index]), frac_bits, int_bits)
        except RangeError as exc:
            raise RangeError(f"layer {layer_name}, weight index {index}: {exc}") from exc
    rest = scaled.astype(np.int32)  # exact: below 2^(F+I) <= 2^31
    # bit[i, j]: the grid exponent of weight i's term j, -1 past its last term
    bit = np.empty((rest.size, min(n_terms, frac_bits + int_bits)), dtype=np.int8)
    count = np.zeros(rest.size, dtype=np.int64)
    for j in range(bit.shape[1]):
        top = np.frexp(rest)[1] - 1  # the highest set bit left, -1 if none; frexp is exact here
        bit[:, j] = top
        count += top >= 0
        rest &= ~(1 << np.maximum(top, 0))  # clearing bit 0 of a spent 0 changes nothing
    sign = np.sign(flat).astype(np.int64)
    sign[count == 0] = 0
    return sign, count, frac_bits + int_bits - bit[bit >= 0].astype(np.int64)


def dequantize_model(q: QuantizedModel) -> ModelParams:
    """Exact floating-point reconstruction of the quantized model."""
    entries: list = []
    for entry in q.entries:
        if entry is not None:
            # bincount adds each parameter's terms in stored order, as the scalar sum does
            owner = np.repeat(np.arange(len(entry.count)), entry.count)
            magnitude = np.bincount(owner, weights=np.ldexp(1.0, q.int_bits - entry.shift),
                                    minlength=len(entry.count))
            values = entry.sign * magnitude
            entry = LayerParams(weights=values[:entry.weight_count].reshape(entry.shape),
                                bias=values[entry.weight_count:])
        entries.append(entry)
    return ModelParams(q.spec, entries)


def fixed_point_value(w: float, frac_bits: int = DEFAULT_FRAC_BITS,
                      int_bits: int = DEFAULT_INT_BITS) -> float:
    """|w|-signed value on the fixed-point grid (the n_terms -> inf limit)."""
    exps = fixed_point_decompose(w, frac_bits, int_bits)
    magnitude = float(sum(2.0 ** e for e in exps))
    return magnitude if w > 0 else -magnitude
