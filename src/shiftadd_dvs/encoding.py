"""Per-layer offset binary encoding of shift magnitudes.

All magnitudes of one layer share a single bias equal to the smallest
magnitude present; each stored code is ``magnitude - bias`` clamped to the
``bits``-wide range. Clamping only ever shrinks a code, which distorts the
largest magnitudes, i.e. the smallest weight terms; the clamp count is
reported so losslessness is checkable (clamp_count == 0 iff decoding is the
exact inverse).

``encode_model`` encodes a layer's flat shift array at once (the bias as a
minimum, the codes as a clip); ``layer_terms`` hands the engine the effective
``bias + code`` arrays. ``encode_layer``/``decode_layer`` are the same
arithmetic on lists.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .model import ModelSpec, weight_shape
from .quantize import LayerEncoding, QuantizedLayer, QuantizedModel


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 8:
        raise ConfigurationError(f"encoding width must be in [1, 8], got {bits}")


def _offset_codes(magnitudes: np.ndarray, bits: int) -> tuple[int, np.ndarray, int]:
    """(bias, codes, clamp_count) of a non-empty array of non-negative magnitudes."""
    bias = int(magnitudes.min())
    codes = magnitudes - bias
    max_range = (1 << bits) - 1
    return bias, np.minimum(codes, max_range), int(np.count_nonzero(codes > max_range))


def encode_layer(magnitudes, bits: int) -> tuple[int, list[int], int]:
    """Encode one layer's magnitudes; returns (bias, codes, clamp_count)."""
    _check_bits(bits)
    values = np.array([int(m) for m in magnitudes], dtype=object)  # Python ints, any size
    if not values.size:
        raise ConfigurationError("cannot encode an empty layer")
    if values.min() < 0:
        raise ConfigurationError("shift magnitudes must be non-negative")
    bias, codes, clamped = _offset_codes(values, bits)
    return bias, codes.tolist(), clamped


def decode_layer(bias: int, codes) -> list[int]:
    """Inverse of encode_layer whenever nothing was clamped."""
    return [int(c) + int(bias) for c in codes]


def encode_model(q: QuantizedModel, bits: int) -> QuantizedModel:
    """Attach a per-layer encoding to every parameterized layer.

    Layers with no nonzero weight store bias 0 and no codes.
    """
    _check_bits(bits)
    entries = []
    for entry in q.entries:
        if entry is not None:
            bias, code, clamped = (_offset_codes(entry.shift, bits) if entry.shift.size
                                   else (0, entry.shift, 0))
            entry = replace(entry, encoding=LayerEncoding(
                bias=bias, bits=bits, code=code, count=entry.count, clamp_count=clamped))
        entries.append(entry)
    return replace(q, entries=entries, bits=bits)


class Terms(NamedTuple):
    """Parameters of one layer as arrays, in stored order."""

    sign: np.ndarray   # (P,) -1, 0 or 1
    count: np.ndarray  # (P,) terms per parameter
    shift: np.ndarray  # (count.sum(),) shift magnitudes, parameter after parameter


def layer_terms(entry: QuantizedLayer) -> tuple[Terms, Terms]:
    """(weights, biases) of one layer as sign, term-count and shift arrays.

    An encoded layer yields ``bias + code`` for every stored code, the effective
    shifts; an unencoded one its stored shifts. Clamping can map two terms of one
    weight to one magnitude; the repeat is kept, as the datapath adds it twice.
    """
    enc = entry.encoding
    shift = entry.shift if enc is None else enc.bias + enc.code
    if np.any(shift < 0):
        raise ConfigurationError(f"layer {entry.name}: shift magnitudes must be non-negative")
    n = entry.weight_count
    split = int(entry.count[:n].sum())
    return (Terms(entry.sign[:n], entry.count[:n], shift[:split]),
            Terms(entry.sign[n:], entry.count[n:], shift[split:]))


def decode_entry(entry: QuantizedLayer) -> QuantizedLayer:
    """The layer with its shifts replaced by the effective ``bias + code`` (see layer_terms)."""
    if entry.encoding is None:
        raise ConfigurationError(f"layer {entry.name} has no encoding")
    return replace(entry, shift=entry.encoding.bias + entry.encoding.code)


def decoded_model(q: QuantizedModel) -> QuantizedModel:
    """Model whose parameters are the decode of their encoding (deployable view)."""
    return replace(q, entries=[None if e is None else decode_entry(e) for e in q.entries])


SIGN_FIELD_BITS = 2
TERM_COUNT_FIELD_BITS = 4
LAYER_BIAS_FIELD_BITS = 16
BASELINE_BITS = 32


def compression_report(spec: ModelSpec, n_terms: int, bits: int) -> dict:
    """Headline storage ratio N*bits/32 plus itemized sign/bias overhead."""
    if n_terms < 1 or not 1 <= bits <= 8:
        raise ConfigurationError(f"invalid report config N={n_terms}, bits={bits}")
    shapes = [weight_shape(layer, in_shape) for layer, in_shape, _ in spec.geometry()]
    shapes = [shape for shape in shapes if shape is not None]
    weight_count = sum(math.prod(shape) + shape[0] for shape in shapes)
    layer_count = len(shapes)
    stored_bits = n_terms * bits
    ratio = stored_bits / BASELINE_BITS
    return {
        "stored_bits_per_weight": stored_bits,
        "baseline_bits": BASELINE_BITS,
        "ratio": ratio,
        "ratio_percent": ratio * 100.0,
        "compression_lost": ratio > 1.0,
        "overhead": {
            "sign_bits_per_weight": SIGN_FIELD_BITS,
            "term_count_bits_per_weight": TERM_COUNT_FIELD_BITS,
            "bias_bits_per_layer": LAYER_BIAS_FIELD_BITS,
            "weight_count": weight_count,
            "layer_count": layer_count,
        },
    }
