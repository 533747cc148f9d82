"""Per-layer offset binary encoding of shift magnitudes.

All magnitudes of one layer share a single bias equal to the smallest
magnitude present; each stored code is ``magnitude - bias`` clamped to the
``bits``-wide range. Clamping only ever shrinks a code, which distorts the
largest magnitudes, i.e. the smallest weight terms; the clamp count is
reported so losslessness is checkable (clamp_count == 0 iff decoding is the
exact inverse).
"""
from __future__ import annotations

import math
from dataclasses import replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .model import ModelSpec, weight_shape
from .quantize import LayerEncoding, QuantizedLayer, QuantizedModel, ShiftQuantParam, ZERO_PARAM


def encode_layer(magnitudes, bits: int) -> tuple[int, list[int], int]:
    """Encode one layer's magnitudes; returns (bias, codes, clamp_count)."""
    if not 1 <= bits <= 8:
        raise ConfigurationError(f"encoding width must be in [1, 8], got {bits}")
    values = [int(m) for m in magnitudes]
    if not values:
        raise ConfigurationError("cannot encode an empty layer")
    if any(m < 0 for m in values):
        raise ConfigurationError("shift magnitudes must be non-negative")
    bias = min(values)
    max_range = (1 << bits) - 1
    codes = []
    clamped = 0
    for m in values:
        code = m - bias
        if code > max_range:
            code = max_range
            clamped += 1
        codes.append(code)
    return bias, codes, clamped


def decode_layer(bias: int, codes) -> list[int]:
    """Inverse of encode_layer whenever nothing was clamped."""
    return [int(c) + int(bias) for c in codes]


def encode_model(q: QuantizedModel, bits: int) -> QuantizedModel:
    """Attach a per-layer encoding to every parameterized layer.

    Layers with no nonzero weight store bias 0 and no codes.
    """
    if not 1 <= bits <= 8:
        raise ConfigurationError(f"encoding width must be in [1, 8], got {bits}")
    entries = []
    for entry in q.entries:
        if entry is None:
            entries.append(None)
            continue
        magnitudes = [s for p in entry.all_params() for s in p.shifts]
        if magnitudes:
            bias, flat_codes, clamped = encode_layer(magnitudes, bits)
        else:
            bias, flat_codes, clamped = 0, [], 0
        flat = iter(flat_codes)
        codes = tuple(tuple(next(flat) for _ in p.shifts) for p in entry.all_params())
        encoding = LayerEncoding(bias=bias, bits=bits, codes=codes, clamp_count=clamped)
        entries.append(replace(entry, weights=list(entry.weights), biases=list(entry.biases),
                               encoding=encoding))
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
    params = entry.all_params()
    enc = entry.encoding
    rows = [p.shifts for p in params] if enc is None else enc.codes
    sign = np.fromiter((p.sign for p in params), dtype=np.int64, count=len(params))
    count = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    shift = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(count.sum()))
    if enc is not None:
        shift += enc.bias
    if np.any((sign == 0) != (count == 0)):
        raise ConfigurationError(
            f"layer {entry.name}: sign must be 0 exactly when a parameter has no terms")
    if np.any(shift < 0):
        raise ConfigurationError(f"layer {entry.name}: shift magnitudes must be non-negative")
    n = len(entry.weights)
    split = int(count[:n].sum())
    return (Terms(sign[:n], count[:n], shift[:split]),
            Terms(sign[n:], count[n:], shift[split:]))


def decode_entry(entry: QuantizedLayer) -> tuple[list[ShiftQuantParam], list[ShiftQuantParam]]:
    """Effective (possibly clamp-distorted) parameters of an encoded layer (see layer_terms)."""
    if entry.encoding is None:
        raise ConfigurationError(f"layer {entry.name} has no encoding")
    decoded = []
    for terms in layer_terms(entry):
        shifts, ends = terms.shift.tolist(), np.cumsum(terms.count).tolist()
        decoded.append([ShiftQuantParam(sign, tuple(shifts[end - count:end])) if count
                        else ZERO_PARAM
                        for sign, count, end in zip(terms.sign.tolist(), terms.count.tolist(),
                                                    ends)])
    return decoded[0], decoded[1]


def decoded_model(q: QuantizedModel) -> QuantizedModel:
    """Model whose parameters are the decode of their encoding (deployable view)."""
    entries = []
    for entry in q.entries:
        if entry is not None:
            weights, biases = decode_entry(entry)
            entry = replace(entry, weights=weights, biases=biases)
        entries.append(entry)
    return replace(q, entries=entries)


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
