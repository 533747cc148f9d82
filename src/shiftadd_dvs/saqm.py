"""Quantized model file format "SAQM".

Layout (little-endian):
  magic "SAQM", u16 version=1, u8 N (terms per weight), u8 bits (code width),
  u8 F (fraction bits), u8 I (integer bits), u16 layer count. Every spec layer
  gets a record: u8 kind tag and the six-u16 shape header as in "SACW",
  followed for conv/dense layers by an i16 encoding bias and one packed record
  per parameter (kernel weights in index order, then biases): 2 sign bits
  (0 zero, 1 positive, 2 negative), 4 term-count bits, then that many codes of
  ``bits`` bits each. Bits fill bytes LSB-first; each layer's packed block is
  padded to a byte boundary.

The packed stream holds the encoded (possibly clamped) codes, so the loaded
model is the deployable view; the field widths cap term counts at 15.
Layer records come from ``sacw.layer_header`` over ``ModelSpec.geometry()``;
the loader reads every byte through ``sacw._Reader`` and rejects a record that
differs from the spec's in any field, so a file never loads against a spec
whose shapes it does not carry. The writer rejects N > 255, which the
header's u8 field cannot hold; the loader rejects N < 1, and the
``QuantizedModel`` it builds rejects a weight with more than N terms. Biases
may hold more, up to the field's 15: ``shift_quantize_model`` gives biases N
terms, but a file may keep them at full precision. The writer rejects codes
that do not fit ``bits`` unsigned bits; the loader rejects non-zero padding
bits, so every file that loads saves back to the same bytes.

Each layer's block is packed and unpacked as arrays with
``np.packbits``/``np.unpackbits``. Because a record's length depends on its
term count, the unpacker tabulates the record length at every bit position
and then walks the record starts through that table, one step per parameter.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from ._ioutil import atomic_write_bytes
from .encoding import SIGN_FIELD_BITS, TERM_COUNT_FIELD_BITS
from .errors import ConfigurationError
from .model import ModelSpec, weight_shape
from .quantize import LayerEncoding, QuantizedLayer, QuantizedModel
from . import sacw

MAGIC = b"SAQM"
VERSION = 1
HEADER_BITS = SIGN_FIELD_BITS + TERM_COUNT_FIELD_BITS  # sign field: 0 zero, 1 +, 2 -
MAX_PACKED_TERMS = (1 << TERM_COUNT_FIELD_BITS) - 1
MAX_HEADER_TERMS = 255  # the header's u8 N field


def save_quantized(path, q: QuantizedModel) -> None:
    """Serialize an encoded quantized model."""
    if q.bits is None:
        raise ConfigurationError("encode the model before saving (encode_model)")
    if q.n_terms > MAX_HEADER_TERMS:
        raise ConfigurationError(f"N={q.n_terms} terms per weight exceed the SAQM header's "
                                 f"u8 field limit of {MAX_HEADER_TERMS}")
    blob = bytearray(MAGIC + struct.pack("<HBBBBH", VERSION, q.n_terms, q.bits, q.frac_bits,
                                         q.int_bits, len(q.spec.layers)))
    for (layer, in_shape, _), entry in zip(q.spec.geometry(), q.entries):
        blob += sacw.HEADER.pack(*sacw.layer_header(layer, in_shape))
        if entry is None:
            continue
        blob += _pack_layer(entry, q.bits)
    atomic_write_bytes(path, bytes(blob))


def _pack_layer(entry: QuantizedLayer, bits: int) -> bytes:
    enc = entry.encoding
    if enc is None:
        raise ConfigurationError(f"layer {entry.name} has no encoding")
    if not 0 <= enc.bias < 1 << 15:
        raise ConfigurationError(f"layer {entry.name}: encoding bias {enc.bias} outside [0, 32767]")
    if entry.count.max() > MAX_PACKED_TERMS:
        raise ConfigurationError(
            f"layer {entry.name}: {int(entry.count.max())} terms exceed the packed field "
            f"limit of {MAX_PACKED_TERMS}")
    unfit = enc.code[(enc.code < 0) | (enc.code >= 1 << bits)]
    if unfit.size:
        raise ConfigurationError(
            f"layer {entry.name}: code {int(unfit[0])} does not fit {bits} unsigned bits")
    start, code_at = _record_layout(entry.count, bits)
    stream = np.zeros(int(start[-1]), dtype=np.uint8)
    sign_field = np.where(entry.sign < 0, 2, entry.sign)
    for at, values, width in ((start[:-1], sign_field, SIGN_FIELD_BITS),
                              (start[:-1] + SIGN_FIELD_BITS, entry.count, TERM_COUNT_FIELD_BITS),
                              (code_at, enc.code, bits)):
        for bit in range(width):
            stream[at + bit] = (values >> bit) & 1
    return struct.pack("<h", enc.bias) + np.packbits(stream, bitorder="little").tobytes()


def _record_layout(count: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit offset of every record plus the end of the last, and of every code."""
    start = np.concatenate(([0], np.cumsum(HEADER_BITS + bits * count)))
    first_term = np.cumsum(count) - count
    code_at = np.repeat(start[:-1] + HEADER_BITS - bits * first_term, count) \
        + bits * np.arange(int(count.sum()))
    return start, code_at


def load_quantized(path, spec: ModelSpec, f_a: int = 8) -> QuantizedModel:
    """Read a SAQM file; parameters come back decoded (deployable view)."""
    with open(path, "rb") as fh:
        reader = sacw._Reader(fh.read())
    if reader.take(4) != MAGIC:
        raise ConfigurationError(f"{path}: not a SAQM file")
    version, n_terms, bits, frac_bits, int_bits, count = reader.unpack("<HBBBBH")
    if version != VERSION:
        raise ConfigurationError(f"{path}: unsupported SAQM version {version}")
    if n_terms < 1 or not 1 <= bits <= 8 or frac_bits + int_bits > 31:
        raise ConfigurationError(f"{path}: header fields N={n_terms}, bits={bits}, "
                                 f"F={frac_bits}, I={int_bits} out of range")
    if count != len(spec.layers):
        raise ConfigurationError(f"{path}: file has {count} layers, spec has {len(spec.layers)}")
    entries: list = []
    for layer, in_shape, _ in spec.geometry():
        reader.header(layer, in_shape)
        shape = weight_shape(layer, in_shape)
        entries.append(None if shape is None
                       else _unpack_layer(reader, layer.name, shape, bits))
    reader.finish(path)
    return QuantizedModel(spec=spec, entries=entries, n_terms=n_terms,
                          frac_bits=frac_bits, int_bits=int_bits, bits=bits, f_a=f_a)


def _unpack_layer(reader, name: str, shape: tuple, bits: int) -> QuantizedLayer:
    (bias,) = reader.unpack("<h")
    if bias < 0:
        raise ConfigurationError(f"layer {name}: negative encoding bias {bias}")
    params = math.prod(shape) + shape[0]
    longest = -(-params * (HEADER_BITS + MAX_PACKED_TERMS * bits) // 8)
    window = np.frombuffer(reader.data[reader.pos:reader.pos + longest], dtype=np.uint8)
    stream = np.unpackbits(window, bitorder="little")
    # count_at[at] and table[at]: the term count and length of a record starting
    # at bit ``at``, for every ``at`` where a whole record header fits
    fits = max(stream.size - HEADER_BITS + 1, 0)
    count_at = np.zeros(fits, dtype=np.uint8)
    for bit in range(TERM_COUNT_FIELD_BITS):
        count_at |= stream[SIGN_FIELD_BITS + bit:SIGN_FIELD_BITS + bit + fits] << bit
    table = (HEADER_BITS + bits * count_at).tobytes()
    starts = []
    at = 0
    try:
        for _ in range(params):
            starts.append(at)
            at += table[at]
    except IndexError:
        raise ConfigurationError(f"layer {name}: quantized model file truncated") from None
    if at > stream.size:
        raise ConfigurationError(f"layer {name}: quantized model file truncated")
    block = -(-at // 8)
    if stream[at:8 * block].any():
        raise ConfigurationError(f"layer {name}: non-zero padding bits after the last record")
    reader.pos += block
    start = np.array(starts, dtype=np.int64)
    sign_field = _field(stream, start, SIGN_FIELD_BITS)
    count = count_at[start].astype(np.int64)
    if np.any(sign_field == 3):
        raise ConfigurationError(f"layer {name}: invalid sign field")
    zero_with_terms = count[(sign_field == 0) & (count > 0)]
    if zero_with_terms.size:
        raise ConfigurationError(f"layer {name}: zero weight with {zero_with_terms[0]} terms")
    code = _field(stream, _record_layout(count, bits)[1], bits)
    encoding = LayerEncoding(bias=bias, bits=bits, code=code, count=count, clamp_count=0)
    sign = np.where(sign_field == 2, -1, sign_field.astype(np.int64))
    return QuantizedLayer(name=name, shape=shape, sign=sign, count=count,
                          shift=bias + encoding.code, encoding=encoding)


def _field(stream: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width``-bit LSB-first fields starting at bit offsets ``at`` (width <= 8)."""
    value = np.zeros(at.size, dtype=np.uint8)
    for bit in range(width):
        value |= stream[at + bit] << bit
    return value
