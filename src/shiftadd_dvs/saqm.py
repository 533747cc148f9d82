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
whose shapes it does not carry.
"""
from __future__ import annotations

import math
import struct

from ._ioutil import atomic_write_bytes
from .errors import ConfigurationError
from .model import ModelSpec, weight_shape
from .quantize import LayerEncoding, QuantizedLayer, QuantizedModel, ShiftQuantParam, ZERO_PARAM
from .encoding import decode_layer
from . import sacw

MAGIC = b"SAQM"
VERSION = 1
MAX_PACKED_TERMS = 15  # 4-bit term-count field


class _BitWriter:
    def __init__(self):
        self.data = bytearray()
        self.bit = 0

    def write(self, value: int, nbits: int) -> None:
        for i in range(nbits):
            if self.bit == 0:
                self.data.append(0)
            if (value >> i) & 1:
                self.data[-1] |= 1 << self.bit
            self.bit = (self.bit + 1) % 8

    def align(self) -> None:
        self.bit = 0


class _BitReader:
    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.bit = 0

    def read(self, nbits: int) -> int:
        value = 0
        for i in range(nbits):
            if self.pos >= len(self.data):
                raise ConfigurationError("quantized model file truncated")
            if (self.data[self.pos] >> self.bit) & 1:
                value |= 1 << i
            self.bit += 1
            if self.bit == 8:
                self.bit = 0
                self.pos += 1
        return value

    def align(self) -> None:
        if self.bit:
            self.bit = 0
            self.pos += 1


_SIGN_CODE = {0: 0, 1: 1, -1: 2}
_SIGN_DECODE = {0: 0, 1: 1, 2: -1}


def save_quantized(path, q: QuantizedModel) -> None:
    """Serialize an encoded quantized model."""
    if q.bits is None:
        raise ConfigurationError("encode the model before saving (encode_model)")
    blob = bytearray(MAGIC + struct.pack("<HBBBBH", VERSION, q.n_terms, q.bits, q.frac_bits,
                                         q.int_bits, len(q.spec.layers)))
    for (layer, in_shape, _), entry in zip(q.spec.geometry(), q.entries):
        blob += sacw.HEADER.pack(*sacw.layer_header(layer, in_shape))
        shape = weight_shape(layer, in_shape)
        if shape is None:
            continue
        if tuple(entry.shape) != shape:
            raise ConfigurationError(
                f"layer {layer.name}: parameters {tuple(entry.shape)} do not match the spec's {shape}")
        blob += _pack_layer(entry)
    atomic_write_bytes(path, bytes(blob))


def _pack_layer(entry: QuantizedLayer) -> bytes:
    enc = entry.encoding
    if enc is None:
        raise ConfigurationError(f"layer {entry.name} has no encoding")
    out = bytearray(struct.pack("<h", enc.bias))
    writer = _BitWriter()
    for param, codes in zip(entry.all_params(), enc.codes):
        if len(codes) > MAX_PACKED_TERMS:
            raise ConfigurationError(
                f"layer {entry.name}: {len(codes)} terms exceed the packed field "
                f"limit of {MAX_PACKED_TERMS}")
        writer.write(_SIGN_CODE[param.sign], 2)
        writer.write(len(codes), 4)
        for code in codes:
            if code >= (1 << enc.bits):
                raise ConfigurationError(f"layer {entry.name}: code {code} wider than {enc.bits} bits")
            writer.write(code, enc.bits)
    return bytes(out + writer.data)


def load_quantized(path, spec: ModelSpec, f_a: int = 8) -> QuantizedModel:
    """Read a SAQM file; parameters come back decoded (deployable view)."""
    with open(path, "rb") as fh:
        reader = sacw._Reader(fh.read())
    if reader.take(4) != MAGIC:
        raise ConfigurationError(f"{path}: not a SAQM file")
    version, n_terms, bits, frac_bits, int_bits, count = reader.unpack("<HBBBBH")
    if version != VERSION:
        raise ConfigurationError(f"{path}: unsupported SAQM version {version}")
    if not 1 <= bits <= 8 or frac_bits + int_bits > 31:
        raise ConfigurationError(
            f"{path}: header fields bits={bits}, F={frac_bits}, I={int_bits} out of range")
    if count != len(spec.layers):
        raise ConfigurationError(f"{path}: file has {count} layers, spec has {len(spec.layers)}")
    entries: list = []
    for layer, in_shape, _ in spec.geometry():
        reader.header(layer, in_shape)
        shape = weight_shape(layer, in_shape)
        entries.append(None if shape is None else _unpack_layer(reader, layer.name, shape, bits))
    reader.finish(path)
    return QuantizedModel(spec=spec, entries=entries, n_terms=n_terms,
                          frac_bits=frac_bits, int_bits=int_bits, bits=bits, f_a=f_a)


def _unpack_layer(reader, name: str, shape: tuple, bits: int) -> QuantizedLayer:
    (bias,) = reader.unpack("<h")
    if bias < 0:
        raise ConfigurationError(f"layer {name}: negative encoding bias {bias}")
    bit_reader = _BitReader(reader.data, reader.pos)
    weight_count = math.prod(shape)
    params: list[ShiftQuantParam] = []
    codes: list[tuple[int, ...]] = []
    for _ in range(weight_count + shape[0]):
        sign = _SIGN_DECODE.get(bit_reader.read(2))
        if sign is None:
            raise ConfigurationError(f"layer {name}: invalid sign field")
        terms = bit_reader.read(4)
        row = tuple(bit_reader.read(bits) for _ in range(terms))
        codes.append(row)
        if sign == 0:
            if terms:
                raise ConfigurationError(f"layer {name}: zero weight with {terms} terms")
            params.append(ZERO_PARAM)
        else:
            params.append(ShiftQuantParam(sign=sign, shifts=tuple(decode_layer(bias, row))))
    bit_reader.align()
    reader.pos = bit_reader.pos
    encoding = LayerEncoding(bias=bias, bits=bits, codes=tuple(codes), clamp_count=0)
    return QuantizedLayer(name=name, shape=shape, weights=params[:weight_count],
                          biases=params[weight_count:], encoding=encoding)
