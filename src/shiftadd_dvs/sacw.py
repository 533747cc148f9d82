"""Float weight file format "SACW".

Layout (all little-endian):
  magic "SACW", u16 version=1, u16 layer count; then per layer a u8 kind tag
  (1 conv, 2 maxpool, 3 avgpool, 4 flatten, 5 dense), a shape header of six
  u16 fields (M, N, P, Q, S, pad), then a conv or dense layer's
  ``layers.LayerParams`` as float32: its weights ([m][n][p][q] or [out][in]
  order), its bias and, when the model spec flags batchnorm on a conv, the
  gamma, beta, mean, var arrays (length M each) and a single epsilon.
The file carries parameters only; loading requires the ModelSpec that
describes the layer chain (the CLI stores it as a JSON sidecar).

``layer_header`` derives each 13-byte record from the layer and its input
shape in ``ModelSpec.geometry()``; SACW and SAQM writers both pack it, and
both loaders reject any record that differs from it in any field.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from ._ioutil import atomic_write_bytes
from .errors import ConfigurationError, NumericError
from .layers import BatchNormParams, LayerParams
from .model import (
    ConvSpec,
    FlattenSpec,
    LayerSpec,
    ModelParams,
    ModelSpec,
    PoolLayerSpec,
    weight_shape,
)

MAGIC = b"SACW"
VERSION = 1

KIND_CONV = 1
KIND_MAXPOOL = 2
KIND_AVGPOOL = 3
KIND_FLATTEN = 4
KIND_DENSE = 5
HEADER = struct.Struct("<B6H")


def _f32(arr) -> bytes:
    return np.asarray(arr, dtype="<f4").tobytes()


def layer_header(layer: LayerSpec, in_shape: tuple) -> tuple[int, ...]:
    """The layer record (kind, M, N, P, Q, S, pad) both weight files store for ``layer``."""
    if isinstance(layer, ConvSpec):
        return (KIND_CONV, *weight_shape(layer, in_shape), layer.stride, layer.padding)
    if isinstance(layer, PoolLayerSpec):
        kind = KIND_MAXPOOL if layer.mode == "max" else KIND_AVGPOOL
        return (kind, in_shape[0], in_shape[0], *layer.window, layer.stride, 0)
    if isinstance(layer, FlattenSpec):
        return (KIND_FLATTEN, 0, 0, 0, 0, 0, 0)
    return (KIND_DENSE, *weight_shape(layer, in_shape), 1, 1, 1, 0)


def save_weights(path, spec: ModelSpec, params: ModelParams) -> None:
    blob = bytearray(MAGIC + struct.pack("<HH", VERSION, len(spec.layers)))
    for (layer, in_shape, _), entry in zip(spec.geometry(), params.entries_for(spec)):
        blob += HEADER.pack(*layer_header(layer, in_shape))
        if entry is None:
            continue
        blob += _f32(entry.weights) + _f32(entry.bias)
        if entry.bn is not None:
            blob += _f32(entry.bn.gamma) + _f32(entry.bn.beta)
            blob += _f32(entry.bn.mean) + _f32(entry.bn.var)
            blob += struct.pack("<f", entry.bn.eps)
    atomic_write_bytes(path, bytes(blob))


class _Reader:
    """Bounds-checked cursor over a weight file; every read past the end is a ConfigurationError."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ConfigurationError(f"file truncated at byte {len(self.data)}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def f32(self, count: int) -> np.ndarray:
        values = np.frombuffer(self.take(4 * count), dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(values)):
            raise NumericError(f"non-finite float32 value in the payload ending at byte {self.pos}")
        return values

    def header(self, layer: LayerSpec, in_shape: tuple) -> None:
        """Read one layer record and require it to equal the spec's."""
        found = HEADER.unpack(self.take(HEADER.size))
        expected = layer_header(layer, in_shape)
        if found != expected:
            raise ConfigurationError(
                f"layer {layer.name}: file record {found} does not match the spec's {expected} "
                f"(kind, M, N, P, Q, S, pad)")

    def finish(self, path) -> None:
        if self.pos != len(self.data):
            raise ConfigurationError(f"{path}: {len(self.data) - self.pos} trailing bytes")


def load_weights(path, spec: ModelSpec) -> ModelParams:
    """Read a SACW file and return parameters matching ``spec``."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != MAGIC:
        raise ConfigurationError(f"{path}: not a SACW file")
    version, count = reader.unpack("<HH")
    if version != VERSION:
        raise ConfigurationError(f"{path}: unsupported SACW version {version}")
    if count != len(spec.layers):
        raise ConfigurationError(
            f"{path}: file has {count} layers, spec has {len(spec.layers)}")
    entries = []
    for layer, in_shape, _ in spec.geometry():
        reader.header(layer, in_shape)
        shape = weight_shape(layer, in_shape)
        if shape is None:
            entries.append(None)
            continue
        weights = reader.f32(math.prod(shape)).reshape(shape)
        bias = reader.f32(shape[0])
        bn = None
        if isinstance(layer, ConvSpec) and layer.batchnorm:
            gamma, beta, mean, var = (reader.f32(shape[0]) for _ in range(4))
            eps = float(reader.f32(1)[0])
            bn = BatchNormParams(gamma=gamma, beta=beta, mean=mean, var=var, eps=eps)
        entries.append(LayerParams(weights=weights, bias=bias, bn=bn))
    reader.finish(path)
    return ModelParams(spec, entries)
