"""Model description and the reference forward pass.

A ``ModelSpec`` is an ordered list of layer descriptions; ``ModelParams`` holds
the matching parameter arrays and its spec, and is checked once, when made, by
``check_entries``, the walk that checks a ``QuantizedModel`` too; each conv or
dense layer's entry is one ``layers.LayerParams``. The default
spec is the fixed 4-layer student (conv 8/16/32/64 with 3x3 kernels,
alternating 2x2 pools, a 2048-wide flatten and a 3-class head);
``wide_student_spec`` doubles every channel count to act as a desk-scale teacher.

``ModelSpec.geometry()`` is the one walk over the layer chain: every
consumer that needs a layer's input or output shape (initialization, counts,
both weight files, the integer engine and the streaming simulator) reads it
from there instead of redoing the output-size arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._ioutil import json_typed
from .errors import ConfigurationError
from .layers import (
    BatchNormParams,
    LayerParams,
    as_feature_map,
    batchnorm_apply,
    conv2d_forward,
    conv_output_shape,
    dense_forward,
    fold_batchnorm,
    pool2d_forward,
    relu,
)

CLASS_NAMES = ("Hammer", "Air Pick", "Excavator")
INPUT_SHAPE = (1, 256, 11)


@dataclass(frozen=True)
class ConvSpec:
    name: str
    out_channels: int
    kernel: tuple[int, int] = (3, 3)
    stride: int = 1
    padding: int = 1
    relu: bool = True
    batchnorm: bool = True


@dataclass(frozen=True)
class PoolLayerSpec:
    name: str
    mode: str
    window: tuple[int, int] = (2, 2)
    stride: int = 2


@dataclass(frozen=True)
class FlattenSpec:
    name: str = "flatten"


@dataclass(frozen=True)
class DenseSpec:
    name: str
    out_features: int


LayerSpec = ConvSpec | PoolLayerSpec | FlattenSpec | DenseSpec


def _layer_output(layer: LayerSpec, shape: tuple, flat: bool) -> tuple:
    """Output shape of ``layer`` on an input of ``shape``, flat once a flatten has run.

    The spec's one check of each layer: ``conv_output_shape`` checks the
    window geometry, and this function the rest.
    """
    if isinstance(layer, DenseSpec):
        if not flat:
            raise ConfigurationError("dense before flatten")
        if layer.out_features < 1:
            raise ConfigurationError("out_features must be >= 1")
        return (layer.out_features,)
    if flat:
        raise ConfigurationError({ConvSpec: "conv after flatten", PoolLayerSpec: "pool after flatten",
                                  FlattenSpec: "repeated flatten"}[type(layer)])
    c, h, w = shape
    if isinstance(layer, FlattenSpec):
        return (c * h * w,)
    if isinstance(layer, ConvSpec):
        if layer.out_channels < 1:
            raise ConfigurationError("out_channels must be >= 1")
        c, window, padding = layer.out_channels, layer.kernel, layer.padding
    elif isinstance(layer, PoolLayerSpec):
        if layer.mode not in ("max", "avg"):
            raise ConfigurationError(f"pool mode must be 'max' or 'avg', got {layer.mode!r}")
        window, padding = layer.window, 0
    else:  # pragma: no cover - union is closed
        raise ConfigurationError(f"unknown layer kind {type(layer).__name__}")
    return (c, *conv_output_shape(h, w, window, layer.stride, padding))


@dataclass(frozen=True)
class ModelSpec:
    """Layer chain plus the input geometry it expects."""

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int] = INPUT_SHAPE
    class_count: int = 3

    _geometry: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ConfigurationError("layer names must be unique")
        object.__setattr__(self, "_geometry", self._walk())

    def _walk(self) -> tuple:
        if len(self.input_shape) != 3:
            raise ConfigurationError(
                f"input_shape must be (channels, rows, columns), got {self.input_shape}")
        shape, flat, walk = self.input_shape, False, []
        for layer in self.layers:
            try:
                out = _layer_output(layer, shape, flat)
            except ConfigurationError as exc:
                raise ConfigurationError(f"layer {layer.name}: {exc}") from exc
            walk.append((layer, shape, out))
            shape, flat = out, flat or isinstance(layer, FlattenSpec)
        if not walk or shape != (self.class_count,):
            raise ConfigurationError(
                f"final layer must produce {self.class_count} logits, got {shape if walk else None}")
        return tuple(walk)

    def geometry(self) -> tuple[tuple[LayerSpec, tuple, tuple], ...]:
        """(layer, in_shape, out_shape) of every layer: the one shape walk of the chain."""
        return self._geometry

    def layer_shapes(self) -> list[tuple]:
        """Output shape after each layer, starting from ``input_shape``."""
        return [out for _, _, out in self._geometry]

    def layer(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise ConfigurationError(f"no layer named {name!r}")

    def to_json(self) -> dict:
        layers = []
        for layer in self.layers:
            if isinstance(layer, ConvSpec):
                layers.append({"kind": "conv", "name": layer.name, "out_channels": layer.out_channels,
                               "kernel": list(layer.kernel), "stride": layer.stride,
                               "padding": layer.padding, "relu": layer.relu, "batchnorm": layer.batchnorm})
            elif isinstance(layer, PoolLayerSpec):
                layers.append({"kind": "pool", "name": layer.name, "mode": layer.mode,
                               "window": list(layer.window), "stride": layer.stride})
            elif isinstance(layer, FlattenSpec):
                layers.append({"kind": "flatten", "name": layer.name})
            else:
                layers.append({"kind": "dense", "name": layer.name, "out_features": layer.out_features})
        return {"input_shape": list(self.input_shape), "class_count": self.class_count, "layers": layers}

    @staticmethod
    def from_json(doc: dict) -> "ModelSpec":
        """The spec ``to_json`` wrote; each size and count must be a JSON integer and each
        flag a JSON boolean, so no other value is read as one."""
        def get(entry, key, kind=int):
            value, where = entry[key], f"layer {entry['name']}" if "name" in entry else "spec"
            if isinstance(value, list):  # kernel, window, input_shape
                return tuple(json_typed(v, kind, f"{where}: {key}") for v in value)
            return json_typed(value, kind, f"{where}: {key}")

        layers: list[LayerSpec] = []
        for entry in doc["layers"]:
            kind = entry["kind"]
            if kind == "conv":
                layers.append(ConvSpec(name=entry["name"], out_channels=get(entry, "out_channels"),
                                       kernel=get(entry, "kernel"), stride=get(entry, "stride"),
                                       padding=get(entry, "padding"), relu=get(entry, "relu", bool),
                                       batchnorm=get(entry, "batchnorm", bool)))
            elif kind == "pool":
                layers.append(PoolLayerSpec(name=entry["name"], mode=entry["mode"],
                                            window=get(entry, "window"),
                                            stride=get(entry, "stride")))
            elif kind == "flatten":
                layers.append(FlattenSpec(name=entry["name"]))
            elif kind == "dense":
                layers.append(DenseSpec(name=entry["name"],
                                        out_features=get(entry, "out_features")))
            else:
                raise ConfigurationError(f"unknown layer kind {kind!r}")
        return ModelSpec(layers=tuple(layers), input_shape=get(doc, "input_shape"),
                         class_count=get(doc, "class_count"))


def default_student_spec(batchnorm: bool = True, use_relu: bool = True) -> ModelSpec:
    """The fixed 4-layer student architecture."""
    return _student_spec(width=1, batchnorm=batchnorm, use_relu=use_relu)


def wide_student_spec(batchnorm: bool = True, use_relu: bool = True) -> ModelSpec:
    """The student with every channel count doubled, used as an in-repo teacher."""
    return _student_spec(width=2, batchnorm=batchnorm, use_relu=use_relu)


def _student_spec(width: int, batchnorm: bool, use_relu: bool) -> ModelSpec:
    conv = lambda name, ch: ConvSpec(name=name, out_channels=ch * width, relu=use_relu, batchnorm=batchnorm)
    return ModelSpec(layers=(
        conv("conv1", 8),
        PoolLayerSpec(name="maxpool1", mode="max"),
        conv("conv2", 16),
        PoolLayerSpec(name="maxpool2", mode="max"),
        conv("conv3", 32),
        PoolLayerSpec(name="avgpool1", mode="avg"),
        conv("conv4", 64),
        FlattenSpec(),
        DenseSpec(name="fc1", out_features=3),
    ))


@dataclass(frozen=True)
class ModelParams:
    """Float parameters of ``spec``'s layers, checked once, when made.

    ``entries``, a tuple, passes ``check_entries`` with a ``LayerParams`` in each
    conv and dense slot, whose ``bn`` has the conv's width exactly where the spec
    flags batchnorm and is None elsewhere. Training edits the arrays in place.
    """

    spec: ModelSpec
    entries: tuple
    # The arrays ``grads.batch_loss`` keeps from one step on these parameters to the
    # next; they live and die with them. Not part of their value, and a copy made
    # with ``dataclasses.replace`` starts without.
    step_workspace: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        check_entries(self.spec, self.entries, LayerParams, lambda entry: entry.weights.shape)
        for layer, entry in zip(self.spec.layers, self.entries):
            if entry is not None:
                width = None if entry.bn is None else entry.bn.channels
                expected = layer.out_channels if isinstance(layer, ConvSpec) and layer.batchnorm else None
                if width != expected:
                    raise ConfigurationError(
                        f"layer {layer.name}: batchnorm width {width} does not match the spec's {expected}")

    def entries_for(self, spec: ModelSpec) -> tuple:
        """``entries``, once ``spec`` is the spec they were checked against."""
        if spec != self.spec:
            where = next((f"layer {a.name}" for a, b in zip(spec.layers, self.spec.layers) if a != b),
                         "input shape, class count or layer count")
            raise ConfigurationError(f"{where}: parameters were made for a different spec")
        return self.entries


def weight_shape(layer: LayerSpec, in_shape: tuple) -> tuple[int, ...] | None:
    """Weight array shape of a conv (M, N, P, Q) or dense (out, in) layer; None for the rest."""
    if isinstance(layer, ConvSpec):
        return (layer.out_channels, in_shape[0], *layer.kernel)
    if isinstance(layer, DenseSpec):
        return (layer.out_features, in_shape[0])
    return None


def check_entries(spec: ModelSpec, entries: tuple, entry_type: type, shape_of) -> None:
    """The one alignment walk of both model forms, float and quantized.

    Per spec layer, None in a pool or flatten slot, or in a conv or dense slot an
    ``entry_type`` whose ``shape_of(entry)`` is the spec's weight shape.
    """
    layers = spec.layers
    if len(entries) != len(layers):
        layer = layers[min(len(entries), len(layers) - 1)]
        raise ConfigurationError(f"layer {layer.name}: the model has {len(entries)} "
                                 f"entries for {len(layers)} spec layers")
    for (layer, in_shape, _), entry in zip(spec.geometry(), entries):
        shape = weight_shape(layer, in_shape)
        if shape is None:
            if entry is not None:
                raise ConfigurationError(f"layer {layer.name}: holds no parameters, got an entry")
            continue
        if isinstance(entry, entry_type):
            got = tuple(shape_of(entry))
        else:
            got = None if entry is None else type(entry).__name__
        if got != shape:
            raise ConfigurationError(
                f"layer {layer.name}: parameters {got} do not match the spec's {shape}")


def init_params(spec: ModelSpec, rng: np.random.Generator, weight_scale: float = 1.0,
                dtype=np.float64) -> ModelParams:
    """He-style initialization; biases start at zero, batchnorm at identity."""
    entries = []
    for layer, in_shape, _ in spec.geometry():
        shape = weight_shape(layer, in_shape)
        if shape is None:
            entries.append(None)
            continue
        m = shape[0]
        std = weight_scale * np.sqrt(2.0 / (math.prod(shape) // m))
        weights = rng.normal(0.0, std, size=shape).astype(dtype)
        bn = None
        if isinstance(layer, ConvSpec) and layer.batchnorm:
            bn = BatchNormParams(gamma=np.ones(m, dtype=dtype), beta=np.zeros(m, dtype=dtype),
                                 mean=np.zeros(m, dtype=dtype), var=np.ones(m, dtype=dtype))
        entries.append(LayerParams(weights=weights, bias=np.zeros(m, dtype=dtype), bn=bn))
    return ModelParams(spec, entries)


def layer_forward(layer: LayerSpec, entry, x) -> np.ndarray:
    """One layer of the reference forward: conv (then batchnorm, relu), pool, flatten or dense."""
    if isinstance(layer, ConvSpec):
        out = conv2d_forward(x, entry, layer.stride, layer.padding)
        if layer.batchnorm:
            out = batchnorm_apply(out, entry.bn)
        return relu(out) if layer.relu else out
    if isinstance(layer, PoolLayerSpec):
        return pool2d_forward(x, layer.mode, layer.window, layer.stride)
    if isinstance(layer, FlattenSpec):
        return x.reshape(-1)
    return dense_forward(x, entry)


def model_forward(spec: ModelSpec, params: ModelParams, x, capture: str | None = None):
    """Run the layer chain on one sample and return the raw logits.

    With ``capture`` set to a layer name, returns (logits, captured_output)
    where the captured value is that layer's post-activation output.
    """
    entries = params.entries_for(spec)
    x = as_feature_map(x)
    if x.shape != spec.input_shape:
        raise ConfigurationError(f"input shape {x.shape} does not match spec {spec.input_shape}")
    captured = None
    out = x
    for layer, entry in zip(spec.layers, entries):
        out = layer_forward(layer, entry, out)
        if capture is not None and layer.name == capture:
            captured = np.array(out, copy=True)
    if capture is not None:
        if captured is None:
            raise ConfigurationError(f"no layer named {capture!r}")
        return out, captured
    return out


def fold_model_batchnorm(spec: ModelSpec, params: ModelParams) -> tuple[ModelSpec, ModelParams]:
    """Fold every batchnorm into its convolution; flags are cleared in the returned spec."""
    layers = []
    entries = []
    for layer, entry in zip(spec.layers, params.entries_for(spec)):
        if isinstance(layer, ConvSpec) and layer.batchnorm:
            layer = replace(layer, batchnorm=False)
            entry = fold_batchnorm(entry, entry.bn)
        layers.append(layer)
        entries.append(entry)
    folded = replace(spec, layers=tuple(layers))
    return folded, ModelParams(folded, entries)


FLOP_CONVENTION = "mac=1flop; conv/dense bias add counted; pooling, activation and batchnorm not counted"


def count_report(spec: ModelSpec) -> dict:
    """Parameter and FLOP totals under the documented counting convention."""
    params = 0
    flops = 0
    for layer, in_shape, out_shape in spec.geometry():
        shape = weight_shape(layer, in_shape)
        if shape is None:
            continue
        m, fan_in = shape[0], math.prod(shape[1:])
        params += m * fan_in + m
        if isinstance(layer, ConvSpec) and layer.batchnorm:
            params += 2 * m
        flops += math.prod(out_shape) * (fan_in + 1)
    return {"param_count": params, "flop_count": flops, "convention": FLOP_CONVENTION}


def param_arrays(spec: ModelSpec, params: ModelParams) -> dict[str, np.ndarray]:
    """Trainable arrays keyed "layer.field", in layer order."""
    arrays: dict[str, np.ndarray] = {}
    for layer, entry in zip(spec.layers, params.entries_for(spec)):
        if entry is None:
            continue
        weights = "kernel" if isinstance(layer, ConvSpec) else "weights"  # the names the step pins hash
        arrays[f"{layer.name}.{weights}"] = entry.weights
        arrays[f"{layer.name}.bias"] = entry.bias
        if entry.bn is not None:
            arrays[f"{layer.name}.gamma"] = entry.bn.gamma
            arrays[f"{layer.name}.beta"] = entry.bn.beta
    return arrays


def set_param_arrays(spec: ModelSpec, params: ModelParams, arrays: dict[str, np.ndarray]) -> None:
    """Write updated arrays back into ``params`` in place."""
    current = param_arrays(spec, params)
    for name, value in arrays.items():
        if name not in current:
            raise ConfigurationError(f"unknown parameter array {name!r}")
        current[name][...] = value
