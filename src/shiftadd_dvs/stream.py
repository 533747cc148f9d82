"""Row-major streaming execution with per-stage line buffers.

Each layer becomes a stage that takes its whole (C, H, W) input map and
returns its output map; stages run in layer order, as the engine's layers do.
Every report counts one stage's own elements, so none depends on how stages
would interleave in hardware. Three stage classes cover every layer kind:

- ``_WindowStage`` (conv, pool) models a ring ``LineBuffer`` of the window
  height's rows over its zero-padded input. The ring's schedule is fixed by
  the geometry, as a hardware line buffer's wiring is, so the stage derives it
  once when built: output row i reads padded rows i*S .. i*S+P-1, the slab the
  ring hands out when row P-1+i*S completes, cut to the columns that row's
  windows read. Zero padding enters as virtual elements, which do not count
  toward occupancy since hardware would not store constant zeros; the ring
  holds the last P*Wp elements fed, so the occupancy peak is the largest real
  count over P*Wp consecutive elements, and the capacity check runs once, at
  build. Per frame the stage pads its map and gathers every slab into one
  (C, OH*P, Q + (OW-1)*S) stack in a single read. The tests step
  ``LineBuffer.step`` element by element over each stage's padded input and
  check that every window and the occupancy peak match this schedule.
- ``_FlattenStage`` passes its map on unchanged.
- ``_DenseStage`` reads the map whole and emits the layer's output.

One builder, ``_build_stages``, makes the stages of both paths; only their
arithmetic differs, a module-level function bound to each stage with
``functools.partial``. A window stage computes its whole output map from the
stack in one call. ``_slab_layer`` restates its layer, for both paths, to read
windows at row stride P and column stride S and at padding 0, since the slabs
already hold the virtual zeros.
Float stages run ``model.layer_forward``, the dense one on the whole map, so
every output element sees the batch operation order and the float logits
equal ``model_forward``'s bit for bit. The integer path builds a
``ShiftAddEngine`` and its stages once per model, as the hardware loads its
weights once: a model is immutable, so it keeps them from its first frame on.
A frame's saturation counts travel with the call, so stages keep no per-frame
state. Each integer stage is the engine's own with its layer restated by
``_slab_layer``; a conv also gets an ``im2col_index`` gather over the stack,
and a pool reads its strided taps at the restated stride.
The engine's plan, which fits any position count, is used as built, so each
layer's saturation count is the engine's whole-layer count, listed in the
engine's layer order. The simulator thus accepts the models the engine
accepts, with one exception: it refuses a dense layer that does not directly
follow flatten. Its logits are bit-identical. The modeled cycle count
assumes one element per cycle per stage and is the maximum per-stage
element-event count; it is an estimate, distinct from measured latencies.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .engine import ShiftAddEngine, _StageConfig, im2col_index, quantize_frame
from .model import (ConvSpec, DenseSpec, FlattenSpec, ModelSpec, ModelParams, PoolLayerSpec,
                    layer_forward)
from .quantize import QuantizedModel

# Every function here that touches integer data; audited for absence of
# multiplication (see tests/test_engine.py).
DATA_PATH_FUNCTIONS = (
    "_int_layer",
)


class LineBuffer:
    """Ring of the last P rows (width W) of a row-major element stream.

    ``step`` consumes one channel vector and returns the completed (C, P, Q)
    window when the element finishes one at the configured stride phase.
    No streamed frame steps it: it is the element-level model that the window
    stages' precomputed schedules are tested against.
    """

    def __init__(self, channels: int, width: int, window: tuple[int, int],
                 stride: int = 1, dtype=np.float64):
        p, q = window
        if min(channels, width, p, q, stride) < 1:
            raise ConfigurationError("line buffer dimensions must be >= 1")
        if q > width:
            raise ConfigurationError(f"window width {q} exceeds row width {width}")
        self.channels = channels
        self.width = width
        self.window = (p, q)
        self.stride = stride
        self.rows = np.zeros((p, width, channels), dtype=dtype)
        self.real = np.zeros((p, width), dtype=bool)
        self.row = 0
        self.col = 0
        self.occupancy = 0  # real (non-virtual) elements stored, per channel
        self.peak_real = 0

    def step(self, element, virtual: bool = False, pos: tuple[int, int] | None = None):
        if pos is not None and pos != (self.row, self.col):
            raise ProtocolError(
                f"element for position {pos} arrived at cursor {(self.row, self.col)}")
        vec = np.asarray(element, dtype=self.rows.dtype)
        if vec.shape != (self.channels,):
            raise ProtocolError(f"element shape {vec.shape} != ({self.channels},)")
        (p, q), s = self.window, self.stride
        r, c = self.row, self.col
        slot = r % p
        self.occupancy += int(not virtual) - int(self.real[slot, c])
        self.peak_real = max(self.peak_real, self.occupancy)
        self.rows[slot, c] = vec
        self.real[slot, c] = not virtual
        self.col = (c + 1) % self.width
        if self.col == 0:
            self.row += 1
        if (r >= p - 1 and c >= q - 1
                and (r - (p - 1)) % s == 0 and (c - (q - 1)) % s == 0):
            ring_rows = np.arange(r - (p - 1), r + 1) % p  # oldest first
            return self.rows[ring_rows, c - (q - 1):c + 1].transpose(2, 0, 1)
        return None


@dataclass
class StageReport:
    name: str
    peak_occupancy: int
    elements_in: int
    elements_out: int
    first_output_at: int | None
    padded_elements_in: int


class _Stage:
    """One layer over its whole (C, H, W) input map; ``run`` checks the map, subclasses ``_forward``.

    The element counts follow from the geometry: every stage reads the map's
    H*W channel vectors in row-major order.
    """

    def __init__(self, name: str, in_shape: tuple[int, int, int], elements_out: int,
                 first_output_at: int):
        self.name = name
        self.in_shape = in_shape
        self.elements_in = self.padded_in = in_shape[1] * in_shape[2]
        self.elements_out = elements_out
        self.first_output_at = first_output_at

    def run(self, x: np.ndarray, stats: dict) -> np.ndarray:
        """The stage's output map; integer stages add their saturations to ``stats``."""
        if x.shape != self.in_shape:
            raise ProtocolError(f"stage {self.name}: input map {x.shape} != {self.in_shape}")
        return self._forward(x, stats)

    def report(self) -> StageReport:
        return StageReport(name=self.name, peak_occupancy=self._peak(),
                           elements_in=self.elements_in, elements_out=self.elements_out,
                           first_output_at=self.first_output_at,
                           padded_elements_in=self.padded_in)

    def _peak(self) -> int:
        return 0


class _WindowStage(_Stage):
    """Conv or pool; ``compute`` maps the (C, OH*P, width) stack of slabs to (C', OH, OW).

    Rows [i*P, (i+1)*P) of the stack are the slab a line buffer hands out for
    output row i: padded rows i*S .. i*S+P-1, cut to the columns that row's
    windows read. The schedule and the occupancy peak follow from the
    geometry, so both are derived here, once.
    """

    def __init__(self, layer: ConvSpec | PoolLayerSpec, in_shape, out_shape, dtype, compute):
        conv = isinstance(layer, ConvSpec)
        (p, q), s = layer.kernel if conv else layer.window, layer.stride
        c, h, w = in_shape
        pad = layer.padding if conv else 0
        self.padding = pad
        self._dtype = dtype
        self._real = np.zeros((h + 2 * pad, w + 2 * pad), dtype=bool)
        self._real[pad:pad + h, pad:pad + w] = True
        self._rows = (np.arange(out_shape[1])[:, None] * s + np.arange(p)).ravel()
        self._cols = slice(q + (out_shape[2] - 1) * s)  # the slab columns one output row reads
        self._compute = compute
        # The ring holds the last P*Wp elements fed, of which only the real ones
        # are stored, so the occupancy peak is the largest real count over any
        # P*Wp consecutive elements; the grid has at least P rows.
        fed = np.concatenate(([0], np.cumsum(self._real.ravel())))
        span = p * self._real.shape[1]
        self._peak_real = int((fed[span:] - fed[:len(fed) - span]).max())
        capacity = p * w  # P rows of real elements per channel
        if self._peak_real > capacity:
            raise ProtocolError(
                f"stage {layer.name}: occupancy {self._peak_real} exceeds the "
                f"{capacity}-element line-buffer capacity")
        # The first window completes at padded (P-1, Q-1); a leading virtual
        # element (top padding, or a real row's left padding) is credited to
        # the real element after it.
        leading = p - 1 < pad or (p - 1 < pad + h and q - 1 < pad)
        first = int(self._real[:p - 1].sum() + self._real[p - 1, :q].sum()) + leading
        super().__init__(layer.name, in_shape, out_shape[1] * out_shape[2], first)
        self.padded_in = self._real.size

    def _forward(self, x: np.ndarray, stats: dict) -> np.ndarray:
        c, h, w = self.in_shape
        pad = self.padding
        padded = np.zeros((c,) + self._real.shape, dtype=self._dtype)
        padded[:, pad:pad + h, pad:pad + w] = x
        return self._compute(padded[:, self._rows, self._cols], stats)

    def _peak(self) -> int:
        return self._peak_real


class _FlattenStage(_Stage):
    """Passes the map on; the dense stage reads it in the batch flatten order."""

    def __init__(self, name: str, in_shape):
        super().__init__(name, in_shape, in_shape[1] * in_shape[2], 1)

    def _forward(self, x: np.ndarray, stats: dict) -> np.ndarray:
        return x


class _DenseStage(_Stage):
    """``compute`` maps the whole input map to the layer's output, at the grid's last position."""

    def __init__(self, layer: DenseSpec, in_shape, compute):
        super().__init__(layer.name, in_shape, 1, in_shape[1] * in_shape[2])
        self.out_features = layer.out_features
        self._compute = compute

    def _forward(self, x: np.ndarray, stats: dict) -> np.ndarray:
        return self._compute(x, stats)

    def _peak(self) -> int:
        return self.out_features


# -- arithmetic, bound to each stage with functools.partial --------------------
# Each takes the stage's input and the frame's saturation counts (float layers
# count none).

def _float_layer(x, stats, layer, entry):
    """``model.layer_forward``: a window stage's slab stack, or the dense map."""
    return layer_forward(layer, entry, x)


def _int_layer(x, stats, engine: ShiftAddEngine, stage: _StageConfig):
    """The engine's own layer ``stage`` on x: a window stage's slab stack, or the dense map."""
    return engine._forward_arrays(x, stats, [stage])


@dataclass
class StreamResult:
    logits: np.ndarray
    argmax: int
    stages: list[StageReport]
    modeled_cycles: int
    saturations: dict[str, int] = field(default_factory=dict)


def _stage_geometry(spec: ModelSpec) -> list[tuple]:
    """``spec.geometry()`` with the trailing dense reading the flatten's input map."""
    geometry = list(spec.geometry())
    for i, (layer, _, out_shape) in enumerate(geometry):
        if isinstance(layer, DenseSpec):
            if i == 0 or not isinstance(spec.layers[i - 1], FlattenSpec):
                raise ConfigurationError(
                    f"layer {layer.name}: streaming needs the dense layer right after flatten")
            geometry[i] = (layer, geometry[i - 1][1], out_shape)
    return geometry


def _build_stages(spec: ModelSpec, computes: list, dtype) -> list[_Stage]:
    """Line-buffer stages over the spec's layers; ``computes[i]`` is layer i's arithmetic."""
    stages: list[_Stage] = []
    for (layer, in_shape, out_shape), compute in zip(_stage_geometry(spec), computes):
        if isinstance(layer, (ConvSpec, PoolLayerSpec)):
            stages.append(_WindowStage(layer, in_shape, out_shape, dtype, compute))
        elif isinstance(layer, FlattenSpec):
            stages.append(_FlattenStage(layer.name, in_shape))
        else:
            stages.append(_DenseStage(layer, in_shape, compute))
    return stages


def _slab_layer(layer: ConvSpec | PoolLayerSpec) -> ConvSpec | PoolLayerSpec:
    """``layer`` restated to read the stack of slabs ``_WindowStage`` hands it.

    The stack holds one P-row slab per output row, zero padding included, so
    the layer reads it at padding 0 and (row, column) stride (P, S).
    """
    if isinstance(layer, ConvSpec):
        return replace(layer, padding=0, stride=(layer.kernel[0], layer.stride))
    return replace(layer, stride=(layer.window[0], layer.stride))


def _float_computes(spec: ModelSpec, params: ModelParams) -> list:
    """``layer_forward`` per layer, each window layer restated to read the stack of slabs."""
    computes = []
    for layer, entry in zip(spec.layers, params.entries_for(spec)):
        if isinstance(layer, (ConvSpec, PoolLayerSpec)):
            layer = _slab_layer(layer)
        computes.append(partial(_float_layer, layer=layer, entry=entry))
    return computes


def _int_computes(engine: ShiftAddEngine) -> list:
    """The engine's stages and plans, each window stage restated to read the stack of slabs."""
    computes = []
    for stage, (layer, in_shape, _) in zip(engine.stages, engine.spec.geometry()):
        if isinstance(layer, ConvSpec):
            (p, q), s, (oh, ow) = layer.kernel, layer.stride, stage.out_hw
            stage = replace(stage, layer=_slab_layer(layer), gather=im2col_index(
                in_shape[0], (p, q), (p, s), (oh, ow), (oh * p, q + (ow - 1) * s)))
        elif isinstance(layer, PoolLayerSpec):
            stage = replace(stage, layer=_slab_layer(layer))
        computes.append(partial(_int_layer, engine=engine, stage=stage))
    return computes


def _run(stages: list[_Stage], frame: np.ndarray) -> StreamResult:
    """Run the frame's map through each stage in turn, counting its saturations afresh."""
    stats: dict[str, int] = {}
    x = frame
    for stage in stages:
        x = stage.run(x, stats)
    return StreamResult(logits=x, argmax=int(np.argmax(x)),
                        stages=[s.report() for s in stages],
                        modeled_cycles=max(stage.padded_in for stage in stages),
                        saturations=stats)


def stream_float_forward(spec: ModelSpec, params: ModelParams, frame) -> StreamResult:
    """Stream one frame through one ``model.layer_forward`` call per stage, as ``model_forward``."""
    stages = _build_stages(spec, _float_computes(spec, params), np.float64)
    return _run(stages, np.asarray(frame, dtype=np.float64))


class _IntPipeline:
    """A ``ShiftAddEngine`` and the line-buffer stages around it, built once for a model."""

    def __init__(self, qmodel: QuantizedModel):
        # The engine gets a copy of the model, so a model that keeps this
        # pipeline is not referenced back by it and is freed once dropped.
        self.engine = ShiftAddEngine(replace(qmodel))
        self.stages = _build_stages(self.engine.spec, _int_computes(self.engine), np.int64)


def stream_quantized_forward(qmodel: QuantizedModel, frame) -> StreamResult:
    """Stream one frame through the stages of ``ShiftAddEngine(qmodel)``.

    The engine's construction check, the 64-bit overflow bound, applies
    unchanged. The first call builds the engine and stages and keeps them in
    ``qmodel.stream_pipeline``, a cache outside the model's value, which later
    calls reuse; a build that raises is not kept.
    """
    pipeline = qmodel.stream_pipeline
    if pipeline is None:
        pipeline = _IntPipeline(qmodel)
        object.__setattr__(qmodel, "stream_pipeline", pipeline)
    return _run(pipeline.stages,
                quantize_frame(np.asarray(frame, dtype=np.float64), pipeline.engine.f_a))
