"""Row-major streaming execution with per-stage line buffers.

Each layer becomes one ``_Stage`` record, built once from ``spec.geometry()``:
its input shape, its ``StageReport``, its arithmetic ``compute`` and, for conv
and pool, its slab schedule ``slabs``. Stages run in layer order, as the
engine's layers do; each takes its whole input and returns its output, and
reads the elements its predecessor emits (the first stage the frame's H*W
channel vectors), so a report counts its own stage's elements only.

A window stage (conv, pool) models a ring ``LineBuffer`` of the window
height's rows over its zero-padded input. The ring's schedule is fixed by the
geometry, as a hardware line buffer's wiring is, so ``_window_schedule``
derives it once: output row i reads padded rows i*S .. i*S+P-1, the slab the
ring hands out when row P-1+i*S completes, cut to the columns that row's
windows read. Padding enters as virtual elements, which take no storage, so
the occupancy peak is the largest real count over P*Wp consecutive elements,
checked against the ring's capacity at build. Per frame the stage pads its map
and gathers every slab into one (C, OH*P, Q + (OW-1)*S) stack; the tests step
``LineBuffer.step`` element by element to check every window and the peak.
Flatten and dense pass their input to ``compute`` as it is.

``compute`` is the batch path's own layer call: ``model.layer_forward`` on the
float path, so the float logits equal ``model_forward``'s bit for bit, and one
``_forward_arrays`` stage of a ``ShiftAddEngine`` on the integer path, so the
logits and each layer's saturation count are the engine's. ``_slab_layer``
restates a window layer to read the stack at row stride P, column stride S and
padding 0; the stack holds the padding's zeros in the same im2col rows, so the
engine's plans, which skip the rows that read only padding, serve it unchanged.
The engine and its stages are built once per model, as hardware loads its
weights once. The simulator accepts exactly the models the engine accepts.
The modeled cycle count assumes one element per cycle per stage and is the
largest per-stage padded element count; it is an estimate, distinct
from measured latencies.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .engine import ShiftAddEngine, _StageConfig, im2col_index, quantize_frame
from .model import (ConvSpec, FlattenSpec, ModelSpec, ModelParams, PoolLayerSpec,
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


@dataclass(frozen=True)
class StageReport:
    name: str
    peak_occupancy: int
    elements_in: int
    elements_out: int
    first_output_at: int | None
    padded_elements_in: int


@dataclass(frozen=True)
class _Stage:
    """One layer: ``compute(x, stats)`` maps its input, of ``in_shape``, to its output.

    A conv or pool stage has ``slabs`` = (pad, rows, cols): it pads its map by
    pad and hands ``compute`` the stack ``padded[:, rows, cols]``, whose rows
    [i*P, (i+1)*P) are output row i's slab. Integer stages add their
    saturations to ``stats``.
    """

    in_shape: tuple
    report: StageReport
    compute: Callable
    slabs: tuple | None = None

    def run(self, x: np.ndarray, stats: dict) -> np.ndarray:
        if x.shape != self.in_shape:
            raise ProtocolError(
                f"stage {self.report.name}: input map {x.shape} != {self.in_shape}")
        if self.slabs is not None:
            pad, rows, cols = self.slabs
            c, h, w = x.shape
            padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
            padded[:, pad:pad + h, pad:pad + w] = x
            x = padded[:, rows, cols]
        return self.compute(x, stats)


def _window_schedule(layer: ConvSpec | PoolLayerSpec, in_shape, out_shape) -> tuple:
    """(report, slabs) of a conv or pool stage, from its geometry alone."""
    conv = isinstance(layer, ConvSpec)
    (p, q), s = layer.kernel if conv else layer.window, layer.stride
    _, h, w = in_shape
    pad = layer.padding if conv else 0
    real = np.zeros((h + 2 * pad, w + 2 * pad), dtype=bool)
    real[pad:pad + h, pad:pad + w] = True
    rows = (np.arange(out_shape[1])[:, None] * s + np.arange(p)).ravel()
    cols = slice(q + (out_shape[2] - 1) * s)  # the slab columns one output row reads
    # The ring holds the last P*Wp elements fed, of which only the real ones
    # are stored, so the occupancy peak is the largest real count over any
    # P*Wp consecutive elements; the grid has at least P rows.
    fed = np.concatenate(([0], np.cumsum(real.ravel())))
    span = p * real.shape[1]
    peak = int((fed[span:] - fed[:len(fed) - span]).max())
    capacity = p * w  # P rows of real elements per channel
    if peak > capacity:
        raise ProtocolError(f"stage {layer.name}: occupancy {peak} exceeds the "
                            f"{capacity}-element line-buffer capacity")
    # The first window completes at padded (P-1, Q-1); a leading virtual
    # element (top padding, or a real row's left padding) is credited to
    # the real element after it.
    leading = p - 1 < pad or (p - 1 < pad + h and q - 1 < pad)
    first = int(real[:p - 1].sum() + real[p - 1, :q].sum()) + leading
    report = StageReport(layer.name, peak, h * w, out_shape[1] * out_shape[2], first, real.size)
    return report, (pad, rows, cols)


def _build_stages(spec: ModelSpec, computes: list) -> list[_Stage]:
    """One stage per layer of ``spec.geometry()``; ``computes[i]`` is layer i's arithmetic.

    Each stage reads the elements its predecessor emits: flatten passes them
    on, and dense emits one vector once it has read them all.
    """
    stages = []
    elements = spec.input_shape[1] * spec.input_shape[2]
    for (layer, in_shape, out_shape), compute in zip(spec.geometry(), computes):
        slabs = None
        if isinstance(layer, (ConvSpec, PoolLayerSpec)):
            report, slabs = _window_schedule(layer, in_shape, out_shape)
        elif isinstance(layer, FlattenSpec):
            report = StageReport(layer.name, 0, elements, elements, 1, elements)
        else:
            report = StageReport(layer.name, layer.out_features, elements, 1, elements, elements)
        stages.append(_Stage(in_shape, report, compute, slabs))
        elements = report.elements_out
    return stages


# -- arithmetic, bound to each stage with functools.partial --------------------
# Each takes the stage's input and the frame's saturation counts (float layers
# count none).

def _float_layer(x, stats, layer, entry):
    """``model.layer_forward`` on the stage's input."""
    return layer_forward(layer, entry, x)


def _int_layer(x, stats, engine: ShiftAddEngine, stage: _StageConfig):
    """The engine's own layer ``stage`` on the stage's input."""
    return engine._forward_arrays(x, stats, [stage])


@dataclass
class StreamResult:
    logits: np.ndarray
    argmax: int
    stages: list[StageReport]
    modeled_cycles: int
    saturations: dict[str, int] = field(default_factory=dict)


def _slab_layer(layer):
    """``layer`` restated to read what its stage hands it.

    A window stage's stack holds one P-row slab per output row, zero padding
    included, so conv and pool read it at padding 0 and (row, column) stride
    (P, S); flatten and dense read their input as it is.
    """
    if isinstance(layer, ConvSpec):
        return replace(layer, padding=0, stride=(layer.kernel[0], layer.stride))
    if isinstance(layer, PoolLayerSpec):
        return replace(layer, stride=(layer.window[0], layer.stride))
    return layer


def _float_computes(spec: ModelSpec, params: ModelParams) -> list:
    """``layer_forward`` per layer, each restated by ``_slab_layer``."""
    return [partial(_float_layer, layer=_slab_layer(layer), entry=entry)
            for layer, entry in zip(spec.layers, params.entries_for(spec))]


def _int_computes(engine: ShiftAddEngine) -> list:
    """The engine's stages and plans, each layer restated by ``_slab_layer``; a conv also
    gathers its im2col block from the stack of slabs."""
    computes = []
    for stage in engine.stages:
        layer = stage.layer
        stage = replace(stage, layer=_slab_layer(layer))
        if isinstance(layer, ConvSpec):
            (p, q), s, (oh, ow) = layer.kernel, layer.stride, stage.out_hw
            stage = replace(stage, gather=im2col_index(
                stage.in_shape[0], (p, q), (p, s), (oh, ow), (oh * p, q + (ow - 1) * s)))
        computes.append(partial(_int_layer, engine=engine, stage=stage))
    return computes


def _run(stages: list[_Stage], frame: np.ndarray) -> StreamResult:
    """Run the frame through each stage in turn, counting its saturations afresh."""
    stats: dict[str, int] = {}
    x = frame
    for stage in stages:
        x = stage.run(x, stats)
    reports = [stage.report for stage in stages]
    return StreamResult(logits=x, argmax=int(np.argmax(x)), stages=reports,
                        modeled_cycles=max(r.padded_elements_in for r in reports),
                        saturations=stats)


def stream_float_forward(spec: ModelSpec, params: ModelParams, frame) -> StreamResult:
    """Stream one frame through one ``model.layer_forward`` call per stage, as ``model_forward``."""
    stages = _build_stages(spec, _float_computes(spec, params))
    return _run(stages, np.asarray(frame, dtype=np.float64))


class _IntPipeline:
    """A ``ShiftAddEngine`` and the line-buffer stages around it, built once for a model."""

    def __init__(self, qmodel: QuantizedModel):
        # The engine gets a copy of the model, so a model that keeps this
        # pipeline is not referenced back by it and is freed once dropped.
        self.engine = ShiftAddEngine(replace(qmodel))
        self.stages = _build_stages(self.engine.spec, _int_computes(self.engine))


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
