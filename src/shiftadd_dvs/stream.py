"""Row-major streaming execution with per-stage line buffers.

Each layer becomes a stage that steps its own line buffer through its whole
input, one per-position channel vector at a time in row-major order, and
hands what it emitted to the next stage; stages run in layer order, as the
engine's layers do. Every report counts one stage's own elements, so none
depends on how stages would interleave in hardware. Three stage classes
cover every layer kind:

- ``_WindowStage`` (conv, pool) keeps at most the window height's rows in a
  ring ``LineBuffer``; the element completing an output row's last window
  hands the P rows up to it on as one slab, and the row's OW output vectors
  leave together. Zero padding enters as virtual elements, which do not count
  toward occupancy since hardware would not store constant zeros.
- ``_FlattenStage`` passes each position's vector through.
- ``_DenseStage`` folds each position into an accumulator and emits the
  layer's output at the grid's last position.

The arithmetic is a module-level function bound to its stage with
``functools.partial``; this module adds none of its own to conv and pool rows.
A row's compute is the batch path's own layer function on a one-row stage:
the layer with padding 0, since the slab already holds the virtual zeros, and
a 1 x OW output grid. Float rows run ``model.layer_forward`` (convolution,
batchnorm, relu or pooling) and so match the batch reference bit for bit.
The integer path builds a ``ShiftAddEngine`` and runs each row through
``ShiftAddEngine._forward_arrays`` with the engine stage restated for the
row: its conv plan chunked for OW positions and its ``im2col_index`` over the
(P, Q + (OW-1)*S) slab (so diagnostic mode raises once per row). Dense
positions run the engine's kernel on one position's columns, then its
requantization. The simulator thus accepts exactly the models, ``f_a`` and
modes the engine accepts, and its logits are bit-identical. The modeled cycle
count assumes one element per cycle per stage and is the maximum per-stage
element-event count; it is an estimate, distinct from measured latencies.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .engine import (ShiftAddEngine, _group_plan, _requantize, _shift_add, _StageConfig,
                     im2col_index, quantize_frame)
from .model import (ConvSpec, DenseSpec, FlattenSpec, ModelSpec, ModelParams, PoolLayerSpec,
                    layer_forward)
from .quantize import QuantizedModel

# Every function here that touches integer data; audited for absence of
# multiplication (see tests/test_engine.py).
DATA_PATH_FUNCTIONS = (
    "_int_row",
    "_int_dense_add",
    "_int_dense_result",
)


class LineBuffer:
    """Ring of the last P rows (width W) of a row-major element stream.

    ``step`` consumes one channel vector and returns the completed (C, P, Q)
    window when the element finishes one at the configured stride phase.
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
        r, c = self.row, self.col
        if not self._store(element, virtual):
            return None
        return self._slab(r, slice(c - (self.window[1] - 1), c + 1)).transpose(2, 0, 1)

    def _store(self, element, virtual: bool) -> bool:
        """Stores the element at the cursor and advances it; True if it completes a window."""
        vec = np.asarray(element, dtype=self.rows.dtype)
        if vec.shape != (self.channels,):
            raise ProtocolError(f"element shape {vec.shape} != ({self.channels},)")
        p, q = self.window
        r, c = self.row, self.col
        slot = r % p
        if self.real[slot, c]:
            self.occupancy -= 1
        self.rows[slot, c] = vec
        self.real[slot, c] = not virtual
        if not virtual:
            self.occupancy += 1
            self.peak_real = max(self.peak_real, self.occupancy)
        self.col += 1
        if self.col == self.width:
            self.col = 0
            self.row += 1
        return (r >= p - 1 and c >= q - 1
                and (r - (p - 1)) % self.stride == 0 and (c - (q - 1)) % self.stride == 0)

    def _slab(self, r: int, cols: slice) -> np.ndarray:
        """Columns ``cols`` of the P rows ending at row ``r``, oldest first, as a copy."""
        p = self.window[0]
        return self.rows[np.arange(r - (p - 1), r + 1) % p, cols]


def buffer_requirement(p: int, s: int, w: int, q: int) -> dict:
    """Buffer-size arithmetic for one stage.

    Two figures are reported side by side: the commonly quoted start
    condition (P-1-S)*W + Q, which can go non-positive for large strides and
    is flagged rather than clamped, and the functional minimum (P-1)*W + Q,
    the element count at which the first unpadded window actually completes.
    """
    if min(p, s, w, q) < 1:
        raise ConfigurationError("buffer geometry values must be >= 1")
    estimate = (p - 1 - s) * w + q
    return {
        "start_estimate": estimate,
        "functional_minimum": (p - 1) * w + q,
        "start_estimate_nonpositive": estimate <= 0,
    }


@dataclass
class StageReport:
    name: str
    peak_occupancy: int
    elements_in: int
    elements_out: int
    first_output_at: int | None
    padded_elements_in: int


class _Stage:
    """Bookkeeping over one (C, H, W) grid; ``run`` consumes it whole, subclasses ``_consume``."""

    def __init__(self, name: str, in_shape: tuple[int, int, int]):
        self.name = name
        self.in_shape = in_shape
        self.elements_in = 0
        self.padded_in = 0
        self.elements_out = 0
        self.first_output_at: int | None = None

    def run(self, elements: list) -> list:
        """Consume the grid's channel vectors in row-major order; returns everything emitted."""
        limit = self.in_shape[1] * self.in_shape[2]
        if len(elements) != limit:
            raise ProtocolError(
                f"stage {self.name}: {len(elements)} elements for a {limit}-element grid")
        outputs: list = []
        for index, element in enumerate(elements):
            self.elements_in = index + 1
            self._consume(element, index, outputs)
            if outputs and self.first_output_at is None:
                self.first_output_at = self.elements_in
        self.elements_out = len(outputs)
        return outputs

    def report(self) -> StageReport:
        return StageReport(name=self.name, peak_occupancy=self._peak(),
                           elements_in=self.elements_in, elements_out=self.elements_out,
                           first_output_at=self.first_output_at,
                           padded_elements_in=self.padded_in)

    def _peak(self) -> int:
        return 0


class _WindowStage(_Stage):
    """Conv or pool; ``compute`` maps one output row's (P, width, C) slab to its OW outputs."""

    def __init__(self, layer: ConvSpec | PoolLayerSpec, in_shape, dtype, compute):
        super().__init__(layer.name, in_shape)
        conv = isinstance(layer, ConvSpec)
        window = layer.kernel if conv else layer.window
        c, h, w = in_shape
        self.padding = layer.padding if conv else 0
        self.padded_width = w + 2 * self.padding
        self.buffer = LineBuffer(c, self.padded_width, window, layer.stride, dtype=dtype)
        self._zero = np.zeros(c, dtype=dtype)
        self._capacity = window[0] * w  # P rows of real elements per channel
        self._compute = compute

    def _consume(self, element, index: int, outputs: list) -> None:
        _, h, w = self.in_shape
        col, pad, pad_rows = index % w, self.padding, self.padding * self.padded_width
        before = (pad if col == 0 else 0) + (pad_rows if index == 0 else 0)
        after = (pad if col == w - 1 else 0) + (pad_rows if index == h * w - 1 else 0)
        for _ in range(before):
            self._feed(self._zero, True, outputs)
        self._feed(element, False, outputs)
        for _ in range(after):
            self._feed(self._zero, True, outputs)

    def _feed(self, vec, virtual: bool, outputs: list) -> None:
        self.padded_in += 1
        buffer = self.buffer
        r, c = buffer.row, buffer.col
        completes = buffer._store(vec, virtual)
        if buffer.occupancy > self._capacity:
            raise ProtocolError(
                f"stage {self.name}: occupancy {buffer.occupancy} exceeds the "
                f"{self._capacity}-element line-buffer capacity")
        if completes:
            if self.first_output_at is None:
                self.first_output_at = self.elements_in
            if c + buffer.stride >= self.padded_width:  # the row's last window
                block = self._compute(buffer._slab(r, slice(c + 1)))
                outputs.extend(np.ascontiguousarray(block))

    def _peak(self) -> int:
        return self.buffer.peak_real


class _FlattenStage(_Stage):
    def _consume(self, element, index: int, outputs: list) -> None:
        self.padded_in += 1
        outputs.append(element)


class _DenseStage(_Stage):
    """``acc = add(acc, vec, pos)`` at each position; the last one emits ``result(acc)``.

    The flat feature index of channel n at position (r, c) is n*H*W + r*W + c,
    the batch flatten order.
    """

    def __init__(self, layer: DenseSpec, in_shape, acc: np.ndarray, add, result):
        super().__init__(layer.name, in_shape)
        self.acc = acc
        self._add = add
        self._result = result

    def _consume(self, element, index: int, outputs: list) -> None:
        self.acc = self._add(self.acc, np.asarray(element), index)
        self.padded_in += 1
        if index == self.in_shape[1] * self.in_shape[2] - 1:
            outputs.append(self._result(self.acc))

    def _peak(self) -> int:
        return len(self.acc)


# -- per-row arithmetic, bound to each stage with functools.partial -----------

def _float_row(slab, layer, entry):
    """``layer_forward`` on the row's (P, width, C) slab; ``entry`` has no padding."""
    return layer_forward(layer, entry, slab.transpose(2, 0, 1))[:, 0].T


def _float_dense_add(acc, vec, pos, weights, columns):
    return acc + weights[:, columns[pos]] @ vec


def _int_row(slab, engine: ShiftAddEngine, stage: _StageConfig, stats):
    """The engine's own layer on the row's (P, width, C) slab; ``stage`` is one output row."""
    return engine._forward_arrays(slab.transpose(2, 0, 1), stats, [stage])[:, 0].T


def _int_dense_add(acc, vec, pos, plans):
    """Adds one position's channel vector through the kernel, against that position's columns."""
    return acc + _shift_add(vec.reshape(-1, 1), plans[pos])[:, 0]


def _int_dense_result(acc, engine: ShiftAddEngine, stats, name):
    return _requantize(acc, engine.frac_bits, engine.mode, stats, name)


@dataclass
class StreamResult:
    logits: np.ndarray
    argmax: int
    stages: list[StageReport]
    modeled_cycles: int
    saturations: dict[str, int] = field(default_factory=dict)


def _stage_in_shapes(spec: ModelSpec) -> list[tuple[int, int, int]]:
    """Spatial input shape per stage; the trailing dense sees the flatten's input grid."""
    shapes = [in_shape for _, in_shape, _ in spec.geometry()]
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, DenseSpec):
            if i == 0 or not isinstance(spec.layers[i - 1], FlattenSpec):
                raise ConfigurationError(
                    f"layer {layer.name}: streaming needs the dense layer right after flatten")
            shapes[i] = shapes[i - 1]
    return shapes


def _build_float_stages(spec: ModelSpec, params: ModelParams) -> list[_Stage]:
    stages: list[_Stage] = []
    for layer, entry, in_shape in zip(spec.layers, params.entries, _stage_in_shapes(spec)):
        if isinstance(layer, (ConvSpec, PoolLayerSpec)):
            if isinstance(layer, ConvSpec):
                entry = replace(entry, conv=replace(entry.conv, padding=0))
            compute = partial(_float_row, layer=layer, entry=entry)
            stages.append(_WindowStage(layer, in_shape, np.float64, compute))
        elif isinstance(layer, FlattenSpec):
            stages.append(_FlattenStage(layer.name, in_shape))
        else:
            c, h, w = in_shape
            columns = np.arange(c * h * w).reshape(c, h * w).T
            stages.append(_DenseStage(
                layer, in_shape, np.zeros(layer.out_features),
                partial(_float_dense_add, weights=entry.weights, columns=columns),
                partial(np.add, entry.bias)))
    return stages


def _row_stage(stage: _StageConfig, channels: int) -> _StageConfig:
    """``stage`` restated for one output row of its slab, whose padding is already in place."""
    layer, ow = stage.layer, stage.out_hw[1]
    if not isinstance(layer, ConvSpec):
        return replace(stage, out_hw=(1, ow))
    (p, q), s = layer.kernel, layer.stride
    return replace(stage, layer=replace(layer, padding=0), out_hw=(1, ow),
                   plan=_group_plan(*stage.terms, stage.plan.bias_acc, ow),
                   gather=im2col_index(channels, (p, q), s, (1, ow), (p, q + (ow - 1) * s)))


def _build_int_stages(engine: ShiftAddEngine, counters: dict) -> list[_Stage]:
    """Line-buffer stages around the engine's stages, requantizing as the engine does."""
    stages: list[_Stage] = []
    for stage, in_shape in zip(engine.stages, _stage_in_shapes(engine.spec)):
        layer = stage.layer
        if isinstance(layer, (ConvSpec, PoolLayerSpec)):
            compute = partial(_int_row, engine=engine, stage=_row_stage(stage, in_shape[0]),
                              stats=counters)
            stages.append(_WindowStage(layer, in_shape, np.int64, compute))
        elif isinstance(layer, FlattenSpec):
            stages.append(_FlattenStage(layer.name, in_shape))
        else:
            _, h, w = in_shape
            out, col, shift, negative = stage.terms
            channel, position = np.divmod(col, h * w)
            no_bias = np.zeros(layer.out_features, dtype=np.int64)
            plans = [_group_plan(out[sel], channel[sel], shift[sel], negative[sel], no_bias, 1)
                     for sel in (position == pos for pos in range(h * w))]
            stages.append(_DenseStage(
                layer, in_shape, stage.plan.bias_acc, partial(_int_dense_add, plans=plans),
                partial(_int_dense_result, engine=engine, stats=counters, name=layer.name)))
    return stages


def _run(stages: list[_Stage], frame: np.ndarray, counters) -> StreamResult:
    """Run the frame's channel vectors through each stage in turn, in row-major order."""
    if frame.shape != stages[0].in_shape:
        raise ProtocolError(f"frame shape {frame.shape} does not match spec {stages[0].in_shape}")
    _, h, w = frame.shape
    elements = [frame[:, r, c] for r in range(h) for c in range(w)]
    for stage in stages:
        elements = stage.run(elements)
    if len(elements) != 1:
        raise ProtocolError(f"expected one logits emission, got {len(elements)}")
    logits = elements[0]
    return StreamResult(logits=logits, argmax=int(np.argmax(logits)),
                        stages=[s.report() for s in stages],
                        modeled_cycles=max(stage.padded_in for stage in stages),
                        saturations=dict(counters))


def stream_float_forward(spec: ModelSpec, params: ModelParams, frame) -> StreamResult:
    return _run(_build_float_stages(spec, params), np.asarray(frame, dtype=np.float64), {})


def stream_quantized_forward(qmodel: QuantizedModel, frame, f_a: int | None = None,
                             mode: str = "release") -> StreamResult:
    """Stream one frame through the stages of ``ShiftAddEngine(qmodel, f_a, mode)``.

    The engine's construction checks (``f_a`` range, mode, folded batchnorm,
    the 64-bit overflow bound) apply unchanged.
    """
    engine = ShiftAddEngine(qmodel, f_a, mode)
    frame_int = quantize_frame(np.asarray(frame, dtype=np.float64), engine.f_a)
    counters: dict[str, int] = {}
    return _run(_build_int_stages(engine, counters), frame_int, counters)
