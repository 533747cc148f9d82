"""Row-major streaming execution with per-stage line buffers.

Each layer becomes a pipeline stage that consumes one per-position channel
vector at a time, holds at most the window height's worth of rows in a ring
line buffer, and emits downstream elements as windows complete. Zero padding
is realized by injecting virtual zero elements at the borders; virtual cells
are not counted toward buffer occupancy since hardware would not store
constant zeros.

The float path reproduces the batch reference bitwise for conv/pool stages
(identical accumulation order). The integer path builds a ``ShiftAddEngine``
and puts line buffers around its stages: each integer stage takes its terms,
biases, pool shift and requantization from the engine stage and runs the
engine's kernel on each window (the dense stage: each position's channel vector
against that position's columns). The simulator thus accepts exactly the
models, ``f_a`` and modes the engine accepts, and its logits are bit-identical.
The modeled cycle count assumes an initiation interval of one element per
cycle per stage and is the maximum per-stage element-event count; it is an
estimate, clearly distinct from externally measured latencies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .engine import (ShiftAddEngine, _group_plan, _requantize, _round_average, _shift_add,
                     _ShiftPlan, _StageConfig, quantize_frame)
from .layers import BatchNormParams
from .model import ConvSpec, DenseSpec, FlattenSpec, ModelSpec, ModelParams, PoolLayerSpec
from .quantize import QuantizedModel

# Integer compute methods audited for absence of multiplication (see tests/test_engine.py).
DATA_PATH_METHODS = (
    "_IntConvStage._compute",
    "_IntPoolStage._compute",
    "_IntDenseStage._accumulate",
    "_IntDenseStage._result",
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
        self.real_count = 0
        self.peak_real = 0

    @property
    def position(self) -> tuple[int, int]:
        return self.row, self.col

    @property
    def occupancy(self) -> int:
        """Real (non-virtual) elements currently stored, per channel."""
        return self.real_count

    def step(self, element, virtual: bool = False, pos: tuple[int, int] | None = None):
        if pos is not None and pos != (self.row, self.col):
            raise ProtocolError(
                f"element for position {pos} arrived at cursor {(self.row, self.col)}")
        vec = np.asarray(element, dtype=self.rows.dtype)
        if vec.shape != (self.channels,):
            raise ProtocolError(f"element shape {vec.shape} != ({self.channels},)")
        p, q = self.window
        slot = self.row % p
        if self.real[slot, self.col]:
            self.real_count -= 1
        self.rows[slot, self.col] = vec
        self.real[slot, self.col] = not virtual
        if not virtual:
            self.real_count += 1
            self.peak_real = max(self.peak_real, self.real_count)
        window = None
        r, c = self.row, self.col
        if (r >= p - 1 and c >= q - 1
                and (r - (p - 1)) % self.stride == 0
                and (c - (q - 1)) % self.stride == 0):
            window = self._extract(r, c)
        self.col += 1
        if self.col == self.width:
            self.col = 0
            self.row += 1
        return window

    def _extract(self, r: int, c: int) -> np.ndarray:
        p, q = self.window
        out = np.empty((self.channels, p, q), dtype=self.rows.dtype)
        for i in range(p):
            slot = (r - (p - 1) + i) % p
            out[:, i, :] = self.rows[slot, c - (q - 1):c + 1].T
        return out


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
    """Base stage: bookkeeping plus the push/finish protocol over one (C, H, W) grid."""

    def __init__(self, name: str, in_shape: tuple[int, int, int]):
        self.name = name
        self.in_shape = in_shape
        self._limit = in_shape[1] * in_shape[2]
        self.elements_in = 0
        self.padded_in = 0
        self.elements_out = 0
        self.first_output_at: int | None = None

    def push(self, element) -> list:
        """Consume the next channel vector in row-major order; returns what it completes."""
        if self.elements_in >= self._limit:
            raise ProtocolError(f"stage {self.name}: more than {self._limit} elements pushed")
        self.elements_in += 1
        return self._emit(self._consume(element, self.elements_in - 1))

    def finish(self) -> list:
        if self.elements_in != self._limit:
            raise ProtocolError(
                f"stage {self.name}: stream ended after {self.elements_in} of "
                f"{self._limit} elements")
        return self._emit(self._drain())

    def _consume(self, element, index: int) -> list:
        raise NotImplementedError

    def _drain(self) -> list:
        return []

    def _emit(self, outputs: list) -> list:
        if outputs and self.first_output_at is None:
            self.first_output_at = self.elements_in
        self.elements_out += len(outputs)
        return outputs

    def report(self) -> StageReport:
        return StageReport(name=self.name, peak_occupancy=self._peak(),
                           elements_in=self.elements_in, elements_out=self.elements_out,
                           first_output_at=self.first_output_at,
                           padded_elements_in=self.padded_in)

    def _peak(self) -> int:
        return 0


class _WindowStage(_Stage):
    """Shared line-buffer handling for conv and pool stages."""

    def __init__(self, name, in_shape, window, stride, padding, dtype):
        super().__init__(name, in_shape)
        c, h, w = in_shape
        self.padding = padding
        self.padded_width = w + 2 * padding
        self.buffer = LineBuffer(c, self.padded_width, window, stride, dtype=dtype)
        self._zero = np.zeros(c, dtype=dtype)
        self._capacity = window[0] * w  # P rows of real elements per channel

    def _consume(self, element, index: int) -> list:
        c, h, w = self.in_shape
        r, col = divmod(index, w)
        outputs = []
        pad = self.padding
        if pad and r == 0 and col == 0:
            for _ in range(pad * self.padded_width):
                self._feed(self._zero, True, outputs)
        if pad and col == 0:
            for _ in range(pad):
                self._feed(self._zero, True, outputs)
        self._feed(element, False, outputs)
        if pad and col == w - 1:
            for _ in range(pad):
                self._feed(self._zero, True, outputs)
        if pad and r == h - 1 and col == w - 1:
            for _ in range(pad * self.padded_width):
                self._feed(self._zero, True, outputs)
        return outputs

    def _feed(self, vec, virtual: bool, outputs: list) -> None:
        self.padded_in += 1
        window = self.buffer.step(vec, virtual=virtual)
        if self.buffer.occupancy > self._capacity:
            raise ProtocolError(
                f"stage {self.name}: occupancy {self.buffer.occupancy} exceeds the "
                f"{self._capacity}-element line-buffer capacity")
        if window is not None:
            outputs.append(self._compute(window))

    def _compute(self, window: np.ndarray):
        raise NotImplementedError

    def _peak(self) -> int:
        return self.buffer.peak_real


class _FloatConvStage(_WindowStage):
    def __init__(self, layer: ConvSpec, entry, in_shape):
        super().__init__(layer.name, in_shape, layer.kernel, layer.stride, layer.padding,
                         np.float64)
        self.kernel = entry.conv.kernel
        self.bias = entry.conv.bias
        self.relu = layer.relu
        self.bn_scale = None
        self.bn_shift = None
        if layer.batchnorm and entry.bn is not None:
            bn: BatchNormParams = entry.bn
            scale = bn.gamma / np.sqrt(bn.var + bn.eps)
            self.bn_scale = scale
            self.bn_shift = bn.beta - bn.mean * scale

    def _compute(self, window: np.ndarray) -> np.ndarray:
        m, n, p, q = self.kernel.shape
        acc = np.zeros(m)
        for ni in range(n):
            for pi in range(p):
                for qi in range(q):
                    acc += self.kernel[:, ni, pi, qi] * window[ni, pi, qi]
        acc += self.bias
        if self.bn_scale is not None:
            acc = acc * self.bn_scale + self.bn_shift
        if self.relu:
            acc = np.maximum(acc, 0.0)
        return acc


class _FloatPoolStage(_WindowStage):
    def __init__(self, layer: PoolLayerSpec, in_shape):
        super().__init__(layer.name, in_shape, layer.window, layer.stride, 0, np.float64)
        self.mode = layer.mode

    def _compute(self, window: np.ndarray) -> np.ndarray:
        c, p, q = window.shape
        if self.mode == "max":
            return np.max(window, axis=(1, 2))
        acc = np.zeros(c)
        for pi in range(p):
            for qi in range(q):
                acc += window[:, pi, qi]
        return acc / (p * q)


class _IntConvStage(_WindowStage):
    """One window per call through the engine's kernel, the stage's terms cut for one column."""

    def __init__(self, stage: _StageConfig, in_shape, requantize):
        layer = stage.layer
        super().__init__(layer.name, in_shape, layer.kernel, layer.stride, layer.padding,
                         np.int64)
        self.plan: _ShiftPlan = _group_plan(*stage.terms, stage.plan.bias_acc, 1)
        self.requantize = partial(requantize, relu=layer.relu)

    def _compute(self, window: np.ndarray) -> np.ndarray:
        return self.requantize(_shift_add(window.reshape(-1, 1), self.plan)[:, 0])


class _IntPoolStage(_WindowStage):
    def __init__(self, stage: _StageConfig, in_shape):
        layer = stage.layer
        super().__init__(layer.name, in_shape, layer.window, layer.stride, 0, np.int64)
        self.mode = layer.mode
        self.avg_shift = stage.avg_shift

    def _compute(self, window: np.ndarray) -> np.ndarray:
        if self.mode == "max":
            return np.max(window, axis=(1, 2))
        return _round_average(np.sum(window, axis=(1, 2)), self.avg_shift)


class _FlattenStage(_Stage):
    def _consume(self, element, index: int) -> list:
        self.padded_in += 1
        return [element]


class _DenseStageBase(_Stage):
    """Accumulates the dot product incrementally as positions arrive.

    Elements arrive position-major with channel vectors; the flat feature
    index for channel n at position (r, c) is n*H*W + r*W + c, matching the
    batch flatten order.
    """

    def _consume(self, element, index: int) -> list:
        self._accumulate(np.asarray(element), index)
        self.padded_in += 1
        return []

    def _drain(self) -> list:
        return [self._result()]

    def _peak(self) -> int:
        return len(self.acc)

    def _accumulate(self, vec, pos: int):
        raise NotImplementedError

    def _result(self):
        raise NotImplementedError


class _FloatDenseStage(_DenseStageBase):
    def __init__(self, layer: DenseSpec, entry, in_shape):
        super().__init__(layer.name, in_shape)
        c, h, w = in_shape
        self.weights = entry.weights
        self.bias = entry.bias
        self.columns = np.arange(c * h * w).reshape(c, h * w).T
        self.acc = np.zeros(layer.out_features)

    def _accumulate(self, vec, pos):
        self.acc += self.weights[:, self.columns[pos]] @ vec

    def _result(self):
        return self.acc + self.bias


class _IntDenseStage(_DenseStageBase):
    """Each position's channel vector runs the engine's kernel against that position's columns."""

    def __init__(self, stage: _StageConfig, in_shape, requantize):
        layer = stage.layer
        super().__init__(layer.name, in_shape)
        _, h, w = in_shape
        out, col, shift, negative = stage.terms
        channel, position = np.divmod(col, h * w)
        no_bias = np.zeros(layer.out_features, dtype=np.int64)
        self.plans: list[_ShiftPlan] = [
            _group_plan(out[sel], channel[sel], shift[sel], negative[sel], no_bias, 1)
            for sel in (position == pos for pos in range(h * w))]
        self.requantize = requantize
        self.acc = stage.plan.bias_acc.copy()

    def _accumulate(self, vec, pos):
        self.acc += _shift_add(vec.reshape(-1, 1), self.plans[pos])[:, 0]

    def _result(self):
        return self.requantize(self.acc)


@dataclass
class StreamResult:
    logits: np.ndarray
    argmax: int
    stages: list[StageReport]
    modeled_cycles: int
    saturations: dict[str, int] = field(default_factory=dict)


def _stage_in_shapes(spec: ModelSpec) -> list[tuple[int, int, int]]:
    """Spatial input shape per stage; the trailing dense sees the flatten's input grid."""
    shapes: list = []
    previous = None
    for layer, in_shape, _ in spec.geometry():
        if isinstance(layer, DenseSpec):
            if not isinstance(previous, FlattenSpec):
                raise ConfigurationError(
                    f"layer {layer.name}: streaming needs the dense layer right after flatten")
            in_shape = shapes[-1]
        shapes.append(in_shape)
        previous = layer
    return shapes


def _build_float_stages(spec: ModelSpec, params: ModelParams) -> list[_Stage]:
    stages: list[_Stage] = []
    for layer, entry, in_shape in zip(spec.layers, params.entries, _stage_in_shapes(spec)):
        if isinstance(layer, ConvSpec):
            stages.append(_FloatConvStage(layer, entry, in_shape))
        elif isinstance(layer, PoolLayerSpec):
            stages.append(_FloatPoolStage(layer, in_shape))
        elif isinstance(layer, FlattenSpec):
            stages.append(_FlattenStage(layer.name, in_shape))
        else:
            stages.append(_FloatDenseStage(layer, entry, in_shape))
    return stages


def _build_int_stages(engine: ShiftAddEngine, counters: dict) -> list[_Stage]:
    """Line-buffer stages around the engine's stages, requantizing as the engine does."""
    stages: list[_Stage] = []
    for stage, in_shape in zip(engine.stages, _stage_in_shapes(engine.spec)):
        layer = stage.layer
        requantize = partial(_requantize, frac_bits=engine.frac_bits, mode=engine.mode,
                             stats=counters, name=layer.name)
        if isinstance(layer, ConvSpec):
            stages.append(_IntConvStage(stage, in_shape, requantize))
        elif isinstance(layer, PoolLayerSpec):
            stages.append(_IntPoolStage(stage, in_shape))
        elif isinstance(layer, FlattenSpec):
            stages.append(_FlattenStage(layer.name, in_shape))
        else:
            stages.append(_IntDenseStage(stage, in_shape, requantize))
    return stages


def _propagate(stages: list[_Stage], idx: int, element, outputs: list) -> None:
    """Push an element into stage ``idx`` and everything it completes further down."""
    if idx == len(stages):
        outputs.append(element)
        return
    for out in stages[idx].push(element):
        _propagate(stages, idx + 1, out, outputs)


def _run(stages: list[_Stage], frame: np.ndarray, counters) -> StreamResult:
    """Push the frame's channel vectors in row-major order, then finish every stage."""
    outputs: list = []
    _, h, w = frame.shape
    for r in range(h):
        for col in range(w):
            _propagate(stages, 0, frame[:, r, col], outputs)
    for i, stage in enumerate(stages):
        for out in stage.finish():
            _propagate(stages, i + 1, out, outputs)
    if len(outputs) != 1:
        raise ProtocolError(f"expected one logits emission, got {len(outputs)}")
    logits = outputs[0]
    return StreamResult(logits=logits, argmax=int(np.argmax(logits)),
                        stages=[s.report() for s in stages],
                        modeled_cycles=max(stage.padded_in for stage in stages),
                        saturations=dict(counters))


def stream_float_forward(spec: ModelSpec, params: ModelParams, frame) -> StreamResult:
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != spec.input_shape:
        raise ProtocolError(f"frame shape {frame.shape} does not match spec {spec.input_shape}")
    return _run(_build_float_stages(spec, params), frame, {})


def stream_quantized_forward(qmodel: QuantizedModel, frame, f_a: int | None = None,
                             mode: str = "release") -> StreamResult:
    """Stream one frame through the stages of ``ShiftAddEngine(qmodel, f_a, mode)``.

    The engine's construction checks (``f_a`` range, mode, folded batchnorm,
    the 64-bit overflow bound) apply unchanged.
    """
    engine = ShiftAddEngine(qmodel, f_a, mode)
    frame_int = quantize_frame(np.asarray(frame, dtype=np.float64), engine.f_a)
    if frame_int.shape != engine.spec.input_shape:
        raise ProtocolError(
            f"frame shape {frame_int.shape} does not match spec {engine.spec.input_shape}")
    counters: dict[str, int] = {}
    return _run(_build_int_stages(engine, counters), frame_int, counters)
