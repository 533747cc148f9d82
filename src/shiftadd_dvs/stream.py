"""Row-major streaming execution with per-stage line buffers.

Each layer becomes a pipeline stage that consumes one per-position channel
vector at a time, holds at most the window height's worth of rows in a ring
line buffer, and emits downstream elements as windows complete. Zero padding
is realized by injecting virtual zero elements at the borders; virtual cells
are not counted toward buffer occupancy since hardware would not store
constant zeros.

The float path reproduces the batch reference bitwise for conv/pool stages
(identical accumulation order). The integer stages run the engine's kernel
and requantize step on each window (the dense stage: each position's channel
vector against that position's columns), so streamed integer logits are
bit-identical to the batch engine.
The modeled cycle count assumes an initiation interval of one element per
cycle per stage and is the maximum per-stage element-event count; it is an
estimate, clearly distinct from externally measured latencies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .engine import (_avg_shift, _bias_acc, _build_plan, _group_plan, _layer_terms,
                     _requantize, _shift_add, _ShiftPlan, quantize_frame)
from .layers import BatchNormParams
from .model import ConvSpec, DenseSpec, FlattenSpec, ModelSpec, ModelParams, PoolLayerSpec
from .quantize import QuantizedModel
from .encoding import decoded_model

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
    """Base stage: bookkeeping plus the push/finish protocol."""

    def __init__(self, name: str, in_shape: tuple[int, int, int]):
        self.name = name
        self.in_shape = in_shape
        self.elements_in = 0
        self.padded_in = 0
        self.elements_out = 0
        self.first_output_at: int | None = None

    def push(self, element) -> list:
        raise NotImplementedError

    def finish(self) -> list:
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
        self._limit = h * w
        self._capacity = window[0] * w  # P rows of real elements per channel

    def push(self, element) -> list:
        if self.elements_in >= self._limit:
            raise ProtocolError(f"stage {self.name}: more than {self._limit} elements pushed")
        c, h, w = self.in_shape
        r = self.elements_in // w
        col = self.elements_in % w
        self.elements_in += 1
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
        return self._emit(outputs)

    def finish(self) -> list:
        if self.elements_in != self._limit:
            raise ProtocolError(
                f"stage {self.name}: stream ended after {self.elements_in} of "
                f"{self._limit} elements")
        return []

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
    """One window per call through the engine's kernel, as a one-position im2col block."""

    def __init__(self, layer: ConvSpec, entry, in_shape, qmodel, f_a, mode, counters):
        super().__init__(layer.name, in_shape, layer.kernel, layer.stride, layer.padding,
                         np.int64)
        self.plan: _ShiftPlan = _build_plan(entry, qmodel.frac_bits, qmodel.int_bits, f_a, 1)
        self.requantize = partial(_requantize, frac_bits=qmodel.frac_bits, mode=mode,
                                  stats=counters, name=layer.name, relu=layer.relu)

    def _compute(self, window: np.ndarray) -> np.ndarray:
        return self.requantize(_shift_add(window.reshape(-1, 1), self.plan)[:, 0])


class _IntPoolStage(_WindowStage):
    def __init__(self, layer: PoolLayerSpec, in_shape):
        super().__init__(layer.name, in_shape, layer.window, layer.stride, 0, np.int64)
        self.mode = layer.mode
        self.avg_shift = _avg_shift(layer)

    def _compute(self, window: np.ndarray) -> np.ndarray:
        if self.mode == "max":
            return np.max(window, axis=(1, 2))
        acc = np.sum(window, axis=(1, 2))
        half = 1 << (self.avg_shift - 1) if self.avg_shift else 0
        return (acc + half) >> self.avg_shift


class _FlattenStage(_Stage):
    def __init__(self, name, in_shape):
        super().__init__(name, in_shape)
        self._limit = in_shape[1] * in_shape[2]

    def push(self, element) -> list:
        if self.elements_in >= self._limit:
            raise ProtocolError(f"stage {self.name}: more than {self._limit} elements pushed")
        self.elements_in += 1
        self.padded_in += 1
        return self._emit([element])


class _DenseStageBase(_Stage):
    """Accumulates the dot product incrementally as positions arrive.

    Elements arrive position-major with channel vectors; the flat feature
    index for channel n at position (r, c) is n*H*W + r*W + c, matching the
    batch flatten order.
    """

    def __init__(self, name, in_shape, out_features):
        super().__init__(name, in_shape)
        c, h, w = in_shape
        self._limit = h * w
        self.out_features = out_features

    def push(self, element) -> list:
        if self.elements_in >= self._limit:
            raise ProtocolError(f"stage {self.name}: more than {self._limit} elements pushed")
        self._accumulate(np.asarray(element), self.elements_in)
        self.elements_in += 1
        self.padded_in += 1
        return self._emit([])

    def finish(self) -> list:
        if self.elements_in != self._limit:
            raise ProtocolError(
                f"stage {self.name}: stream ended after {self.elements_in} of "
                f"{self._limit} elements")
        return self._emit([self._result()])

    def _peak(self) -> int:
        return self.out_features

    def _accumulate(self, vec, pos: int):
        raise NotImplementedError

    def _result(self):
        raise NotImplementedError


class _FloatDenseStage(_DenseStageBase):
    def __init__(self, layer: DenseSpec, entry, in_shape):
        super().__init__(layer.name, in_shape, layer.out_features)
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

    def __init__(self, layer: DenseSpec, entry, in_shape, qmodel, f_a, mode, counters):
        super().__init__(layer.name, in_shape, layer.out_features)
        _, h, w = in_shape
        align = qmodel.frac_bits + qmodel.int_bits
        out, col, shift, negative = _layer_terms(entry, align)
        channel, position = np.divmod(col, h * w)
        no_bias = np.zeros(layer.out_features, dtype=np.int64)
        self.plans: list[_ShiftPlan] = [
            _group_plan(out[sel], channel[sel], shift[sel], negative[sel], no_bias, 1)
            for sel in (position == pos for pos in range(h * w))]
        self.requantize = partial(_requantize, frac_bits=qmodel.frac_bits, mode=mode,
                                  stats=counters, name=layer.name)
        self.acc = _bias_acc(entry, align, f_a)

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


def _build_int_stages(qmodel: QuantizedModel, f_a: int, mode: str,
                      counters: dict) -> list[_Stage]:
    spec = qmodel.spec
    stages: list[_Stage] = []
    for layer, entry, in_shape in zip(spec.layers, qmodel.entries, _stage_in_shapes(spec)):
        if isinstance(layer, ConvSpec):
            if layer.batchnorm:
                raise ConfigurationError(
                    f"layer {layer.name}: fold batchnorm before integer streaming")
            stages.append(_IntConvStage(layer, entry, in_shape, qmodel, f_a, mode, counters))
        elif isinstance(layer, PoolLayerSpec):
            stages.append(_IntPoolStage(layer, in_shape))
        elif isinstance(layer, FlattenSpec):
            stages.append(_FlattenStage(layer.name, in_shape))
        else:
            stages.append(_IntDenseStage(layer, entry, in_shape, qmodel, f_a, mode, counters))
    return stages


class StreamRunner:
    """Push-driven pipeline over a stage list; collects final-stage emissions."""

    def __init__(self, stages: list[_Stage], input_shape: tuple[int, int, int]):
        self.stages = stages
        self.input_shape = input_shape
        self.pushed = 0
        self.outputs: list = []

    def push(self, element) -> None:
        c, h, w = self.input_shape
        if self.pushed >= h * w:
            raise ProtocolError(f"stream longer than declared frame ({h * w} elements)")
        self.pushed += 1
        self._propagate(0, element)

    def finish(self) -> None:
        c, h, w = self.input_shape
        if self.pushed != h * w:
            raise ProtocolError(
                f"stream shorter than declared frame: {self.pushed} of {h * w} elements")
        for i, stage in enumerate(self.stages):
            for out in stage.finish():
                self._propagate(i + 1, out)

    def _propagate(self, idx: int, element) -> None:
        if idx == len(self.stages):
            self.outputs.append(element)
            return
        for out in self.stages[idx].push(element):
            self._propagate(idx + 1, out)

    def modeled_cycles(self) -> int:
        return max(stage.padded_in for stage in self.stages)


def _run(stages: list[_Stage], frame: np.ndarray, input_shape, counters) -> StreamResult:
    runner = StreamRunner(stages, input_shape)
    c, h, w = input_shape
    for r in range(h):
        for col in range(w):
            runner.push(frame[:, r, col])
    runner.finish()
    if len(runner.outputs) != 1:
        raise ProtocolError(f"expected one logits emission, got {len(runner.outputs)}")
    logits = runner.outputs[0]
    return StreamResult(logits=logits, argmax=int(np.argmax(logits)),
                        stages=[s.report() for s in stages],
                        modeled_cycles=runner.modeled_cycles(),
                        saturations=dict(counters))


def stream_float_forward(spec: ModelSpec, params: ModelParams, frame) -> StreamResult:
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != spec.input_shape:
        raise ProtocolError(f"frame shape {frame.shape} does not match spec {spec.input_shape}")
    return _run(_build_float_stages(spec, params), frame, spec.input_shape, {})


def stream_quantized_forward(qmodel: QuantizedModel, frame, f_a: int | None = None,
                             mode: str = "release") -> StreamResult:
    if any(e is not None and e.encoding is not None for e in qmodel.entries):
        qmodel = decoded_model(qmodel)
    f_a = int(qmodel.f_a if f_a is None else f_a)
    frame_int = quantize_frame(np.asarray(frame, dtype=np.float64), f_a)
    if frame_int.shape != qmodel.spec.input_shape:
        raise ProtocolError(
            f"frame shape {frame_int.shape} does not match spec {qmodel.spec.input_shape}")
    counters: dict[str, int] = {}
    stages = _build_int_stages(qmodel, f_a, mode, counters)
    return _run(stages, frame_int, qmodel.spec.input_shape, counters)
