"""Multiplier-free integer inference.

Every multiply-accumulate is realized as signed shift-and-accumulate: an
activation held as a signed integer at scale 2^f_a is shifted left by
(frac_bits + int_bits - magnitude) for each stored term of the weight, so the
accumulator holds the exact product at scale 2^(f_a + frac_bits). Layers
requantize back to the activation grid with round-half-to-even and symmetric
saturation at the 32-bit boundary.

Conv and dense layers, here and in the streaming simulator (which runs each
layer through one ``_forward_arrays`` call, a window layer's on the stack of
slabs its line buffer handed out, with only its window reads restated), share
one kernel, ``_shift_add``, over an im2col block (K rows, one column per
position). A conv gathers its block with ``np.take`` by a flat index that
``im2col_index`` precomputes over the padded input; a pool reads each window
tap as a strided view at its (row, column) stride (``layers.window_taps``, as
the float reference does) and takes the maximum over the taps, or their sum
rounded by ``_round_average``. Each layer's terms come
as arrays from ``encoding.layer_terms`` (``bias + code`` when the layer is
encoded; no decoded model is built). At build each distinct (im2col row, left
shift) operand of a layer is listed once, and each output channel lists the
operands of its positive terms, which it adds, and of its negative terms, which
it subtracts; the kernel shifts each operand's row once, then sums each
channel's added rows and subtracts the sum of its subtracted rows, in blocks of
positions whose scratch arrays stay within ``CHUNK_ELEMENTS``. int64 add,
subtract and shift are exact modulo 2^64 and the overflow check keeps the sum
of the terms' magnitudes below 2^63, so the result equals the per-term sum bit
for bit, whatever its intermediate values. A conv's im2col row that reads zero
padding at every output position adds zero, so the plan drops its terms at
build (``_live_rows`` finds such rows from the geometry; on the default student
they are conv4's kernel columns 0 and 2 of its width-1 map); the overflow proof
still counts every term.

Each stage keeps its input shape from ``ModelSpec.geometry()``, the one walk
over the layer chain. At construction a worst-case bound proves that no
accumulator can overflow 64 bits for any frame the engine accepts:
``quantize_frame`` rejects activations beyond 32 bits and every layer
saturates to that range, so the proof needs no assumption about the input
data. A later layer is proven only for the bound its predecessor passes on, so
each stage records that bound and ``layer_forward``, which takes any layer's
input from outside, refuses more.

The functions listed in ``DATA_PATH_FUNCTIONS`` form the integer data path;
they intentionally contain no multiplication operator (a unit test audits
their AST), so the only data-dependent operations are shifts, adds and
compares. Plans, block sizes, im2col indices and window slice bounds are built
outside it, and input conditioning (``quantize_activation``) is the
floating-point boundary. A pool reads its taps through ``layers.window_taps``,
which the same audit covers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, RangeError
from .layers import window_taps
from .model import ConvSpec, FlattenSpec, LayerSpec, PoolLayerSpec
from .quantize import QuantizedModel, ShiftQuantParam
from .encoding import Terms, layer_terms

ACT_LIMIT = (1 << 31) - 1
ACC_LIMIT = 1 << 63

# Names audited for absence of multiplication (see tests/test_engine.py).
DATA_PATH_FUNCTIONS = (
    "shift_add_mul",
    "_rshift_round_half_even",
    "_saturate",
    "_requantize",
    "_shift_add",
    "_conv_int",
    "_pool_int",
    "_round_average",
    "_dense_int",
    "_forward_arrays",
)


@dataclass(frozen=True)
class FixedActivation:
    """A real number stored as value / 2^f_a."""

    value: int
    f_a: int


def quantize_activation(x: float, f_a: int) -> FixedActivation:
    """Round x * 2^f_a half-to-even onto the activation grid."""
    scaled = float(np.rint(float(x) * float(2 ** f_a)))
    if not np.isfinite(scaled) or abs(scaled) > ACT_LIMIT:
        raise RangeError(f"activation {x!r} does not fit 32 bits at f_a={f_a}")
    return FixedActivation(value=int(scaled), f_a=f_a)


def quantize_frame(frame: np.ndarray, f_a: int) -> np.ndarray:
    """Vector form of quantize_activation for a whole feature map."""
    scaled = np.rint(np.asarray(frame, dtype=np.float64) * float(2 ** f_a))
    if not np.all(np.isfinite(scaled)) or np.any(np.abs(scaled) > ACT_LIMIT):
        raise RangeError(f"frame does not fit 32 bits at f_a={f_a}")
    return scaled.astype(np.int64)


def _integer_input(x) -> np.ndarray:
    """An int64 tensor within the 32-bit activation range the overflow bound assumes.

    Only bool and integer dtypes are read, and their range is checked before the
    cast, so no value is truncated or wraps on the way in.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "biu":
        raise DomainError(f"integer input must have a bool or integer dtype, not {x.dtype}")
    if np.any((x > ACT_LIMIT) | (x < -ACT_LIMIT)):
        raise RangeError("integer input exceeds the 32-bit activation range")
    return x.astype(np.int64, copy=False)


def shift_add_mul(act, q: ShiftQuantParam, frac_bits: int = 16, int_bits: int = 2) -> int:
    """Contribution of one (activation, weight) pair: sign * sum(act << (align - s)).

    Exactly equals act * (dequantized weight * 2^frac_bits) as integers.
    """
    value = act.value if isinstance(act, FixedActivation) else int(act)
    if q.sign == 0:
        return 0
    align = frac_bits + int_bits
    acc = 0
    for s in q.shifts:
        acc += value << (align - s)
    if q.sign < 0:
        return -acc
    return acc


def _rshift_round_half_even(values: np.ndarray, bits: int) -> np.ndarray:
    if bits == 0:
        return values
    floor = values >> bits
    remainder = values & ((1 << bits) - 1)
    half = 1 << (bits - 1)
    round_up = (remainder > half) | ((remainder == half) & ((floor & 1) == 1))
    return floor + round_up


def _saturate(values: np.ndarray) -> tuple[np.ndarray, int]:
    count = int(np.count_nonzero((values > ACT_LIMIT) | (values < -ACT_LIMIT)))
    return (np.clip(values, -ACT_LIMIT, ACT_LIMIT) if count else values), count


# Budget of every scratch array one ``_shift_add`` call holds, in int64 elements
# (1 MiB): the shifted operand block and each output channel's gather of the
# operands it adds or subtracts. On the default student half the budget shortens
# the rows each channel sums and slows conv2..conv4 by ~0.2-0.9 ms each; twice
# it saves ~0.4-0.7 ms on conv3 and ~0.1 ms elsewhere for twice the scratch memory.
CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class _ShiftPlan:
    """One layer's weight terms as distinct shifted operands and each channel's share of them."""

    bias_acc: np.ndarray        # biases expanded to accumulator scale
    rows: np.ndarray            # im2col row of each distinct (row, left shift) operand
    shift: np.ndarray           # (U, 1) left shift of each operand
    added: tuple[np.ndarray, ...]       # per output channel, the operand of each positive term
    subtracted: tuple[np.ndarray, ...]  # per output channel, the operand of each negative term
    block: int                  # positions per block (at least 1) within the budget


def _magnitudes(terms: Terms, amount: np.ndarray) -> np.ndarray:
    """sum(2^amount) over each parameter's terms."""
    sums = np.zeros(len(terms.count), dtype=np.int64)
    np.add.at(sums, np.repeat(np.arange(len(terms.count)), terms.count),
              np.left_shift(1, amount))
    return sums


def _bias_acc(name: str, biases: Terms, align: int, f_a: int) -> np.ndarray:
    """Biases expanded to accumulator scale 2^(f_a + frac_bits)."""
    amount = f_a + align - biases.shift
    if np.any(amount < 0):
        raise ConfigurationError(f"layer {name}: bias magnitude {int(biases.shift.max())} "
                                 f"exceeds alignment {f_a + align}")
    magnitude = _magnitudes(biases, amount)
    return np.where(biases.sign < 0, -magnitude, magnitude)


def _shift_plan(name: str, weights: Terms, bias_acc: np.ndarray, align: int) -> _ShiftPlan:
    """The distinct operands of a layer's weight terms and, per output channel, each term's operand.

    An operand is an (im2col row, left shift) pair; a term's sign only decides
    whether its channel adds or subtracts the operand. Each used pair is marked
    in a dense array of the rows by ``slots`` left shifts, so the running count
    of marks numbers the operands in that order with no sort. The terms arrive
    in (channel, column) order, so each channel's positive terms, and its
    negative ones, are one run each; a repeated term keeps its repeat, as its
    weight sums it twice.
    """
    amount = align - weights.shift
    if np.any(amount < 0):
        raise ConfigurationError(
            f"layer {name}: shift magnitude {int(weights.shift.max())} exceeds alignment {align}")
    channels = len(bias_acc)
    columns = len(weights.count) // channels
    slots = int(amount.max(initial=0)) + 1
    row_key = np.tile(np.arange(0, columns * slots, slots), channels)  # each weight's row * slots
    key = np.repeat(row_key, weights.count) + amount
    used = np.zeros(columns * slots, dtype=bool)
    used[key] = True
    operand = (np.cumsum(used) - 1)[key]
    rows, shift = np.divmod(np.flatnonzero(used), slots)
    per_weight = weights.count.reshape(channels, columns)
    negative = (weights.sign < 0).reshape(channels, columns)

    def runs(side: np.ndarray) -> tuple[np.ndarray, ...]:
        ends = np.cumsum((per_weight * side).sum(axis=1)).tolist()
        operands = operand[np.repeat(side.reshape(-1), weights.count)]
        return tuple(operands[start:end] for start, end in zip([0] + ends[:-1], ends))

    added, subtracted = runs(~negative), runs(negative)
    widest = max([len(rows), 1] + [len(terms) for terms in added + subtracted])
    return _ShiftPlan(bias_acc=bias_acc, rows=rows, shift=shift[:, None], added=added,
                      subtracted=subtracted, block=max(1, CHUNK_ELEMENTS // widest))


def _shift_add(cols: np.ndarray, plan: _ShiftPlan) -> np.ndarray:
    """Exact ``W_int @ cols + bias`` for an im2col block cols (K, positions), by shifts and adds.

    Each distinct operand is shifted once per block of positions; each output
    channel sums the rows of the operands it adds, then subtracts the sum of
    those it subtracts. int64 add, subtract and shift are exact modulo 2^64, so
    the result equals the per-term sum bit for bit.
    """
    acc = np.empty((len(plan.bias_acc), cols.shape[1]), dtype=np.int64)
    for start in range(0, cols.shape[1], plan.block):
        block = slice(start, start + plan.block)
        operands = np.take(cols[:, block], plan.rows, axis=0)
        np.left_shift(operands, plan.shift, out=operands)
        for channel, (added, subtracted) in enumerate(zip(plan.added, plan.subtracted)):
            out = acc[channel, block]
            np.add.reduce(np.take(operands, added, axis=0), axis=0, out=out)
            if len(subtracted):
                out -= np.add.reduce(np.take(operands, subtracted, axis=0), axis=0)
    acc += plan.bias_acc[:, None]
    return acc


def _requantize(acc: np.ndarray, frac_bits: int, stats: dict, name: str,
                relu: bool = False) -> np.ndarray:
    """Round half-even onto the activation grid and saturate to 32 bits, counting clips."""
    out, clipped = _saturate(_rshift_round_half_even(acc, frac_bits))
    if clipped:
        stats[name] = stats.get(name, 0) + clipped
    if relu:
        out = np.maximum(out, 0)
    return out


def _round_average(acc: np.ndarray, shift: int) -> np.ndarray:
    """A window sum divided by its power-of-two area 2^shift, rounding halves up."""
    return (acc + ((1 << shift) >> 1)) >> shift


def _avg_shift(layer: PoolLayerSpec) -> int:
    """Right shift that divides by an average pool's window area (0 for max pooling)."""
    if layer.mode != "avg":
        return 0
    area = layer.window[0] * layer.window[1]
    if area < 1 or area & (area - 1):
        raise ConfigurationError(
            f"layer {layer.name}: integer average pooling needs a power-of-two "
            f"window area, got {layer.window[0]}x{layer.window[1]}")
    return area.bit_length() - 1


def im2col_index(channels: int, window: tuple[int, int], stride: int | tuple[int, int],
                 out_hw: tuple[int, int], in_hw: tuple[int, int]) -> np.ndarray:
    """Flat index into a (channels, *in_hw) map of its im2col block.

    Row (n, p, q) in weight order, column (i, j) in row-major output order:
    ``np.take(x, index)`` is the (N*P*Q, OH*OW) block ``_shift_add`` consumes.
    ``stride`` is one stride for both axes or a (row, column) pair.
    """
    (p, q), (oh, ow), (h, w) = window, out_hw, in_hw
    sr, sc = stride if isinstance(stride, tuple) else (stride, stride)
    n, pi, qi, i, j = np.ix_(range(channels), range(p), range(q), range(oh), range(ow))
    return ((n * h + pi + i * sr) * w + qi + j * sc).reshape(channels * p * q, oh * ow)


def _live_rows(channels: int, window: tuple[int, int], stride: int, padding: int,
               in_hw: tuple[int, int]) -> np.ndarray:
    """Mask, in weight order, of the im2col rows (n, p, q) that read a real element at
    some output position; every other row reads zero padding at every position.

    Tap p reads padded row p + i*S at output row i, so it reads a real row at some
    output row when one of those lands in [padding, padding + H); columns alike.
    Row (p, q) reads a real element at output (i, j) exactly when tap p's row and tap
    q's column both do, so it is live when each of its taps is live on its own axis.
    """
    def live_taps(taps: int, extent: int) -> np.ndarray:
        reads = np.arange(taps)[:, None] + np.arange(0, extent + padding + padding - taps + 1,
                                                     stride)
        return ((reads >= padding) & (reads < padding + extent)).any(axis=1)

    (p, q), (h, w) = window, in_hw
    return np.tile((live_taps(p, h)[:, None] & live_taps(q, w)).ravel(), channels)


def _live_terms(weights: Terms, live: np.ndarray) -> Terms:
    """``weights`` with every term of a weight on a row outside ``live`` dropped."""
    if live.all():
        return weights
    keep = np.tile(live, len(weights.count) // len(live))
    return Terms(weights.sign, np.where(keep, weights.count, 0),
                 weights.shift[np.repeat(keep, weights.count)])


@dataclass(frozen=True)
class _StageConfig:
    """A spec layer plus what the integer path precomputes for it."""

    layer: LayerSpec
    in_shape: tuple[int, ...]
    out_hw: tuple[int, ...]
    plan: _ShiftPlan | None = None  # conv and dense: the weight terms as ``_shift_add`` reads them
    gather: np.ndarray | None = None  # conv: ``im2col_index`` over the padded input
    avg_shift: int = 0              # average pooling
    in_bound: int = 0               # largest input magnitude the overflow proof covers

    @property
    def name(self) -> str:
        return self.layer.name


@dataclass
class EngineResult:
    logits: np.ndarray
    argmax: int
    saturations: dict[str, int] = field(default_factory=dict)

    @property
    def total_saturations(self) -> int:
        return sum(self.saturations.values())


class ShiftAddEngine:
    """Immutable integer inference engine built from a quantized model.

    The model is its only configuration, immutable and checked when it was
    made (entries aligned with the spec, batchnorm folded, ``f_a`` in range).
    Every layer saturates to 32 bits and counts the values it clips.
    Construction verifies with a worst-case bound that no layer accumulator
    can overflow 64 bits for any frame ``quantize_frame`` accepts, i.e. every
    input activation within the 32-bit range.
    """

    def __init__(self, qmodel: QuantizedModel):
        self.qmodel = qmodel
        self.spec, self.frac_bits, self.int_bits, self.f_a = (
            qmodel.spec, qmodel.frac_bits, qmodel.int_bits, qmodel.f_a)
        self.stages = self._build_stages(qmodel.entries)

    # -- construction ------------------------------------------------------

    def _build_stages(self, entries: tuple) -> list[_StageConfig]:
        # quantize_frame rejects any input beyond ACT_LIMIT and every layer
        # saturates to it, so ACT_LIMIT + 1 bounds every activation magnitude.
        act_bound = ACT_LIMIT + 1
        align = self.frac_bits + self.int_bits
        stages = []
        for (layer, in_shape, out_shape), entry in zip(self.spec.geometry(), entries):
            gather, live = None, None
            if isinstance(layer, ConvSpec):
                pad = 2 * layer.padding
                gather = im2col_index(in_shape[0], layer.kernel, layer.stride, out_shape[1:],
                                      (in_shape[1] + pad, in_shape[2] + pad))
                live = _live_rows(in_shape[0], layer.kernel, layer.stride, layer.padding,
                                  in_shape[1:])
            plan, in_bound = None, act_bound
            if entry is not None:
                weights, biases = layer_terms(entry)
                # a term on a padding-only row adds zero everywhere; the proof still counts it
                plan = _shift_plan(layer.name,
                                   weights if live is None else _live_terms(weights, live),
                                   _bias_acc(layer.name, biases, align, self.f_a), align)
                act_bound = self._check_overflow_bound(layer.name, weights, plan.bias_acc,
                                                       act_bound)
            avg_shift = _avg_shift(layer) if isinstance(layer, PoolLayerSpec) else 0
            stages.append(_StageConfig(layer, in_shape, out_shape[1:], plan, gather, avg_shift,
                                       in_bound))
        return stages

    def _check_overflow_bound(self, name: str, weights: Terms, bias_acc: np.ndarray,
                              act_bound: int) -> int:
        """Prove |accumulator| < 2^63 for |inputs| <= act_bound; returns the output bound."""
        per_out = len(weights.count) // len(bias_acc)
        magnitudes = _magnitudes(weights, self.frac_bits + self.int_bits - weights.shift)
        worst = per_out * act_bound * int(magnitudes.max(initial=0))
        worst += int(np.abs(bias_acc).max(initial=0))
        if worst >= ACC_LIMIT:
            raise ConfigurationError(
                f"layer {name}: worst-case accumulator {worst} would overflow "
                f"64 bits for 32-bit input activations")
        return min((worst >> self.frac_bits) + 1, ACT_LIMIT)

    # -- integer data path (multiplication-free; audited) -------------------

    def _conv_int(self, x: np.ndarray, stage: _StageConfig, stats: dict) -> np.ndarray:
        layer = stage.layer
        pad = layer.padding
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
        acc = _shift_add(np.take(xp, stage.gather), stage.plan)
        out = _requantize(acc, self.frac_bits, stats, stage.name, layer.relu)
        return out.reshape(-1, *stage.out_hw)

    def _pool_int(self, x: np.ndarray, stage: _StageConfig) -> np.ndarray:
        """The maximum, or the rounded average, over each window's taps, one strided view each."""
        layer = stage.layer
        taps = window_taps(x, layer.window, layer.stride, stage.out_hw)
        out = taps[0].copy()
        if layer.mode == "max":
            for tap in taps[1:]:
                np.maximum(out, tap, out=out)
            return out
        for tap in taps[1:]:
            out += tap
        return _round_average(out, stage.avg_shift)

    def _dense_int(self, x: np.ndarray, stage: _StageConfig, stats: dict) -> np.ndarray:
        acc = _shift_add(x.reshape(-1, 1), stage.plan)[:, 0]
        return _requantize(acc, self.frac_bits, stats, stage.name)

    def _forward_arrays(self, x: np.ndarray, stats: dict, stages=None) -> np.ndarray:
        out = x
        for stage in self.stages if stages is None else stages:
            if isinstance(stage.layer, ConvSpec):
                out = self._conv_int(out, stage, stats)
            elif isinstance(stage.layer, PoolLayerSpec):
                out = self._pool_int(out, stage)
            elif isinstance(stage.layer, FlattenSpec):
                out = out.reshape(-1)
            else:
                out = self._dense_int(out, stage, stats)
        return out

    # -- public API ---------------------------------------------------------

    def layer_forward(self, name: str, x_int: np.ndarray) -> tuple[np.ndarray, int]:
        """Run one named layer on an integer tensor; returns (output, saturations).

        Debug/verification surface: the same shift-add, requantization and
        pooling arithmetic the full forward uses, one stage at a time. A later
        layer's overflow proof covers only the inputs its predecessors can
        emit, so larger inputs raise ``RangeError``.
        """
        x_int = _integer_input(x_int)
        stats: dict[str, int] = {}
        for stage in self.stages:
            if stage.name == name:
                if x_int.shape != stage.in_shape:
                    raise ConfigurationError(f"layer {name}: input shape {x_int.shape} does "
                                             f"not match the spec's {stage.in_shape}")
                if max(x_int.max(), -x_int.min()) > stage.in_bound:
                    raise RangeError(f"layer {name}: input exceeds {stage.in_bound}, the "
                                     "largest magnitude its overflow proof covers")
                return self._forward_arrays(x_int, stats, [stage]), stats.get(name, 0)
        raise ConfigurationError(f"no layer named {name!r}")

    def forward_integer(self, frame_int: np.ndarray) -> EngineResult:
        """Run on an already-conditioned int64 frame."""
        frame_int = _integer_input(frame_int)
        if frame_int.shape != self.spec.input_shape:
            raise ConfigurationError(
                f"frame shape {frame_int.shape} does not match spec {self.spec.input_shape}")
        stats: dict[str, int] = {}
        logits = self._forward_arrays(frame_int, stats)
        return EngineResult(logits=logits, argmax=int(np.argmax(logits)), saturations=stats)

    def forward(self, frame: np.ndarray) -> EngineResult:
        """Condition a float frame onto the activation grid and run it."""
        return self.forward_integer(quantize_frame(frame, self.f_a))

