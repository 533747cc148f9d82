"""The shift-add kernel against an exact integer product.

The oracle here multiplies: it rebuilds every weight as the integer
sign * sum(2^(align - s)) from its shifts, decoding an encoded layer itself as
``bias + code``, and takes ``cols @ W_int.T`` in int64. It lives only in the
tests, outside the audited data path.
"""
import dataclasses

import numpy as np
import pytest

from shiftadd_dvs import engine as engine_module
from shiftadd_dvs.encoding import Terms, decoded_model, encode_model, layer_terms
from shiftadd_dvs.engine import ShiftAddEngine, quantize_frame
from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    PoolLayerSpec,
    default_student_spec,
    fold_model_batchnorm,
    init_params,
    layer_forward,
)
from shiftadd_dvs.quantize import ZERO_PARAM, ShiftQuantParam, shift_quantize_model
from shiftadd_dvs.stream import stream_quantized_forward

from conftest import (STRIDED_GEOMETRIES, float_stages, int_stages, layer_from_params,
                      make_small_model, single_conv_spec, wide_dense_model)

ACT_LIMIT = (1 << 31) - 1


def _weight_ints(entry, align, f_a):
    enc = entry.encoding
    shifts = ([p.shifts for p in entry.all_params()] if enc is None
              else [[code + enc.bias for code in codes] for codes in enc.codes])
    signed = list(zip((p.sign for p in entry.all_params()), shifts))
    n = len(entry.weights)
    weights = np.array([sign * sum(1 << (align - s) for s in row) for sign, row in signed[:n]],
                       dtype=np.int64)
    biases = np.array([sign * sum(1 << (f_a + align - s) for s in row)
                       for sign, row in signed[n:]], dtype=np.int64)
    return weights.reshape(entry.shape[0], -1), biases


def _requantize(acc, frac_bits, relu):
    quotient, remainder = np.divmod(acc, 1 << frac_bits)
    half = (1 << frac_bits) // 2
    out = quotient + ((remainder > half) | ((remainder == half) & (quotient % 2 == 1)))
    out = np.clip(out, -ACT_LIMIT, ACT_LIMIT)
    return np.maximum(out, 0) if relu else out


def _im2col(x, layer):
    """(OH*OW, N*P*Q) windows of the zero-padded map, one loop per output position."""
    p, q = layer.kernel
    s, pad = layer.stride, layer.padding
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (xp.shape[1] - p) // s + 1
    ow = (xp.shape[2] - q) // s + 1
    windows = [xp[:, i * s:i * s + p, j * s:j * s + q] for i in range(oh) for j in range(ow)]
    return np.array([w.reshape(-1) for w in windows]), (oh, ow)


def _stream_stage(stage, x):
    """The rows of the map ``stage`` returns for its input x: one channel vector per
    output position, row-major (a dense stage's output is one row)."""
    out = stage.run(x, {})
    return out.reshape(len(out), -1).T


def _check_layers(qmodel, frame):
    """Every conv and dense layer of the engine and of the streamed stages equals the oracle.

    Each streamed stage is fed the layer's unpadded input map, which it pushes
    row by row, so its virtual padding and its line buffer are part of what is
    checked.
    """
    engine = ShiftAddEngine(qmodel)
    f_a, align = qmodel.f_a, qmodel.frac_bits + qmodel.int_bits
    stages = int_stages(engine)
    x = quantize_frame(frame, f_a)
    checked = 0
    for layer, entry, stage in zip(qmodel.spec.layers, qmodel.entries, stages):
        got, _ = engine.layer_forward(layer.name, x)
        if isinstance(layer, ConvSpec):
            w_int, b_int = _weight_ints(entry, align, f_a)
            cols, (oh, ow) = _im2col(x, layer)
            want = _requantize(cols @ w_int.T + b_int, qmodel.frac_bits, layer.relu)
            np.testing.assert_array_equal(got, want.T.reshape(-1, oh, ow))
            streamed = _stream_stage(stage, x)
            assert len(streamed) == oh * ow
            for vec, row in zip(streamed, want):
                np.testing.assert_array_equal(vec, row)
            checked += 1
        elif isinstance(layer, DenseSpec):
            w_int, b_int = _weight_ints(entry, align, f_a)
            want = _requantize(w_int @ x + b_int, qmodel.frac_bits, False)
            np.testing.assert_array_equal(got, want)
            streamed = _stream_stage(stage, x)
            assert len(streamed) == 1
            np.testing.assert_array_equal(streamed[0], want)
            checked += 1
        x = got
    return checked


def _check_float_layers(spec, params, frame):
    """Every float conv and pool stage emits exactly ``layer_forward``'s output, bit for bit.

    As in ``_check_layers``, each stage is fed the layer's unpadded input map,
    so its virtual padding and line buffer are checked too.
    """
    x = frame
    checked = 0
    for layer, entry, stage in zip(spec.layers, params.entries, float_stages(spec, params)):
        want = layer_forward(layer, entry, x)
        if isinstance(layer, (ConvSpec, PoolLayerSpec)):
            streamed = _stream_stage(stage, x)
            np.testing.assert_array_equal(np.array(streamed), want.reshape(len(want), -1).T)
            checked += 1
        x = want
    return checked


def _random_batchnorm(params, rng):
    for entry in params.entries:
        if getattr(entry, "bn", None) is not None:
            for arr in (entry.bn.gamma, entry.bn.beta, entry.bn.mean):
                arr[...] = rng.normal(0, 0.5, size=arr.shape)
            entry.bn.var[...] = rng.uniform(0.5, 2.0, size=entry.bn.var.shape)
    return params


def test_default_student_float_stages_equal_layer_forward():
    spec = default_student_spec()
    assert all(layer.batchnorm and layer.relu for layer in spec.layers
               if isinstance(layer, ConvSpec))
    rng = np.random.default_rng(15)
    params = _random_batchnorm(init_params(spec, rng), rng)
    assert _check_float_layers(spec, params, rng.normal(size=spec.input_shape)) == 7


@pytest.mark.parametrize("kernel, stride, padding", STRIDED_GEOMETRIES)
def test_strided_float_stages_equal_layer_forward(kernel, stride, padding):
    spec = single_conv_spec(2, 9, 11, 3, kernel, stride=stride, padding=padding,
                            use_relu=True, batchnorm=True)
    rng = np.random.default_rng(16)
    params = _random_batchnorm(init_params(spec, rng, weight_scale=0.8), rng)
    assert _check_float_layers(spec, params, rng.normal(size=spec.input_shape)) == 1


def _single_conv(out_c, in_c=2, kernel=(3, 3), h=6, w=7):
    return ModelSpec(layers=(
        ConvSpec(name="c", out_channels=out_c, kernel=kernel, padding=1,
                 relu=True, batchnorm=False),
        PoolLayerSpec(name="p", mode="max"),
        FlattenSpec(),
        DenseSpec(name="d", out_features=3),
    ), input_shape=(in_c, h, w), class_count=3)


class TestExactProductOracle:
    def test_random_small_models(self):
        for trial in range(12):
            local = np.random.default_rng([91, trial])
            spec, params = make_small_model(local, weight_scale=0.8)
            q = shift_quantize_model(spec, params, int(local.integers(1, 5)))
            assert _check_layers(q, local.normal(0, 2, size=spec.input_shape)) >= 2

    @pytest.mark.parametrize("kernel, stride, padding", STRIDED_GEOMETRIES)
    def test_strided_padded_convs(self, kernel, stride, padding):
        spec = single_conv_spec(3, 9, 11, 4, kernel, stride=stride, padding=padding,
                                use_relu=True)
        local = np.random.default_rng([93, stride, padding])
        q = shift_quantize_model(spec, init_params(spec, local, weight_scale=0.8), 3)
        assert _check_layers(q, local.normal(0, 2, size=spec.input_shape)) == 2

    def test_clamped_encodings(self):
        clamped = 0
        for trial in range(8):
            local = np.random.default_rng([92, trial])
            spec, params = make_small_model(local, weight_scale=0.8)
            q = encode_model(shift_quantize_model(spec, params, 4), int(local.integers(1, 3)))
            clamped += sum(e.encoding.clamp_count for e in q.layers())
            _check_layers(q, local.normal(0, 2, size=spec.input_shape))
        assert clamped > 0

    def test_repeated_shift_in_one_weight(self):
        spec = _single_conv(2)
        params = init_params(spec, np.random.default_rng(5))
        q = shift_quantize_model(spec, params, 3)
        # a clamped decode can repeat a term: 2^-1 + 2^-1 stands for one weight of 1.0
        params = list(q.entries[0].all_params())
        params[4] = ShiftQuantParam(sign=-1, shifts=(3, 3))
        q = dataclasses.replace(q, entries=(
            layer_from_params(q.entries[0].name, q.entries[0].shape, params),) + q.entries[1:])
        _check_layers(q, np.random.default_rng(6).normal(size=spec.input_shape))

    def test_channels_that_only_add_only_subtract_or_hold_no_terms(self):
        """A channel whose terms are all positive only adds, one whose terms are all
        negative only subtracts, and one with no terms keeps its bias alone; the
        accumulators and the outputs equal the Python-int product."""
        spec = _single_conv(3)
        params = init_params(spec, np.random.default_rng(21), weight_scale=0.8)
        q = shift_quantize_model(spec, params, 3)
        entry = q.entries[0]
        weights = list(entry.all_params())
        per_channel = len(entry.weights) // 3
        for index, param in enumerate(weights[:len(entry.weights)]):
            sign = (1, -1, 0)[index // per_channel]
            weights[index] = ZERO_PARAM if sign == 0 else ShiftQuantParam(
                sign=sign, shifts=param.shifts or (index % 5 + 1,))
        q = dataclasses.replace(q, entries=(
            layer_from_params(entry.name, entry.shape, weights),) + q.entries[1:])
        engine = ShiftAddEngine(q)
        plan = engine.stages[0].plan
        assert [(len(a), len(s)) for a, s in zip(plan.added, plan.subtracted)] == [
            (sum(p.term_count for p in weights[:per_channel]), 0),
            (0, sum(p.term_count for p in weights[per_channel:2 * per_channel])), (0, 0)]
        frame = np.random.default_rng(22).normal(0, 2, size=spec.input_shape)
        x = quantize_frame(frame, 8)
        cols, (oh, ow) = _im2col(x, spec.layers[0])
        w_int, b_int = _weight_ints(q.entries[0], q.frac_bits + q.int_bits, 8)
        acc = cols.astype(object) @ w_int.T.astype(object) + b_int.astype(object)
        for channel in (0, 1):  # the weighted sums take both signs
            sums = [int(v) - int(b_int[channel]) for v in acc[:, channel]]
            assert min(sums) < 0 < max(sums)
        kernel_cols = np.take(np.pad(x, ((0, 0), (1, 1), (1, 1))), engine.stages[0].gather)
        assert engine_module._shift_add(kernel_cols, plan).T.tolist() == acc.tolist()
        assert set(acc[:, 2].tolist()) == {int(b_int[2])}
        got, _ = engine.layer_forward("c", x)
        np.testing.assert_array_equal(
            got, np.array(_python_int_layer(q, q.entries[0], cols, 8, True)).T.reshape(-1, oh, ow))
        assert _check_layers(q, frame) == 2

    def test_all_zero_layers_give_empty_plans(self):
        spec = _single_conv(3)
        params = init_params(spec, np.random.default_rng(7))
        params.entries[0].weights[...] = 0.0
        params.entries[0].bias[...] = 0.25
        params.entries[3].weights[...] = 0.0
        q = shift_quantize_model(spec, params, 3)
        engine = ShiftAddEngine(q)
        for plan in (engine.stages[0].plan, engine.stages[-1].plan):
            assert len(plan.rows) == 0
            assert [len(terms) for terms in plan.added + plan.subtracted] \
                == [0] * (2 * len(plan.bias_acc))
        assert _check_layers(q, np.random.default_rng(8).normal(size=spec.input_shape)) == 2

    def test_position_blocks_split_a_layer(self, monkeypatch):
        spec = _single_conv(5, in_c=3)
        params = init_params(spec, np.random.default_rng(9), weight_scale=0.8)
        q = shift_quantize_model(spec, params, 3)
        frame = np.random.default_rng(10).normal(size=spec.input_shape)
        # a budget below one position's operands: one position per block, the minimum
        monkeypatch.setattr(engine_module, "CHUNK_ELEMENTS", 8)
        plan = ShiftAddEngine(q).stages[0].plan
        assert plan.block == 1
        _check_layers(q, frame)
        # a budget of four positions: the 6 x 7 positions in eleven blocks, the last one short
        monkeypatch.setattr(engine_module, "CHUNK_ELEMENTS", 4 * _widest(plan))
        assert ShiftAddEngine(q).stages[0].plan.block == 4
        _check_layers(q, frame)
        # and the Python-int product agrees on the same blocked layer
        x = quantize_frame(frame, 8)
        got, _ = ShiftAddEngine(q).layer_forward("c", x)
        cols, (oh, ow) = _im2col(x, spec.layers[0])
        np.testing.assert_array_equal(
            got, np.array(_python_int_layer(q, q.entries[0], cols, 8, True)).T.reshape(-1, oh, ow))


def _widest(plan):
    """The most rows one scratch array of ``_shift_add`` holds per position: the shifted
    operand block, or one channel's gather of the operands it adds or subtracts."""
    return max([len(plan.rows)] + [len(terms) for terms in plan.added + plan.subtracted])


def _operand_terms(plan):
    """Per output channel, the sorted (row, left shift, sign) of every term its operands
    reach: +1 for each operand it adds, -1 for each it subtracts."""
    def reached(terms, sign):
        return [(row, shift, sign) for row, shift in
                zip(plan.rows[terms].tolist(), plan.shift[terms, 0].tolist())]
    return [sorted(reached(added, 1) + reached(subtracted, -1))
            for added, subtracted in zip(plan.added, plan.subtracted)]


def _weight_terms(weights, out_channels, align):
    """Per output channel, the sorted (column, left shift, sign) of every weight term."""
    param = np.repeat(np.arange(len(weights.count)), weights.count)
    out, col = np.divmod(param, len(weights.count) // out_channels)
    sign = np.repeat(weights.sign, weights.count)
    want = [[] for _ in range(out_channels)]
    for o, c, amount, s in zip(out, col, align - weights.shift, sign):
        want[o].append((int(c), int(amount), int(s)))
    return [sorted(terms) for terms in want]


def test_plan_operands_reach_exactly_each_channels_terms():
    """Through its operands each output channel reaches the multiset of its weight terms,
    terms of one weight that a clamped encoding repeats counted twice. Each (row, left
    shift) operand is listed once, whatever the signs of the terms that use it, and
    every operand is used."""
    models = []
    for trial in range(8):
        local = np.random.default_rng([95, trial])
        spec, params = make_small_model(local, weight_scale=0.8)
        q = shift_quantize_model(spec, params, int(local.integers(1, 5)))
        models.append(encode_model(q, 1) if trial % 2 else q)
    spec = default_student_spec()
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, np.random.default_rng(18)))
    models.append(encode_model(shift_quantize_model(fspec, fparams, 3), 1))
    repeated = 0
    for q in models:
        align = q.frac_bits + q.int_bits
        for entry in q.layers():
            weights, _ = layer_terms(entry)
            plan = engine_module._shift_plan(entry.name, weights, np.zeros(entry.shape[0]), align)
            want = _weight_terms(weights, entry.shape[0], align)
            assert _operand_terms(plan) == want
            assert len(set(zip(plan.rows.tolist(), plan.shift[:, 0].tolist()))) == len(plan.rows)
            reached = np.concatenate((np.zeros(0, dtype=np.int64),) + plan.added + plan.subtracted)
            np.testing.assert_array_equal(np.unique(reached), np.arange(len(plan.rows)))
            repeated += sum(len(terms) - len(set(terms)) for terms in want)
    assert repeated > 0  # some weight holds two terms clamped to one magnitude


def test_default_student_blocks_stay_within_budget():
    """Every scratch array of a call, the operand block and each channel's gather,
    stays within CHUNK_ELEMENTS unless the block is the one-position minimum."""
    spec = default_student_spec()
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, np.random.default_rng(11)))
    engine = ShiftAddEngine(shift_quantize_model(fspec, fparams, 3))
    blocks = []
    for stage in engine.stages:
        if stage.plan is None:
            continue
        plan = stage.plan
        assert len(plan.added) == len(plan.subtracted) == len(plan.bias_acc)
        widest = _widest(plan)
        assert plan.block == 1 or plan.block * widest <= engine_module.CHUNK_ELEMENTS
        assert (plan.block + 1) * widest > engine_module.CHUNK_ELEMENTS
        positions = 1 if stage.gather is None else stage.gather.shape[1]
        blocks.append(-(-positions // plan.block))
    assert max(blocks) > 1  # the budget splits some layer of the default student
    # a channel can reach more terms than its layer has operands: one weight of four equal
    # terms, which the channel adds or subtracts four times
    for sign in (1, -1):
        repeated = Terms(sign=np.array([sign]), count=np.array([4]), shift=np.array([3, 3, 3, 3]))
        plan = engine_module._shift_plan("r", repeated, np.zeros(1, dtype=np.int64), 18)
        side, other = (plan.added, plan.subtracted)[::sign]
        assert (len(plan.rows), len(side[0]), len(other[0])) == (1, 4, 0)
        assert plan.block == engine_module.CHUNK_ELEMENTS // 4


def _python_int_layer(q, entry, cols, f_a, relu):
    """Requantized ``cols @ W_int.T + b_int`` in Python integers, which cannot wrap:
    one list of output-channel values per row of cols."""
    w_int, b_int = _weight_ints(entry, q.frac_bits + q.int_bits, f_a)
    acc = cols.astype(object) @ w_int.T.astype(object) + b_int.astype(object)
    return [[_requantize_int(int(v), q.frac_bits, relu) for v in row] for row in acc]


def _requantize_int(value, frac_bits, relu):
    quotient, remainder = divmod(value, 1 << frac_bits)
    half = 1 << (frac_bits - 1)
    quotient += remainder > half or (remainder == half and quotient % 2 == 1)
    quotient = max(-ACT_LIMIT, min(ACT_LIMIT, quotient))
    return max(quotient, 0) if relu else quotient


@pytest.mark.parametrize("bits", [1, 3])
def test_default_student_layers_match_oracle(bits):
    from shiftadd_dvs.model import default_student_spec, fold_model_batchnorm
    spec = default_student_spec()
    rng = np.random.default_rng(12)
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, rng))
    q = encode_model(shift_quantize_model(fspec, fparams, 3), bits)
    assert _check_layers(q, rng.normal(size=spec.input_shape)) == 5


@pytest.mark.parametrize("bits", [1, 3])
def test_engine_reads_the_encoding_as_its_decode(bits):
    """Reading bias + code directly equals running the decoded shifts, plans and logits alike."""
    spec = default_student_spec()
    rng = np.random.default_rng(13)
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, rng))
    q = encode_model(shift_quantize_model(fspec, fparams, 3), bits)
    assert sum(e.encoding.clamp_count for e in q.layers()) > 0
    decoded = decoded_model(q)
    decoded = dataclasses.replace(decoded, entries=tuple(
        None if e is None else dataclasses.replace(e, encoding=None) for e in decoded.entries))
    direct, plain = ShiftAddEngine(q), ShiftAddEngine(decoded)
    for a, b in zip(direct.stages, plain.stages):
        assert (a.plan is None) == (b.plan is None)
        if a.plan is None:
            continue
        for field in dataclasses.fields(a.plan):
            x, y = getattr(a.plan, field.name), getattr(b.plan, field.name)
            if field.name in ("added", "subtracted"):
                assert len(x) == len(y)
                for terms_a, terms_b in zip(x, y):
                    np.testing.assert_array_equal(terms_a, terms_b)
            else:
                np.testing.assert_array_equal(x, y)
    frame = rng.normal(size=spec.input_shape)
    np.testing.assert_array_equal(direct.forward(frame).logits, plain.forward(frame).logits)



def _proof_bounds(q):
    """Per weight layer, the overflow proof rederived in Python integers: the input bound
    it assumes, the worst accumulator it allows and the output bound it passes on."""
    align, bound, bounds = q.frac_bits + q.int_bits, ACT_LIMIT + 1, {}
    for entry in q.layers():
        w_int, b_int = _weight_ints(entry, align, q.f_a)
        worst = (w_int.shape[1] * bound * int(np.abs(w_int).max(initial=0))
                 + int(np.abs(b_int).max(initial=0)))
        passed = min((worst >> q.frac_bits) + 1, ACT_LIMIT)
        bounds[entry.name], bound = (min(bound, ACT_LIMIT), worst, passed), passed
    return bounds


def _edge_input(layer, w_int, b_int, in_shape, bound, polarity):
    """Every activation at polarity * bound, signed like the weight it meets on the
    window of the output channel with the largest L1 bound, at a position whose window
    holds the most real taps. Returns the input, that channel and position, and the
    flat input index of each of its taps (-1 on padding)."""
    channel = int(np.argmax([int(np.abs(w).sum()) + abs(int(b)) for w, b in zip(w_int, b_int)]))
    x = np.full(in_shape, polarity * bound, dtype=np.int64)
    if isinstance(layer, DenseSpec):
        position, taps = 0, np.arange(x.size)
    else:
        index, _ = _im2col(np.arange(1, x.size + 1).reshape(in_shape), layer)  # padding reads 0
        position = int(np.argmax(np.count_nonzero(index, axis=1)))
        taps = index[position] - 1
    real = taps >= 0
    x.flat[taps[real]] = polarity * np.where(w_int[channel][real] < 0, -bound, bound)
    return x, channel, position, taps


def _check_edge_layers(q):
    """Each weight layer of q, on its adversarial input of either polarity: the engine's
    accumulators and outputs and the streamed stage's outputs equal the Python-int
    oracle, the chosen accumulator reaches the channel's L1 bound over its real taps, no
    accumulator passes the proof's worst case, and every output stays within the bound
    the proof hands the next layer."""
    engine = ShiftAddEngine(q)
    stages = int_stages(engine)
    bounds = _proof_bounds(q)
    checked = 0
    for (layer, in_shape, _), entry, stage, config in zip(q.spec.geometry(), q.entries, stages,
                                                          engine.stages):
        if entry is None:
            continue
        bound, worst, passed = bounds[layer.name]
        w_int, b_int = _weight_ints(entry, q.frac_bits + q.int_bits, q.f_a)
        for polarity in (1, -1):
            x, channel, position, taps = _edge_input(layer, w_int, b_int, stage.in_shape,
                                                     bound, polarity)
            cols = x.reshape(1, -1) if isinstance(layer, DenseSpec) else _im2col(x, layer)[0]
            acc = cols.astype(object) @ w_int.T.astype(object) + b_int.astype(object)
            reach = bound * sum(abs(int(w)) for w in w_int[channel][taps >= 0])
            assert acc[position, channel] == polarity * reach + int(b_int[channel])
            assert max(abs(int(a)) for a in acc.flat) <= worst < 1 << 63
            kernel_cols = cols.T if config.gather is None else np.take(
                np.pad(x, ((0, 0),) + ((layer.padding, layer.padding),) * 2), config.gather)
            assert engine_module._shift_add(kernel_cols, config.plan).T.tolist() == acc.tolist()
            want = np.array(_python_int_layer(q, entry, cols, q.f_a, getattr(layer, "relu", False)))
            got, _ = engine.layer_forward(layer.name, x.reshape(in_shape))
            np.testing.assert_array_equal(got.reshape(len(want.T), -1).T, want)
            np.testing.assert_array_equal(_stream_stage(stage, x), want)
            assert int(np.abs(got).max()) <= passed
        checked += 1
    return checked


def test_edge_of_proof_wide_dense_layer():
    """The widest dense layer the proof accepts, every input at the 32-bit limit: its
    accumulators sit just below 2^63, where a wrap would show, through the engine and
    the whole streamed frame alike."""
    q = wide_dense_model(127)
    assert _check_edge_layers(q) == 1
    w_int, _ = _weight_ints(q.entries[1], q.frac_bits + q.int_bits, q.f_a)
    for polarity in (1, -1):
        acc = polarity * ACT_LIMIT * sum(int(w) for w in w_int[0])
        assert 1 << 62 < abs(acc) < 1 << 63
        frame = np.full(q.spec.input_shape, polarity * ACT_LIMIT / (1 << q.f_a))
        want = [_requantize_int(acc, q.frac_bits, False)] * 3
        np.testing.assert_array_equal(ShiftAddEngine(q).forward(frame).logits, want)
        np.testing.assert_array_equal(stream_quantized_forward(q, frame).logits, want)


def test_edge_of_proof_default_student_layers():
    spec = default_student_spec()
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, np.random.default_rng(19)))
    assert _check_edge_layers(encode_model(shift_quantize_model(fspec, fparams, 3), 3)) == 5


def test_edge_of_proof_strided_padded_chain():
    spec = ModelSpec(layers=(
        ConvSpec(name="a", out_channels=4, kernel=(3, 3), stride=2, padding=1, batchnorm=False),
        ConvSpec(name="b", out_channels=3, kernel=(3, 2), stride=2, padding=2, relu=False,
                 batchnorm=False),
        PoolLayerSpec(name="p", mode="max"),
        FlattenSpec(),
        DenseSpec(name="d", out_features=3),
    ), input_shape=(2, 13, 11), class_count=3)
    params = init_params(spec, np.random.default_rng(20), weight_scale=0.8)
    assert _check_edge_layers(shift_quantize_model(spec, params, 3)) == 3


def _padding_only_rows(layer, in_shape):
    """The im2col rows that read only padding, by enumeration: the rows of the im2col
    of a map that is 1 on every real element and 0 on its padding that are zero at
    every output position."""
    cols, _ = _im2col(np.ones(in_shape, dtype=np.int64), layer)
    return np.flatnonzero(~cols.any(axis=0)).tolist()


def _dead_row_model(geometry):
    """The quantized model of a dead-row geometry: the default student, folded and
    encoded, or one conv of (kernel, stride, padding) on a (C, H, W) map before a dense
    head."""
    if geometry is None:
        spec = default_student_spec()
        fspec, fparams = fold_model_batchnorm(spec, init_params(spec, np.random.default_rng(23)))
        return encode_model(shift_quantize_model(fspec, fparams, 3), 3)
    (c, h, w), kernel, stride, padding = geometry
    spec = single_conv_spec(c, h, w, 4, kernel, stride=stride, padding=padding, use_relu=True)
    params = init_params(spec, np.random.default_rng([24, h, w, stride, padding]),
                         weight_scale=0.8)
    return shift_quantize_model(spec, params, 3)


# (model, the dead (kernel row, kernel column) taps of each conv); a single conv's
# geometry is ((C, H, W), kernel, stride, padding)
DEAD_ROW_GEOMETRIES = [
    pytest.param(None, {"conv4": {(p, q) for p in range(3) for q in (0, 2)}},
                 id="default-student"),
    *(pytest.param(((3, 9, 11),) + g.values, {}, id=g.id) for g in STRIDED_GEOMETRIES),
    pytest.param(((2, 7, 1), (3, 3), 1, 1), {"conv1": {(p, q) for p in range(3) for q in (0, 2)}},
                 id="width-1"),
    # padding 3 >= kernel 2 at stride 4: the windows' second kernel row reads padded rows
    # 1 and 5, both padding, so the whole row is dead
    pytest.param(((2, 2, 7), (2, 2), 4, 3), {"conv1": {(1, 0), (1, 1)}}, id="pad-over-kernel"),
]


@pytest.mark.parametrize("geometry, dead_taps", DEAD_ROW_GEOMETRIES)
def test_padding_only_rows_match_enumeration(geometry, dead_taps):
    """The rows the engine finds from the geometry alone are the rows that read only
    padding, listed by enumeration; no plan reaches one, and the engine and the streamed
    stages still equal the Python-int oracle, on random and on edge-of-proof inputs."""
    q = _dead_row_model(geometry)
    engine = ShiftAddEngine(q)
    convs = 0
    for (layer, in_shape, _), stage in zip(q.spec.geometry(), engine.stages):
        if not isinstance(layer, ConvSpec):
            continue
        live = engine_module._live_rows(in_shape[0], layer.kernel, layer.stride, layer.padding,
                                        in_shape[1:])
        dead = _padding_only_rows(layer, in_shape)
        assert np.flatnonzero(~live).tolist() == dead
        (kp, kq), taps = layer.kernel, dead_taps.get(layer.name, set())
        assert dead == [row for row in range(in_shape[0] * kp * kq)
                        if divmod(row % (kp * kq), kq) in taps]
        assert not set(stage.plan.rows.tolist()) & set(dead)
        convs += 1
    assert convs == len(q.layers()) - 1
    frame = np.random.default_rng(25).normal(0, 2, size=q.spec.input_shape)
    assert _check_layers(q, frame) == _check_edge_layers(q) == convs + 1


@pytest.mark.parametrize("geometry, dead_taps", DEAD_ROW_GEOMETRIES)
def test_plans_drop_only_padding_terms_and_proofs_count_every_term(geometry, dead_taps):
    """Each plan reaches exactly its weight terms on rows that read a real element,
    while every stage's overflow proof covers the same inputs as the proof over all of
    its terms; on the default student only conv4 drops terms, all but kernel column 1's."""
    q = _dead_row_model(geometry)
    engine = ShiftAddEngine(q)
    bounds = _proof_bounds(q)
    align = q.frac_bits + q.int_bits
    every, reached = {}, {}
    for (layer, in_shape, _), entry, stage in zip(q.spec.geometry(), q.entries, engine.stages):
        if entry is None:
            continue
        # the first layer's bound is ACT_LIMIT + 1, which ``_proof_bounds`` caps
        assert min(stage.in_bound, ACT_LIMIT) == bounds[layer.name][0]
        weights, _ = layer_terms(entry)
        every[layer.name] = _weight_terms(weights, entry.shape[0], align)
        reached[layer.name] = _operand_terms(stage.plan)
        dead = set(_padding_only_rows(layer, in_shape)) if isinstance(layer, ConvSpec) else set()
        assert reached[layer.name] == [[term for term in terms if term[0] not in dead]
                                       for terms in every[layer.name]]
    assert {name for name in every if reached[name] != every[name]} == set(dead_taps)
    if geometry is None:
        # conv4's rows are (n, p, q) over a 3 x 3 kernel, so row % 3 is the kernel column
        assert reached["conv4"] == [[term for term in terms if term[0] % 3 == 1]
                                    for terms in every["conv4"]]
