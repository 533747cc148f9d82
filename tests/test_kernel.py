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
from shiftadd_dvs.encoding import decoded_model, encode_model, layer_terms
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
from shiftadd_dvs.quantize import ShiftQuantParam, shift_quantize_model
from shiftadd_dvs.stream import _build_float_stages, _build_int_stages

from conftest import STRIDED_GEOMETRIES, layer_from_params, make_small_model, single_conv_spec

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
    """The rows of the map ``stage`` returns for the (C, H, W) input x: one channel
    vector per output position, row-major (a dense stage's output is one row)."""
    out = stage.run(x)
    return out.reshape(len(out), -1).T


def _check_layers(qmodel, frame, f_a=8):
    """Every conv and dense layer of the engine and of the streamed stages equals the oracle.

    Each streamed stage is fed the layer's unpadded input map, which it pushes
    row by row, so its virtual padding and its line buffer are part of what is
    checked.
    """
    engine = ShiftAddEngine(qmodel, f_a=f_a)
    align = qmodel.frac_bits + qmodel.int_bits
    stages = _build_int_stages(engine, {})
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
            streamed = _stream_stage(stage, x.reshape(stage.in_shape))
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
    for layer, entry, stage in zip(spec.layers, params.entries, _build_float_stages(spec, params)):
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
        q.entries[0] = layer_from_params(q.entries[0].name, q.entries[0].shape, params)
        _check_layers(q, np.random.default_rng(6).normal(size=spec.input_shape))

    def test_all_zero_layers_give_empty_plans(self):
        spec = _single_conv(3)
        params = init_params(spec, np.random.default_rng(7))
        params.entries[0].conv.kernel[...] = 0.0
        params.entries[0].conv.bias[...] = 0.25
        params.entries[3].weights[...] = 0.0
        q = shift_quantize_model(spec, params, 3)
        engine = ShiftAddEngine(q)
        assert engine.stages[0].plan.chunks == ()
        assert engine.stages[-1].plan.chunks == ()
        assert _check_layers(q, np.random.default_rng(8).normal(size=spec.input_shape)) == 2

    def test_chunk_boundaries_split_a_layer(self, monkeypatch):
        spec = _single_conv(5, in_c=3)
        params = init_params(spec, np.random.default_rng(9), weight_scale=0.8)
        q = shift_quantize_model(spec, params, 3)
        frame = np.random.default_rng(10).normal(size=spec.input_shape)
        # a budget below one channel's gathered block: one output channel per chunk
        monkeypatch.setattr(engine_module, "CHUNK_ELEMENTS", 64)
        engine = ShiftAddEngine(q)
        chunks = engine.stages[0].plan.chunks
        assert len(chunks) == 5
        assert [len(c.channels) for c in chunks] == [1] * 5
        _check_layers(q, frame)
        # a budget of about two channels: chunks cover several channels each
        terms = sum(len(c.rows) for c in chunks)
        monkeypatch.setattr(engine_module, "CHUNK_ELEMENTS", terms * 42 // 2)
        chunks = ShiftAddEngine(q).stages[0].plan.chunks
        assert 1 < len(chunks) < 5
        _check_layers(q, frame)


def _lexsorted_terms(weights, out_channels, align):
    """(out-channel, column, left shift, negative) of every term, by a 4-key lexsort."""
    amount = align - weights.shift
    out, col = np.divmod(np.repeat(np.arange(len(weights.count)), weights.count),
                         len(weights.count) // out_channels)
    negative = np.repeat(weights.sign < 0, weights.count)
    order = np.lexsort((col, negative, amount, out))
    return out[order], col[order], amount[order], negative[order]


def test_layer_terms_order_matches_a_lexsort():
    """One stable sort on a composite key orders the terms exactly as a 4-key lexsort,
    terms of one weight that a clamped encoding repeats included."""
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
            want = _lexsorted_terms(weights, entry.shape[0], align)
            got = engine_module._layer_terms(entry.name, weights, entry.shape[0], align)
            for x, y in zip(got, want):
                np.testing.assert_array_equal(x, y)
                assert x.dtype == y.dtype
            out, col, amount, _ = want
            repeated += int(np.sum((out[1:] == out[:-1]) & (col[1:] == col[:-1])
                                   & (amount[1:] == amount[:-1])))
    assert repeated > 0  # some weight holds two terms clamped to one magnitude


def test_default_student_chunks_stay_within_budget():
    from shiftadd_dvs.model import default_student_spec, fold_model_batchnorm
    spec = default_student_spec()
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, np.random.default_rng(11)))
    engine = ShiftAddEngine(shift_quantize_model(fspec, fparams, 3))
    for stage in engine.stages:
        if stage.plan is None:
            continue
        positions = 1 if stage.gather is None else stage.gather.shape[1]
        for chunk in stage.plan.chunks:
            assert (len(chunk.channels) == 1
                    or len(chunk.rows) * positions <= engine_module.CHUNK_ELEMENTS)
        assert sum(len(c.channels) for c in stage.plan.chunks) == len(stage.plan.bias_acc)


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
    from shiftadd_dvs.model import default_student_spec, fold_model_batchnorm
    spec = default_student_spec()
    rng = np.random.default_rng(13)
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, rng))
    q = encode_model(shift_quantize_model(fspec, fparams, 3), bits)
    assert sum(e.encoding.clamp_count for e in q.layers()) > 0
    decoded = decoded_model(q)
    decoded.entries = [None if e is None else dataclasses.replace(e, encoding=None)
                       for e in decoded.entries]
    direct, plain = ShiftAddEngine(q), ShiftAddEngine(decoded)
    for a, b in zip(direct.stages, plain.stages):
        assert (a.plan is None) == (b.plan is None)
        if a.plan is None:
            continue
        for x, y in zip(a.terms, b.terms):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.plan.bias_acc, b.plan.bias_acc)
        assert len(a.plan.chunks) == len(b.plan.chunks)
        for ca, cb in zip(a.plan.chunks, b.plan.chunks):
            for field in dataclasses.fields(ca):
                np.testing.assert_array_equal(getattr(ca, field.name), getattr(cb, field.name))
    frame = rng.normal(size=spec.input_shape)
    np.testing.assert_array_equal(direct.forward(frame).logits, plain.forward(frame).logits)
