import gc
import hashlib
import threading
import tracemalloc
import weakref
from collections import deque
from dataclasses import FrozenInstanceError, astuple, replace

import numpy as np
import pytest

from shiftadd_dvs.errors import ConfigurationError, ProtocolError
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
    model_forward,
)
from shiftadd_dvs.encoding import encode_model
from shiftadd_dvs.quantize import ShiftQuantParam, dequantize_model, shift_quantize_model
from shiftadd_dvs.saqm import load_quantized, save_quantized
from shiftadd_dvs import stream as stream_module
from shiftadd_dvs.stream import (
    LineBuffer,
    stream_float_forward,
    stream_quantized_forward,
)

from conftest import (STRIDED_GEOMETRIES, float_stages, int_stages, make_small_model,
                      make_small_spec, single_conv_spec, wide_dense_model, zero_weight_params)


def first_window_by_enumeration(p, q, s, h, w):
    """Oracle: element ordinal (1-based) at which the first window completes."""
    count = 0
    for r in range(h):
        for c in range(w):
            count += 1
            if (r >= p - 1 and c >= q - 1
                    and (r - (p - 1)) % s == 0 and (c - (q - 1)) % s == 0):
                return count
    return None


def window_ordinals_by_enumeration(p, q, s, h, w):
    out = []
    count = 0
    for r in range(h):
        for c in range(w):
            count += 1
            if (r >= p - 1 and c >= q - 1
                    and (r - (p - 1)) % s == 0 and (c - (q - 1)) % s == 0):
                out.append(count)
    return out


class TestLineBuffer:
    def test_conv1_geometry_first_window_at_25(self):
        buf = LineBuffer(1, 11, (3, 3), 1)
        fed = 0
        first = None
        for r in range(256):
            for c in range(11):
                fed += 1
                if buf.step(np.array([float(fed)])) is not None and first is None:
                    first = fed
                    break
            if first:
                break
        assert first == 25 == (3 - 1) * 11 + 3

    def test_degenerate_window_fires_every_element(self):
        buf = LineBuffer(2, 4, (1, 1), 1)
        for i in range(8):
            assert buf.step(np.array([i, -i], dtype=float)) is not None

    def test_pool_window_ordinals(self):
        buf = LineBuffer(1, 4, (2, 2), 2)
        ordinals = []
        for i in range(16):
            if buf.step(np.array([float(i)])) is not None:
                ordinals.append(i + 1)
        assert ordinals == [6, 8, 14, 16]

    def test_window_contents_match_array_slices(self, rng):
        h, w, p, q, s = 6, 5, 3, 2, 1
        plane = rng.normal(size=(2, h, w))
        buf = LineBuffer(2, w, (p, q), s)
        seen = []
        for r in range(h):
            for c in range(w):
                win = buf.step(plane[:, r, c])
                if win is not None:
                    seen.append(((r, c), win))
        assert len(seen) == (h - p + 1) * (w - q + 1)
        for (r, c), win in seen:
            np.testing.assert_array_equal(win, plane[:, r - p + 1:r + 1, c - q + 1:c + 1])

    def test_first_window_matches_enumeration_oracle(self, rng):
        for _ in range(30):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            h = int(rng.integers(p, p + 5))
            w = int(rng.integers(q, q + 5))
            buf = LineBuffer(1, w, (p, q), s)
            first = None
            for i in range(h * w):
                if buf.step(np.array([float(i)])) is not None:
                    first = i + 1
                    break
            assert first == first_window_by_enumeration(p, q, s, h, w)
            if s == 1:
                assert first == (p - 1) * w + q

    def test_out_of_order_position_rejected(self):
        buf = LineBuffer(1, 4, (2, 2), 1)
        buf.step(np.array([1.0]), pos=(0, 0))
        with pytest.raises(ProtocolError):
            buf.step(np.array([1.0]), pos=(1, 3))

    def test_unit_window_completes_on_every_step(self):
        buf = LineBuffer(1, 3, (1, 1), 1)
        np.testing.assert_array_equal(buf.step(np.array([2.0])), [[[2.0]]])


class TestFloatStreaming:
    def test_single_conv_constant_input_exact(self, rng):
        spec = single_conv_spec(1, 5, 6, 2, (3, 3), padding=0)
        params = init_params(spec, rng)
        # one-hot readout rows make the head an exact element selector, so the
        # comparison isolates the streamed convolution itself
        params.entries[2].weights[...] = 0.0
        params.entries[2].bias[...] = 0.0
        for i, j in enumerate((0, 5, 17)):
            params.entries[2].weights[i, j] = 1.0
        frame = np.full((1, 5, 6), 0.37)
        batch = model_forward(spec, params, frame)
        res = stream_float_forward(spec, params, frame)
        np.testing.assert_array_equal(res.logits, batch)

    def test_random_models_match_batch(self, rng):
        for _ in range(25):
            spec, params = make_small_model(rng, batchnorm=False)
            frame = rng.normal(size=spec.input_shape)
            batch = model_forward(spec, params, frame)
            res = stream_float_forward(spec, params, frame)
            np.testing.assert_array_equal(res.logits, batch)
            assert res.argmax == int(np.argmax(batch))

    def test_batchnorm_eval_streams_identically(self, rng):
        spec, params = make_small_model(rng, batchnorm=True)
        for entry in params.entries:
            if entry is not None and getattr(entry, "bn", None) is not None:
                entry.bn.mean[...] = rng.normal(size=entry.bn.mean.shape)
                entry.bn.var[...] = np.abs(rng.normal(size=entry.bn.var.shape)) + 0.3
        frame = rng.normal(size=spec.input_shape)
        batch = model_forward(spec, params, frame)
        res = stream_float_forward(spec, params, frame)
        np.testing.assert_array_equal(res.logits, batch)

    def test_conservation_per_stage(self, rng):
        """Each stage emits the elements its layer makes and reads those its predecessor
        emits, the first stage the frame's H*W channel vectors."""
        spec, params = make_small_model(rng, batchnorm=False)
        res = stream_float_forward(spec, params, rng.normal(size=spec.input_shape))
        shapes = [spec.input_shape] + spec.layer_shapes()
        emitted = spec.input_shape[1] * spec.input_shape[2]
        for layer, report, in_shape, out_shape in zip(spec.layers, res.stages,
                                                      shapes[:-1], shapes[1:]):
            if isinstance(layer, FlattenSpec):
                expected = in_shape[1] * in_shape[2]  # position-vector pass-through
            elif isinstance(layer, DenseSpec):
                expected = 1
            else:
                expected = out_shape[1] * out_shape[2]
            assert report.elements_out == expected
            assert report.elements_in == emitted, layer.name
            emitted = report.elements_out

    def test_occupancy_bounded_by_window_rows(self, rng):
        spec, params = make_small_model(rng, batchnorm=False)
        res = stream_float_forward(spec, params, rng.normal(size=spec.input_shape))
        shapes = [spec.input_shape] + spec.layer_shapes()
        for layer, report, in_shape in zip(spec.layers, res.stages, shapes):
            if isinstance(layer, ConvSpec):
                assert report.peak_occupancy <= layer.kernel[0] * in_shape[2]
            elif isinstance(layer, PoolLayerSpec):
                assert report.peak_occupancy <= layer.window[0] * in_shape[2]

    def test_first_output_timing_without_padding(self, rng):
        spec = single_conv_spec(2, 7, 9, 3, (3, 2), padding=0)
        params = init_params(spec, rng)
        res = stream_float_forward(spec, params, rng.normal(size=spec.input_shape))
        assert res.stages[0].first_output_at == (3 - 1) * 9 + 2

    def test_default_student_stage1_peak_within_capacity(self, rng):
        from shiftadd_dvs.model import default_student_spec, fold_model_batchnorm
        spec = default_student_spec()
        params = init_params(spec, rng)
        fspec, fparams = fold_model_batchnorm(spec, params)
        res = stream_float_forward(fspec, fparams, rng.normal(size=(1, 256, 11)))
        assert res.stages[0].peak_occupancy <= 3 * 11

    def test_dense_after_dense_streams_as_the_batch_paths(self, rng):
        """flatten -> dense -> dense streams on both paths, each dense reading the vector
        its predecessor emits, and gives the batch paths' logits bit for bit."""
        spec = ModelSpec(layers=(FlattenSpec(), DenseSpec(name="d1", out_features=4),
                                 DenseSpec(name="d2", out_features=3)),
                         input_shape=(2, 3, 2), class_count=3)
        params = init_params(spec, rng)
        for entry in params.entries[1:]:
            entry.bias[...] = rng.normal(size=entry.bias.shape)
        q = shift_quantize_model(spec, params, 3)
        for _ in range(5):
            frame = rng.normal(size=spec.input_shape)
            res = stream_float_forward(spec, params, frame)
            np.testing.assert_array_equal(res.logits, model_forward(spec, params, frame))
            int_res = stream_quantized_forward(q, frame)
            batch = ShiftAddEngine(q).forward(frame)
            np.testing.assert_array_equal(int_res.logits, batch.logits)
            assert int_res.saturations == batch.saturations
        reports = [(r.name, r.peak_occupancy, r.elements_in, r.elements_out, r.first_output_at,
                    r.padded_elements_in) for r in res.stages]
        assert reports == [("flatten", 0, 6, 6, 1, 6), ("d1", 4, 6, 1, 6, 6),
                           ("d2", 3, 1, 1, 1, 1)]
        assert res.modeled_cycles == 6 and int_res.stages == res.stages

    def test_wrong_frame_shape_rejected(self, rng):
        spec, params = make_small_model(rng, batchnorm=False)
        with pytest.raises(ProtocolError):
            stream_float_forward(spec, params, np.zeros((1, 3, 3)))

    @pytest.mark.parametrize("change", [-1, 1])
    def test_entry_count_mismatch_rejected(self, rng, change):
        """One entry too few (the default student without fc1) or too many is refused when
        the parameters are made, so no forward, batched or streamed, ever sees them."""
        spec = default_student_spec()
        params = init_params(spec, rng)
        entries = params.entries[:-1] if change < 0 else params.entries + (None,)
        message = f"layer fc1: the model has {len(entries)} entries for {len(spec.layers)} spec"
        with pytest.raises(ConfigurationError, match=message):
            replace(params, entries=entries)


def gain_model(rng, gain: float = 3.9, f_a: int = 8):
    """Two convolutions of gain ``gain`` and a dense head; at f_a=24 a frame of 100s saturates."""
    spec = ModelSpec(layers=(
        ConvSpec(name="gain1", out_channels=1, kernel=(1, 1), padding=0,
                 relu=False, batchnorm=False),
        ConvSpec(name="gain2", out_channels=2, kernel=(3, 3), padding=1,
                 relu=False, batchnorm=False),
        FlattenSpec(),
        DenseSpec(name="head", out_features=3),
    ), input_shape=(1, 4, 4), class_count=3)
    params = init_params(spec, rng)
    params.entries[0].weights[...] = gain
    params.entries[1].weights[...] = gain
    return shift_quantize_model(spec, params, 4, f_a=f_a)


class TestIntegerStreaming:
    def test_bit_identical_to_batch_engine(self, rng):
        for _ in range(15):
            spec, params = make_small_model(rng, batchnorm=False, weight_scale=0.8)
            q = shift_quantize_model(spec, params, 3)
            frame = rng.normal(size=spec.input_shape)
            batch = ShiftAddEngine(q).forward(frame)
            res = stream_quantized_forward(q, frame)
            np.testing.assert_array_equal(res.logits, batch.logits)
            assert res.argmax == batch.argmax

    def test_saturation_counters_match_batch(self, rng):
        q = gain_model(rng, f_a=24)
        frame = np.full(q.spec.input_shape, 100.0)
        batch = ShiftAddEngine(q).forward(frame)
        res = stream_quantized_forward(q, frame)
        # the first entry is the first layer to saturate, with its whole-layer count
        assert next(iter(batch.saturations.items())) == ("gain1", 16)
        assert list(res.saturations.items()) == list(batch.saturations.items())
        np.testing.assert_array_equal(res.logits, batch.logits)

    def test_saturations_follow_the_engines_layer_order(self, rng):
        """Stages run in layer order, so the first saturating layer is the engine's.

        gain1 saturates only on the frame's last row; gain2 saturates on every
        row. Were the stages interleaved element by element, gain2 would
        saturate before gain1 had seen the last row, and come first.
        """
        spec = ModelSpec(layers=(
            ConvSpec(name="gain1", out_channels=1, kernel=(1, 1), padding=0,
                     relu=False, batchnorm=False),
            ConvSpec(name="gain2", out_channels=2, kernel=(3, 3), padding=1,
                     relu=False, batchnorm=False),
            FlattenSpec(),
            DenseSpec(name="head", out_features=3),
        ), input_shape=(1, 6, 4), class_count=3)
        params = init_params(spec, rng)
        params.entries[0].weights[...] = 2.0
        params.entries[1].weights[...] = 3.9
        q = shift_quantize_model(spec, params, 4, f_a=24)
        frame = np.full(spec.input_shape, 10.0)
        frame[:, -1] = 100.0
        batch = ShiftAddEngine(q).forward(frame)
        res = stream_quantized_forward(q, frame)
        assert list(batch.saturations)[:2] == ["gain1", "gain2"]
        assert batch.saturations["gain1"] == 4  # the last row only
        assert list(res.saturations.items()) == list(batch.saturations.items())

    def test_stage_rejects_a_grid_of_the_wrong_length(self, rng):
        spec, params = make_small_model(rng, batchnorm=False)
        stage = int_stages(ShiftAddEngine(shift_quantize_model(spec, params, 3)))[0]
        c, h, w = stage.in_shape
        with pytest.raises(ProtocolError, match="input map"):
            stage.run(np.zeros((c, h - 1, w), dtype=np.int64), {})

    def test_float_and_integer_paths_keep_their_dtypes(self, rng):
        spec, params = make_small_model(rng, batchnorm=False)
        frame = rng.normal(size=spec.input_shape)
        float_res = stream_float_forward(spec, params, frame)
        q = shift_quantize_model(spec, params, 3)
        int_res = stream_quantized_forward(q, frame)
        assert float_res.logits.dtype.kind == "f"
        assert int_res.logits.dtype.kind == "i"


def window_stage_reports_by_enumeration(spec):
    """(first_output_at, peak_occupancy, padded_elements_in) of every conv and pool stage.

    Walks each stage's zero-padded grid element by element, from the
    definitions alone (no simulator code):

    - a P-row line buffer over rows Wp wide holds the last P * Wp elements
      fed; padding elements are virtual and take no storage, so the occupancy
      is the number of real elements among them;
    - a window completes at padded (r, c) when r >= P-1, c >= Q-1 and both
      offsets from there are multiples of the stride;
    - the top padding rows and a real row's left padding are fed with the real
      element after them, so a window completing on one of these leading
      virtual elements is credited to that next real element; any other
      element is credited to the real elements fed so far.
    """
    reports = []
    for layer, in_shape, _ in spec.geometry():
        if not isinstance(layer, (ConvSpec, PoolLayerSpec)):
            continue
        _, h, w = in_shape
        p, q = layer.kernel if isinstance(layer, ConvSpec) else layer.window
        s, pad = layer.stride, (layer.padding if isinstance(layer, ConvSpec) else 0)
        live = deque(maxlen=p * (w + 2 * pad))  # real flags of the stored elements
        fed = real_fed = peak = 0
        first = None
        for r in range(h + 2 * pad):
            for col in range(w + 2 * pad):
                real = pad <= r < pad + h and pad <= col < pad + w
                fed += 1
                real_fed += real
                live.append(real)
                peak = max(peak, sum(live))
                completes = (r >= p - 1 and col >= q - 1
                             and (r - (p - 1)) % s == 0 and (col - (q - 1)) % s == 0)
                if completes and first is None:
                    leading = not real and (r < pad or (r < pad + h and col < pad))
                    first = real_fed + leading
        reports.append((first, peak, fed))
    return reports


@pytest.mark.parametrize("kernel, stride, padding", STRIDED_GEOMETRIES)
def test_strided_padded_geometries(rng, kernel, stride, padding):
    spec = single_conv_spec(2, 9, 11, 3, kernel, stride=stride, padding=padding,
                            use_relu=True)
    params = init_params(spec, rng, weight_scale=0.8)
    frame = rng.normal(size=spec.input_shape)
    float_res = stream_float_forward(spec, params, frame)
    np.testing.assert_array_equal(float_res.logits, model_forward(spec, params, frame))
    q = shift_quantize_model(spec, params, 3)
    int_res = stream_quantized_forward(q, frame)
    np.testing.assert_array_equal(int_res.logits, ShiftAddEngine(q).forward(frame).logits)
    want = window_stage_reports_by_enumeration(spec)
    for res in (float_res, int_res):
        got = [(r.first_output_at, r.peak_occupancy, r.padded_elements_in)
               for layer, r in zip(spec.layers, res.stages) if isinstance(layer, ConvSpec)]
        assert got == want


def test_window_stage_reports_match_enumeration(rng):
    for _ in range(8):
        spec, params = make_small_model(rng)
        res = stream_float_forward(spec, params, rng.normal(size=spec.input_shape))
        got = [(r.first_output_at, r.peak_occupancy, r.padded_elements_in)
               for layer, r in zip(spec.layers, res.stages)
               if isinstance(layer, (ConvSpec, PoolLayerSpec))]
        assert got == window_stage_reports_by_enumeration(spec)


def pool_by_python_ints(x, mode, window, stride):
    """(C, OH, OW) nested lists: each window's maximum, or its sum divided by its
    area rounding halves up, over Python ints, one window at a time."""
    (p, q), area = window, window[0] * window[1]
    out = []
    for plane in x:
        rows = []
        for i in range(0, len(plane) - p + 1, stride):
            row = []
            for j in range(0, len(plane[0]) - q + 1, stride):
                taps = [plane[i + a][j + b] for a in range(p) for b in range(q)]
                row.append(max(taps) if mode == "max" else (sum(taps) + area // 2) // area)
            rows.append(row)
        out.append(rows)
    return out


# Pools whose window height differs from their stride; (2, 2)/3 over the
# (2, 7, 9) input below leaves its last two rows and its last column unread.
POOL_GEOMETRIES = [
    pytest.param("max", (3, 3), 2, id="max-3x3-s2"),
    pytest.param("avg", (2, 2), 1, id="avg-2x2-s1"),
    pytest.param("max", (2, 1), 1, id="max-2x1-s1"),
    pytest.param("avg", (2, 2), 3, id="avg-2x2-s3"),
]


def identity_pool_model(mode, window, stride, rng):
    """(spec, params, quantized model): the pool over a (2, 7, 9) input, then an
    identity readout, so the logits are the pool's output map."""
    size = 2 * ((7 - window[0]) // stride + 1) * ((9 - window[1]) // stride + 1)
    spec = ModelSpec(layers=(PoolLayerSpec(name="pool", mode=mode, window=window, stride=stride),
                             FlattenSpec(), DenseSpec(name="readout", out_features=size)),
                     input_shape=(2, 7, 9), class_count=size)
    params = init_params(spec, rng)
    params.entries[2].weights[...] = np.eye(size)
    params.entries[2].bias[...] = 0.0
    return spec, params, shift_quantize_model(spec, params, 1)


@pytest.mark.parametrize("mode, window, stride", POOL_GEOMETRIES)
def test_pools_match_a_python_int_loop(mode, window, stride):
    """The engine's pool and the streamed one equal a loop over windows in Python ints.

    An identity readout after the pool passes its map through to the logits
    unchanged, so the streamed logits are the streamed pool's output.
    """
    rng = np.random.default_rng([41, window[0], window[1], stride])
    spec, params, q = identity_pool_model(mode, window, stride, rng)
    frame = rng.integers(-4096, 4096, size=spec.input_shape) / 256.0
    x = quantize_frame(frame, 8)
    want = np.array(pool_by_python_ints(x.tolist(), mode, window, stride), dtype=np.int64)
    engine = ShiftAddEngine(q)
    np.testing.assert_array_equal(engine.layer_forward("pool", x)[0], want)
    np.testing.assert_array_equal(engine.forward(frame).logits, want.reshape(-1))
    res = stream_quantized_forward(q, frame)
    np.testing.assert_array_equal(res.logits, want.reshape(-1))
    float_res = stream_float_forward(spec, params, frame)
    np.testing.assert_array_equal(float_res.logits, model_forward(spec, params, frame))
    for r in (res, float_res):
        report = r.stages[0]
        got = (report.first_output_at, report.peak_occupancy, report.padded_elements_in)
        assert [got] == window_stage_reports_by_enumeration(spec)


@pytest.mark.parametrize("geometry", [pytest.param(None, id="default"), *(
    pytest.param(g.values, id=g.id) for g in STRIDED_GEOMETRIES)])
def test_slab_reads_stay_in_their_rows(geometry):
    """Output row i of every integer window stage reads only stack rows [i*P, (i+1)*P).

    The stack holds one P-row slab per output row, so a window reading
    outside its own slab would read another row's buffered input. A conv
    reads through its gather; a pool reads tap row pi of output row i at
    stack row i * (row stride) + pi.
    """
    if geometry is None:
        spec = default_student_spec()
        spec, params = fold_model_batchnorm(spec, init_params(spec, np.random.default_rng(17)))
    else:
        kernel, stride, padding = geometry
        spec = single_conv_spec(2, 9, 11, 3, kernel, stride=stride, padding=padding)
        params = init_params(spec, np.random.default_rng(17))
    engine = ShiftAddEngine(shift_quantize_model(spec, params, 3))
    checked = 0
    for (layer, in_shape, out_shape), stage in zip(spec.geometry(),
                                                   int_stages(engine)):
        if not isinstance(layer, (ConvSpec, PoolLayerSpec)):
            continue
        (p, q), s = layer.kernel if isinstance(layer, ConvSpec) else layer.window, layer.stride
        _, oh, ow = out_shape
        width = q + (ow - 1) * s
        bound = stage.compute.keywords["stage"]
        if isinstance(layer, PoolLayerSpec):
            row_stride, col_stride = bound.layer.stride
            assert col_stride == s
            stack_row = np.arange(oh)[:, None] * row_stride + np.arange(p)[None, :]
            output_row = np.broadcast_to(np.arange(oh)[:, None], stack_row.shape)
        else:
            gather = bound.gather
            assert gather.shape == (in_shape[0] * p * q, oh * ow)
            assert gather.min() >= 0 and gather.max() < in_shape[0] * oh * p * width
            stack_row = gather // width % (oh * p)
            output_row = np.broadcast_to(np.arange(oh * ow) // ow, gather.shape)
        assert np.array_equal(stack_row // p, output_row)
        checked += 1
    assert checked == sum(isinstance(layer, (ConvSpec, PoolLayerSpec)) for layer in spec.layers)


def check_ring_schedule(layer, stage, x):
    """Steps a fresh LineBuffer over the stage's padded input, padding virtual, and
    compares every window it completes, and its occupancy peak, with the stage's
    precomputed schedule: window (i, j) is columns [j*S, j*S+Q) of slab i."""
    (p, q), s = layer.kernel if isinstance(layer, ConvSpec) else layer.window, layer.stride
    pad = layer.padding if isinstance(layer, ConvSpec) else 0
    c, h, w = x.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, pad:pad + h, pad:pad + w] = x
    buffer = LineBuffer(c, w + 2 * pad, (p, q), s, dtype=x.dtype)
    windows = []
    for r, col in np.ndindex(padded.shape[1:]):
        real = pad <= r < pad + h and pad <= col < pad + w
        window = buffer.step(padded[:, r, col], virtual=not real, pos=(r, col))
        if window is not None:
            windows.append(window)
    slab_pad, rows, cols = stage.slabs
    assert slab_pad == pad
    stack = padded[:, rows, cols]
    oh, ow = len(rows) // p, (stack.shape[2] - q) // s + 1
    want = [stack[:, i * p:(i + 1) * p, j * s:j * s + q] for i in range(oh) for j in range(ow)]
    assert len(windows) == len(want) == stage.report.elements_out
    np.testing.assert_array_equal(np.stack(windows), np.stack(want))
    assert buffer.peak_real == stage.report.peak_occupancy


@pytest.mark.parametrize("case", [pytest.param(None, id="default"), *(
    pytest.param(("conv", *g.values), id=g.id) for g in STRIDED_GEOMETRIES), *(
    pytest.param(("pool", *g.values), id=g.id) for g in POOL_GEOMETRIES)])
def test_ring_schedule_matches_line_buffer_steps(case):
    """Every float and integer window stage reads the windows a line buffer hands out."""
    rng = np.random.default_rng(43)
    if case is None:
        _, spec, params, q, frame = next(_pinned_inputs())
    else:
        if case[0] == "conv":
            spec = single_conv_spec(2, 9, 11, 3, case[1], stride=case[2], padding=case[3],
                                    use_relu=True)
            params = init_params(spec, rng, weight_scale=0.8)
            q = shift_quantize_model(spec, params, 3)
        else:
            spec, params, q = identity_pool_model(*case[1:], rng)
        frame = rng.normal(size=spec.input_shape)
    engine = ShiftAddEngine(q)
    checked = 0
    for stages, x in ((float_stages(spec, params), frame),
                      (int_stages(engine), quantize_frame(frame, engine.f_a))):
        for layer, stage in zip(spec.layers, stages):
            if isinstance(layer, (ConvSpec, PoolLayerSpec)):
                check_ring_schedule(layer, stage, x)
                checked += 1
            x = stage.run(x, {})
    assert checked == 2 * sum(isinstance(layer, (ConvSpec, PoolLayerSpec))
                              for layer in spec.layers)


def test_frames_call_no_line_buffer_method(monkeypatch):
    """A streamed frame reads its precomputed schedule; it neither builds nor steps a LineBuffer."""
    calls = []

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return wrapper

    for name, method in list(vars(LineBuffer).items()):
        if callable(method):
            monkeypatch.setattr(LineBuffer, name, counting(name, method))
    _, spec, params, q, frame = next(_pinned_inputs())
    stream_quantized_forward(q, frame)
    stream_float_forward(spec, params, frame)
    assert calls == []
    LineBuffer(1, 3, (1, 1)).step(np.array([2.0]))
    assert calls == ["__init__", "step"]  # the counters work


def test_streaming_retains_no_memory():
    """Streaming frame after frame holds nothing back: traced memory stays flat."""
    spec = default_student_spec()
    rng = np.random.default_rng(31)
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, rng))
    q = encode_model(shift_quantize_model(fspec, fparams, 3), 3)
    frames = rng.normal(size=(4, *spec.input_shape))
    tracemalloc.start()
    try:
        for i in range(40):
            if i == 5:
                settled = tracemalloc.get_traced_memory()[0]
            stream_quantized_forward(q, frames[i % len(frames)])
        grown = tracemalloc.get_traced_memory()[0] - settled
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024, f"{grown} bytes retained over 35 frames"


def test_alternating_models_retain_no_memory():
    """Alternating frames of two models, each call on a fresh copy of one of them (so every
    call builds a pipeline, kept by a model that is then dropped): traced memory stays flat."""
    spec = default_student_spec()
    rng = np.random.default_rng(37)
    models = []
    for _ in range(2):
        fspec, fparams = fold_model_batchnorm(spec, init_params(spec, rng))
        models.append(encode_model(shift_quantize_model(fspec, fparams, 3), 3))
    frame = rng.normal(size=spec.input_shape)
    tracemalloc.start()
    try:
        for i in range(30):
            if i == 6:
                settled = tracemalloc.get_traced_memory()[0]
            q = models[i % 2]
            stream_quantized_forward(
                replace(q, entries=[e if e is None else replace(e) for e in q.entries]), frame)
        grown = tracemalloc.get_traced_memory()[0] - settled
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024, f"{grown} bytes retained over 24 frames"


def test_dropped_model_frees_its_pipeline(rng):
    """The pipeline a model keeps does not refer back to it: dropping the model frees
    both at once, with the cyclic garbage collector off."""
    spec, params = make_small_model(rng, batchnorm=False)
    q = shift_quantize_model(spec, params, 3)
    stream_quantized_forward(q, rng.normal(size=spec.input_shape))
    model, pipeline = weakref.ref(q), weakref.ref(q.stream_pipeline)
    gc.disable()
    try:
        del q
        assert model() is None and pipeline() is None
    finally:
        gc.enable()


def test_timed_paths_build_no_scalar_parameters(tmp_path, monkeypatch):
    """Loading a SAQM file, building the engine and streaming a frame run on arrays only:
    not one ShiftQuantParam is constructed (the scalar views are for inspection)."""
    spec = default_student_spec()
    rng = np.random.default_rng(33)
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, rng))
    save_quantized(tmp_path / "m.saqm", encode_model(shift_quantize_model(fspec, fparams, 3), 3))
    built = []
    init = ShiftQuantParam.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ShiftQuantParam, "__init__", counting_init)
    q = load_quantized(tmp_path / "m.saqm", fspec)
    ShiftAddEngine(q)
    stream_quantized_forward(q, rng.normal(size=spec.input_shape))
    assert built == []
    assert q.layers()[0].weights and built  # the counter works: a view does build them


class TestEngineChecks:
    """The simulator accepts exactly the models ShiftAddEngine accepts."""

    @staticmethod
    def _model(rng):
        spec, params = make_small_model(rng, batchnorm=False)
        return shift_quantize_model(spec, params, 3), rng.normal(size=spec.input_shape)

    def test_overflowing_model_rejected(self):
        q = wide_dense_model(129)
        with pytest.raises(ConfigurationError, match="layer d: worst-case accumulator"):
            stream_quantized_forward(q, np.zeros(q.spec.input_shape))

    @pytest.mark.parametrize("f_a", [25, -1])
    def test_f_a_outside_engine_range_rejected(self, rng, f_a):
        """A model is checked once, when made, and cannot be changed afterwards, so no
        model out of range reaches the engine or the simulator."""
        q, frame = self._model(rng)
        message = rf"f_a must be in \[0, 24\], got {f_a}"
        with pytest.raises(ConfigurationError, match=message):
            replace(q, f_a=f_a)
        with pytest.raises(ConfigurationError, match=message):
            shift_quantize_model(q.spec, dequantize_model(q), 3, f_a=f_a)
        with pytest.raises(FrozenInstanceError):
            q.f_a = f_a
        np.testing.assert_array_equal(stream_quantized_forward(q, frame).logits,
                                      ShiftAddEngine(q).forward(frame).logits)

    def test_unfolded_batchnorm_rejected(self):
        # the same random draws give the same shapes with and without batchnorm
        plain = make_small_spec(np.random.default_rng(8))
        with_bn = make_small_spec(np.random.default_rng(8), batchnorm=True)
        q = shift_quantize_model(plain, init_params(plain, np.random.default_rng(9)), 3)
        with pytest.raises(ConfigurationError, match="fold batchnorm"):
            stream_quantized_forward(replace(q, spec=with_bn), np.zeros(plain.input_shape))


def count_builds(monkeypatch) -> list[str]:
    """Records "engine" for every ShiftAddEngine the simulator builds and "stages" for
    every stage list; engines the test builds itself are not counted."""
    built = []
    build_stages = stream_module._build_stages

    class CountedEngine(ShiftAddEngine):
        def __init__(self, *args, **kwargs):
            built.append("engine")
            super().__init__(*args, **kwargs)

    def counting_stages(*args):
        built.append("stages")
        return build_stages(*args)

    monkeypatch.setattr(stream_module, "ShiftAddEngine", CountedEngine)
    monkeypatch.setattr(stream_module, "_build_stages", counting_stages)
    return built


class TestPipelineReuse:
    """Each model keeps its engine and stages; a changed model is a new one, with a
    pipeline of its own. Each frame counts its own saturations."""

    @staticmethod
    def _expect(q, frame):
        return ShiftAddEngine(q).forward(frame)

    def test_second_call_builds_nothing(self, rng, monkeypatch):
        spec, params = make_small_model(rng, batchnorm=False)
        q = shift_quantize_model(spec, params, 3)
        frames = rng.normal(size=(3, *spec.input_shape))
        built = count_builds(monkeypatch)
        results = [stream_quantized_forward(q, frame) for frame in frames]
        assert built == ["engine", "stages"]
        copy = replace(q)  # a model of its own, which keeps its own pipeline
        for frame in frames:
            stream_quantized_forward(copy, frame)
            stream_quantized_forward(q, frame)
        assert built == ["engine", "stages"] * 2
        for frame, res in zip(frames, results):
            np.testing.assert_array_equal(res.logits, self._expect(q, frame).logits)

    @pytest.mark.parametrize("change", ["entry", "f_a", "frac_bits", "spec"])
    def test_changed_key_field_rebuilds(self, rng, monkeypatch, change):
        """A field cannot be assigned; the model ``dataclasses.replace`` makes with it
        changed builds its own pipeline, and the original keeps its own."""
        q, other = gain_model(rng, f_a=24), gain_model(rng, gain=2.0, f_a=24)
        frame = np.ones(q.spec.input_shape)  # the head saturates at gain 3.9 and f_a 24 only
        before = stream_quantized_forward(q, frame)
        assert before.saturations
        field, value = {
            "entry": ("entries", q.entries[:1] + other.entries[1:2] + q.entries[2:]),
            "f_a": ("f_a", 20),
            "frac_bits": ("frac_bits", 18),
            "spec": ("spec", replace(q.spec, layers=q.spec.layers[:1] + (
                replace(q.spec.layers[1], relu=True),) + q.spec.layers[2:])),
        }[change]
        with pytest.raises(FrozenInstanceError):
            setattr(q, field, value)
        built = count_builds(monkeypatch)
        changed = replace(q, **{field: value})
        res = stream_quantized_forward(changed, frame)
        assert built == ["engine", "stages"]
        want = self._expect(changed, frame)
        np.testing.assert_array_equal(res.logits, want.logits)
        assert res.saturations == want.saturations
        if change in ("entry", "f_a"):
            assert res.saturations != before.saturations  # a shared pipeline would show
        stream_quantized_forward(changed, frame)
        again = stream_quantized_forward(q, frame)
        assert built == ["engine", "stages"]
        np.testing.assert_array_equal(again.logits, before.logits)
        assert again.saturations == before.saturations

    def test_overflowing_model_raises_on_every_call(self, rng, monkeypatch):
        spec, params = make_small_model(rng, batchnorm=False)
        q = shift_quantize_model(spec, params, 3)
        frame = rng.normal(size=spec.input_shape)
        want = stream_quantized_forward(q, frame).logits
        wide = wide_dense_model(129)
        built = count_builds(monkeypatch)
        for _ in range(3):
            with pytest.raises(ConfigurationError, match="layer d: worst-case accumulator"):
                stream_quantized_forward(wide, np.zeros(wide.spec.input_shape))
        assert built == ["engine"] * 3
        assert wide.stream_pipeline is None  # no failed build is kept
        np.testing.assert_array_equal(stream_quantized_forward(q, frame).logits, want)
        assert built == ["engine"] * 3

    def test_clean_frame_after_saturating_frame_reports_none(self, rng):
        q = gain_model(rng, f_a=24)
        hot, clean = np.full(q.spec.input_shape, 100.0), np.full(q.spec.input_shape, 0.1)
        want = self._expect(q, hot).saturations
        assert want and not self._expect(q, clean).saturations
        first = stream_quantized_forward(q, hot)
        second = stream_quantized_forward(q, clean)
        assert first.saturations == want
        assert second.saturations == {}
        assert stream_quantized_forward(q, hot).saturations == want

    def test_two_threads_count_their_own_saturations(self, rng):
        q = gain_model(rng, f_a=24)
        frames = {"hot": np.full(q.spec.input_shape, 100.0),
                  "clean": np.full(q.spec.input_shape, 0.1)}
        want = {name: self._expect(q, frame).saturations for name, frame in frames.items()}
        assert want["hot"] and not want["clean"]
        stream_quantized_forward(q, frames["clean"])  # both threads reuse these stages
        barrier = threading.Barrier(2)
        got = {}

        def stream(name):
            barrier.wait()
            got[name] = [stream_quantized_forward(q, frames[name]).saturations
                         for _ in range(30)]

        threads = [threading.Thread(target=stream, args=(name,)) for name in frames]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == {name: [want[name]] * 30 for name in frames}


def test_zero_model_streams_zero_logits(rng):
    spec, params = make_small_model(rng, batchnorm=False)
    zero = zero_weight_params(spec)
    res = stream_float_forward(spec, zero, rng.normal(size=spec.input_shape))
    np.testing.assert_array_equal(res.logits, np.zeros(3))
    assert res.argmax == 0


def test_modeled_cycles_is_max_stage_events(rng):
    spec, params = make_small_model(rng, batchnorm=False)
    res = stream_float_forward(spec, params, rng.normal(size=spec.input_shape))
    assert res.modeled_cycles == max(s.padded_elements_in for s in res.stages)


# SHA-256 over the streamed logits (dtype and bytes), modeled_cycles and every
# StageReport tuple, float path first, then integer. The integer digests date
# from before the stages were merged into one class per layer kind; the float
# ones from when the float dense stage became ``layer_forward`` on the whole
# map, which made the float logits equal ``model_forward``'s (checked below).
STREAM_SHA256 = {
    "default": ("2155354551950514d09790a2a622f8a75f05d4ac75ccb5cda7463c762f8b07a5",
                "de0a5c16724a4ee7c2a568c78a691459a6f8669dd260a40f6436eec1e2669146"),
    "small-1": ("36653b531b028bbfbb3b266e24e8b9fc1ed0d06255839d1e02a57a4b44410fd3",
                "4f62740b1d0e5c11d69bb16e9956f2752a45b3e17872be0474604f87842f4d44"),
    "small-4": ("6fc30a23a122d9f094be7a9160c80a6d5cefe887367251dc7a337a448a001229",
                "03c71469ae159c8bbb7257977bcbb748a19d2409ece81a92460dbc07116d6c13"),
    "small-5": ("02e09633cadeba0dfd99d8cf8a93e1235ce54b3298d65d85a6cfb8b0402fae4f",
                "a39dc9381278175830f45c91a2d5ae22d0a29fe77f4af939e0a41a3226810d85"),
}


def _stream_digest(result) -> str:
    h = hashlib.sha256(result.logits.dtype.str.encode() + result.logits.tobytes())
    h.update(repr(result.modeled_cycles).encode())
    for report in result.stages:
        h.update(repr(astuple(report)).encode())
    return h.hexdigest()


def _pinned_inputs():
    """(name, float spec and params, folded quantized model, frame) for each pinned input."""
    spec = default_student_spec()
    rng = np.random.default_rng(2024)
    fspec, fparams = fold_model_batchnorm(spec, init_params(spec, rng))
    q = encode_model(shift_quantize_model(fspec, fparams, 3), 3)
    yield "default", fspec, fparams, q, rng.normal(size=spec.input_shape)
    for seed in (1, 4, 5):
        local = np.random.default_rng(seed)
        spec, params = make_small_model(local, batchnorm=True, weight_scale=0.8)
        for entry in params.entries:
            if entry is None:
                continue
            entry.bias[...] = local.normal(0, 0.3, size=entry.bias.shape)
            if entry.bn is not None:
                entry.bn.mean[...] = local.normal(0, 0.3, size=entry.bn.mean.shape)
                entry.bn.var[...] = np.abs(local.normal(size=entry.bn.var.shape)) + 0.5
        fspec, fparams = fold_model_batchnorm(spec, params)
        q = encode_model(shift_quantize_model(fspec, fparams, 3), 3)
        yield f"small-{seed}", spec, params, q, local.normal(0, 2, size=spec.input_shape)


def test_streamed_outputs_are_pinned():
    for name, spec, params, q, frame in _pinned_inputs():
        got = (_stream_digest(stream_float_forward(spec, params, frame)),
               _stream_digest(stream_quantized_forward(q, frame)))
        assert got == STREAM_SHA256[name], name


def test_float_stream_equals_batch_on_pinned_inputs():
    """The float stream's logits are ``model_forward``'s, bit for bit, on every pinned input
    (the default student folded, the small models with unfolded batchnorm)."""
    for name, spec, params, _, frame in _pinned_inputs():
        res = stream_float_forward(spec, params, frame)
        np.testing.assert_array_equal(res.logits, model_forward(spec, params, frame), err_msg=name)
