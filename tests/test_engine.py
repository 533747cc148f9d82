import ast
import inspect
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from shiftadd_dvs import engine as engine_module
from shiftadd_dvs import layers as layers_module
from shiftadd_dvs import stream as stream_module
from shiftadd_dvs.engine import (
    ACT_LIMIT,
    FixedActivation,
    ShiftAddEngine,
    _rshift_round_half_even,
    quantize_activation,
    quantize_frame,
    shift_add_mul,
)
from shiftadd_dvs.errors import ConfigurationError, DomainError, RangeError, ShiftAddError
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
    param_arrays,
)
from shiftadd_dvs.quantize import (
    ZERO_PARAM,
    QuantizedModel,
    ShiftQuantParam,
    dequantize_model,
    shift_quantize_model,
    shift_quantize_param,
)

from conftest import (STRIDED_GEOMETRIES, int_stages, layer_from_params, make_small_model,
                      single_conv_spec, wide_dense_model)


class TestQuantizeActivation:
    def test_exact_binary_fraction(self):
        assert quantize_activation(0.5, 8).value == 128

    def test_rounding(self):
        assert quantize_activation(0.3, 8).value == 77  # 76.8 rounds up

    def test_sign_symmetry(self):
        assert quantize_activation(-1.0, 8).value == -256

    def test_half_to_even(self):
        assert quantize_activation(0.5 / 256, 8).value == 0   # 0.5 -> 0
        assert quantize_activation(1.5 / 256, 8).value == 2   # 1.5 -> 2

    def test_overflow(self):
        with pytest.raises(RangeError):
            quantize_activation(2.0 ** 24, 8)


class TestShiftAddMul:
    def test_integer_weight_example(self):
        # act 3, weight 5 = 2^2 + 2^0 at F_w = 0: shifts are I - e with I = 2
        q = ShiftQuantParam(sign=1, shifts=(0, 2))
        assert shift_add_mul(3, q, frac_bits=0, int_bits=2) == 15

    def test_negative_weight(self):
        # act -7, weight -2 = -(2^1): shift magnitude = I - 1 = 1
        q = ShiftQuantParam(sign=-1, shifts=(1,))
        assert shift_add_mul(-7, q, frac_bits=0, int_bits=2) == 14

    def test_zero_weight(self):
        assert shift_add_mul(12345, ShiftQuantParam(0, ()), 16, 2) == 0

    def test_accepts_fixed_activation(self):
        act = FixedActivation(value=3, f_a=8)
        q = ShiftQuantParam(sign=1, shifts=(0, 2))
        assert shift_add_mul(act, q, frac_bits=0, int_bits=2) == 15

    def test_equals_integer_product_sample(self, rng):
        frac_bits, int_bits = 16, 2
        align = frac_bits + int_bits
        for _ in range(10000):
            act = int(rng.integers(-(2 ** 20) + 1, 2 ** 20))
            count = int(rng.integers(1, 6))
            shifts = tuple(sorted(rng.choice(np.arange(1, align + 1), size=count,
                                             replace=False).tolist()))
            sign = int(rng.choice([-1, 1]))
            q = ShiftQuantParam(sign=sign, shifts=shifts)
            weight_scaled = sign * sum(1 << (align - s) for s in shifts)
            assert shift_add_mul(act, q, frac_bits, int_bits) == act * weight_scaled


class TestRoundHalfEvenShift:
    def test_matches_float_rounding(self, rng):
        values = rng.integers(-(2 ** 40), 2 ** 40, size=20000).astype(np.int64)
        for bits in (1, 4, 16):
            got = _rshift_round_half_even(values, bits)
            want = np.rint(values / float(1 << bits)).astype(np.int64)
            np.testing.assert_array_equal(got, want)

    def test_zero_bits_identity(self):
        v = np.array([5, -7], dtype=np.int64)
        np.testing.assert_array_equal(_rshift_round_half_even(v, 0), v)


def _quantized_small_model(rng, n_terms=3, weight_scale=0.8):
    spec, params = make_small_model(rng, batchnorm=False, weight_scale=weight_scale)
    q = shift_quantize_model(spec, params, n_terms)
    return spec, params, q


class TestIntegerForward:
    def test_identity_conv_round_trips_activations(self, rng):
        spec = ModelSpec(layers=(
            ConvSpec(name="c", out_channels=1, kernel=(1, 1), padding=0,
                     relu=False, batchnorm=False),
            FlattenSpec(),
            DenseSpec(name="d", out_features=3),
        ), input_shape=(1, 4, 4), class_count=3)
        params = init_params(spec, rng)
        params.entries[0].weights[...] = 1.0
        params.entries[0].bias[...] = 0.0
        q = shift_quantize_model(spec, params, 1)
        eng = ShiftAddEngine(q)
        frame = rng.normal(size=(1, 4, 4))
        conditioned = quantize_frame(frame, 8)
        out, saturations = eng.layer_forward("c", conditioned)
        np.testing.assert_array_equal(out, conditioned)
        assert saturations == 0

    def test_avg_pool_exact_division(self):
        spec = ModelSpec(layers=(
            ConvSpec(name="c", out_channels=1, kernel=(1, 1), padding=0,
                     relu=False, batchnorm=False),
            PoolLayerSpec(name="p", mode="avg", window=(2, 2), stride=2),
            FlattenSpec(),
            DenseSpec(name="d", out_features=3),
        ), input_shape=(1, 2, 2), class_count=3)
        params = init_params(spec, np.random.default_rng(0))
        q = shift_quantize_model(spec, params, 1)
        eng = ShiftAddEngine(q)
        x = np.full((1, 2, 2), 4, dtype=np.int64)
        out, _ = eng.layer_forward("p", x)
        assert out[0, 0, 0] == 4
        with pytest.raises(ConfigurationError):
            eng.layer_forward("missing", x)

    @pytest.mark.parametrize("shape", [(1, 4, 4), (1, 6, 6), (2, 5, 5)])
    def test_layer_input_of_another_shape_rejected(self, rng, shape):
        """A conv gathers by an index built for its spec's input, so any other shape is refused."""
        spec = ModelSpec(layers=(
            ConvSpec(name="c", out_channels=2, kernel=(3, 3), padding=1,
                     relu=False, batchnorm=False),
            FlattenSpec(),
            DenseSpec(name="d", out_features=3),
        ), input_shape=(1, 5, 5), class_count=3)
        eng = ShiftAddEngine(shift_quantize_model(spec, init_params(spec, rng), 3))
        eng.layer_forward("c", np.zeros((1, 5, 5), dtype=np.int64))
        with pytest.raises(ConfigurationError, match=r"layer c: input shape \("):
            eng.layer_forward("c", np.zeros(shape, dtype=np.int64))

    def test_single_conv_matches_float_oracle_within_one_ulp(self, rng):
        from shiftadd_dvs.layers import conv2d_forward
        for trial in range(40):
            local = np.random.default_rng([55, trial])
            k = int(local.integers(1, 4))
            pad = int(local.integers(0, 2)) if k > 1 else 0
            n, m = int(local.integers(1, 4)), int(local.integers(1, 4))
            spec = ModelSpec(layers=(
                ConvSpec(name="c", out_channels=m, kernel=(k, k), padding=pad,
                         relu=False, batchnorm=False),
                FlattenSpec(),
                DenseSpec(name="d", out_features=3),
            ), input_shape=(n, 6, 6), class_count=3)
            params = init_params(spec, local, weight_scale=0.8)
            params.entries[0].bias[...] = local.normal(0, 0.3, size=m)
            q = shift_quantize_model(spec, params, 3, f_a=10)
            eng = ShiftAddEngine(q)
            frame = local.normal(0, 1, size=spec.input_shape)
            conditioned = quantize_frame(frame, 10)
            got = eng._conv_int(conditioned, eng.stages[0], {})
            deq = dequantize_model(q)
            want = np.rint(conv2d_forward(conditioned / float(2 ** 10), deq.entries[0],
                                          stride=1, padding=pad) * float(2 ** 10))
            assert np.max(np.abs(got - want)) <= 1.0

    def test_full_model_matches_layerwise_rounded_oracle(self, rng):
        from shiftadd_dvs.layers import conv2d_forward, pool2d_forward, dense_forward
        for trial in range(20):
            local = np.random.default_rng([56, trial])
            spec, _, q = _quantized_small_model(local)
            deq = dequantize_model(q)
            f_a = 10
            eng = ShiftAddEngine(replace(q, f_a=f_a))
            frame = local.normal(0, 1, size=spec.input_shape)
            got = eng.forward(frame).logits
            # oracle: float layers on dequantized weights, re-rounded to the
            # activation grid after every parameterized layer, mirroring the
            # engine's documented requantization and avg-pool rounding
            scale = float(2 ** f_a)
            x = quantize_frame(frame, f_a) / scale
            for layer, entry in zip(spec.layers, deq.entries):
                if isinstance(layer, ConvSpec):
                    y = conv2d_forward(x, entry, layer.stride, layer.padding)
                    x = np.rint(y * scale) / scale
                    if layer.relu:
                        x = np.maximum(x, 0.0)
                elif isinstance(layer, PoolLayerSpec):
                    if layer.mode == "max":
                        x = pool2d_forward(x, "max", layer.window, layer.stride)
                    else:
                        area = layer.window[0] * layer.window[1]
                        summed = pool2d_forward(x, "avg", layer.window, layer.stride) * area
                        x = np.floor((summed * scale + area // 2) / area) / scale
                elif isinstance(layer, FlattenSpec):
                    x = x.reshape(-1)
                else:
                    y = dense_forward(x, entry)
                    x = np.rint(y * scale) / scale
            want = x * scale
            assert np.max(np.abs(got - want)) <= 1.0

    def test_zero_model_gives_zero_logits_argmax_lowest(self, rng):
        spec, params = make_small_model(rng, batchnorm=False)
        for arr in param_arrays(spec, params).values():
            arr[...] = 0.0
        q = shift_quantize_model(spec, params, 3)
        res = ShiftAddEngine(q).forward(rng.normal(size=spec.input_shape))
        np.testing.assert_array_equal(res.logits, np.zeros(3, dtype=np.int64))
        assert res.argmax == 0

    def test_precision_monotonicity_on_fixed_frames(self):
        rng = np.random.default_rng(77)
        spec, _, q = _quantized_small_model(rng)
        deq = dequantize_model(q)
        frames = rng.normal(0, 1, size=(40, *spec.input_shape))
        agreements = []
        for f_a in (8, 12):
            eng = ShiftAddEngine(replace(q, f_a=f_a))
            agree = 0
            for frame in frames:
                res = eng.forward(frame)
                agree += int(res.argmax == int(np.argmax(model_forward(spec, deq, frame))))
            agreements.append(agree)
        assert agreements[1] >= agreements[0]

    def test_deterministic_bit_identical(self, rng):
        spec, _, q = _quantized_small_model(rng)
        eng = ShiftAddEngine(q)
        frame = rng.normal(size=spec.input_shape)
        a = eng.forward(frame)
        b = eng.forward(frame)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_concurrent_reuse_is_stateless(self, rng):
        spec, _, q = _quantized_small_model(rng)
        eng = ShiftAddEngine(q)
        frames = rng.normal(size=(4, *spec.input_shape))
        first = [eng.forward(f).logits for f in frames]
        second = [eng.forward(f).logits for f in reversed(frames)]
        for a, b in zip(first, reversed(second)):
            np.testing.assert_array_equal(a, b)


class TestSaturation:
    def _saturating_setup(self):
        spec = ModelSpec(layers=(
            ConvSpec(name="c", out_channels=1, kernel=(1, 1), padding=0,
                     relu=False, batchnorm=False),
            FlattenSpec(),
            DenseSpec(name="d", out_features=3),
        ), input_shape=(1, 2, 2), class_count=3)
        params = init_params(spec, np.random.default_rng(3))
        params.entries[0].weights[...] = 3.9
        params.entries[2].weights[...] = 3.9
        params.entries[2].bias[...] = 0.0
        q = shift_quantize_model(spec, params, 4, f_a=24)
        return spec, q

    def test_release_mode_counts(self):
        spec, q = self._saturating_setup()
        eng = ShiftAddEngine(q)
        res = eng.forward(np.full(spec.input_shape, 100.0))
        assert res.total_saturations > 0
        assert np.all(np.abs(res.logits) <= (1 << 31) - 1)


class TestOverflowBound:
    def test_default_student_bound_accepted(self, rng):
        from shiftadd_dvs.model import default_student_spec, fold_model_batchnorm
        spec = default_student_spec()
        params = init_params(spec, rng)
        fspec, fparams = fold_model_batchnorm(spec, params)
        q = shift_quantize_model(fspec, fparams, 3)
        ShiftAddEngine(q)  # must construct cleanly

    def test_worst_case_overflow_rejected(self):
        with pytest.raises(ConfigurationError, match="layer d: worst-case accumulator"):
            ShiftAddEngine(wide_dense_model(129))
        ShiftAddEngine(wide_dense_model(127))

    def test_out_of_range_integer_input_rejected(self, rng):
        spec, _, q = _quantized_small_model(rng)
        eng = ShiftAddEngine(q)
        frame = np.zeros(spec.input_shape, dtype=np.int64)
        frame[0, 0, 0] = 1 << 31
        with pytest.raises(RangeError):
            eng.forward_integer(frame)
        with pytest.raises(RangeError):
            eng.layer_forward(spec.layers[0].name, frame)

    def test_malformed_integer_input_rejected(self, rng):
        """Only bool and integer dtypes reach the integer path, range-checked before the
        cast: a uint64 2^64 - 1 does not wrap to -1, floats are not truncated, and text,
        object and complex input is refused with a ShiftAddError, not a numpy or Python one."""
        spec, _, q = _quantized_small_model(rng)
        eng = ShiftAddEngine(q)
        name = spec.layers[0].name

        def frame(dtype, *values):
            x = np.zeros(spec.input_shape, dtype=dtype)
            x.flat[:len(values)] = values
            return x

        cases = [(frame(np.uint64, (1 << 64) - 1), RangeError),
                 (frame(np.float64, 1.7, -2.9), DomainError),
                 (frame(np.float64, 1.0, -2.0), DomainError),
                 (np.full(spec.input_shape, "3"), DomainError),
                 (frame(object, 1 << 70), DomainError),
                 (frame(np.complex128, 1 + 2j), DomainError)]
        for x, error in cases:
            for call in (eng.forward_integer, partial(eng.layer_forward, name)):
                with pytest.raises(error):
                    call(x)
                with pytest.raises(ShiftAddError):
                    call(x.tolist())
        with pytest.raises(DomainError):
            eng.forward_integer(frame(object, 3))
        # bool and every integer dtype within range read as the same int64 values
        want = eng.forward_integer(frame(np.int64, 1, -2, 3)).logits
        for dtype in (np.int8, np.int16, np.int32):
            np.testing.assert_array_equal(eng.forward_integer(frame(dtype, 1, -2, 3)).logits, want)
        np.testing.assert_array_equal(eng.forward_integer(frame(np.uint64, 1, 0, 3)).logits,
                                      eng.forward_integer(frame(np.int64, 1, 0, 3)).logits)
        np.testing.assert_array_equal(eng.forward_integer(frame(bool, True, False, True)).logits,
                                      eng.forward_integer(frame(np.int64, 1, 0, 1)).logits)

    def test_later_layer_input_beyond_its_proof_rejected(self):
        """A 1x1 conv of weight 2^-16 passes on a bound of 2^15 + 1, for which a (3, 16512)
        dense layer of weights 4 - 2^-16 is proven; at the full 32-bit range that layer's
        accumulator would wrap, so ``layer_forward`` refuses such an input."""
        wide = wide_dense_model(129)
        spec = ModelSpec(layers=(ConvSpec(name="c", out_channels=1, kernel=(1, 1), padding=0,
                                          relu=False, batchnorm=False),) + wide.spec.layers,
                         input_shape=wide.spec.input_shape, class_count=3)
        conv = layer_from_params("c", (1, 1, 1, 1),
                                 [shift_quantize_param(2.0 ** -16, 1), ZERO_PARAM])
        eng = ShiftAddEngine(QuantizedModel(spec=spec, entries=(conv,) + wide.entries,
                                            n_terms=18))
        bound = (1 << 15) + 1
        dense_input = np.full(spec.geometry()[-1][1], bound, dtype=np.int64)
        eng.layer_forward("d", dense_input)
        eng.layer_forward("d", -dense_input)
        for x in (dense_input + 1, -dense_input - 1, np.full_like(dense_input, ACT_LIMIT)):
            with pytest.raises(RangeError, match=f"layer d: input exceeds {bound}"):
                eng.layer_forward("d", x)
        # what the layers emit stays within the bounds, so the chain equals the forward
        frame = np.full(spec.input_shape, ACT_LIMIT, dtype=np.int64)
        x = frame
        for layer in spec.layers:
            x, _ = eng.layer_forward(layer.name, x)
        np.testing.assert_array_equal(x, eng.forward_integer(frame).logits)


# May grow, never shrink.
BANNED_CALLS = ("multiply", "dot", "matmul", "einsum", "tensordot", "inner", "outer", "vdot",
                "kron")


def _functions_by_name(module, names):
    """FunctionDef nodes of ``module`` named either bare or as ``Class.method``."""
    tree = ast.parse(Path(inspect.getsourcefile(module)).read_text())
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                for key in (f"{prefix}{child.name}", child.name):
                    if key in names:
                        found[key] = child
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return found


# The engine's integer operations the stream simulator calls. May grow, never shrink.
ENGINE_KERNELS = ("_shift_add", "_requantize", "_pool_int", "_conv_int", "_forward_arrays")


def _assert_kernel_callers_listed(module):
    """Every function of ``module`` calling an engine kernel is module-level and listed.

    A lambda or a nested function calling one can never be listed, so neither
    can sit on the integer path unaudited.
    """
    tree = ast.parse(Path(inspect.getsourcefile(module)).read_text())
    top_level = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                called = getattr(sub.func, "attr", getattr(sub.func, "id", ""))
                if called in ENGINE_KERNELS:
                    assert name in module.DATA_PATH_FUNCTIONS and name in top_level, (
                        f"{name} calls {called} but is not a listed module-level function")


class TestMultiplierFreeAudit:
    def _assert_multiplier_free(self, module, names):
        audited = _functions_by_name(module, names)
        assert set(audited) == set(names)
        for name, node in audited.items():
            for sub in ast.walk(node):
                assert not isinstance(sub, (ast.Mult, ast.MatMult)), (
                    f"multiplication found in integer data path function {name}")
                if isinstance(sub, ast.Call):
                    func = sub.func
                    called = getattr(func, "attr", getattr(func, "id", ""))
                    assert called not in BANNED_CALLS, (
                        f"{called} call found in integer data path function {name}")

    def test_data_path_functions_contain_no_multiplication(self):
        # the module defining the kernel the engine, and so the stream, calls
        kernel_module = sys.modules[engine_module._shift_add.__module__]
        assert "_shift_add" in kernel_module.DATA_PATH_FUNCTIONS
        for module in {kernel_module, engine_module}:
            self._assert_multiplier_free(module, module.DATA_PATH_FUNCTIONS)
        # ``_pool_int`` reads its windows through this helper
        self._assert_multiplier_free(layers_module, ("window_taps",))

    def test_stream_integer_functions_contain_no_multiplication(self):
        self._assert_multiplier_free(stream_module, stream_module.DATA_PATH_FUNCTIONS)

    def test_stream_kernel_callers_are_listed(self):
        _assert_kernel_callers_listed(stream_module)

    @pytest.mark.parametrize("geometry", [pytest.param(None, id="default"), *(
        pytest.param(g.values, id=g.id) for g in STRIDED_GEOMETRIES)])
    def test_bound_stage_functions_are_listed(self, geometry):
        """Every function an integer stage binds with ``partial`` is on an audited list."""
        if geometry is None:
            spec = default_student_spec()
            spec, params = fold_model_batchnorm(
                spec, init_params(spec, np.random.default_rng(14)))
        else:
            kernel, stride, padding = geometry
            spec = single_conv_spec(2, 9, 11, 3, kernel, stride=stride, padding=padding,
                                    use_relu=True)
            params = init_params(spec, np.random.default_rng(14))
        engine = ShiftAddEngine(shift_quantize_model(spec, params, 3))
        listed = set(stream_module.DATA_PATH_FUNCTIONS) | set(engine_module.DATA_PATH_FUNCTIONS)
        bound = [(stage.report.name, value.func.__name__)
                 for stage in int_stages(engine)
                 for value in vars(stage).values() if isinstance(value, partial)]
        assert [name for name, _ in bound] == [layer.name for layer in spec.layers]
        for name, func in bound:
            assert func in listed, f"stage {name} binds unlisted {func}"

    @pytest.mark.parametrize("source, caller", [
        ("def unlisted(acc):\n    return _requantize(acc, 16, {}, 'x')\n",
         "unlisted"),
        ("def listed(x):\n    f = lambda w: engine._pool_int(w, stage)\n    return f(x)\n",
         "<lambda>"),
        ("def listed(x):\n    def inner(c):\n        return _shift_add(c, plan)\n"
         "    return inner(x)\n", "inner"),
    ], ids=["unlisted", "lambda", "closure"])
    def test_kernel_caller_audit_catches_unlisted_callers(self, tmp_path, monkeypatch,
                                                          source, caller):
        module = tmp_path / f"stream_like_{caller.strip('<>')}.py"
        module.write_text(f"DATA_PATH_FUNCTIONS = ('listed',)\n\n{source}")
        monkeypatch.syspath_prepend(str(tmp_path))
        loaded = __import__(module.stem)
        with pytest.raises(AssertionError, match=f"{caller} calls"):
            _assert_kernel_callers_listed(loaded)

    def test_audit_catches_a_banned_call(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad_kernel.py"
        bad.write_text("import numpy as np\n\n"
                       "class K:\n"
                       "    def run(self, a, b):\n"
                       "        return np.tensordot(a, b)\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        import bad_kernel
        with pytest.raises(AssertionError, match="tensordot"):
            self._assert_multiplier_free(bad_kernel, ("K.run",))
