from dataclasses import replace

import numpy as np
import pytest

from shiftadd_dvs.errors import ConfigurationError
from shiftadd_dvs.layers import BatchNormParams
from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelParams,
    ModelSpec,
    PoolLayerSpec,
    count_report,
    default_student_spec,
    fold_model_batchnorm,
    init_params,
    model_forward,
    param_arrays,
    wide_student_spec,
)
from shiftadd_dvs.quantize import shift_quantize_model

from conftest import zero_weight_params

EXPECTED_CHAIN = [(8, 256, 11), (8, 128, 5), (16, 128, 5), (16, 64, 2), (32, 64, 2),
                  (32, 32, 1), (64, 32, 1), (2048,), (3,)]


def test_default_spec_shape_chain():
    assert default_student_spec().layer_shapes() == EXPECTED_CHAIN


def test_flatten_width_is_2048():
    assert default_student_spec().layer_shapes()[-2] == (2048,)


def test_param_count_with_batchnorm():
    assert count_report(default_student_spec())["param_count"] == 30771


def test_param_count_without_batchnorm():
    assert count_report(default_student_spec(batchnorm=False))["param_count"] == 30531


def test_count_report_includes_convention():
    report = count_report(default_student_spec())
    assert isinstance(report["convention"], str) and report["convention"]
    assert report["flop_count"] > 0


def test_single_conv_param_count():
    spec = ModelSpec(layers=(
        ConvSpec(name="c", out_channels=1, kernel=(1, 1), padding=0, batchnorm=False),
        FlattenSpec(),
        DenseSpec(name="d", out_features=3),
    ), input_shape=(1, 1, 1), class_count=3)
    report = count_report(spec)
    # conv itself contributes weight + bias = 2
    dense_params = 3 * 1 + 3
    assert report["param_count"] == 2 + dense_params


def test_zero_network_gives_zero_logits():
    spec = default_student_spec()
    logits = model_forward(spec, zero_weight_params(spec), np.zeros((1, 256, 11)))
    np.testing.assert_array_equal(logits, np.zeros(3))


def test_batch_of_two_equals_independent_runs_bitwise(rng):
    spec = default_student_spec()
    params = init_params(spec, rng)
    frames = rng.normal(size=(2, 1, 256, 11))
    stacked = [model_forward(spec, params, f) for f in frames]
    independent = [model_forward(spec, params, frames[0]),
                   model_forward(spec, params, frames[1])]
    for a, b in zip(stacked, independent):
        np.testing.assert_array_equal(a, b)


def test_forward_shape_error_names_layer(rng):
    spec = default_student_spec()
    params = init_params(spec, rng)
    with pytest.raises(ConfigurationError):
        model_forward(spec, params, np.zeros((1, 100, 11)))


def test_spec_rejects_bad_composition():
    with pytest.raises(ConfigurationError):
        ModelSpec(layers=(
            DenseSpec(name="d", out_features=3),
        ), input_shape=(1, 4, 4), class_count=3)
    with pytest.raises(ConfigurationError):
        ModelSpec(layers=(
            ConvSpec(name="c", out_channels=2, kernel=(9, 9), padding=0),
            FlattenSpec(),
            DenseSpec(name="d", out_features=3),
        ), input_shape=(1, 4, 4), class_count=3)


@pytest.mark.parametrize("layer, message", [
    (ConvSpec(name="c", out_channels=2, stride=0), "layer c: stride"),
    (ConvSpec(name="c", out_channels=2, kernel=(1, 1), padding=-1), "layer c: stride"),
    (PoolLayerSpec(name="c", mode="max", stride=0), "layer c: stride"),
    (PoolLayerSpec(name="c", mode="median"), "layer c: pool mode must be 'max' or 'avg'"),
    (PoolLayerSpec(name="c", mode="max", window=(0, 2)), "layer c: window 0x2 must be >= 1"),
    (ConvSpec(name="c", out_channels=2, kernel=(0, 3)), "layer c: window 0x3 must be >= 1"),
    (ConvSpec(name="c", out_channels=0), "layer c: out_channels must be >= 1"),
    (DenseSpec(name="c", out_features=0), "layer c: out_features must be >= 1"),
    (PoolLayerSpec(name="c", mode="max", stride=2.0), "layer c: window, stride and padding"),
    (ConvSpec(name="c", out_channels=2, kernel=(3,)), r"layer c: window must be a \(rows, "),
    (PoolLayerSpec(name="c", mode="max", window=(2,)), r"layer c: window must be a \(rows, "),
    ((4, 4), r"input_shape must be \(channels, rows, columns\), got \(4, 4\)"),
], ids=["conv_stride_0", "negative_padding", "pool_stride_0", "pool_mode_median",
        "pool_window_0", "conv_kernel_0", "conv_out_channels_0", "dense_out_features_0",
        "pool_stride_float", "conv_kernel_1d", "pool_window_1d", "input_shape_2d"])
def test_spec_rejects_bad_stride_and_padding(layer, message):
    """A bad layer, or a bad input shape given in the layer's place, is a ConfigurationError."""
    head = DenseSpec(name="d", out_features=3)
    input_shape = (1, 4, 4)
    if not hasattr(layer, "name"):
        layer, input_shape = ConvSpec(name="c", out_channels=2), layer
    layers = (FlattenSpec(), layer, head) if isinstance(layer, DenseSpec) else (
        layer, FlattenSpec(), head)
    with pytest.raises(ConfigurationError, match=message):
        ModelSpec(layers=layers, input_shape=input_shape, class_count=3)


def test_wide_spec_doubles_channels():
    shapes = wide_student_spec().layer_shapes()
    assert shapes[0] == (16, 256, 11)
    assert shapes[-2] == (4096,)


def test_fold_model_batchnorm_matches_unfolded(rng):
    spec = default_student_spec()
    params = init_params(spec, rng)
    for entry in params.entries:
        if entry is not None and getattr(entry, "bn", None) is not None:
            entry.bn.mean[...] = rng.normal(size=entry.bn.mean.shape)
            entry.bn.var[...] = np.abs(rng.normal(size=entry.bn.var.shape)) + 0.2
            entry.bn.gamma[...] = rng.normal(size=entry.bn.gamma.shape) + 1.5
            entry.bn.beta[...] = rng.normal(size=entry.bn.beta.shape)
    fspec, fparams = fold_model_batchnorm(spec, params)
    assert not any(getattr(layer, "batchnorm", False) for layer in fspec.layers)
    x = rng.normal(size=(1, 256, 11))
    np.testing.assert_allclose(model_forward(fspec, fparams, x),
                               model_forward(spec, params, x), rtol=1e-9, atol=1e-9)


def _bn(width: int) -> BatchNormParams:
    return BatchNormParams(gamma=np.ones(width), beta=np.zeros(width),
                           mean=np.zeros(width), var=np.ones(width))


@pytest.mark.parametrize("batchnorm, change, message", [
    (True, lambda e: e[:-1], "layer fc1: the model has 8 entries for 9 spec layers"),
    (True, lambda e: e + (None,), "layer fc1: the model has 10 entries for 9 spec layers"),
    (True, lambda e: e[:1] + e[:1] + e[2:], "layer maxpool1: holds no parameters, got an entry"),
    (True, lambda e: e[:2] + (replace(e[2], weights=np.zeros((16, 8, 3, 2))),) + e[3:],
     r"layer conv2: parameters \(16, 8, 3, 2\) do not match the spec's \(16, 8, 3, 3\)"),
    (True, lambda e: (e[8],) + e[1:],
     r"layer conv1: parameters \(3, 2048\) do not match the spec's \(8, 1, 3, 3\)"),
    (True, lambda e: e[:8] + (replace(e[8], bn=_bn(3)),),
     "layer fc1: batchnorm width 3 does not match the spec's None"),
    (True, lambda e: (replace(e[0], bn=None),) + e[1:],
     "layer conv1: batchnorm width None does not match the spec's 8"),
    (False, lambda e: (replace(e[0], bn=_bn(8)),) + e[1:],
     "layer conv1: batchnorm width 8 does not match the spec's None"),
    (True, lambda e: (replace(e[0], bn=_bn(4)),) + e[1:],
     "layer conv1: batchnorm width 4 does not match the spec's 8"),
], ids=["too_few", "too_many", "entry_in_pool_slot", "kernel_shape", "entry_type",
        "dense_bn", "missing_bn", "bn_not_flagged", "bn_width"])
def test_params_construction_rejects_misaligned_entries(rng, batchnorm, change, message):
    """Float parameters are checked once, when made, by the walk that checks a quantized
    model: one entry per spec layer of the spec's weight shape, batchnorm where flagged."""
    spec = default_student_spec(batchnorm=batchnorm)
    entries = init_params(spec, rng).entries
    with pytest.raises(ConfigurationError, match=message):
        ModelParams(spec, change(entries))


def test_params_are_paired_with_their_spec(rng):
    """Unfolded parameters given with the folded spec are refused, not run or quantized
    with every batchnorm silently dropped."""
    spec = default_student_spec()
    params = init_params(spec, rng)
    fspec, _ = fold_model_batchnorm(spec, params)
    message = "layer conv1: parameters were made for a different spec"
    with pytest.raises(ConfigurationError, match=message):
        shift_quantize_model(fspec, params, 3)
    with pytest.raises(ConfigurationError, match=message):
        model_forward(fspec, params, rng.normal(size=spec.input_shape))


def test_spec_json_round_trip():
    spec = default_student_spec()
    assert ModelSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("layer, key, value, message", [
    (0, "relu", "no", "layer conv1: relu must be a JSON boolean, got 'no'"),
    (0, "batchnorm", 1, "layer conv1: batchnorm must be a JSON boolean, got 1"),
    (0, "padding", True, "layer conv1: padding must be a JSON integer, got True"),
    (0, "out_channels", 8.0, "layer conv1: out_channels must be a JSON integer, got 8.0"),
    (0, "kernel", [3, False], "layer conv1: kernel must be a JSON integer, got False"),
    (1, "stride", True, "layer maxpool1: stride must be a JSON integer, got True"),
    (1, "window", [2, 2.0], "layer maxpool1: window must be a JSON integer, got 2.0"),
    (8, "out_features", True, "layer fc1: out_features must be a JSON integer, got True"),
    (None, "class_count", 3.0, "spec: class_count must be a JSON integer, got 3.0"),
    (None, "input_shape", [1, True, 11], "spec: input_shape must be a JSON integer, got True"),
], ids=["relu-string", "batchnorm-int", "padding-bool", "out_channels-float", "kernel-bool",
        "stride-bool", "window-float", "out_features-bool", "class_count-float",
        "input_shape-bool"])
def test_spec_json_rejects_mistyped_fields(layer, key, value, message):
    """A size or count that is not a JSON integer (a bool is none), or a flag that is not
    a JSON boolean, is refused rather than read as one ("no" is truthy, true is 1)."""
    doc = default_student_spec().to_json()
    (doc if layer is None else doc["layers"][layer])[key] = value
    with pytest.raises(ConfigurationError) as raised:
        ModelSpec.from_json(doc)
    assert str(raised.value) == message


def test_param_arrays_cover_all_trainables(rng):
    spec = default_student_spec()
    arrays = param_arrays(spec, init_params(spec, rng))
    total = sum(a.size for a in arrays.values())
    assert total == 30771


def test_capture_unknown_layer(rng):
    spec = default_student_spec()
    params = init_params(spec, rng)
    with pytest.raises(ConfigurationError):
        model_forward(spec, params, np.zeros((1, 256, 11)), capture="nope")
