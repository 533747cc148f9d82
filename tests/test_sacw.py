from dataclasses import astuple, replace

import numpy as np
import pytest

from shiftadd_dvs.errors import ConfigurationError, NumericError
from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    default_student_spec,
    init_params,
    model_forward,
    param_arrays,
)
from shiftadd_dvs.sacw import MAGIC, load_weights, save_weights

from conftest import make_small_model


def test_round_trip_float32_exact(rng, tmp_path):
    spec = default_student_spec()
    params = init_params(spec, rng)
    path = tmp_path / "model.sacw"
    save_weights(path, spec, params)
    loaded = load_weights(path, spec)
    for name, arr in param_arrays(spec, params).items():
        np.testing.assert_array_equal(param_arrays(spec, loaded)[name],
                                      arr.astype(np.float32).astype(np.float64))


def test_round_trip_preserves_forward_outputs(rng, tmp_path):
    spec, params = make_small_model(rng, batchnorm=True)
    # float32-representable weights (and a float32-exact eps) round-trip bit-exactly
    for arr in param_arrays(spec, params).values():
        arr[...] = arr.astype(np.float32)
    params = replace(params, entries=[
        replace(entry, bn=replace(entry.bn, eps=2.0 ** -14))
        if entry is not None and entry.bn is not None else entry for entry in params.entries])
    path = tmp_path / "m.sacw"
    save_weights(path, spec, params)
    loaded = load_weights(path, spec)
    x = rng.normal(size=spec.input_shape)
    np.testing.assert_array_equal(model_forward(spec, params, x),
                                  model_forward(spec, loaded, x))


def test_batchnorm_blocks_follow_convs(rng, tmp_path):
    spec = default_student_spec(batchnorm=True)
    params = init_params(spec, rng)
    for entry in params.entries:
        if entry is not None and entry.bn is not None:
            entry.bn.mean[...] = rng.normal(size=entry.bn.mean.shape)
            entry.bn.var[...] = np.abs(rng.normal(size=entry.bn.var.shape)) + 0.1
    path = tmp_path / "m.sacw"
    save_weights(path, spec, params)
    loaded = load_weights(path, spec)
    for orig, got in zip(params.entries, loaded.entries):
        if orig is not None and orig.bn is not None:
            np.testing.assert_array_equal(
                got.bn.mean, orig.bn.mean.astype(np.float32).astype(np.float64))
            np.testing.assert_array_equal(
                got.bn.var, orig.bn.var.astype(np.float32).astype(np.float64))


def test_round_trip_gives_equal_records(rng, tmp_path):
    """A conv with batchnorm, a conv without and a dense layer each load as the record saved."""
    spec = ModelSpec(layers=(ConvSpec(name="a", out_channels=2),
                             ConvSpec(name="b", out_channels=3, batchnorm=False),
                             FlattenSpec(), DenseSpec(name="d", out_features=3)),
                     input_shape=(1, 4, 4))
    params = init_params(spec, rng)
    bn = params.entries[0].bn
    for arr in (*param_arrays(spec, params).values(), bn.mean, bn.var):
        arr[...] = rng.normal(size=arr.shape).astype(np.float32)  # float32 values round-trip
    bn.var[...] = np.abs(bn.var)
    params = replace(params, entries=(replace(params.entries[0], bn=replace(bn, eps=2.0 ** -14)),
                                      *params.entries[1:]))
    path = tmp_path / "m.sacw"
    save_weights(path, spec, params)
    loaded = load_weights(path, spec)
    assert [e.bn is None for e in loaded.entries if e is not None] == [False, True, True]
    for saved, got in zip(params.entries, loaded.entries):
        if saved is not None:
            np.testing.assert_equal(astuple(got), astuple(saved))


def test_header_magic_and_version(rng, tmp_path):
    spec, params = make_small_model(rng)
    path = tmp_path / "m.sacw"
    save_weights(path, spec, params)
    data = path.read_bytes()
    assert data[:4] == MAGIC
    assert data[4:6] == b"\x01\x00"  # version 1 little-endian


def test_spec_mismatch_rejected(rng, tmp_path):
    spec, params = make_small_model(rng)
    path = tmp_path / "m.sacw"
    save_weights(path, spec, params)
    with pytest.raises(ConfigurationError):
        load_weights(path, default_student_spec())


def test_truncated_file_rejected(rng, tmp_path):
    spec, params = make_small_model(rng)
    path = tmp_path / "m.sacw"
    save_weights(path, spec, params)
    (tmp_path / "cut.sacw").write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ConfigurationError):
        load_weights(tmp_path / "cut.sacw", spec)


def test_save_is_deterministic(rng, tmp_path):
    spec, params = make_small_model(rng)
    p1, p2 = tmp_path / "a.sacw", tmp_path / "b.sacw"
    save_weights(p1, spec, params)
    save_weights(p2, spec, params)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["kernel", "bias", "gamma", "eps"])
def test_non_finite_payload_rejected(tmp_path, field, bad):
    spec, params = make_small_model(np.random.default_rng(33), batchnorm=True)
    block = params.entries[0]
    sentinel = 1.375
    if field == "kernel":
        block.weights[0, 0, 0, 0] = sentinel
    elif field == "bias":
        block.bias[0] = sentinel
    elif field == "gamma":
        block.bn.gamma[0] = sentinel
    else:
        params = replace(params, entries=(replace(block, bn=replace(block.bn, eps=sentinel)),)
                         + params.entries[1:])
    path = tmp_path / "m.sacw"
    save_weights(path, spec, params)
    data = path.read_bytes()
    marker = np.float32(sentinel).tobytes()
    assert data.count(marker) == 1
    path.write_bytes(data.replace(marker, np.float32(bad).tobytes()))
    with pytest.raises(NumericError, match="non-finite"):
        load_weights(path, spec)
