import numpy as np
import pytest

from shiftadd_dvs.errors import ConfigurationError
from shiftadd_dvs.features import export_features
from shiftadd_dvs.model import default_student_spec, init_params

from conftest import zero_weight_params


def test_flatten_rows_have_expected_width(rng, tmp_path):
    spec = default_student_spec()
    params = init_params(spec, rng)
    frames = rng.normal(size=(2, 1, 256, 11))
    text = export_features(spec, params, frames, [0, 2], ["a", "b"],
                           layer="flatten", path=tmp_path / "f.csv")
    rows = text.strip().splitlines()
    assert len(rows) == 2
    assert all(len(r.split(",")) == 2 + 2048 for r in rows)
    assert rows[0].startswith("a,0,") and rows[1].startswith("b,2,")
    assert (tmp_path / "f.csv").read_text() == text


def test_zero_weight_model_exports_zero_features(rng):
    spec = default_student_spec()
    params = zero_weight_params(spec)
    frames = rng.normal(size=(1, 1, 256, 11))
    text = export_features(spec, params, frames, [1], ["s"])
    values = np.array([float(v) for v in text.strip().split(",")[2:]])
    np.testing.assert_array_equal(values, np.zeros(2048))


def test_repeated_export_identical(rng):
    spec = default_student_spec()
    params = init_params(spec, rng)
    frames = rng.normal(size=(3, 1, 256, 11))
    a = export_features(spec, params, frames, [0, 1, 2], ["x", "y", "z"])
    b = export_features(spec, params, frames, [0, 1, 2], ["x", "y", "z"])
    assert a == b


def test_intermediate_layer_tag(rng):
    spec = default_student_spec()
    params = init_params(spec, rng)
    frames = rng.normal(size=(1, 1, 256, 11))
    text = export_features(spec, params, frames, [0], ["s"], layer="avgpool1")
    assert len(text.strip().split(",")) == 2 + 32 * 32 * 1


def test_unknown_tag_rejected(rng):
    spec = default_student_spec()
    params = init_params(spec, rng)
    with pytest.raises(ConfigurationError):
        export_features(spec, params, np.zeros((1, 1, 256, 11)), [0], ["s"], layer="nope")
