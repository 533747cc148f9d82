"""Byte-level contracts of the SACW, SAQM and DVSF file formats and the text inputs."""
import hashlib
import shutil
from dataclasses import replace

import numpy as np
import pytest

from shiftadd_dvs import dataset
from shiftadd_dvs.dataset import convert_samples, ingest_dataset, read_sample, write_sample
from shiftadd_dvs.encoding import encode_model
from shiftadd_dvs.errors import ConfigurationError, ShiftAddError
from shiftadd_dvs.model import (
    default_student_spec,
    fold_model_batchnorm,
    init_params,
    wide_student_spec,
)
from shiftadd_dvs.quantize import shift_quantize_model
from shiftadd_dvs.sacw import load_weights, save_weights
from shiftadd_dvs.saqm import load_quantized, save_quantized
from shiftadd_dvs.training import load_teacher_logits, save_teacher_logits

from conftest import make_small_model

# SHA-256 of the files written for the default student initialised from
# default_rng(2024): SACW with batchnorm, SAQM after folding at N=3, 3-bit codes.
SACW_SHA256 = "da0bc6e4510f2ff06b873a453a436809e7d7bd259598665667d3f01a979d43f8"
SAQM_SHA256 = "868ad8a6832c4cf01a01422a210ebdeea7f095e57fba6a076031c07805ec3fcb"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_student_files_are_pinned(tmp_path):
    spec = default_student_spec()
    params = init_params(spec, np.random.default_rng(2024))
    save_weights(tmp_path / "m.sacw", spec, params)
    fspec, fparams = fold_model_batchnorm(spec, params)
    save_quantized(tmp_path / "m.saqm", encode_model(shift_quantize_model(fspec, fparams, 3), 3))
    assert _sha256(tmp_path / "m.sacw") == SACW_SHA256
    assert _sha256(tmp_path / "m.saqm") == SAQM_SHA256


def test_writers_reject_parameters_of_another_spec(tmp_path):
    spec, wide = default_student_spec(batchnorm=False), wide_student_spec(batchnorm=False)
    params = init_params(wide, np.random.default_rng(3))
    with pytest.raises(ConfigurationError, match="layer conv1: parameters"):
        save_weights(tmp_path / "m.sacw", spec, params)
    with pytest.raises(ConfigurationError, match="layer conv1: parameters"):
        shift_quantize_model(spec, params, 3)
    encoded = encode_model(shift_quantize_model(wide, params, 3), 3)
    with pytest.raises(ConfigurationError, match="layer conv1: parameters"):
        save_quantized(tmp_path / "m.saqm", replace(encoded, spec=spec))


def _small_sacw(tmp_path):
    spec, params = make_small_model(np.random.default_rng(31), batchnorm=True)
    save_weights(tmp_path / "m.sacw", spec, params)
    return tmp_path / "m.sacw", lambda path: load_weights(path, spec)


def _small_saqm(tmp_path):
    spec, params = make_small_model(np.random.default_rng(32))
    save_quantized(tmp_path / "m.saqm", encode_model(shift_quantize_model(spec, params, 3), 3))
    return tmp_path / "m.saqm", lambda path: load_quantized(path, spec)


def _small_dvsf(tmp_path):
    write_sample(tmp_path / "s.dvsf", np.arange(12.0).reshape(4, 3), 1, rows=4, cols=3)
    return tmp_path / "s.dvsf", lambda path: read_sample(path, rows=4, cols=3)


def _small_csv(tmp_path):
    frames = np.arange(24.0).reshape(2, 12) / 8 - 1
    lines = ["label," + ",".join(f"r{r}c{c}" for r in range(4) for c in range(3))]
    lines += [f"{label}," + ",".join(repr(float(v)) for v in frame)
              for label, frame in zip((2, 0), frames)]
    (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")

    def load(path):
        with pytest.MonkeyPatch.context() as patch:  # a 4x3 grid keeps the file small
            patch.setattr(dataset, "SAMPLE_ROWS", 4)
            patch.setattr(dataset, "SAMPLE_COLS", 3)
            return dataset._ingest_csv(path)
    return tmp_path / "d.csv", load


def _small_logits(tmp_path):
    ids = ["s0", "s1", "s2"]
    save_teacher_logits(tmp_path / "t.csv", ids, [[1.5, -0.25, 3.0], [0.0, 2.0, -1.0],
                                                  [0.125, 0.5, -7.75]])
    return tmp_path / "t.csv", lambda path: load_teacher_logits(path, expected_ids=ids)


def _small_manifest(tmp_path):
    directory = tmp_path / "ds"
    convert_samples(np.zeros((2, 256, 11)), [1, 2], ["a", "b"], directory, "small")
    original = tmp_path / "manifest.json"
    shutil.copyfile(directory / "manifest.json", original)

    def load(path):
        shutil.copyfile(path, directory / "manifest.json")
        return ingest_dataset(directory)
    return original, load


FORMATS = {"sacw": _small_sacw, "saqm": _small_saqm, "dvsf": _small_dvsf,
           "csv": _small_csv, "logits": _small_logits, "manifest": _small_manifest}
TEXT_FORMATS = {"csv", "logits", "manifest"}


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation_raises_a_package_error(tmp_path, name):
    """Binary files fail at every cut. A text file cut at a line or number boundary can
    still be well formed, so a cut text file either loads or fails with a package error."""
    path, load = FORMATS[name](tmp_path)
    data = path.read_bytes()
    load(path)
    cut = tmp_path / "cut"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        try:
            load(cut)
        except ShiftAddError:
            continue
        assert name in TEXT_FORMATS, f"a {size}-byte cut of {len(data)} loaded"


@pytest.mark.parametrize("name", FORMATS)
def test_every_single_bit_flip_loads_or_raises_a_package_error(tmp_path, name):
    """A flipped SAQM file that loads also saves back to the same bytes: the format
    has one encoding of every model, so no flip goes unseen through a round trip."""
    path, load = FORMATS[name](tmp_path)
    data = path.read_bytes()
    flipped, resaved = tmp_path / "flipped", tmp_path / "resaved"
    for offset in range(len(data)):
        for bit in range(8):
            blob = bytearray(data)
            blob[offset] ^= 1 << bit
            flipped.write_bytes(bytes(blob))
            try:
                loaded = load(flipped)
            except ShiftAddError:
                continue
            if name == "saqm":
                save_quantized(resaved, loaded)
                assert resaved.read_bytes() == bytes(blob), f"byte {offset}, bit {bit}"
