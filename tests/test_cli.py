import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from shiftadd_dvs import __version__
from shiftadd_dvs.cli import main
from shiftadd_dvs.dataset import ingest_dataset, read_sample
from shiftadd_dvs.engine import ShiftAddEngine
from shiftadd_dvs.model import ModelSpec
from shiftadd_dvs.saqm import load_quantized
from shiftadd_dvs.stream import StageReport, stream_quantized_forward
from shiftadd_dvs.training import Standardizer


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    runner = CliRunner()
    result = runner.invoke(main, ["gen-data", "--seed", "3", "--per-class", "6",
                                  "--shifted-per-class", "4", "-o", str(root)])
    assert result.exit_code == 0, result.output
    return root


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli-model")
    runner = CliRunner()
    result = runner.invoke(main, [
        "train", "--data", str(data_dir / "base"), "--test-data", str(data_dir / "shifted"),
        "--arch", "student", "--seed", "1", "--folds", "2", "--epochs", "2",
        "--batch", "9", "-o", str(out),
        "--emit-logits", str(out / "teacher.csv"),
    ])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def quantized_model(tmp_path_factory, trained_model, data_dir):
    out = tmp_path_factory.mktemp("cli-quant")
    runner = CliRunner()
    result = runner.invoke(main, [
        "quantize", "--model", str(trained_model), "--no-sweep",
        "--n", "3", "--bits", "3", "-o", str(out),
    ])
    assert result.exit_code == 0, result.output
    return out


class TestGenData:
    def test_writes_both_datasets_and_doc(self, data_dir):
        base = ingest_dataset(data_dir / "base")
        shifted = ingest_dataset(data_dir / "shifted")
        assert base.manifest.counts == [6, 6, 6]
        assert shifted.manifest.counts == [4, 4, 4]
        doc = json.loads((data_dir / "result.json").read_text())
        assert doc["tool"]["version"] == __version__
        assert doc["config"]["seed"] == 3

    def test_reproducible_bytes(self, tmp_path, runner):
        for sub in ("a", "b"):
            result = runner.invoke(main, ["gen-data", "--seed", "9", "--per-class", "2",
                                          "-o", str(tmp_path / sub)])
            assert result.exit_code == 0
        a = sorted((tmp_path / "a").rglob("*.dvsf"))
        b = sorted((tmp_path / "b").rglob("*.dvsf"))
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]

    def test_zero_shifted_per_class_exits_with_json_error(self, tmp_path, runner):
        """--shifted-per-class 0 is refused as --per-class 0 is, not read as "unset"."""
        result = runner.invoke(main, ["gen-data", "--per-class", "2", "--shifted-per-class", "0",
                                      "-o", str(tmp_path)])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == {"type": "ConfigurationError",
                                                      "message": "per_class must be >= 1"}
        assert not (tmp_path / "shifted").exists()
        assert not (tmp_path / "result.json").exists()


class TestTrain:
    def test_artifacts_written(self, trained_model):
        assert (trained_model / "model.sacw").exists()
        assert (trained_model / "model.json").exists()
        doc = json.loads((trained_model / "result.json").read_text())
        assert doc["command"] == "train"
        assert doc["tool"]["name"] == "shiftadd-dvs"
        assert len(doc["results"]["val_accuracies"]) == 2
        assert "fold_assignment" in doc["results"]
        assert doc["results"]["counts"] == [6, 6, 6]

    def test_teacher_logits_emitted(self, trained_model, data_dir):
        lines = (trained_model / "teacher.csv").read_text().strip().splitlines()
        assert len(lines) == 18
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_missing_data_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--data", str(tmp_path / "nope"),
                                      "-o", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_internal_error_gives_status_one(self, runner, tmp_path):
        (tmp_path / "empty").mkdir()
        result = runner.invoke(main, ["train", "--data", str(tmp_path / "empty"),
                                      "-o", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "IngestionError"


class TestDistill:
    def test_distill_runs_with_teacher_logits(self, runner, tmp_path, data_dir, trained_model):
        out = tmp_path / "kd"
        result = runner.invoke(main, [
            "distill", "--data", str(data_dir / "base"),
            "--teacher-logits", str(trained_model / "teacher.csv"),
            "--folds", "2", "--epochs", "1", "--batch", "9",
            "--alpha", "0.1", "-t", "5", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "result.json").read_text())
        assert doc["config"]["train"]["kd"]["alpha"] == 0.1
        assert doc["config"]["train"]["kd"]["temperature"] == 5.0

    def test_grid_sweep(self, runner, tmp_path, data_dir, trained_model):
        out = tmp_path / "grid"
        result = runner.invoke(main, [
            "distill", "--data", str(data_dir / "base"),
            "--teacher-logits", str(trained_model / "teacher.csv"),
            "--folds", "2", "--epochs", "1", "--batch", "9",
            "--grid", "0.1,1.0;1,5", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "result.json").read_text())
        assert len(doc["results"]["cells"]) == 4

    @pytest.mark.parametrize("grid, message", [
        ("0.1;", "an axis has no values"),
        (";5", "an axis has no values"),
        ("0.1,2;3", "alpha must be in [0, 1], got 2.0"),
    ])
    def test_bad_grid_rejected_before_any_cell_trains(self, runner, tmp_path, data_dir,
                                                      trained_model, grid, message):
        result = runner.invoke(main, [
            "distill", "--data", str(data_dir / "base"),
            "--teacher-logits", str(trained_model / "teacher.csv"),
            "--folds", "2", "--epochs", "1", "--batch", "9",
            "--grid", grid, "-o", str(tmp_path / "grid"),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "ConfigurationError"
        assert message in error["message"]
        assert "alpha=" not in result.stdout  # no cell trained


@pytest.mark.parametrize("command", ["train", "distill"])
@pytest.mark.parametrize("flag, value, message", [
    ("--batch", "0", "batch_size must be >= 1, got 0"),
    ("--batch", "-3", "batch_size must be >= 1, got -3"),
    ("--folds", "1", "folds must be >= 2, got 1"),
    ("--folds", "0", "folds must be >= 2, got 0"),
])
def test_degenerate_training_config_exits_with_json_error(runner, tmp_path, data_dir,
                                                         trained_model, command, flag,
                                                         value, message):
    """A batch size below 1 or fewer than 2 folds stops the run before it trains: once a
    bare traceback, a model trained on nothing, or a division by an empty training set."""
    out = tmp_path / "out"
    args = [command, "--data", str(data_dir / "base"), "--epochs", "1", "--batch", "9",
            "--folds", "2", flag, value, "-o", str(out)]
    if command == "distill":
        args += ["--teacher-logits", str(trained_model / "teacher.csv")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "ConfigurationError"
    assert error["message"] == message
    assert not (out / "model.sacw").exists()


class TestQuantizeEncode:
    def test_quantize_writes_saqm_and_report(self, quantized_model):
        assert (quantized_model / "model.saqm").exists()
        doc = json.loads((quantized_model / "result.json").read_text())
        assert doc["results"]["compression"]["ratio_percent"] == 28.125
        assert doc["config"]["n_terms"] == 3

    def test_quantize_sweep_table(self, runner, tmp_path, trained_model, data_dir):
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "quantize", "--model", str(trained_model), "--data", str(data_dir / "base"),
            "--n", "3", "--bits", "3", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "result.json").read_text())
        table = doc["results"]["sweep"]
        assert [row["n_terms"] for row in table] == list(range(1, 11))
        assert all(0.0 <= row["accuracy"] <= 1.0 for row in table)

    @pytest.mark.parametrize("f_a", ["25", "-3"])
    def test_quantize_rejects_f_a_out_of_range(self, runner, tmp_path, trained_model, f_a):
        out = tmp_path / "q"
        result = runner.invoke(main, [
            "quantize", "--model", str(trained_model), "--no-sweep", "--fa", f_a,
            "-o", str(out),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "ConfigurationError"
        assert error["message"] == f"f_a must be in [0, 24], got {f_a}"
        assert not (out / "model.saqm").exists()

    def test_quantize_rejects_n_beyond_the_saqm_header(self, runner, tmp_path, trained_model):
        out = tmp_path / "q"
        result = runner.invoke(main, [
            "quantize", "--model", str(trained_model), "--no-sweep", "--n", "256",
            "-o", str(out),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "ConfigurationError"
        assert error["message"] == ("N=256 terms per weight exceed the SAQM header's "
                                    "u8 field limit of 255")
        assert not (out / "model.saqm").exists()

    def test_encode_sweep_bits_1_to_8(self, runner, tmp_path, trained_model, data_dir):
        out = tmp_path / "enc"
        result = runner.invoke(main, [
            "encode", "--model", str(trained_model), "--data", str(data_dir / "base"),
            "--n", "3", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "result.json").read_text())
        assert [row["bits"] for row in doc["results"]["sweep"]] == list(range(1, 9))
        assert doc["results"]["sweep"][-1]["lossless"] is True


class TestInferSimulate:
    def test_infer_shift_add_records(self, runner, tmp_path, quantized_model, data_dir):
        out = tmp_path / "infer"
        result = runner.invoke(main, [
            "infer", "--model", str(quantized_model), "--data", str(data_dir / "shifted"),
            "--engine", "shift-add", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        records = (out / "records.txt").read_text().strip().splitlines()
        assert len(records) == 12
        for line in records:
            parts = line.split(",")
            assert len(parts) == 6
            int(parts[1]), int(parts[2]), int(parts[3])
            assert 0 <= int(parts[4]) <= 2
            assert int(parts[5]) >= 0

    def test_infer_runs_at_the_f_a_model_json_holds(self, runner, tmp_path, trained_model,
                                                   data_dir):
        quant = tmp_path / "quant-fa12"
        result = runner.invoke(main, ["quantize", "--model", str(trained_model), "--no-sweep",
                                      "--fa", "12", "-o", str(quant)])
        assert result.exit_code == 0, result.output
        ref = ingest_dataset(data_dir / "shifted").manifest.samples[0]
        infer_out, sim_out = tmp_path / "infer", tmp_path / "sim"
        result = runner.invoke(main, ["infer", "--model", str(quant),
                                      "--data", str(data_dir / "shifted"), "-o", str(infer_out)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["simulate", "--model", str(quant), "--frame",
                                      str(data_dir / "shifted" / ref.file), "-o", str(sim_out)])
        assert result.exit_code == 0, result.output
        records = {line.split(",")[0]: [int(v) for v in line.split(",")[1:4]]
                   for line in (infer_out / "records.txt").read_text().splitlines()}
        model_doc = json.loads((quant / "model.json").read_text())
        spec = ModelSpec.from_json(model_doc["spec"])
        frame, _ = read_sample(data_dir / "shifted" / ref.file)
        frame = Standardizer.from_json(model_doc["standardizer"]).apply(frame)[None, :, :]

        def logits(f_a):
            engine = ShiftAddEngine(load_quantized(quant / "model.saqm", spec, f_a=f_a))
            return engine.forward(frame).logits.tolist()

        assert records[ref.id] == logits(12) != logits(8)
        sim_doc = json.loads((sim_out / "result.json").read_text())
        assert [int(v) for v in sim_doc["results"]["logits"]] == logits(12)
        assert json.loads((infer_out / "result.json").read_text())["config"]["f_a"] == 12
        result = runner.invoke(main, ["infer", "--model", str(quant), "--fa", "8",
                                      "--data", str(data_dir / "shifted"), "-o", str(infer_out)])
        assert result.exit_code == 2  # no such option: model.json alone sets f_a

    @pytest.mark.parametrize("engine", ["float", "shift-add"])
    def test_infer_over_an_empty_dataset_writes_no_records(self, runner, tmp_path, trained_model,
                                                           quantized_model, engine):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.json").write_text(json.dumps(
            {"name": "empty", "class_names": ["a", "b", "c"], "samples": []}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "infer", "--model", str(quantized_model if engine == "shift-add" else trained_model),
            "--data", str(empty), "--engine", engine, "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "records.txt").read_bytes() == b""
        assert json.loads((out / "result.json").read_text())["results"]["samples"] == 0

    def test_infer_float_matches_simulate_argmax(self, runner, tmp_path, trained_model,
                                                 quantized_model, data_dir):
        out = tmp_path / "ff"
        result = runner.invoke(main, [
            "infer", "--model", str(trained_model), "--data", str(data_dir / "shifted"),
            "--engine", "float", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        records = {line.split(",")[0]: line.split(",")[1:5]
                   for line in (out / "records.txt").read_text().strip().splitlines()}
        shifted = ingest_dataset(data_dir / "shifted")
        sample_file = data_dir / "shifted" / shifted.manifest.samples[0].file
        sim_out = tmp_path / "sim"
        result = runner.invoke(main, [
            "simulate", "--model", str(trained_model), "--frame", str(sample_file),
            "--engine", "float", "-o", str(sim_out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((sim_out / "result.json").read_text())
        # the simulator streams the unfolded model infer runs, so its logits are infer's, bit for bit
        *logits, argmax = records[shifted.manifest.samples[0].id]
        assert [repr(v) for v in doc["results"]["logits"]] == logits
        assert str(doc["results"]["argmax"]) == argmax
        assert doc["results"]["modeled_cycles"] > 0
        assert doc["results"]["modeled_cycles"] == max(
            s["padded_elements_in"] for s in doc["results"]["stages"])
        stage_names = [s["name"] for s in doc["results"]["stages"]]
        assert stage_names[0] == "conv1" and stage_names[-1] == "fc1"

    @pytest.mark.parametrize("clock_mhz", ["inf", "nan", "1e9"])
    def test_simulate_unreportable_clock_exits_with_json_error(self, runner, tmp_path,
                                                              trained_model, data_dir,
                                                              clock_mhz):
        # at 1e9 MHz the student's few thousand cycles round to 0.000 ms
        shifted = ingest_dataset(data_dir / "shifted")
        result = runner.invoke(main, [
            "simulate", "--model", str(trained_model), "--engine", "float",
            "--frame", str(data_dir / "shifted" / shifted.manifest.samples[0].file),
            "--clock-mhz", clock_mhz, "-o", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "ConfigurationError"

    def test_infer_float_rejects_non_finite_weights(self, runner, tmp_path, trained_model,
                                                    data_dir):
        broken = tmp_path / "nan-model"
        shutil.copytree(trained_model, broken)
        blob = bytearray((broken / "model.sacw").read_bytes())
        # magic, version and layer count (8 bytes), conv1's 13-byte record, then its kernel
        blob[21:25] = np.float32(np.nan).tobytes()
        (broken / "model.sacw").write_bytes(bytes(blob))
        result = runner.invoke(main, [
            "infer", "--model", str(broken), "--data", str(data_dir / "shifted"),
            "--engine", "float", "-o", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "NumericError"

    @pytest.mark.parametrize("engine", ["float", "shift-add"])
    @pytest.mark.parametrize("text, error", [
        ('{"standardizer": {"mean": 0.0, "std": 1.0}}', "ConfigurationError"),
        ('{"spec": {"layers": 3}, "standardizer": {}}', "ConfigurationError"),
        ('{"spec": ', "ParseError"),
    ], ids=["no-spec", "bad-fields", "not-json"])
    def test_corrupt_model_json_exits_with_json_error(self, runner, tmp_path, trained_model,
                                                      quantized_model, data_dir, engine,
                                                      text, error):
        broken = tmp_path / "broken"
        shutil.copytree(quantized_model if engine == "shift-add" else trained_model, broken)
        (broken / "model.json").write_text(text)
        result = runner.invoke(main, [
            "infer", "--model", str(broken), "--data", str(data_dir / "shifted"),
            "--engine", engine, "-o", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == error

    @pytest.mark.parametrize("engine, edit, message", [
        ("shift-add", {"f_a": 12.9}, "f_a must be a JSON integer, got 12.9"),
        ("shift-add", {"f_a": True}, "f_a must be a JSON integer, got True"),
        ("float", {"relu": "no"}, "layer conv1: relu must be a JSON boolean, got 'no'"),
        ("float", {"padding": True}, "layer conv1: padding must be a JSON integer, got True"),
    ], ids=["f_a-float", "f_a-bool", "relu-string", "padding-bool"])
    def test_mistyped_model_json_exits_with_json_error(self, runner, tmp_path, trained_model,
                                                       quantized_model, data_dir, engine, edit,
                                                       message):
        """model.json's f_a is a JSON integer and each layer's flags JSON booleans: a value
        read as one (12.9 as 12, true as 1, "no" as truthy) exits 1 instead of running."""
        broken = tmp_path / "broken"
        shutil.copytree(quantized_model if engine == "shift-add" else trained_model, broken)
        doc = json.loads((broken / "model.json").read_text())
        (doc if "f_a" in edit else doc["spec"]["layers"][0]).update(edit)
        (broken / "model.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "infer", "--model", str(broken), "--data", str(data_dir / "shifted"),
            "--engine", engine, "-o", str(out),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "ConfigurationError"
        assert error["message"].endswith(message)
        assert not (out / "records.txt").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("std", 0.0, "standardizer std must be finite and > 0, got 0.0"),
        ("std", float("nan"), "standardizer std must be finite and > 0, got nan"),
        ("mean", float("inf"), "standardizer mean must be finite, got inf"),
        ("mean", True, "standardizer mean must be a JSON number, got True"),
        ("std", "2.5", "standardizer std must be a JSON number, got '2.5'"),
    ], ids=["std-0", "std-nan", "mean-inf", "mean-bool", "std-string"])
    def test_degenerate_standardizer_exits_with_json_error(self, runner, tmp_path, trained_model,
                                                           data_dir, field, value, message):
        broken = tmp_path / "broken"
        shutil.copytree(trained_model, broken)
        doc = json.loads((broken / "model.json").read_text())
        doc["standardizer"][field] = value
        (broken / "model.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "infer", "--model", str(broken), "--data", str(data_dir / "shifted"),
            "--engine", "float", "-o", str(out),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == {"type": "ConfigurationError",
                                                      "message": message}
        assert not (out / "records.txt").exists()

    @pytest.mark.parametrize("label", [True, "2", 2.7, 0.5], ids=["true", "string", "2.7", "0.5"])
    def test_mistyped_manifest_label_exits_with_json_error(self, runner, tmp_path, trained_model,
                                                           data_dir, label):
        """A manifest label must be a JSON integer: one that truncates to the file's own
        label (true as 1, "2" and 2.7 as 2, 0.5 as 0) exits 1 instead of loading."""
        data = tmp_path / "data"
        shutil.copytree(data_dir / "shifted", data)
        doc = json.loads((data / "manifest.json").read_text())
        sample = next(s for s in doc["samples"] if s["label"] == int(label))
        sample["label"] = label
        (data / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "infer", "--model", str(trained_model), "--data", str(data),
            "--engine", "float", "-o", str(out),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "IngestionError"
        assert f"sample {sample['id']!r}: label must be a JSON integer, got {label!r}" in error["message"]
        assert not (out / "records.txt").exists()

    @pytest.mark.parametrize("engine", ["float", "shift-add"])
    def test_unknown_pool_mode_exits_with_json_error(self, runner, tmp_path, trained_model,
                                                     quantized_model, data_dir, engine):
        broken = tmp_path / "broken"
        shutil.copytree(quantized_model if engine == "shift-add" else trained_model, broken)
        doc = json.loads((broken / "model.json").read_text())
        pool = next(layer for layer in doc["spec"]["layers"] if layer["name"] == "avgpool1")
        pool["mode"] = "median"
        (broken / "model.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "infer", "--model", str(broken), "--data", str(data_dir / "shifted"),
            "--engine", engine, "-o", str(out),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "ConfigurationError"
        assert "layer avgpool1: pool mode" in error["message"]
        assert not (out / "records.txt").exists()

    @pytest.mark.parametrize("missing, engine", [
        ("model.json", "float"), ("model.sacw", "float"), ("model.saqm", "shift-add"),
    ])
    def test_missing_model_file_exits_with_json_error(self, runner, tmp_path, trained_model,
                                                      quantized_model, data_dir,
                                                      missing, engine):
        broken = tmp_path / "broken"
        shutil.copytree(quantized_model if engine == "shift-add" else trained_model, broken)
        (broken / missing).unlink()
        result = runner.invoke(main, [
            "infer", "--model", str(broken), "--data", str(data_dir / "shifted"),
            "--engine", engine, "-o", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "IngestionError"
        assert missing in error["message"]

    def test_simulate_shift_add_agrees_with_infer(self, runner, tmp_path,
                                                  quantized_model, data_dir):
        shifted = ingest_dataset(data_dir / "shifted")
        ref = shifted.manifest.samples[2]
        out = tmp_path / "sim-int"
        result = runner.invoke(main, [
            "simulate", "--model", str(quantized_model),
            "--frame", str(data_dir / "shifted" / ref.file),
            "--engine", "shift-add", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "result.json").read_text())
        infer_out = tmp_path / "inf-int"
        result = runner.invoke(main, [
            "infer", "--model", str(quantized_model), "--data", str(data_dir / "shifted"),
            "--engine", "shift-add", "-o", str(infer_out),
        ])
        records = {line.split(",")[0]: line.split(",")
                   for line in (infer_out / "records.txt").read_text().strip().splitlines()}
        assert doc["results"]["argmax"] == int(records[ref.id][4])
        assert [int(v) for v in doc["results"]["logits"]] == [int(records[ref.id][i]) for i in (1, 2, 3)]
        model_doc = json.loads((quantized_model / "model.json").read_text())
        qmodel = load_quantized(quantized_model / "model.saqm",
                                ModelSpec.from_json(model_doc["spec"]), f_a=model_doc["f_a"])
        frame, _ = read_sample(data_dir / "shifted" / ref.file)
        scaler = Standardizer.from_json(model_doc["standardizer"])
        streamed = stream_quantized_forward(qmodel, scaler.apply(frame)[None, :, :])
        assert [StageReport(**stage) for stage in doc["results"]["stages"]] == streamed.stages


class TestReport:
    def test_paper_rounding_output(self, runner):
        result = runner.invoke(main, ["report", "--cycles", "25112", "--clock-mhz", "303",
                                      "--rounding", "paper"])
        assert result.exit_code == 0
        assert "0.083 ms" in result.output
        assert "3084" in result.output
        assert "38550 m" in result.output

    def test_compression_line(self, runner):
        result = runner.invoke(main, ["report", "--n", "3", "--bits", "3"])
        assert result.exit_code == 0
        assert "28.125%" in result.output

    def test_exact_rounding(self, runner):
        result = runner.invoke(main, ["report", "--rounding", "exact"])
        assert result.exit_code == 0
        assert "3088" in result.output
        assert "38600 m" in result.output

    def test_json_doc_embeds_config_and_version(self, runner, tmp_path):
        result = runner.invoke(main, ["report", "-o", str(tmp_path)])
        assert result.exit_code == 0
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["tool"]["version"] == __version__
        assert doc["config"]["rounding"] == "paper"
        assert doc["results"]["counts"]["param_count"] == 30771

    def test_unknown_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["report", "--frobnicate"])
        assert result.exit_code == 2


class TestPipelineReproducibility:
    def _run_pipeline(self, root: Path):
        runner = CliRunner()
        steps = [
            ["gen-data", "--seed", "11", "--per-class", "5", "-o", str(root / "data")],
            ["train", "--data", str(root / "data" / "base"), "--arch", "student",
             "--seed", "2", "--folds", "2", "--epochs", "1", "--batch", "8",
             "--emit-logits", str(root / "teacher.csv"), "-o", str(root / "teacher")],
            ["distill", "--data", str(root / "data" / "base"),
             "--teacher-logits", str(root / "teacher.csv"), "--seed", "2",
             "--folds", "2", "--epochs", "1", "--batch", "8", "-o", str(root / "student")],
            ["quantize", "--model", str(root / "student"), "--no-sweep",
             "--n", "3", "--bits", "3", "-o", str(root / "quant")],
            ["infer", "--model", str(root / "quant"),
             "--data", str(root / "data" / "shifted"), "-o", str(root / "infer")],
        ]
        for step in steps:
            result = runner.invoke(main, step)
            assert result.exit_code == 0, f"{step}: {result.output}"

    def test_fixed_seed_pipeline_is_byte_identical(self, tmp_path):
        for sub in ("run1", "run2"):
            self._run_pipeline(tmp_path / sub)
        artifacts = ["teacher.csv", "teacher/model.sacw", "student/model.sacw",
                     "quant/model.saqm", "infer/records.txt"]
        for rel in artifacts:
            a = (tmp_path / "run1" / rel).read_bytes()
            b = (tmp_path / "run2" / rel).read_bytes()
            assert a == b, f"artifact {rel} differs between identical runs"
        samples_a = sorted((tmp_path / "run1" / "data").rglob("*.dvsf"))
        samples_b = sorted((tmp_path / "run2" / "data").rglob("*.dvsf"))
        assert [p.read_bytes() for p in samples_a] == [p.read_bytes() for p in samples_b]


class TestExportFeatures:
    def test_flatten_export_shape(self, runner, tmp_path, trained_model, data_dir):
        out = tmp_path / "features"
        result = runner.invoke(main, [
            "export-features", "--model", str(trained_model),
            "--data", str(data_dir / "shifted"), "--layer", "flatten", "-o", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = (out / "features.csv").read_text().strip().splitlines()
        assert len(rows) == 12
        assert all(len(r.split(",")) == 2 + 2048 for r in rows)

    def test_repeat_export_byte_identical(self, runner, tmp_path, trained_model, data_dir):
        outs = []
        for sub in ("f1", "f2"):
            out = tmp_path / sub
            result = runner.invoke(main, [
                "export-features", "--model", str(trained_model),
                "--data", str(data_dir / "shifted"), "-o", str(out),
            ])
            assert result.exit_code == 0
            outs.append((out / "features.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_layer_fails(self, runner, tmp_path, trained_model, data_dir):
        result = runner.invoke(main, [
            "export-features", "--model", str(trained_model),
            "--data", str(data_dir / "shifted"), "--layer", "bogus",
            "-o", str(tmp_path / "x"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"]["type"] == "ConfigurationError"


@pytest.mark.parametrize("args, error", [
    (lambda model, data, a_file, tmp: ["distill", "--data", str(data / "base"),
                                       "--teacher-logits", str(tmp), "-o", str(tmp / "out")],
     "IsADirectoryError"),
    (lambda model, data, a_file, tmp: ["gen-data", "--per-class", "1", "-o", str(a_file)],
     "NotADirectoryError"),
    (lambda model, data, a_file, tmp: ["report", "-o", str(a_file / "x")],
     "NotADirectoryError"),
    (lambda model, data, a_file, tmp: ["infer", "--model", str(model),
                                       "--data", str(data / "shifted"), "--engine", "float",
                                       "-o", str(a_file)],
     "FileExistsError"),
], ids=["distill-teacher-logits-dir", "gen-data-into-file", "report-under-file",
        "infer-onto-file"])
def test_filesystem_errors_exit_with_json_error(runner, tmp_path, trained_model, data_dir,
                                                args, error):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    result = runner.invoke(main, args(trained_model, data_dir, a_file, tmp_path))
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"]["type"] == error
