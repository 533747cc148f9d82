"""Self-test of the benchmark: run it at the smallest size and make its checks fail.

    python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, inputs, oracle, tracing, workloads  # noqa: E402
from perfbench.measure import Items, tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smallest_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--smallest")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "infer-batch", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench")
    return inputs.generate(5, root / "inputs", inputs.Sizes.smallest()), root


def _ready(cls, small_inputs):
    inp, root = small_inputs
    wl = cls(inp, root)
    wl.setup()
    assert all(ok for _, ok in wl.prepare_checks())
    return wl


def test_logit_one_lsb_off_fails_engine_check(small_inputs):
    wl = _ready(workloads.InferBatch, small_inputs)
    logits = wl.run(0)
    assert wl.check(0, logits)
    for i in range(len(logits)):
        bad = logits.copy()
        bad[i] += 1
        assert not wl.check(0, bad)
    items = Items()
    items.attempt(wl, 0, lambda k: logits + 1)
    items.attempt(wl, 0, lambda k: 1 // 0)
    assert (items.attempted, items.failed) == (2, 2)


def test_logit_one_lsb_off_fails_stream_check(small_inputs):
    wl = _ready(workloads.StreamSim, small_inputs)
    result = wl.run(0)
    assert wl.check(0, result)
    result.logits = result.logits.copy()
    result.logits[0] -= 1
    assert not wl.check(0, result)
    result = wl.run(1)
    result.modeled_cycles += 1
    assert not wl.check(1, result)


def test_nan_loss_fails_training_check(small_inputs):
    wl = _ready(workloads.TrainDistill, small_inputs)
    assert wl.check(0, wl.run(0))
    assert not wl.check(1, float("nan"))
    assert not wl.check(1, float("inf"))


def test_oracle_matches_engine_on_a_clamped_encoding(small_inputs):
    inp, _ = small_inputs
    assert any(e.encoding.clamp_count for e in inp.encoded.layers())
    wl = _ready(workloads.InferBatch, small_inputs)
    ref = oracle.IntegerOracle(inp.encoded)
    for frame in wl.frames:
        expected, _ = ref.logits(frame)
        assert oracle.logits_match(wl.engine.forward(frame).logits, expected)


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [tracing.Span("item", 0.0, 1.0, None, 0),
                tracing.Span("a", 0.1, 0.4, 0, 0),
                tracing.Span("a", 0.5, 0.6, 0, 0),
                tracing.Span("b", 0.6, 0.9, 0, 0)]
    assert np.allclose(tr.self_times(), [0.3, 0.3, 0.1, 0.3])
    assert tr.per_item_ms("a") == pytest.approx([400.0])


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 41)]
    value, pct, n = tail(values)
    assert (pct, n) == (75, 40)
    assert sum(v > value for v in values) >= 10
    assert tail(values[:10])[1:] == (100, 10)


def test_items_are_scaled_to_the_kernels_reference_speed():
    ref = calibrate.REF_MS * 1e-3
    assert calibrate.scale_factors([ref] * 4) == pytest.approx([1.0] * 3)
    assert calibrate.scale_factors([2 * ref] * 6) == pytest.approx([0.5] * 5)
    # One kernel run caught by a hiccup does not move its neighbours' figures.
    assert calibrate.scale_factors([ref, ref, 9 * ref, ref, ref, ref]) == pytest.approx([1.0] * 5)
    # The host slowing halfway through shows in the items timed after it.
    factors = calibrate.scale_factors([ref] * 6 + [2 * ref] * 6)
    assert factors[0] == pytest.approx(1.0) and factors[-1] == pytest.approx(0.5)


def test_compare_refuses_runs_whose_inputs_differ(tmp_path):
    from perfbench import compare

    def record(directory, fingerprint, value):
        directory.mkdir(exist_ok=True)
        doc = {"detail": {"workload": "infer-batch", "trace": 0, "seed": 1, "smallest": False,
                          "fingerprints": {"inputs": fingerprint}},
               "metrics": {"latency_p50_ms": value}}
        (directory / f"{fingerprint}-{value}.json").write_text(json.dumps(doc))

    record(tmp_path / "a", "same", 100.0)
    record(tmp_path / "b", "same", 110.0)
    record(tmp_path / "c", "other", 90.0)
    same = "\n".join(compare.compare(compare.load(tmp_path / "a"), compare.load(tmp_path / "b")))
    assert "latency_p50_ms" in same and "+10.0%" in same
    differ = "\n".join(compare.compare(compare.load(tmp_path / "a"), compare.load(tmp_path / "c")))
    assert "NOT COMPARED" in differ and "latency_p50_ms" not in differ


def test_oracle_falls_back_to_exact_integers_when_int64_could_overflow():
    cols = np.array([[1 << 40, -(1 << 40)]], dtype=np.int64)
    weights = np.array([[1 << 30, 3]], dtype=np.int64)
    biases = np.array([5], dtype=np.int64)
    acc = oracle._exact_affine(cols, weights, biases, ((1 << 30) + 3, 5))
    assert acc[0, 0] == (1 << 70) - 3 * (1 << 40) + 5
    out, saturated = oracle._requantize(acc, 16)
    assert out.dtype == np.int64 and out[0, 0] == oracle.ACT_LIMIT and saturated == 1
    out, _ = oracle._requantize(np.array([3 << 15, 5 << 15, -(3 << 15)], dtype=np.int64), 16)
    assert out.tolist() == [2, 2, -2]  # halves round to even
