"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 10 and 11 train
desk-scale models on the synthetic benchmark and take a few minutes; the rest
complete in seconds. Criterion 10's extended check against a converted
real-world corpus only runs when SHIFTADD_DVS_REAL_DATA points at it.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from shiftadd_dvs.cli import main as cli_main
from shiftadd_dvs.encoding import encode_layer, decode_layer
from shiftadd_dvs.engine import ShiftAddEngine, shift_add_mul
from shiftadd_dvs.losses import KDConfig, cross_entropy, kd_loss
from shiftadd_dvs.model import (
    count_report,
    default_student_spec,
    fold_model_batchnorm,
    model_forward,
    wide_student_spec,
)
from shiftadd_dvs.quantize import (
    ShiftQuantParam,
    dequantize_model,
    fixed_point_value,
    shift_quantize_model,
    shift_quantize_param,
)
from shiftadd_dvs.stream import stream_float_forward, stream_quantized_forward
from shiftadd_dvs.synth import synth_sample
from shiftadd_dvs.training import (
    Standardizer,
    TrainConfig,
    evaluate_accuracy,
    predict_logits,
    train_model,
)

from conftest import make_small_model
from test_grads import check_instance, draw_fd_instance, FD_TOL


def report_pass(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} [{label}]: PASS{suffix}")


# -- 1. compression arithmetic ----------------------------------------------

def test_criterion_01_compression_arithmetic():
    start = time.time()
    runner = CliRunner()
    result = runner.invoke(cli_main, ["report", "--n", "3", "--bits", "3"])
    assert result.exit_code == 0
    assert "28.125%" in result.output
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass(1, "compression arithmetic", f"28.125% in {elapsed:.2f}s")


# -- 2. throughput arithmetic ------------------------------------------------

def test_criterion_02_throughput_arithmetic():
    start = time.time()
    runner = CliRunner()
    result = runner.invoke(cli_main, [
        "report", "--cycles", "25112", "--clock-mhz", "303",
        "--frame-s", "0.256", "--span-m", "12.5", "--rounding", "paper"])
    assert result.exit_code == 0
    assert "0.083 ms" in result.output
    assert "frames per period: 3084" in result.output
    assert "38550 m" in result.output
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass(2, "throughput arithmetic", f"0.083 ms / 3084 / 38550 m in {elapsed:.2f}s")


# -- 3. parameter count -------------------------------------------------------

def test_criterion_03_parameter_count():
    without = count_report(default_student_spec(batchnorm=False))["param_count"]
    with_bn = count_report(default_student_spec(batchnorm=True))["param_count"]
    assert without == 30531
    assert with_bn == 30771
    report_pass(3, "parameter count", f"{without} plain / {with_bn} with batchnorm")


# -- 4. shift-add exactness ---------------------------------------------------

def test_criterion_04_shift_add_exactness():
    start = time.time()
    rng = np.random.default_rng(20240804)
    frac_bits, int_bits = 16, 2
    align = frac_bits + int_bits
    total = 1_000_000
    acts = rng.integers(-(2 ** 20) + 1, 2 ** 20, size=total)
    counts = rng.integers(1, 6, size=total)
    signs = rng.choice(np.array([-1, 1]), size=total)
    all_shifts = np.argsort(rng.random((total, align)), axis=1)[:, :5] + 1
    failures = 0
    for i in range(total):
        k = counts[i]
        shifts = tuple(sorted(int(s) for s in all_shifts[i, :k]))
        q = ShiftQuantParam(sign=int(signs[i]), shifts=shifts)
        act = int(acts[i])
        weight_scaled = q.sign * sum(1 << (align - s) for s in shifts)
        if shift_add_mul(act, q, frac_bits, int_bits) != act * weight_scaled:
            failures += 1
    elapsed = time.time() - start
    assert failures == 0
    assert elapsed < 30.0
    report_pass(4, "shift-add exactness", f"{total} pairs, 0 failures, {elapsed:.1f}s")


# -- 5. quantization monotonicity and plateau --------------------------------

def test_criterion_05_quantization_monotonicity():
    rng = np.random.default_rng(20240805)
    frac_bits, int_bits = 16, 2
    total = 100_000
    weights = rng.uniform(-3.9, 3.9, size=total)
    scaled = np.abs(np.rint(weights * float(1 << frac_bits))).astype(np.int64)
    # running top-k reconstruction per weight, vectorized over bit positions
    kept = np.zeros(total, dtype=np.int64)
    count = np.zeros(total, dtype=np.int64)
    values = np.zeros((total, frac_bits + int_bits + 1), dtype=np.int64)
    for k in range(frac_bits + int_bits - 1, -1, -1):
        bit = (scaled >> k) & 1
        take = bit == 1
        kept = np.where(take, kept + (1 << k), kept)
        count = np.where(take, count + 1, count)
        values[np.arange(total), np.where(take, count, 0)] = np.where(take, kept, values[:, 0])
    popcount = count
    failures = 0
    for n in range(1, frac_bits + int_bits + 1):
        idx = np.minimum(n, popcount)
        recon = values[np.arange(total), idx]
        err = scaled - recon
        if np.any(err < 0):
            failures += 1
        if n > 1:
            if np.any(err > prev_err):
                failures += 1
        prev_err = err
    assert failures == 0
    assert np.all(prev_err == 0), "error must vanish at n = F + I"
    # spot-check the vectorized oracle against the implementation
    for w in rng.uniform(-3.9, 3.9, size=200):
        target = abs(fixed_point_value(float(w), frac_bits, int_bits))
        prev = np.inf
        for n in range(1, frac_bits + int_bits + 1):
            err = target - shift_quantize_param(float(w), n).magnitude(int_bits)
            assert 0.0 <= err <= prev + 1e-18
            prev = err
        assert prev == 0.0
    report_pass(5, "quantization monotonicity", f"{total} weights, zero failures")


# -- 6. encode/decode losslessness --------------------------------------------

def test_criterion_06_encode_decode_losslessness():
    rng = np.random.default_rng(20240806)
    checked = 0
    for _ in range(10_000):
        bits = int(rng.integers(1, 9))
        size = int(rng.integers(1, 40))
        values = rng.integers(0, 24, size=size).tolist()
        bias, codes, clamped = encode_layer(values, bits)
        lossless = decode_layer(bias, codes) == values
        assert (clamped == 0) == lossless
        if max(values) - min(values) < (1 << bits):
            assert lossless
        checked += 1
    assert checked == 10_000
    report_pass(6, "encode/decode losslessness", f"{checked} random layers")


# -- 7. streaming equivalence --------------------------------------------------

def test_criterion_07_streaming_equivalence():
    start = time.time()
    int_pairs = 0
    float_pairs = 0
    for trial in range(100):
        rng = np.random.default_rng([7100, trial])
        spec, params = make_small_model(rng, batchnorm=False, weight_scale=0.8)
        q = shift_quantize_model(spec, params, 3)
        frame = rng.normal(size=spec.input_shape)
        batch = ShiftAddEngine(q).forward(frame)
        streamed = stream_quantized_forward(q, frame)
        np.testing.assert_array_equal(streamed.logits, batch.logits)
        int_pairs += 1
    for trial in range(100):
        rng = np.random.default_rng([7200, trial])
        spec, params = make_small_model(rng, batchnorm=False)
        frame = rng.normal(size=spec.input_shape)
        batch = model_forward(spec, params, frame)
        streamed = stream_float_forward(spec, params, frame)
        np.testing.assert_array_equal(streamed.logits, batch)
        float_pairs += 1
    elapsed = time.time() - start
    assert int_pairs == 100 and float_pairs == 100
    assert elapsed < 120.0
    report_pass(7, "streaming equivalence",
                f"{int_pairs} integer + {float_pairs} float pairs bit-identical, {elapsed:.1f}s")


# -- 8. gradient correctness ----------------------------------------------------

def test_criterion_08_gradient_correctness():
    worst_overall = 0.0
    for seed in range(20):
        kd = seed % 2 == 1
        spec, params, x, labels, teacher = draw_fd_instance(8000 + seed, kd=kd)
        worst = check_instance(spec, params, x, labels, teacher,
                               KDConfig() if kd else None)
        worst_overall = max(worst_overall, worst)
        assert worst < FD_TOL
    report_pass(8, "gradient correctness",
                f"20 instances, worst relative error {worst_overall:.2e}")


# -- 9. KD degenerate forms -----------------------------------------------------

def test_criterion_09_kd_degenerate_forms():
    rng = np.random.default_rng(20240809)
    for _ in range(200):
        ys = rng.normal(size=3) * 4
        yt = rng.normal(size=3) * 4
        label = int(rng.integers(0, 3))
        cfg = KDConfig(alpha=1.0, temperature=float(rng.uniform(0.5, 10)))
        assert kd_loss(ys, yt, label, cfg) == cross_entropy(ys, label)
        cfg0 = KDConfig(alpha=0.0, temperature=float(rng.uniform(0.5, 10)))
        assert kd_loss(ys, ys.copy(), label, cfg0) == pytest.approx(0.0, abs=1e-12)
    report_pass(9, "KD degenerate forms", "alpha=1 bitwise CE; alpha=0 self-KL zero")


# -- 10 & 11: desk-scale training fixtures --------------------------------------
#
# The benchmark protocol was tuned once and is frozen: the student trains on a
# deliberately small slice of the base distribution while the teacher (same
# architecture) sees a ~5.7x larger pool, emulating the generalization edge of
# a large teacher at desk scale. All randomness is seeded, so these runs are
# reproducible bit for bit on one platform.

BENCH_STUDENT_PER_CLASS = 35
BENCH_TEACHER_PER_CLASS = 200
BENCH_VAL_PER_CLASS = 40
BENCH_SHIFT_PER_CLASS = 70
BENCH_STUDENT_EPOCHS = 50
BENCH_TEACHER_EPOCHS = 25
BENCH_SEEDS = (0, 1, 2, 3, 4)


def _bench_frames(variant, per_class, seed, offset=0):
    frames, labels = [], []
    for cls in range(3):
        for i in range(offset, offset + per_class):
            frames.append(synth_sample(seed, variant, cls, i)[None])
            labels.append(cls)
    return np.stack(frames).astype(np.float32), np.array(labels, dtype=np.int64)


def _run_benchmark_seed(seed):
    """Data-rich teacher, baseline student, KD student; shifted-set accuracies."""
    teacher_x, teacher_y = _bench_frames("base", BENCH_TEACHER_PER_CLASS, seed)
    take = np.concatenate([np.arange(c * BENCH_TEACHER_PER_CLASS,
                                     c * BENCH_TEACHER_PER_CLASS + BENCH_STUDENT_PER_CLASS)
                           for c in range(3)])
    student_x, student_y = teacher_x[take], teacher_y[take]
    val_x, val_y = _bench_frames("base", BENCH_VAL_PER_CLASS, seed,
                                 offset=BENCH_TEACHER_PER_CLASS)
    shift_x, shift_y = _bench_frames("shifted", BENCH_SHIFT_PER_CLASS, seed)
    scaler = Standardizer.fit(student_x)
    sx = scaler.apply(student_x).astype(np.float32)
    tx = scaler.apply(teacher_x).astype(np.float32)
    vx = scaler.apply(val_x).astype(np.float32)
    hx = scaler.apply(shift_x).astype(np.float32)

    teacher_spec = default_student_spec(batchnorm=False)
    teacher = train_model(teacher_spec, tx, teacher_y,
                          TrainConfig(max_epochs=BENCH_TEACHER_EPOCHS, dtype=np.float32),
                          seed=seed * 1000 + 1)
    teacher_logits = predict_logits(teacher_spec, teacher.params, sx)

    spec = default_student_spec(batchnorm=False)
    base_cfg = TrainConfig(max_epochs=BENCH_STUDENT_EPOCHS, dtype=np.float32)
    baseline = train_model(spec, sx, student_y, base_cfg, seed=seed * 1000 + 2)
    kd_cfg = TrainConfig(max_epochs=BENCH_STUDENT_EPOCHS, dtype=np.float32,
                         kd=KDConfig(alpha=0.1, temperature=5.0))
    distilled = train_model(spec, sx, student_y, kd_cfg, seed=seed * 1000 + 2,
                            teacher_logits=teacher_logits)
    return {
        "spec": spec,
        "scaler": scaler,
        "seed": seed,
        "baseline": baseline.params,
        "distilled": distilled.params,
        "teacher_shift": evaluate_accuracy(teacher_spec, teacher.params, hx, shift_y),
        "baseline_val": evaluate_accuracy(spec, baseline.params, vx, val_y),
        "baseline_shift": evaluate_accuracy(spec, baseline.params, hx, shift_y),
        "kd_val": evaluate_accuracy(spec, distilled.params, vx, val_y),
        "kd_shift": evaluate_accuracy(spec, distilled.params, hx, shift_y),
        "val": (vx, val_y),
    }


_BENCH_CACHE: dict = {}


def _benchmark_run(seed):
    if seed not in _BENCH_CACHE:
        _BENCH_CACHE[seed] = _run_benchmark_seed(seed)
    return _BENCH_CACHE[seed]


def test_criterion_10_distillation_effect():
    runs = [_benchmark_run(seed) for seed in BENCH_SEEDS]
    baseline_mean = float(np.mean([r["baseline_shift"] for r in runs]))
    kd_mean = float(np.mean([r["kd_shift"] for r in runs]))
    base_vals = float(np.mean([r["baseline_val"] for r in runs]))
    # the harness must exhibit a generalization gap at all
    assert base_vals > baseline_mean
    assert kd_mean > baseline_mean
    report_pass(10, "distillation effect",
                f"shifted accuracy {baseline_mean:.3f} -> {kd_mean:.3f} over {len(BENCH_SEEDS)} seeds")


@pytest.mark.skipif(not os.environ.get("SHIFTADD_DVS_REAL_DATA"),
                    reason="extended check needs SHIFTADD_DVS_REAL_DATA (converted corpus)")
def test_criterion_10_extended_real_data():
    from shiftadd_dvs.dataset import ingest_dataset
    from shiftadd_dvs.training import kfold_train
    root = Path(os.environ["SHIFTADD_DVS_REAL_DATA"])
    ds1 = ingest_dataset(root / "dataset1")
    ds2 = ingest_dataset(root / "dataset2")
    table_path = root / "teacher_logits.csv"
    table = None
    if table_path.exists():
        from shiftadd_dvs.training import load_teacher_logits
        table = load_teacher_logits(table_path, expected_ids=ds1.ids)
    cfg = TrainConfig(kd=KDConfig() if table else None)
    result = kfold_train(ds1.frames, ds1.labels, ds2.frames, ds2.labels,
                         default_student_spec(), cfg, seed=0,
                         teacher_table=table, train_ids=ds1.ids)
    assert result.mean_val_accuracy >= 0.97
    if table is not None:
        assert abs(result.mean_test_accuracy - 0.9539) <= 0.03
    report_pass(10, "distillation effect (extended, real data)",
                f"val {result.mean_val_accuracy:.4f} test {result.mean_test_accuracy:.4f}")


def test_criterion_11_quantized_accuracy_recovery():
    run = _benchmark_run(BENCH_SEEDS[0])
    spec = run["spec"]
    params = run["baseline"]
    # a larger held-out validation pool keeps the 0.5-point tolerance meaningful
    eval_x, eval_y = _bench_frames("base", 200, run["seed"], offset=240)
    vx = run["scaler"].apply(eval_x).astype(np.float32)
    fspec, fparams = fold_model_batchnorm(spec, params)
    float_acc = evaluate_accuracy(fspec, fparams, vx, eval_y)
    accuracies = {}
    for n in (1, 2, 3):
        q = shift_quantize_model(fspec, fparams, n)
        accuracies[n] = evaluate_accuracy(fspec, dequantize_model(q), vx, eval_y)
    assert accuracies[3] >= accuracies[1]
    assert abs(accuracies[3] - float_acc) <= 0.005
    # argmax agreement with the float model recovers with more terms
    logits_float = predict_logits(fspec, fparams, vx)
    agree = {}
    for n in (2, 3):
        q = shift_quantize_model(fspec, fparams, n)
        logits_q = predict_logits(fspec, dequantize_model(q), vx)
        agree[n] = float(np.mean(np.argmax(logits_q, 1) == np.argmax(logits_float, 1)))
    assert agree[3] >= agree[2]
    # the integer shift-add engine tracks the dequantized float model
    q3 = shift_quantize_model(fspec, fparams, 3)
    engine = ShiftAddEngine(q3)
    deq = dequantize_model(q3)
    engine_agree = 0
    for i in range(100):
        res = engine.forward(vx[i])
        engine_agree += int(res.argmax == int(np.argmax(model_forward(fspec, deq, vx[i]))))
    assert engine_agree >= 99
    report_pass(11, "quantized accuracy recovery",
                f"float {float_acc:.3f}, N=1 {accuracies[1]:.3f}, N=3 {accuracies[3]:.3f}, "
                f"agreement N2 {agree[2]:.3f} <= N3 {agree[3]:.3f}, engine {engine_agree}/100")
