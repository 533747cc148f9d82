import numpy as np
import pytest

from shiftadd_dvs.errors import (
    ConfigurationError,
    IngestionError,
    NumericError,
    ParseError,
    StratificationError,
)
from shiftadd_dvs.layers import conv2d_forward
from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    PoolLayerSpec,
    init_params,
    model_forward,
    param_arrays,
)
from shiftadd_dvs.rng import stream
from shiftadd_dvs.training import (
    PREDICT_BATCH,
    RECALIBRATION_CHUNK,
    Standardizer,
    TrainConfig,
    evaluate_accuracy,
    kfold_train,
    _recalibrate_running_stats,
    load_teacher_logits,
    predict_logits,
    save_teacher_logits,
    stratified_folds,
    train_model,
)


def tiny_spec(batchnorm=True):
    return ModelSpec(layers=(
        ConvSpec(name="conv1", out_channels=4, kernel=(3, 3), padding=1,
                 relu=True, batchnorm=batchnorm),
        PoolLayerSpec(name="pool1", mode="max", window=(2, 2), stride=2),
        FlattenSpec(),
        DenseSpec(name="head", out_features=3),
    ), input_shape=(1, 8, 6), class_count=3)


def separable_toy_set(n_per_class=10, noise=0.05, seed=7):
    """Three classes with disjoint spatial energy footprints."""
    rng = np.random.default_rng(seed)
    frames, labels = [], []
    for cls in range(3):
        for _ in range(n_per_class):
            frame = rng.normal(0, noise, size=(1, 8, 6))
            frame[0, :, 2 * cls:2 * cls + 2] += 2.0
            frames.append(frame)
            labels.append(cls)
    return np.stack(frames), np.array(labels, dtype=np.int64)


class TestStratifiedFolds:
    def test_ten_samples_make_five_folds_of_two(self):
        labels = np.array([0] * 5 + [1] * 5)
        folds = stratified_folds(labels, 5, stream(0, "folds"))
        sizes = [int(np.sum(folds == k)) for k in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_dataset_one_counts_split_five_ways(self):
        # class distribution 3332/3558/3359 over 10249 samples
        labels = np.concatenate([np.zeros(3332), np.ones(3558), np.full(3359, 2)]).astype(int)
        folds = stratified_folds(labels, 5, stream(1, "folds"))
        assert labels.shape[0] == 10249
        for cls, count in ((0, 3332), (1, 3558), (2, 3359)):
            per_fold = [int(np.sum((folds == k) & (labels == cls))) for k in range(5)]
            assert sum(per_fold) == count
            assert max(per_fold) - min(per_fold) <= 1
        sizes = [int(np.sum(folds == k)) for k in range(5)]
        assert sum(sizes) == 10249

    def test_same_seed_identical_assignment(self):
        labels = np.array([0, 1, 2] * 20)
        a = stratified_folds(labels, 5, stream(3, "folds"))
        b = stratified_folds(labels, 5, stream(3, "folds"))
        np.testing.assert_array_equal(a, b)

    def test_small_class_raises(self):
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(StratificationError):
            stratified_folds(labels, 5, stream(0, "folds"))


class TestTrainModel:
    def test_linearly_separable_reaches_full_accuracy(self):
        frames, labels = separable_toy_set()
        spec = tiny_spec()
        scaler = Standardizer.fit(frames)
        cfg = TrainConfig(batch_size=30, max_epochs=200)
        result = train_model(spec, scaler.apply(frames), labels, cfg, seed=0)
        acc = evaluate_accuracy(spec, result.params, scaler.apply(frames), labels)
        assert acc == 1.0
        assert result.epochs <= 200

    def test_determinism_bitwise(self):
        frames, labels = separable_toy_set()
        spec = tiny_spec()
        cfg = TrainConfig(batch_size=16, max_epochs=5)
        a = train_model(spec, frames, labels, cfg, seed=42)
        b = train_model(spec, frames, labels, cfg, seed=42)
        assert a.epoch_losses == b.epoch_losses
        for name, arr in param_arrays(spec, a.params).items():
            np.testing.assert_array_equal(arr, param_arrays(spec, b.params)[name])

    def test_running_stats_recalibrated_over_the_training_set(self):
        frames, labels = separable_toy_set()
        spec = tiny_spec()
        result = train_model(spec, frames, labels, TrainConfig(batch_size=16, max_epochs=3),
                             seed=3)
        conv1 = result.params.entries[0]
        layer = spec.layers[0]
        outs = np.stack([conv2d_forward(x, conv1, layer.stride, layer.padding)
                         for x in frames])
        np.testing.assert_allclose(conv1.bn.mean, outs.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(conv1.bn.var, outs.var(axis=(0, 2, 3)))

    def test_running_stats_recalibrated_across_chunks(self):
        """Over a set one ``RECALIBRATION_CHUNK`` and five frames long, the per-chunk
        statistics combine into those of the whole set."""
        rng = np.random.default_rng(4)
        spec = tiny_spec()
        params = init_params(spec, rng)
        frames = rng.normal(size=(RECALIBRATION_CHUNK + 5, *spec.input_shape))
        _recalibrate_running_stats(spec, params, frames)
        conv1 = params.entries[0]
        layer = spec.layers[0]
        outs = np.stack([conv2d_forward(x, conv1, layer.stride, layer.padding)
                         for x in frames])
        np.testing.assert_allclose(conv1.bn.mean, outs.mean(axis=(0, 2, 3)), rtol=1e-9)
        np.testing.assert_allclose(conv1.bn.var, outs.var(axis=(0, 2, 3)), rtol=1e-9)

    def test_empty_training_set_rejected(self):
        frames, labels = separable_toy_set(n_per_class=2)
        with pytest.raises(ConfigurationError, match="x holds no training frames"):
            train_model(tiny_spec(), frames[:0], labels[:0], TrainConfig(), seed=0)

    def test_lr_trace_and_losses_recorded(self):
        frames, labels = separable_toy_set(n_per_class=5)
        cfg = TrainConfig(batch_size=15, max_epochs=4)
        result = train_model(tiny_spec(), frames, labels, cfg, seed=1)
        assert len(result.epoch_losses) == result.epochs == 4
        assert len(result.lr_trace) == 4


class TestKFold:
    def test_kfold_metrics_and_determinism(self):
        frames, labels = separable_toy_set(n_per_class=10)
        shifted, shifted_labels = separable_toy_set(n_per_class=5, noise=0.3, seed=9)
        spec = tiny_spec()
        cfg = TrainConfig(batch_size=24, max_epochs=6)
        a = kfold_train(frames, labels, shifted, shifted_labels, spec, cfg, seed=11)
        b = kfold_train(frames, labels, shifted, shifted_labels, spec, cfg, seed=11)
        assert a.fold_assignment == b.fold_assignment
        assert a.val_accuracies == b.val_accuracies
        assert a.test_accuracies == b.test_accuracies
        assert len(a.val_accuracies) == 5
        assert 0.0 <= a.mean_val_accuracy <= 1.0

    def test_kd_requires_matching_ids(self):
        frames, labels = separable_toy_set(n_per_class=2)
        spec = tiny_spec()
        cfg = TrainConfig(batch_size=6, max_epochs=1)
        table = {"only-one": np.zeros(3)}
        with pytest.raises(IngestionError):
            kfold_train(frames, labels, None, None, spec, cfg, seed=0, k=2,
                        teacher_table=table, train_ids=[f"s{i}" for i in range(len(labels))])


class TestTeacherLogits:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "teacher.csv"
        ids = ["a", "b", "c"]
        logits = np.array([[1.0, -2.0, 0.25], [0.0, 0.0, 0.0], [9.5, 1.5, -3.25]])
        save_teacher_logits(path, ids, logits)
        table = load_teacher_logits(path, expected_ids=ids)
        assert set(table) == set(ids)
        for i, ident in enumerate(ids):
            np.testing.assert_array_equal(table[ident], logits[i])

    def test_empty_file_empty_dataset(self, tmp_path):
        path = tmp_path / "teacher.csv"
        save_teacher_logits(path, [], np.zeros((0, 3)))
        assert load_teacher_logits(path, expected_ids=[]) == {}

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "teacher.csv"
        save_teacher_logits(path, ["a", "b"], np.zeros((2, 3)))
        with pytest.raises(IngestionError):
            load_teacher_logits(path, expected_ids=["a", "b", "c"])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_logit_rejected(self, tmp_path, cell):
        path = tmp_path / "teacher.csv"
        path.write_text(f"a,1.0,2.0,3.0\nb,1.0,{cell},3.0\n")
        with pytest.raises(NumericError, match=":2"):
            load_teacher_logits(path)

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "teacher.csv"
        path.write_text("a,1.0,2.0,3.0\nb,oops,2.0,3.0\n")
        with pytest.raises(ParseError, match=":2"):
            load_teacher_logits(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "teacher.csv"
        path.write_text("a,1.0,2.0\n")
        with pytest.raises(ParseError, match=":1"):
            load_teacher_logits(path)


def test_predict_logits_covers_every_frame_across_batches():
    """``predict_logits`` runs ``PREDICT_BATCH`` frames per forward call; over a set one batch
    and three frames long each row holds its own frame's eval-mode logits, in order."""
    rng = np.random.default_rng(6)
    spec = tiny_spec()
    params = init_params(spec, rng)
    bn = params.entries[0].bn
    bn.mean[...] = rng.normal(size=bn.mean.shape) * 0.1
    bn.var[...] = rng.uniform(0.5, 2.0, size=bn.var.shape)
    frames = rng.normal(size=(PREDICT_BATCH + 3, *spec.input_shape))
    logits = predict_logits(spec, params, frames)
    assert logits.shape == (PREDICT_BATCH + 3, spec.class_count)
    want = np.stack([model_forward(spec, params, x) for x in frames])
    np.testing.assert_allclose(logits, want, rtol=0, atol=1e-5)
    assert predict_logits(spec, params, frames[:0]).shape == (0, spec.class_count)


def test_standardizer_fit_apply():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.5, size=(10, 1, 4, 4))
    scaler = Standardizer.fit(x)
    z = scaler.apply(x)
    assert abs(float(np.mean(z))) < 1e-12
    assert abs(float(np.std(z)) - 1.0) < 1e-12
    assert Standardizer.from_json(scaler.to_json()) == scaler


@pytest.mark.parametrize("doc, message", [
    ({"mean": True, "std": 2.5}, "standardizer mean must be a JSON number, got True"),
    ({"mean": 0.5, "std": "2.5"}, "standardizer std must be a JSON number, got '2.5'"),
    ({"mean": None, "std": 2.5}, "standardizer mean must be a JSON number, got None"),
    ({"mean": 0.5, "std": [2.5]}, "standardizer std must be a JSON number, got [2.5]"),
    ({"mean": 0.5, "std": float("nan")}, "standardizer std must be finite and > 0, got nan"),
    ({"mean": float("-inf"), "std": 2.5}, "standardizer mean must be finite, got -inf"),
    ({"mean": 0.5, "std": 10 ** 400}, "standardizer std must be a JSON number within the "
                                      "float range, got an integer of 401 digits"),
], ids=["mean-bool", "std-string", "mean-null", "std-list", "std-nan", "mean-inf", "std-huge"])
def test_standardizer_from_json_takes_only_finite_numbers(doc, message):
    with pytest.raises(ConfigurationError) as err:
        Standardizer.from_json(doc)
    assert str(err.value) == message


def test_standardizer_from_json_reads_integers_as_floats():
    scaler = Standardizer.from_json({"mean": -3, "std": 2})
    assert (scaler.mean, scaler.std) == (-3.0, 2.0)
    assert type(scaler.mean) is type(scaler.std) is float
