"""Training loops: single-model training and the 5-fold protocol.

Training is deterministic for a fixed seed: initialization, batch order and
fold assignment each draw from their own named substream. Input frames are
standardized with a global mean/std computed on the training portion only, and
the same constants are applied to validation and test data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, IngestionError, NumericError, ParseError,
                     StratificationError)
from .grads import batch_loss, forward_batch
from .losses import KDConfig
from .model import ConvSpec, ModelParams, ModelSpec, init_params, param_arrays, set_param_arrays
from .optim import OptimizerState, adam_update, lr_plateau_schedule
from .rng import stream
from ._ioutil import atomic_write_text, json_typed

# Frames per forward_batch call. Bits depend on both: a GEMM kernel may round a row
# differently with the batch's shape, and recalibration combines per-chunk statistics.
PREDICT_BATCH = 256
RECALIBRATION_CHUNK = 512


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 100
    min_lr: float = 1e-6
    patience: int = 5
    weight_scale: float = 1.0
    dtype: type = np.float64
    kd: KDConfig | None = None

    def __post_init__(self):
        for name, value in (("batch_size", self.batch_size), ("max_epochs", self.max_epochs)):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")

    def to_json(self) -> dict:
        doc = {"lr": self.lr, "batch_size": self.batch_size, "max_epochs": self.max_epochs,
               "min_lr": self.min_lr, "patience": self.patience,
               "weight_scale": self.weight_scale, "dtype": np.dtype(self.dtype).name, "kd": None}
        if self.kd is not None:
            doc["kd"] = {"alpha": self.kd.alpha, "temperature": self.kd.temperature,
                         "t_squared": self.kd.t_squared}
        return doc


@dataclass
class TrainResult:
    params: ModelParams
    epoch_losses: list[float] = field(default_factory=list)
    lr_trace: list[float] = field(default_factory=list)
    epochs: int = 0


@dataclass
class Standardizer:
    """Global mean/std normalization fitted on training data only."""

    mean: float
    std: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ConfigurationError(f"standardizer mean must be finite, got {self.mean}")
        if not (math.isfinite(self.std) and self.std > 0):
            raise ConfigurationError(f"standardizer std must be finite and > 0, got {self.std}")

    @staticmethod
    def fit(x: np.ndarray) -> "Standardizer":
        std = float(np.std(x))
        return Standardizer(mean=float(np.mean(x)), std=std if std > 0 else 1.0)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def to_json(self) -> dict:
        return {"mean": self.mean, "std": self.std}

    @staticmethod
    def from_json(doc: dict) -> "Standardizer":
        """The standardizer of ``doc``, whose mean and std must be finite JSON numbers."""
        return Standardizer(mean=json_typed(doc["mean"], float, "standardizer mean"),
                            std=json_typed(doc["std"], float, "standardizer std"))


def train_model(spec: ModelSpec, x: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
                seed: int, teacher_logits: np.ndarray | None = None,
                sample_ids=None, init: ModelParams | None = None) -> TrainResult:
    """Train one model; ``teacher_logits`` rows must align with ``x`` rows.

    Batchnorm running statistics are set once, over every training frame,
    after the last step.
    """
    x = np.asarray(x, dtype=cfg.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ConfigurationError("x holds no training frames")
    params = init if init is not None else init_params(spec, stream(seed, "init"),
                                                       weight_scale=cfg.weight_scale,
                                                       dtype=cfg.dtype)
    state = OptimizerState(lr=cfg.lr, patience=cfg.patience)
    order_rng = stream(seed, "batch_order")
    result = TrainResult(params=params)
    for _epoch in range(cfg.max_epochs):
        perm = order_rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            take = perm[start:start + cfg.batch_size]
            teacher = teacher_logits[take] if teacher_logits is not None else None
            ids = [sample_ids[i] for i in take] if sample_ids is not None else None
            loss, grads, _, _ = batch_loss(spec, params, x[take], labels[take],
                                           teacher_logits=teacher, kd=cfg.kd,
                                           training=True, sample_ids=ids)
            arrays = param_arrays(spec, params)
            set_param_arrays(spec, params, adam_update(arrays, grads, state))
            total += loss * len(take)
        epoch_loss = total / n
        result.epoch_losses.append(epoch_loss)
        result.lr_trace.append(state.lr)
        lr_plateau_schedule(state, epoch_loss)
        result.epochs += 1
        if state.lr < cfg.min_lr:
            break
    object.__setattr__(params, "step_workspace", None)  # no step on these params follows
    _recalibrate_running_stats(spec, params, x)
    return result


def _recalibrate_running_stats(spec: ModelSpec, params: ModelParams, x: np.ndarray) -> None:
    """Replace running batchnorm statistics with full-training-set statistics."""
    if not any(isinstance(layer, ConvSpec) and layer.batchnorm for layer in spec.layers):
        return
    stats: dict[str, tuple] = {}  # layer name: (its batchnorm, per-chunk statistics)
    for start in range(0, x.shape[0], RECALIBRATION_CHUNK):
        part = x[start:start + RECALIBRATION_CHUNK]
        _, caches = forward_batch(spec, params, part, training=True)
        for cache in caches:
            if cache["kind"] == "conv" and "bn" in cache:
                count = part.shape[0] * cache["out_hw"][0] * cache["out_hw"][1]
                stats.setdefault(cache["layer"].name, (cache["entry"].bn, []))[1].append(
                    (count, cache["bn"]["batch_mu"], cache["bn"]["batch_var"]))
    for bn, chunks in stats.values():
        total = sum(c for c, _, _ in chunks)
        mean = sum(c * mu for c, mu, _ in chunks) / total
        second = sum(c * (var + mu * mu) for c, mu, var in chunks) / total
        bn.mean[...] = mean
        bn.var[...] = np.maximum(second - mean * mean, 0.0)


def evaluate_accuracy(spec: ModelSpec, params: ModelParams, x: np.ndarray,
                      labels: np.ndarray) -> float:
    """Eval-mode argmax accuracy."""
    predicted = np.argmax(predict_logits(spec, params, x), axis=1)
    return int(np.sum(predicted == np.asarray(labels, dtype=np.int64))) / max(1, x.shape[0])


def predict_logits(spec: ModelSpec, params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits, ``PREDICT_BATCH`` frames per forward call."""
    out = [forward_batch(spec, params, x[start:start + PREDICT_BATCH], training=False)[0]
           for start in range(0, x.shape[0], PREDICT_BATCH)]
    return np.concatenate(out, axis=0) if out else np.zeros((0, spec.class_count))


def stratified_folds(labels: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Per-class round-robin fold assignment after a seeded shuffle."""
    labels = np.asarray(labels, dtype=np.int64)
    folds = np.full(labels.shape[0], -1, dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.shape[0] < k:
            raise StratificationError(
                f"class {cls} has {idx.shape[0]} samples, cannot fill {k} folds")
        idx = rng.permutation(idx)
        folds[idx] = np.arange(idx.shape[0]) % k
    return folds


@dataclass
class KFoldResult:
    fold_assignment: list[int]
    val_accuracies: list[float]
    test_accuracies: list[float]
    mean_val_accuracy: float
    mean_test_accuracy: float
    fold_params: list[ModelParams]
    standardizers: list[Standardizer]
    loss_curves: list[list[float]]
    lr_traces: list[list[float]]
    seed: int

    def to_json(self, sample_ids=None, config: TrainConfig | None = None) -> dict:
        doc = {
            "seed": self.seed,
            "fold_assignment": list(map(int, self.fold_assignment)),
            "val_accuracies": self.val_accuracies,
            "test_accuracies": self.test_accuracies,
            "mean_val_accuracy": self.mean_val_accuracy,
            "mean_test_accuracy": self.mean_test_accuracy,
            "loss_curves": self.loss_curves,
            "lr_traces": self.lr_traces,
            "standardizers": [s.to_json() for s in self.standardizers],
        }
        if sample_ids is not None:
            doc["sample_ids"] = list(sample_ids)
        if config is not None:
            doc["config"] = config.to_json()
        return doc


def kfold_train(train_x, train_y, test_x, test_y, spec: ModelSpec, cfg: TrainConfig,
                seed: int, k: int = 5, teacher_table: dict | None = None,
                train_ids=None) -> KFoldResult:
    """k-fold cross-validation, optionally with a fixed external test set.

    ``teacher_table`` maps sample id -> teacher logits vector; when present,
    ``train_ids`` must name every training sample and the KD loss is used.
    With ``test_x`` None the test metrics stay at 0.
    """
    if k < 2:
        raise ConfigurationError(f"folds must be >= 2, got {k}")
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    folds = stratified_folds(train_y, k, stream(seed, "folds"))
    teacher_logits = None
    if teacher_table is not None:
        if train_ids is None:
            raise IngestionError("teacher logits need sample ids to match against")
        missing = [i for i in train_ids if i not in teacher_table]
        if missing:
            raise IngestionError(f"teacher logits missing for sample {missing[0]!r}")
        teacher_logits = np.stack([np.asarray(teacher_table[i], dtype=np.float64)
                                   for i in train_ids])
    result = KFoldResult(fold_assignment=list(map(int, folds)), val_accuracies=[],
                         test_accuracies=[], mean_val_accuracy=0.0, mean_test_accuracy=0.0,
                         fold_params=[], standardizers=[], loss_curves=[], lr_traces=[],
                         seed=seed)
    for fold in range(k):
        train_mask = folds != fold
        scaler = Standardizer.fit(train_x[train_mask])
        fit_x = scaler.apply(train_x[train_mask])
        val_x = scaler.apply(train_x[~train_mask])
        fold_teacher = teacher_logits[train_mask] if teacher_logits is not None else None
        fold_ids = None
        if train_ids is not None:
            fold_ids = [i for i, keep in zip(train_ids, train_mask) if keep]
        trained = train_model(spec, fit_x, train_y[train_mask], cfg,
                              seed=seed * k + fold, teacher_logits=fold_teacher,
                              sample_ids=fold_ids)
        val_acc = evaluate_accuracy(spec, trained.params, val_x, train_y[~train_mask])
        test_acc = 0.0
        if test_x is not None:
            test_acc = evaluate_accuracy(spec, trained.params, scaler.apply(test_x),
                                         np.asarray(test_y, dtype=np.int64))
        result.fold_params.append(trained.params)
        result.standardizers.append(scaler)
        result.val_accuracies.append(val_acc)
        result.test_accuracies.append(test_acc)
        result.loss_curves.append(trained.epoch_losses)
        result.lr_traces.append(trained.lr_trace)
    result.mean_val_accuracy = float(np.mean(result.val_accuracies))
    result.mean_test_accuracy = float(np.mean(result.test_accuracies))
    return result


def save_teacher_logits(path, ids, logits) -> None:
    """One text record per sample: ``sample_id,logit_0,logit_1,...``."""
    logits = np.asarray(logits, dtype=np.float64)
    lines = []
    for ident, row in zip(ids, logits):
        values = ",".join(repr(float(v)) for v in row)
        lines.append(f"{ident},{values}")
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_teacher_logits(path, expected_ids=None, class_count: int = 3) -> dict[str, np.ndarray]:
    """Parse a teacher logits file into an id-keyed table."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    table: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != class_count + 1:
            raise ParseError(f"{path}:{lineno}: expected {class_count + 1} fields, got {len(parts)}")
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise NumericError(f"{path}:{lineno}: non-finite logit")
        if parts[0] in table:
            raise ParseError(f"{path}:{lineno}: duplicate sample id {parts[0]!r}")
        table[parts[0]] = np.array(values, dtype=np.float64)
    if expected_ids is not None:
        expected = list(expected_ids)
        if len(table) != len(expected):
            raise IngestionError(
                f"{path}: {len(table)} records for {len(expected)} dataset samples")
        missing = [i for i in expected if i not in table]
        if missing:
            raise IngestionError(f"{path}: no record for sample {missing[0]!r}")
    return table
