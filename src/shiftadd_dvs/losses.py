"""Classification and distillation losses.

The distillation loss blends hard-label cross-entropy with the divergence
between tempered teacher and student distributions:

    alpha * CE(student, label) + (1 - alpha) * KL(soft_teacher || soft_student)

with both distributions softened at the same temperature. The optional
``t_squared`` flag additionally scales the divergence term by T^2 (the classic
recipe); it is off by default.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .layers import log_softmax, softmax_temperature


@dataclass(frozen=True)
class KDConfig:
    alpha: float = 0.1
    temperature: float = 5.0
    t_squared: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.temperature > 0:
            raise ConfigurationError(f"temperature must be > 0, got {self.temperature}")


def _per_row(values: np.ndarray) -> float | np.ndarray:
    """A per-row result as a float for one row (0-d), else as the array of rows."""
    return float(values) if values.ndim == 0 else values


def _label_index(label, z: np.ndarray):
    """Where each row of z holds its label's entry, each label checked to be a class index.

    z is one row of logits with an int label, or a (B, classes) batch with B labels.
    """
    labels = np.array(int(label)) if z.ndim == 1 else np.asarray(label).astype(np.int64)
    if z.ndim > 2 or labels.shape != z.shape[:-1]:
        raise ConfigurationError(f"{labels.size} labels for logits of shape {z.shape}")
    bad = np.flatnonzero((labels < 0) | (labels >= z.shape[-1]))
    if len(bad):
        raise DomainError(f"label {labels.flat[bad[0]]} out of range for {z.shape[-1]} classes")
    return labels if z.ndim == 1 else (np.arange(len(labels)), labels)


def cross_entropy(logits, label) -> float | np.ndarray:
    """-log softmax(logits)[label], evaluated in log-sum-exp form.

    Works per row: one row of logits and an int label give a float, a
    (B, classes) array and B labels give B losses.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise DomainError("logits must be finite")
    return _per_row(-log_softmax(z)[_label_index(label, z)])


def kl_divergence(p, log_q) -> float | np.ndarray:
    """KL(p || q) per row, with q supplied as log-probabilities; terms with p=0 contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    log_q = np.asarray(log_q, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(np.where(p > 0, p, 1.0)) - log_q), 0.0)
    return _per_row(np.sum(terms, axis=-1))


def _student_teacher(student_logits, teacher_logits) -> tuple[np.ndarray, np.ndarray]:
    ys = np.asarray(student_logits, dtype=np.float64)
    yt = np.asarray(teacher_logits, dtype=np.float64)
    if ys.shape != yt.shape:
        raise ConfigurationError(
            f"student logits shape {ys.shape} does not match teacher {yt.shape}")
    return ys, yt


def kd_loss(student_logits, teacher_logits, label, cfg: KDConfig) -> float | np.ndarray:
    """Distillation loss, per row along the last axis as ``cross_entropy``."""
    ys, yt = _student_teacher(student_logits, teacher_logits)
    ce = cross_entropy(ys, label)
    soft_teacher = softmax_temperature(yt, cfg.temperature)
    log_soft_student = log_softmax(ys / cfg.temperature)
    kl = kl_divergence(soft_teacher, log_soft_student)
    if cfg.t_squared:
        kl *= cfg.temperature ** 2
    return cfg.alpha * ce + (1.0 - cfg.alpha) * kl


def kd_logit_gradient(student_logits, teacher_logits, label, cfg: KDConfig) -> np.ndarray:
    """d(kd_loss)/d(student_logits) per row; the teacher side carries no gradient."""
    ys, yt = _student_teacher(student_logits, teacher_logits)
    probs = softmax_temperature(ys, 1.0)
    probs[_label_index(label, ys)] -= 1.0
    grad = cfg.alpha * probs
    soft_student = softmax_temperature(ys, cfg.temperature)
    soft_teacher = softmax_temperature(yt, cfg.temperature)
    scale = cfg.temperature if cfg.t_squared else (1.0 / cfg.temperature)
    grad += (1.0 - cfg.alpha) * scale * (soft_student - soft_teacher)
    return grad


def ce_logit_gradient(logits, label) -> np.ndarray:
    """d(cross_entropy)/d(logits) = softmax(logits) - onehot(label), per row."""
    z = np.asarray(logits, dtype=np.float64)
    grad = softmax_temperature(z, 1.0)
    grad[_label_index(label, z)] -= 1.0
    return grad
