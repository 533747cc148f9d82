import math
from functools import partial

import numpy as np
import pytest

from shiftadd_dvs.errors import ConfigurationError, DomainError
from shiftadd_dvs.losses import (KDConfig, ce_logit_gradient, cross_entropy, kd_logit_gradient,
                                 kd_loss, kl_divergence)
from shiftadd_dvs.layers import log_softmax, softmax_temperature


class TestCrossEntropy:
    def test_uniform_prediction(self):
        for label in range(3):
            assert cross_entropy([0.0, 0.0, 0.0], label) == pytest.approx(math.log(3), rel=1e-12)

    def test_confident_correct(self):
        loss = cross_entropy([10.0, -10.0, -10.0], 0)
        # -log(e^10 / (e^10 + 2 e^-10)) = log1p(2 e^-20)
        assert loss == pytest.approx(math.log1p(2 * math.exp(-20)), rel=1e-9)
        assert loss < 5e-9

    def test_nonnegative(self, rng):
        for _ in range(100):
            logits = rng.normal(size=4) * 5
            label = int(rng.integers(0, 4))
            assert cross_entropy(logits, label) >= 0.0

    def test_invalid_label(self):
        with pytest.raises(DomainError):
            cross_entropy([0.0, 0.0], 2)
        with pytest.raises(DomainError):
            cross_entropy([0.0, 0.0], -1)

    def test_nonfinite_logits(self):
        with pytest.raises(DomainError):
            cross_entropy([np.nan, 0.0], 0)


class TestKDLoss:
    def test_alpha_one_equals_cross_entropy_bitwise(self, rng):
        cfg = KDConfig(alpha=1.0, temperature=3.7)
        for _ in range(50):
            ys = rng.normal(size=3) * 4
            yt = rng.normal(size=3) * 4
            label = int(rng.integers(0, 3))
            assert kd_loss(ys, yt, label, cfg) == cross_entropy(ys, label)

    def test_alpha_zero_equal_logits_gives_zero(self, rng):
        cfg = KDConfig(alpha=0.0, temperature=5.0)
        logits = rng.normal(size=3)
        assert kd_loss(logits, logits.copy(), 0, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_default_config_is_paper_optimum(self):
        cfg = KDConfig()
        assert cfg.alpha == 0.1
        assert cfg.temperature == 5.0
        assert cfg.t_squared is False

    def test_nonnegative_for_any_alpha(self, rng):
        for _ in range(100):
            cfg = KDConfig(alpha=float(rng.uniform(0, 1)),
                           temperature=float(rng.uniform(0.5, 10)))
            loss = kd_loss(rng.normal(size=3) * 3, rng.normal(size=3) * 3,
                           int(rng.integers(0, 3)), cfg)
            assert loss >= 0.0

    def test_kl_zero_iff_equal_softened(self, rng):
        yt = rng.normal(size=3)
        p = softmax_temperature(yt, 5.0)
        assert kl_divergence(p, log_softmax(yt / 5.0)) == pytest.approx(0.0, abs=1e-12)
        other = rng.normal(size=3) + 2.0
        assert kl_divergence(p, log_softmax(other / 5.0)) > 0.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            kd_loss([0.0, 1.0], [0.0, 1.0, 2.0], 0, KDConfig())

    def test_t_squared_flag_scales_divergence(self, rng):
        ys = rng.normal(size=3)
        yt = rng.normal(size=3) + 1.0
        base = kd_loss(ys, yt, 0, KDConfig(alpha=0.0, temperature=4.0))
        scaled = kd_loss(ys, yt, 0, KDConfig(alpha=0.0, temperature=4.0, t_squared=True))
        assert scaled == pytest.approx(16.0 * base, rel=1e-12)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            KDConfig(alpha=1.5)
        with pytest.raises(ConfigurationError):
            KDConfig(temperature=0.0)


@pytest.mark.parametrize("loss", ["kd", "kd-t-squared", "ce"])
def test_batch_equals_per_sample_calls_bitwise(loss):
    """Rows of float32 logits at scales 0.1-100 in one call give the bits of one call per
    row, losses and logit gradients alike, as the per-sample callers rely on."""
    rng = np.random.default_rng(31)
    cfg = KDConfig(t_squared=loss == "kd-t-squared")
    for classes in (2, 3, 7):
        for scale in (0.1, 1.0, 10.0, 100.0):
            ys = (rng.normal(size=(64, classes)) * scale).astype(np.float32)
            yt = (rng.normal(size=(64, classes)) * scale).astype(np.float32)
            labels = rng.integers(0, classes, size=64)
            if loss == "ce":
                loss_fn, grad_fn = cross_entropy, ce_logit_gradient
                args, row_args = (ys, labels), [(ys[i], int(labels[i])) for i in range(64)]
            else:
                loss_fn, grad_fn = partial(kd_loss, cfg=cfg), partial(kd_logit_gradient, cfg=cfg)
                args = (ys, yt, labels)
                row_args = [(ys[i], yt[i], int(labels[i])) for i in range(64)]
            rows = [loss_fn(*a) for a in row_args]
            assert all(type(value) is float for value in rows)
            assert loss_fn(*args).tobytes() == np.array(rows).tobytes()
            assert grad_fn(*args).tobytes() == np.array([grad_fn(*a) for a in row_args]).tobytes()

def test_batch_labels_are_checked_per_row():
    logits = np.zeros((3, 4))
    with pytest.raises(DomainError, match="label 4 out of range for 4 classes"):
        cross_entropy(logits, [0, 4, -1])
    with pytest.raises(DomainError, match="label -1 out of range"):
        ce_logit_gradient(logits, [0, 3, -1])
    with pytest.raises(DomainError, match="label 9 out of range"):
        kd_logit_gradient(logits, logits, [9, 0, 0], KDConfig())
    with pytest.raises(ConfigurationError):
        kd_loss(logits, logits, [0, 1], KDConfig())
    with pytest.raises(DomainError, match="finite"):
        kd_loss(logits, np.full((3, 4), np.nan), [0, 1, 2], KDConfig())
