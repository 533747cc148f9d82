import numpy as np
import pytest

from shiftadd_dvs.errors import NumericError
from shiftadd_dvs.grads import batch_loss, forward_batch
from shiftadd_dvs.losses import KDConfig
from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    init_params,
    param_arrays,
)

from conftest import make_small_model

FD_STEP = 1e-3
FD_TOL = 1e-4
KINK_MARGIN = 0.05


def finite_difference_gradients(spec, params, loss_fn):
    """Central differences over every trainable scalar."""
    grads = {}
    for name, arr in param_arrays(spec, params).items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            plus = loss_fn()
            flat[i] = orig - FD_STEP
            minus = loss_fn()
            flat[i] = orig
            gf[i] = (plus - minus) / (2 * FD_STEP)
        grads[name] = g
    return grads


def instance_is_fd_safe(spec, params, x):
    """Reject draws whose relu/maxpool inputs sit near a nondifferentiable point."""
    _, caches = forward_batch(spec, params, x, training=True, record_margins=True)
    for cache in caches:
        if cache.get("relu_margin", 1.0) < KINK_MARGIN:
            return False
        if cache.get("pool_gap", 1.0) < KINK_MARGIN:
            return False
    return True


def draw_fd_instance(seed, batch=2, kd=False, batchnorm=False):
    """Deterministically search for an FD-safe random instance."""
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt])
        spec, params = make_small_model(rng, batchnorm=batchnorm)
        x = rng.normal(size=(batch, *spec.input_shape))
        labels = rng.integers(0, 3, size=batch)
        teacher = rng.normal(size=(batch, 3)) * 2 if kd else None
        if instance_is_fd_safe(spec, params, x):
            return spec, params, x, labels, teacher
    raise AssertionError("could not find an FD-safe instance")


def check_instance(spec, params, x, labels, teacher, kd_cfg):
    def loss_fn():
        loss, _, _, _ = batch_loss(spec, params, x, labels, teacher_logits=teacher,
                                   kd=kd_cfg, training=True)
        return loss

    analytic = batch_loss(spec, params, x, labels, teacher_logits=teacher, kd=kd_cfg)[1]
    numeric = finite_difference_gradients(spec, params, loss_fn)
    worst = 0.0
    for name, fd in numeric.items():
        an = analytic[name]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - an) / denom)))
    return worst


@pytest.mark.parametrize("seed", range(5))
def test_ce_gradients_match_finite_differences(seed):
    spec, params, x, labels, _ = draw_fd_instance(seed)
    worst = check_instance(spec, params, x, labels, None, None)
    assert worst < FD_TOL


@pytest.mark.parametrize("seed", range(5, 9))
def test_kd_gradients_match_finite_differences(seed):
    spec, params, x, labels, teacher = draw_fd_instance(seed, kd=True)
    worst = check_instance(spec, params, x, labels, teacher, KDConfig())
    assert worst < FD_TOL


def test_batchnorm_gradients_match_finite_differences():
    spec, params, x, labels, _ = draw_fd_instance(101, batchnorm=True)
    worst = check_instance(spec, params, x, labels, None, None)
    assert worst < FD_TOL


def test_zero_network_dense_bias_gradient():
    spec = ModelSpec(layers=(
        ConvSpec(name="conv1", out_channels=2, kernel=(3, 3), padding=1,
                 relu=False, batchnorm=False),
        FlattenSpec(),
        DenseSpec(name="head", out_features=3),
    ), input_shape=(1, 4, 4), class_count=3)
    params = init_params(spec, np.random.default_rng(0))
    for arr in param_arrays(spec, params).values():
        arr[...] = 0.0
    x = np.random.default_rng(1).normal(size=(1, 1, 4, 4))
    for label in range(3):
        grads = batch_loss(spec, params, x, np.array([label]))[1]
        onehot = np.zeros(3)
        onehot[label] = 1.0
        np.testing.assert_allclose(grads["head.bias"], np.full(3, 1 / 3) - onehot,
                                   atol=1e-12)


def test_dead_input_channel_gets_zero_gradient(rng):
    spec = ModelSpec(layers=(
        ConvSpec(name="conv1", out_channels=3, kernel=(2, 2), padding=0,
                 relu=True, batchnorm=False),
        FlattenSpec(),
        DenseSpec(name="head", out_features=3),
    ), input_shape=(2, 5, 5), class_count=3)
    params = init_params(spec, rng)
    x = rng.normal(size=(2, 2, 5, 5))
    x[:, 1] = 0.0  # channel 1 carries no signal
    grads = batch_loss(spec, params, x, np.array([0, 2]))[1]
    np.testing.assert_array_equal(grads["conv1.kernel"][:, 1], 0.0)
    assert np.any(grads["conv1.kernel"][:, 0] != 0.0)


def test_nonfinite_loss_reports_sample_id(rng):
    spec, params = make_small_model(rng)
    x = rng.normal(size=(2, *spec.input_shape))
    x[1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="s1"):
        batch_loss(spec, params, x, np.array([0, 1]), sample_ids=["s0", "s1"])


def test_gradients_deterministic(rng):
    spec, params = make_small_model(rng)
    x = rng.normal(size=(3, *spec.input_shape))
    labels = np.array([0, 1, 2])
    a = batch_loss(spec, params, x, labels)[1]
    b = batch_loss(spec, params, x, labels)[1]
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
