import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from shiftadd_dvs import grads as grads_module
from shiftadd_dvs.errors import ConfigurationError, NumericError
from shiftadd_dvs.grads import backward_batch, batch_loss, forward_batch, update_running_stats
from shiftadd_dvs.losses import KDConfig, kd_logit_gradient, kd_loss
from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    PoolLayerSpec,
    default_student_spec,
    init_params,
    model_forward,
    param_arrays,
    set_param_arrays,
    wide_student_spec,
)
from shiftadd_dvs.optim import OptimizerState, adam_update
from shiftadd_dvs.training import TrainConfig, train_model

from conftest import make_small_model, make_small_spec, openblas_core

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


# -- a float64 NCHW reference written apart from ``grads`` ----------------------


def argmax_route(d, idx, in_shape, window, stride):
    """Scatter each pooled gradient (B, C, OH, OW) to its window's ``np.argmax`` input."""
    bi, ci, i, j = np.indices(idx.shape)
    dx = np.zeros(in_shape, dtype=d.dtype)
    np.add.at(dx, (bi, ci, i * stride + idx // window[1], j * stride + idx % window[1]), d)
    return dx


def _ref_conv(x, layer, conv, grads):
    k = conv.weights.astype(np.float64)
    s, pad = layer.stride, layer.padding
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, layer.kernel, axis=(2, 3))[:, :, ::s, ::s]
    oh, ow = win.shape[2:4]

    def back(d):
        grads[f"{layer.name}.kernel"] = np.einsum("bmij,bnijpq->mnpq", d, win)
        grads[f"{layer.name}.bias"] = d.sum(axis=(0, 2, 3))
        dxp = np.zeros(xp.shape)
        for pi, qi in np.ndindex(*layer.kernel):
            dxp[:, :, pi:pi + s * oh:s, qi:qi + s * ow:s] += np.einsum(
                "bmij,mn->bnij", d, k[:, :, pi, qi])
        return dxp[:, :, pad:xp.shape[2] - pad, pad:xp.shape[3] - pad]

    return np.einsum("bnijpq,mnpq->bmij", win, k) + conv.bias[:, None, None], back


def _ref_batchnorm(z, name, bn, grads):
    """Training-mode batchnorm in the textbook form."""
    gamma = bn.gamma.astype(np.float64)[:, None, None]
    axes = (0, 2, 3)
    inv_std = 1.0 / np.sqrt(z.var(axis=axes, keepdims=True) + bn.eps)
    xhat = (z - z.mean(axis=axes, keepdims=True)) * inv_std
    count = z.size // z.shape[1]

    def back(d):
        grads[f"{name}.gamma"] = (d * xhat).sum(axis=axes)
        grads[f"{name}.beta"] = d.sum(axis=axes)
        dxhat = d * gamma
        return inv_std / count * (count * dxhat - dxhat.sum(axis=axes, keepdims=True)
                                  - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))

    return gamma * xhat + bn.beta[:, None, None], back


def _ref_pool(x, layer):
    (p, q), s = layer.window, layer.stride
    win = sliding_window_view(x, (p, q), axis=(2, 3))[:, :, ::s, ::s]
    oh, ow = win.shape[2:4]
    if layer.mode == "avg":
        def back(d):
            dx = np.zeros(x.shape)
            for pi, qi in np.ndindex(p, q):
                dx[:, :, pi:pi + s * oh:s, qi:qi + s * ow:s] += d / (p * q)
            return dx
        return win.mean(axis=(-2, -1)), back
    flat = win.reshape(*win.shape[:4], p * q)
    idx = np.argmax(flat, axis=-1)
    return (np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0],
            lambda d: argmax_route(d, idx, x.shape, (p, q), s))


def reference_gradients(spec, params, x, dlogits):
    """(logits, gradients) of a training-mode pass in float64, NCHW throughout.

    Convolutions contract each kernel tap with einsum, batchnorm takes batch
    statistics, and max pooling sends each window's gradient to the input
    ``np.argmax`` picks.
    """
    grads, backs = {}, []
    out = np.asarray(x, dtype=np.float64)
    for layer, entry in zip(spec.layers, params.entries):
        if isinstance(layer, ConvSpec):
            out, back = _ref_conv(out, layer, entry, grads)
            backs.append(back)
            if layer.batchnorm:
                out, back = _ref_batchnorm(out, layer.name, entry.bn, grads)
                backs.append(back)
            if layer.relu:
                mask = out > 0
                out = out * mask
                backs.append(lambda d, mask=mask: d * mask)
        elif isinstance(layer, PoolLayerSpec):
            out, back = _ref_pool(out, layer)
            backs.append(back)
        elif isinstance(layer, FlattenSpec):
            backs.append(lambda d, shape=out.shape: d.reshape(shape))
            out = out.reshape(out.shape[0], -1)
        else:
            def back(d, x_in=out, w=entry.weights.astype(np.float64), name=layer.name):
                grads[f"{name}.weights"] = d.T @ x_in
                grads[f"{name}.bias"] = d.sum(axis=0)
                return d @ w
            backs.append(back)
            out = out @ entry.weights.T.astype(np.float64) + entry.bias
    d = np.asarray(dlogits, dtype=np.float64)
    for back in reversed(backs):
        d = back(d)
    return out, grads


# -- the training step, pinned ---------------------------------------------------
#
# SHA-256 of the logits and of every gradient array of one step. Rewrites of
# the passes must keep these bits. Batchnorm takes batch statistics, or the
# running ones in the "-eval" cases; "-logits" digests the logits alone. The
# digests were taken under OpenBLAS's SkylakeX core: a GEMM kernel that sums in
# another order rounds differently, so a mismatch names the core it ran under.

PINNED_STEP_DIGESTS = {
    "student-float32": "ca028eff49d7d4449ed2ddd0de8eb48b438d89c454917b4a1105e3e416828bcd",
    "student-float64": "ecf860480b400802f9d20194db9df6a3b7ba85522d5ae93eb27c5b30b0943c19",
    "student-batchnorm-float32-logits": "e6396df990ad740c9f330b07f65aac223fdec828f0ca9af07a1034455213e9c1",
    "student-batchnorm-float32": "f37a2e49400a893479155bc465546cf41169c854835d87455720881f82ee8720",
    "student-batchnorm-float64": "58ff882e8fae92ffe8a2032b67a5fe53bc748b444732c42022e86569170cd7e6",
    # at batch 1, conv4's output gradient is a transposed view of the flatten's
    "student-batchnorm-float32-batch1": "a17613875537e40d9a48f2f933ec09c69f6030aca6fb242b01020c2661645398",
    "student-batchnorm-float64-batch1": "fa6bee0270a6d7bdc1f7ba04e36d456886735f8996835ad7cae883faa637874d",
    "student-batchnorm-eval-float32": "c13a7a5656c51e1a5b31c929855fafda132abf6055e2190c2b192fc3e7c52a6e",
    "student-batchnorm-eval-float64": "e6e283958705e8b11e306e447a1b6750c69ae9a49fd4e7c977402544c7249696",
    # make_small_model draws: ragged avg pool; padded conv into a max pool;
    # max pool into a conv; ragged max pool after a padded 4x4 conv
    "small-1": "ee339d347fd6d8a0c47936c3533fff5257206a3064a7a76fad30f4578bb5fc3c",
    "small-4": "87f6bf9c2f15fcf4c14d487e2822c8718685731da0effba56caf22c0a7913c44",
    "small-8": "1944093787ea2ebdbfaaa2ea3de57c84e22370907739c3307e537eaa557139e2",
    "small-10": "dc373aa07a043b0ce5092c13f90a8e258f4fe8b0e488755fb6c74111c07d7209",
}


def _digest(logits, grads):
    h = hashlib.sha256()
    for name, arr in [("logits", logits), *sorted(grads.items())]:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _student_step(batchnorm, dtype, batch=8, training=True):
    """One distillation step of the default student from a fixed draw."""
    rng = np.random.default_rng(2024)
    spec = default_student_spec(batchnorm=batchnorm)
    params = init_params(spec, rng, dtype=dtype)
    x = rng.normal(size=(batch, *spec.input_shape)).astype(dtype)
    labels = rng.integers(0, 3, size=batch)
    teacher = rng.normal(size=(batch, 3)) * 2
    _, grads, logits, _ = batch_loss(spec, params, x, labels, teacher_logits=teacher,
                                     kd=KDConfig(), training=training)
    return logits, grads


def _pinned_step(case):
    if case.startswith("small-"):
        rng = np.random.default_rng(int(case.split("-")[1]))
        spec, params = make_small_model(rng)
        x = rng.normal(size=(3, *spec.input_shape))
        _, grads, logits, _ = batch_loss(spec, params, x, rng.integers(0, 3, size=3))
        return logits, grads
    dtype = np.float32 if "float32" in case else np.float64
    logits, grads = _student_step("batchnorm" in case, dtype, batch=1 if "batch1" in case else 8,
                                  training="eval" not in case)
    return logits, {} if case.endswith("-logits") else grads


@pytest.mark.parametrize("case", sorted(PINNED_STEP_DIGESTS))
def test_training_step_is_pinned(case):
    assert _digest(*_pinned_step(case)) == PINNED_STEP_DIGESTS[case], (
        f"digest taken under OpenBLAS core SkylakeX; this run's core is {openblas_core()}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_column_ops_on_wide_rows_equal_the_plain_broadcast(dtype):
    rng = np.random.default_rng(5)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, tiny, -tiny * 3], dtype)
    # (rows, m) and k: prime rows, 1; conv1 at a short last batch of 7, 64; 308 rows, 4;
    # a single row, 1; 32 channels, 4; more channels than a wide row holds, 1
    for rows, m in [(181, 8), (7 * 2816, 8), (7 * 44, 8), (1, 8), (100, 32), (6, 600)]:
        a = rng.normal(size=(rows, m)).astype(dtype)
        n = min(a.size, 40)
        a.flat[rng.choice(a.size, n, replace=False)] = rng.choice(specials, n)
        v = rng.normal(size=m).astype(dtype)
        v[:len(specials)] = specials[:m]
        for op in (np.add, np.subtract, np.multiply):
            with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf make NaNs on purpose
                want = op(a, v)
                got = grads_module._by_column(op, a.copy(), v)
                out = grads_module._by_column(op, a, v, out=np.empty_like(a))
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), (rows, m, op)
            assert out.tobytes() == want.tobytes(), (rows, m, op)
    # a transposed (64, 8) array fits no (1, 512) view: it is edited in place at k = 1
    transposed = rng.normal(size=(8, 64)).astype(dtype).T
    v = rng.normal(size=8).astype(dtype)
    want = transposed + v
    assert grads_module._by_column(np.add, transposed, v) is transposed
    assert np.ascontiguousarray(transposed).tobytes() == want.tobytes()


def _assert_matches_reference(spec, params, x, rng):
    logits, caches = forward_batch(spec, params, x, training=True)
    dlogits = rng.normal(size=logits.shape)
    grads = backward_batch(spec, params, caches, dlogits)
    ref_logits, ref = reference_gradients(spec, params, x, dlogits)
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-10)
    assert grads.keys() == ref.keys()
    for name, want in ref.items():
        # atol: a gradient whose true value is 0 is rounding noise on both sides;
        # conv biases under training batchnorm are one such, and so is the beta of
        # a batchnorm whose output reaches the next batchnorm through linear maps
        np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-12, err_msg=name)


def test_student_batchnorm_gradients_match_float64_reference():
    rng = np.random.default_rng(2024)
    spec = default_student_spec(batchnorm=True)
    params = init_params(spec, rng)
    _assert_matches_reference(spec, params, rng.normal(size=(8, *spec.input_shape)), rng)


@pytest.mark.parametrize("seed", [1, 4, 8, 10])
@pytest.mark.parametrize("batchnorm", [False, True])
def test_small_model_gradients_match_float64_reference(seed, batchnorm):
    rng = np.random.default_rng(seed)
    spec, params = make_small_model(rng, batchnorm=batchnorm)
    _assert_matches_reference(spec, params, rng.normal(size=(3, *spec.input_shape)), rng)


# -- max pooling: ties, signed zeros, ragged edges, overlaps ---------------------


@pytest.mark.parametrize("shape,window,stride", [
    ((2, 3, 6, 11), (2, 2), 2),   # the default geometry's ragged edge: width 11 -> 5 windows
    ((2, 2, 6, 7), (3, 3), 1),    # overlapping windows
    ((1, 2, 5, 5), (2, 2), 1),
])
def test_max_pool_backward_routes_like_argmax(shape, window, stride):
    rng = np.random.default_rng(sum(shape))
    pre = rng.integers(-2, 2, size=shape).astype(np.float32)
    pre[:, :, :3, :3] = rng.choice([-1.0, 0.0], size=(*shape[:2], 3, 3))
    values = pre * (pre > 0)  # post-ReLU: negatives become -0.0, zeros stay +0.0
    zeros = values == 0
    assert np.any(zeros & np.signbit(values)) and np.any(zeros & ~np.signbit(values))

    win = sliding_window_view(values, window, axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(*win.shape[:4], -1)
    idx = np.argmax(flat, axis=-1)
    assert np.any(np.all(flat == 0, axis=-1)), "no all-zero window"
    # integer gradients keep every overlap sum exact in any order
    d = rng.integers(-9, 10, size=idx.shape).astype(np.float32)
    nhwc = values.transpose(0, 2, 3, 1)
    winner = np.empty((shape[0], *idx.shape[2:], shape[1]), dtype=np.uint8)
    pooled, winner = grads_module._max_pool(nhwc, window, stride, idx.shape[2:], winner)
    np.testing.assert_array_equal(pooled.transpose(0, 3, 1, 2), flat.max(axis=-1))
    np.testing.assert_array_equal(winner.transpose(0, 3, 1, 2), idx)
    dx = grads_module._max_pool_backward(d.transpose(0, 2, 3, 1), winner,
                                         np.zeros(nhwc.shape, np.float32), window, stride)
    np.testing.assert_array_equal(dx.transpose(0, 3, 1, 2),
                                  argmax_route(d, idx, values.shape, window, stride))


def test_overlapping_max_pool_gradients_match_finite_differences():
    spec = ModelSpec(layers=(
        ConvSpec(name="conv1", out_channels=2, kernel=(2, 2), padding=0,
                 relu=False, batchnorm=False),
        PoolLayerSpec(name="pool1", mode="max", window=(3, 3), stride=1),
        FlattenSpec(),
        DenseSpec(name="head", out_features=3),
    ), input_shape=(1, 6, 6), class_count=3)
    for attempt in range(50):
        rng = np.random.default_rng([77, attempt])
        params = init_params(spec, rng)
        x = rng.normal(size=(1, *spec.input_shape))
        if instance_is_fd_safe(spec, params, x):
            break
    else:
        raise AssertionError("could not find an FD-safe instance")
    assert check_instance(spec, params, x, np.array([1]), None, None) < FD_TOL


# -- eval mode against the reference ----------------------------------------------


EVAL_CASES = ["student", "wide-student"] + [f"small-{seed}" for seed in range(6)]


@pytest.mark.parametrize("case", EVAL_CASES)
def test_eval_logits_match_model_forward(case):
    """Eval-mode ``forward_batch``, the path ``predict_logits`` takes, gives the per-frame
    reference's logits under non-trivial batchnorm running statistics, on both students
    and on random small models with batchnorm (padding, 1x1 to 4x4 kernels, max and avg pools)."""
    if case.startswith("small-"):
        rng = np.random.default_rng(int(case.removeprefix("small-")))
        spec = make_small_spec(rng, batchnorm=True)
    else:
        rng = np.random.default_rng(11)
        spec = default_student_spec() if case == "student" else wide_student_spec()
    params = init_params(spec, rng)
    for entry in params.entries:
        if getattr(entry, "bn", None) is not None:
            entry.bn.mean[...] = rng.normal(size=entry.bn.mean.shape) * 0.1
            entry.bn.var[...] = rng.uniform(0.5, 2.0, size=entry.bn.var.shape)
            entry.bn.gamma[...] = rng.uniform(0.5, 1.5, size=entry.bn.gamma.shape)
    x = rng.normal(size=(3, *spec.input_shape))
    logits, _ = forward_batch(spec, params, x, training=False)
    for i in range(3):
        np.testing.assert_allclose(logits[i], model_forward(spec, params, x[i]),
                                   rtol=0, atol=1e-5)


def test_batch_loss_equals_per_sample_losses():
    """``batch_loss`` takes the distillation loss of the whole batch in one call; its loss
    and gradients equal those of one loss call per sample, bit for bit, and a non-finite
    sample is named by the first one in the batch."""
    rng = np.random.default_rng(32)
    spec = default_student_spec(batchnorm=False)  # batch statistics would spread a bad sample
    params = init_params(spec, rng, dtype=np.float32)
    x = rng.normal(size=(16, *spec.input_shape)).astype(np.float32)
    labels = rng.integers(0, 3, size=16)
    teacher = (rng.normal(size=(16, 3)) * 2).astype(np.float32)
    kd = KDConfig()
    loss, grads, logits, _ = batch_loss(spec, params, x, labels, teacher_logits=teacher, kd=kd)
    _, caches = forward_batch(spec, params, x, training=True)
    rows = [kd_loss(logits[i], teacher[i], int(labels[i]), kd) for i in range(16)]
    dlogits = np.array([kd_logit_gradient(logits[i], teacher[i], int(labels[i]), kd)
                        for i in range(16)], dtype=logits.dtype)
    want = backward_batch(spec, params, caches, dlogits / 16)
    assert loss == float(np.array(rows).mean())
    assert grads.keys() == want.keys()
    for name in grads:
        assert grads[name].tobytes() == want[name].tobytes(), name
    x[[3, 9]] = np.inf
    ids = [f"s{i}" for i in range(16)]
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="'s3'"):
        batch_loss(spec, params, x, labels, teacher_logits=teacher, kd=kd, sample_ids=ids)


# -- buffers: the backward writes into the forward's arrays -------------------------


def test_caches_are_single_use():
    """``backward_batch`` overwrites its caches' ``cols`` and ``xhat``: a second call on them
    raises instead of returning gradients of overwritten arrays, while the batch statistics
    that running statistics read stay those of the forward."""
    spec = default_student_spec(batchnorm=True)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, *spec.input_shape)).astype(np.float32)
    fresh_params, spent_params = (init_params(spec, np.random.default_rng(5), dtype=np.float32)
                                  for _ in range(2))
    _, fresh = forward_batch(spec, fresh_params, x, training=True)
    _, _, logits, spent = batch_loss(spec, spent_params, x, rng.integers(0, 3, size=4))
    with pytest.raises(ConfigurationError, match="single-use"):
        backward_batch(spec, spent_params, spent, np.ones_like(logits))
    bn_stats = [(a["bn"], b["bn"]) for a, b in zip(fresh, spent) if "bn" in a]
    assert len(bn_stats) == 4
    for a, b in bn_stats:
        assert a["batch_mu"].tobytes() == b["batch_mu"].tobytes()
        assert a["batch_var"].tobytes() == b["batch_var"].tobytes()
    update_running_stats(spec, fresh_params, fresh)
    update_running_stats(spec, spent_params, spent)
    for a, b in zip(fresh_params.entries, spent_params.entries):
        if getattr(a, "bn", None) is not None:
            assert a.bn.mean.tobytes() == b.bn.mean.tobytes()
            assert a.bn.var.tobytes() == b.bn.var.tobytes()


def _caller_bytes(spec, params, x):
    arrays = [x, *param_arrays(spec, params).values()]
    arrays += [a for e in params.entries if getattr(e, "bn", None) is not None
               for a in (e.bn.mean, e.bn.var)]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["student", "small-1", "small-34", "dense-first"])
def test_step_leaves_callers_arrays_untouched(case, dtype):
    """The in-place writes stay in arrays the step made. In small-1 and small-34 a 1x1
    unpadded conv's columns could be a view of its input (in small-34 of the one-channel
    ``x``); the dense-first spec's flatten is a view of ``x`` itself."""
    if case == "student":
        spec = default_student_spec(batchnorm=True)
    elif case == "dense-first":
        spec = ModelSpec(layers=(FlattenSpec(), DenseSpec(name="head", out_features=3)),
                         input_shape=(2, 4, 5), class_count=3)
    else:
        spec = make_small_spec(np.random.default_rng(int(case.split("-")[1])), batchnorm=True)
    rng = np.random.default_rng(7)
    params = init_params(spec, rng, dtype=dtype)
    x = rng.normal(size=(3, *spec.input_shape)).astype(dtype)
    labels = rng.integers(0, 3, size=3)
    teacher = rng.normal(size=(3, 3)) * 2
    before = _caller_bytes(spec, params, x)
    for training in (False, True):
        forward_batch(spec, params, x, training=training)
    batch_loss(spec, params, x, labels, teacher_logits=teacher, kd=KDConfig())
    assert _caller_bytes(spec, params, x) == before


def _workspace_case(case):
    if case == "student":
        return default_student_spec()
    if case == "strided":  # a strided padded conv, overlapping max windows, a strided 2x3 conv
        return ModelSpec(layers=(
            ConvSpec(name="conv1", out_channels=3, kernel=(3, 3), stride=2, padding=1,
                     relu=True, batchnorm=True),
            PoolLayerSpec(name="pool1", mode="max", window=(2, 2), stride=1),
            ConvSpec(name="conv2", out_channels=4, kernel=(2, 3), stride=3, padding=0,
                     relu=True, batchnorm=False),
            FlattenSpec(), DenseSpec(name="head", out_features=3),
        ), input_shape=(2, 13, 11), class_count=3)
    if case == "flatten-first":
        return ModelSpec(layers=(FlattenSpec(), DenseSpec(name="head", out_features=3)),
                         input_shape=(2, 4, 5), class_count=3)
    return make_small_spec(np.random.default_rng(int(case.split("-")[1])), batchnorm=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["student", "small-5", "small-15", "small-33", "strided",
                                  "flatten-first"])
def test_retained_workspace_steps_equal_fresh_steps(case, dtype):
    """Consecutive steps through ``batch_loss``, which reuses the arrays it keeps on the
    params, equal the same steps through ``forward_batch`` and ``backward_batch``, which make
    fresh ones: logits, gradients and Adam-updated parameters, byte for byte. A short batch
    runs on leading views of the kept arrays, and a full one follows it. small-5, -15 and
    -33 hold padded and 1x1 unpadded convs, and small-33 a max pool after each."""
    spec = _workspace_case(case)
    kept, fresh = (init_params(spec, np.random.default_rng(5), dtype=dtype) for _ in range(2))
    kept_opt, fresh_opt = OptimizerState(lr=1e-2), OptimizerState(lr=1e-2)
    rng = np.random.default_rng(11)
    kd = KDConfig()
    for b in (64, 64, 17, 64):
        x = rng.normal(size=(b, *spec.input_shape)).astype(dtype)
        labels = rng.integers(0, 3, size=b)
        teacher = rng.normal(size=(b, 3)) * 2
        _, kept_grads, kept_logits, _ = batch_loss(spec, kept, x, labels,
                                                   teacher_logits=teacher, kd=kd)
        logits, caches = forward_batch(spec, fresh, x, training=True)
        dlogits = kd_logit_gradient(logits, teacher, labels, kd).astype(logits.dtype)
        fresh_grads = backward_batch(spec, fresh, caches, dlogits / b)
        assert kept_logits.tobytes() == logits.tobytes()
        assert kept_grads.keys() == fresh_grads.keys()
        for name, grad in fresh_grads.items():
            assert kept_grads[name].tobytes() == grad.tobytes(), name
        set_param_arrays(spec, kept, adam_update(param_arrays(spec, kept), kept_grads, kept_opt))
        set_param_arrays(spec, fresh, adam_update(param_arrays(spec, fresh), fresh_grads,
                                                  fresh_opt))
        assert _caller_bytes(spec, kept, x)[1:] == _caller_bytes(spec, fresh, x)[1:]
    assert fresh.step_workspace is None


def test_dropped_params_free_their_workspace():
    """The arrays ``batch_loss`` keeps live and die with the params, and ``train_model``
    returns params that keep none."""
    spec, params = make_small_model(np.random.default_rng(33), batchnorm=True)
    rng = np.random.default_rng(1)
    batch_loss(spec, params, rng.normal(size=(4, *spec.input_shape)), rng.integers(0, 3, size=4))
    arrays = [weakref.ref(a) for a in params.step_workspace.values()]
    assert arrays
    gc.disable()
    try:
        del params
        assert all(ref() is None for ref in arrays)
    finally:
        gc.enable()
    x = rng.normal(size=(6, *spec.input_shape))
    cfg = TrainConfig(batch_size=4, max_epochs=1)
    trained = train_model(spec, x, np.arange(6) % 3, cfg, seed=0)
    assert trained.params.step_workspace is None


def _default_step():
    """A default-student B=64 float32 distillation step, as train-distill times it."""
    rng = np.random.default_rng(0)
    spec = default_student_spec()
    params = init_params(spec, rng, dtype=np.float32)
    x = rng.normal(size=(64, *spec.input_shape)).astype(np.float32)
    labels = rng.integers(0, 3, size=64)
    teacher = rng.normal(size=(64, 3)) * 2
    return lambda: batch_loss(spec, params, x, labels, teacher_logits=teacher, kd=KDConfig())


def test_training_step_peak_memory():
    """From a cold step through a warm one, a default-student B=64 float32 step's
    tracemalloc peak, the arrays kept on the params included, is at most 56 MiB: 51.2 MiB,
    of which 46.0 stay between steps. Before the kept arrays, a warm step peaked at 51.9 MiB
    of its own, and at 68.6 MiB while the backward made its own column gradients and
    batchnorm terms. tracemalloc counts what numpy asks for, so the figure does not move
    with heap layout as RSS and page faults do."""
    step = _default_step()
    tracemalloc.start()
    try:
        step()
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_warm_training_step_allocates_little():
    """A warm step writes into the arrays the cold one left on the params: beyond what it
    holds when it starts, it allocates 5.2 MiB at its peak, against 51.9 MiB when every
    step made its arrays anew."""
    step = _default_step()
    step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, f"warm step peak {peak / 2**20:.1f} MiB"
