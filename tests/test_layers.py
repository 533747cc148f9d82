import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftadd_dvs.errors import ConfigurationError, DomainError
from shiftadd_dvs.layers import (
    BatchNormParams,
    LayerParams,
    batchnorm_apply,
    conv2d_forward,
    dense_forward,
    fold_batchnorm,
    pool2d_forward,
    softmax_temperature,
)


def conv_oracle(x, kernel, bias, stride, padding):
    """Naive six-nested-loop convolution, identical accumulation order.

    ``stride`` is one int or a (row, column) pair.
    """
    m, n, p, q = kernel.shape
    sr, sc = stride if isinstance(stride, tuple) else (stride, stride)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh = (xp.shape[1] - p) // sr + 1
    ow = (xp.shape[2] - q) // sc + 1
    out = np.zeros((m, oh, ow))
    for mi in range(m):
        for ox in range(oh):
            for oy in range(ow):
                acc = 0.0
                for ni in range(n):
                    for pi in range(p):
                        for qi in range(q):
                            acc += kernel[mi, ni, pi, qi] * xp[ni, ox * sr + pi, oy * sc + qi]
                out[mi, ox, oy] = acc + bias[mi]
    return out


class TestLayerParams:
    @pytest.mark.parametrize("weights, bias, message", [
        (np.ones((2, 3, 3)), np.zeros(2), r"must be 4-D .* or 2-D .*, got shape \(2, 3, 3\)"),
        (np.ones((2, 1, 3, 3)), np.zeros(3), r"bias shape \(3,\) does not match 2 outputs"),
        (np.ones((3, 4)), np.zeros((3, 1)), r"bias shape \(3, 1\) does not match 3 outputs"),
    ])
    def test_rejects_malformed_arrays(self, weights, bias, message):
        with pytest.raises(ConfigurationError, match=message):
            LayerParams(weights=weights, bias=bias)

    def test_conv_and_dense_reject_the_other_kinds_weights(self):
        dense = LayerParams(weights=np.ones((2, 4)), bias=np.zeros(2))
        conv = LayerParams(weights=np.ones((2, 4, 1, 1)), bias=np.zeros(2))
        with pytest.raises(ConfigurationError, match=r"needs 4-D weights, got shape \(2, 4\)"):
            conv2d_forward(np.ones((4, 3, 3)), dense)
        with pytest.raises(ConfigurationError, match=r"needs 2-D weights, got shape \(2, 4, 1, 1\)"):
            dense_forward(np.ones(4), conv)


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(3, 5, 7))
        kernel = np.zeros((3, 3, 1, 1))
        for c in range(3):
            kernel[c, c, 0, 0] = 1.0
        params = LayerParams(weights=kernel, bias=np.zeros(3))
        np.testing.assert_array_equal(conv2d_forward(x, params), x)

    def test_all_ones_sum(self):
        params = LayerParams(weights=np.ones((1, 1, 3, 3)), bias=np.zeros(1))
        out = conv2d_forward(np.ones((1, 3, 3)), params)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.0

    def test_table_conv1_shape(self, rng):
        params = LayerParams(weights=rng.normal(size=(8, 1, 3, 3)), bias=rng.normal(size=8))
        out = conv2d_forward(rng.normal(size=(1, 256, 11)), params, stride=1, padding=1)
        assert out.shape == (8, 256, 11)

    def test_matches_nested_loop_oracle_exactly(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h = int(rng.integers(3, 7))
            w = int(rng.integers(3, 7))
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(h, w) + 1))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            x = rng.normal(size=(n, h, w))
            kernel = rng.normal(size=(m, n, k, k))
            bias = rng.normal(size=m)
            got = conv2d_forward(x, LayerParams(weights=kernel, bias=bias), stride, pad)
            want = conv_oracle(x, kernel, bias, stride, pad)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stride", [(3, 1), (1, 2), (2, 3)])
    def test_row_column_stride_matches_nested_loop_oracle(self, rng, stride):
        for _ in range(5):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            pad = int(rng.integers(0, 2))
            x = rng.normal(size=(n, int(rng.integers(p, p + 7)), int(rng.integers(q, q + 7))))
            kernel = rng.normal(size=(m, n, p, q))
            bias = rng.normal(size=m)
            got = conv2d_forward(x, LayerParams(weights=kernel, bias=bias), stride, pad)
            np.testing.assert_array_equal(got, conv_oracle(x, kernel, bias, stride, pad))

    @pytest.mark.parametrize("stride", [0, (1, 0), (0, 2)])
    def test_stride_below_one_rejected(self, rng, stride):
        x = np.ones((1, 4, 4))
        with pytest.raises(ConfigurationError, match="stride must be >= 1"):
            conv2d_forward(x, LayerParams(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1)),
                           stride=stride)
        with pytest.raises(ConfigurationError, match="stride must be >= 1"):
            pool2d_forward(x, "max", (2, 2), stride)

    def test_linearity_with_zero_bias(self, rng):
        kernel = rng.normal(size=(2, 3, 3, 3))
        params = LayerParams(weights=kernel, bias=np.zeros(2))
        x = rng.normal(size=(3, 6, 6))
        y = rng.normal(size=(3, 6, 6))
        a, b = 0.7, -1.3
        lhs = conv2d_forward(a * x + b * y, params, padding=1)
        rhs = (a * conv2d_forward(x, params, padding=1)
               + b * conv2d_forward(y, params, padding=1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-9)

    def test_channel_mismatch(self, rng):
        params = LayerParams(weights=rng.normal(size=(2, 3, 3, 3)), bias=np.zeros(2))
        with pytest.raises(ConfigurationError):
            conv2d_forward(rng.normal(size=(2, 6, 6)), params)

    def test_window_too_large(self, rng):
        params = LayerParams(weights=rng.normal(size=(1, 1, 5, 5)), bias=np.zeros(1))
        with pytest.raises(ConfigurationError):
            conv2d_forward(rng.normal(size=(1, 3, 3)), params)


class TestPool2d:
    def test_constant_input(self):
        x = np.full((2, 4, 4), 3.5)
        for mode in ("max", "avg"):
            out = pool2d_forward(x, mode, (2, 2), 2)
            np.testing.assert_array_equal(out, np.full((2, 2, 2), 3.5))

    def test_two_by_two_values(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert pool2d_forward(x, "max", (2, 2), 2)[0, 0, 0] == 4.0
        assert pool2d_forward(x, "avg", (2, 2), 2)[0, 0, 0] == 2.5

    def test_shape_rule(self, rng):
        out = pool2d_forward(rng.normal(size=(8, 256, 11)), "max", (2, 2), 2)
        assert out.shape == (8, 128, 5)

    def test_window_too_large(self):
        with pytest.raises(ConfigurationError):
            pool2d_forward(np.ones((1, 2, 2)), "max", (3, 3), 2)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("stride", [(3, 1), (1, 2), (2, 3)])
    def test_row_column_stride_matches_nested_loop(self, rng, mode, stride):
        """Each window's maximum, or its taps summed in row-major order over the area."""
        (p, q), (sr, sc) = (3, 2), stride
        x = rng.normal(size=(2, 8, 9))
        oh, ow = (8 - p) // sr + 1, (9 - q) // sc + 1
        want = np.zeros((2, oh, ow))
        for c, i, j in np.ndindex(want.shape):
            taps = [x[c, i * sr + a, j * sc + b] for a in range(p) for b in range(q)]
            acc = 0.0
            for tap in taps:
                acc += tap
            want[c, i, j] = max(taps) if mode == "max" else acc / (p * q)
        got = pool2d_forward(x, mode, (p, q), stride)
        np.testing.assert_array_equal(got, want)


class TestDense:
    def test_identity(self):
        params = LayerParams(weights=np.eye(4), bias=np.zeros(4))
        x = np.arange(4.0)
        np.testing.assert_array_equal(dense_forward(x, params), x)

    def test_dot_product(self):
        params = LayerParams(weights=np.array([[1.0, 1.0, 1.0]]), bias=np.array([0.5]))
        np.testing.assert_allclose(dense_forward([1.0, 2.0, 3.0], params), [6.5])

    def test_table_head_shape(self, rng):
        params = LayerParams(weights=rng.normal(size=(3, 2048)), bias=np.zeros(3))
        assert dense_forward(rng.normal(size=2048), params).shape == (3,)

    def test_length_mismatch(self):
        params = LayerParams(weights=np.ones((2, 3)), bias=np.zeros(2))
        with pytest.raises(ConfigurationError):
            dense_forward(np.ones(4), params)


class TestFoldBatchnorm:
    def _conv(self, rng, channels=3):
        return LayerParams(weights=rng.normal(size=(channels, 2, 3, 3)),
                           bias=rng.normal(size=channels))

    def test_identity_normalization(self, rng):
        conv = self._conv(rng)
        bn = BatchNormParams(gamma=np.ones(3), beta=np.zeros(3), mean=np.zeros(3),
                             var=np.ones(3), eps=1e-12)
        folded = fold_batchnorm(conv, bn)
        np.testing.assert_allclose(folded.weights, conv.weights, rtol=1e-12)
        np.testing.assert_allclose(folded.bias, conv.bias, rtol=1e-12)

    def test_gamma_two_doubles(self, rng):
        conv = self._conv(rng)
        bn = BatchNormParams(gamma=np.full(3, 2.0), beta=np.zeros(3), mean=np.zeros(3),
                             var=np.full(3, 1.0 - 1e-12), eps=1e-12)
        folded = fold_batchnorm(conv, bn)
        np.testing.assert_allclose(folded.weights, 2.0 * conv.weights, rtol=1e-9)
        np.testing.assert_allclose(folded.bias, 2.0 * conv.bias, rtol=1e-9)

    def test_equivalence_oracle(self, rng):
        for _ in range(100):
            conv = self._conv(rng)
            bn = BatchNormParams(gamma=rng.normal(size=3), beta=rng.normal(size=3),
                                 mean=rng.normal(size=3),
                                 var=np.abs(rng.normal(size=3)) + 0.1, eps=1e-5)
            folded = fold_batchnorm(conv, bn)
            x = rng.normal(size=(2, 6, 6))
            want = batchnorm_apply(conv2d_forward(x, conv, padding=1), bn)
            got = conv2d_forward(x, folded, padding=1)
            assert np.max(np.abs(got - want)) < 1e-5

    def test_channel_mismatch(self, rng):
        conv = self._conv(rng)
        bn = BatchNormParams(gamma=np.ones(4), beta=np.zeros(4), mean=np.zeros(4),
                             var=np.ones(4))
        with pytest.raises(ConfigurationError):
            fold_batchnorm(conv, bn)

    def test_dense_layer_keeps_its_shape(self, rng):
        """The record serves a dense layer too: its 2-D weights fold per output row."""
        dense = LayerParams(weights=rng.normal(size=(3, 5)), bias=rng.normal(size=3))
        bn = BatchNormParams(gamma=rng.normal(size=3), beta=rng.normal(size=3),
                             mean=rng.normal(size=3), var=np.abs(rng.normal(size=3)) + 0.1)
        folded = fold_batchnorm(dense, bn)
        assert folded.weights.shape == (3, 5)
        x = rng.normal(size=5)
        want = (dense_forward(x, dense) - bn.mean) / np.sqrt(bn.var + bn.eps) * bn.gamma + bn.beta
        np.testing.assert_allclose(dense_forward(x, folded), want, rtol=1e-12, atol=1e-12)


class TestSoftmaxTemperature:
    def test_uniform(self):
        for t in (0.5, 1.0, 5.0):
            np.testing.assert_allclose(softmax_temperature([0.0, 0.0, 0.0], t),
                                       np.full(3, 1 / 3), atol=1e-12)

    def test_two_logit_value(self):
        out = softmax_temperature([2.0, 0.0], 2.0)
        np.testing.assert_allclose(out, [0.7310585786300049, 0.2689414213699951],
                                   atol=1e-10)

    def test_argmax_preserved(self, rng):
        for _ in range(50):
            x = rng.normal(size=5) * 10
            t = float(rng.uniform(0.05, 50.0))
            assert np.argmax(softmax_temperature(x, t)) == np.argmax(x)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            softmax_temperature([1.0, 2.0], 0.0)
        with pytest.raises(DomainError):
            softmax_temperature([1.0, -2.0], -1.0)
        with pytest.raises(DomainError):
            softmax_temperature([np.inf, 0.0], 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=8),
           st.floats(min_value=1e-3, max_value=100.0))
    def test_probability_simplex(self, logits, temperature):
        out = softmax_temperature(logits, temperature)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)
        assert abs(float(np.sum(out)) - 1.0) <= 1e-9

    def test_high_temperature_limit(self, rng):
        x = rng.normal(size=6) * 3
        out = softmax_temperature(x, 1e6)
        assert np.max(np.abs(out - 1 / 6)) < 1e-4
        # spread shrinks monotonically past the crossover
        spreads = [np.ptp(softmax_temperature(x, t)) for t in (1e2, 1e3, 1e4, 1e6)]
        assert all(a >= b for a, b in zip(spreads, spreads[1:]))
