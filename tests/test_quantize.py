from dataclasses import replace

import numpy as np
import pytest

from shiftadd_dvs.errors import ConfigurationError, RangeError
from shiftadd_dvs.model import default_student_spec, fold_model_batchnorm, init_params
from shiftadd_dvs.quantize import (
    ShiftQuantParam,
    dequantize_model,
    fixed_point_decompose,
    fixed_point_value,
    shift_quantize_model,
    shift_quantize_param,
)

from conftest import single_conv_spec


def brute_force_expansion(w, frac_bits):
    """Independent oracle: scan the rounded fixed-point integer bit by bit."""
    scaled = round(abs(w) * 2 ** frac_bits)
    exps = []
    for k in range(scaled.bit_length() - 1, -1, -1):
        if (scaled >> k) & 1:
            exps.append(k - frac_bits)
    return exps


class TestFixedPointDecompose:
    def test_exact_two_term_value(self):
        assert fixed_point_decompose(0.625, 4, 2) == [-1, -3]

    def test_zero(self):
        assert fixed_point_decompose(0.0) == []

    def test_below_half_ulp_rounds_to_empty(self):
        assert fixed_point_decompose(2 ** -18, 16, 2) == []

    def test_point_seven_expansion(self):
        assert fixed_point_decompose(0.7, 16, 2) == [-1, -3, -4, -7, -8, -11, -12, -15, -16]

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(2000):
            w = float(rng.uniform(-3.9, 3.9))
            assert fixed_point_decompose(w, 16, 2) == brute_force_expansion(w, 16)

    def test_overflow(self):
        with pytest.raises(RangeError):
            fixed_point_decompose(4.0, 16, 2)
        with pytest.raises(RangeError):
            fixed_point_decompose(3.9999999, 16, 2)  # rounds up to 4.0

    def test_negative_sign_ignored_for_magnitude(self):
        assert fixed_point_decompose(-0.625, 4, 2) == [-1, -3]


class TestShiftQuantizeParam:
    def test_single_power_exact(self):
        p = shift_quantize_param(-0.5, 1)
        assert p.sign == -1
        assert tuple(2 - s for s in p.shifts) == (-1,)
        assert p.value(2) == -0.5

    def test_greedy_msb(self):
        p = shift_quantize_param(0.7, 3)
        assert tuple(2 - s for s in p.shifts) == (-1, -3, -4)
        assert p.value(2) == 0.6875

    def test_exact_two_term_no_error(self):
        for n in (2, 3, 5):
            assert shift_quantize_param(0.625, n).value(2) == 0.625

    def test_zero_weight(self):
        p = shift_quantize_param(0.0, 3)
        assert p.sign == 0 and p.shifts == ()
        assert p.value(2) == 0.0

    def test_shifts_strictly_increasing(self, rng):
        for _ in range(500):
            p = shift_quantize_param(float(rng.uniform(-3.9, 3.9)), int(rng.integers(1, 8)))
            assert all(a < b for a, b in zip(p.shifts, p.shifts[1:]))

    def test_sign_invariant(self):
        with pytest.raises(ConfigurationError):
            ShiftQuantParam(sign=0, shifts=(1,))
        with pytest.raises(ConfigurationError):
            ShiftQuantParam(sign=1, shifts=())

    def test_odd_symmetry(self, rng):
        for _ in range(200):
            w = float(rng.uniform(0, 3.9))
            n = int(rng.integers(1, 6))
            assert shift_quantize_param(-w, n).value(2) == -shift_quantize_param(w, n).value(2)


class TestReconstructionProperties:
    def test_monotone_error_and_exact_plateau(self, rng):
        # smaller-scale version of the acceptance property
        for _ in range(2000):
            w = float(rng.uniform(-3.9, 3.9))
            target = abs(fixed_point_value(w, 16, 2))
            prev_err = np.inf
            for n in range(1, 19):
                mag = shift_quantize_param(w, n, 16, 2).magnitude(2)
                err = target - mag
                assert err >= 0.0  # underestimate: truncation keeps leading terms
                assert err <= prev_err + 1e-18
                prev_err = err
            assert prev_err == 0.0  # n = F + I keeps every possible digit

    def test_truncation_error_bound(self, rng):
        for _ in range(10000):
            w = float(rng.uniform(-3.9, 3.9))
            n = int(rng.integers(1, 6))
            p = shift_quantize_param(w, n, 16, 2)
            err = abs(fixed_point_value(w, 16, 2)) - p.magnitude(2)
            if p.term_count == n and err > 0:
                # dropped digits are all strictly below the last kept exponent
                assert err < 2.0 ** (2 - p.shifts[-1])
            else:
                assert err == 0.0

    def test_quantize_dequantize_idempotent(self, rng):
        for _ in range(500):
            w = float(rng.uniform(-3.9, 3.9))
            n = int(rng.integers(1, 6))
            p1 = shift_quantize_param(w, n)
            p2 = shift_quantize_param(p1.value(2), n)
            assert p1 == p2


class TestModelQuantization:
    def test_all_zero_model(self):
        spec = default_student_spec(batchnorm=False)
        params = init_params(spec, np.random.default_rng(0))
        for entry in params.entries:
            if entry is not None:
                entry.weights[:] = 0.0
        q = shift_quantize_model(spec, params, 3)
        for layer in q.layers():
            assert all(p.sign == 0 for p in layer.all_params())

    def test_powers_of_two_exact_at_n1(self, rng):
        spec = default_student_spec(batchnorm=False)
        params = init_params(spec, rng)
        for entry in params.entries:
            if entry is None:
                continue
            arr = entry.weights
            exps = rng.integers(-8, 1, size=arr.shape)
            signs = rng.choice([-1.0, 1.0], size=arr.shape)
            arr[...] = signs * np.power(2.0, exps)
        q = shift_quantize_model(spec, params, 1)
        deq = dequantize_model(q)
        for entry, dentry in zip(params.entries, deq.entries):
            if entry is None:
                continue
            np.testing.assert_array_equal(entry.weights, dentry.weights)

    def test_n_equals_f_plus_i_is_fixed_point_round(self, rng):
        spec = default_student_spec(batchnorm=False)
        params = init_params(spec, rng)
        q = shift_quantize_model(spec, params, 18, frac_bits=16, int_bits=2)
        deq = dequantize_model(q)
        for entry, dentry in zip(params.entries, deq.entries):
            if entry is None:
                continue
            want = np.vectorize(lambda v: fixed_point_value(v, 16, 2))(entry.weights)
            np.testing.assert_array_equal(dentry.weights, want)

    def test_requires_folded_batchnorm(self, rng):
        spec = default_student_spec(batchnorm=True)
        params = init_params(spec, rng)
        with pytest.raises(ConfigurationError):
            shift_quantize_model(spec, params, 3)
        fspec, fparams = fold_model_batchnorm(spec, params)
        shift_quantize_model(fspec, fparams, 3)  # folded model quantizes fine

    @pytest.mark.parametrize("n_terms", [0, -5])
    def test_n_terms_below_one_rejected(self, rng, n_terms):
        spec = default_student_spec(batchnorm=False)
        with pytest.raises(ConfigurationError, match=f"n_terms must be >= 1, got {n_terms}"):
            shift_quantize_model(spec, init_params(spec, rng), n_terms)

    def test_model_construction_rejects_misaligned_entries(self, rng):
        """A model is checked once, when made: one entry per spec layer, a quantized layer
        of the spec's weight shape exactly in each conv and dense slot, batchnorm folded,
        N >= 1 terms at most per weight and a valid fixed-point frame."""
        spec = default_student_spec(batchnorm=False)
        q = shift_quantize_model(spec, init_params(spec, rng), 3)
        e = q.entries
        conv2, conv3 = e[2], e[4]
        cases = [
            (dict(entries=e[:-1]), "layer fc1: the model has 8 entries for 9 spec layers"),
            (dict(entries=e + (None,)), "layer fc1: the model has 10 entries for 9 spec layers"),
            (dict(entries=e[:1] + e[:1] + e[2:]), "layer maxpool1: holds no parameters"),
            (dict(entries=(None,) + e[1:]), "layer conv1: parameters None do not match"),
            (dict(entries=e[:2] + (conv3, e[3], conv2) + e[5:]),
             r"layer conv2: parameters \(32, 16, 3, 3\) do not match the spec's \(16, 8, 3, 3\)"),
            (dict(spec=default_student_spec(batchnorm=True)),
             "layer conv1: fold batchnorm before quantization"),
            (dict(n_terms=0), "n_terms must be >= 1, got 0"),
            (dict(n_terms=-5), "n_terms must be >= 1, got -5"),
            (dict(frac_bits=-1), "invalid fixed-point frame F=-1, I=2"),
            (dict(n_terms=2), r"layer conv1: weight \d+ has 3 terms, more than N=2"),
        ]
        for changes, message in cases:
            with pytest.raises(ConfigurationError, match=message):
                replace(q, **changes)
        assert replace(q, entries=list(e)).entries == e  # stored as a tuple

    def test_out_of_range_weight_names_layer(self, rng):
        spec = default_student_spec(batchnorm=False)
        params = init_params(spec, rng)
        params.entries[2].weights[0, 0, 0, 0] = 5.0  # conv2
        with pytest.raises(RangeError, match="conv2"):
            shift_quantize_model(spec, params, 3)

    def test_quantize_dequantize_idempotent_model(self, rng):
        spec = default_student_spec(batchnorm=False)
        params = init_params(spec, rng)
        q1 = shift_quantize_model(spec, params, 3)
        q2 = shift_quantize_model(spec, dequantize_model(q1), 3)
        for l1, l2 in zip(q1.layers(), q2.layers()):
            assert l1.weights == l2.weights
            for field in ("sign", "count", "shift"):
                np.testing.assert_array_equal(getattr(l1, field), getattr(l2, field))


class TestArrayQuantizerMatchesScalar:
    """shift_quantize_model's arrays against shift_quantize_param, weight by weight."""

    FRAMES = [(16, 2), (4, 2), (0, 3), (8, 0), (12, 19)]

    @staticmethod
    def _spec():
        return single_conv_spec(2, 4, 5, 3, (2, 2))

    @staticmethod
    def _special_values(rng, frac_bits, int_bits, size):
        ulp = 2.0 ** -frac_bits
        largest = np.nextafter((2 ** (frac_bits + int_bits) - 0.5) * ulp, 0.0)
        special = [0.0, -0.0, ulp / 2, -ulp / 2, np.nextafter(ulp / 2, 1.0), ulp / 4, 1e-300,
                   largest, -largest, (2 ** (frac_bits + int_bits) - 1) * ulp]
        ties = (rng.integers(0, 2 ** (frac_bits + int_bits) - 1, size=size) + 0.5) * ulp
        uniform = rng.uniform(-largest, largest, size=size)
        pool = np.concatenate([special, ties, -ties, uniform])
        return rng.choice(pool, size=size)

    def test_arrays_equal_scalar_path(self, rng):
        spec = self._spec()
        for frac_bits, int_bits in self.FRAMES:
            # past F+I the passes stop at F+I: every set bit is a term
            for n_terms in [*range(1, frac_bits + int_bits + 2), 255]:
                params = init_params(spec, rng)
                for arr in (params.entries[0].weights, params.entries[0].bias,
                            params.entries[2].weights, params.entries[2].bias):
                    arr[...] = self._special_values(rng, frac_bits, int_bits,
                                                    arr.size).reshape(arr.shape)
                q = shift_quantize_model(spec, params, n_terms, frac_bits, int_bits)
                for layer, (weights, biases) in zip(q.layers(), (
                        (params.entries[0].weights, params.entries[0].bias),
                        (params.entries[2].weights, params.entries[2].bias))):
                    want = [shift_quantize_param(float(w), n_terms, frac_bits, int_bits)
                            for w in np.concatenate((weights, biases), axis=None)]
                    assert list(layer.all_params()) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 4.0, -3.9999999, 1e308],
                             ids=["nan", "inf", "-inf", "4", "rounds_to_4", "1e308"])
    @pytest.mark.parametrize("where", ["weight", "bias"])
    def test_first_bad_weight_raises_the_scalar_message(self, rng, bad, where):
        spec = self._spec()
        params = init_params(spec, rng)
        arr = params.entries[0].weights.reshape(-1) if where == "weight" \
            else params.entries[0].bias
        arr[1] = bad
        arr[2] = 5.0 if np.isnan(bad) else np.nan  # a later bad value is not the one reported
        with pytest.raises(RangeError) as scalar:
            shift_quantize_param(float(arr[1]), 3)
        with pytest.raises(RangeError) as array:
            shift_quantize_model(spec, params, 3)
        assert str(array.value) == f"layer conv1, weight index 1: {scalar.value}"
