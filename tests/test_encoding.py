import numpy as np
import pytest

from shiftadd_dvs.encoding import (
    compression_report,
    decode_entry,
    decode_layer,
    decoded_model,
    encode_layer,
    encode_model,
)
from shiftadd_dvs.errors import ConfigurationError
from shiftadd_dvs.model import default_student_spec, init_params
from shiftadd_dvs.quantize import dequantize_model, shift_quantize_model


class TestEncodeLayer:
    def test_direct_example(self):
        bias, codes, clamped = encode_layer([1, 3, 4, 8], 3)
        assert bias == 1
        assert codes == [0, 2, 3, 7]
        assert clamped == 0

    def test_zero_spread(self):
        bias, codes, clamped = encode_layer([4, 4, 4], 1)
        assert bias == 4
        assert codes == [0, 0, 0]
        assert clamped == 0

    def test_saturation(self):
        bias, codes, clamped = encode_layer([1, 12], 3)
        assert bias == 1
        assert codes == [0, 7]
        assert clamped == 1
        assert decode_layer(bias, codes) == [1, 8]  # 12 decodes to 8 after the clamp

    def test_empty_layer(self):
        with pytest.raises(ConfigurationError):
            encode_layer([], 3)

    def test_bits_range(self):
        with pytest.raises(ConfigurationError):
            encode_layer([1], 0)
        with pytest.raises(ConfigurationError):
            encode_layer([1], 9)


class TestDecodeLayer:
    def test_round_trip_small_spread(self, rng):
        for _ in range(200):
            bits = int(rng.integers(1, 9))
            base = int(rng.integers(0, 20))
            size = int(rng.integers(1, 30))
            values = (base + rng.integers(0, 2 ** bits, size=size)).tolist()
            bias, codes, clamped = encode_layer(values, bits)
            assert clamped == 0
            assert decode_layer(bias, codes) == values

    def test_inverse_of_example(self):
        assert decode_layer(1, [0, 2, 3, 7]) == [1, 3, 4, 8]

    def test_single_element(self):
        bias, codes, _ = encode_layer([13], 4)
        assert decode_layer(bias, codes) == [13]


class TestLosslessnessEquivalence:
    def test_clamp_count_predicts_losslessness_both_ways(self, rng):
        for _ in range(2000):
            bits = int(rng.integers(1, 9))
            size = int(rng.integers(1, 40))
            values = rng.integers(0, 25, size=size).tolist()
            bias, codes, clamped = encode_layer(values, bits)
            lossless = decode_layer(bias, codes) == values
            assert (clamped == 0) == lossless
            spread = max(values) - min(values)
            if spread < 2 ** bits:
                assert lossless


class TestModelEncoding:
    def _quantized(self, rng, n=3):
        spec = default_student_spec(batchnorm=False)
        params = init_params(spec, rng)
        return spec, params, shift_quantize_model(spec, params, n)

    def test_encode_attaches_per_layer_encoding(self, rng):
        _, _, q = self._quantized(rng)
        enc = encode_model(q, bits=4)
        assert enc.bits == 4
        for layer in enc.layers():
            assert layer.encoding is not None
            assert layer.encoding.bias >= 0

    def test_wide_bits_round_trip_exactly(self, rng):
        _, _, q = self._quantized(rng)
        enc = encode_model(q, bits=8)
        assert all(layer.encoding.clamp_count == 0 for layer in enc.layers())
        dec = decoded_model(enc)
        for raw, eff in zip(q.layers(), dec.layers()):
            assert raw.weights == eff.weights
            for field in ("sign", "count", "shift"):
                np.testing.assert_array_equal(getattr(raw, field), getattr(eff, field))

    def test_narrow_bits_distort_small_terms_upward(self, rng):
        _, _, q = self._quantized(rng)
        enc = encode_model(q, bits=2)
        assert any(layer.encoding.clamp_count > 0 for layer in enc.layers())
        deq_raw = dequantize_model(q)
        deq_eff = dequantize_model(decoded_model(enc))
        for raw_e, eff_e in zip(deq_raw.entries, deq_eff.entries):
            if raw_e is None:
                continue
            # clamping shrinks shift magnitudes, so effective |weights| never decrease
            assert np.all(np.abs(eff_e.weights) >= np.abs(raw_e.weights) - 1e-15)

    def test_encoding_scope_is_per_layer(self, rng):
        _, _, q = self._quantized(rng)
        enc = encode_model(q, bits=3)
        biases = [layer.encoding.bias for layer in enc.layers()]
        mins = [min(s for p in layer.all_params() for s in p.shifts)
                for layer in enc.layers()]
        assert biases == mins

    def test_decode_entry_requires_encoding(self, rng):
        _, _, q = self._quantized(rng)
        with pytest.raises(ConfigurationError):
            decode_entry(q.layers()[0])


class TestCompressionReport:
    def test_headline_ratio(self):
        spec = default_student_spec()
        report = compression_report(spec, 3, 3)
        assert report["ratio_percent"] == 28.125
        assert report["stored_bits_per_weight"] == 9
        assert report["baseline_bits"] == 32
        assert not report["compression_lost"]

    def test_minimal_config(self):
        report = compression_report(default_student_spec(), 1, 1)
        assert report["ratio_percent"] == 3.125

    def test_lost_compression_flagged(self):
        report = compression_report(default_student_spec(), 10, 8)
        assert report["ratio_percent"] == 250.0
        assert report["compression_lost"]

    def test_overhead_itemized_separately(self):
        report = compression_report(default_student_spec(), 3, 3)
        overhead = report["overhead"]
        assert overhead["sign_bits_per_weight"] == 2
        assert overhead["bias_bits_per_layer"] == 16
        assert overhead["weight_count"] == 30531
        assert overhead["layer_count"] == 5
