import struct
from dataclasses import replace

import numpy as np
import pytest

from shiftadd_dvs import sacw
from shiftadd_dvs.encoding import decoded_model, encode_model
from shiftadd_dvs.errors import ConfigurationError
from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    PoolLayerSpec,
    default_student_spec,
    init_params,
)
from shiftadd_dvs.quantize import dequantize_model, shift_quantize_model
from shiftadd_dvs.saqm import load_quantized, save_quantized

from conftest import make_small_model


def test_round_trip_preserves_decoded_params(rng, tmp_path):
    spec = default_student_spec(batchnorm=False)
    params = init_params(spec, rng)
    q = encode_model(shift_quantize_model(spec, params, 3), bits=3)
    path = tmp_path / "model.saqm"
    save_quantized(path, q)
    loaded = load_quantized(path, spec)
    assert loaded.n_terms == 3 and loaded.bits == 3
    assert loaded.frac_bits == 16 and loaded.int_bits == 2
    expected = decoded_model(q)
    for a, b in zip(expected.layers(), loaded.layers()):
        assert a.name == b.name
        assert a.shape == tuple(b.shape)
        assert a.weights == b.weights
        for field in ("sign", "count", "shift"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_round_trip_serialization_is_byte_stable(rng, tmp_path):
    spec, params = make_small_model(rng)
    q = encode_model(shift_quantize_model(spec, params, 4), bits=5)
    p1, p2 = tmp_path / "a.saqm", tmp_path / "b.saqm"
    save_quantized(p1, q)
    save_quantized(p2, load_quantized(p1, spec))
    assert p1.read_bytes() == p2.read_bytes()


def test_every_code_fits_bit_width(rng, tmp_path):
    for bits in (1, 3, 6, 8):
        spec, params = make_small_model(rng)
        q = encode_model(shift_quantize_model(spec, params, 3), bits=bits)
        for layer in q.layers():
            for row in layer.encoding.codes:
                assert all(0 <= c < (1 << bits) for c in row)
        path = tmp_path / f"m{bits}.saqm"
        save_quantized(path, q)
        loaded = load_quantized(path, spec)
        for a, b in zip(decoded_model(q).layers(), loaded.layers()):
            assert a.weights == b.weights


def test_dequantized_values_survive_round_trip(rng, tmp_path):
    spec, params = make_small_model(rng)
    q = encode_model(shift_quantize_model(spec, params, 3), bits=4)
    path = tmp_path / "m.saqm"
    save_quantized(path, q)
    a = dequantize_model(decoded_model(q))
    b = dequantize_model(load_quantized(path, spec))
    for ea, eb in zip(a.entries, b.entries):
        if ea is None:
            continue
        np.testing.assert_array_equal(ea.weights, eb.weights)


def test_unencoded_model_cannot_be_saved(rng, tmp_path):
    spec, params = make_small_model(rng)
    q = shift_quantize_model(spec, params, 3)
    with pytest.raises(ConfigurationError):
        save_quantized(tmp_path / "m.saqm", q)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.saqm"
    path.write_bytes(b"NOTQ" + bytes(20))
    with pytest.raises(ConfigurationError):
        load_quantized(path, default_student_spec(batchnorm=False))


def test_layer_count_mismatch_rejected(rng, tmp_path):
    spec, params = make_small_model(rng)
    q = encode_model(shift_quantize_model(spec, params, 2), bits=3)
    path = tmp_path / "m.saqm"
    save_quantized(path, q)
    with pytest.raises(ConfigurationError):
        load_quantized(path, default_student_spec(batchnorm=False))


def _two_conv_spec(conv2: ConvSpec) -> ModelSpec:
    return ModelSpec(layers=(
        ConvSpec(name="conv1", out_channels=2, relu=True, batchnorm=False),
        PoolLayerSpec(name="pool1", mode="max"),
        conv2,
        FlattenSpec(),
        DenseSpec(name="head", out_features=3),
    ), input_shape=(1, 6, 5), class_count=3)


@pytest.mark.parametrize("altered", [
    ConvSpec(name="conv2", out_channels=4, relu=True, batchnorm=False),
    ConvSpec(name="conv2", out_channels=3, kernel=(1, 1), padding=0, relu=True, batchnorm=False),
], ids=["out_channels", "kernel_and_padding"])
def test_header_disagreeing_with_spec_rejected(tmp_path, altered):
    spec = _two_conv_spec(ConvSpec(name="conv2", out_channels=3, relu=True, batchnorm=False))
    params = init_params(spec, np.random.default_rng(5))
    path = tmp_path / "m.saqm"
    save_quantized(path, encode_model(shift_quantize_model(spec, params, 3), bits=3))
    load_quantized(path, spec)
    with pytest.raises(ConfigurationError, match="layer conv2: file record"):
        load_quantized(path, _two_conv_spec(altered))


@pytest.mark.parametrize("offset, value, message", [
    (6, 0, "N=0, .* out of range"),
    (7, 0, "out of range"), (7, 9, "out of range"), (8, 40, "out of range"),
    (26, 0x80, "negative encoding bias"),  # high byte of the first layer's i16 bias
], ids=["n_terms_0", "bits_0", "bits_9", "frac_40", "negative_bias"])
def test_header_fields_out_of_range_rejected(rng, tmp_path, offset, value, message):
    spec, params = make_small_model(rng)
    path = tmp_path / "m.saqm"
    save_quantized(path, encode_model(shift_quantize_model(spec, params, 3), bits=3))
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(bytes(data))
    with pytest.raises(ConfigurationError, match=message):
        load_quantized(path, spec)


def _with_encoding(q, **changes):
    """``q`` with its last layer's encoding changed, as a hand-built one would be."""
    entry = q.entries[-1]
    return replace(q, entries=q.entries[:-1] + (
        replace(entry, encoding=replace(entry.encoding, **changes)),))


@pytest.mark.parametrize("code", [-1, 8, 255], ids=["negative", "bits_wide", "byte_wide"])
def test_codes_outside_the_field_width_rejected(rng, tmp_path, code):
    spec, params = make_small_model(rng)
    q = encode_model(shift_quantize_model(spec, params, 3), bits=3)
    codes = np.array(q.entries[-1].encoding.code)
    codes[0] = code
    with pytest.raises(ConfigurationError, match=f"layer head: code {code} does not fit 3"):
        save_quantized(tmp_path / "m.saqm", _with_encoding(q, code=codes))
    codes[0] = 7
    save_quantized(tmp_path / "m.saqm", _with_encoding(q, code=codes))


@pytest.mark.parametrize("bias", [-1, 1 << 15])
def test_encoding_bias_outside_the_field_rejected(rng, tmp_path, bias):
    spec, params = make_small_model(rng)
    q = encode_model(shift_quantize_model(spec, params, 3), bits=3)
    with pytest.raises(ConfigurationError, match=f"layer head: encoding bias {bias} outside"):
        save_quantized(tmp_path / "m.saqm", _with_encoding(q, bias=bias))


# Hand-built files: one dense layer of 3 x 1 weights and 3 biases behind a flatten,
# packed here field by field, independently of the writer.
DENSE_SPEC = ModelSpec(layers=(FlattenSpec(), DenseSpec(name="d", out_features=3)),
                       input_shape=(1, 1, 1), class_count=3)
BITS = 3


def _hand_built(records, bias: int = 2, cut_bits: int = 0, tail_bits=()) -> bytes:
    """SAQM bytes holding ``records`` as (sign field, term count, codes) in packing order."""
    fields = []
    for sign, count, codes in records:
        fields += [(sign, 2), (count, 4)] + [(code, BITS) for code in codes]
    bits = [(value >> i) & 1 for value, width in fields for i in range(width)]
    bits = bits[:len(bits) - cut_bits] + list(tail_bits)
    bits += [0] * (-len(bits) % 8)
    packed = bytes(sum(bit << i for i, bit in enumerate(bits[k:k + 8]))
                   for k in range(0, len(bits), 8))
    blob = b"SAQM" + struct.pack("<HBBBBH", 1, 3, BITS, 16, 2, 2)
    for layer, in_shape, _ in DENSE_SPEC.geometry():
        blob += sacw.HEADER.pack(*sacw.layer_header(layer, in_shape))
    return blob + struct.pack("<h", bias) + packed


GOOD = [(1, 2, [0, 5]), (2, 1, [7]), (0, 0, []), (1, 3, [1, 1, 2]), (0, 0, []), (2, 1, [3])]


def test_hand_built_file_loads_to_its_fields(tmp_path):
    path = tmp_path / "m.saqm"
    path.write_bytes(_hand_built(GOOD))
    layer = load_quantized(path, DENSE_SPEC).entries[1]
    assert layer.sign.tolist() == [1, -1, 0, 1, 0, -1]
    assert layer.count.tolist() == [2, 1, 0, 3, 0, 1]
    assert layer.encoding.code.tolist() == [0, 5, 7, 1, 1, 2, 3]
    assert layer.shift.tolist() == [2, 7, 9, 3, 3, 4, 5]
    resaved = tmp_path / "r.saqm"
    save_quantized(resaved, load_quantized(path, DENSE_SPEC))
    assert resaved.read_bytes() == path.read_bytes()


def test_full_precision_biases_round_trip(rng, tmp_path):
    """Biases kept at full precision hold more than N terms and still save back byte for byte."""
    spec, params = make_small_model(rng)
    for entry in params.entries:
        if entry is not None:
            entry.weights[...] = rng.choice([-0.5, 0.25, 1.0], size=entry.weights.shape)  # one term each
            entry.bias[...] = rng.normal(0, 0.5, size=entry.bias.shape)
    # every digit of the F=10, I=2 grid, in a model of N=1 that only the biases exceed
    q = encode_model(replace(shift_quantize_model(spec, params, 12, frac_bits=10), n_terms=1),
                     bits=4)
    assert any(layer.count[len(layer.count) - layer.shape[0]:].max() > 1 for layer in q.layers())
    p1, p2 = tmp_path / "a.saqm", tmp_path / "b.saqm"
    save_quantized(p1, q)
    save_quantized(p2, load_quantized(p1, spec))
    assert p1.read_bytes() == p2.read_bytes()


def test_weight_with_more_than_n_terms_not_saved(rng, tmp_path):
    spec, params = make_small_model(rng)
    q = encode_model(shift_quantize_model(spec, params, 3), bits=3)
    assert max(layer.count.max() for layer in q.layers()) > 1
    with pytest.raises(ConfigurationError, match="terms, more than N=1"):
        save_quantized(tmp_path / "m.saqm", replace(q, n_terms=1))


def test_weight_with_more_than_n_terms_rejected(tmp_path):
    path = tmp_path / "m.saqm"
    four_terms = (1, 4, [1, 1, 2, 3])
    path.write_bytes(_hand_built(GOOD[:1] + [four_terms] + GOOD[2:]))
    with pytest.raises(ConfigurationError, match="layer d: weight 1 has 4 terms, more than N=3"):
        load_quantized(path, DENSE_SPEC)
    path.write_bytes(_hand_built(GOOD[:4] + [four_terms] + GOOD[5:]))  # a bias may hold more
    assert load_quantized(path, DENSE_SPEC).entries[1].count.tolist() == [2, 1, 0, 3, 4, 1]


@pytest.mark.parametrize("records, cut_bits, tail_bits, message", [
    (GOOD[:2] + [(3, 0, [])] + GOOD[3:], 0, (), "invalid sign field"),
    (GOOD[:2] + [(0, 2, [1, 1])] + GOOD[3:], 0, (), "zero weight with 2 terms"),
    (GOOD[:2] + [(1, 0, [])] + GOOD[3:], 0, (), "0 exactly when a parameter has no terms"),
    (GOOD, 2, (), "truncated"),  # the last code loses its top bits
    (GOOD[:5] + [(2, 1, [])], 0, (), "truncated"),  # the last code is missing
    (GOOD[:1] + [(1, 15, [1] * 3)], 0, (), "truncated"),  # 15 terms overrun the file
    (GOOD[:5] + [(1, 15, [])], 0, (), "truncated"),  # the last record claims 15 terms
    (GOOD, 0, (0, 1), "non-zero padding bits"),
], ids=["sign_3", "zero_with_terms", "sign_without_terms", "cut_mid_code", "missing_code",
        "count_overruns", "last_count_overruns", "padding"])
def test_malformed_blocks_raise_configuration_errors(tmp_path, records, cut_bits, tail_bits,
                                                     message):
    path = tmp_path / "m.saqm"
    path.write_bytes(_hand_built(records, cut_bits=cut_bits, tail_bits=tail_bits))
    with pytest.raises(ConfigurationError, match=message):
        load_quantized(path, DENSE_SPEC)
