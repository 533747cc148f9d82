import ctypes
from pathlib import Path

import numpy as np
import pytest

from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    ModelSpec,
    PoolLayerSpec,
    init_params,
)
from shiftadd_dvs.quantize import ZERO_PARAM, QuantizedLayer, QuantizedModel, shift_quantize_param
from shiftadd_dvs.stream import _build_stages, _float_computes, _int_computes


def openblas_core() -> str:
    """The GEMM kernel numpy's bundled OpenBLAS chose at load time (``SkylakeX``,
    ``Haswell``, ...), or "unknown" where that library is missing."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _blas_line() -> str:
    return f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"


def pytest_report_header(config):
    return _blas_line()


def pytest_terminal_summary(terminalreporter, config):
    if config.option.verbose < 0:  # -q hides the report header
        terminalreporter.write_line(_blas_line())


def make_small_spec(rng: np.random.Generator, batchnorm: bool = False,
                    max_channels: int = 3) -> ModelSpec:
    """Random tiny model: 1-2 conv blocks, optional pool, flatten, 3-way dense."""
    in_c = int(rng.integers(1, max_channels + 1))
    h = int(rng.integers(5, 10))
    w = int(rng.integers(5, 10))
    layers = []
    shape = (in_c, h, w)
    blocks = int(rng.integers(1, 3))
    for i in range(blocks):
        k = int(rng.integers(1, min(4, shape[1], shape[2]) + 1))
        pad = int(rng.integers(0, 2)) if k > 1 else 0
        out_c = int(rng.integers(1, 5))
        layers.append(ConvSpec(name=f"conv{i + 1}", out_channels=out_c, kernel=(k, k),
                               stride=1, padding=pad, relu=bool(rng.integers(0, 2)),
                               batchnorm=batchnorm))
        oh = shape[1] + 2 * pad - k + 1
        ow = shape[2] + 2 * pad - k + 1
        shape = (out_c, oh, ow)
        if shape[1] >= 2 and shape[2] >= 2 and rng.integers(0, 2):
            mode = "max" if rng.integers(0, 2) else "avg"
            layers.append(PoolLayerSpec(name=f"pool{i + 1}", mode=mode,
                                        window=(2, 2), stride=2))
            shape = (shape[0], (shape[1] - 2) // 2 + 1, (shape[2] - 2) // 2 + 1)
    layers.append(FlattenSpec())
    layers.append(DenseSpec(name="head", out_features=3))
    return ModelSpec(layers=tuple(layers), input_shape=(in_c, h, w), class_count=3)


def zero_weight_params(spec: ModelSpec):
    """Parameters of ``spec`` with every weight and kernel zeroed."""
    params = init_params(spec, np.random.default_rng(0))
    for entry in params.entries:
        if entry is not None:
            entry.weights[:] = 0.0
    return params


def make_small_model(rng: np.random.Generator, batchnorm: bool = False,
                     weight_scale: float = 1.0):
    spec = make_small_spec(rng, batchnorm=batchnorm)
    params = init_params(spec, rng, weight_scale=weight_scale)
    return spec, params


def single_conv_spec(in_c, h, w, out_c, kernel, stride=1, padding=0,
                     use_relu=False, batchnorm=False) -> ModelSpec:
    oh = (h + 2 * padding - kernel[0]) // stride + 1
    ow = (w + 2 * padding - kernel[1]) // stride + 1
    return ModelSpec(layers=(
        ConvSpec(name="conv1", out_channels=out_c, kernel=kernel, stride=stride,
                 padding=padding, relu=use_relu, batchnorm=batchnorm),
        FlattenSpec(),
        DenseSpec(name="head", out_features=3),
    ), input_shape=(in_c, h, w), class_count=3)


# (kernel, stride, padding) of convolutions whose windows skip columns; in the
# padded two, some windows complete on virtual (padding) elements
STRIDED_GEOMETRIES = [
    pytest.param((3, 3), 2, 1, id="s2-p1"),
    pytest.param((2, 3), 3, 0, id="s3-k2x3"),
    pytest.param((3, 2), 2, 2, id="s2-p2-k3x2"),
]


def wide_dense_model(width: int) -> QuantizedModel:
    """One dense layer over a (1, 128, width) flatten, every weight 4 - 2^-16 (18 terms).

    16512 inputs (width 129) at the 2^31 activation bound times (2^18 - 1) per
    weight exceed 2^63; 16256 inputs (width 127) stay just below it.
    """
    spec = ModelSpec(layers=(FlattenSpec(), DenseSpec(name="d", out_features=3)),
                     input_shape=(1, 128, width), class_count=3)
    weight = shift_quantize_param(4.0 - 2.0 ** -16, 18)
    layer = layer_from_params("d", (3, 128 * width),
                              [weight] * (3 * 128 * width) + [ZERO_PARAM] * 3)
    return QuantizedModel(spec=spec, entries=[None, layer], n_terms=18)


def layer_from_params(name: str, shape: tuple, params) -> QuantizedLayer:
    """A QuantizedLayer holding scalar ``params``: weights in index order, then biases."""
    return QuantizedLayer(name=name, shape=shape, sign=[p.sign for p in params],
                          count=[p.term_count for p in params],
                          shift=[s for p in params for s in p.shifts])


def float_stages(spec, params):
    """The float stages ``stream_float_forward`` runs: the one builder with ``layer_forward``."""
    return _build_stages(spec, _float_computes(spec, params))


def int_stages(engine):
    """The integer stages ``stream_quantized_forward`` runs around ``engine``."""
    return _build_stages(engine.spec, _int_computes(engine))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
