"""Shift-add DVS toolchain: train, distill, quantize, encode, infer, simulate."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigurationError,
    DomainError,
    IngestionError,
    NumericError,
    ParseError,
    ProtocolError,
    RangeError,
    ShiftAddError,
    StratificationError,
)
from .model import (  # noqa: F401
    ModelSpec,
    ModelParams,
    count_report,
    default_student_spec,
    model_forward,
    wide_student_spec,
)
from .losses import KDConfig, cross_entropy, kd_loss  # noqa: F401
from .quantize import (  # noqa: F401
    QuantizedModel,
    ShiftQuantParam,
    dequantize_model,
    fixed_point_decompose,
    shift_quantize_model,
    shift_quantize_param,
)
from .encoding import compression_report, decode_layer, encode_layer, encode_model  # noqa: F401
from .engine import ShiftAddEngine, quantize_activation, shift_add_mul  # noqa: F401
from .stream import LineBuffer  # noqa: F401
from .throughput import ThroughputReport, throughput_report  # noqa: F401
