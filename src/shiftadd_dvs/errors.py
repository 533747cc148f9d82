"""Exception taxonomy shared by all subsystems."""


class ShiftAddError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ShiftAddError):
    """Shapes, layer wiring, or options are inconsistent."""


class DomainError(ShiftAddError):
    """An argument is outside the mathematical domain of an operation."""


class RangeError(ShiftAddError):
    """A value does not fit the configured fixed-point range."""


class IngestionError(ShiftAddError):
    """A dataset or logits file is structurally wrong (counts, shapes, labels)."""


class ParseError(ShiftAddError):
    """A record in a text file could not be parsed."""


class ProtocolError(ShiftAddError):
    """Streamed elements arrived out of order or with the wrong count."""


class NumericError(ShiftAddError):
    """A non-finite value appeared where finite arithmetic is required."""


class StratificationError(ShiftAddError):
    """A cross-validation fold would be left without samples of some class."""
