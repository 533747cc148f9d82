"""Small shared I/O helpers: atomic writes, run documents and their field types."""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .errors import ConfigurationError, ParseError


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + rename so readers never see partial files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The JSON document at ``path``; bytes that are not UTF-8 JSON raise ``ParseError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from exc


def json_typed(value, kind: type, what: str):
    """``value``, which must be a JSON integer (``kind`` int; true and 1.5 are not), boolean
    or number (``kind`` float; true and "2.5" are not, and an integer comes back as a float)."""
    if kind is float:
        if type(value) not in (int, float):
            raise ConfigurationError(f"{what} must be a JSON number, got {value!r}")
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigurationError(f"{what} must be a JSON number within the float range, "
                                     f"got an integer of {len(str(abs(value)))} digits") from None
    if type(value) is not kind:
        expected = "boolean" if kind is bool else "integer"
        raise ConfigurationError(f"{what} must be a JSON {expected}, got {value!r}")
    return value
