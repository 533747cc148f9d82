"""Per-sample feature export for offline visualization tools."""
from __future__ import annotations

import io

import numpy as np

from ._ioutil import atomic_write_text
from .model import ModelParams, ModelSpec, model_forward


def export_features(spec: ModelSpec, params: ModelParams, frames, labels, ids,
                    layer: str = "flatten", path=None) -> str:
    """One CSV row per sample: id, label, then that layer's output vector.

    Uses the reference forward pass, so repeated exports are byte-identical.
    Returns the CSV text; writes it atomically when ``path`` is given.
    """
    spec.layer(layer)  # raises ConfigurationError for unknown tags
    frames = np.asarray(frames, dtype=np.float64)
    buf = io.StringIO()
    for frame, label, ident in zip(frames, labels, ids):
        _, feature = model_forward(spec, params, frame, capture=layer)
        flat = np.asarray(feature, dtype=np.float64).reshape(-1)
        values = ",".join(repr(float(v)) for v in flat)
        buf.write(f"{ident},{int(label)},{values}\n")
    text = buf.getvalue()
    if path is not None:
        atomic_write_text(path, text)
    return text
