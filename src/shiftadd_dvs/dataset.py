"""Sample files, manifests, and dataset ingestion.

A dataset is a directory with a ``manifest.json`` naming every sample file,
its stable id and class label. Samples are "DVSF" binaries: magic ``DVSF``,
u16 version=1, u16 rows, u16 cols, u8 label, then rows*cols float32
little-endian values row-major (row = time, col = fiber position). A CSV
escape hatch accepts one sample per line under the header
``label,r0c0,...,r{R-1}c{C-1}``; adapting a foreign corpus means converting it
to either form (see ``convert_samples``).
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._ioutil import atomic_write_bytes, json_typed, read_json, write_json
from .errors import ConfigurationError, IngestionError, NumericError, ParseError
from .model import CLASS_NAMES

MAGIC = b"DVSF"
VERSION = 1
SAMPLE_ROWS = 256
SAMPLE_COLS = 11


def write_sample(path, frame: np.ndarray, label: int,
                 rows: int = SAMPLE_ROWS, cols: int = SAMPLE_COLS) -> None:
    frame = np.asarray(frame, dtype="<f4")
    if frame.shape != (rows, cols):
        raise IngestionError(f"{path}: frame shape {frame.shape} is not ({rows}, {cols})")
    if not 0 <= int(label) < len(CLASS_NAMES):
        raise IngestionError(f"{path}: label {label} out of range")
    if not np.all(np.isfinite(frame)):
        raise NumericError(f"{path}: frame holds non-finite values")
    blob = MAGIC + struct.pack("<HHHB", VERSION, rows, cols, int(label)) + frame.tobytes()
    atomic_write_bytes(path, blob)


def read_sample(path, rows: int = SAMPLE_ROWS, cols: int = SAMPLE_COLS):
    """Returns (frame float64 (rows, cols), label)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IngestionError(f"{path}: cannot read sample: {exc}") from exc
    if data[:4] != MAGIC:
        raise IngestionError(f"{path}: not a DVSF sample file")
    if len(data) < 11:
        raise IngestionError(f"{path}: header truncated at {len(data)} bytes")
    version, r, c, label = struct.unpack("<HHHB", data[4:11])
    if version != VERSION:
        raise IngestionError(f"{path}: unsupported DVSF version {version}")
    if (r, c) != (rows, cols):
        raise IngestionError(f"{path}: sample is {r}x{c}, expected {rows}x{cols}")
    expected = 11 + 4 * rows * cols
    if len(data) != expected:
        raise IngestionError(f"{path}: file length {len(data)} != {expected}")
    if label >= len(CLASS_NAMES):
        raise IngestionError(f"{path}: unknown label {label}")
    frame = np.frombuffer(data[11:], dtype="<f4").reshape(rows, cols).astype(np.float64)
    # float32 magnitudes sum far below the float64 limit, so only NaN or inf makes it non-finite
    if not np.isfinite(frame.sum()):
        raise NumericError(f"{path}: sample holds non-finite values")
    return frame, int(label)


@dataclass
class SampleRef:
    id: str
    file: str
    label: int


@dataclass
class Manifest:
    name: str
    samples: list[SampleRef] = field(default_factory=list)
    class_names: tuple[str, ...] = CLASS_NAMES

    @property
    def counts(self) -> list[int]:
        counts = [0] * len(self.class_names)
        for s in self.samples:
            counts[s.label] += 1
        return counts

    def to_json(self) -> dict:
        return {"name": self.name, "class_names": list(self.class_names),
                "counts": self.counts,
                "samples": [{"id": s.id, "file": s.file, "label": s.label}
                            for s in self.samples]}

    @staticmethod
    def from_json(doc: dict) -> "Manifest":
        manifest = Manifest(name=doc["name"], class_names=tuple(doc["class_names"]))
        for entry in doc["samples"]:
            ref = SampleRef(id=entry["id"], file=entry["file"],
                            label=json_typed(entry["label"], int, f"sample {entry['id']!r}: label"))
            if not (isinstance(ref.id, str) and isinstance(ref.file, str)):
                raise TypeError(f"sample id {ref.id!r} and file {ref.file!r} must be strings")
            manifest.samples.append(ref)
        return manifest


def save_manifest(directory, manifest: Manifest) -> None:
    write_json(Path(directory) / "manifest.json", manifest.to_json())


@dataclass
class Dataset:
    """In-memory dataset: frames (N, 1, rows, cols), labels (N,), stable ids."""

    manifest: Manifest
    frames: np.ndarray
    labels: np.ndarray
    ids: list[str]


def ingest_dataset(path) -> Dataset:
    """Load a dataset directory (manifest + DVSF files) or a CSV file.

    Samples come back sorted by id so ordering is deterministic.
    """
    path = Path(path)
    if path.is_dir():
        return _ingest_directory(path)
    if path.suffix.lower() == ".csv":
        return _ingest_csv(path)
    raise IngestionError(f"{path}: expected a dataset directory or a .csv file")


def _ingest_directory(path: Path) -> Dataset:
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise IngestionError(f"{path}: no manifest.json")
    try:
        manifest = Manifest.from_json(read_json(manifest_path))
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise IngestionError(f"{manifest_path}: malformed manifest: {exc!r}") from exc
    seen = set()
    for ref in manifest.samples:
        if ref.id in seen:
            raise IngestionError(f"{path}: duplicate sample id {ref.id!r}")
        seen.add(ref.id)
        if not 0 <= ref.label < len(manifest.class_names):
            raise IngestionError(f"{path}: sample {ref.id!r} has unknown label {ref.label}")
    refs = sorted(manifest.samples, key=lambda s: s.id)
    frames = np.empty((len(refs), 1, SAMPLE_ROWS, SAMPLE_COLS))
    labels = np.empty(len(refs), dtype=np.int64)
    for i, ref in enumerate(refs):
        frame, label = read_sample(path / ref.file)
        if label != ref.label:
            raise IngestionError(
                f"{path / ref.file}: file label {label} != manifest label {ref.label}")
        frames[i, 0] = frame
        labels[i] = label
    ordered = Manifest(name=manifest.name, samples=refs, class_names=manifest.class_names)
    return Dataset(manifest=ordered, frames=frames, labels=labels,
                   ids=[r.id for r in refs])


def _ingest_csv(path: Path) -> Dataset:
    expected_header = ["label"] + [f"r{r}c{c}" for r in range(SAMPLE_ROWS)
                                   for c in range(SAMPLE_COLS)]
    frames = []
    labels = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty CSV")
            if header != expected_header:
                raise IngestionError(f"{path}: CSV header does not match the documented layout")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(expected_header):
                    raise ParseError(f"{path}:{lineno}: expected {len(expected_header)} fields")
                try:
                    label = int(row[0])
                    values = np.array([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                if not 0 <= label < len(CLASS_NAMES):
                    raise IngestionError(f"{path}:{lineno}: unknown label {label}")
                if not np.all(np.isfinite(values)):
                    raise NumericError(f"{path}:{lineno}: non-finite sample value")
                frames.append(values.reshape(SAMPLE_ROWS, SAMPLE_COLS))
                labels.append(label)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"{path}: {exc}") from exc
    stem = path.stem
    width = len(str(max(1, len(frames) - 1)))
    ids = [f"{stem}-{i:0{width}d}" for i in range(len(frames))]
    manifest = Manifest(name=stem)
    for ident, label in zip(ids, labels):
        manifest.samples.append(SampleRef(id=ident, file=path.name, label=label))
    frames_arr = np.stack(frames)[:, None, :, :] if frames else np.empty((0, 1, SAMPLE_ROWS, SAMPLE_COLS))
    return Dataset(manifest=manifest, frames=frames_arr,
                   labels=np.array(labels, dtype=np.int64), ids=ids)


def convert_samples(frames, labels, ids, out_dir, name: str) -> Manifest:
    """Write arbitrary (frame, label, id) triples as a DVSF dataset directory.

    This is the adaptation hook for foreign corpora: load them however they
    are stored, then hand the arrays here.
    """
    out = Path(out_dir)
    (out / "samples").mkdir(parents=True, exist_ok=True)
    manifest = Manifest(name=name)
    for frame, label, ident in zip(frames, labels, ids):
        frame = np.asarray(frame, dtype=np.float64)
        if frame.ndim == 3 and frame.shape[0] == 1:
            frame = frame[0]
        rel = f"samples/{ident}.dvsf"
        write_sample(out / rel, frame, int(label))
        manifest.samples.append(SampleRef(id=str(ident), file=rel, label=int(label)))
    save_manifest(out, manifest)
    return manifest
