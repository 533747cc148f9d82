"""Seeded benchmark inputs, written to disk before any timed set-up.

Everything derives from the benchmark seed: the default student's initial
parameters (SACW), the N=3 / 3-bit / f_a=8 quantized model (SAQM), the
shifted-variant frames that inference and streaming run on, the base-variant
training set and its fixed teacher logits. SHA-256 hashes of what was
written go into the results, so runs whose inputs differ are never compared.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from shiftadd_dvs.dataset import ingest_dataset
from shiftadd_dvs.encoding import encode_model
from shiftadd_dvs.model import default_student_spec, fold_model_batchnorm, init_params
from shiftadd_dvs.quantize import shift_quantize_model
from shiftadd_dvs.rng import stream
from shiftadd_dvs.sacw import load_weights, save_weights
from shiftadd_dvs.saqm import save_quantized
from shiftadd_dvs.synth import generate_synthetic_dataset
from shiftadd_dvs.training import Standardizer, save_teacher_logits

# The paper's configuration: three terms per weight, 3-bit offset codes,
# 16 fraction and 2 integer bits for weights, 8 fraction bits for activations.
N_TERMS = 3
CODE_BITS = 3
FRAC_BITS = 16
INT_BITS = 2
F_A = 8


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``full`` is the benchmark, ``smallest`` the self-test."""

    infer_per_class: int
    train_per_class: int
    batch: int
    setup_reps: int
    # A cheap set-up (training's takes about 15 ms) is repeated this many
    # times instead, so that its median is as steady as an expensive one's.
    # Both counts are fixed, not timed, because the heap that the set-ups
    # leave behind shows in the run's peak resident memory.
    cheap_setup_reps: int
    side_items: int

    @staticmethod
    def full() -> "Sizes":
        return Sizes(infer_per_class=4, train_per_class=64, batch=64, setup_reps=5,
                     cheap_setup_reps=60, side_items=2)

    @staticmethod
    def smallest() -> "Sizes":
        return Sizes(infer_per_class=1, train_per_class=4, batch=6, setup_reps=1,
                     cheap_setup_reps=1, side_items=1)


@dataclass
class Inputs:
    seed: int
    sizes: Sizes
    model_dir: Path           # model.sacw + model.json (float student with batchnorm)
    quant_dir: Path           # model.saqm + model.json (folded spec, f_a)
    infer_dir: Path           # shifted-variant DVSF dataset
    train_dir: Path           # base-variant DVSF dataset
    teacher_path: Path
    encoded: object           # the in-memory encoded model the SAQM file was written from
    fingerprints: dict = field(default_factory=dict)


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def generate(seed: int, root, sizes: Sizes) -> Inputs:
    root = Path(root)
    model_dir, quant_dir = root / "model", root / "quant"
    model_dir.mkdir(parents=True)
    quant_dir.mkdir(parents=True)

    infer_dir, train_dir = root / "shifted", root / "base"
    generate_synthetic_dataset(seed, sizes.infer_per_class, infer_dir, variant="shifted")
    generate_synthetic_dataset(seed, sizes.train_per_class, train_dir, variant="base")
    train = ingest_dataset(train_dir)
    scaler = Standardizer.fit(train.frames)

    spec = default_student_spec()
    save_weights(model_dir / "model.sacw", spec, init_params(spec, stream(seed, "init")))
    _write_json(model_dir / "model.json", {"spec": spec.to_json(), "standardizer": scaler.to_json()})

    fspec, fparams = fold_model_batchnorm(spec, load_weights(model_dir / "model.sacw", spec))
    q = shift_quantize_model(fspec, fparams, N_TERMS, FRAC_BITS, INT_BITS, f_a=F_A)
    encoded = encode_model(q, CODE_BITS)
    save_quantized(quant_dir / "model.saqm", encoded)
    _write_json(quant_dir / "model.json", {"spec": fspec.to_json(), "standardizer": scaler.to_json(),
                                           "f_a": F_A})

    # Fixed teacher logits that lean toward the true class, as a trained teacher's would.
    rng = stream(seed, "perfbench", "teacher")
    logits = rng.normal(0.0, 1.5, size=(len(train.ids), 3))
    logits[np.arange(len(train.ids)), train.labels] += 3.0
    teacher_path = root / "teacher.csv"
    save_teacher_logits(teacher_path, train.ids, logits)

    frame_files = sorted(p for d in (infer_dir, train_dir) for p in (d / "samples").iterdir())
    fingerprints = {
        "frames": _sha256(frame_files),
        "saqm": _sha256([quant_dir / "model.saqm"]),
        "initial_params": _sha256([model_dir / "model.sacw"]),
        "teacher_logits": _sha256([teacher_path]),
    }
    fingerprints["inputs"] = hashlib.sha256(
        "".join(fingerprints[k] for k in sorted(fingerprints)).encode()).hexdigest()
    return Inputs(seed=seed, sizes=sizes, model_dir=model_dir, quant_dir=quant_dir,
                  infer_dir=infer_dir, train_dir=train_dir, teacher_path=teacher_path,
                  encoded=encoded, fingerprints=fingerprints)
