"""Synthetic spatial-temporal benchmark data.

Three vibration-like classes with distinct textures on a 256 (time) x 11
(position) grid: isolated decaying impact bursts, regular pulse trains, and
sustained low-frequency bands. A "shifted" variant draws the same classes with
more noise, weaker amplitudes and altered frequencies/widths, emulating a
deployment environment the model never trained on; models fit on the base
variant measurably degrade on it.

Generation is deterministic: every sample draws from its own named substream
of the run seed, so datasets are byte-identical across runs and insensitive to
generation order.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Manifest, convert_samples, SAMPLE_ROWS, SAMPLE_COLS
from .errors import ConfigurationError
from .rng import stream


@dataclass(frozen=True)
class VariantParams:
    noise: float
    amp_lo: float
    amp_hi: float
    impact_events: tuple[int, int]
    impact_tau: tuple[float, float]
    impact_freq: tuple[float, float]
    impact_width: tuple[float, float]
    train_period: tuple[float, float]
    train_tau: tuple[float, float]
    train_freq: tuple[float, float]
    train_width: tuple[float, float]
    band_freq: tuple[float, float]
    band_width: tuple[float, float]
    band_mod: tuple[float, float]


BASE = VariantParams(
    noise=0.22, amp_lo=0.55, amp_hi=1.9,
    impact_events=(3, 6), impact_tau=(6.0, 12.0), impact_freq=(0.08, 0.18),
    impact_width=(0.8, 1.8),
    train_period=(12.0, 20.0), train_tau=(2.0, 3.5), train_freq=(0.30, 0.44),
    train_width=(0.7, 1.5),
    band_freq=(0.010, 0.035), band_width=(3.0, 6.0), band_mod=(60.0, 150.0),
)

SHIFTED = VariantParams(
    noise=0.30, amp_lo=0.50, amp_hi=1.25,
    impact_events=(2, 5), impact_tau=(5.0, 10.5), impact_freq=(0.09, 0.20),
    impact_width=(1.0, 2.2),
    train_period=(11.0, 19.0), train_tau=(1.8, 3.2), train_freq=(0.31, 0.46),
    train_width=(0.85, 1.8),
    band_freq=(0.011, 0.038), band_width=(3.6, 7.0), band_mod=(50.0, 130.0),
)

VARIANTS = {"base": BASE, "shifted": SHIFTED}

_TIME = np.arange(SAMPLE_ROWS, dtype=np.float64)[:, None]
_SPACE = np.arange(SAMPLE_COLS, dtype=np.float64)[None, :]


def _spatial(center: float, width: float) -> np.ndarray:
    return np.exp(-0.5 * ((_SPACE - center) / width) ** 2)


def _impacts(rng: np.random.Generator, v: VariantParams) -> np.ndarray:
    frame = np.zeros((SAMPLE_ROWS, SAMPLE_COLS))
    for _ in range(rng.integers(v.impact_events[0], v.impact_events[1] + 1)):
        t0 = rng.uniform(5, SAMPLE_ROWS - 30)
        tau = rng.uniform(*v.impact_tau)
        freq = rng.uniform(*v.impact_freq)
        amp = rng.uniform(v.amp_lo, v.amp_hi)
        envelope = np.where(_TIME >= t0, np.exp(-(_TIME - t0) / tau), 0.0)
        carrier = np.sin(2 * np.pi * freq * (_TIME - t0) + rng.uniform(0, 2 * np.pi))
        frame += amp * envelope * carrier * _spatial(rng.uniform(1, 9), rng.uniform(*v.impact_width))
    return frame


def _pulse_train(rng: np.random.Generator, v: VariantParams) -> np.ndarray:
    period = rng.uniform(*v.train_period)
    tau = rng.uniform(*v.train_tau)
    freq = rng.uniform(*v.train_freq)
    amp = rng.uniform(v.amp_lo, v.amp_hi)
    phase = rng.uniform(0, period)
    since = np.mod(_TIME - phase, period)
    envelope = np.exp(-since / tau)
    carrier = np.sin(2 * np.pi * freq * _TIME + rng.uniform(0, 2 * np.pi))
    spatial = _spatial(rng.uniform(2, 8), rng.uniform(*v.train_width))
    return amp * envelope * carrier * spatial


def _band(rng: np.random.Generator, v: VariantParams) -> np.ndarray:
    freq = rng.uniform(*v.band_freq)
    amp = rng.uniform(v.amp_lo, v.amp_hi)
    mod_period = rng.uniform(*v.band_mod)
    carrier = np.sin(2 * np.pi * freq * _TIME + rng.uniform(0, 2 * np.pi))
    modulation = 0.6 + 0.4 * np.sin(2 * np.pi * _TIME / mod_period + rng.uniform(0, 2 * np.pi))
    spatial = _spatial(rng.uniform(3, 7), rng.uniform(*v.band_width))
    return amp * carrier * modulation * spatial


_TEXTURES = (_impacts, _pulse_train, _band)


def synth_sample(seed: int, variant: str, label: int, index: int) -> np.ndarray:
    """One deterministic frame for (seed, variant, label, index)."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    if not 0 <= label < len(_TEXTURES):
        raise ConfigurationError(f"label {label} out of range")
    params = VARIANTS[variant]
    rng = stream(seed, "synth", variant, str(label), str(index))
    frame = _TEXTURES[label](rng, params)
    frame += rng.normal(0.0, params.noise, size=(SAMPLE_ROWS, SAMPLE_COLS))
    return frame


def generate_synthetic_dataset(seed: int, per_class: int, out_dir,
                               variant: str = "base", name: str | None = None) -> Manifest:
    """Write per_class samples of each class as a DVSF dataset directory."""
    if per_class < 1:
        raise ConfigurationError(f"per_class must be >= 1, got {per_class}")
    keys = [(label, index) for label in range(len(_TEXTURES)) for index in range(per_class)]
    return convert_samples((synth_sample(seed, variant, label, index) for label, index in keys),
                           [label for label, _ in keys],
                           [f"{variant}-c{label}-{index:04d}" for label, index in keys],
                           out_dir, name or f"synthetic-{variant}")


def generate_benchmark(seed: int, per_class: int, out_dir,
                       shifted_per_class: int) -> tuple[Path, Path]:
    """Base training set plus the distribution-shifted evaluation set."""
    if shifted_per_class < 1:  # before the base set is written, which checks per_class
        raise ConfigurationError(f"shifted_per_class must be >= 1, got {shifted_per_class}")
    base_dir, shifted_dir = Path(out_dir) / "base", Path(out_dir) / "shifted"
    generate_synthetic_dataset(seed, per_class, base_dir, variant="base")
    generate_synthetic_dataset(seed, shifted_per_class, shifted_dir, variant="shifted")
    return base_dir, shifted_dir
