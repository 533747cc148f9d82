"""Cycles-to-fiber-length throughput arithmetic.

Given a latency in clock cycles, derive the per-frame inference time, how many
frames fit into one acquisition period, and the fiber length that frame budget
covers in real time. ``rounding="paper"`` first rounds the inference time to
three decimal places of a millisecond before dividing (reproducing published
headline figures); ``rounding="exact"`` keeps full precision. Non-finite
inputs, and a time too short to divide the period by (one that paper rounding
makes 0.000 ms), raise ``ConfigurationError``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConfigurationError

DEFAULT_FRAME_PERIOD_S = 0.256
DEFAULT_FRAME_SPAN_M = 12.5
DEFAULT_CYCLES = 25112
DEFAULT_CLOCK_HZ = 303_000_000.0


@dataclass(frozen=True)
class ThroughputReport:
    cycles: int
    clock_hz: float
    inference_time_s: float
    frame_period_s: float
    frames_per_period: int
    frame_span_m: float
    realtime_fiber_m: float
    rounding: str

    def to_json(self) -> dict:
        return {
            "cycles": self.cycles,
            "clock_hz": self.clock_hz,
            "inference_time_s": self.inference_time_s,
            "inference_time_ms": self.inference_time_s * 1e3,
            "frame_period_s": self.frame_period_s,
            "frames_per_period": self.frames_per_period,
            "frame_span_m": self.frame_span_m,
            "realtime_fiber_m": self.realtime_fiber_m,
            "rounding": self.rounding,
        }


def throughput_report(cycles: int, clock_hz: float,
                      frame_period_s: float = DEFAULT_FRAME_PERIOD_S,
                      frame_span_m: float = DEFAULT_FRAME_SPAN_M,
                      rounding: str = "paper") -> ThroughputReport:
    inputs = (cycles, clock_hz, frame_period_s, frame_span_m)
    if not all(abs(v) <= sys.float_info.max for v in inputs):  # NaN fails too
        raise ConfigurationError(f"throughput inputs must be finite floats, got {inputs}")
    if cycles <= 0 or clock_hz <= 0 or frame_period_s <= 0 or frame_span_m <= 0:
        raise ConfigurationError("throughput inputs must all be positive")
    if rounding not in ("paper", "exact"):
        raise ConfigurationError(f"rounding must be 'paper' or 'exact', got {rounding!r}")
    exact_s = cycles / clock_hz
    if rounding == "paper":
        inference_ms = round(exact_s * 1e3, 3)
        per_period = (frame_period_s * 1e3) / inference_ms if inference_ms else math.inf
        inference_s = inference_ms / 1e3
    else:
        inference_s = exact_s
        per_period = frame_period_s / exact_s if exact_s else math.inf
    if not math.isfinite(per_period):
        raise ConfigurationError(
            f"{cycles} cycles at {clock_hz} Hz take {inference_s} s under {rounding} rounding, "
            f"too short to count frames per {frame_period_s} s period")
    frames = math.floor(per_period)
    return ThroughputReport(
        cycles=int(cycles), clock_hz=float(clock_hz), inference_time_s=inference_s,
        frame_period_s=float(frame_period_s), frames_per_period=int(frames),
        frame_span_m=float(frame_span_m), realtime_fiber_m=frames * float(frame_span_m),
        rounding=rounding)
