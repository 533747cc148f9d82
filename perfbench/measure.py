"""Timed and traced runs of one workload, plus the environment record."""
from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import numpy as np

from . import calibrate, tracing
from .workloads import SETUP_LAYERS, WORKLOADS

def _blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(caller_thread_env: dict) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas_info(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "machine": platform.machine(), "caller_thread_env": caller_thread_env,
            "thread_env": {name: os.environ.get(name) for name in caller_thread_env}}


class Items:
    """Runs items, checks each output and counts the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def attempt(self, workload, k: int, fn) -> float:
        """Run ``fn(k)`` and check its output; returns its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(k)
            elapsed = time.perf_counter() - start
            ok = workload.check(k, out)
        except Exception:  # an item that raises is a failed item; the run goes on
            elapsed = time.perf_counter() - start
            ok = False
            if self.first_error is None:
                self.first_error = traceback.format_exc()
                print(self.first_error, file=sys.stderr)
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{workload.name} item {k}: output failed its check"
        return elapsed


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples): the highest whole percentile with at least
    ten samples beyond it, or the maximum when there are ten samples or fewer."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100, n
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    return float(np.percentile(latencies, pct)), pct, n


def timed_run(inp, work, name: str, seconds: float):
    """Tracing off: set up several times, then run items for ``seconds``.

    The calibration kernel runs before and after every set-up and item, and
    every time is reported at the kernel's reference speed (see ``calibrate``).
    """
    wl = WORKLOADS[name](inp, work)
    cal = calibrate.Calibrator()
    setup_s, setup_kernel_s = [], [cal.measure()]
    for _ in range(inp.sizes.cheap_setup_reps if wl.cheap_setup else inp.sizes.setup_reps):
        start = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - start)
        setup_kernel_s.append(cal.measure())
    checks = wl.prepare_checks()
    items = Items()
    items.attempt(wl, 0, wl.run)  # warm-up, checked but not timed
    latencies, kernel_s = [], [cal.measure()]
    k = 1
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        latencies.append(items.attempt(wl, k, wl.run))
        kernel_s.append(cal.measure())
        k += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    setup_scaled = [t * f for t, f in zip(setup_s, calibrate.scale_factors(setup_kernel_s))]
    scaled = [t * f for t, f in zip(latencies, calibrate.scale_factors(kernel_s))]
    tail_s, pct, n = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "throughput_per_s": (len(scaled) * wl.samples_per_item / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {"setup_s": setup_s, "latency_tail": {"percentile": pct, "samples": n},
              "timed_wall_s": wall, "latencies_ms": [t * 1e3 for t in latencies],
              "calibration": {"ref_ms": calibrate.REF_MS,
                              "setup_kernel_ms": [t * 1e3 for t in setup_kernel_s],
                              "kernel_ms": [t * 1e3 for t in kernel_s]},
              "wall": {"setup_s": statistics.median(setup_s),
                       "throughput_per_s": len(latencies) * wl.samples_per_item / sum(latencies),
                       "latency_p50_ms": statistics.median(latencies) * 1e3,
                       "latency_tail_ms": tail(latencies)[0] * 1e3}}
    return metrics, items, checks, detail, {}


def clamp_share(encoded) -> dict:
    """Share of parameters with at least one clamped term, and of clamped terms."""
    params = clamped_params = terms = clamped_terms = 0
    for entry in encoded.layers():
        limit = (1 << entry.encoding.bits) - 1
        for param in entry.all_params():
            over = sum(1 for s in param.shifts if s - entry.encoding.bias > limit)
            params += 1
            terms += len(param.shifts)
            clamped_params += over > 0
            clamped_terms += over
    return {"clamped_params": clamped_params, "params": params,
            "clamped_terms": clamped_terms, "terms": terms}


def traced_run(inp, work, name: str, seconds: float):
    """Tracing on: every layer's spans, the own workload for ``seconds``, the others briefly."""
    wls = {n: cls(inp, work) for n, cls in WORKLOADS.items()}
    order = [name] + [n for n in WORKLOADS if n != name]
    tracers = {}
    for n in order:
        tr = tracers[f"setup:{n}"] = tracing.Tracer()
        for rep in range(inp.sizes.setup_reps if n == name else 1):
            with tr.span("setup", ("setup", rep)):
                wls[n].setup(tr.span)
    checks = [c for n in order for c in wls[n].prepare_checks()]

    # The own workload alternates untraced and traced items, so both see the same load.
    wl = wls[name]
    items = Items()
    loop = tracers["loop"] = tracing.Tracer()
    traced = partial(wl.traced, tracer=loop)
    items.attempt(wl, 0, wl.run)
    cal = calibrate.Calibrator()
    untraced, kernel_s = [], []
    k = 1
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(items.attempt(wl, k, wl.run))
        items.attempt(wl, k, traced)
        kernel_s.append(cal.measure())
        k += 1
        if time.perf_counter() >= deadline:
            break
    metrics = wl.metrics(loop)
    layer_sum = sum(metrics[f"{piece}_ms"][0] for piece in wl.pieces())
    untraced_ms = statistics.median(untraced) * 1e3
    traced_ms = loop.median_ms(wl.root_span, self_time=False)
    metrics.update({
        "trace.untraced_p50_ms": (untraced_ms, "ms"),
        "trace.traced_p50_ms": (traced_ms, "ms"),
        "trace.overhead_ms": (traced_ms - untraced_ms, "ms"),
        "trace.layer_sum_ms": (layer_sum, "ms"),
        # The per-layer times are wall times; this is the host speed they were taken at.
        "host.kernel_ms": (statistics.median(kernel_s) * 1e3, "ms"),
    })

    for n in order[1:]:
        side = tracers[f"side:{n}"] = tracing.Tracer()
        for i in range(inp.sizes.side_items):
            items.attempt(wls[n], i, partial(wls[n].traced, tracer=side))
        metrics.update(wls[n].metrics(side))

    for layer, owners in SETUP_LAYERS.items():
        owner = name if name in owners else owners[0]
        metrics[f"{layer}_ms"] = (tracers[f"setup:{owner}"].median_ms(layer), "ms")
    metrics["saqm.bytes"] = ((inp.quant_dir / "model.saqm").stat().st_size, "bytes")
    clamps = clamp_share(inp.encoded)
    metrics["encoding.clamp_ratio"] = (clamps["clamped_params"] / clamps["params"], "ratio")

    accounted = abs(layer_sum - untraced_ms) <= abs(traced_ms - untraced_ms) + 0.02 * untraced_ms
    detail = {"clamps": clamps, "clamp_ratio_base": "conv/dense weights and biases",
              "trace_items": k - 1,
              "accounting": {"layer_sum_ms": layer_sum, "untraced_p50_ms": untraced_ms,
                             "overhead_ms": traced_ms - untraced_ms,
                             "within_overhead": accounted}}
    return metrics, items, checks, detail, tracers
