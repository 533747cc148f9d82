"""Benchmark of the shift-add DVS toolchain: one command, three workloads.

    python3 perfbench/run.py --workload infer-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. ``--trace 0`` times the workload with
tracing off and prints the end-to-end metrics; ``--trace 1`` is a separate
traced run that prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it, and a file under ``.perfbench_out/``, hold
the run's details: environment, load, input fingerprints and checks.
See ``perfbench/README.md`` for the design.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("infer-batch", "stream-sim", "train-distill")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SHIFTADD_DVS_THREADS")


def _pin_threads() -> dict:
    """One client on one core: BLAS single-threaded, the program's thread pool off.

    Must run before numpy is imported. Returns the caller's settings.
    """
    caller = {name: os.environ.get(name) for name in THREAD_VARS}
    for name in THREAD_VARS[:3]:
        os.environ[name] = "1"
    os.environ.pop("SHIFTADD_DVS_THREADS", None)
    return caller


def _import_program():
    """Import the program from this checkout's ``src`` and the benchmark modules."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import shiftadd_dvs
    if Path(shiftadd_dvs.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"shiftadd_dvs was imported from {shiftadd_dvs.__file__}, not {SRC}")
    from perfbench import inputs, measure
    return inputs, measure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true",
                        help="smallest input sizes and one set-up; for the self-test")
    args = parser.parse_args(argv)
    caller_thread_env = _pin_threads()
    try:
        inputs, measure = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    sizes = inputs.Sizes.smallest() if args.smallest else inputs.Sizes.full()
    load_before = os.getloadavg()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        inp = inputs.generate(args.seed, work / "inputs", sizes)
        if args.trace:
            result = measure.traced_run(inp, work, args.workload, args.seconds)
        else:
            result = measure.timed_run(inp, work, args.workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, items, checks, detail, tracers = result
    load_after = os.getloadavg()
    nproc = os.cpu_count() or 1
    correct = items.failed == 0 and all(ok for _, ok in checks)
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smallest": args.smallest, "environment": measure.environment(caller_thread_env),
        "load_before": load_before, "load_after": load_after,
        # Back-to-back runs leave up to 1.0 of their own load behind; more
        # than that means other work likely held a core when this run began.
        "started_loaded": load_before[0] >= nproc - 0.5,
        "fingerprints": inp.fingerprints, "checks": dict(checks),
        "first_error": items.first_error,
    })
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"detail": detail, "metrics": {k: v for k, (v, _) in metrics.items()}},
        indent=1, default=str) + "\n", encoding="utf-8")
    if tracers:
        origin = min((s.start for tr in tracers.values() for s in tr.spans), default=0.0)
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for phase, tr in tracers.items():
                for record in tr.records(phase, origin):
                    fh.write(json.dumps(record) + "\n")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": int(items.attempted),
                      "failed": int(items.failed),
                      "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
