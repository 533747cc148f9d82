"""Command-line pipelines: data generation through training, quantization,
encoding, inference, streaming simulation and reporting.

Every command writes a JSON result document that embeds the resolved
configuration and the tool version; exit status is 0 on success, 1 on an
internal error (with a structured message on stderr), 2 on usage errors.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from ._ioutil import atomic_write_text, json_typed, read_json, write_json
from .dataset import ingest_dataset, read_sample
from .encoding import compression_report, decoded_model, encode_model
from .engine import ShiftAddEngine
from .errors import ConfigurationError, IngestionError, ShiftAddError
from .features import export_features
from .losses import KDConfig
from .model import (
    ModelSpec,
    count_report,
    default_student_spec,
    fold_model_batchnorm,
    model_forward,
    wide_student_spec,
)
from .quantize import dequantize_model, shift_quantize_model
from .sacw import load_weights, save_weights
from .saqm import load_quantized, save_quantized
from .stream import stream_float_forward, stream_quantized_forward
from .synth import generate_benchmark
from .throughput import (
    DEFAULT_CLOCK_HZ,
    DEFAULT_CYCLES,
    DEFAULT_FRAME_PERIOD_S,
    DEFAULT_FRAME_SPAN_M,
    throughput_report,
)
from .training import (
    Standardizer,
    TrainConfig,
    evaluate_accuracy,
    kfold_train,
    load_teacher_logits,
    predict_logits,
    save_teacher_logits,
)


def _fail_on_error(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ShiftAddError, OSError) as exc:
            message = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            click.echo(json.dumps(message), err=True)
            sys.exit(1)
    return wrapper


def _result_doc(out_dir, command: str, config: dict, results: dict) -> dict:
    doc = {"tool": {"name": "shiftadd-dvs", "version": __version__},
           "command": command, "config": config, "results": results}
    if out_dir is not None:
        write_json(Path(out_dir) / "result.json", doc)
    return doc


def _save_model_dir(out_dir, spec: ModelSpec, params, standardizer: Standardizer,
                    meta: dict | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(out / "model.sacw", spec, params)
    doc = {"spec": spec.to_json(), "standardizer": standardizer.to_json(),
           "tool_version": __version__}
    if meta:
        doc.update(meta)
    write_json(out / "model.json", doc)


def _load_model_dir(model_dir, quantized: bool = False):
    """(spec, params or the quantized model at model.json's f_a, standardizer, model.json)."""
    path = Path(model_dir) / "model.json"
    try:
        doc = read_json(path)
        try:
            spec = ModelSpec.from_json(doc["spec"])
            scaler = Standardizer.from_json(doc["standardizer"])
            f_a = json_typed(doc.get("f_a", 8), int, f"{path}: f_a")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}: malformed model document: {exc!r}") from exc
        if quantized:
            model = load_quantized(path.with_name("model.saqm"), spec, f_a=f_a)
        else:
            model = load_weights(path.with_name("model.sacw"), spec)
    except FileNotFoundError as exc:
        raise IngestionError(f"{exc.filename}: missing from the model directory") from exc
    return spec, model, scaler, doc


@click.group()
@click.version_option(version=__version__, prog_name="shiftadd-dvs")
def main():
    """Shift-add CNN toolchain for fiber vibration event recognition."""


@main.command("gen-data")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--per-class", type=int, default=100, show_default=True)
@click.option("--shifted-per-class", type=int, default=None,
              help="Samples per class in the shifted set (defaults to --per-class).")
@click.option("--out", "-o", type=click.Path(), required=True)
@_fail_on_error
def gen_data(seed, per_class, shifted_per_class, out):
    """Generate the synthetic base + shifted benchmark datasets."""
    shifted_per_class = per_class if shifted_per_class is None else shifted_per_class
    base_dir, shifted_dir = generate_benchmark(seed, per_class, out,
                                               shifted_per_class=shifted_per_class)
    config = {"seed": seed, "per_class": per_class, "shifted_per_class": shifted_per_class}
    _result_doc(out, "gen-data", config,
                {"base": str(base_dir), "shifted": str(shifted_dir)})
    click.echo(f"wrote {base_dir} and {shifted_dir}")


def _fold_trainer(data, test_data, arch, seed, folds, teacher_logits=None):
    """(data set, test set or None, spec, fit): the data, test data, spec and teacher
    table are loaded once, and ``fit(cfg)`` runs ``kfold_train`` on them."""
    ds = ingest_dataset(data)
    test = ingest_dataset(test_data) if test_data else None
    spec = {"student": default_student_spec, "wide": wide_student_spec}[arch]()
    table = None
    if teacher_logits:
        table = load_teacher_logits(teacher_logits, expected_ids=ds.ids,
                                    class_count=spec.class_count)

    def fit(cfg: TrainConfig):
        return kfold_train(ds.frames, ds.labels, test.frames if test else None,
                           test.labels if test else None, spec, cfg, seed=seed, k=folds,
                           teacher_table=table, train_ids=ds.ids)
    return ds, test, spec, fit


def _train_common(data, test_data, arch, seed, folds, epochs, batch, lr, out,
                  command, kd: KDConfig | None = None, teacher_logits_path=None,
                  emit_logits=None):
    cfg = TrainConfig(lr=lr, batch_size=batch, max_epochs=epochs, kd=kd)
    ds, test, spec, fit = _fold_trainer(data, test_data, arch, seed, folds, teacher_logits_path)
    result = fit(cfg)
    best = int(np.argmax(result.val_accuracies))
    _save_model_dir(out, spec, result.fold_params[best], result.standardizers[best],
                    meta={"arch": arch, "fold": best, "seed": seed})
    if emit_logits:
        scaler = result.standardizers[best]
        logits = predict_logits(spec, result.fold_params[best], scaler.apply(ds.frames))
        save_teacher_logits(emit_logits, ds.ids, logits)
    config = {"data": str(data), "test_data": str(test_data) if test_data else None,
              "arch": arch, "seed": seed, "folds": folds, "train": cfg.to_json(),
              "teacher_logits": str(teacher_logits_path) if teacher_logits_path else None}
    results = result.to_json(sample_ids=ds.ids, config=cfg)
    results["best_fold"] = best
    results["counts"] = ds.manifest.counts
    _result_doc(out, command, config, results)
    click.echo(f"mean val accuracy {result.mean_val_accuracy:.4f}"
               + (f", mean test accuracy {result.mean_test_accuracy:.4f}" if test else ""))
    return result


@main.command()
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--test-data", type=click.Path(exists=True), default=None)
@click.option("--arch", type=click.Choice(["student", "wide"]), default="student",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--epochs", type=int, default=100, show_default=True)
@click.option("--batch", type=int, default=64, show_default=True)
@click.option("--lr", type=float, default=1e-3, show_default=True)
@click.option("--emit-logits", type=click.Path(), default=None,
              help="Write the trained model's logits over --data as a teacher logits file.")
@click.option("--out", "-o", type=click.Path(), required=True)
@_fail_on_error
def train(data, test_data, arch, seed, folds, epochs, batch, lr, emit_logits, out):
    """Train a baseline model with plain cross-entropy."""
    _train_common(data, test_data, arch, seed, folds, epochs, batch, lr, out,
                  command="train", emit_logits=emit_logits)


@main.command()
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--test-data", type=click.Path(exists=True), default=None)
@click.option("--teacher-logits", type=click.Path(exists=True), required=True)
@click.option("--arch", type=click.Choice(["student", "wide"]), default="student",
              show_default=True)
@click.option("--alpha", type=float, default=0.1, show_default=True)
@click.option("--temperature", "-t", type=float, default=5.0, show_default=True)
@click.option("--t-squared", is_flag=True, default=False,
              help="Scale the divergence term by T^2 (classic recipe).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--epochs", type=int, default=100, show_default=True)
@click.option("--batch", type=int, default=64, show_default=True)
@click.option("--lr", type=float, default=1e-3, show_default=True)
@click.option("--grid", default=None,
              help="Hyperparameter sweep 'a1,a2,..;t1,t2,..' over alpha x temperature.")
@click.option("--out", "-o", type=click.Path(), required=True)
@_fail_on_error
def distill(data, test_data, teacher_logits, arch, alpha, temperature, t_squared,
            seed, folds, epochs, batch, lr, grid, out):
    """Train a student against teacher logits with the distillation loss."""
    if grid is None:
        kd = KDConfig(alpha=alpha, temperature=temperature, t_squared=t_squared)
        _train_common(data, test_data, arch, seed, folds, epochs, batch, lr, out,
                      command="distill", kd=kd, teacher_logits_path=teacher_logits)
        return
    try:
        alpha_part, temp_part = grid.split(";")
        alphas = [float(v) for v in alpha_part.split(",") if v]
        temps = [float(v) for v in temp_part.split(",") if v]
    except ValueError as exc:
        raise ConfigurationError(f"bad --grid value {grid!r}: {exc}") from exc
    if not alphas or not temps:
        raise ConfigurationError(f"bad --grid value {grid!r}: an axis has no values")
    # every cell is checked before the first one trains
    kds = [KDConfig(alpha=a, temperature=t, t_squared=t_squared) for a in alphas for t in temps]
    _, test, _, fit = _fold_trainer(data, test_data, arch, seed, folds, teacher_logits)
    cells = []
    for kd in kds:
        res = fit(TrainConfig(lr=lr, batch_size=batch, max_epochs=epochs, kd=kd))
        cells.append({"alpha": kd.alpha, "temperature": kd.temperature,
                      "mean_val_accuracy": res.mean_val_accuracy,
                      "mean_test_accuracy": res.mean_test_accuracy if test else None})
        click.echo(f"alpha={kd.alpha} T={kd.temperature}: val {res.mean_val_accuracy:.4f}"
                   + (f" test {res.mean_test_accuracy:.4f}" if test else ""))
    config = {"data": str(data), "arch": arch, "seed": seed, "folds": folds,
              "grid": grid, "epochs": epochs, "batch": batch, "lr": lr,
              "t_squared": t_squared}
    _result_doc(out, "distill-grid", config, {"cells": cells})


@main.command()
@click.option("--model", type=click.Path(exists=True), required=True,
              help="Model directory holding model.sacw + model.json.")
@click.option("--data", type=click.Path(exists=True), default=None,
              help="Dataset for the accuracy sweep.")
@click.option("--n", "n_terms", type=int, default=3, show_default=True)
@click.option("--bits", type=int, default=3, show_default=True)
@click.option("--frac-bits", type=int, default=16, show_default=True)
@click.option("--int-bits", type=int, default=2, show_default=True)
@click.option("--fa", "f_a", type=int, default=8, show_default=True)
@click.option("--sweep/--no-sweep", default=True, show_default=True,
              help="Evaluate dequantized accuracy for term counts 1..10.")
@click.option("--out", "-o", type=click.Path(), required=True)
@_fail_on_error
def quantize(model, data, n_terms, bits, frac_bits, int_bits, f_a, sweep, out):
    """Quantize a trained model to shift parameters and save the encoded file."""
    spec, params, scaler, doc = _load_model_dir(model)
    fspec, fparams = fold_model_batchnorm(spec, params)
    table = []
    if sweep and data:
        ds = ingest_dataset(data)
        frames = scaler.apply(ds.frames)
        for n in range(1, 11):
            q = shift_quantize_model(fspec, fparams, n, frac_bits, int_bits, f_a=f_a)
            acc = evaluate_accuracy(fspec, dequantize_model(q), frames, ds.labels)
            table.append({"n_terms": n, "accuracy": acc})
            click.echo(f"N={n}: accuracy {acc:.4f}")
    q = shift_quantize_model(fspec, fparams, n_terms, frac_bits, int_bits, f_a=f_a)
    encoded = encode_model(q, bits)
    out_path = Path(out)
    out_path.mkdir(parents=True, exist_ok=True)
    save_quantized(out_path / "model.saqm", encoded)
    write_json(out_path / "model.json", {"spec": fspec.to_json(),
                                         "standardizer": scaler.to_json(),
                                         "f_a": f_a, "tool_version": __version__})
    clamps = {e.name: e.encoding.clamp_count for e in encoded.layers()}
    config = {"model": str(model), "data": str(data) if data else None,
              "n_terms": n_terms, "bits": bits, "frac_bits": frac_bits,
              "int_bits": int_bits, "f_a": f_a}
    _result_doc(out, "quantize", config,
                {"sweep": table, "clamp_counts": clamps,
                 "compression": compression_report(fspec, n_terms, bits)})
    click.echo(f"wrote {out_path / 'model.saqm'}")


@main.command()
@click.option("--model", type=click.Path(exists=True), required=True)
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--n", "n_terms", type=int, default=3, show_default=True)
@click.option("--frac-bits", type=int, default=16, show_default=True)
@click.option("--int-bits", type=int, default=2, show_default=True)
@click.option("--out", "-o", type=click.Path(), required=True)
@_fail_on_error
def encode(model, data, n_terms, frac_bits, int_bits, out):
    """Sweep the offset-encoding width 1..8 bits at a fixed term count."""
    spec, params, scaler, _ = _load_model_dir(model)
    fspec, fparams = fold_model_batchnorm(spec, params)
    q = shift_quantize_model(fspec, fparams, n_terms, frac_bits, int_bits)
    frames = labels = None
    if data:
        ds = ingest_dataset(data)
        frames, labels = scaler.apply(ds.frames), ds.labels
    table = []
    for bits in range(1, 9):
        encoded = encode_model(q, bits)
        clamps = {e.name: e.encoding.clamp_count for e in encoded.layers()}
        row = {"bits": bits, "clamp_counts": clamps, "lossless": not any(clamps.values())}
        if frames is not None:
            acc = evaluate_accuracy(fspec, dequantize_model(decoded_model(encoded)),
                                    frames, labels)
            row["accuracy"] = acc
            click.echo(f"bits={bits}: accuracy {acc:.4f} lossless={row['lossless']}")
        table.append(row)
    config = {"model": str(model), "data": str(data) if data else None,
              "n_terms": n_terms, "frac_bits": frac_bits, "int_bits": int_bits}
    _result_doc(out, "encode", config, {"sweep": table})


@main.command()
@click.option("--model", type=click.Path(exists=True), required=True)
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--engine", "engine_kind", type=click.Choice(["shift-add", "float"]),
              default="shift-add", show_default=True)
@click.option("--out", "-o", type=click.Path(), required=True)
@_fail_on_error
def infer(model, data, engine_kind, out):
    """Run inference over a dataset; writes per-frame text records."""
    ds = ingest_dataset(data)
    out_path = Path(out)
    out_path.mkdir(parents=True, exist_ok=True)
    config = {"model": str(model), "data": str(data), "engine": engine_kind}
    if engine_kind == "shift-add":
        _, qmodel, scaler, _ = _load_model_dir(model, quantized=True)
        config["f_a"] = qmodel.f_a
        engine = ShiftAddEngine(qmodel)

        def run_one(frame):
            res = engine.forward(frame)
            return [str(int(v)) for v in res.logits], res.argmax, res.total_saturations
    else:
        spec, params, scaler, _ = _load_model_dir(model)

        def run_one(frame):
            logits = model_forward(spec, params, frame)
            return [repr(float(v)) for v in logits], int(np.argmax(logits)), 0
    records = []
    correct = 0
    for ident, label, frame in zip(ds.ids, ds.labels, scaler.apply(ds.frames)):
        values, argmax, saturations = run_one(frame)
        records.append(f"{ident},{','.join(values)},{argmax},{saturations}")
        correct += int(argmax == label)
    atomic_write_text(out_path / "records.txt", "".join(f"{line}\n" for line in records))
    accuracy = correct / max(1, len(ds.ids))
    _result_doc(out, "infer", config,
                {"samples": len(ds.ids), "accuracy": accuracy,
                 "records": str(out_path / "records.txt")})
    click.echo(f"accuracy {accuracy:.4f} over {len(ds.ids)} frames")


@main.command()
@click.option("--model", type=click.Path(exists=True), required=True)
@click.option("--frame", "frame_path", type=click.Path(exists=True), required=True,
              help="A single DVSF sample file.")
@click.option("--engine", "engine_kind", type=click.Choice(["shift-add", "float"]),
              default="shift-add", show_default=True)
@click.option("--clock-mhz", type=float, default=303.0, show_default=True)
@click.option("--out", "-o", type=click.Path(), required=True)
@_fail_on_error
def simulate(model, frame_path, engine_kind, clock_mhz, out):
    """Stream one frame through the pipelined line-buffer simulator."""
    frame, _label = read_sample(frame_path)
    if engine_kind == "shift-add":
        _, qmodel, scaler, _ = _load_model_dir(model, quantized=True)
        result = stream_quantized_forward(qmodel, scaler.apply(frame)[None, :, :])
    else:
        spec, params, scaler, _ = _load_model_dir(model)
        result = stream_float_forward(spec, params, scaler.apply(frame)[None, :, :])
    report = throughput_report(result.modeled_cycles, clock_mhz * 1e6)
    config = {"model": str(model), "frame": str(frame_path), "engine": engine_kind,
              "clock_mhz": clock_mhz}
    results = {
        "logits": [float(v) for v in result.logits],
        "argmax": result.argmax,
        "modeled_cycles": result.modeled_cycles,
        "modeled_throughput": report.to_json(),
        "saturations": result.saturations,
        "stages": [dataclasses.asdict(s) for s in result.stages],
    }
    _result_doc(out, "simulate", config, results)
    click.echo(f"argmax {result.argmax}, modeled cycles {result.modeled_cycles}")


def _format_fiber(meters: float) -> str:
    return f"{meters:.0f} m" if float(meters).is_integer() else f"{meters:.1f} m"


@main.command()
@click.option("--n", "n_terms", type=int, default=3, show_default=True)
@click.option("--bits", type=int, default=3, show_default=True)
@click.option("--cycles", type=int, default=DEFAULT_CYCLES, show_default=True)
@click.option("--clock-mhz", type=float, default=DEFAULT_CLOCK_HZ / 1e6, show_default=True)
@click.option("--frame-s", type=float, default=DEFAULT_FRAME_PERIOD_S, show_default=True)
@click.option("--span-m", type=float, default=DEFAULT_FRAME_SPAN_M, show_default=True)
@click.option("--rounding", type=click.Choice(["paper", "exact"]), default="paper",
              show_default=True)
@click.option("--out", "-o", type=click.Path(), default=None)
@_fail_on_error
def report(n_terms, bits, cycles, clock_mhz, frame_s, span_m, rounding, out):
    """Print the compression and throughput tables."""
    spec = default_student_spec()
    counts = count_report(spec)
    compression = compression_report(spec, n_terms, bits)
    tput = throughput_report(cycles, clock_mhz * 1e6, frame_s, span_m, rounding)
    click.echo(f"parameters: {counts['param_count']}")
    click.echo(f"stored bits per weight: {compression['stored_bits_per_weight']} "
               f"(baseline {compression['baseline_bits']})")
    click.echo(f"compression ratio: {compression['ratio_percent']:g}%")
    if compression["compression_lost"]:
        click.echo("warning: ratio exceeds 100%, storage grew")
    ms = tput.inference_time_s * 1e3
    if rounding == "paper":
        click.echo(f"inference time: {ms:.3f} ms")
    else:
        click.echo(f"inference time: {ms * 1e3:.3f} us")
    click.echo(f"frames per period: {tput.frames_per_period}")
    click.echo(f"real-time fiber length: {_format_fiber(tput.realtime_fiber_m)}")
    config = {"n_terms": n_terms, "bits": bits, "cycles": cycles,
              "clock_mhz": clock_mhz, "frame_s": frame_s, "span_m": span_m,
              "rounding": rounding}
    _result_doc(out, "report", config,
                {"counts": counts, "compression": compression,
                 "throughput": tput.to_json()})


@main.command("export-features")
@click.option("--model", type=click.Path(exists=True), required=True)
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--layer", default="flatten", show_default=True)
@click.option("--out", "-o", type=click.Path(), required=True)
@_fail_on_error
def export_features_cmd(model, data, layer, out):
    """Export one feature row per sample from a named layer."""
    spec, params, scaler, _ = _load_model_dir(model)
    ds = ingest_dataset(data)
    out_path = Path(out)
    out_path.mkdir(parents=True, exist_ok=True)
    export_features(spec, params, scaler.apply(ds.frames), ds.labels, ds.ids,
                    layer=layer, path=out_path / "features.csv")
    config = {"model": str(model), "data": str(data), "layer": layer}
    _result_doc(out, "export-features", config,
                {"rows": len(ds.ids), "file": str(out_path / "features.csv")})
    click.echo(f"wrote {out_path / 'features.csv'}")


if __name__ == "__main__":
    main()
