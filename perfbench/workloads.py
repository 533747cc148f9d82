"""The benchmark's three workloads, each a closed loop with one client.

A workload sets itself up as the matching CLI command does before its first
item, runs one item per call, and checks every output. ``traced`` runs the
same item as a chain of public calls wrapped in spans; ``metrics`` turns the
spans into the per-layer figures. Spans are recorded here, around calls into
the program, and never inside it.
"""
from __future__ import annotations

import json
import tracemalloc
from contextlib import nullcontext

import numpy as np

from shiftadd_dvs.dataset import ingest_dataset, read_sample
from shiftadd_dvs.encoding import decoded_model, encode_model
from shiftadd_dvs.engine import ShiftAddEngine, quantize_frame
from shiftadd_dvs.errors import NumericError
from shiftadd_dvs.grads import backward_batch, batch_loss, forward_batch, update_running_stats
from shiftadd_dvs.losses import KDConfig, kd_logit_gradient, kd_loss
from shiftadd_dvs.model import (
    ConvSpec,
    DenseSpec,
    ModelSpec,
    PoolLayerSpec,
    default_student_spec,
    fold_model_batchnorm,
    init_params,
    param_arrays,
    set_param_arrays,
)
from shiftadd_dvs.optim import OptimizerState, adam_update
from shiftadd_dvs.quantize import shift_quantize_model
from shiftadd_dvs.rng import stream
from shiftadd_dvs.sacw import load_weights
from shiftadd_dvs.saqm import load_quantized, save_quantized
from shiftadd_dvs.stream import LineBuffer, stream_quantized_forward
from shiftadd_dvs.training import Standardizer, load_teacher_logits

from .inputs import CODE_BITS, F_A, FRAC_BITS, INT_BITS, N_TERMS
from .oracle import IntegerOracle, logits_match, loss_ok

MIB = float(1 << 20)
KD = KDConfig(alpha=0.1, temperature=5.0)
LEARNING_RATE = 1e-3
BN_MOMENTUM = 0.1


def no_span(name, item=None):
    return nullcontext()


def _read_model_doc(directory):
    doc = json.loads((directory / "model.json").read_text(encoding="utf-8"))
    return doc, ModelSpec.from_json(doc["spec"]), Standardizer.from_json(doc["standardizer"])


def _geometry(spec: ModelSpec):
    """(layer, input shape, output shape) along the layer chain."""
    shapes = [spec.input_shape] + spec.layer_shapes()
    return list(zip(spec.layers, shapes[:-1], shapes[1:]))


class InferBatch:
    """``infer --engine shift-add``: ``ShiftAddEngine.forward`` on one frame per item."""

    name = "infer-batch"
    root_span = "engine.frame"
    cheap_setup = False
    samples_per_item = 1

    def __init__(self, inputs, work_dir):
        self.inputs = inputs
        self.saqm_path = work_dir / "infer-setup.saqm"
        self.saturations: list[int] = []

    def setup(self, span=no_span) -> None:
        """The whole artifact chain, SACW to engine, then the frames."""
        inp = self.inputs
        with span("sacw.load"):
            _, spec, scaler = _read_model_doc(inp.model_dir)
            params = load_weights(inp.model_dir / "model.sacw", spec)
        with span("model.fold"):
            fspec, fparams = fold_model_batchnorm(spec, params)
        with span("quantize.model"):
            q = shift_quantize_model(fspec, fparams, N_TERMS, FRAC_BITS, INT_BITS, f_a=F_A)
        with span("encoding.encode"):
            encoded = encode_model(q, CODE_BITS)
        with span("saqm.save"):
            save_quantized(self.saqm_path, encoded)
        with span("saqm.load"):
            qmodel = load_quantized(self.saqm_path, fspec, f_a=F_A)
        with span("engine.build"):
            self.engine = ShiftAddEngine(qmodel)
        with span("dataset.ingest"):
            self.frames = scaler.apply(ingest_dataset(inp.infer_dir).frames)

    def prepare_checks(self) -> list[tuple[str, bool]]:
        oracle = IntegerOracle(self.inputs.encoded)
        self.expected = [oracle.logits(frame)[0] for frame in self.frames]
        same_file = self.saqm_path.read_bytes() == (self.inputs.quant_dir / "model.saqm").read_bytes()
        chain = all(np.array_equal(self._chain(f)[0], self.engine.forward(f).logits)
                    for f in self.frames[:2])
        return [("infer.saqm_rebuilt_identical", same_file),
                ("infer.layer_chain_equals_forward", chain)]

    def run(self, k: int):
        return self.engine.forward(self.frames[k % len(self.frames)]).logits

    def _chain(self, frame, span=no_span):
        """The forward as ``quantize_frame`` and one ``layer_forward`` call per layer."""
        engine = self.engine
        saturations = 0
        with span("engine.quantize_frame"):
            x = quantize_frame(frame, engine.f_a)
        for layer in engine.spec.layers:
            label = "engine.pool" if isinstance(layer, PoolLayerSpec) else f"engine.{layer.name}"
            with span(label):
                x, count = engine.layer_forward(layer.name, x)
            saturations += count
        return x, saturations

    def traced(self, k: int, tracer):
        with tracer.span(self.root_span, k):
            logits, saturations = self._chain(self.frames[k % len(self.frames)], tracer.span)
        self.saturations.append(saturations)
        return logits

    def check(self, k: int, logits) -> bool:
        return logits_match(logits, self.expected[k % len(self.expected)])

    def shift_adds(self) -> int:
        """Term x output-position shift-adds per frame in the loaded model."""
        total = 0
        for (layer, _, out_shape), entry in zip(_geometry(self.engine.spec), self.engine.qmodel.entries):
            if entry is None:
                continue
            terms = sum(p.term_count for p in entry.weights)
            positions = out_shape[1] * out_shape[2] if isinstance(layer, ConvSpec) else 1
            total += terms * positions
        return total

    def alloc_mb(self) -> dict[str, float]:
        """tracemalloc peak of each conv layer call on one frame, in MiB."""
        out = {}
        tracemalloc.start()
        try:
            x = quantize_frame(self.frames[0], self.engine.f_a)
            for layer in self.engine.spec.layers:
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                x, _ = self.engine.layer_forward(layer.name, x)
                _, peak = tracemalloc.get_traced_memory()
                if isinstance(layer, ConvSpec):
                    out[f"engine.{layer.name}_alloc_mb"] = (peak - before) / MIB
        finally:
            tracemalloc.stop()
        return out

    def pieces(self) -> list[str]:
        """Span names that together make up a traced item."""
        return ["engine.quantize_frame", "engine.pool"] + [
            f"engine.{layer.name}" for layer in self.engine.spec.layers
            if isinstance(layer, (ConvSpec, DenseSpec))]

    def metrics(self, tracer) -> dict[str, tuple[float, str]]:
        m = {f"{piece}_ms": (tracer.median_ms(piece), "ms") for piece in self.pieces()}
        compute_ms = sum(m[f"{piece}_ms"][0] for piece in self.pieces()[2:])
        shift_adds = self.shift_adds()
        m["engine.shift_adds"] = (shift_adds, "count")
        m["engine.ns_per_shift_add"] = (compute_ms * 1e6 / shift_adds, "ns")
        m["engine.saturations"] = (float(np.median(self.saturations)), "count")
        m.update({k: (v, "MiB") for k, v in self.alloc_mb().items()})
        return m


def drive_line_buffers(spec: ModelSpec) -> None:
    """Step a fresh ``LineBuffer`` over every window stage's padded geometry,
    virtual padding elements included, as the simulator feeds it."""
    for layer, in_shape, _ in _geometry(spec):
        if isinstance(layer, ConvSpec):
            window, pad = layer.kernel, layer.padding
        elif isinstance(layer, PoolLayerSpec):
            window, pad = layer.window, 0
        else:
            continue
        c, h, w = in_shape
        buf = LineBuffer(c, w + 2 * pad, window, layer.stride, dtype=np.int64)
        zero = np.zeros(c, dtype=np.int64)
        for r in range(h + 2 * pad):
            edge_row = r < pad or r >= h + pad
            for col in range(w + 2 * pad):
                buf.step(zero, virtual=edge_row or col < pad or col >= w + pad)


class StreamSim:
    """``simulate``: ``stream_quantized_forward`` on the SAQM-loaded model, one frame per item."""

    name = "stream-sim"
    root_span = "stream.frame"
    cheap_setup = False
    samples_per_item = 1

    def __init__(self, inputs, work_dir):
        self.inputs = inputs
        self.simulated = None

    def setup(self, span=no_span) -> None:
        inp = self.inputs
        with span("saqm.load"):
            doc, spec, scaler = _read_model_doc(inp.quant_dir)
            self.qmodel = load_quantized(inp.quant_dir / "model.saqm", spec, f_a=doc["f_a"])
        with span("dataset.ingest"):
            paths = sorted((inp.infer_dir / "samples").glob("*.dvsf"))
            self.frames = [scaler.apply(read_sample(p)[0])[None, :, :] for p in paths]

    def prepare_checks(self) -> list[tuple[str, bool]]:
        oracle = IntegerOracle(self.inputs.encoded)
        self.expected = [oracle.logits(frame)[0] for frame in self.frames]
        return []

    def run(self, k: int):
        return stream_quantized_forward(self.qmodel, self.frames[k % len(self.frames)])

    def traced(self, k: int, tracer):
        with tracer.span(self.root_span, k):
            return self.run(k)

    @staticmethod
    def _simulated(result) -> dict[str, tuple[int, str]]:
        stats = {"stream.modeled_cycles": (result.modeled_cycles, "cycles"),
                 "stream.events": (sum(s.padded_elements_in for s in result.stages), "events")}
        stats.update({f"stream.{s.name}.peak_occupancy": (s.peak_occupancy, "elements")
                      for s in result.stages})
        return stats

    def check(self, k: int, result) -> bool:
        """Logits equal the oracle's, and the simulated counts equal the first item's."""
        stats = self._simulated(result)
        if self.simulated is None:
            self.simulated = stats
        return logits_match(result.logits, self.expected[k % len(self.expected)]) \
            and stats == self.simulated

    def pieces(self) -> list[str]:
        return ["stream.frame"]

    def metrics(self, tracer) -> dict[str, tuple[float, str]]:
        """Per-layer figures; first times the decode and line-buffer pieces into ``tracer``."""
        for rep in range(3):
            with tracer.span("stream.decode", ("side", rep)):
                decoded_model(self.qmodel)
            with tracer.span("stream.linebuffer", ("side", rep)):
                drive_line_buffers(self.qmodel.spec)
        frame_ms = tracer.median_ms("stream.frame")
        m = {"stream.frame_ms": (frame_ms, "ms"),
             "stream.decode_ms": (tracer.median_ms("stream.decode"), "ms"),
             "stream.linebuffer_ms": (tracer.median_ms("stream.linebuffer"), "ms")}
        m.update(self.simulated)
        m["stream.host_us_per_event"] = (frame_ms * 1e3 / self.simulated["stream.events"][0], "us")
        return m


class TrainDistill:
    """``distill``: float32 minibatch steps of the student against fixed teacher logits."""

    name = "train-distill"
    root_span = "train.step"
    cheap_setup = True

    def __init__(self, inputs, work_dir):
        self.inputs = inputs
        self.samples_per_item = inputs.sizes.batch
        self.cache_mb = None

    def setup(self, span=no_span) -> None:
        inp = self.inputs
        with span("dataset.ingest"):
            ds = ingest_dataset(inp.train_dir)
        with span("training.teacher_load"):
            table = load_teacher_logits(inp.teacher_path, expected_ids=ds.ids, class_count=3)
            self.teacher = np.stack([table[i] for i in ds.ids])
        scaler = Standardizer.fit(ds.frames)
        self.x = scaler.apply(ds.frames).astype(np.float32)
        self.labels, self.ids = ds.labels, ds.ids
        self.spec = default_student_spec()
        with span("model.init"):
            self.params = init_params(self.spec, stream(inp.seed, "init"), dtype=np.float32)
        self.opt = OptimizerState(lr=LEARNING_RATE)
        self.order = stream(inp.seed, "batch_order")
        self.perm, self.cursor = None, 0

    def _next_batch(self):
        if self.perm is None or self.cursor >= len(self.perm):
            self.perm, self.cursor = self.order.permutation(self.x.shape[0]), 0
        take = self.perm[self.cursor:self.cursor + self.samples_per_item]
        self.cursor += self.samples_per_item
        return (self.x[take], self.labels[take], self.teacher[take], [self.ids[i] for i in take])

    def _update(self, grads, caches, span=no_span) -> None:
        with span("optim.adam"):
            arrays = param_arrays(self.spec, self.params)
            set_param_arrays(self.spec, self.params, adam_update(arrays, grads, self.opt))
        with span("grads.running_stats"):
            update_running_stats(self.spec, self.params, caches, momentum=BN_MOMENTUM)

    def run(self, k: int):
        """One step as ``train_model`` takes it."""
        x, labels, teacher, ids = self._next_batch()
        loss, grads, _, caches = batch_loss(self.spec, self.params, x, labels, teacher_logits=teacher,
                                            kd=KD, training=True, sample_ids=ids)
        self._update(grads, caches)
        return loss

    def _loss_and_grads(self, x, labels, teacher, ids, span=no_span):
        """``batch_loss`` taken apart at its public calls."""
        with span("grads.forward"):
            logits, caches = forward_batch(self.spec, self.params, x, training=True)
        with span("losses.kd"):
            b = logits.shape[0]
            losses = np.empty(b)
            dlogits = np.empty_like(logits)
            for i in range(b):
                if not np.all(np.isfinite(logits[i])):
                    losses[i], dlogits[i] = np.nan, 0.0
                    continue
                losses[i] = kd_loss(logits[i], teacher[i], int(labels[i]), KD)
                dlogits[i] = kd_logit_gradient(logits[i], teacher[i], int(labels[i]), KD)
            if not np.all(np.isfinite(losses)):
                bad = int(np.flatnonzero(~np.isfinite(losses))[0])
                raise NumericError(f"non-finite loss for sample {ids[bad]!r}")
        with span("grads.backward"):
            grads = backward_batch(self.spec, self.params, caches, dlogits / b)
        return float(losses.mean()), grads, caches

    def traced(self, k: int, tracer):
        with tracer.span(self.root_span, k):
            x, labels, teacher, ids = self._next_batch()
            loss, grads, caches = self._loss_and_grads(x, labels, teacher, ids, tracer.span)
            self._update(grads, caches, tracer.span)
        return loss

    def prepare_checks(self) -> list[tuple[str, bool]]:
        """The decomposed step's loss and gradients equal ``batch_loss``'s, bit for bit."""
        x, labels, teacher, ids = self._next_batch()
        loss, grads, _, _ = batch_loss(self.spec, self.params, x, labels, teacher_logits=teacher,
                                       kd=KD, training=True, sample_ids=ids)
        loss2, grads2, caches = self._loss_and_grads(x, labels, teacher, ids)
        same = loss == loss2 and grads.keys() == grads2.keys() and all(
            np.array_equal(grads[k], grads2[k]) for k in grads)
        self.cache_mb = sum(
            v.nbytes for cache in caches for part in (cache, cache.get("bn", {}))
            for v in part.values() if isinstance(v, np.ndarray)) / MIB
        return [("train.decomposed_grads_equal_batch_loss", bool(same))]

    def check(self, k: int, loss) -> bool:
        return loss_ok(loss)

    def forward_macs(self) -> int:
        """Multiply-accumulates of one sample's forward pass, from layer shapes."""
        macs = 0
        for layer, in_shape, out_shape in _geometry(self.spec):
            if isinstance(layer, ConvSpec):
                macs += int(np.prod(out_shape)) * in_shape[0] * layer.kernel[0] * layer.kernel[1]
            elif isinstance(layer, DenseSpec):
                macs += out_shape[0] * in_shape[0]
        return macs

    def pieces(self) -> list[str]:
        return ["grads.forward", "losses.kd", "grads.backward", "optim.adam", "grads.running_stats"]

    def metrics(self, tracer) -> dict[str, tuple[float, str]]:
        m = {f"{piece}_ms": (tracer.median_ms(piece), "ms") for piece in self.pieces()}
        # Computed, not counted: 2 flops per MAC, backward taken as twice the forward.
        flops = 6 * self.forward_macs() * self.samples_per_item
        pass_s = (m["grads.forward_ms"][0] + m["grads.backward_ms"][0]) / 1e3
        m["grads.gflops_per_s"] = (flops / pass_s / 1e9, "GFLOP/s")
        m["grads.cache_mb"] = (self.cache_mb, "MiB")
        return m


WORKLOADS = {w.name: w for w in (InferBatch, StreamSim, TrainDistill)}

# Set-up layers, and the workloads whose set-up contains each, in the order
# the traced run looks for them.
SETUP_LAYERS = {
    "sacw.load": ("infer-batch",),
    "model.fold": ("infer-batch",),
    "quantize.model": ("infer-batch",),
    "encoding.encode": ("infer-batch",),
    "saqm.save": ("infer-batch",),
    "saqm.load": ("infer-batch", "stream-sim"),
    "dataset.ingest": ("infer-batch", "stream-sim", "train-distill"),
    "model.init": ("train-distill",),
    "training.teacher_load": ("train-distill",),
    "engine.build": ("infer-batch",),
}
