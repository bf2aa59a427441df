"""Per-layer metrics from a traced run.

Times are milliseconds per unit: per optimiser step on the training
workloads (spans inside the step) and per eval batch on ``eval_64`` (spans
inside ``train.evaluate``). ``fwd_ms`` is self time, the span minus its
child spans; ``fwd_total_ms`` is the inclusive time of the layer's
outermost spans. The exceptions are listed in the README: per call for
predict, accumulate, collate and checkpoint saves, per set-up for
generate, load_dataset and checkpoint loads, and run totals for
``optim.rotate_steps`` and ``trace.units``. A layer that does not run on
a workload reports 0.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import (ELEMENTWISE, OPS_MAIN, OPS_OTHER, STEP, TAPE_ELEMENTWISE,
                     TENSOR_OTHER)

MIB = 2.0 ** 20
MODULE_LAYERS = ("backbone", "interaction", "fusion", "heads", "graphproto")
_OPS_TAPE = set(OPS_MAIN) | {"channel_affine"}
PREDICT = "model.ChangeDetectionModel.predict"


def layer_of(name: str) -> str:
    head, _, rest = name.partition(".")
    if head == "bwd":
        return "ops" if rest in _OPS_TAPE else "tensor"
    if name == STEP:
        return "step"
    return head


def aggregate(spans):
    """Per (phase, name): call count, inclusive ns, self ns, and inclusive ns
    of the spans whose parent belongs to another layer."""
    calls, dur, self_ns, outer = Counter(), defaultdict(int), defaultdict(int), defaultdict(int)
    for _, _, name, parent, phase, start, end, own in spans:
        key = (phase, name)
        calls[key] += 1
        dur[key] += end - start
        self_ns[key] += own
        if layer_of(parent) != layer_of(name):
            outer[key] += end - start
    return calls, dur, self_ns, outer


def self_ms_by_layer(tracer, phase: str, units: int) -> dict[str, float]:
    _, _, self_ns, _ = aggregate(tracer.spans)
    out: dict[str, float] = defaultdict(float)
    for (p, name), ns in self_ns.items():
        if p == phase:
            out[layer_of(name)] += ns / 1e6 / max(units, 1)
    return dict(sorted(out.items()))


def layer_metrics(tracer, unit_phase: str, setups: int) -> dict[str, tuple[float, str]]:
    calls, dur, self_ns, outer = aggregate(tracer.spans)
    counters = tracer.counters
    p = unit_phase
    if p == "step":
        units, unit_span = calls[(p, STEP)], STEP
    else:
        units, unit_span = calls[(p, PREDICT)], "train.evaluate"
    n = max(units, 1)

    def ms(table, names, phase=p, per=n):
        return sum(table[(phase, name)] for name in names) / 1e6 / per

    def per_call(name, phases):
        count = sum(calls[(ph, name)] for ph in phases)
        return sum(dur[(ph, name)] for ph in phases) / 1e6 / count if count else 0.0

    def in_layer(layer):
        return [name for (ph, name) in calls if ph == p and layer_of(name) == layer]

    m: dict[str, tuple[float, str]] = {}
    m["tensor.tape_entries"] = (counters[(p, "tensor.tape_entries")] / n, "count")
    m["tensor.backward_passes"] = (calls[(p, "tensor.backward")] / n, "count")
    m["tensor.backward_self_ms"] = (ms(self_ns, ["tensor.backward"]), "ms")
    m["tensor.elementwise.fwd_ms"] = (ms(self_ns, [f"tensor.{f}" for f in ELEMENTWISE]), "ms")
    m["tensor.elementwise.bwd_ms"] = (ms(self_ns, [f"bwd.{f}" for f in TAPE_ELEMENTWISE]), "ms")
    m["tensor.other.fwd_ms"] = (ms(self_ns, [f"tensor.{f}" for f in TENSOR_OTHER]), "ms")
    m["tensor.other.bwd_ms"] = (ms(self_ns, [f"bwd.{f}" for f in TENSOR_OTHER]), "ms")
    for op in OPS_MAIN:
        m[f"ops.{op}.fwd_ms"] = (ms(self_ns, [f"ops.{op}"]), "ms")
        m[f"ops.{op}.bwd_ms"] = (ms(self_ns, [f"bwd.{op}"]), "ms")
        m[f"ops.{op}.calls"] = (calls[(p, f"ops.{op}")] / n, "count")
    m["ops.conv2d.gflop"] = (counters[(p, "ops.conv2d.flop")] / 1e9 / n, "GFLOP")
    m["ops.conv2d.im2col_mib"] = (counters[(p, "ops.conv2d.im2col_bytes")] / MIB / n, "MiB")
    m["ops.bilinear_resize.identity_calls"] = (
        counters[(p, "ops.bilinear_resize.identity_calls")] / n, "count")
    m["ops.other.fwd_ms"] = (ms(self_ns, [f"ops.{op}" for op in OPS_OTHER]), "ms")
    m["ops.other.bwd_ms"] = (ms(self_ns, ["bwd.channel_affine"]), "ms")
    m["nn.fwd_ms"] = (ms(self_ns, in_layer("nn")), "ms")
    for layer in MODULE_LAYERS:
        names = in_layer(layer)
        m[f"{layer}.fwd_ms"] = (ms(self_ns, names), "ms")
        m[f"{layer}.fwd_total_ms"] = (ms(outer, names), "ms")
    m["heads.loss_ms"] = (ms(dur, ["heads.seg_loss", "heads.change_loss"]), "ms")

    gapl_calls = calls[(p, "graphproto.GaplBranch")]
    m["graphproto.nodes"] = (float(tracer.maxima.get("graphproto.nodes", 0)), "count")
    m["graphproto.n_active"] = (
        counters[(p, "graphproto.n_active")] / gapl_calls if gapl_calls else 0.0, "count")
    m["graphproto.pairwise_mib"] = (counters[(p, "graphproto.pairwise_bytes")] / MIB / n, "MiB")

    rotations = counters[(p, "optim.rotate_calls")]
    m["optim.rotate_ms"] = (ms(dur, ["optim.rotate_gradients"]), "ms")
    m["optim.conflict_steps"] = (
        counters[(p, "optim.conflicts")] / rotations if rotations else 0.0, "ratio")
    m["optim.rotate_steps"] = (float(rotations), "count")
    m["optim.adam_ms"] = (ms(dur, ["optim.Adam.step"]), "ms")
    m["optim.merge_ms"] = (ms(dur, ["optim.UncertaintyWeights.merge"]), "ms")

    m["model.forward_losses_ms"] = (ms(dur, ["model.ChangeDetectionModel.forward_losses"]), "ms")
    m["train.combined_step_ms"] = (ms(dur, ["train._combined_step"]), "ms")
    m["model.predict_ms"] = (per_call(PREDICT, ["eval"]), "ms")
    m["metrics.accumulate_ms"] = (per_call("metrics.ConfusionMatrix.accumulate", ["eval"]), "ms")
    m["data.collate_ms"] = (per_call("data.collate", ["train", "eval"]), "ms")
    m["data.generate_ms"] = (ms(dur, ["data.generate"], "setup", setups), "ms")
    m["data.load_dataset_ms"] = (ms(dur, ["data.load_dataset"], "setup", setups), "ms")
    m["serialize.save_ms"] = (per_call("serialize.save_checkpoint", ["train"]), "ms")
    m["serialize.load_ms"] = (ms(dur, ["serialize.load_checkpoint"], "setup", setups), "ms")

    unit_spans = [end - start for _, _, name, _, phase, start, end, _ in tracer.spans
                  if name == unit_span and phase == p]
    per_span = units / len(unit_spans) if unit_spans else 1
    m["trace.units"] = (float(units), "count")
    m["trace.unit_ms"] = (ms(dur, [unit_span]), "ms")
    m["trace.unit_median_ms"] = (
        statistics.median(unit_spans) / 1e6 / per_span if unit_spans else 0.0, "ms")
    m["trace.unit_self_ms"] = (ms(self_ns, [unit_span]), "ms")
    return m
