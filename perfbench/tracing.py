"""Clocks and spans recorded from outside scdkit.

Every hook here replaces a public function or method of scdkit for the
duration of a ``with`` block and restores it afterwards; scdkit itself is
never edited. Two levels exist:

* :class:`Clock` (always on) times optimiser steps and evaluation calls with
  two ``perf_counter`` reads per step. End-to-end metrics come from it.
* :class:`Tracer` (``--trace 1`` only) additionally wraps the public calls
  of every scdkit module, every ``Module.__call__`` and every backward
  closure recorded on the tape, and keeps spans (name, start, end, parent)
  and counters in memory until the run ends.

A step runs from the entry of ``ChangeDetectionModel.forward_losses`` to
the return of ``Adam.step``: forward, backward pass(es), rotation and Adam.
Collation of the batch happens before it and is not part of the step.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from scdkit import model as model_mod
from scdkit import nn, optim, train
from scdkit import tensor as tensor_mod

_clock = time.perf_counter_ns

# Tape ops grouped as elementwise/reduction; every other tape op recorded
# in scdkit.tensor is "other" (matmul, structure ops, pairwise_l2).
ELEMENTWISE = ("add", "sub", "mul", "div", "neg", "affine", "relu", "sigmoid",
               "exp", "log", "sqrt", "absolute", "clamp_min", "tsum", "tmean",
               "softmax", "log_softmax", "l2_norm")
TAPE_ELEMENTWISE = ("add", "sub", "mul", "div", "neg", "affine", "relu",
                    "sigmoid", "exp", "log", "sqrt", "abs", "clamp_min", "sum",
                    "softmax", "log_softmax")
TENSOR_OTHER = ("matmul", "stack", "concat", "reshape", "transpose",
                "select_index", "pairwise_l2")
OPS_MAIN = ("conv2d", "conv_transpose2d", "bilinear_resize", "batchnorm2d")
OPS_OTHER = ("channel_affine", "channel_cosine")

# Public calls wrapped per module: (module, attribute path).
FUNCTIONS = (
    [("tensor", f) for f in ELEMENTWISE + TENSOR_OTHER + ("backward",)]
    + [("ops", f) for f in OPS_MAIN + OPS_OTHER]
    + [("heads", f) for f in ("cross_entropy", "seg_loss", "change_loss")]
    + [("graphproto", f) for f in ("median_sigma", "build_adjacency", "gcn_layer",
                                   "compute_prototypes", "affinity", "cpa_loss",
                                   "pool_confidence", "PrototypeBank.update")]
    + [("optim", f) for f in ("rotate_gradients", "flatten_arrays",
                              "unflatten_vector", "UncertaintyWeights.merge")]
    + [("model", "ChangeDetectionModel.predict"),
       ("train", "_combined_step"),
       ("metrics", "ConfusionMatrix.accumulate"), ("metrics", "scores"),
       ("data", "collate"), ("data", "generate"), ("data", "load_dataset"),
       ("serialize", "save_checkpoint"), ("serialize", "load_checkpoint")]
)

STEP = "train.step"


def _scdkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "scdkit" or name.startswith("scdkit.")) and m is not None]


class Patches:
    """Replace attributes and put every original back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, value) -> None:
        """Rebind every scdkit module global that names ``original``.

        Modules import functions by name (``from .heads import seg_loss``),
        so patching only the defining module would miss those callers.
        """
        for mod in _scdkit_modules():
            for attr, current in list(vars(mod).items()):
                if current is original:
                    self.set(mod, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class Clock:
    """Step and evaluation timings, kept per model variant.

    ``steps[variant]`` holds step durations in seconds; ``evals`` holds
    (pairs, seconds) per ``train.evaluate`` call. A tracer, when given,
    receives the step boundaries as an explicit span.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.variant = "default"
        self.steps: dict[str, list[float]] = defaultdict(list)
        self.evals: list[tuple[int, float]] = []
        self._t0 = 0

    def begin_step(self) -> None:
        if self.tracer is not None:
            self.tracer.begin(STEP, "step")
        self._t0 = _clock()

    def end_step(self) -> None:
        self.steps[self.variant].append((_clock() - self._t0) / 1e9)
        if self.tracer is not None:
            self.tracer.end()

    @contextlib.contextmanager
    def installed(self):
        patches = Patches()
        tracer = self.tracer
        clock = self
        forward_losses = model_mod.ChangeDetectionModel.forward_losses
        adam_step = optim.Adam.step
        evaluate = train.evaluate
        if tracer is not None:
            forward_losses = tracer.wrap("model.ChangeDetectionModel.forward_losses", forward_losses)
            adam_step = tracer.wrap("optim.Adam.step", adam_step)
            evaluate = tracer.wrap("train.evaluate", evaluate, phase="eval")

        def timed_forward_losses(self, *args, **kwargs):
            clock.begin_step()
            return forward_losses(self, *args, **kwargs)

        def timed_adam_step(self):
            adam_step(self)
            clock.end_step()

        def timed_evaluate(model, samples, *args, **kwargs):
            t0 = _clock()
            result = evaluate(model, samples, *args, **kwargs)
            clock.evals.append((len(samples), (_clock() - t0) / 1e9))
            return result

        patches.set(model_mod.ChangeDetectionModel, "forward_losses", timed_forward_losses)
        patches.set(optim.Adam, "step", timed_adam_step)
        patches.set(train, "evaluate", timed_evaluate)
        try:
            if tracer is not None:
                with tracer.installed():
                    yield self
            else:
                yield self
        finally:
            patches.restore()


class Tracer:
    """In-memory spans and counters.

    A span is (id, parent id, name, parent name, phase, start ns, end ns,
    self ns); self time is the duration minus the time covered by child
    spans. The phase ("setup", "train", "step" or "eval") is the one in
    force while the span was open; counters are keyed by (phase, name).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.phase = "setup"
        self._stack: list[list] = []
        self._next_id = 0

    # -- span primitives ---------------------------------------------------

    def begin(self, name: str, phase: str | None = None) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _clock(), 0, self.phase])
        if phase is not None:
            self.phase = phase

    def end(self) -> None:
        end = _clock()
        span_id, name, start, child, outer_phase = self._stack.pop()
        phase, self.phase = self.phase, outer_phase
        dur = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_id, parent_name = parent[0], parent[1]
        else:
            parent_id, parent_name = 0, ""
        self.spans.append((span_id, parent_id, name, parent_name, phase,
                           start, end, dur - child))

    def count(self, name: str, value: float = 1) -> None:
        self.counters[(self.phase, name)] += value

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, name: str, fn, phase: str | None = None, probe=None):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name, phase)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def phase_as(self, phase: str):
        outer, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = outer

    # -- installation ------------------------------------------------------

    def _wrap_backward(self, op: str, backward_fn):
        name = f"bwd.{op}"
        begin, end = self.begin, self.end

        def traced(g):
            begin(name)
            try:
                return backward_fn(g)
            finally:
                end()

        return traced

    def _probes(self):
        count, maximum = self.count, self.maximum

        def shape(x):
            return np.shape(getattr(x, "data", x))

        def conv2d(args, kwargs, out):
            b, cin, _, _ = shape(args[0])
            cout, _, k, _ = shape(args[1])
            _, _, oh, ow = out.shape
            count("ops.conv2d.flop", 2 * b * oh * ow * cout * cin * k * k)
            count("ops.conv2d.im2col_bytes", 8 * b * oh * ow * cin * k * k)

        def resize(args, kwargs, out):
            out_hw = kwargs.get("out_hw", args[1] if len(args) > 1 else None)
            if tuple(shape(args[0])[2:]) == tuple(int(v) for v in out_hw):
                count("ops.bilinear_resize.identity_calls")

        def pairwise(args, kwargs, out):
            n, d = shape(args[0])
            count("graphproto.pairwise_bytes", 8 * n * n * d)
            maximum("graphproto.nodes", n)

        def rotate(args, kwargs, out):
            a, b = np.asarray(args[0]), np.asarray(args[1])
            count("optim.rotate_calls")
            if a @ a > 0 and b @ b > 0 and a @ b < 0:
                count("optim.conflicts")

        def gapl(args, kwargs, out):
            count("graphproto.n_active", out[1]["n_active"])

        return {"ops.conv2d": conv2d, "ops.bilinear_resize": resize,
                "graphproto.median_sigma": pairwise, "tensor.pairwise_l2": pairwise,
                "optim.rotate_gradients": rotate, "graphproto.GaplBranch": gapl}

    @contextlib.contextmanager
    def installed(self):
        patches = Patches()
        probes = self._probes()
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _scdkit_modules()}
        for layer, path in FUNCTIONS:
            owner = modules[layer]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            name = f"{layer}.{path}"
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, probe=probes.get(name))
            if cls:
                patches.set(owner, attr, wrapped)
            else:
                patches.replace_everywhere(original, wrapped)

        record = tensor_mod._record
        wrap_backward, count = self._wrap_backward, self.count

        def traced_record(op, out_data, inputs, backward_fn):
            out = record(op, out_data, inputs, wrap_backward(op, backward_fn))
            if out._entry is not None:
                count("tensor.tape_entries")
            return out

        patches.replace_everywhere(record, traced_record)

        call = nn.Module.__call__
        names: dict[type, str] = {}
        begin, end = self.begin, self.end

        def traced_call(module, *args, **kwargs):
            kind = type(module)
            name = names.get(kind)
            if name is None:
                name = names[kind] = f"{kind.__module__.rsplit('.', 1)[-1]}.{kind.__name__}"
            begin(name)
            try:
                result = call(module, *args, **kwargs)
            finally:
                end()
            probe = probes.get(name)
            if probe is not None:
                probe(args, kwargs, result)
            return result

        patches.set(nn.Module, "__call__", traced_call)
        try:
            yield self
        finally:
            patches.restore()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,phase,start_ns,end_ns,self_ns\n")
            for span_id, parent, name, _, phase, start, end, self_ns in self.spans:
                fh.write(f"{span_id},{parent},{name},{phase},{start},{end},{self_ns}\n")
            for (phase, name), value in sorted(self.counters.items()):
                fh.write(f"# counter,{phase},{name},{value}\n")
            for name, value in sorted(self.maxima.items()):
                fh.write(f"# maximum,{name},{value}\n")
