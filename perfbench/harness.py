"""The four workloads: set-up, timed rounds, correctness checks, metrics.

Every workload is a closed loop: one caller runs whole rounds back to back
and waits for each. A round is the same work every time:

* ``train_64`` / ``train_256``: one ``train.train_model`` call on a fresh
  model, with a run directory (per-epoch ``history.csv`` row, checkpoint
  write and evaluation, as ``scdkit train`` does).
* ``ablate_64``: the five-variant sweep of ``scdkit ablate``, one
  ``train_model`` call per variant.
* ``eval_64``: one ``train.evaluate`` call over the whole scored set.

Scenes come from ``data.generate`` with a scene seed derived from the
benchmark seed; the model and training seeds are fixed at 0, so within one
invocation every round of a workload does bit-identical arithmetic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import os
import shutil
import statistics
import time
import tracemalloc

import numpy as np

from scdkit import data, optim, serialize, train
from scdkit import model as model_mod
from scdkit.data import SceneSpec, collate
from scdkit.errors import ScdkitError
from scdkit.metrics import ConfusionMatrix
from scdkit.model import ChangeDetectionModel, ModelConfig

import oracles
import tracing
from layers import layer_metrics

SETUP_REPEATS = 9
MIB = 2.0 ** 20

VARIANTS = {"full": {}, "no-gapl": {"use_gapl": False},
            "no-sqmlfi": {"use_sqmlfi": False}, "no-btff": {"use_btff": False},
            "no-mto": {"use_mto": False}}


@dataclasses.dataclass(frozen=True)
class TrainSpec:
    size: int
    scenes: int
    batch: int
    epochs: int
    lr: float
    variants: tuple[str, ...]

    @property
    def steps_per_round(self) -> int:
        return len(self.variants) * self.epochs * math.ceil(self.scenes / self.batch)


TRAIN = {
    # ROADMAP reference step: per-op Python and tape overhead matter here
    "train_64": TrainSpec(64, 16, 4, 2, 3e-3, ("full",)),
    # per-pixel numpy kernels and memory dominate; 128-node graphs
    "train_256": TrainSpec(256, 4, 2, 1, 3e-3, ("full",)),
    # the only workload running ConcatLevels, FusePairConcat and the two
    # non-rotating branches of the training step (criterion 6 settings)
    "ablate_64": TrainSpec(64, 16, 8, 1, 3e-3, tuple(VARIANTS)),
}
EVAL_SCENES = 32
EVAL_BATCH = 8
EVAL_FIXTURE = TrainSpec(64, 16, 8, 2, 3e-3, ("full",))
FIXTURE_REPEATS = 5

WORKLOADS = ("train_64", "train_256", "eval_64", "ablate_64")


def scene_spec(size: int, seed: int) -> SceneSpec:
    # samples use seed + index, so seeds 1000 apart never share a scene
    return SceneSpec(size=(size, size), n_classes=4, seed=1000 * seed)


def model_config(variant: str) -> ModelConfig:
    return ModelConfig(n_classes=4, base_channels=8, seed=0, **VARIANTS[variant])


@dataclasses.dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    checks: dict
    details: dict
    tracer: tracing.Tracer | None = None


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class PeakMemory:
    """tracemalloc peak over the second unit after ``arm()``: one training
    step (``forward_losses`` entry to ``Adam.step`` return) or one eval
    batch (``predict`` entry to ``ConfusionMatrix.accumulate`` return).

    Tracing starts with the first unit and the peak is reset when the
    second begins, so whatever the first unit leaves alive (such as the
    previous step's graph) counts towards the second unit's peak, as it
    does towards the process's.
    """

    def __init__(self):
        self.peaks: list[float] = []
        self._unit = 0

    def arm(self) -> None:
        self._unit = 1

    def _start(self) -> None:
        if self._unit == 1 and not tracemalloc.is_tracing():
            tracemalloc.start()
        elif self._unit == 2:
            tracemalloc.reset_peak()

    def _stop(self) -> None:
        if self._unit == 1:
            self._unit = 2
        elif self._unit == 2:
            self.peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
            tracemalloc.stop()
            self._unit = 0

    @contextlib.contextmanager
    def installed(self, for_eval: bool):
        patches = tracing.Patches()
        cls = model_mod.ChangeDetectionModel
        first, last = (cls, "predict"), (ConfusionMatrix, "accumulate")
        if not for_eval:
            first, last = (cls, "forward_losses"), (optim.Adam, "step")
        begin, finish = getattr(*first), getattr(*last)

        def started(obj, *args, **kwargs):
            self._start()
            return begin(obj, *args, **kwargs)

        def stopped(obj, *args, **kwargs):
            result = finish(obj, *args, **kwargs)
            self._stop()
            return result

        patches.set(*first, started)
        patches.set(*last, stopped)
        try:
            yield self
        finally:
            patches.restore()


@contextlib.contextmanager
def traced_as(tracer, phase: str):
    """The tracer installed and set to ``phase``; nothing when untraced."""
    if tracer is None:
        yield
        return
    with tracer.installed(), tracer.phase_as(phase):
        yield


def median_setup(setup, tracer) -> tuple[object, list[float]]:
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        # every repeat starts from a collected heap, so a full collection
        # left over from earlier work does not land in one repeat only
        state = None
        gc.collect()
        with traced_as(tracer, "setup"):
            state, dt = timed(setup)
        times.append(dt)
    return state, times


def run_rounds(seconds: float, round_fn) -> tuple[list, int]:
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    results, failed_rounds = [], 0
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        try:
            results.append(round_fn())
        except ScdkitError as exc:
            failed_rounds += 1
            results.append(exc)
        last = time.perf_counter() - t0
    return results, failed_rounds


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

def _train_round(spec: TrainSpec, samples, out_dir: str, clock, tracer):
    """One round: a fresh model per variant through ``train.train_model``."""
    calls = []
    for variant in spec.variants:
        model = ChangeDetectionModel(model_config(variant))
        run_dir = os.path.join(out_dir, variant)
        if clock is not None:
            clock.variant = variant
        with tracer.phase_as("train") if tracer is not None else contextlib.nullcontext():
            result, dt = timed(train.train_model, model, samples, epochs=spec.epochs,
                               batch_size=spec.batch, lr=spec.lr, seed=0, run_dir=run_dir)
        oracles.check_history(result["history"], result["final"])
        calls.append({"variant": variant, "model": model, "run_dir": run_dir,
                      "seconds": dt, "pairs": spec.epochs * len(samples)})
    return calls


def _run_bytes(run_dir: str) -> tuple[bytes, bytes]:
    with open(os.path.join(run_dir, "history.csv"), "rb") as fh:
        history = fh.read()
    with open(os.path.join(run_dir, "checkpoint.gckpt"), "rb") as fh:
        ckpt = fh.read()
    return history, ckpt


def run_training(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    spec = TRAIN[name]
    tracer = tracing.Tracer() if trace else None
    scenes = scene_spec(spec.size, seed)

    def setup():
        samples = data.generate(scenes, spec.scenes)
        models = [ChangeDetectionModel(model_config(v)) for v in spec.variants]
        return samples, models

    (samples, _), setup_times = median_setup(setup, tracer)

    # warm-up round, untimed: rotation oracle on every call, memory peak of
    # each variant's second step, and the reference run bytes
    memory = PeakMemory()
    rotation = oracles.RotationOracle()
    warm_dir = os.path.join(out_dir, "warmup")
    warm_calls = []
    with memory.installed(for_eval=False), rotation.installed():
        for variant in spec.variants:
            memory.arm()
            warm_calls += _train_round(dataclasses.replace(spec, variants=(variant,)),
                                       samples, warm_dir, None, None)
    if len(memory.peaks) != len(spec.variants):
        raise RuntimeError("a warm-up call ran fewer than two steps")
    reference = {c["variant"]: _run_bytes(c["run_dir"]) for c in warm_calls}

    clock = tracing.Clock(tracer)
    round_dir = os.path.join(out_dir, "rounds")
    identical = {"history.csv": 0, "checkpoint.gckpt": 0}

    def one_round():
        first_eval = len(clock.evals)
        calls = _train_round(spec, samples, round_dir, clock, tracer)
        for call in calls:
            history, ckpt = _run_bytes(call["run_dir"])
            ref_history, ref_ckpt = reference[call["variant"]]
            oracles.require(history == ref_history,
                            f"{call['variant']}: history.csv differs between repeats")
            oracles.require(ckpt == ref_ckpt,
                            f"{call['variant']}: checkpoint.gckpt differs between repeats")
            identical["history.csv"] += 1
            identical["checkpoint.gckpt"] += 1
        return calls, clock.evals[first_eval:]

    with clock.installed():
        rounds, failed_rounds = run_rounds(seconds, one_round)
    good = [r for r in rounds if not isinstance(r, Exception)]
    last = good[-1][0]

    first_batch = collate(samples[:spec.batch])
    rng = np.random.default_rng([seed, 7])
    checks = {"rotation": rotation.summary(), "identical_repeats": identical,
              "directional_derivative": {}, "checkpoint_predicts": {}}
    for call in last:
        v = call["variant"]
        checks["directional_derivative"][v] = oracles.check_directional_derivative(
            call["model"], first_batch, rng)
        checks["checkpoint_predicts"][v] = oracles.check_checkpoint_predicts(
            call["model"], os.path.join(call["run_dir"], "checkpoint.gckpt"), first_batch)
    if "full" in spec.variants:
        oracles.require(rotation.calls > 0, "the rotating step never ran")

    round_pairs = [sum(c["pairs"] for c in calls) / sum(c["seconds"] for c in calls)
                   for calls, _ in good]
    eval_rates = [sum(p for p, _ in evals) / sum(s for _, s in evals) for _, evals in good]
    step_medians = {v: statistics.median(t) for v, t in clock.steps.items()}
    ckpt_path = os.path.join(last[0]["run_dir"], "checkpoint.gckpt")

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_samples_per_s": (statistics.median(round_pairs), "pairs/s"),
        "train_step_ms": (1e3 * statistics.fmean(step_medians.values()), "ms"),
        "eval_pairs_per_s": (statistics.median(eval_rates), "pairs/s"),
        "peak_mem_mib": (max(memory.peaks), "MiB"),
        "checkpoint_mib": (os.path.getsize(ckpt_path) / MIB, "MiB"),
    }
    steps = sum(len(t) for t in clock.steps.values())
    details = {
        "rounds": len(rounds), "steps": steps,
        "setup_s_samples": setup_times, "round_pairs_per_s": round_pairs,
        "eval_pairs_per_s_per_round": eval_rates,
        "step_ms_median_per_variant": {v: 1e3 * m for v, m in step_medians.items()},
        "step_ms": {v: [1e3 * s for s in t] for v, t in clock.steps.items()},
        "peak_mem_mib_per_variant": dict(zip(spec.variants, memory.peaks)),
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, "step", SETUP_REPEATS)
        details["spans"] = len(tracer.spans)
    return Outcome(metrics, attempted=spec.steps_per_round * len(rounds),
                   failed=spec.steps_per_round * failed_rounds, checks=checks,
                   details=details, tracer=tracer)


# ---------------------------------------------------------------------------
# evaluation workload
# ---------------------------------------------------------------------------

def run_eval(seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    tracer = tracing.Tracer() if trace else None
    data_dir = os.path.join(out_dir, "data")
    samples = data.generate(scene_spec(64, seed), EVAL_SCENES)
    data.save_dataset(data_dir, samples, scene_spec(64, seed))

    # the checkpoint scored here comes from a short training run, made once
    # untimed and then FIXTURE_REPEATS times timed; the timed repeats give
    # this workload's training figures and the last one the checkpoint
    fixture = EVAL_FIXTURE
    train_samples = samples[:fixture.scenes]
    _train_round(fixture, train_samples, os.path.join(out_dir, "warmup"), None, None)
    fixture_clock = tracing.Clock()
    with fixture_clock.installed():
        fixture_calls = [_train_round(fixture, train_samples, os.path.join(out_dir, "fixture"),
                                      fixture_clock, None)[0]
                         for _ in range(FIXTURE_REPEATS)]
    call = fixture_calls[-1]
    ckpt_path = os.path.join(call["run_dir"], "checkpoint.gckpt")

    def setup():
        loaded, _ = data.load_dataset(data_dir)
        restored = ChangeDetectionModel.from_checkpoint_state(
            serialize.load_checkpoint(ckpt_path))
        return loaded, restored

    (loaded, model), setup_times = median_setup(setup, tracer)

    # warm-up call, untimed: memory peak of the second batch
    memory = PeakMemory()
    memory.arm()
    with memory.installed(for_eval=True):
        warm_scores = train.evaluate(model, loaded, batch_size=EVAL_BATCH)
    if len(memory.peaks) != 1:
        raise RuntimeError("the warm-up evaluation scored fewer than two batches")

    clock = tracing.Clock(tracer)

    def one_round():
        return train.evaluate(model, loaded, batch_size=EVAL_BATCH)

    with clock.installed():
        rounds, failed_rounds = run_rounds(seconds, one_round)
    for r in rounds:
        if not isinstance(r, Exception):
            oracles.require(r == warm_scores, "evaluate scores differ between repeats")

    with oracles.captured_predictions(model) as batched:
        scores = train.evaluate(model, loaded, batch_size=EVAL_BATCH)
    checks = {
        "scores_recount": oracles.check_scores(scores, oracles.recount_scores(
            loaded, [c["maps"] for c in batched], EVAL_BATCH, model.config.n_classes)),
        "batch_independence": oracles.check_batch_independence(
            model, loaded, batched, EVAL_BATCH),
        "checkpoint_predicts": oracles.check_checkpoint_predicts(
            call["model"], ckpt_path, collate(loaded[:EVAL_BATCH])),
    }

    rates = [pairs / s for pairs, s in clock.evals]
    batches = math.ceil(EVAL_SCENES / EVAL_BATCH)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_samples_per_s": (statistics.median(c["pairs"] / c["seconds"]
                                                  for c in fixture_calls), "pairs/s"),
        "train_step_ms": (1e3 * statistics.median(fixture_clock.steps["full"]), "ms"),
        "eval_pairs_per_s": (statistics.median(rates), "pairs/s"),
        "peak_mem_mib": (memory.peaks[0], "MiB"),
        "checkpoint_mib": (os.path.getsize(ckpt_path) / MIB, "MiB"),
    }
    details = {"rounds": len(rounds), "setup_s_samples": setup_times,
               "eval_pairs_per_s_per_round": rates, "scores": warm_scores,
               "fixture_step_ms": [1e3 * s for s in fixture_clock.steps["full"]]}
    if tracer is not None:
        metrics = layer_metrics(tracer, "eval", SETUP_REPEATS)
        details["spans"] = len(tracer.spans)
    return Outcome(metrics, attempted=batches * len(rounds),
                   failed=batches * failed_rounds, checks=checks, details=details,
                   tracer=tracer)


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> Outcome:
    out_dir = os.path.join(root, name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if name == "eval_64":
        return run_eval(seed, seconds, trace, out_dir)
    return run_training(name, seed, seconds, trace, out_dir)
