"""scdkit benchmark: one workload (or all four) as a closed loop.

    python3 perfbench/run.py --workload train_64 --seed 1 --seconds 15 --trace 0

Prints every metric by name with its unit, the operations attempted and
failed, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
separate traced run and writes its spans to
``perfbench/out/<workload>/spans.csv``. ``--workload all`` runs the four
workloads in one process and ends with one combined JSON line whose metric
names are prefixed by the workload.

The BLAS thread count is pinned to 1 before numpy is imported: checkpoint
bytes and timings depend on it, so results at another count are not
comparable.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# One BLAS thread: on a 2-CPU machine a second thread made run-to-run
# spreads about half again as wide for the same speed.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)
if "numpy" in sys.modules:
    raise SystemExit("numpy was imported before the BLAS thread count was pinned")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402


def _import_scdkit():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "scdkit", "__init__.py")):
        print(f"error: no scdkit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import scdkit
    if os.path.dirname(os.path.abspath(scdkit.__file__)) != os.path.join(src, "scdkit"):
        print(f"error: imported scdkit from {scdkit.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": THREADS, "nproc": NPROC}


def run_one(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    import harness
    import oracles
    from layers import self_ms_by_layer

    out_root = os.path.join(HERE, "out")
    try:
        outcome = harness.run(name, seed, seconds, trace, out_root)
    except oracles.CheckFailed as exc:
        print(f"{name}: correctness check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    out_dir = os.path.join(out_root, name)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
              "checks": outcome.checks, "details": outcome.details}
    if outcome.tracer is not None:
        outcome.tracer.write(os.path.join(out_dir, "spans.csv"))
        phase = "eval" if name == "eval_64" else "step"
        units = outcome.metrics["trace.units"][0]
        record["self_ms_by_layer"] = self_ms_by_layer(outcome.tracer, phase, int(units))
    with open(os.path.join(out_dir, f"result-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, (value, unit) in outcome.metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  attempted = {outcome.attempted}, failed = {outcome.failed}")
    return {"correct": True, "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_64", "train_256", "eval_64", "ablate_64", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_scdkit()
    sys.path.insert(0, HERE)
    import harness

    env = environment()
    print("env " + json.dumps(env))
    names = harness.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), env)
               for name in names}
    if args.workload == "all":
        for name, result in results.items():
            print(json.dumps(dict(workload=name, **result)))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
