"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/proof.py --workloads train_64 eval_64 --seeds 1-10 --label a
    python3 perfbench/proof.py --compare a b
    python3 perfbench/proof.py --table a

The first form runs ``run.py`` once per workload and seed (one process at
a time), keeps each run's JSON line in ``perfbench/out/proof-<label>.json``
and prints, per workload and end-to-end metric, the median of the runs,
their quartile spread ((Q3 - Q1) / median, from
``statistics.quantiles(values, n=4)``) and the metric's bound from
``BENCHMARK.json``. The second form compares two saved sets: for each
metric the second median's change against the first, in the worse
direction, as a share of the first median. The third prints a saved set's
medians as a markdown table, one row per metric and one column per
workload. The README's tables come from these commands.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def seeds_from(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workloads, seeds, trace: int, label: str) -> dict:
    spec = load_spec()
    runs: dict[str, list[dict]] = {}
    for name in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=False)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(name, []).append(dict(seed=seed, wall_s=wall, **result))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={wall:.1f}s", flush=True)
    path = os.path.join(HERE, "out", f"proof-{label}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    return runs


def spreads(runs: dict) -> dict:
    out = {}
    for name, results in runs.items():
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            out[(name, metric)] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                                   "n": len(values)}
        shares = {r["failed"] / r["attempted"] for r in results}
        out[(name, "failed_share")] = {"values": sorted(shares)}
    return out


def report(runs: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    print(f"{'workload':<10} {'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for (name, metric), row in spreads(runs).items():
        if metric == "failed_share":
            print(f"{name:<10} {'failed/attempted':<20} {row['values']}")
            continue
        bound = bounds.get(metric)
        flag = "" if bound is None or row["spread"] < bound / 3 else "  <-- above bound/3"
        print(f"{name:<10} {metric:<20} {row['median']:>12.6g} {row['spread']:>8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")


def compare(label_a: str, label_b: str) -> None:
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    sets = []
    for label in (label_a, label_b):
        with open(os.path.join(HERE, "out", f"proof-{label}.json"), encoding="utf-8") as fh:
            sets.append(spreads(json.load(fh)))
    print(f"{'workload':<10} {'metric':<20} {'median a':>12} {'median b':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for key, row_a in sets[0].items():
        name, metric = key
        if metric not in metrics or key not in sets[1]:
            continue
        a, b = row_a["median"], sets[1][key]["median"]
        change = (b - a) / a if metrics[metric]["better"] == "lower" else (a - b) / a
        print(f"{name:<10} {metric:<20} {a:>12.6g} {b:>12.6g} {change:>9.4f} "
              f"{metrics[metric]['bound']:>6}")


def table(label: str) -> None:
    with open(os.path.join(HERE, "out", f"proof-{label}.json"), encoding="utf-8") as fh:
        runs = json.load(fh)
    rows = spreads(runs)
    names = list(runs)
    first = runs[names[0]][0]["metrics"]
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---:|" * len(names))
    for metric, entry in first.items():
        cells = " | ".join(f"{rows[(n, metric)]['median']:.4g}" for n in names)
        print(f"| `{metric}` | {entry['unit']} | {cells} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="a")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--table", metavar="LABEL")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.table:
        table(args.table)
        return 0
    report(run_set(args.workloads, seeds_from(args.seeds), args.trace, args.label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
