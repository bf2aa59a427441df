"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` for one second, untraced and
traced, and checks that the last line of each run is the result object
with exactly the expected keys, that every end-to-end (untraced) or
per-layer (traced) metric is printed with its declared unit, and that the
run is correct with at least one operation attempted. It then copies the
benchmark alone, without ``src/``, into a directory under
``perfbench/out`` and checks that a run there fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def check_result(spec: dict, name: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", name, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)]
    t0 = time.monotonic()
    proc = run(cmd, ROOT)
    took = time.monotonic() - t0
    errors = []
    if proc.returncode != 0:
        return [f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{name}: result keys {sorted(result)}")
    if result["correct"] is not True:
        errors.append(f"{name}: correct is {result['correct']!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        errors.append(f"{name}: attempted {result['attempted']!r} failed {result['failed']!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{name} trace {trace}: missing {sorted(set(wanted) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(wanted))}")
    for metric, unit in wanted.items():
        entry = got.get(metric)
        if entry is None:
            continue
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{name}: {metric} printed as {entry}, unit should be {unit}")
        elif not trace and not entry["value"] > 0:
            errors.append(f"{name}: end-to-end metric {metric} is {entry['value']}")
    print(f"{name:<10} trace {trace}: {'ok' if not errors else 'FAIL'} ({took:.0f} s)",
          flush=True)
    return errors


def check_without_sources(spec: dict) -> list[str]:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(spec["command"] + ["--workload", "train_64", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    printed = bool(lines) and lines[-1].startswith("{")
    ok = proc.returncode != 0 and not printed
    print(f"without src/: exit {proc.returncode}, result printed: {printed}: "
          f"{'ok' if ok else 'FAIL'}")
    return [] if ok else ["a run without the sources must fail without a result"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            errors += check_result(spec, workload["name"], trace)
    errors += check_without_sources(spec)
    for error in errors:
        print("error:", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
