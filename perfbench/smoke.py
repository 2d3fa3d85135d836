#!/usr/bin/env python3
"""Self-check of the benchmark: run every workload briefly, untraced and
traced, and check the output contract.

    python3 perfbench/smoke.py [--seconds 1]

For each run it checks that the result line has exactly the keys
correct/attempted/failed/metrics, that the run was correct with no failed
op, that the metrics are exactly the end-to-end (untraced) or per-layer
(traced) metrics BENCHMARK.json names, each finite and with its unit, that
the stamp names host, commit and seed, and that the full-image
verification ran and found nothing (and no dedup hit).  Exits 1 on any
failure.
"""
import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
STAMP_KEYS = {"workload", "seed", "seconds", "trace", "host", "nproc",
              "kernel", "compiler", "build_type", "git_commit",
              "source_sha256", "steal_frac"}


def check_run(workload, trace, seconds):
    errors = []
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2]).get("stamp", {})

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    if missing := STAMP_KEYS - set(stamp):
        errors.append(f"stamp lacks {sorted(missing)}")

    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name} = {value!r}")
        if name in expected and m.get("unit") != expected[name]:
            errors.append(f"{name} unit {m.get('unit')!r} != {expected[name]!r}")

    verified = [l for l in lines if l.startswith("# verified:")]
    if not verified:
        errors.append("no full-image verification line")
    else:
        fields = dict(re.findall(r"(\w+)=(\d+)", verified[-1]))
        if fields.get("image_records_bad") != "0" or fields.get("dedup_hits") != "0":
            errors.append(f"verification: {verified[-1]}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    failures = 0
    for w in BENCH["workloads"]:
        for trace in (0, 1):
            errors = check_run(w["name"], trace, args.seconds)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {w['name']} trace={trace}"
                  + "".join(f"\n     {e}" for e in errors), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
