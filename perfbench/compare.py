#!/usr/bin/env python3
"""Collect, summarise and compare sets of perfbench runs.

A set of runs is a JSON-lines file: one {"stamp": {...}, "result": {...}}
object per run, as `collect` writes it.

  collect  Run the benchmark for every workload and seed, untraced and for
           BENCHMARK.json's run_seconds, and append each run to a set.  Give --tree DIR=OUT.jsonl once per checkout; with
           two trees the runs alternate, the first tree going first on odd
           seeds and the second on even ones, so the pairs diff() reads
           were taken side by side.
               compare.py collect --tree .=runs.jsonl --seeds 1-10
               compare.py collect --tree ../parent=a.jsonl --tree .=b.jsonl

  spread   For one set: per (workload, metric) the median, the quartiles and
           the spread (Q3 - Q1) / median against the bound in BENCHMARK.json.
               compare.py spread runs.jsonl

  diff     For two sets A (before) and B (after): per (workload, end-to-end
           metric) each side's median and quartiles and a verdict.
               compare.py diff a.jsonl b.jsonl

Verdicts in diff, with runs paired by seed (or, when the two sets share
no seed, in the order they were made):
  better      B wins at least 9 of every 10 pairs (ties count for neither)
              and the medians differ by more than A's quartile spread.
  worse       B's median is worse than A's by more than the metric's bound,
              and A's own spread is within that bound (or every B run is
              worse than every A run).
  unresolved  anything else: no gain beyond the spread and no loss beyond
              the bound, or a spread too wide to tell.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent /
                    "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"] + BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{tree}: {' '.join(cmd)} failed ({proc.returncode})")
    return {"stamp": json.loads(lines[-2])["stamp"],
            "result": json.loads(lines[-1])}


def collect(args):
    trees = [t.split("=", 1) for t in args.tree]
    workloads = args.workload or WORKLOADS
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            order = trees if seed % 2 or len(trees) == 1 else trees[::-1]
            for tree, out in order:
                run = run_once(tree, workload, seed)
                with open(out, "a") as f:
                    f.write(json.dumps(run) + "\n")
                r = run["result"]
                print(f"{tree} {workload} seed={seed} correct={r['correct']} "
                      f"steal={run['stamp'].get('steal_frac', 0):.1%} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in r["metrics"].items()), flush=True)


STEAL_WARN = 0.05


def load(path):
    """{(workload, metric): {seed: value}} plus whether every run was correct.
    Warns about runs during which the hypervisor stole much CPU time: their
    figures describe the host's contention more than the program."""
    table, correct = {}, True
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        correct = correct and run["result"]["correct"]
        if run["stamp"].get("steal_frac", 0) > STEAL_WARN:
            print(f"warning: {path}: {run['stamp']['workload']} seed "
                  f"{run['stamp']['seed']} ran with "
                  f"{run['stamp']['steal_frac']:.0%} CPU steal")
        seed = run["stamp"]["seed"]
        for name, m in run["result"]["metrics"].items():
            table.setdefault((run["stamp"]["workload"], name), {})[seed] = m["value"]
    return table, correct


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rel_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def spread(args):
    table, correct = load(args.runs)
    print(f"{'workload':15} {'metric':32} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  check")
    ok = correct
    for (workload, name), by_seed in sorted(table.items()):
        values = list(by_seed.values())
        q1, med, q3 = quartiles(values)
        s = rel_spread(values)
        bound = METRICS.get(name, {}).get("bound")
        check = ""
        if bound is not None:
            check = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            ok = ok and s <= bound
        print(f"{workload:15} {name:32} {len(values):3} {med:12.5g} {q1:12.5g} "
              f"{q3:12.5g} {s:8.4f} {bound if bound is not None else '':>6}  {check}")
    if not correct:
        print("some runs were not correct")
    return 0 if ok else 1


def pairs(a, b):
    """(A, B) value pairs: by seed where the sets share seeds, else in the
    order the runs were made."""
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s], b[s]) for s in common]
    return list(zip(a.values(), b.values()))


def verdict(a, b, better, bound):
    """a, b: {seed: value}; better: 'higher' or 'lower'."""
    sign = 1 if better == "higher" else -1
    ps = pairs(a, b)
    b_wins = sum(1 for x, y in ps if sign * (y - x) > 0)
    av, bv = list(a.values()), list(b.values())
    aq1, amed, aq3 = quartiles(av)
    bmed = quartiles(bv)[1]
    if ps and b_wins * 10 >= 9 * len(ps) and abs(bmed - amed) > aq3 - aq1:
        return "better"
    worse_by = sign * (amed - bmed) / abs(amed) if amed else 0.0
    all_worse = min(bv) > max(av) if sign < 0 else max(bv) < min(av)
    if worse_by > bound and (rel_spread(av) <= bound or all_worse):
        return "worse"
    return "unresolved"


def diff(args):
    a, a_ok = load(args.a)
    b, b_ok = load(args.b)
    print(f"{'workload':15} {'metric':16} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'pairs':>5}  verdict")
    worse = 0
    for m in BENCH["end_to_end"]:
        for workload in WORKLOADS:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            aq, bq = quartiles(list(a[key].values())), quartiles(list(b[key].values()))
            v = verdict(a[key], b[key], m["better"], m.get("bound"))
            worse += v == "worse"
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{workload:15} {m['name']:16} {fmt(aq):>34} {fmt(bq):>34} "
                  f"{len(pairs(a[key], b[key])):5}  {v}")
    if not (a_ok and b_ok):
        print("some runs were not correct")
    return 1 if worse or not (a_ok and b_ok) else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--tree", action="append", required=True,
                   help="DIR=OUT.jsonl: a checkout and the set its runs go to")
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    c.add_argument("--workload", action="append", choices=WORKLOADS)
    s = sub.add_parser("spread")
    s.add_argument("runs")
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return spread(args) if args.cmd == "spread" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
