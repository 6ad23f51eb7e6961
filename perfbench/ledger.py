#!/usr/bin/env python3
"""Record and compare smtos benchmark runs.

    # run each workload once per seed, appending to a results file
    python3 perfbench/ledger.py sweep --out a.jsonl --seeds 1-10 \\
        [--workloads apache-cmp4,specint-sampled] [--trace 0|1]

    # a seed list may repeat: two sets of seeds 1-10, or one seed five times
    python3 perfbench/ledger.py sweep --out b.jsonl --seeds 1-10,1-10
    python3 perfbench/ledger.py sweep --out c.jsonl --seeds 4242,4242,4242

    # per workload, each metric on both sides, and whether sim_digest matched
    # (compare a file with itself to see one side's medians and quartiles)
    python3 perfbench/ledger.py compare parent.jsonl change.jsonl

A results file holds one JSON object per line, as run.py --record writes
them. Spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). An end-to-end metric whose spread on
either side exceeds its BENCHMARK.json bound is UNRESOLVED: the runs
cannot tell a change of that size from noise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def group(records):
    """{workload: {metric: [values]}} and {(workload, seed): digests}."""
    values = defaultdict(lambda: defaultdict(list))
    digests = defaultdict(set)
    for r in records:
        for name, m in r["metrics"].items():
            values[r["workload"]][name].append(m["value"])
        for run in r["runs"]:
            digests[(r["workload"], r["seed"])].add(run["sim_digest"])
    return values, digests


def metric_specs(spec):
    out = {m["name"]: m for m in spec["end_to_end"]}
    out.update({m["name"]: m for m in spec["per_layer"]})
    return out


def fmt(v):
    return f"{v:.4g}"


def compare(args):
    spec = load_spec()
    specs = metric_specs(spec)
    a_vals, a_dig = group(load(args.a))
    b_vals, b_dig = group(load(args.b))
    bad = False
    for wl in sorted(set(a_vals) | set(b_vals)):
        print(f"\n[{wl}]")
        common = sorted({s for (w, s) in a_dig if w == wl} &
                        {s for (w, s) in b_dig if w == wl})
        differ = [s for s in common if a_dig[(wl, s)] != b_dig[(wl, s)]]
        if not common:
            print("  sim_digest: no seed run on both sides")
        elif differ:
            print(f"  sim_digest: DIFFERS on seeds {differ} "
                  "(simulated behaviour changed)")
        else:
            print(f"  sim_digest: match on {len(common)} seeds")
        print(f"  {'metric':36} {'A median [q1, q3]':>30} "
              f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
        names = sorted(set(a_vals[wl]) & set(b_vals[wl]), key=lambda n: (
            "bound" not in specs.get(n, {}), n))
        for name in names:
            a, b = a_vals[wl][name], b_vals[wl][name]
            aq1, amed, aq3 = quartiles(a)
            bq1, bmed, bq3 = quartiles(b)
            change = ((bmed - amed) / abs(amed) if amed
                      else 0.0 if bmed == amed else float("nan"))
            m = specs.get(name, {})
            verdict = ""
            if "bound" in m:
                bound = m["bound"]
                worse = change if m["better"] == "lower" else -change
                if spread(a) > bound or spread(b) > bound:
                    everyb = (min(b) > max(a) if m["better"] == "higher"
                              else max(b) < min(a))
                    verdict = "better" if everyb else "UNRESOLVED"
                elif worse > bound:
                    verdict = "WORSE"
                    bad = True
                else:
                    verdict = "ok"
            print(f"  {name:36} "
                  f"{fmt(amed) + ' [' + fmt(aq1) + ', ' + fmt(aq3) + ']':>30} "
                  f"{fmt(bmed) + ' [' + fmt(bq1) + ', ' + fmt(bq3) + ']':>30} "
                  f"{change:+8.2%}  {verdict}")
    return 1 if bad else 0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def sweep(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for seed in parse_seeds(args.seeds):
        for wl in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--trace", str(args.trace),
                   "--record", args.out]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1:]
            res = json.loads(last[0]) if last else {}
            print(f"{wl} seed {seed}: correct={res.get('correct')} "
                  f"failed={res.get('failed')}", flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sw = sub.add_parser("sweep")
    sw.add_argument("--out", required=True)
    sw.add_argument("--seeds", default="1-10")
    sw.add_argument("--workloads")
    sw.add_argument("--trace", type=int, choices=(0, 1), default=0)
    co = sub.add_parser("compare")
    co.add_argument("a")
    co.add_argument("b")
    args = ap.parse_args()
    return {"sweep": sweep, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
