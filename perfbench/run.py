#!/usr/bin/env python3
"""Build and run the smtos host-speed benchmark on one workload.

    python3 perfbench/run.py --workload apache-cmp4 [--seed 99] [--seconds 50]
                             [--trace 0|1] [--record results.jsonl]

Run from anywhere inside a checkout of the repository. The first run
configures and builds perfbench/ (and with it the simulator library)
under $CARGO_TARGET_DIR, default .bench_build, at the repository root.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. --record appends the full run, with its provenance (commit,
compiler, build type, host CPU, nproc), to a JSON-lines file that
perfbench/ledger.py reads.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then bring the benchmark program up to date. Returns its path."""
    bdir = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(bdir), "--target", "smtos_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    return bdir / "smtos_perfbench"


def finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def check_metrics(doc, wanted):
    """Problems with the benchmark program's metrics against BENCHMARK.json."""
    problems = []
    got = doc.get("metrics", {})
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing metric {m['name']}")
        elif not finite_number(entry.get("value")):
            problems.append(f"metric {m['name']} is not a finite number")
        elif entry.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit "
                            f"{entry.get('unit')}, expected {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             check=True, cwd=ROOT).stdout
        return out.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance():
    cache = (build_dir() / "CMakeCache.txt").read_text().splitlines()
    compiler = next((l.split("=", 1)[1] for l in cache
                     if l.startswith("CMAKE_CXX_COMPILER:")), "c++")
    version = tool_output([compiler, "--version"])
    return {
        "commit": tool_output(["git", "rev-parse", "HEAD"]),
        "compiler": version.splitlines()[0] if version else compiler,
        "build_type": BUILD_TYPE,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
    }


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full run to this JSONL file")
    args = ap.parse_args()

    if not (ROOT / "src" / "harness" / "session.h").exists():
        log(f"perfbench: no simulator sources under {ROOT}")
        return 2
    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        status = proc.returncode
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as e:
        doc, status = None, e
    if status != 0 or doc is None:
        log(f"perfbench: the benchmark program gave no result ({status})")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(doc, wanted)
    for run in doc["runs"]:
        problems += run["errors"]
    for p in problems:
        log(f"perfbench: {p}")
    correct = doc["failed"] == 0 and not problems
    print(f"workload={doc['workload']} seed={doc['seed']} "
          f"runs={doc['attempted']} chunks={doc['chunks']} "
          f"sim_digest={doc['sim_digest']}")
    if args.record:
        doc["correct"] = correct
        doc["provenance"] = provenance()
        with open(args.record, "a") as f:
            f.write(json.dumps(doc, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
