#!/usr/bin/env python3
"""Seed-spread check for the Calibro benchmark.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]
                                [--out results.json] [--compare earlier.json]

Runs perfbench/run.py once per (workload, seed), sequentially, from the
repository root, with BENCHMARK.json's run_seconds. For every end-to-end
metric it prints the median over seeds and the spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. With --compare it also prints how far
each median moved from an earlier --out file. Exits 1 if any run failed or
any spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    opts = ap.parse_args()

    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    earlier = json.loads(Path(opts.compare).read_text()) if opts.compare else {}
    values = {}
    ok = True
    for workload in opts.workloads.split(","):
        for seed in seed_list(opts.seeds):
            result = run_once(workload, seed, bench["run_seconds"], opts.trace)
            if result is None:
                print(f"{workload} seed {seed}: FAILED")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"])
            print(f"{workload} seed {seed}: ok", flush=True)

    summary = {}
    for workload, per_metric in values.items():
        print(f"\n{workload}")
        summary[workload] = {}
        for m in metrics:
            vals = per_metric.get(m["name"], [])
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][m["name"]] = {"median": med, "spread": spread,
                                            "values": vals}
            line = f"  {m['name']:<16} median {med:<14.6g} spread {spread:7.2%}"
            if "bound" in m:
                line += f"  bound {m['bound']:.0%}"
                if spread > m["bound"]:
                    line += "  OVER BOUND"
                    ok = False
                elif spread > m["bound"] / 3:
                    line += "  over a third of the bound"
            before = earlier.get(workload, {}).get(m["name"])
            if before and before["median"]:
                line += f"  moved {med / before['median'] - 1:+.2%}"
            print(line)
    if opts.out:
        Path(opts.out).write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
