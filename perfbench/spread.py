#!/usr/bin/env python3
"""Runs one workload of the benchmark on several seeds and reports, per
end-to-end metric, the median and the quartile spread as a share of the
median, next to the metric's bound in BENCHMARK.json. With --sets 2 it
runs the seeds twice and also reports how far the second median moved
from the first. Run from the repository root:

    python3 perfbench/spread.py --workload route_mix --seeds 1-10 --sets 2
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    digest = [l for l in lines if l.startswith("# digest")]
    return json.loads(lines[-1]), digest[0] if digest else ""


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds_of(args.seeds):
            res, digest = run(args.workload, seed, seconds)
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items()))
            print(f"set {s + 1} seed {seed}: {vals} {digest}", flush=True)
        sets.append(runs)
    ok = True
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds, cells = [], []
        for runs in sets:
            vals = [r["metrics"][name]["value"] for r in runs]
            meds.append(statistics.median(vals))
            sp = spread(vals)
            cells.append(f"median {meds[-1]:.6g} spread {sp:.4f}")
            if sp > bound:
                ok = False
        line = f"{args.workload:11s} {name:16s} bound {bound:<5} " + " | ".join(cells)
        if len(meds) > 1:
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            line += f" | second median worse by {worse:+.4f}"
            if worse > bound:
                ok = False
        print(line)
    print("within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
