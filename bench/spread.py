#!/usr/bin/env python3
"""Run each workload N times with different seeds and print, per end-to-end
metric, the median and the quartile distance as a share of it — the figure
the benchmark driver holds against each metric's bound.

    python3 bench/spread.py [workloads,comma,separated] [runs] [first-seed] [trace]

Run it from the checkout root, on an otherwise idle machine.
"""
import json
import statistics
import subprocess
import sys

bench = json.load(open("BENCHMARK.json"))
workloads = sys.argv[1].split(",") if len(sys.argv) > 1 else [w["name"] for w in bench["workloads"]]
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
seed0 = int(sys.argv[3]) if len(sys.argv) > 3 else 100
trace = sys.argv[4] if len(sys.argv) > 4 else "0"
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

for w in workloads:
    vals = {}
    for i in range(runs):
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed0 + i),
                                  "--seconds", str(bench["run_seconds"]), "--trace", trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            print(f"{w} seed {seed0 + i}: exit {p.returncode}\n{p.stderr[-2000:]}", flush=True)
            continue
        res = json.loads(p.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            print(f"{w} seed {seed0 + i}: correct={res['correct']} failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            vals.setdefault(name, []).append(m["value"])
    for name in sorted(vals):
        v = vals[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread <= bound else "  > bound"
        print(f"{w:16s} {name:40s} median {med:14.4f}  spread {spread:6.3f}{flag}", flush=True)
