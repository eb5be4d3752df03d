#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarise each metric.

Run from the root of the repository:

    python3 e2ebench/baseline.py --runs 10 --trace-runs 3 --out e2ebench/baseline.json

Untraced runs use seeds 1..runs and give the end-to-end metrics; traced runs
use seeds 1..trace-runs and give the per-layer metrics. Each metric is
reported as the median and quartiles of its per-run values
(`statistics.quantiles(values, n=4)`), the run count and the values. For
end-to-end metrics the quartile spread as a share of the median is printed
beside the bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(args)} failed its output check:\n{out.stderr}")
    return result["metrics"]


def summarise(samples):
    out = {}
    for name, values in samples.items():
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
        out[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values),
                     "unit": units[name], "values": values}
    return out


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--runs", type=int, default=10)
parser.add_argument("--trace-runs", type=int, default=3)
parser.add_argument("--seconds", type=int)
parser.add_argument("--workload", action="append")
parser.add_argument("--out")
opts = parser.parse_args()

bench = json.load(open("BENCHMARK.json"))
seconds = opts.seconds or bench["run_seconds"]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
report = {"run_seconds": seconds, "workloads": {}}
for workload in opts.workload or [w["name"] for w in bench["workloads"]]:
    summary = {}
    for trace, n in ((0, opts.runs), (1, opts.trace_runs)):
        samples = {}
        for seed in range(1, n + 1):
            for name, m in run(bench["command"], workload, seed, seconds, trace).items():
                samples.setdefault(name, []).append(m["value"])
        summary.update(summarise(samples))
    report["workloads"][workload] = summary
    for name in bounds:
        s = summary[name]
        spread = (s["q3"] - s["q1"]) / s["median"]
        print(f"{workload:14} {name:12} median {s['median']:.6g} {s['unit']}"
              f"  spread {spread:.3f} (bound {bounds[name]})", flush=True)

if opts.out:
    # One line per metric keeps the file readable in a diff.
    lines = [f'{{"run_seconds": {seconds}, "workloads": {{']
    for i, (workload, summary) in enumerate(sorted(report["workloads"].items())):
        lines.append(f'  "{workload}": {{')
        metrics = sorted(summary.items())
        for j, (name, s) in enumerate(metrics):
            comma = "," if j < len(metrics) - 1 else ""
            lines.append(f'    "{name}": {json.dumps(s, sort_keys=True)}{comma}')
        lines.append("  }" + ("," if i < len(report["workloads"]) - 1 else ""))
    lines.append("}}")
    with open(opts.out, "w") as f:
        f.write("\n".join(lines) + "\n")
