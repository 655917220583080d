#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --workloads pipeline adapt \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 --out perfbench/results/NAME.json

Runs `perfbench/run.py` once per (workload, seed), one after another, with
`run_seconds` from BENCHMARK.json. For every metric it records each run's
value and the median, quartiles and spread (quartile distance over median,
as `statistics.quantiles(values, n=4)` gives them), and prints the spread
beside the metric's bound. Work counts and artifact digests are kept per
seed, so a later commit can show they repeat exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), elapsed


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace,
               "seeds": args.seeds, "cpu_model": cpu_model(), "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            detail, result, elapsed = one_run(workload, seed, bench["run_seconds"], args.trace)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {elapsed:.1f}s",
                  flush=True)
            keep = ("counts", "digests", "rounds", "round_times_s", "setup_times_s",
                    "host_speed_us", "enroll_samples", "enroll_ms_percentiles",
                    "quality", "errors")
            runs.append({"seed": seed, "elapsed_s": elapsed, "result": result,
                         **{k: detail[k] for k in keep}})
            summary.setdefault("environment", detail["environment"])
        names = list(runs[0]["result"]["metrics"])
        metrics = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarise(values)
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            bound = bounds.get(name)
            if not args.trace:
                flag = "" if bound is None or metrics[name]["spread"] < bound / 3 else "  <-- wide"
                print(f"  {name:28s} median {metrics[name]['median']:12.5g} "
                      f"spread {metrics[name]['spread']:.4f} bound {bound}{flag}")
        summary["workloads"][workload] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "metrics": metrics, "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
