#!/usr/bin/env python3
"""Steadiness and tracing-overhead report for the benchmark.

Runs the benchmark command from BENCHMARK.json as two sets of runs per
workload, seeds 1..N in each, alternating which set goes first from one
seed to the next. For every end-to-end metric it prints, per set, the
median, the first and third quartile and the quartile spread as a share
of the median, next to the metric's bound; then how much worse the
second set's median is than the first's, as a share of the first's,
against the same bound. With --traced, each seed of the first set is
also run with tracing on, and the traced-vs-untraced difference of the
median job CPU time is reported as the tracing overhead.

A run that reports a wrong answer (`correct: false`, non-zero exit) is
kept in the figures and counted; the script then exits non-zero.

Run from the repository root:

    python3 benchmark/steadiness.py                       # every workload, 10 seeds per set
    python3 benchmark/steadiness.py --workloads coarse-scale --seeds 5 --traced
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, no result")
    if not result["correct"]:
        wrong = [l for l in lines if l.startswith("# WRONG")]
        sys.stderr.write(f"{workload} seed {seed} trace {trace}: incorrect (exit {proc.returncode})\n")
        sys.stderr.write("".join(l + "\n" for l in wrong[:3]))
    return result, wall


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def worse_share(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        help="comma-separated workloads (default: those in BENCHMARK.json)")
    parser.add_argument("--seeds", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--traced", action="store_true", help="also run the first set traced")
    opts = parser.parse_args()
    if opts.seeds < 2:
        parser.error("--seeds needs at least 2 runs for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    names = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    seeds = range(1, opts.seeds + 1)

    worst_spread = 0.0
    worst_drift = 0.0
    incorrect = 0
    for workload in names:
        sets = [{m["name"]: [] for m in bench["end_to_end"]} for _ in range(2)]
        overheads = []
        walls = []
        for seed in seeds:
            order = (0, 1) if seed % 2 else (1, 0)
            for which in order:
                result, wall = run_once(command, workload, seed, seconds, 0)
                walls.append(wall)
                incorrect += not result["correct"]
                for name, values in sets[which].items():
                    values.append(result["metrics"][name]["value"])
            if opts.traced:
                traced, _ = run_once(command, workload, seed, seconds, 1)
                incorrect += not traced["correct"]
                job_p50 = traced["metrics"]["trace.job_cpu_p50_ms"]["value"]
                overheads.append(job_p50 / sets[0]["cpu_p50_ms"][-1] - 1.0)
        print(f"== {workload}: 2 sets of {len(seeds)} runs, seeds 1..{len(seeds)}, "
              f"{seconds} s each, wall per run {min(walls):.1f}-{max(walls):.1f} s")
        print(f"   {'metric':<18} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  spread/bound")
        for m in bench["end_to_end"]:
            medians = []
            for which, values in enumerate(sets):
                med, q1, q3 = summary(values[m["name"]])
                medians.append(med)
                spread = (q3 - q1) / med
                ratio = spread / m["bound"]
                if m["name"] != "setup_s":
                    worst_spread = max(worst_spread, ratio)
                print(f"   {m['name']:<18} {'AB'[which]:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {m['bound']:>6.2f}  {ratio:.2f}")
                print("        runs: " + " ".join(f"{v:.5g}" for v in values[m["name"]]))
            worse = worse_share(m, medians[0], medians[1])
            drift = abs(medians[1] - medians[0]) / medians[0]
            worst_drift = max(worst_drift, drift / m["bound"])
            verdict = "ok" if drift <= m["bound"] else "UNRESOLVED: the sets differ by more than the bound"
            print(f"   {m['name']:<18} B vs A: {worse:+.3f} worse, |difference| {drift:.3f} "
                  f"against bound {m['bound']:.2f}: {verdict}")
        if overheads:
            med, q1, q3 = summary(overheads)
            print(f"   tracing overhead on the median job CPU time (traced / untraced - 1): "
                  f"median {med:+.3f}, quartiles {q1:+.3f} .. {q3:+.3f}")
    print(f"worst spread/bound (setup_s excluded): {worst_spread:.2f}")
    print(f"worst |set B - set A| / bound: {worst_drift:.2f}")
    if incorrect:
        print(f"{incorrect} runs reported a wrong answer")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
