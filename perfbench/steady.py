#!/usr/bin/env python3
"""Steadiness runner for the mqsp end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--trace]
                                [--json raw.json]

Runs every workload --runs times, each run with its own seed, alternating
the workload order from one round to the next. For each end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median against the metric's bound from BENCHMARK.json:
"steady" below a third of the bound, "ok" within it, "NOISY" beyond it.
With --sets 2 it repeats the whole schedule on fresh seeds and also checks
that no median of the second set is worse than the first by more than the
bound. With --trace it prints the
medians of the per-layer metrics instead. --json writes every run's value
of every metric. Exits 1 when a run fails or a check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, expected):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed requests")
    if set(result["metrics"]) != expected:
        raise RuntimeError(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ expected)}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def run_set(workloads, seeds, seconds, trace, expected):
    """values[workload][metric] = one value per run, in seed order."""
    values = {w: {} for w in workloads}
    for round_index, seed in enumerate(seeds):
        order = workloads if round_index % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, seed, seconds, trace, expected)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"  {workload:14s} seed {seed:>4}: ok", file=sys.stderr, flush=True)
    return values


def report_set(label, values, metrics):
    worst_ok = True
    print(f"\n{label}")
    print(f"{'workload':14s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  verdict")
    for workload, by_metric in values.items():
        for spec in metrics:
            name = spec["name"]
            q1, q2, q3, share = spread(by_metric[name])
            bound = spec["bound"]
            if share <= bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "ok"
            else:
                verdict = "NOISY"
                worst_ok = False
            print(f"{workload:14s} {name:14s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{share:8.2%} {bound:6.2f}  {verdict}")
    return worst_ok


def compare_sets(first, second, metrics):
    ok = True
    print("\nsecond set against first (medians; worse is judged against the bound)")
    for workload in first:
        for spec in metrics:
            name = spec["name"]
            a = statistics.median(first[workload][name])
            b = statistics.median(second[workload][name])
            change = (b - a) / a if a else 0.0
            worse = change if spec["better"] == "lower" else -change
            verdict = "ok" if worse <= spec["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{workload:14s} {name:14s} {a:12.6g} -> {b:12.6g} {change:+8.2%}  {verdict}")
    return ok


def report_layers(values):
    for workload, by_metric in values.items():
        print(f"\n{workload} (per-layer medians)")
        for name, series in sorted(by_metric.items()):
            median = statistics.median(series)
            if median != 0:
                print(f"  {name:26s} {median:14.6g}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", help="write the per-run values of every metric here")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sets = []
    for index in range(args.sets):
        first_seed = args.seed_base + index * args.runs
        seeds = list(range(first_seed, first_seed + args.runs))
        print(f"set {index + 1}: seeds {seeds[0]}..{seeds[-1]}", file=sys.stderr)
        sets.append(run_set(workloads, seeds, args.seconds, args.trace, expected))
    if args.json:
        with open(args.json, "w") as raw:
            json.dump(sets, raw, indent=1)

    if args.trace:
        report_layers(sets[0])
        return 0
    ok = True
    for index, values in enumerate(sets):
        ok = report_set(f"set {index + 1}", values, spec["end_to_end"]) and ok
    if len(sets) == 2:
        ok = compare_sets(sets[0], sets[1], spec["end_to_end"]) and ok
    print("\nverdict:", "steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
