"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py [--workloads tournament survival serve]
        [--runs 10] [--sets 2] [--seed-base 1] [--seconds S]

Runs ``run.py`` ``--runs`` times per workload and set, each run with
another seed (the same seeds in every set), at the run length from
``BENCHMARK.json`` unless ``--seconds`` is given.  For every end-to-end
metric it prints each set's median and quartiles, the spread (quartile
distance over the median), and whether

* each set's spread is within the metric's bound, except for
  ``setup_s``, whose bound gates only the drift of its median between
  sets: set-up is short and starts interpreters and a server, and its
  spread across runs reaches the widest bound a metric may have, and
* the second set's median is no worse than the first's by more than the
  bound,

and whether the share of failed operations is the same in every set.
Each run line also shows the host's steal share during the run (the
share of vCPU time the hypervisor gave to other guests, from
``/proc/stat``): on a shared virtual machine it is the main reason two
sets disagree.  The full figures are written to
``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def one_run(workload, seed, seconds):
    before = cpu_times()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    after = cpu_times()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return result, steal


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = [args.seed_base + i for i in range(args.runs)]

    report = {}
    ok = True
    for workload in workloads:
        sets = []
        for index in range(args.sets):
            runs = []
            for seed in seeds:
                result, steal = one_run(workload, seed, seconds)
                result["steal"] = steal
                runs.append(result)
                print(f"{workload} set {index + 1} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                      + ("" if steal is None else f" steal={steal:.1%}"),
                      flush=True)
            sets.append(runs)
        report[workload] = {"sets": sets, "metrics": {}}
        print(f"\n{workload}: {'metric':<14} " + " | ".join(
            f"set {i + 1} median [q1, q3] spread" for i in range(args.sets)) + " | verdict")
        for name in sets[0][0]["metrics"]:
            rule = bounds[name]
            stats = [summary([run["metrics"][name]["value"] for run in runs]) for runs in sets]
            verdicts = []
            for i, s in enumerate(stats):
                if name != "setup_s" and s["spread"] > rule["bound"]:
                    verdicts.append(f"set {i + 1} spread over bound")
            first = stats[0]["median"]
            for i, s in enumerate(stats[1:], start=2):
                change = (s["median"] - first) / first
                worse = change if rule["better"] == "lower" else -change
                if worse > rule["bound"]:
                    verdicts.append(f"set {i} worse by {worse:.1%}")
            ok = ok and not verdicts
            report[workload]["metrics"][name] = {"bound": rule["bound"], "sets": stats,
                                                 "verdict": verdicts or ["agree"]}
            cells = " | ".join(
                f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['spread']:.1%}" for s in stats
            )
            print(f"{'':>{len(workload) + 1}} {name:<14} {cells} | "
                  f"{'; '.join(verdicts) or 'agree'} (bound {rule['bound']:.0%})")
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets
        ]
        same = len(set(shares)) == 1
        ok = ok and same and all(r["correct"] for runs in sets for r in runs)
        report[workload]["failed_shares"] = shares
        steals = [statistics.median(r["steal"] or 0.0 for r in runs) for runs in sets]
        print(f"{'':>{len(workload) + 1}} median host steal per set: "
              + ", ".join(f"{s:.1%}" for s in steals))
        print(f"{'':>{len(workload) + 1}} failed share per set: {shares} "
              f"({'same' if same else 'DIFFERENT'}); all correct: "
              f"{all(r['correct'] for runs in sets for r in runs)}\n", flush=True)
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "steadiness.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
