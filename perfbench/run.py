"""The repository benchmark.

    python3 perfbench/run.py --workload tournament|survival|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs
in a fresh interpreter (``rep.py``), one after another, until the next
one would end after ``--seconds`` (at least ``MIN_REPS``).  With
``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, each the median over the repetitions; with
``--trace 1`` the repetitions run with the tracing wrappers installed
and the metrics are the per-layer figures, again medians.  The effective
program settings and any check failures go to standard error; the
merged trace is written to ``.perfbench_out/``.

The program is taken from ``src/`` of the working directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("tournament", "survival", "serve")
MIN_REPS = 3
#: Every run ends within this many seconds: a repetition still running
#: then is killed and its operations counted failed.
RUN_DEADLINE = 170.0

#: The end-to-end metrics every workload reports, with their units.
#: ``batch_s`` is the wall-clock time of the repetition's timed batch.
#: ``ops_per_s`` is the serve reads completed per second; on the
#: tournament and survival it is the batch's fixed operation count over
#: ``batch_s``, so there it is not a separate signal (see README).
END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("batch_s", "s"), ("ops_per_s", "1/s"),
)
#: The figures each workload records per repetition, by their own names
#: (printed to standard error), and which of them feed ``batch_s`` and
#: ``ops_per_s``.
FIGURES = {
    "tournament": ("sweep_s", "games_per_s"),
    "survival": ("battery_s", "trials_per_s"),
    "serve": ("campaign_s", "reads_per_s", "read_ms", "read_tail_ms"),
}
#: Operations per repetition, charged as failed when a repetition dies.
OPS_PER_REP = {"tournament": 48, "survival": 14,
               "serve": 2 + inputs.READS * inputs.READ_ROUNDS}


def log(message):
    print(message, file=sys.stderr, flush=True)


def kill_group(pid):
    """SIGKILL what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def run_child(root, work_dir, cfg, deadline):
    """Run one ``rep.py`` child; returns its result dict or None."""
    os.makedirs(work_dir, exist_ok=True)
    cfg = dict(cfg, root=root, work_dir=work_dir,
               result_path=os.path.join(work_dir, "result.json"))
    cfg_path = os.path.join(work_dir, "config.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    cfg["spawn_monotonic"] = time.monotonic()
    with open(cfg_path, "w", encoding="utf-8") as handle:
        json.dump(cfg, handle)
    with open(os.path.join(work_dir, "rep.log"), "wb") as rep_log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"), cfg_path],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=rep_log,
            start_new_session=True,
        )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Whatever happened, nothing the repetition started outlives it.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        kill_group(proc.pid)
        server_pid = os.path.join(work_dir, "server.pid")
        if os.path.exists(server_pid):
            with open(server_pid) as handle:
                kill_group(int(handle.read().strip()))
    if code != 0:
        with open(os.path.join(work_dir, "rep.log"), "rb") as handle:
            tail = handle.read().decode("utf-8", "replace")[-2000:]
        log(f"perfbench: {cfg['workload']} child exited with {code}:\n{tail}")
        return None
    with open(cfg["result_path"], encoding="utf-8") as handle:
        return json.load(handle)


def layer_values(workload, result):
    """Per-layer figures of one traced repetition."""
    if workload == "serve":
        snapshots = []
        for path in result.get("trace_files", []):
            with open(path, encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
    else:
        snapshots = [result["trace"]]
    merged = tracing.merge(snapshots)
    return merged, tracing.layer_metrics(merged)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        log("perfbench: no program here (src/repro is missing); run from a checkout root")
        return 2

    work_root = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    base = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    problems = []
    notes = []
    try:
        if args.workload == "serve":
            ref = run_child(root, os.path.join(work_root, "reference"),
                            dict(base, workload="serve-reference", trace=0), deadline)
            if ref is None:
                log("perfbench: the serve reference run failed")
                return 1
            base["reference_path"] = os.path.join(work_root, "reference.json")
            with open(base["reference_path"], "w", encoding="utf-8") as handle:
                json.dump(ref["reference"], handle)

        results = []
        attempted = failed = 0
        durations = []
        started = time.monotonic()
        while True:
            rep_started = time.monotonic()
            result = run_child(root, os.path.join(work_root, f"rep-{len(durations)}"),
                               dict(base, rep=len(durations)), deadline)
            durations.append(time.monotonic() - rep_started)
            if result is None:
                attempted += OPS_PER_REP[args.workload]
                failed += OPS_PER_REP[args.workload]
                notes.append(f"repetition {len(durations) - 1} died")
            else:
                results.append(result)
                attempted += result["attempted"]
                failed += result["failed"]
                problems += result["problems"]
                notes += result["notes"]
            elapsed = time.monotonic() - started
            if len(durations) >= MIN_REPS and elapsed + max(durations) > args.seconds:
                break
            if time.monotonic() + max(durations) > deadline:
                break
        if not results:
            log("perfbench: every repetition died")
            return 1

        digests = {r.get("rows_digest") for r in results}
        if len(digests) > 1:
            problems.append(f"rows differ between repetitions ({len(digests)} variants)")

        metrics = {}
        if args.trace:
            per_rep = []
            merged_reps = []
            for result in results:
                merged, values = layer_values(args.workload, result)
                per_rep.append(values)
                merged_reps.append(merged)
            for name, (unit, _) in tracing.METRICS.items():
                missing = any(values[name][2] for values in per_rep)
                middle = statistics.median if unit == "s" else statistics.median_low
                entry = {"value": middle(values[name][0] for values in per_rep), "unit": unit}
                if missing:
                    entry["missing"] = True
                metrics[name] = entry
            # Span records (target, start, end, depth, thread) of the
            # first repetition only, to keep the file small.
            for merged in merged_reps[1:]:
                merged.pop("records")
            with open(os.path.join(out_dir, f"trace-{args.workload}.json"), "w", encoding="utf-8") as handle:
                json.dump({"workload": args.workload, "seed": args.seed, "repetitions": merged_reps}, handle)
        else:
            for name, unit in END_TO_END:
                # A figure measured in several rounds per repetition
                # (the serve reads) is the median over all the rounds.
                values = [v for r in results for v in r.get(f"{name}_rounds", [r.get(name)]) if v]
                if not values:
                    problems.append(f"no repetition measured {name}")
                    continue
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        figures = {name: statistics.median(r[name] for r in results)
                   for name in FIGURES[args.workload] if all(r.get(name) is not None for r in results)}
        log(f"perfbench: {'traced ' if args.trace else ''}figures: {json.dumps(figures)}")
        per_rep = {name: [round(r[name], 4) for r in results]
                   for name, _ in END_TO_END if all(r.get(name) is not None for r in results)}
        log(f"perfbench: per repetition: {json.dumps(per_rep)}")

        log(f"perfbench: {args.workload} seed {args.seed}: {len(results)} repetitions in "
            f"{round(sum(durations), 1)} s; settings {json.dumps(results[0].get('settings'))}")
        for note in notes[:20]:
            log(f"perfbench: note: {note}")
        for problem in problems[:20]:
            log(f"perfbench: check failed: {problem}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
