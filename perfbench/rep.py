"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so that no
repetition is served by a process-wide cache an earlier one filled:

    python3 perfbench/rep.py CONFIG.json

The config names the workload, seed, repetition, trace flag, the
monotonic time the parent started this process (set-up time counts
from there), a scratch directory and the result path.  The result is a
JSON file with the repetition's set-up time, its end-to-end figures,
the operations attempted and failed, and the problems the checks found.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import http.client

import checks
import inputs

perf = time.perf_counter

#: The tracer of a traced tournament or survival repetition.
TRACER = None


def start_timed():
    """Mark the start of the timed work: traced figures cover only what
    follows (set-up is not a layer's work)."""
    if TRACER is not None:
        TRACER.reset()


class Clock:
    """Times a batch in wall-clock seconds."""

    def __enter__(self):
        self.started = perf()
        return self

    def __exit__(self, *exc):
        self.seconds = perf() - self.started
        return False


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def effective_settings():
    """The program's effective values of the settings the benchmark
    leaves at their defaults."""
    out = {}

    def probe(name, fn):
        try:
            out[name] = fn()
        except Exception as exc:  # noqa: BLE001 - a removed knob is reported
            out[name] = f"unavailable ({type(exc).__name__})"

    def backend():
        from repro.graphs.csr import get_graph_backend
        return get_graph_backend()

    def policy():
        from repro.graphs.traversal import get_invalidation_policy
        return get_invalidation_policy()

    def warm():
        from repro.api import warm_pool_enabled
        return warm_pool_enabled()

    def shared():
        from repro.graphs.shared_pool import shared_balls_enabled
        return shared_balls_enabled()

    def workers():
        from repro.analysis.executor import resolve_workers
        return resolve_workers(None)

    def chunk():
        from repro.analysis.worker_pool import DEFAULT_MAX_CHUNK
        return f"adaptive (max {DEFAULT_MAX_CHUNK})"

    def numpy_version():
        import numpy
        return numpy.__version__

    probe("REPRO_GRAPH_BACKEND", backend)
    probe("invalidation_policy", policy)
    probe("REPRO_WARM_POOL", warm)
    probe("REPRO_SHARED_BALLS", shared)
    probe("REPRO_WORKERS", workers)
    probe("chunk_size", chunk)
    probe("numpy", numpy_version)
    return out


# ----------------------------------------------------------------------
# tournament
# ----------------------------------------------------------------------


def tournament(cfg, result):
    from repro.api import CampaignSpec, SubmitRequest, campaign_from_dict, run_campaign

    defaults = CampaignSpec()
    payload = inputs.tournament_inputs(cfg["seed"], defaults.victims)
    spec = campaign_from_dict(payload)
    expected = {
        (game.adversary, game.victim, game.locality) for game in spec.expand()
    }
    store = os.path.join(cfg["work_dir"], "store")
    request = SubmitRequest(spec=spec, workers=1)
    result["setup_s"] = time.monotonic() - cfg["spawn_monotonic"]

    start_timed()
    try:
        with Clock() as clock:
            outcome = run_campaign(request, store)
    except Exception as exc:  # noqa: BLE001 - an exception fails the sweep
        result["attempted"] = inputs.TOURNAMENT_GAMES
        result["failed"] = inputs.TOURNAMENT_GAMES
        result["notes"].append(f"sweep raised {type(exc).__name__}: {exc}")
        return
    result["sweep_s"] = result["batch_s"] = clock.seconds
    result["games_per_s"] = result["ops_per_s"] = inputs.TOURNAMENT_GAMES / clock.seconds
    result["peak_rss_mb"] = peak_rss_mb()

    rows = sorted(outcome.rows.values(), key=lambda row: row["spec_hash"])
    failed, problems = checks.check_tournament_rows(rows, expected)
    failed += len(outcome.errors)
    if len(expected) != inputs.TOURNAMENT_GAMES:
        problems.append(f"the sweep expands to {len(expected)} games, not {inputs.TOURNAMENT_GAMES}")
    result["attempted"] = inputs.TOURNAMENT_GAMES
    result["failed"] = failed
    result["problems"] += problems
    result["rows_digest"] = checks.digest(rows)


# ----------------------------------------------------------------------
# survival
# ----------------------------------------------------------------------


def survival_instances(seed):
    """(case, graph, algorithm factory, colors, budget, trials) for the
    battery."""
    from repro.core.akbari import AkbariBipartiteColoring
    from repro.core.unify import UnifyColoring, recommended_locality
    from repro.families.grids import SimpleGrid
    from repro.families.hierarchy import Hierarchy
    from repro.families.ktree import random_ktree
    from repro.families.triangular import TriangularGrid
    import repro.oracles as oracles

    cases = []
    for side, localities, order_seed in inputs.SURVIVAL_GRIDS:
        graph = SimpleGrid(side, side).graph
        n = graph.num_nodes
        budget = inputs.paper_budget(n)
        trials = []
        for locality in localities:
            for k in range(inputs.ORDERS_PER_CASE):
                order = inputs.scattered_order(graph.nodes(), order_seed or seed,
                                               f"grid{side}:T{locality}:{k}")
                trials.append((locality, k, order))
        cases.append((f"akbari-grid{side}", graph, AkbariBipartiteColoring, 3, budget, trials))
    builders = {
        "triangular": lambda name, args: TriangularGrid(*args).graph,
        "ktree": lambda name, args: random_ktree(*args, seed=inputs.ktree_seed(seed, name)).graph,
        "hierarchy": lambda name, args: Hierarchy(*args).graph,
    }
    for name, family, args, oracle_name, oracle_args in inputs.UNIFY_FAMILIES:
        graph = builders[family](name, args)
        oracle = getattr(oracles, oracle_name)(*oracle_args)
        budget = recommended_locality(oracle.num_parts, oracle.radius, graph.num_nodes)
        order = inputs.scattered_order(graph.nodes(), seed, f"{name}:T{budget}:0")

        def factory(oracle=oracle):
            return UnifyColoring(oracle)

        cases.append((f"unify-{name}", graph, factory, oracle.num_parts + 1, budget,
                      [(budget, 0, order)]))
    return cases


def survival(cfg, result):
    from repro.api import is_proper
    from repro.models.online_local import OnlineLocalSimulator

    cases = survival_instances(cfg["seed"])
    result["setup_s"] = time.monotonic() - cfg["spawn_monotonic"]

    outcomes = []
    start_timed()
    with Clock() as clock:
        for case, graph, algorithm, colors, budget, trials in cases:
            for locality, k, order in trials:
                sim = OnlineLocalSimulator(graph, algorithm(), locality=locality, num_colors=colors)
                error = ""
                try:
                    coloring = sim.run(order)
                    verdict = is_proper(graph, coloring)
                except Exception as exc:  # noqa: BLE001 - a raised trial is a lost trial
                    coloring = sim.coloring()
                    verdict = False
                    error = f"{type(exc).__name__}: {exc}"
                outcomes.append((case, graph, {
                    "case": case, "locality": locality, "order": k, "budget": budget,
                    "max_colors": colors, "coloring": coloring,
                    "verdict": verdict, "error": error,
                }))
    result["battery_s"] = result["batch_s"] = clock.seconds
    result["trials_per_s"] = result["ops_per_s"] = len(outcomes) / clock.seconds
    result["peak_rss_mb"] = peak_rss_mb()

    failed = 0
    edges_of = {}
    for case, graph, trial in outcomes:
        if case not in edges_of:
            edges_of[case] = (list(graph.nodes()), list(graph.edges()))
        nodes, edges = edges_of[case]
        bad, problems, note = checks.check_trial(trial, nodes, edges)
        failed += bad
        result["problems"] += problems
        if note:
            result["notes"].append(note)
    result["attempted"] = len(outcomes)
    result["failed"] = failed


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


class Server:
    """``repro serve`` in a child process of its own session."""

    def __init__(self, root, store, log_path, trace_dir=None):
        env = dict(os.environ)
        paths = [os.path.join(root, "src")]
        if trace_dir is not None:
            paths.insert(0, os.path.join(root, "perfbench", "hook"))
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        env["PYTHONPATH"] = os.pathsep.join(paths)
        # The deployment limit: generous enough that no benchmark read
        # is refused (the default is 20 requests/s, burst 40).
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--store", store,
                 "--port", "0", "--rate", "100000", "--burst", "100000"],
                cwd=root, env=env, stdout=subprocess.PIPE, stderr=log,
                start_new_session=True,
            )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        # The parent kills this session too if the repetition overruns.
        with open(os.path.join(os.path.dirname(log_path), "server.pid"), "w") as handle:
            handle.write(str(self.proc.pid))

    def peak_rss_mb(self):
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def stop(self):
        """SIGTERM (graceful drain), then make sure the whole session —
        the forkserver and any pool worker — is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            pass
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.05)
        else:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        if self.proc.stdout:
            self.proc.stdout.close()


def call(port, method, path, body=None, timeout=60):
    """One request; returns ``(status, raw body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def wait_campaign(port, campaign_id):
    """Follow the campaign's event stream until it closes, then read its
    handle.  Returns ``(status, handle)``."""
    status, _ = call(port, "GET", f"/v1/campaigns/{campaign_id}/events", timeout=120)
    if status // 100 != 2:
        return status, None
    status, raw = call(port, "GET", f"/v1/campaigns/{campaign_id}")
    return status, json.loads(raw) if status // 100 == 2 else None


def submit(port, payload, workers):
    status, raw = call(port, "POST", "/v1/campaigns",
                       {"version": 1, "spec": payload, "workers": workers})
    return status, json.loads(raw) if status // 100 == 2 else None


def read_batch(port, plan):
    """Send the reads over two closed-loop clients; returns
    ``[(latency s, status, raw body)]`` in plan order."""
    out = [None] * len(plan)

    def path_of(read):
        if read["kind"] == "status":
            return f"/v1/campaigns/{read['target']}"
        if read["kind"] == "page":
            return f"/v1/campaigns/{read['target']}/rows?offset={read['offset']}&limit={read['limit']}"
        return f"/v1/results/{read['target']}"

    def client(index):
        for i in range(index, len(plan), 2):
            path = path_of(plan[i])
            t0 = perf()
            try:
                status, raw = call(port, "GET", path)
            except OSError as exc:
                status, raw = 0, repr(exc).encode()
            out[i] = (perf() - t0, status, raw)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


@contextlib.contextmanager
def one_cpu(server_pid, notes):
    """Run this process's threads and every thread of the server on one
    CPU of the inherited set while the block runs, then give them their
    affinity back.  Threads started inside inherit the pin (the client
    threads here, the server's executor threads) and are restored too;
    the server's forkserver and pool workers are other processes and
    keep theirs.

    Each read is a hand-off from client to server and back.  With the
    two on different vCPUs every hand-off wakes an idle vCPU, and on a
    shared host the wake-ups turned 10 % CPU steal into half the read
    throughput; on one vCPU the hand-offs are plain context switches."""
    inherited = os.sched_getaffinity(0)
    server_affinity = os.sched_getaffinity(server_pid)

    def set_all(own, server):
        os.sched_setaffinity(0, own)
        for tid in os.listdir(f"/proc/{server_pid}/task"):
            try:
                os.sched_setaffinity(int(tid), server)
            except ProcessLookupError:
                pass

    cpu = {min(inherited)}
    try:
        set_all(cpu, cpu)
    except OSError as exc:
        notes.append(f"reads not pinned to one CPU: {exc!r}")
    try:
        yield
    finally:
        try:
            set_all(inherited, server_affinity)
        except OSError as exc:  # the server died; the checks report it
            notes.append(f"affinity not restored: {exc!r}")


def tail_latency(latencies):
    """Latency at the highest percentile that has at least ten reads
    beyond it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - 11)]


def serve_reference(cfg):
    """Rows an in-process serial ``run_campaign`` of each serve campaign
    writes into a store of its own, in the order the campaign's spec
    expands: ``{campaign id: rows}``."""
    from repro.api import SubmitRequest, campaign_from_dict, run_campaign

    plan = inputs.serve_inputs(cfg["seed"])
    store = os.path.join(cfg["work_dir"], "reference-store")
    out = {}
    for payload in plan["population"] + [plan["warmup"], plan["fresh"]]:
        request = SubmitRequest(spec=campaign_from_dict(payload), workers=1)
        outcome = run_campaign(request, store)
        out[request.campaign_id()] = checks.expansion_order(payload, list(outcome.rows.values()))
    return out


def serve(cfg, result):
    from repro.api import ResultStore, SubmitRequest, campaign_from_dict, run_campaign

    with open(cfg["reference_path"], encoding="utf-8") as handle:
        reference = json.load(handle)
    plan = inputs.serve_inputs(cfg["seed"])
    store = os.path.join(cfg["work_dir"], "store")
    problems = result["problems"]
    attempted = failed = 0

    # Set-up: the store, filled by real campaigns; the server; warm-up.
    campaigns = {}
    for payload in plan["population"]:
        request = SubmitRequest(spec=campaign_from_dict(payload), workers=1)
        outcome = run_campaign(request, store)
        campaigns[request.campaign_id()] = len(outcome.rows)
    fresh_request = SubmitRequest(spec=campaign_from_dict(plan["fresh"]), workers=2)
    fresh_id = fresh_request.campaign_id()
    fresh_games = len(fresh_request.spec.expand())
    trace_dir = None
    if cfg["trace"]:
        trace_dir = os.path.join(cfg["work_dir"], "trace")
        os.makedirs(trace_dir, exist_ok=True)
    server = Server(cfg["root"], store, os.path.join(cfg["work_dir"], "server.log"), trace_dir)
    try:
        attempted += 1
        status, handle = submit(server.port, plan["warmup"], 2)
        if status // 100 == 2:
            status, handle = wait_campaign(server.port, handle["id"])
        if status // 100 != 2 or handle is None or handle.get("state") != "done":
            failed += 1
            result["notes"].append(f"warm-up campaign: HTTP {status}, handle {handle}")
        else:
            campaigns[handle["id"]] = handle["done"]
        hashes = [row["spec_hash"] for cid in campaigns for row in reference[cid]]
        reads = inputs.read_plan(cfg["seed"], campaigns, hashes)
        result["setup_s"] = time.monotonic() - cfg["spawn_monotonic"]

        # Timed: rounds of the read batch, then the fresh campaign.
        rounds = []
        rates = result["ops_per_s_rounds"] = []
        with one_cpu(server.proc.pid, result["notes"]):
            for _ in range(inputs.READ_ROUNDS):
                with Clock() as read_clock:
                    rounds.append(read_batch(server.port, reads))
                rates.append(len(reads) / read_clock.seconds)
        with Clock() as clock:
            status, handle = submit(server.port, plan["fresh"], 2)
            if status // 100 == 2:
                status, handle = wait_campaign(server.port, handle["id"])
        result["campaign_s"] = result["batch_s"] = clock.seconds
        result["peak_rss_mb"] = server.peak_rss_mb()

        attempted += 1
        if status // 100 != 2 or handle is None or handle.get("state") != "done":
            failed += 1
            result["notes"].append(f"timed campaign: HTTP {status}, handle {handle}")
        else:
            if handle.get("quarantined"):
                problems.append(f"timed campaign quarantined {handle['quarantined']} games")
            page_status, raw = call(server.port, "GET", f"/v1/campaigns/{fresh_id}/rows?offset=0&limit=500")
            if page_status // 100 != 2:
                failed += 1
                result["notes"].append(f"timed campaign rows: HTTP {page_status}")
            else:
                problems += checks.check_page(json.loads(raw), fresh_id, reference[fresh_id], 0, 500)
    finally:
        server.stop()
    ledger = [entry for entry in ResultStore(store).runs()
              if entry.get("campaign") == fresh_request.spec.name]
    problems += checks.check_ledger(ledger[-1] if ledger else None, fresh_games)

    latencies = []
    by_hash = {row["spec_hash"]: row for rows in reference.values() for row in rows}
    for read, (latency, status, raw) in zip(reads * len(rounds), sum(rounds, [])):
        attempted += 1
        latencies.append(latency)
        if status // 100 != 2:
            failed += 1
            result["notes"].append(f"{read['kind']} read: HTTP {status}")
            continue
        body = json.loads(raw)
        if read["kind"] == "status":
            problems += checks.check_status(body, read["target"], campaigns[read["target"]])
        elif read["kind"] == "page":
            problems += checks.check_page(body, read["target"], reference[read["target"]],
                                          read["offset"], read["limit"])
        else:
            problems += checks.check_lookup(body, read["target"], by_hash[read["target"]])
    result["read_ms"] = 1000.0 * statistics.median(latencies)
    result["read_tail_ms"] = 1000.0 * tail_latency(latencies)
    result["reads_per_s"] = result["ops_per_s"] = statistics.median(rates)
    result["attempted"] = attempted
    result["failed"] = failed
    if trace_dir is not None:
        result["trace_files"] = sorted(
            os.path.join(trace_dir, name) for name in os.listdir(trace_dir)
            if name.startswith("agg-") and name.endswith(".json")
        )


WORKLOADS = {"tournament": tournament, "survival": survival, "serve": serve}


def main(argv):
    with open(argv[1], encoding="utf-8") as handle:
        cfg = json.load(handle)
    result = {"problems": [], "notes": [], "attempted": 0, "failed": 0}
    if cfg["workload"] == "serve-reference":
        result["reference"] = serve_reference(cfg)
    else:
        global TRACER
        if cfg["trace"] and cfg["workload"] != "serve":
            import tracing
            TRACER = tracing.install()
        WORKLOADS[cfg["workload"]](cfg, result)
        if cfg["rep"] == 0:
            result["settings"] = effective_settings()
        if TRACER is not None:
            result["trace"] = TRACER.snapshot()
    with open(cfg["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
