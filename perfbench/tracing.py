"""Per-layer tracing for the benchmark's traced runs.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces the public functions and methods of each layer with thin
wrappers that time every call.  A layer's *self time* is the time its
calls took minus the time spent in nested calls into other wrapped
functions (its child spans), so every second is attributed to exactly
one layer.  Nested calls within the same layer are folded into that
layer.

Spans are aggregated in memory per function and per layer; coarse
spans (games, store writes and scans, pool drains, requests) are also
kept as records.  ``write`` dumps the aggregate to a JSON file when the
process is done.  Server-side processes, which the benchmark stops with
a signal and whose pool workers end with ``os._exit``, also rewrite
their file at most every ``FLUSH_SECONDS`` between top-level spans.

A target that no longer exists is recorded as missing, and every
metric that depends only on missing targets is reported as missing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time

perf = time.perf_counter

#: Layers in reporting order.
LAYERS = (
    "graphs.build",
    "graphs.ball",
    "models.reveal",
    "core.step",
    "adversaries",
    "verify",
    "robustness.supervise",
    "campaign.expand",
    "store.write",
    "store.index",
    "worker_pool",
    "server",
    "server.covered_rows",
)
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: Layers whose individual spans are kept as records (the others are
#: hot leaf calls, aggregated only).
COARSE = {
    "adversaries", "robustness.supervise", "store.write", "store.index",
    "worker_pool", "server", "server.covered_rows",
}
MAX_RECORDS = 20000
FLUSH_SECONDS = 0.5

#: Per-layer metric -> (unit, source).  ``source`` is ``("self", layer)``
#: (layer self time), ``("outer", layer)`` (outermost calls into the
#: layer), ``("calls", target)`` (calls of one function) or
#: ``("extra", counter, dependency)``; a metric is missing when its
#: layer, function or dependency has nothing installed.
METRICS = {
    "graphs.build_s": ("s", ("self", "graphs.build")),
    "graphs.add_edge_calls": ("count", ("calls", "repro.graphs.graph:Graph.add_edge")),
    "graphs.ball_s": ("s", ("self", "graphs.ball")),
    "graphs.ball_calls": ("count", ("calls", "repro.graphs.traversal:BallCache.ball")),
    "graphs.ball_misses": ("count", ("calls", "repro.graphs.traversal:ball")),
    "graphs.ball_nodes": ("count", ("extra", "ball_nodes", "repro.graphs.traversal:ball")),
    "models.reveal_self_s": ("s", ("self", "models.reveal")),
    "core.step_s": ("s", ("self", "core.step")),
    "core.step_calls": ("count", ("outer", "core.step")),
    "adversaries.self_s": ("s", ("self", "adversaries")),
    "verify.check_s": ("s", ("self", "verify")),
    "robustness.supervise_s": ("s", ("self", "robustness.supervise")),
    "campaign.expand_s": ("s", ("self", "campaign.expand")),
    "store.write_s": ("s", ("self", "store.write")),
    "store.write_calls": ("count", ("outer", "store.write")),
    "store.bytes_written": ("B", ("extra", "bytes_written", "store.write")),
    "store.index_s": ("s", ("self", "store.index")),
    "store.index_calls": ("count", ("outer", "store.index")),
    "store.rows_parsed": ("count", ("extra", "rows_parsed", "repro.analysis.store:ResultStore.rows")),
    "worker_pool.run_s": ("s", ("self", "worker_pool")),
    "worker_pool.games": ("count", ("extra", "pool_games", "worker_pool")),
    "server.handle_self_s": ("s", ("self", "server")),
    "server.requests": ("count", ("calls", "repro.server.app:ColoringServer._handle_connection")),
    "server.covered_rows_s": ("s", ("self", "server.covered_rows")),
}


def _classes_with(package, names, module_filter=None):
    """``module:Class.method`` targets for every class defined in the
    modules of ``package`` whose own namespace defines one of ``names``."""
    out = []
    try:
        pkg = importlib.import_module(package)
    except ImportError:
        return out
    modules = [pkg]
    for info in pkgutil.iter_modules(getattr(pkg, "__path__", [])):
        try:
            modules.append(importlib.import_module(f"{package}.{info.name}"))
        except ImportError:
            continue
    for module in modules:
        if module_filter is not None and not module_filter(module.__name__):
            continue
        for cls_name, cls in sorted(vars(module).items()):
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for name in names:
                if name in vars(cls):
                    out.append(f"{module.__name__}:{cls_name}.{name}")
    return out


def _functions_in(package, exclude=()):
    """``module:function`` targets for every public function defined in
    the modules of ``package``."""
    out = []
    try:
        pkg = importlib.import_module(package)
    except ImportError:
        return out
    for info in pkgutil.iter_modules(getattr(pkg, "__path__", [])):
        try:
            module = importlib.import_module(f"{package}.{info.name}")
        except ImportError:
            continue
        for name, fn in sorted(vars(module).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and name not in exclude
            ):
                out.append(f"{module.__name__}:{name}")
    return out


def targets():
    """Every (layer, target) pair the traced run wraps."""
    pairs = []
    graph_methods = (
        "__init__", "add_node", "add_edge", "add_edges", "copy",
        "induced_subgraph", "relabel",
    )
    pairs += [("graphs.build", f"repro.graphs.graph:Graph.{m}") for m in graph_methods]
    pairs += [("graphs.build", t) for t in _classes_with("repro.families", ("__init__",))]
    pairs += [
        ("graphs.build", t)
        for t in _functions_in("repro.families", exclude=("random_reveal_order", "scattered_reveal_order"))
    ]
    pairs += [
        ("graphs.ball", "repro.graphs.traversal:BallCache.ball"),
        ("graphs.ball", "repro.graphs.traversal:ball"),
    ]
    pairs += [("models.reveal", t) for t in _classes_with(
        "repro.models", ("reveal", "run", "extend"),
    )]
    pairs += [("core.step", t) for t in _classes_with("repro.core", ("step",))]
    pairs += [("core.step", t) for t in _classes_with(
        "repro.models", ("step",), lambda name: name.endswith(".simulation"),
    )]
    pairs += [("adversaries", t) for t in _classes_with("repro.adversaries", ("run", "step"))]
    pairs += [("verify", t) for t in _functions_in("repro.verify")]
    pairs += [
        ("robustness.supervise", "repro.robustness.supervisor:SupervisedGame.run"),
        ("robustness.supervise", "repro.robustness.supervisor:SupervisedAlgorithm.step"),
        ("robustness.supervise", "repro.analysis.executor:play_spec"),
        ("campaign.expand", "repro.analysis.campaign:CampaignSpec.expand"),
        ("campaign.expand", "repro.analysis.campaign:hash_of"),
        ("store.write", "repro.analysis.store:ResultStore.add"),
        ("store.write", "repro.analysis.store:ResultStore.add_many"),
        ("store.write", "repro.analysis.store:ResultStore.record_manifest"),
        ("store.write", "repro.analysis.store:ResultStore.record_run"),
        ("store.index", "repro.analysis.store:ResultStore.rows"),
        ("store.index", "repro.analysis.store:ResultStore.index"),
        ("worker_pool", "repro.analysis.worker_pool:SupervisedWorkerPool.run"),
        ("server", "repro.server.app:ColoringServer._handle_connection"),
        ("server", "repro.server.app:ColoringServer._build_handle_sync"),
        ("server", "repro.server.app:ColoringServer._build_page"),
        ("server.covered_rows", "repro.analysis.campaign:covered_rows"),
    ]
    # The same method can be reached through two discovery rules; keep
    # the first layer assigned.
    seen = set()
    unique = []
    for layer, target in pairs:
        if target not in seen:
            seen.add(target)
            unique.append((layer, target))
    return unique


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []
        self.depth = [0] * len(LAYERS)


class Tracer:
    """In-memory span aggregate for one process."""

    def __init__(self):
        self.reset()
        self.installed = []
        self.installed_layers = set()
        self.missing = []
        self.out_path = None
        self.last_flush = 0.0

    def reset(self):
        self.pid = os.getpid()
        self.state = _ThreadState()
        self.self_s = [0.0] * len(LAYERS)
        self.outer = [0] * len(LAYERS)
        self.calls = {}
        self.fn_self = {}
        self.extra = {"ball_nodes": 0, "bytes_written": 0, "rows_parsed": 0, "pool_games": 0}
        self.records = []
        self.lock = threading.Lock()

    # -- span bookkeeping ---------------------------------------------
    def enter(self, layer):
        state = self.state
        frame = [0.0, layer, state.depth[layer] == 0, perf()]
        state.depth[layer] += 1
        state.stack.append(frame)
        return frame

    def leave(self, frame, target):
        end = perf()
        state = self.state
        state.stack.pop()
        layer = frame[1]
        state.depth[layer] -= 1
        duration = end - frame[3]
        own = duration - frame[0]
        if state.stack:
            state.stack[-1][0] += duration
        with self.lock:
            self.self_s[layer] += own
            self.fn_self[target] = self.fn_self.get(target, 0.0) + own
            if frame[2]:
                self.outer[layer] += 1
            if LAYERS[layer] in COARSE and len(self.records) < MAX_RECORDS:
                self.records.append(
                    (target, frame[3], end, len(state.stack), threading.get_ident())
                )
        if not state.stack and self.out_path and end - self.last_flush > FLUSH_SECONDS:
            self.write()

    def count(self, target):
        with self.lock:
            self.calls[target] = self.calls.get(target, 0) + 1

    def add_extra(self, key, amount):
        with self.lock:
            self.extra[key] += amount

    # -- output ----------------------------------------------------------
    def snapshot(self):
        with self.lock:
            return self._snapshot()

    def _snapshot(self):
        return {
            "pid": self.pid,
            "layers": {name: {"self_s": self.self_s[i], "outer_calls": self.outer[i]}
                       for i, name in enumerate(LAYERS)},
            "calls": dict(self.calls),
            "fn_self_s": dict(self.fn_self),
            "extra": dict(self.extra),
            "installed": list(self.installed),
            "installed_layers": sorted(self.installed_layers),
            "missing": list(self.missing),
            "records": list(self.records),
        }

    def write(self, path=None):
        path = path or self.out_path
        if not path:
            return
        self.last_flush = perf()
        tmp = f"{path}.tmp-{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


TRACER = Tracer()


def _store_bytes(store):
    total = 0
    try:
        with os.scandir(store.root) as entries:
            for entry in entries:
                if entry.is_file():
                    total += entry.stat().st_size
    except OSError:
        pass
    return total


def _hooks_for(target, layer_name):
    """``(pre, post)`` per-call hooks feeding the extra counters.

    ``pre(args)`` runs before the call and its value is handed to
    ``post(args, result, before)``.  Store writes are measured as the
    growth of the store directory, once per outermost write.
    """
    if layer_name == "store.write":
        return (
            lambda args: _store_bytes(args[0]),
            lambda args, result, before: TRACER.add_extra(
                "bytes_written", _store_bytes(args[0]) - before
            ),
        )
    if target == "repro.graphs.traversal:ball":
        return None, lambda args, result, before: TRACER.add_extra("ball_nodes", len(result))
    if target == "repro.analysis.store:ResultStore.rows":
        return None, lambda args, result, before: TRACER.add_extra("rows_parsed", len(result))
    if target == "repro.analysis.worker_pool:SupervisedWorkerPool.run":
        return (lambda args: TRACER.add_extra("pool_games", len(args[1]))), None
    return None, None


def _wrap(fn, layer_name, target):
    layer = _LAYER_INDEX[layer_name]
    pre, post = _hooks_for(target, layer_name)
    outermost_only = layer_name == "store.write"
    tracer = TRACER

    if inspect.iscoroutinefunction(fn):
        async def traced_async(*args, **kwargs):
            tracer.count(target)
            return await _Stepped(fn(*args, **kwargs), layer, target)
        traced_async.__wrapped__ = fn
        return traced_async

    def traced(*args, **kwargs):
        tracer.count(target)
        frame = tracer.enter(layer)
        hooked = frame[2] or not outermost_only
        before = pre(args) if (pre is not None and hooked) else None
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, target)
        if post is not None and hooked:
            post(args, result, before)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


class _Stepped:
    """Await a coroutine while timing only the steps it runs on the
    event loop (time spent suspended is not the handler's own time)."""

    __slots__ = ("coro", "layer", "target")

    def __init__(self, coro, layer, target):
        self.coro = coro
        self.layer = layer
        self.target = target

    def __await__(self):
        coro = self.coro
        value, error = None, None
        while True:
            frame = TRACER.enter(self.layer)
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                TRACER.leave(frame, self.target)
                return stop.value
            except BaseException:
                TRACER.leave(frame, self.target)
                raise
            TRACER.leave(frame, self.target)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # noqa: BLE001 - forwarded
                value, error = None, exc


def _resolve(target):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    name = parts[-1]
    if inspect.isclass(owner):
        fn = vars(owner).get(name)
    else:
        fn = getattr(owner, name, None)
    if fn is None or not callable(fn):
        return None, None, None
    return owner, name, fn


def install(out_path=None):
    """Wrap every target; returns the tracer.  Idempotent."""
    if TRACER.installed or TRACER.missing:
        return TRACER
    wrapped = {}
    for layer, target in targets():
        owner, name, fn = _resolve(target)
        if fn is None:
            TRACER.missing.append(target)
            continue
        wrapper = _wrap(fn, layer, target)
        setattr(owner, name, wrapper)
        if not inspect.isclass(owner):
            wrapped[id(fn)] = (fn, wrapper)
        TRACER.installed.append(target)
        TRACER.installed_layers.add(layer)
    # Re-exports (``from repro.verify.coloring import is_proper``) hold
    # the original function object: rebind those names too.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    TRACER.out_path = out_path
    if out_path:
        import atexit
        atexit.register(TRACER.write)
        _register_fork_hooks()
    return TRACER


def _register_fork_hooks():
    """Forked pool workers start from an empty aggregate, write their own
    file, and flush through multiprocessing's exit hook (worker
    processes end with ``os._exit``, which skips ``atexit``)."""
    def after_fork_in_child():
        TRACER.reset()
        base = os.path.dirname(TRACER.out_path)
        TRACER.out_path = os.path.join(base, f"agg-{os.getpid()}.json")
        TRACER.last_flush = 0.0

    os.register_at_fork(after_in_child=after_fork_in_child)
    try:
        from multiprocessing import util
    except ImportError:  # pragma: no cover
        return

    class _Anchor:
        pass

    anchor = _Anchor()
    TRACER._anchor = anchor

    def register_finalizer(_):
        util.Finalize(None, TRACER.write, exitpriority=100)

    util.register_after_fork(anchor, register_finalizer)


# ----------------------------------------------------------------------
# Reading aggregates back
# ----------------------------------------------------------------------


def merge(snapshots):
    """Sum process aggregates into one."""
    total = {
        "layers": {name: {"self_s": 0.0, "outer_calls": 0} for name in LAYERS},
        "calls": {},
        "fn_self_s": {},
        "extra": {},
        "installed": set(),
        "installed_layers": set(),
        "missing": None,
        "processes": 0,
        "records": {},
    }
    for snap in snapshots:
        total["processes"] += 1
        total["records"][snap["pid"]] = snap.get("records", [])
        for name, values in snap["layers"].items():
            if name in total["layers"]:
                total["layers"][name]["self_s"] += values["self_s"]
                total["layers"][name]["outer_calls"] += values["outer_calls"]
        for key in ("calls", "fn_self_s", "extra"):
            for k, v in snap[key].items():
                total[key][k] = total[key].get(k, 0) + v
        total["installed"].update(snap["installed"])
        total["installed_layers"].update(snap["installed_layers"])
        missing = set(snap["missing"])
        total["missing"] = missing if total["missing"] is None else total["missing"] & missing
    total["installed"] = sorted(total["installed"])
    total["installed_layers"] = sorted(total["installed_layers"])
    total["missing"] = sorted(total["missing"] or ())
    return total


def layer_metrics(total):
    """The per-layer metrics of one merged aggregate:
    ``{name: (value, unit, missing)}``."""
    installed = set(total["installed"])
    layers_present = set(total["installed_layers"])
    out = {}
    for metric, (unit, source) in METRICS.items():
        kind = source[0]
        if kind == "self":
            value = total["layers"][source[1]]["self_s"]
            present = source[1] in layers_present
        elif kind == "outer":
            value = total["layers"][source[1]]["outer_calls"]
            present = source[1] in layers_present
        elif kind == "calls":
            value = total["calls"].get(source[1], 0)
            present = source[1] in installed
        else:
            value = total["extra"].get(source[1], 0)
            dep = source[2]
            present = dep in installed if ":" in dep else dep in layers_present
        out[metric] = (value, unit, not present)
    return out
