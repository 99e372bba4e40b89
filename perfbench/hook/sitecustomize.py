"""Installs the benchmark's tracing wrappers in every Python process
started with this directory on ``PYTHONPATH`` and ``PERFBENCH_TRACE_DIR``
set: the traced ``serve`` run launches the server this way, so the
server, its forkserver and the pool workers forked from it are all
traced.  Each process writes ``agg-<pid>.json`` into that directory."""

import os

_TRACE_DIR = os.environ.get("PERFBENCH_TRACE_DIR")
if _TRACE_DIR:
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    tracing.install(os.path.join(_TRACE_DIR, f"agg-{os.getpid()}.json"))
