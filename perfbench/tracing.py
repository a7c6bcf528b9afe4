"""In-memory span tracer patched around the public calls of each layer.

A traced trial installs wrappers on the names the program looks up at run
time (a class attribute, or a module global at the module that imports it,
such as the fault injector's own ``recover_routing``) with
``unittest.mock.patch.object``, records one span per call, and restores
every original when the trial closes its patch stack.  Spans stay in memory; forked
pool workers append theirs to one JSON-lines file each after every batch,
and :meth:`Tracer.collect` merges them back.

A span is ``[name, pid, id, parent, start, end]``; ``parent`` is the id of
the enclosing span, which a forked worker inherits from the sweep that
forked it.  Counters are plain name -> int totals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List
from unittest import mock


class Tracer:
    """Records spans and counters; merges those of forked workers."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[str] = []
        self._next = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker keeps the open-span stack (so its spans point at
        # the sweep that forked it) but none of the parent's records.
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()

    def span(self, name: str, function):
        """``function`` wrapped so that each call records one span."""

        @functools.wraps(function, updated=())
        def traced(*args, **kwargs):
            span_id = f"{self.pid}:{self._next}"
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append([name, self.pid, span_id, parent, start, end])

        return traced

    def spill(self) -> None:
        """Append a worker's records to its own file and forget them."""
        if self.pid == self.root_pid or not (self.spans or self.counts):
            return
        record = {"spans": self.spans, "counts": dict(self.counts)}
        with open(self.spill_dir / f"worker-{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect(self) -> None:
        """Merge every worker file into this process's records."""
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                self.spans.extend(record["spans"])
                self.counts.update(record["counts"])
            path.unlink()


def self_times(spans: List[list]) -> Dict[str, float]:
    """Span id -> its duration minus the durations of its direct children.

    Only children in the parent's own process are subtracted: the batches
    a forked worker runs overlap one another and do not occupy the process
    that waits for them.
    """
    pid_of = {span_id: pid for _, pid, span_id, _, _, _ in spans}
    child_time: Dict[str, float] = defaultdict(float)
    for _, pid, _, parent, start, end in spans:
        if parent is not None and pid_of.get(parent) == pid:
            child_time[parent] += end - start
    return {
        span_id: (end - start) - child_time[span_id]
        for _, _, span_id, _, start, end in spans
    }


def install(tracer: Tracer, patches: contextlib.ExitStack) -> None:
    """Wrap the public call of every layer; closing ``patches`` restores them."""
    from repro.core.framework import MultichipSimulation
    from repro.faults import injector, recovery
    from repro.metrics.saturation import LoadPointSummary
    from repro.noc import engine
    from repro.parallel import runner
    from repro.parallel.cache import ResultCache
    from repro.routing.base import BaseRouter
    from repro.routing.dijkstra import ShortestPathForest

    def replace(owner, name, value):
        patches.enter_context(mock.patch.object(owner, name, value))

    def classmethod_span(owner, name, span_name):
        original = owner.__dict__[name].__func__
        replace(owner, name, classmethod(tracer.span(span_name, original)))

    classmethod_span(MultichipSimulation, "from_config", "core.build")
    classmethod_span(LoadPointSummary, "from_result", "metrics.summary")
    replace(engine, "Network", tracer.span("noc.network_build", engine.Network))
    replace(engine.Simulator, "run", tracer.span("noc.run", engine.Simulator.run))
    replace(
        ShortestPathForest, "_run", tracer.span("routing.dijkstra", ShortestPathForest._run)
    )
    replace(
        injector, "recover_routing", tracer.span("faults.recover", injector.recover_routing)
    )
    replace(
        recovery, "rebuild_routes", tracer.span("routing.rebuild", recovery.rebuild_routes)
    )
    replace(
        recovery,
        "find_channel_dependency_cycle",
        tracer.span("routing.cdg_check", recovery.find_channel_dependency_cycle),
    )
    replace(ResultCache, "get", tracer.span("parallel.cache_get", ResultCache.get))
    replace(ResultCache, "put", tracer.span("parallel.cache_put", ResultCache.put))
    replace(runner, "stable_hash", tracer.span("parallel.hash", runner.stable_hash))

    # Route lookups are far too many for one span each: count them, and
    # count a computation whenever the pair is not yet in the route cache.
    route = BaseRouter.route

    @functools.wraps(route)
    def counted_route(router, src_switch, dst_switch):
        tracer.counts["routing.route_calls"] += 1
        if (src_switch, dst_switch) not in router._cache:
            tracer.counts["routing.routes_computed"] += 1
        return route(router, src_switch, dst_switch)

    replace(BaseRouter, "route", counted_route)

    # The pool pickles the batch function by name, so a forked worker
    # resolves it to this (inherited) wrapper and spills after each batch.
    execute = tracer.span("parallel.execute", runner.execute_task_batch)

    @functools.wraps(runner.execute_task_batch)
    def execute_and_spill(*args, **kwargs):
        try:
            return execute(*args, **kwargs)
        finally:
            tracer.spill()

    replace(runner, "execute_task_batch", execute_and_spill)
