"""Outside-in tracing: spans around the public calls into each layer.

:meth:`Tracer.install` wraps program functions from the benchmark's
side -- the program itself carries no tracing code.  Each wrapped call
records one span ``(span_id, parent_id, layer, start, end)`` in memory;
the spans are written out once, with the run id, when the traced pass
ends.  A layer's
self time is its spans' total duration minus the time their child spans
cover, so the self times of all layers add up to the root span.

Counts are read where the work happens: events from the return value of
``Simulator.run``, cache hits from ``ResultCache.get``'s return value,
and the simulated packet/TCP counters from each network's
``metrics_snapshot()`` after every run segment.  Forked networks carry
their warm-up counters, so the sums equal those of a cold run and do
not move when warm starts are turned on or off.

Only the tracing process records: pool workers inherit the wrappers
through ``fork`` but pass straight through, so worker-side numbers come
from ``RunnerStats`` instead.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List

#: The counters summed over every simulated network.
SIM_COUNTS = ("link.bottleneck_packets", "queue.drops", "tcp.retransmits",
              "tcp.fast_recoveries", "tcp.timeouts", "attacker.packets")


def _net_counts(net) -> tuple:
    link = net.bottleneck.metrics_snapshot()
    senders = [s.metrics_snapshot() for s in net.senders]
    return (
        link["accepted_packets"],
        link["dropped_packets"],
        sum(s["retransmissions"] for s in senders),
        sum(s["fast_retransmits"] for s in senders),
        sum(s["timeouts"] for s in senders),
        float(sum(a.packets_emitted for a in net.attack_sources)),
    )


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = [0]
        self._next_id = 1
        self._net_tokens = weakref.WeakKeyDictionary()
        self._net_counts: Dict[int, tuple] = {}
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def span(self, layer: str, fn, on_return=None):
        """*fn* wrapped to record a *layer* span per call."""
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, layer, start, end))
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def patch(self, owner, name: str, layer: str, on_return=None) -> None:
        original = vars(owner)[name]
        setattr(owner, name, self.span(layer, original, on_return))
        self._undo.append(lambda: setattr(owner, name, original))

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def _record_net(self, args, _result) -> None:
        net = args[0]
        token = self._net_tokens.get(net)
        if token is None:
            token = self._net_tokens[net] = len(self._net_counts)
        self._net_counts[token] = _net_counts(net)

    def sim_counts(self) -> Dict[str, float]:
        totals = [0.0] * len(SIM_COUNTS)
        for counts in self._net_counts.values():
            totals = [a + b for a, b in zip(totals, counts)]
        return dict(zip(SIM_COUNTS, totals))

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public call into every layer the workloads reach."""
        from repro.obs.store import ExperimentStore
        from repro.runner import planner, runner as runner_mod
        from repro.runner.cache import ResultCache
        from repro.runner.cells import PlatformSpec
        from repro.sim import fluid
        from repro.sim.checkpoint import NetworkSnapshot
        from repro.sim.engine import Simulator
        from repro.sim.topology import DumbbellNetwork

        count = self.count
        self.patch(runner_mod.ExperimentRunner, "measure_many", "runner")
        self.patch(planner, "run_planned_sweep", "planner")
        self.patch(runner_mod, "cell_key", "cache.key")
        self.patch(ResultCache, "get", "cache.get",
                   lambda a, r: count("cache.hits", r is not None))
        self.patch(ResultCache, "put", "cache.put")
        self.patch(ExperimentStore, "record_cell", "store")
        self.patch(PlatformSpec, "build", "topology")
        self.patch(NetworkSnapshot, "__init__", "checkpoint.snapshot")
        self.patch(NetworkSnapshot, "fork", "checkpoint.fork")
        self.patch(fluid, "simulate_fluid", "fluid")
        self.patch(Simulator, "run", "engine",
                   lambda a, events: count("engine.events", events))
        # Not a span: reads the network's counters after each segment.
        original = DumbbellNetwork.__dict__["run"]
        record = self._record_net

        def net_run(net, *args, **kwargs):
            result = original(net, *args, **kwargs)
            if os.getpid() == self.pid:
                record((net,), result)
            return result

        DumbbellNetwork.run = net_run
        self._undo.append(lambda: setattr(DumbbellNetwork, "run", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans out (one JSON object per line)."""
        with open(path, "w") as handle:
            for span_id, parent, layer, start, end in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "layer": layer, "start": start, "end": end,
                }) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call (measured on a no-op)."""

    def noop():
        return None

    tracer = Tracer("calibration")
    wrapped = tracer.span("noop", noop)
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - started - bare, 0.0) / calls


def ledger(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per layer: span count, total time and self time, in seconds."""
    child_time: Dict[int, float] = defaultdict(float)
    for _span_id, parent, _layer, start, end in spans:
        child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for span_id, _parent, layer, start, end in spans:
        row = table.setdefault(layer, {"n": 0, "total_s": 0.0, "self_s": 0.0})
        row["n"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time.get(span_id, 0.0)
    return table
