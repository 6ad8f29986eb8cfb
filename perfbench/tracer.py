"""Layer spans for the traced run, recorded from outside the program.

A traced run patches the public entry points of every layer with a thin
span recorder and installs :meth:`Tracer.on_event` as the engine's
``Engine.default_instrument`` hook.  Nothing under ``src/`` changes; an
untraced run never imports this module's patches.

Host time
    Each span measures one call into a layer (a component's ``issue()``,
    ``ChannelController.enqueue``, ``PcmDevice.access``, a trace build, a
    world construction, a store read or write, ...).  A span's *self* time
    is its duration minus the spans it encloses, charged to the span's
    layer.  Engine events are charged by the hook: the host time between
    two hook calls belongs to the layer that owns the event's handler
    (the module of the handler's bound object), minus the spans the
    handler called into and minus the kernel's own per-event cost.  That
    cost is calibrated once per tracer on no-op events and charged to
    ``sim.engine``, so ``sim.engine.self_s`` is the host time in
    ``Engine.run`` outside every layer.  The hook's own cost is charged to
    ``perfbench.tracer``.

Simulated time
    The issue wrappers note ``engine.now_ps`` for every real read a layer
    accepts; the hook notes the time the layer's completion event fires
    for that request.  A layer's simulated self time is its latency minus
    the latency of the layer below it for the same request.

Spans of the first jobs of a run are also kept as records (name, start,
end, parent, job id) and written as Chrome trace-event JSON at the end.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter

#: Layer that owns the calibrated per-event kernel cost.
ENGINE = "sim.engine"
#: Layer charged with the hook's own bookkeeping.
TRACER = "perfbench.tracer"
#: Span records kept in memory for the trace file.
MAX_RECORDS = 50_000


def layer_of_type(cls: type) -> str:
    """Layer name of a class: its module without the package prefix."""
    module = getattr(cls, "__module__", "") or ""
    if module.startswith("repro."):
        return module[len("repro.") :]
    return "other"


class Tracer:
    """Span recorder plus engine hook; see the module docstring."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        #: The tracing process, and the process whose totals these are (a
        #: forked pool worker adopts the tracer and keeps its own totals).
        self.root_pid = self.pid = os.getpid()
        self.self_s: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.events: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.sim_self_ns: dict[str, float] = defaultdict(float)
        self.sim_reads: dict[str, int] = defaultdict(int)
        #: Open spans: ``[name, layer, start, child_s, record_index]``.
        self.stack: list[list] = []
        self.records: list[list] = []
        self.recording = False
        #: Job id stamped on kept spans; advanced at every finished world.
        self.job = 0
        self.engine_cost_s = 0.0
        #: Cost of invoking the hook that its own timing window misses.
        self.hook_call_s = 0.0
        self._event_last = 0.0
        self._event_child = 0.0
        self._owner_layers: dict[type, str] = {}
        #: ``(layer, request_id) -> now_ps`` of reads a layer accepted.
        self._issued: dict[tuple[str, int], int] = {}
        #: ``request_id -> latency_ps`` at the last layer that completed it.
        self._below: dict[int, int] = {}
        self._completions: dict = {}
        self._trace_lookups = (0, 0)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, layer: str) -> None:
        if os.getpid() != self.pid:
            self._adopt_child()
        index = -1
        start = perf()
        if self.recording and len(self.records) < MAX_RECORDS:
            index = len(self.records)
            parent = self.stack[-1][4] if self.stack else -1
            self.records.append([name, start, start, parent, self.job])
        self.stack.append([name, layer, start, 0.0, index])

    def exit(self) -> None:
        end = perf()
        name, layer, start, child, index = self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.span_s[name] += duration
        self.calls[name] += 1
        if index >= 0:
            self.records[index][2] = end
        if self.stack:
            if self.stack[-1][0] == "sim.engine.run":
                self._event_child += duration
            else:
                self.stack[-1][3] += duration
        elif self.pid != self.root_pid:
            self._flush_child()

    def span(self, name: str, layer: str, method):
        """Wrap ``method`` so every call records one span."""
        tracer = self

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            tracer.enter(name, layer)
            try:
                return method(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    # -- engine hook ---------------------------------------------------------

    def on_event(self, time_ps: int, callback) -> None:
        """``Engine.default_instrument``: charge the event just executed."""
        now = perf()
        elapsed = now - self._event_last
        bound = getattr(callback, "func", callback)
        owner = type(getattr(bound, "__self__", None))
        layer = self._owner_layers.get(owner)
        if layer is None:
            layer = self._owner_layers[owner] = layer_of_type(owner)
        available = elapsed - self._event_child
        call = available if available < self.hook_call_s else self.hook_call_s
        available -= call
        kernel = available if available < self.engine_cost_s else self.engine_cost_s
        self.self_s[layer] += available - kernel
        self.self_s[ENGINE] += kernel
        self.events[layer] += 1
        completion = self._completions.get(getattr(bound, "__func__", None))
        if completion is not None:
            completed_layer, extract = completion
            self._complete(completed_layer, extract(callback.args), time_ps)
        self._event_child = 0.0
        end = perf()
        self.stack[-1][3] += elapsed + (end - now)
        self.self_s[TRACER] += end - now + call
        self._event_last = end

    def _run_span(self, method):
        tracer = self

        @functools.wraps(method)
        def run(engine, *args, **kwargs):
            tracer.enter("sim.engine.run", ENGINE)
            tracer._event_child = 0.0
            tracer._event_last = perf()
            try:
                return method(engine, *args, **kwargs)
            finally:
                tracer.exit()

        return run

    def _chain_run(self, events: int, chains: int, hooked: bool) -> float:
        """Seconds per event of a no-op event chain, with or without hook."""
        from repro.sim.engine import Engine

        engine = Engine()
        engine._instrument = self.on_event if hooked else None
        for chain in range(chains):
            engine.post(chain, _Chain(engine, events // chains).fire)
        run = self._run_span(Engine.run)
        started = perf()
        run(engine)
        return (perf() - started) / engine.events_executed

    def calibrate(self, events: int = 20_000, chains: int = 16) -> None:
        """Measure the kernel's per-event cost and the hook's call cost.

        ``chains`` self-rescheduling no-op events keep the heap as small as
        a simulation's, so each event costs one pop, one dispatch and one
        post -- the kernel work every real event carries.  The same chain
        with the hook installed gives the cost of calling the hook that
        falls outside the hook's own timing window.
        """
        before = dict(self.self_s)
        self.engine_cost_s = self.hook_call_s = 0.0
        plain = min(self._chain_run(events, chains, False) for _ in range(3))
        hooked = []
        for _ in range(3):
            self.self_s.clear()
            per_event = self._chain_run(events, chains, True)
            hooked.append(per_event - self.self_s[TRACER] / events)
        self.engine_cost_s = plain
        self.hook_call_s = max(0.0, min(hooked) - plain)
        self.self_s.clear()
        self.self_s.update(before)
        self.span_s.pop("sim.engine.run", None)
        self.calls.pop("sim.engine.run", None)
        self.events.clear()

    # -- simulated time ------------------------------------------------------

    def issued(self, layer: str, request, now_ps: int) -> None:
        """Note a real read entering ``layer`` at simulated ``now_ps``."""
        if request.is_read and not request.is_dummy:
            self._issued[(layer, request.request_id)] = now_ps

    def _complete(self, layer: str, request, time_ps: int) -> None:
        started = self._issued.pop((layer, request.request_id), None)
        if started is None:
            return
        latency = time_ps - started
        below = self._below.get(request.request_id, 0)
        self._below[request.request_id] = latency
        self.sim_self_ns[layer] += (latency - below) / 1000.0
        self.sim_reads[layer] += 1

    def end_job(self) -> None:
        """Start the next job id; forget per-request simulated state."""
        self.job += 1
        self._issued.clear()
        self._below.clear()

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Patch every layer entry point and install the engine hook."""
        from repro.core.controller import ObfusMemController
        from repro.core.hide import HideController
        from repro.experiments import checkpoints, sweep, trace_cache
        from repro.experiments.checkpoints import CheckpointStore
        from repro.experiments.executor import JobSpec, ParallelRunner, ResultCache
        from repro.experiments.trace_cache import KernelTraceSpec, SyntheticTraceSpec
        from repro.mem.hierarchy import CacheHierarchy
        from repro.mem.pcm import PcmDevice
        from repro.mem.scheduler import ChannelController, MemorySystem
        from repro.oram.timing import OramMemoryModel
        from repro.secure.memory_encryption import SecureMemoryController
        from repro.sim.engine import Engine
        from repro.system.world import SimCheckpoint, SimWorld

        if self.engine_cost_s == 0.0:
            self.calibrate()
        self._trace_lookups = trace_cache.counters()
        self._completions = {
            ChannelController._finish: ("mem.scheduler", lambda args: args[1]),
            ObfusMemController._complete_read: (
                "core.controller",
                lambda args: args[1],
            ),
            SecureMemoryController._deliver: (
                "secure.memory_encryption",
                lambda args: args[0].request,
            ),
            OramMemoryModel._finish: ("oram.timing", lambda args: args[0]),
        }

        def plain(cls, method, layer, name=None):
            self._patch(
                cls,
                method,
                self.span(
                    name or f"{layer}:{cls.__name__}.{method}",
                    layer,
                    cls.__dict__[method],
                ),
            )

        def timed_issue(cls, method, layer):
            original = cls.__dict__[method]
            name = f"{layer}:{cls.__name__}.{method}"
            tracer = self

            @functools.wraps(original)
            def issue(component, request, *args, **kwargs):
                tracer.issued(layer, request, component.engine._now_ps)
                tracer.enter(name, layer)
                try:
                    return original(component, request, *args, **kwargs)
                finally:
                    tracer.exit()

            self._patch(cls, method, issue)

        timed_issue(SecureMemoryController, "issue", "secure.memory_encryption")
        timed_issue(ObfusMemController, "issue", "core.controller")
        timed_issue(OramMemoryModel, "issue", "oram.timing")
        timed_issue(ChannelController, "enqueue", "mem.scheduler")
        plain(MemorySystem, "issue", "mem.scheduler")
        plain(HideController, "issue", "core.hide")
        plain(PcmDevice, "access", "mem.pcm")
        plain(SyntheticTraceSpec, "build", "cpu.generator")
        plain(KernelTraceSpec, "build", "cpu.kernels")
        plain(SimWorld, "__init__", "system.world", "system.world.build")
        plain(SimCheckpoint, "thaw", "system.world", "system.world.thaw")
        plain(CheckpointStore, "put", "experiments.checkpoints")
        plain(CheckpointStore, "deepest", "experiments.checkpoints")
        plain(ResultCache, "get", "experiments.executor.result_cache")
        plain(ResultCache, "put", "experiments.executor.result_cache")
        plain(JobSpec, "execute", "experiments.executor")
        plain(ParallelRunner, "run", "experiments.executor")
        plain(sweep.SweepSpec, "compile", "experiments.sweep", "experiments.sweep.plan")
        self._patch(
            sweep,
            "plan_sweep",
            self.span("experiments.sweep.plan", "experiments.sweep", sweep.plan_sweep),
        )
        self._patch(
            checkpoints,
            "execute_with_checkpoints",
            self.span(
                "experiments.checkpoints:execute_with_checkpoints",
                "experiments.checkpoints",
                checkpoints.execute_with_checkpoints,
            ),
        )
        self._patch(Engine, "run", self._run_span(Engine.__dict__["run"]))

        snapshot = SimWorld.__dict__["snapshot"]
        tracer = self

        @functools.wraps(snapshot)
        def snapshot_span(world):
            tracer.enter("system.world.snapshot", "system.world")
            try:
                checkpoint = snapshot(world)
            finally:
                tracer.exit()
            tracer.values["snapshot_bytes"] += len(checkpoint.payload)
            return checkpoint

        self._patch(SimWorld, "snapshot", snapshot_span)

        result = SimWorld.__dict__["result"]

        @functools.wraps(result)
        def result_counted(world):
            outcome = result(world)
            tracer.values["world_events"] += world.events_executed
            tracer.values["world_requests"] += outcome.num_requests
            tracer.end_job()
            return outcome

        self._patch(SimWorld, "result", result_counted)

        access_batch = CacheHierarchy.__dict__["access_batch"]

        @functools.wraps(access_batch)
        def access_batch_span(hierarchy, *args, **kwargs):
            stats = hierarchy.stats
            accesses = stats.get("accesses")
            misses = stats.get("llc_misses")
            tracer.enter("mem.hierarchy:CacheHierarchy.access_batch", "mem.hierarchy")
            try:
                return access_batch(hierarchy, *args, **kwargs)
            finally:
                tracer.exit()
                tracer.values["hierarchy_accesses"] += stats.get("accesses") - accesses
                tracer.values["hierarchy_llc_misses"] += (
                    stats.get("llc_misses") - misses
                )

        self._patch(CacheHierarchy, "access_batch", access_batch_span)
        self._patch(Engine, "default_instrument", self.on_event)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched, first restored)."""
        from repro.experiments import trace_cache

        if self._patches:
            hits, misses = trace_cache.counters()
            self.values["trace_hits"] += hits - self._trace_lookups[0]
            self.values["trace_misses"] += misses - self._trace_lookups[1]
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- forked children (serve pool workers) ---------------------------------

    def _adopt_child(self) -> None:
        """A forked worker starts its own totals (the parent keeps its own)."""
        self.pid = os.getpid()
        self.stack.clear()
        self.records.clear()
        self.recording = False
        for table in (self.self_s, self.span_s, self.calls, self.events, self.values):
            table.clear()

    def _flush_child(self) -> None:
        """Write a worker's cumulative span totals for the parent to merge."""
        path = self.out_dir / f"worker-{self.pid}.json"
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps({"span_s": self.span_s, "calls": self.calls}))
        os.replace(scratch, path)

    def merge_children(self) -> None:
        """Fold every worker's flushed totals into this tracer's spans."""
        for path in sorted(self.out_dir.glob("worker-*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            for name, seconds in payload["span_s"].items():
                self.span_s[name] += seconds
            for name, calls in payload["calls"].items():
                self.calls[name] += calls
            path.unlink(missing_ok=True)

    # -- output ----------------------------------------------------------------

    def write_trace(self, path: Path, summary: dict) -> None:
        """Chrome trace-event JSON of the kept spans plus the run summary."""
        origin = min((record[1] for record in self.records), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"job": job, "parent": parent, "id": index},
            }
            for index, (name, start, end, parent, job) in enumerate(self.records)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "summary": summary}))


class _Chain:
    """A no-op event that re-posts itself ``remaining`` times (calibration)."""

    def __init__(self, engine, remaining: int):
        self.engine = engine
        self.remaining = remaining

    def fire(self) -> None:
        self.remaining -= 1
        if self.remaining > 0:
            self.engine.post(16, self.fire)
