"""Front-end trace specs, stored in the runner's one result store.

Producing a trace is the front end of every full-stack run: synthetic
generation (:func:`repro.cpu.generator.make_trace`) for the SPEC
reproduction, or a kernel filtered through the cache hierarchy
(:func:`repro.cpu.kernels.trace_through_hierarchy`) for the application
kernels.  Both are pure functions of a small spec — so repeated jobs (the
common case for the serve layer, which replays the same benchmarks at many
protection levels) can skip the front end entirely.

Traces live in the same :class:`~repro.experiments.executor.ResultCache`
as simulation results.  Each trace spec carries the store half of the job
protocol documented there:

* ``digest()`` — a hash of :data:`TRACE_SCHEMA_VERSION`, the spec kind and
  the full spec (benchmark/seed or kernel/params/hierarchy config), which
  names the entry ``<digest>.json``;
* ``to_jsonable()`` — the spec echo every entry embeds, so corruption,
  hash collisions and schema skew degrade to a miss;
* ``schema`` — :data:`TRACE_SCHEMA_VERSION`, read at call time;
* ``encode_result``/``decode_result`` — :meth:`Trace.to_jsonable
  <repro.cpu.trace.Trace.to_jsonable>` and :meth:`Trace.from_jsonable
  <repro.cpu.trace.Trace.from_jsonable>`, which round-trip floats
  exactly, so a cached trace is bit-identical to a freshly generated one.

A trace spec has no ``execute``: the runner never runs one as a job.
:meth:`~SyntheticTraceSpec.build` is the miss path of :func:`cached_trace`.
The store comes from :mod:`repro.experiments.runner`'s config — the only
cache config — so ``--no-cache``/``--cache-dir``/``--cache-bytes`` (and
their ``REPRO_*`` variables) govern traces and results alike, and both
share one directory, one LRU byte budget and, across processes, the
store's atomic writes and single-evictor ``flock`` lease.

In front of the store sits a small always-on in-process memo
(:data:`MEMO_MAX_ENTRIES` traces, LRU): a design-space sweep replays the
same trace under every scheme and machine configuration, and re-reading —
let alone regenerating — it per job dominated front-end cost.  Traces are
immutable once built, so handing the same object to many worlds is safe.

Hit/miss counters are process-wide (:func:`counters`); the serving layer
ships them back from its persistent pool workers and reports the hit
ratio in ``/metrics``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from repro.cpu.generator import make_trace
from repro.cpu.kernels import KERNELS, trace_through_hierarchy
from repro.cpu.spec_profiles import BENCHMARK_NAMES, SPEC_PROFILES
from repro.cpu.trace import Trace
from repro.crypto.rng import DeterministicRng
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.executor import _jsonable, content_digest
from repro.mem.hierarchy import HierarchyConfig

#: Bumped whenever trace generation or the entry format changes in a way
#: that invalidates previously cached traces.  Participates in every trace
#: digest, so a bump orphans (rather than corrupts) old entries.
TRACE_SCHEMA_VERSION = 1


class _StoredTrace:
    """The store half of the job protocol, shared by both trace spec kinds."""

    #: The :class:`~repro.experiments.executor.ResultCache` codec for a trace.
    encode_result = staticmethod(Trace.to_jsonable)
    decode_result = staticmethod(Trace.from_jsonable)

    @property
    def schema(self) -> int:
        """Store schema token, read from :data:`TRACE_SCHEMA_VERSION` per call."""
        return TRACE_SCHEMA_VERSION

    def digest(self) -> str:
        """Content hash identifying this spec's store entry."""
        return content_digest(
            {"schema": self.schema, "kind": self.kind, "spec": self.to_jsonable()}
        )


@dataclass(frozen=True)
class SyntheticTraceSpec(_StoredTrace):
    """One synthetic benchmark trace, as :func:`repro.system.run_benchmark`
    builds it: a profile name, a request count and the generator seed."""

    benchmark: str
    num_requests: int
    seed: int

    #: Spec kind tag, part of the digest.
    kind: ClassVar[str] = "synthetic"

    def __post_init__(self) -> None:
        if self.benchmark not in SPEC_PROFILES:
            raise ConfigurationError(
                f"unknown benchmark {self.benchmark!r}; choose from {BENCHMARK_NAMES}"
            )
        if self.num_requests < 1:
            raise ConfigurationError("trace needs at least one request")

    def to_jsonable(self) -> dict:
        """The spec as a canonical JSON-ready dict (the digest input)."""
        return {
            "benchmark": self.benchmark,
            "num_requests": self.num_requests,
            "seed": self.seed,
        }

    def build(self) -> Trace:
        """Generate the trace (the cache-miss path)."""
        return make_trace(
            SPEC_PROFILES[self.benchmark], self.num_requests, seed=self.seed
        )


@dataclass(frozen=True)
class KernelTraceSpec(_StoredTrace):
    """One application-kernel trace: a registered kernel filtered through a
    cache hierarchy, as :func:`repro.cpu.kernels.trace_through_hierarchy`
    produces it.

    ``params`` holds the kernel's keyword arguments as a sorted tuple of
    ``(name, value)`` pairs so the spec stays hashable; use :meth:`create`
    to pass them as plain keywords.  ``seed``, when set, seeds the kernel's
    :class:`~repro.crypto.rng.DeterministicRng`; None keeps each kernel's
    built-in default seed.
    """

    kernel: str
    params: tuple[tuple[str, int | float], ...] = ()
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    gap_ns: float = 2.0
    core_id: int = 0
    seed: int | None = None

    #: Spec kind tag, part of the digest.
    kind: ClassVar[str] = "kernel"

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; choose from {sorted(KERNELS)}"
            )
        for pair in self.params:
            if (
                not isinstance(pair, tuple)
                or len(pair) != 2
                or not isinstance(pair[0], str)
                or not isinstance(pair[1], (int, float))
            ):
                raise ConfigurationError(
                    f"kernel params must be (name, number) pairs, got {pair!r}"
                )

    @classmethod
    def create(
        cls,
        kernel: str,
        hierarchy: HierarchyConfig | None = None,
        gap_ns: float = 2.0,
        core_id: int = 0,
        seed: int | None = None,
        **params: int | float,
    ) -> "KernelTraceSpec":
        """Convenience constructor taking kernel parameters as keywords."""
        return cls(
            kernel=kernel,
            params=tuple(sorted(params.items())),
            hierarchy=hierarchy or HierarchyConfig(),
            gap_ns=gap_ns,
            core_id=core_id,
            seed=seed,
        )

    def to_jsonable(self) -> dict:
        """The spec as a canonical JSON-ready dict (the digest input)."""
        return {
            "kernel": self.kernel,
            "params": dict(self.params),
            "hierarchy": _jsonable(self.hierarchy),
            "gap_ns": self.gap_ns,
            "core_id": self.core_id,
            "seed": self.seed,
        }

    def build(self) -> Trace:
        """Run the kernel through the hierarchy (the cache-miss path)."""
        kwargs: dict = dict(self.params)
        if self.seed is not None:
            kwargs["rng"] = DeterministicRng(self.seed)
        stream = KERNELS[self.kernel](**kwargs)
        trace, _hierarchy = trace_through_hierarchy(
            stream,
            self.hierarchy,
            gap_ns=self.gap_ns,
            core_id=self.core_id,
            name=self.kernel,
        )
        return trace


#: Either trace spec kind (they share the digest/build/to_jsonable shape).
TraceSpec = SyntheticTraceSpec | KernelTraceSpec

_lock = threading.Lock()
_hits = 0
_misses = 0

#: Upper bound on in-process memoized traces.  Traces are a few hundred
#: kilobytes at sweep-scale request counts, so this caps the memo at a few
#: megabytes while still covering every family of a large design-space sweep
#: (a sweep axis over schemes or machine knobs reuses one trace per
#: (benchmark, num_requests, seed) point).
MEMO_MAX_ENTRIES = 32

_memo: dict[str, Trace] = {}


def clear_memo() -> None:
    """Drop every in-process memoized trace (config changes and tests)."""
    with _lock:
        _memo.clear()


def _memo_get(digest: str) -> Trace | None:
    with _lock:
        trace = _memo.get(digest)
        if trace is not None:
            # dict preserves insertion order; re-insert to mark recency.
            del _memo[digest]
            _memo[digest] = trace
        return trace


def _memo_put(digest: str, trace: Trace) -> None:
    with _lock:
        _memo[digest] = trace
        while len(_memo) > MEMO_MAX_ENTRIES:
            _memo.pop(next(iter(_memo)))


def configure(
    enabled: bool | None = None,
    directory: str | Path | None = None,
    max_bytes: int | None = None,
) -> runner.RunnerConfig:
    """Forward to :func:`repro.experiments.runner.configure`.

    Traces have no cache config of their own; this spelling maps
    ``enabled``/``directory``/``max_bytes`` onto the runner's
    ``cache_enabled``/``cache_dir``/``cache_bytes``.
    """
    return runner.configure(
        cache_enabled=enabled, cache_dir=directory, cache_bytes=max_bytes
    )


def counters() -> tuple[int, int]:
    """Process-lifetime ``(hits, misses)`` of :func:`cached_trace`."""
    with _lock:
        return _hits, _misses


def reset_counters() -> None:
    """Zero the process-lifetime hit/miss counters (mainly for tests)."""
    global _hits, _misses
    with _lock:
        _hits = 0
        _misses = 0


def _count(hit: bool) -> None:
    global _hits, _misses
    with _lock:
        if hit:
            _hits += 1
        else:
            _misses += 1


def cached_trace(spec: TraceSpec) -> Trace:
    """Resolve one trace spec through the memo and the result store.

    Two tiers, checked in order: a small in-process memo (always on — a
    sweep replays the same trace under many schemes and machine configs,
    and rebuilding or re-reading it per job dominated front-end cost), then
    the runner's persistent store when caching is enabled.  A hit in either
    tier counts toward :func:`counters`; with ``--no-cache`` only rebuilds
    the memo cannot absorb are counted as misses, so hit-ratio metrics
    still reflect front-end work actually skipped.
    """
    digest = spec.digest()
    trace = _memo_get(digest)
    if trace is not None:
        _count(hit=True)
        return trace
    store = runner.disk_cache()
    if store is not None:
        trace = store.get(spec)
        if trace is not None:
            _count(hit=True)
            _memo_put(digest, trace)
            return trace
    _count(hit=False)
    trace = spec.build()
    if store is not None:
        store.put(spec, trace)
    _memo_put(digest, trace)
    return trace


def traces_for_benchmark(
    benchmark: str, num_requests: int, seed: int, cores: int = 1
) -> list[Trace]:
    """The per-core traces :func:`repro.system.run_benchmark` would build.

    Seeds follow the simulator's convention (``seed + 1000 * core``), so a
    warm cache hands back traces bit-identical to fresh generation and
    :meth:`repro.experiments.executor.JobSpec.execute` can feed them
    straight to :func:`repro.system.run_traces`.
    """
    return [
        cached_trace(SyntheticTraceSpec(benchmark, num_requests, seed + 1000 * core))
        for core in range(cores)
    ]
