"""Statistics registry: counters, histograms and derived metrics.

Every simulated component owns a :class:`StatGroup`; the system simulator
collects them into one report.  The design mirrors gem5's stats: named
scalar counters plus simple distributions, all dumpable to a flat dict so
experiments can diff runs.

:meth:`StatGroup.add` and :meth:`StatGroup.record` sit on the simulation's
hot path (every issued request records counters and latency samples), so
both classes use ``__slots__`` and :meth:`Histogram.record` avoids any
per-sample allocation or function-call indirection.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import ConfigurationError


class Histogram:
    """A bucketed distribution of numeric samples."""

    __slots__ = ("samples", "total", "minimum", "maximum", "buckets", "bucket_width")

    def __init__(self, bucket_width: float = 1.0):
        self.samples = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.buckets: dict[int, int] = defaultdict(int)
        self.bucket_width = bucket_width

    def record(self, value: float) -> None:
        """Add one sample to the distribution."""
        self.samples += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.buckets[int(value // self.bucket_width)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0


class StatGroup:
    """A named set of counters and histograms owned by one component."""

    __slots__ = ("name", "_counters", "_histograms")

    def __init__(self, name: str):
        if not name:
            raise ConfigurationError("stat group needs a non-empty name")
        self.name = name
        self._counters: dict[str, float] = defaultdict(float)
        self._histograms: dict[str, Histogram] = {}

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Increment a named counter (created on first use)."""
        self._counters[counter] += amount

    def set(self, counter: str, value: float) -> None:
        """Set a counter to an absolute value."""
        self._counters[counter] = value

    def get(self, counter: str) -> float:
        """Read a counter; missing counters read as zero."""
        return self._counters.get(counter, 0.0)

    def record(self, histogram: str, value: float, bucket_width: float = 1.0) -> None:
        """Record a sample into a named histogram."""
        existing = self._histograms.get(histogram)
        if existing is None:
            existing = self._histograms[histogram] = Histogram(bucket_width)
        existing.record(value)

    def histogram(self, name: str) -> Histogram | None:
        """Named histogram, or None if never recorded."""
        return self._histograms.get(name)

    # -- hot-path accessors -------------------------------------------------
    #
    # Components on the simulation's inner loop (the channel scheduler, the
    # ObfusMem controller) bind these once and update counters/histograms
    # with plain dict/attribute operations, skipping a method call per
    # sample.  The returned objects are the live ones — updates through them
    # and through add()/record() are interchangeable and immediately visible.

    def counters(self) -> dict[str, float]:
        """The live counter mapping (a defaultdict; missing keys read 0.0)."""
        return self._counters

    def live_histogram(self, name: str, bucket_width: float = 1.0) -> Histogram:
        """Get-or-create a histogram for direct :meth:`Histogram.record` use."""
        existing = self._histograms.get(name)
        if existing is None:
            existing = self._histograms[name] = Histogram(bucket_width)
        return existing

    def as_dict(self) -> dict[str, float]:
        """Flatten counters (and histogram means) into ``name.key`` pairs."""
        flat = {f"{self.name}.{key}": value for key, value in self._counters.items()}
        for key, histogram in self._histograms.items():
            flat[f"{self.name}.{key}.mean"] = histogram.mean
            flat[f"{self.name}.{key}.samples"] = histogram.samples
        return flat

    def ratio(self, numerator: str, denominator: str) -> float:
        """Safe ratio of two counters (0 when the denominator is 0)."""
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0


class StatRegistry:
    """All stat groups of a simulated system."""

    __slots__ = ("_groups",)

    def __init__(self):
        self._groups: dict[str, StatGroup] = {}

    def group(self, name: str) -> StatGroup:
        """Get or create the group with this name."""
        existing = self._groups.get(name)
        if existing is None:
            existing = self._groups[name] = StatGroup(name)
        return existing

    def as_dict(self) -> dict[str, float]:
        """Flattened counters of every group, merged into one dict."""
        flat: dict[str, float] = {}
        for group in self._groups.values():
            flat.update(group.as_dict())
        return flat

    def groups(self) -> list[StatGroup]:
        """All stat groups registered so far."""
        return list(self._groups.values())
