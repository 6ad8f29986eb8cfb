"""Multi-process cache safety: shared byte-budgeted stores under fire.

The worker pool points every worker process at one cache directory, so
two guarantees must hold across processes, not just threads:

* **no torn entries** — write-then-rename means a reader (or a raw
  ``json.loads``) only ever sees whole files, even while another process
  is writing and evicting the same store;
* **no duelling evictors** — the single-evictor ``flock`` lease means at
  most one process walks/unlinks entries at a time, so concurrent
  byte-budget enforcement never double-evicts or crashes.

The hammer test forks two children (one result lane, one trace lane,
both writing through :class:`ResultCache`) against a shared
tightly-budgeted directory; the checkpoint race forks
two lanes of one snapshot *family* so every ``put``'s family pruning
unlinks entries the other lane is writing; the lease tests pin the
flock protocol directly with a second process holding the lease.
"""

import json
import multiprocessing

import pytest

from repro.experiments.checkpoints import (
    KEEP_PER_FAMILY,
    CheckpointStore,
    world_for_spec,
)
from repro.experiments.executor import (
    CACHE_SCHEMA_VERSION,
    JobSpec,
    JsonFileCache,
    ResultCache,
    RunResult,
    _fork_context,
)
from repro.experiments.trace_cache import TRACE_SCHEMA_VERSION, SyntheticTraceSpec
from repro.system.config import ProtectionLevel

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None


ROUNDS = 40
#: Distinct digests each lane cycles through (small, so puts overwrite
#: and evictions constantly land on entries the other lane still reads).
SEEDS_PER_LANE = 6


def result_spec(seed: int) -> JobSpec:
    """A tiny distinct-digest job spec per seed."""
    return JobSpec(
        benchmark="astar",
        level=ProtectionLevel.UNPROTECTED,
        num_requests=50,
        seed=seed,
    )


def trace_spec(seed: int) -> SyntheticTraceSpec:
    """A tiny distinct-digest trace spec per seed."""
    return SyntheticTraceSpec("astar", 40, seed)


def _hammer_results(directory, budget, rounds):
    """Child lane: put/get result entries against the shared store."""
    cache = ResultCache(directory, max_bytes=budget)
    template = result_spec(0).execute()  # one simulation, reused per put
    for i in range(rounds):
        cache.put(result_spec(i % SEEDS_PER_LANE), template)
        got = cache.get(result_spec((i + 3) % SEEDS_PER_LANE))
        assert got is None or isinstance(got, RunResult)
    _assert_no_torn_entries(directory)


def _hammer_traces(directory, budget, rounds):
    """Child lane: put/get trace entries against the shared store."""
    cache = ResultCache(directory, max_bytes=budget)
    template = trace_spec(0).build()  # one generation, reused per put
    for i in range(rounds):
        cache.put(trace_spec(i % SEEDS_PER_LANE), template)
        got = cache.get(trace_spec((i + 3) % SEEDS_PER_LANE))
        assert got is None or got.to_jsonable() == template.to_jsonable()
    _assert_no_torn_entries(directory)


def _assert_no_torn_entries(directory):
    """Every readable ``*.json`` entry must be whole (rename is atomic)."""
    for path in directory.glob("*.json"):
        try:
            text = path.read_text()
        except OSError:  # raced with an eviction: gone, not torn
            continue
        json.loads(text)


def checkpoint_spec(num_requests: int) -> JobSpec:
    """One family member: same prefix for every ``num_requests`` value."""
    return JobSpec(
        benchmark="astar",
        level=ProtectionLevel.UNPROTECTED,
        num_requests=num_requests,
        seed=11,
    )


def _genuine_snapshots(spec, limit=6):
    """A deepening sequence of real unfinished snapshots of ``spec``."""
    world, _ = world_for_spec(spec, None)
    snapshots = []
    finished = False
    while not finished and len(snapshots) < limit:
        finished = world.run(stop_after_events=40)
        if not finished:
            snapshots.append(world.snapshot())
    assert len(snapshots) >= 2, "spec too small to snapshot mid-run"
    return snapshots


def _hammer_checkpoints(directory, num_requests, rounds):
    """Child lane: re-put a family's snapshots while siblings get pruned.

    Every ``put`` ends in ``_prune_family``, so two lanes in one family
    continuously unlink entries the other lane just wrote or is about to
    re-write; reads through ``deepest``/``candidates`` must only ever see
    whole entries or misses.
    """
    spec = checkpoint_spec(num_requests)
    snapshots = _genuine_snapshots(spec)
    store = CheckpointStore(directory)
    for i in range(rounds):
        store.put(spec, snapshots[i % len(snapshots)])
        found = store.deepest(spec)
        assert found is None or found.checkpoint.events_executed > 0
        for entry in store.candidates(spec):  # both lanes' lengths show up
            assert entry.checkpoint.events_executed > 0
    _assert_no_torn_entries(directory)


def _hold_lease(directory, held, release):
    """Child: grab the evictor lease, report, and hold until released."""
    handle = open(directory / JsonFileCache.EVICTOR_LEASE_NAME, "a+")
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    held.set()
    release.wait(timeout=30)
    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    handle.close()


def _context() -> multiprocessing.context.BaseContext:
    context = _fork_context()
    if context is None:  # pragma: no cover - platform-dependent
        pytest.skip("platform has no fork start method")
    return context


class TestConcurrentHammer:
    def test_two_processes_never_corrupt_a_shared_budgeted_store(self, tmp_path):
        context = _context()
        # A budget around four entries keeps eviction constantly active
        # while both lanes write: size one entry of each kind first.
        probe = ResultCache(tmp_path)
        probe.put(result_spec(0), result_spec(0).execute())
        probe.put(trace_spec(0), trace_spec(0).build())
        budget = 2 * probe.size_bytes()

        lanes = [
            context.Process(
                target=_hammer_results, args=(tmp_path, budget, ROUNDS)
            ),
            context.Process(
                target=_hammer_traces, args=(tmp_path, budget, ROUNDS)
            ),
        ]
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join(timeout=120)
        # A non-zero exit means a lane saw a torn entry or a crashed
        # eviction; a None exitcode means it hung.
        assert [lane.exitcode for lane in lanes] == [0, 0]

        # No scratch files leaked: every write-then-rename completed.
        assert list(tmp_path.glob("*.tmp")) == []
        # Every surviving entry is whole and carries its kind's schema
        # stamp; both kinds are plain <digest>.json files, so the payload
        # (a trace body has records, a result body has stats) tells them
        # apart.
        survivors = list(tmp_path.glob("*.json"))
        assert survivors, "the store should not have been evicted to empty"
        for path in survivors:
            payload = json.loads(path.read_text())
            if "records" in payload["result"]:
                assert payload["schema"] == TRACE_SCHEMA_VERSION
                assert set(payload["spec"]) == {"benchmark", "num_requests", "seed"}
            else:
                assert payload["schema"] == CACHE_SCHEMA_VERSION
                assert "stats" in payload["result"]
        assert list(tmp_path.glob("trace-*.json")) == []
        # Once the dust settles one evict enforces the budget exactly.
        cache = JsonFileCache(tmp_path, max_bytes=budget)
        cache.evict()
        assert cache.size_bytes() <= budget

    def test_entries_survive_with_readable_payloads_after_the_storm(self, tmp_path):
        context = _context()
        lane = context.Process(target=_hammer_results, args=(tmp_path, None, 10))
        lane.start()
        lane.join(timeout=120)
        assert lane.exitcode == 0
        cache = ResultCache(tmp_path)
        # Unbudgeted run: all six digests must still load as valid results.
        for seed in range(SEEDS_PER_LANE):
            assert isinstance(cache.get(result_spec(seed)), RunResult)


class TestPruneVsPutRace:
    def test_family_pruning_races_concurrent_puts_safely(self, tmp_path):
        """Two processes put-and-prune one checkpoint family at once.

        The lanes share a prefix digest but target different request
        counts, so each ``put``'s :meth:`CheckpointStore._prune_family`
        walks (and unlinks within) a family the other lane is actively
        writing.  Nothing may tear, pruning must never cross into the
        other length's entries, and each length must settle at no more
        than ``KEEP_PER_FAMILY`` snapshots.
        """
        context = _context()
        lengths = (60, 90)
        lanes = [
            context.Process(
                target=_hammer_checkpoints, args=(tmp_path, length, ROUNDS)
            )
            for length in lengths
        ]
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join(timeout=120)
        assert [lane.exitcode for lane in lanes] == [0, 0]

        assert list(tmp_path.glob("*.tmp")) == []
        for length in lengths:
            spec = checkpoint_spec(length)
            prefix32 = spec.prefix_digest()[:32]
            survivors = list(
                tmp_path.glob(f"ckpt-{prefix32}-{length:09d}-*.json")
            )
            assert 0 < len(survivors) <= KEEP_PER_FAMILY
            # The deepest surviving snapshot still thaws into a live world.
            found = CheckpointStore(tmp_path).deepest(spec)
            assert found is not None
            world = found.checkpoint.thaw()
            assert world.events_executed == found.checkpoint.events_executed


@pytest.mark.skipif(fcntl is None, reason="needs POSIX file locks")
class TestEvictorLease:
    def test_evict_yields_while_another_process_holds_the_lease(self, tmp_path):
        context = _context()
        cache = ResultCache(tmp_path, max_bytes=0)
        template = result_spec(0).execute()
        # Fill without triggering eviction (write_json would evict at
        # budget 0), so there is something for the later evict to remove.
        unbudgeted = ResultCache(tmp_path)
        for seed in range(3):
            unbudgeted.put(result_spec(seed), template)
        assert len(list(tmp_path.glob("*.json"))) == 3

        held = context.Event()
        release = context.Event()
        holder = context.Process(target=_hold_lease, args=(tmp_path, held, release))
        holder.start()
        try:
            assert held.wait(timeout=30)
            # The lease is taken: this process must skip eviction entirely.
            assert cache.evict() == 0
            assert len(list(tmp_path.glob("*.json"))) == 3
        finally:
            release.set()
            holder.join(timeout=30)
        assert holder.exitcode == 0
        # Lease released: the same call now enforces the zero budget.
        assert cache.evict() == 3
        assert list(tmp_path.glob("*.json")) == []

    def test_lease_file_is_not_itself_an_evictable_entry(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=0)
        cache.put(result_spec(0), result_spec(0).execute())
        lease = tmp_path / JsonFileCache.EVICTOR_LEASE_NAME
        assert lease.exists()  # taking the lease created the sentinel
        assert cache.evict() == 0  # store already empty; lease not counted
        assert lease.exists()
        assert cache.size_bytes() == 0
