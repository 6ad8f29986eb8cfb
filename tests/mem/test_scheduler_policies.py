"""Channel-scheduler policies: horizon throttling, direction grouping,
bounded FR-FCFS lookahead, drain behaviour."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address_mapping import AddressMapping
from repro.mem.request import MemoryRequest, RequestType
from repro.mem.scheduler import MemorySystem
from repro.sim.engine import Engine, ns_to_ps
from repro.sim.statistics import StatRegistry


def make_system(channels=1):
    engine = Engine()
    stats = StatRegistry()
    system = MemorySystem(engine, AddressMapping(channels=channels), stats)
    return engine, stats, system


class TestIssueHorizon:
    def test_queues_hold_depth_under_burst(self):
        """A burst must not drain instantly into future reservations."""
        engine, _, system = make_system()
        channel = system.channels[0]
        for i in range(32):
            system.issue(MemoryRequest(i * 64 * 1024, RequestType.WRITE))
        # Before the engine runs, everything is queued.
        assert channel.pending == 32
        engine.run(until_ps=ns_to_ps(20.0))
        # A short while in, most of the burst is still genuinely queued
        # (bounded in-flight), not reserved into the far future.
        assert channel.pending > 16
        engine.run()
        assert channel.pending == 0

    def test_all_requests_eventually_serviced(self):
        engine, stats, system = make_system()
        done = []
        for i in range(64):
            request = MemoryRequest(i * 64, RequestType.READ)
            request.issue_time_ps = 0
            system.issue(request, lambda r: done.append(r))
        engine.run()
        assert len(done) == 64


class TestDirectionGrouping:
    def test_same_direction_bursts_grouped(self):
        """Queued same-direction requests issue together, saving
        turnarounds versus strict arrival order."""
        engine, stats, system = make_system()
        # Interleave arrival order: R W R W R W ... (distinct banks).
        for i in range(16):
            request_type = RequestType.READ if i % 2 == 0 else RequestType.WRITE
            system.issue(MemoryRequest(i * 64 * 1024, request_type))
        engine.run()
        turnarounds = stats.group("channel0").get("bus_turnarounds")
        # Strict R/W alternation would need ~15 turnarounds; grouping
        # within the lookahead window cuts that well down.
        assert turnarounds < 12


class TestBoundedLookahead:
    def test_row_hits_prioritized_within_window(self):
        engine, stats, system = make_system()
        mapping = system.mapping
        # Open a row, then queue a conflicting request followed by a
        # row-hit request: the hit should issue first.
        opener = MemoryRequest(0, RequestType.READ)
        opener.issue_time_ps = 0
        done = []
        system.issue(opener, lambda r: done.append(("opener", engine.now_ps)))
        engine.run()
        conflict = MemoryRequest(
            mapping.encode(
                mapping.decode(0).__class__(channel=0, rank=0, bank=0, row=9, column=0)
            ),
            RequestType.READ,
        )
        hit = MemoryRequest(64, RequestType.READ)
        for name, request in (("conflict", conflict), ("hit", hit)):
            request.issue_time_ps = engine.now_ps
            system.issue(request, lambda r, n=name: done.append((n, engine.now_ps)))
        engine.run()
        order = [name for name, _ in done]
        assert order.index("hit") < order.index("conflict")


class TestWriteDrain:
    def test_writes_do_not_starve(self):
        engine, stats, system = make_system()
        # Continuous read pressure plus a batch of writes.
        for i in range(40):
            system.issue(MemoryRequest(i * 64 * 1024, RequestType.READ))
            if i < 20:
                system.issue(MemoryRequest((1000 + i) * 64 * 1024, RequestType.WRITE))
        engine.run()
        group = stats.group("channel0")
        assert group.get("writes") == 20
        assert group.get("requests_serviced") == 60


@settings(max_examples=20, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4000),
            st.booleans(),
            st.integers(min_value=0, max_value=200),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_every_read_completes_property(operations):
    """No request is ever lost, whatever the arrival pattern."""
    engine, _, system = make_system()
    completed = []
    expected_reads = 0
    time = 0
    for block, is_write, gap in operations:
        time += ns_to_ps(float(gap))
        request = MemoryRequest(
            block * 64, RequestType.WRITE if is_write else RequestType.READ
        )
        if not is_write:
            expected_reads += 1

        def send(request=request):
            request.issue_time_ps = engine.now_ps
            system.issue(
                request, (lambda r: completed.append(r)) if request.is_read else None
            )

        engine.schedule_at(time, send)
    engine.run()
    assert len(completed) == expected_reads
    for request in completed:
        assert request.latency_ps > 0
