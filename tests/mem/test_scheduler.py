"""Channel scheduler: latency composition, dummy handling, bus behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.address_mapping import AddressMapping
from repro.mem.bus import BusObserver, Direction, MemoryBus, TransferKind
from repro.mem.request import MemoryRequest, RequestType
from repro.mem.scheduler import MemorySystem
from repro.sim.engine import Engine, ns_to_ps
from repro.sim.statistics import StatRegistry


def make_system(channels=1, bus=None, functional=False):
    engine = Engine()
    stats = StatRegistry()
    mapping = AddressMapping(channels=channels)
    system = MemorySystem(engine, mapping, stats, bus=bus, functional=functional)
    return engine, stats, system


def run_one(system, engine, request):
    done = []
    request.issue_time_ps = engine.now_ps
    system.issue(request, lambda r: done.append(r))
    engine.run()
    assert len(done) == 1
    return done[0]


class TestReadTiming:
    def test_cold_read_latency(self):
        engine, _, system = make_system()
        request = run_one(system, engine, MemoryRequest(0, RequestType.READ))
        # command + activation + CAS + burst
        expected = ns_to_ps(1.25 + 60 + 13.75 + 5)
        assert request.latency_ps == expected

    def test_row_hit_read_is_faster(self):
        engine, _, system = make_system()
        run_one(system, engine, MemoryRequest(0, RequestType.READ))
        request = run_one(system, engine, MemoryRequest(64, RequestType.READ))
        assert request.latency_ps == ns_to_ps(1.25 + 13.75 + 5)

    def test_bank_conflict_serializes(self):
        engine, _, system = make_system()
        mapping = system.mapping
        same_bank_other_row = mapping.encode(
            mapping.decode(0).__class__(channel=0, rank=0, bank=0, row=7, column=0)
        )
        done = []
        for address in (0, same_bank_other_row):
            request = MemoryRequest(address, RequestType.READ)
            request.issue_time_ps = 0
            system.issue(request, lambda r: done.append(r))
        engine.run()
        assert done[1].latency_ps > done[0].latency_ps


class TestCompletion:
    def test_every_request_completes_and_callbacks_fire_at_completion(self):
        """Requests nobody waits on are stamped at issue; waiters get an event.

        Both kinds must end with a completion time no earlier than their
        enqueue, and every callback must run exactly at that time.
        """
        engine, stats, system = make_system()
        dummy_address = system.mapping.dummy_block_address(0)
        fired = []

        def on_complete(request):
            fired.append((request, engine.now_ps))

        requests, waited = [], []
        for index in range(24):
            request_type = (RequestType.READ, RequestType.WRITE)[index % 2]
            if index % 3 == 2:
                request = MemoryRequest(
                    dummy_address, request_type, is_dummy=True, droppable=True
                )
            else:
                request = MemoryRequest(index * 64 * 1024, request_type)
            callback = on_complete if index % 4 < 2 else None
            request.issue_time_ps = engine.now_ps
            system.issue(request, callback)
            requests.append(request)
            if callback is not None:
                waited.append(request)
            if index % 5 == 4:  # staggered arrivals over partly drained queues
                engine.run(until_ps=engine.now_ps + ns_to_ps(40))
        engine.run()

        for request in requests:
            assert request.complete_time_ps is not None
            assert request.complete_time_ps >= request.issue_time_ps
        # Each waited-on request is handed back exactly once.
        assert sorted(id(request) for request, _ in fired) == sorted(map(id, waited))
        for request, fired_at_ps in fired:
            assert fired_at_ps == request.complete_time_ps
        channel = stats.group("channel0")
        dummies = channel.get("dummy_reads") + channel.get("dummy_writes")
        assert dummies == 8
        assert channel.get("requests_serviced") == (
            channel.get("reads") + channel.get("writes") + dummies
        )
        assert dummies == (
            channel.get("dummy_reads_answered") + channel.get("dummy_writes_dropped")
        )


class TestWriteHandling:
    def test_write_completes(self):
        engine, _, system = make_system()
        request = run_one(system, engine, MemoryRequest(0, RequestType.WRITE))
        assert request.complete_time_ps is not None

    def test_reads_prioritized_over_writes(self):
        engine, _, system = make_system()
        done = []
        write = MemoryRequest(0, RequestType.WRITE)
        read = MemoryRequest(1024 * 64, RequestType.READ)
        for request in (write, read):
            request.issue_time_ps = 0
            system.issue(request, lambda r: done.append(r))
        engine.run()
        # Both complete; the read is not stuck behind the posted write by
        # more than the first command slot.
        read_latency = next(r for r in done if r.is_read).latency_ps
        assert read_latency < ns_to_ps(120)

    def test_write_drain_under_pressure(self):
        engine, stats, system = make_system()
        for i in range(20):
            system.issue(MemoryRequest(i * 64 * 1024, RequestType.WRITE))
        engine.run()
        assert stats.group("channel0").get("writes") == 20


class TestDummyHandling:
    def test_droppable_dummy_write_touches_no_bank(self):
        engine, stats, system = make_system()
        dummy = MemoryRequest(0, RequestType.WRITE, is_dummy=True, droppable=True)
        run_one(system, engine, dummy)
        assert stats.group("pcm0").get("row_buffer_accesses") == 0
        assert stats.group("channel0").get("dummy_writes_dropped") == 1

    def test_droppable_dummy_read_answered_without_array(self):
        engine, stats, system = make_system()
        dummy = MemoryRequest(0, RequestType.READ, is_dummy=True, droppable=True)
        run_one(system, engine, dummy)
        assert stats.group("pcm0").get("array_reads") == 0
        assert stats.group("channel0").get("dummy_reads_answered") == 1

    def test_non_droppable_dummy_does_array_work(self):
        engine, stats, system = make_system()
        dummy = MemoryRequest(0, RequestType.WRITE, is_dummy=True, droppable=False)
        run_one(system, engine, dummy)
        assert stats.group("pcm0").get("row_buffer_accesses") == 1

    def test_dummy_occupies_bus(self):
        engine, stats, system = make_system()
        dummy = MemoryRequest(0, RequestType.WRITE, is_dummy=True, droppable=True)
        run_one(system, engine, dummy)
        assert stats.group("channel0").get("bus_bytes") == 64


class TestBusObservability:
    def test_transfers_emitted(self):
        bus = MemoryBus()
        observer = BusObserver()
        bus.attach(observer)
        engine, _, system = make_system(bus=bus)
        run_one(system, engine, MemoryRequest(0, RequestType.READ))
        kinds = [t.kind for t in observer.transfers]
        assert kinds == [TransferKind.COMMAND, TransferKind.DATA]
        assert observer.transfers[0].direction is Direction.TO_MEMORY
        assert observer.transfers[1].direction is Direction.TO_PROCESSOR

    def test_plaintext_wire_format_by_default(self):
        bus = MemoryBus()
        observer = BusObserver()
        bus.attach(observer)
        engine, _, system = make_system(bus=bus)
        run_one(system, engine, MemoryRequest(0x4000, RequestType.WRITE))
        command = observer.command_transfers()[0]
        assert command.wire_bytes[0] == 1  # write type byte
        assert int.from_bytes(command.wire_bytes[1:9], "big") == 0x4000

    def test_custom_wire_bytes_pass_through(self):
        bus = MemoryBus()
        observer = BusObserver()
        bus.attach(observer)
        engine, _, system = make_system(bus=bus)
        request = MemoryRequest(0, RequestType.READ)
        request.issue_time_ps = 0
        system.issue(request, None, wire_command=b"\xab" * 16)
        engine.run()
        assert observer.command_transfers()[0].wire_bytes == b"\xab" * 16

    def test_turnaround_counted_on_direction_change(self):
        engine, stats, system = make_system()
        read = MemoryRequest(0, RequestType.READ)
        write = MemoryRequest(1024 * 64 * 8, RequestType.WRITE)
        for request in (read, write):
            request.issue_time_ps = 0
            system.issue(request)
        engine.run()
        assert stats.group("channel0").get("bus_turnarounds") >= 1


class TestRouting:
    def test_requests_route_by_channel(self):
        engine, stats, system = make_system(channels=2)
        system.issue(MemoryRequest(0, RequestType.READ))
        system.issue(MemoryRequest(1024, RequestType.READ))  # channel 1
        engine.run()
        assert stats.group("channel0").get("reads") == 1
        assert stats.group("channel1").get("reads") == 1

    def test_wrong_channel_rejected(self):
        engine, _, system = make_system(channels=2)
        with pytest.raises(ConfigurationError):
            system.channels[0].enqueue(MemoryRequest(1024, RequestType.READ))

    def test_promote_oldest_write(self):
        engine, stats, system = make_system()
        system.issue(MemoryRequest(0, RequestType.WRITE))
        channel = system.channels[0]
        assert channel.pending_real_writes == 1
        assert channel.promote_oldest_write() is True
        assert channel.promote_oldest_write() is False
        engine.run()
        assert stats.group("channel0").get("writes_promoted") == 1

    def test_functional_payload_roundtrip(self):
        engine, _, system = make_system(functional=True)
        payload = bytes(range(64))
        write = MemoryRequest(128, RequestType.WRITE, payload=payload)
        run_one(system, engine, write)
        read = run_one(system, engine, MemoryRequest(128, RequestType.READ))
        assert read.payload == payload
