"""System composition and end-to-end simulation invariants."""

import pytest

from repro.cpu.generator import make_trace
from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.crypto.rng import DeterministicRng
from repro.experiments.executor import JobSpec
from repro.sim.engine import Engine
from repro.sim.statistics import StatRegistry
from repro.system.builder import build_system
from repro.system.config import MachineConfig, ProtectionLevel
from repro.system.simulator import compare_levels, run_benchmark, run_trace

REQUESTS = 600  # small but statistically meaningful


class TestBuilder:
    @pytest.mark.parametrize("level", list(ProtectionLevel))
    def test_all_levels_build(self, level):
        system = build_system(
            level, MachineConfig(), Engine(), StatRegistry(), DeterministicRng(1)
        )
        assert system.level is level
        assert hasattr(system.port, "issue")

    def test_oram_has_no_memory_system(self):
        system = build_system(
            ProtectionLevel.ORAM, MachineConfig(), Engine(), StatRegistry(),
            DeterministicRng(1),
        )
        assert system.memory is None and system.oram is not None

    def test_obfusmem_wired_between_encryption_and_memory(self):
        system = build_system(
            ProtectionLevel.OBFUSMEM_AUTH,
            MachineConfig(),
            Engine(),
            StatRegistry(),
            DeterministicRng(1),
        )
        assert system.encryption.downstream is system.obfusmem
        assert system.obfusmem.memory is system.memory


class TestSimulator:
    def test_runs_are_reproducible(self):
        profile = SPEC_PROFILES["cactus"]
        a = run_benchmark(profile, ProtectionLevel.OBFUSMEM, num_requests=REQUESTS)
        b = run_benchmark(profile, ProtectionLevel.OBFUSMEM, num_requests=REQUESTS)
        assert a.execution_time_ns == b.execution_time_ns

    def test_protection_ordering(self):
        """ORAM >> ObfusMem+Auth >= ObfusMem >= enc-only >= baseline."""
        results = compare_levels(
            SPEC_PROFILES["milc"], list(ProtectionLevel), num_requests=REQUESTS
        )
        times = {level: r.execution_time_ns for level, r in results.items()}
        base = times[ProtectionLevel.UNPROTECTED]
        assert times[ProtectionLevel.ORAM] > 5 * base
        assert times[ProtectionLevel.OBFUSMEM_AUTH] >= times[ProtectionLevel.OBFUSMEM]
        assert times[ProtectionLevel.OBFUSMEM] >= times[ProtectionLevel.ENCRYPTION_ONLY]
        assert times[ProtectionLevel.ENCRYPTION_ONLY] >= base
        # ObfusMem stays within 2x of baseline: an order of magnitude
        # cheaper than ORAM (the paper's headline claim).
        assert times[ProtectionLevel.OBFUSMEM_AUTH] < 2 * base

    def test_same_trace_across_levels(self):
        profile = SPEC_PROFILES["lbm"]
        results = compare_levels(
            profile,
            [ProtectionLevel.UNPROTECTED, ProtectionLevel.ORAM],
            num_requests=REQUESTS,
        )
        assert (
            results[ProtectionLevel.UNPROTECTED].num_requests
            == results[ProtectionLevel.ORAM].num_requests
        )

    def test_overhead_pct(self):
        profile = SPEC_PROFILES["lbm"]
        results = compare_levels(
            profile,
            [ProtectionLevel.UNPROTECTED, ProtectionLevel.ORAM],
            num_requests=REQUESTS,
        )
        baseline = results[ProtectionLevel.UNPROTECTED]
        assert results[ProtectionLevel.ORAM].overhead_pct(baseline) > 0
        assert baseline.overhead_pct(baseline) == pytest.approx(0.0)

    def test_multicore_runs_slower_than_single(self):
        profile = SPEC_PROFILES["milc"]
        single = run_benchmark(
            profile, ProtectionLevel.UNPROTECTED, num_requests=REQUESTS
        )
        quad = run_benchmark(
            profile, ProtectionLevel.UNPROTECTED, num_requests=REQUESTS, cores=4
        )
        assert quad.num_requests == 4 * single.num_requests
        assert quad.execution_time_ns > single.execution_time_ns

    def test_more_channels_help_heavy_workloads(self):
        profile = SPEC_PROFILES["bwaves"]
        one = run_benchmark(
            profile,
            ProtectionLevel.UNPROTECTED,
            machine=MachineConfig(channels=1),
            num_requests=REQUESTS,
            cores=4,
        )
        four = run_benchmark(
            profile,
            ProtectionLevel.UNPROTECTED,
            machine=MachineConfig(channels=4),
            num_requests=REQUESTS,
            cores=4,
        )
        assert four.execution_time_ns < one.execution_time_ns

    def test_run_trace_with_explicit_trace(self):
        profile = SPEC_PROFILES["astar"]
        trace = make_trace(profile, 100)
        result = run_trace(trace, ProtectionLevel.UNPROTECTED, window=profile.window)
        assert result.num_requests == 100
        assert result.average_gap_ns > 0

    def test_ipc_reported(self):
        profile = SPEC_PROFILES["astar"]
        result = run_benchmark(profile, ProtectionLevel.UNPROTECTED, num_requests=200)
        assert result.ipc(2.0) == pytest.approx(profile.ipc, rel=0.35)


class TestObfusMemTrafficInvariants:
    def test_wire_reads_equal_wire_writes(self):
        """Type obfuscation: command traffic is balanced read/write."""
        result = run_benchmark(
            SPEC_PROFILES["cactus"], ProtectionLevel.OBFUSMEM, num_requests=REQUESTS
        )
        stats = result.stats
        wire_reads = stats.get("channel0.reads", 0) + stats.get("channel0.dummy_reads", 0)
        wire_writes = stats.get("channel0.writes", 0) + stats.get(
            "channel0.dummy_writes", 0
        )
        assert wire_reads == pytest.approx(wire_writes, rel=0.1)

    def test_dummies_never_write_cells(self):
        result = run_benchmark(
            SPEC_PROFILES["cactus"], ProtectionLevel.OBFUSMEM, num_requests=REQUESTS
        )
        dropped = result.stats.get("channel0.dummy_writes_dropped", 0)
        assert dropped > 0


class TestEventBudget:
    """Kernel events per run are pinned, so changing them is deliberate.

    A channel transaction posts a completion event only when someone waits
    on it; dummies, posted writes, a write's counter fetch, prefetches and
    write-backs are stamped at issue.  ORAM's timing model runs two events
    per request.
    """

    @pytest.mark.parametrize(
        "level, events",
        [
            ("unprotected", 2_791),
            ("encryption_only", 4_774),
            ("obfusmem_auth", 9_129),
            ("hide", 2_791),
            ("oram", 2_000),
        ],
    )
    def test_events_executed(self, level, events):
        world = JobSpec("mcf", level, num_requests=1000, seed=2017).world()
        world.run()
        assert world.events_executed == events
