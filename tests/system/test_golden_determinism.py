"""Golden determinism: rebuilt kernel and scheme pipeline keep the physics.

``tests/golden/execution_times.json`` holds ``execution_time_ns`` for every
benchmark x protection level (plus 4-channel and 4-channel/4-core grids),
captured on the ordered-dataclass event kernel and polling scheduler before
the hot-path rewrite; the ``hide`` cells and the registry-only hybrid grid
(``execution_time_ns_registry``, schemes addressed by name) were captured
when the scheme-registry pipeline landed.  Both the kernel rewrite and the
registry refactor must be pure restructurings: every cell must match
bit-for-bit, not approximately.

Any drift here means the event ordering contract — (time, priority,
sequence), FR-FCFS arbitration over identical queue snapshots, label-stable
rng forking — was broken somewhere, even if the aggregate overheads still
look plausible.

The grid is also the oracle for the checkpoint protocol: a second lane runs
every cell paused-and-resumed — snapshot the world at an event budget, thaw
the pickled blob, continue, repeat — and must land on the same golden
number.  Passing both lanes for every scheme means snapshot/restore is
invisible to the physics.

Both lanes also check transaction conservation in every channel: each
request a channel accepted was serviced, and under FIXED dummies (every
cell's default) no dummy reached the array.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import DummyAddressPolicy
from repro.cpu.generator import make_trace
from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.system.config import MachineConfig, ProtectionLevel
from repro.system.simulator import run_benchmark
from repro.system.world import SimWorld

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "execution_times.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

GRIDS = [
    # (grid key, machine kwargs, cores)
    ("execution_time_ns", {}, 1),
    ("execution_time_ns_4ch", {"channels": 4}, 1),
    ("execution_time_ns_4ch_4core", {"channels": 4}, 4),
]


def _cells():
    for key, machine_kwargs, cores in GRIDS:
        for cell, expected in GOLDEN[key].items():
            benchmark, level = cell.rsplit("/", 1)
            yield pytest.param(
                benchmark, level, machine_kwargs, cores, expected, id=f"{key}:{cell}"
            )
    # Registry-only schemes (hybrids): addressed by name, no enum member.
    for cell, expected in GOLDEN["execution_time_ns_registry"].items():
        benchmark, scheme = cell.rsplit("/", 1)
        yield pytest.param(
            benchmark, scheme, {}, 1, expected, id=f"registry:{cell}"
        )


def assert_transactions_conserved(stats: dict, machine: MachineConfig) -> None:
    """Per channel: serviced = accepted; FIXED dummies never reach the array."""
    channels = {key.split(".", 1)[0] for key in stats if key.startswith("channel")}
    for channel in channels:

        def count(name: str) -> int:
            return stats.get(f"{channel}.{name}", 0)

        dummies = count("dummy_reads") + count("dummy_writes")
        dropped = count("dummy_reads_answered") + count("dummy_writes_dropped")
        assert count("requests_serviced") == count("reads") + count("writes") + dummies
        if machine.dummy_policy is DummyAddressPolicy.FIXED:
            assert dummies == dropped


@pytest.mark.parametrize(
    "bench_name, level, machine_kwargs, cores, expected", _cells()
)
def test_execution_time_matches_golden(bench_name, level, machine_kwargs, cores, expected):
    # The scheme is passed as its registry *name*: the enum members resolve
    # to the same registrations, and hybrids only have a name.
    result = run_benchmark(
        SPEC_PROFILES[bench_name],
        level,
        machine=MachineConfig(**machine_kwargs),
        num_requests=GOLDEN["num_requests"],
        seed=GOLDEN["seed"],
        cores=cores,
    )
    # Bit-identical, not approximately equal: execution_time_ns is an exact
    # integer picosecond count divided by 1000, so == is well-defined.
    assert result.execution_time_ns == expected
    assert_transactions_conserved(result.stats, MachineConfig(**machine_kwargs))


@pytest.mark.parametrize(
    "bench_name, level, machine_kwargs, cores, expected", _cells()
)
def test_snapshot_resume_matches_golden(
    bench_name, level, machine_kwargs, cores, expected
):
    """The checkpoint lane: every cell, paused/frozen/thawed repeatedly.

    Each pause crosses a full pickle round trip (exactly what the
    persistent store and the preemptible pool do), at a budget that doubles
    every hop so the resume points land at varied depths.  At least one hop
    always happens: every cell executes more events than the first budget.
    """
    profile = SPEC_PROFILES[bench_name]
    traces = [
        make_trace(profile, GOLDEN["num_requests"], seed=GOLDEN["seed"] + 1000 * i)
        for i in range(cores)
    ]
    world = SimWorld(
        traces,
        level,
        machine=MachineConfig(**machine_kwargs),
        window=profile.window,
        seed=GOLDEN["seed"],
    )
    budget, hops = 300, 0
    while not world.run(stop_after_events=budget):
        world = world.snapshot().thaw()
        hops += 1
        budget *= 2
    assert hops >= 1
    result = world.result()
    assert result.execution_time_ns == expected
    assert_transactions_conserved(result.stats, world.machine)


def test_golden_grid_is_complete():
    """The golden file covers the full benchmark x level product."""
    levels = {level.value for level in ProtectionLevel}
    benchmarks = set(SPEC_PROFILES)
    covered = {
        tuple(cell.rsplit("/", 1)) for cell in GOLDEN["execution_time_ns"]
    }
    assert covered == {(b, lv) for b in benchmarks for lv in levels}
