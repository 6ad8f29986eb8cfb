"""Declarative sweep specs and the prefix-sharing scheduler.

Covers the three layers of :mod:`repro.experiments.sweep`: spec
validation and the three combination modes, compilation (one job per
point, digest dedup, baseline anchors, manifest warnings), wave planning
under the fork floors, and an end-to-end scheduled execution that must be
bit-identical to cold execution while actually warm-starting.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.checkpoints import CheckpointStore
from repro.experiments.executor import JobSpec, ParallelRunner
from repro.experiments.pareto import ParetoAggregator
from repro.experiments.sweep import (
    MAX_SWEEP_POINTS,
    SCALAR_AXES,
    SweepAxis,
    SweepSpec,
    plan_sweep,
    run_sweep,
    worth_forking,
)
from repro.schemes import scheme_names
from repro.system.config import ProtectionLevel

from tests.strategies import JSON_VALUES

SEED = 31

#: A zip spec whose benchmark axis repeats a value.
REPEATED_ZIP = {
    "mode": "zip",
    "axes": {
        "benchmark": ["astar", "mcf", "astar"],
        "level": ["unprotected"],
        "num_requests": [100, 200, 300],
    },
    "baselines": False,
}

#: Axis values: arbitrary JSON plus valid names, so some specs decode.
AXIS_VALUES = JSON_VALUES | st.sampled_from(
    ["astar", "mcf", "unprotected", "obfusmem_auth", 100, 400, "opt"]
)
AXES = st.dictionaries(
    st.sampled_from(
        [*SCALAR_AXES, "machine.channels", "machine.warp_factor", "warp_factor"]
    ),
    AXIS_VALUES | st.lists(AXIS_VALUES, max_size=3),
    max_size=4,
)
SWEEP_PAYLOADS = JSON_VALUES | st.fixed_dictionaries(
    {"axes": AXES | JSON_VALUES},
    optional={
        "schema": st.just(1) | JSON_VALUES,
        "mode": st.sampled_from(["grid", "zip", "random"]) | JSON_VALUES,
        "samples": JSON_VALUES,
        "sample_seed": JSON_VALUES,
        "baselines": JSON_VALUES,
        "warp_factor": JSON_VALUES,
    },
)


def axes(**named) -> tuple[SweepAxis, ...]:
    """Shorthand: keyword name -> values tuple, dots spelled as __."""
    return tuple(
        SweepAxis(name.replace("__", "."), tuple(values))
        for name, values in named.items()
    )


def small_spec(**overrides) -> SweepSpec:
    params = dict(
        axes=axes(
            benchmark=("astar",),
            level=("unprotected", "encryption_only"),
            num_requests=(150, 300),
            seed=(SEED,),
        ),
        baselines=False,
    )
    params.update(overrides)
    return SweepSpec(**params)


class TestSweepAxisValidation:
    def test_unknown_axis_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown axis"):
            SweepAxis("cache_size", (1,))

    def test_unknown_machine_field_rejected(self):
        with pytest.raises(ConfigurationError, match="machine fields"):
            SweepAxis("machine.warp_drive", (1,))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown benchmarks"):
            SweepAxis("benchmark", ("quake",))

    def test_unknown_level_gets_resolver_hint(self):
        with pytest.raises(ConfigurationError):
            SweepAxis("level", ("obfusmen",))

    def test_integer_axes_need_positive_integers(self):
        for bad in (0, -5, True, "many"):
            with pytest.raises(ConfigurationError):
                SweepAxis("num_requests", (bad,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            SweepAxis("seed", ())


class TestSweepSpecValidation:
    def test_benchmark_and_level_axes_are_required(self):
        with pytest.raises(ConfigurationError, match="'level'"):
            SweepSpec(axes=axes(benchmark=("astar",)))
        with pytest.raises(ConfigurationError, match="'benchmark'"):
            SweepSpec(axes=axes(level=("unprotected",)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep mode"):
            small_spec(mode="all-pairs")

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate axes"):
            SweepSpec(
                axes=(
                    SweepAxis("benchmark", ("astar",)),
                    SweepAxis("benchmark", ("mcf",)),
                    SweepAxis("level", ("unprotected",)),
                )
            )

    def test_zip_mode_needs_equal_lengths(self):
        with pytest.raises(ConfigurationError, match="equal-length"):
            small_spec(
                mode="zip",
                axes=axes(
                    benchmark=("astar", "mcf"),
                    level=("unprotected",),
                    num_requests=(100, 200, 300),
                ),
            )

    def test_random_mode_needs_samples(self):
        with pytest.raises(ConfigurationError, match="samples"):
            small_spec(mode="random")

    def test_random_samples_past_the_ceiling_rejected(self):
        message = f"1000000000 design points; the limit is {MAX_SWEEP_POINTS}"
        with pytest.raises(ConfigurationError, match=message):
            small_spec(mode="random", samples=10**9)

    def test_grid_past_the_ceiling_rejected(self):
        lengths = tuple(range(1, 1001))
        message = f"1000000 design points; the limit is {MAX_SWEEP_POINTS}"
        with pytest.raises(ConfigurationError, match=message):
            small_spec(
                axes=axes(
                    benchmark=("astar",),
                    level=("unprotected",),
                    num_requests=lengths,
                    seed=lengths,
                )
            )


class TestWireForm:
    def test_round_trip(self):
        spec = small_spec()
        assert SweepSpec.from_jsonable(spec.to_jsonable()) == spec

    def test_unknown_fields_rejected(self):
        payload = small_spec().to_jsonable()
        payload["grid"] = True
        with pytest.raises(ConfigurationError, match="unknown sweep-spec fields"):
            SweepSpec.from_jsonable(payload)

    def test_schema_mismatch_rejected(self):
        payload = small_spec().to_jsonable()
        payload["schema"] = 99
        with pytest.raises(ConfigurationError, match="schema"):
            SweepSpec.from_jsonable(payload)

    def test_scalar_axis_values_broadcast_to_lists(self):
        spec = SweepSpec.from_jsonable(
            {"axes": {"benchmark": "astar", "level": ["unprotected"]}}
        )
        assert spec.axes[0].values == ("astar",)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples", "abc"),
            ("samples", None),
            ("samples", [1]),
            ("samples", 1e400),
            ("sample_seed", None),
            ("sample_seed", [1]),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        payload = dict(small_spec().to_jsonable(), **{field: value})
        with pytest.raises(ConfigurationError, match=field):
            SweepSpec.from_jsonable(payload)

    def test_unhashable_benchmark_rejected(self):
        payload = small_spec().to_jsonable()
        payload["axes"]["benchmark"] = [["mcf"]]
        with pytest.raises(ConfigurationError, match="unknown benchmarks"):
            SweepSpec.from_jsonable(payload)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(payload=SWEEP_PAYLOADS)
    def test_arbitrary_payloads_decode_or_raise_configuration_error(self, payload):
        try:
            spec = SweepSpec.from_jsonable(payload)
        except ConfigurationError:
            return
        assert isinstance(spec.samples, int) and isinstance(spec.sample_seed, int)

    def test_load_reads_a_json_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(small_spec().to_jsonable()))
        assert SweepSpec.load(path) == small_spec()

    def test_load_failures_are_configuration_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            SweepSpec.load(tmp_path / "missing.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not JSON"):
            SweepSpec.load(garbled)
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigurationError, match="not JSON"):
            SweepSpec.load(nested)


class TestCompile:
    def test_grid_mode_takes_the_cartesian_product(self):
        compiled = small_spec().compile()
        assert len(compiled.jobs) == 4  # 1 benchmark x 2 levels x 2 lengths
        assert compiled.requested == 4
        assert compiled.duplicates_dropped == 0
        lengths = {job.num_requests for job in compiled.jobs}
        assert lengths == {150, 300}

    def test_duplicate_axis_values_canonicalized_with_warning(self):
        compiled = small_spec(
            axes=axes(
                benchmark=("astar", "astar"),
                level=("unprotected", "encryption_only"),
            )
        ).compile()
        assert len(compiled.jobs) == 2
        assert any("digest-identical" in w for w in compiled.warnings)

    def test_grid_duplicates_are_noted_once(self):
        compiled = small_spec(
            axes=axes(
                benchmark=("astar", "astar"),
                level=("unprotected", "encryption_only"),
                num_requests=(150, 300),
            )
        ).compile()
        assert len(compiled.jobs) == 4
        assert compiled.requested == 8 and compiled.duplicates_dropped == 4
        assert compiled.warnings == (
            "compile: dropped 4 digest-identical design point(s)",
        )

    @pytest.mark.parametrize(
        "benchmarks, lengths",
        [
            (("astar", "mcf", "astar"), (100, 200, 300)),
            (("astar", "mcf", "astar", "mcf"), (100, 100, 300, 300)),
        ],
    )
    def test_zip_mode_keeps_every_row_when_values_repeat(self, benchmarks, lengths):
        compiled = small_spec(
            mode="zip",
            axes=axes(
                benchmark=benchmarks, level=("unprotected",), num_requests=lengths
            ),
        ).compile()
        assert [(j.benchmark, j.num_requests) for j in compiled.jobs] == list(
            zip(benchmarks, lengths)
        )

    def test_zip_mode_walks_axes_in_lockstep_and_broadcasts(self):
        compiled = small_spec(
            mode="zip",
            axes=axes(
                benchmark=("astar", "mcf"),
                level=("unprotected", "encryption_only"),
                num_requests=(100,),
            ),
        ).compile()
        assert [(j.benchmark, j.num_requests) for j in compiled.jobs] == [
            ("astar", 100),
            ("mcf", 100),
        ]

    def test_random_mode_dedups_repeated_draws_by_digest(self):
        compiled = small_spec(
            mode="random",
            samples=6,
            axes=axes(
                benchmark=("astar",),
                level=("unprotected",),
                num_requests=(100, 200),
            ),
        ).compile()
        # Six draws from two distinct points must repeat (pigeonhole).
        assert len(compiled.jobs) <= 2
        assert compiled.duplicates_dropped >= 4
        assert any("digest-identical" in w for w in compiled.warnings)

    def test_random_mode_is_seed_deterministic(self):
        spec = small_spec(
            mode="random",
            samples=6,
            sample_seed=5,
            axes=axes(
                benchmark=("astar", "mcf"),
                level=("unprotected", "encryption_only"),
                num_requests=(100, 200, 400),
            ),
        )
        first = [job.digest() for job in spec.compile().jobs]
        second = [job.digest() for job in spec.compile().jobs]
        assert first == second
        shifted = small_spec(
            mode="random", samples=6, sample_seed=6, axes=spec.axes
        )
        assert [j.digest() for j in shifted.compile().jobs] != first

    def test_baseline_anchors_added_once_per_configuration(self):
        compiled = small_spec(
            baselines=True,
            axes=axes(
                benchmark=("astar",),
                level=("encryption_only", "obfusmem_auth"),
                num_requests=(150, 300),
            ),
        ).compile()
        # 4 protected points + one unprotected anchor per length.
        assert compiled.baselines_added == 2
        anchors = [
            job
            for job in compiled.jobs
            if job.level == ProtectionLevel.UNPROTECTED
        ]
        assert {a.num_requests for a in anchors} == {150, 300}

    def test_no_anchor_duplicated_when_unprotected_is_an_axis_value(self):
        compiled = small_spec(baselines=True).compile()
        assert compiled.baselines_added == 0

    def test_machine_axis_reaches_the_job_machine_config(self):
        compiled = small_spec(
            axes=axes(
                benchmark=("astar",),
                level=("unprotected",),
                machine__channels=(1, 2),
            )
        ).compile()
        assert sorted(job.machine.channels for job in compiled.jobs) == [1, 2]


class TestCostModel:
    def test_worth_forking_needs_absolute_and_relative_depth(self):
        assert worth_forking(100, 1000)
        assert not worth_forking(99, 500)  # below the absolute floor
        assert not worth_forking(100, 1001)  # below the fraction
        assert not worth_forking(0, 100)


class TestPlanSweep:
    def family_jobs(self, lengths, level="encryption_only"):
        return [JobSpec("astar", level, None, n, SEED) for n in lengths]

    def test_family_members_fan_out_across_waves(self):
        plan = plan_sweep(self.family_jobs((150, 300, 600)))
        assert len(plan.waves) == 3
        assert plan.families == 1 and plan.singletons == 0
        assert plan.warm_starts_planned == 2
        ranked = [wave[0] for wave in plan.waves]
        assert [j.spec.num_requests for j in ranked] == [150, 300, 600]
        assert [j.warm_start for j in ranked] == [False, True, True]
        assert [j.shared_requests for j in ranked] == [0, 150, 300]
        # Seeding members save; the deepest member only reads the store.
        assert [j.save_snapshots for j in ranked] == [True, True, False]
        assert all(j.use_store for j in ranked)

    def test_unworthy_forks_run_cold_in_wave_zero(self):
        plan = plan_sweep(self.family_jobs((50, 80)))
        assert len(plan.waves) == 1
        assert plan.warm_starts_planned == 0
        assert all(not job.use_store for job in plan.waves[0])

    def test_singletons_bypass_the_store(self):
        plan = plan_sweep(self.family_jobs((150,)))
        assert plan.singletons == 1
        job = plan.waves[0][0]
        assert not job.use_store and not job.warm_start

    def test_waves_batch_same_workload_points_adjacent(self):
        jobs = []
        for benchmark in ("mcf", "astar"):
            for level in ("unprotected", "encryption_only", "obfusmem_auth"):
                jobs.append(JobSpec(benchmark, level, None, 100, SEED))
        plan = plan_sweep(jobs)
        benchmarks = [job.spec.benchmark for job in plan.waves[0]]
        # One contiguous stretch per benchmark, whatever the input order.
        assert benchmarks == sorted(benchmarks)

    def test_describe_summarizes_the_plan(self):
        plan = plan_sweep(self.family_jobs((150, 300)))
        text = plan.describe()
        assert "2 jobs" in text and "warm starts planned: 1" in text
        assert "wave 0" in text and "wave 1" in text


class TestRunSweep:
    def test_scheduled_execution_is_bit_identical_and_warm(self, tmp_path):
        compiled = small_spec().compile()
        cold = ParallelRunner(workers=1).run(list(compiled.jobs))
        cold_by_digest = {
            spec.digest(): result
            for spec, result in zip(compiled.jobs, cold)
        }

        aggregator = ParetoAggregator()
        run = run_sweep(
            compiled,
            checkpoints=CheckpointStore(tmp_path),
            aggregator=aggregator,
        )
        assert set(run.results) == set(cold_by_digest)
        for spec in compiled.jobs:
            warm = run.result_for(spec)
            assert warm.execution_time_ns == cold_by_digest[spec.digest()].execution_time_ns
            assert warm.stats == cold_by_digest[spec.digest()].stats
        # The schedule actually forked: provenance lands in the manifest.
        assert run.manifest.checkpoint_hits == run.plan.warm_starts_planned
        assert run.manifest.events_resumed > 0
        assert run.manifest.jobs == len(compiled.jobs)
        # The streaming aggregator saw every point and found its anchors.
        assert aggregator.pending == 0
        assert len(aggregator.points()) == 2  # the two protected points
        frontier = aggregator.frontier()
        assert frontier, "a non-empty sweep must have a frontier"
        for a in frontier:
            assert not any(b.dominates(a) for b in frontier)

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_every_scheme_forks_every_planned_warm_start(self, tmp_path, scheme):
        # Each run sizes its milestone probe from its own length, so even
        # the lightest scheme's short seeding run catches its 90 % save.
        jobs = [JobSpec("astar", scheme, None, n, SEED) for n in (200, 400)]
        run = run_sweep(jobs, checkpoints=CheckpointStore(tmp_path))
        assert run.plan.warm_starts_planned == 1
        assert run.manifest.checkpoint_hits == run.plan.warm_starts_planned

    def test_a_repeated_spec_is_not_its_own_warm_start(self, tmp_path):
        a, b = (JobSpec("astar", "obfusmem", None, n, SEED) for n in (200, 400))
        twins = run_sweep([a, a], checkpoints=CheckpointStore(tmp_path / "twins"))
        assert twins.plan.warm_starts_planned == 0
        assert twins.manifest.checkpoint_hits == twins.plan.warm_starts_planned
        assert not list((tmp_path / "twins").glob("ckpt-*.json"))
        # A longer member still forks: one of the twins seeds it.
        run = run_sweep([a, a, b], checkpoints=CheckpointStore(tmp_path / "seeded"))
        assert run.plan.warm_starts_planned == 1
        assert run.manifest.checkpoint_hits == run.plan.warm_starts_planned


class TestCli:
    def _spec_file(self, tmp_path, payload=None):
        path = tmp_path / "sweep.json"
        payload = payload or small_spec().to_jsonable()
        path.write_text(json.dumps(payload))
        return path

    def test_dry_run_prints_the_plan_without_simulating(self, tmp_path, capsys):
        from repro.__main__ import main

        main(["sweep", "--spec", str(self._spec_file(tmp_path)), "--dry-run"])
        out = capsys.readouterr().out
        assert "compiled 4 job(s)" in out
        assert "sweep plan:" in out
        assert "warm starts planned: 2" in out
        assert "executed" not in out  # nothing ran

    def test_dry_run_compiles_a_zip_spec_with_a_repeated_value(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        path = self._spec_file(tmp_path, REPEATED_ZIP)
        main(["sweep", "--spec", str(path), "--dry-run"])
        assert "compiled 3 job(s)" in capsys.readouterr().out

    def test_oversized_spec_exits_with_one_line(self, tmp_path, capsys):
        from repro.__main__ import main

        payload = dict(small_spec().to_jsonable(), mode="random", samples=10**9)
        path = self._spec_file(tmp_path, payload)
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--spec", str(path), "--dry-run"])
        # A string exit code is printed to stderr as one line, status 1.
        assert exit_info.value.code == (
            f"sweep describes 1000000000 design points; "
            f"the limit is {MAX_SWEEP_POINTS}"
        )
        assert capsys.readouterr().out == ""

    def test_bad_spec_exits_with_a_message(self, tmp_path):
        from repro.__main__ import main

        path = self._spec_file(tmp_path, {"axes": {"benchmark": ["astar"]}})
        with pytest.raises(SystemExit, match="level"):
            main(["sweep", "--spec", str(path), "--dry-run"])

    def test_malformed_value_exits_with_a_message(self, tmp_path):
        from repro.__main__ import main

        payload = dict(small_spec().to_jsonable(), samples="abc")
        path = self._spec_file(tmp_path, payload)
        with pytest.raises(SystemExit, match="'samples' needs an integer"):
            main(["sweep", "--spec", str(path), "--dry-run"])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("capacity_bytes", 1e400, "capacity must be an integer"),
            ("capacity_bytes", 2.5e9, "capacity must be an integer"),
            ("capacity_bytes", 3 << 30, "capacity must be a positive power of two"),
            ("ranks_per_channel", 3, "ranks per channel must be a positive power"),
        ],
    )
    def test_bad_memory_organization_exits_at_compile(
        self, tmp_path, field, value, message
    ):
        from repro.__main__ import main

        payload = small_spec().to_jsonable()
        payload["axes"][f"machine.{field}"] = [value]
        with pytest.raises(ConfigurationError, match=message):
            SweepSpec.from_jsonable(payload).compile()
        path = self._spec_file(tmp_path, payload)
        with pytest.raises(SystemExit, match=message):
            main(["sweep", "--spec", str(path), "--dry-run"])

    def test_full_run_writes_the_frontier_csv(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.experiments import runner
        from repro.experiments.executor import RunManifest

        runner.configure(cache_enabled=True)  # opt back in (hermetic conftest)
        csv_path = tmp_path / "pareto.csv"
        main(
            [
                "sweep",
                "--spec",
                str(self._spec_file(tmp_path)),
                "--pareto",
                str(csv_path),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert "checkpoint warm-start(s)" in out
        assert "pareto frontier:" in out
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0].startswith("scheme,benchmark")
        assert len(rows) >= 2  # header plus at least one frontier point
        manifest = RunManifest.load(tmp_path / "cache" / "manifests" / "sweep.json")
        assert manifest is not None and manifest.checkpoint_hits > 0


class TestManifestWarnings:
    def test_compile_warnings_reach_the_manifest(self, tmp_path):
        compiled = small_spec(
            axes=axes(
                benchmark=("astar", "astar"),
                level=("unprotected",),
                num_requests=(60,),
            )
        ).compile()
        run = run_sweep(compiled)
        assert any("digest-identical" in w for w in run.manifest.warnings)
