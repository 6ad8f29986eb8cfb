"""The scheme×attack leakage matrix: specs, caching, goldens, export."""

import json
import subprocess
import sys

import pytest

from repro.attacks import AttackOutcome, attacker_names
from repro.errors import ConfigurationError
from repro.experiments import matrix, runner
from repro.experiments.executor import ResultCache
from repro.experiments.export import write_matrix
from repro.experiments.matrix import (
    AttackCellSpec,
    MatrixCell,
    MatrixResult,
    format_matrix,
    matrix_specs,
)
from repro.schemes import scheme_names

SMALL = dict(
    schemes=["unprotected", "obfusmem"],
    attacks=["dictionary", "type_recovery"],
    workloads=("bwaves", "mcf"),
)
ONE_CELL = dict(
    schemes=["unprotected"],
    attacks=["type_recovery"],
    workloads=("bwaves",),
    num_requests=200,
    seed=5,
)


@pytest.fixture(scope="module")
def small_matrix(tmp_path_factory):
    """One small matrix, run once against an isolated cache directory."""
    cache_dir = tmp_path_factory.mktemp("matrix-cache")
    runner.configure(workers=1, cache_enabled=True, cache_dir=cache_dir)
    runner.clear_cache()
    matrix.capture_workload.cache_clear()
    result = matrix.run(**SMALL)
    yield result, cache_dir
    runner.reset_config()
    runner.clear_cache()
    matrix.capture_workload.cache_clear()


class TestCellSpec:
    def test_digest_is_stable_and_spec_sensitive(self):
        spec = AttackCellSpec(attack="dictionary", level="unprotected")
        assert spec.digest() == AttackCellSpec(
            attack="dictionary", level="unprotected"
        ).digest()
        assert spec.digest() != AttackCellSpec(
            attack="dictionary", level="unprotected", seed=spec.seed + 1
        ).digest()
        assert spec.digest() != AttackCellSpec(
            attack="type_recovery", level="unprotected"
        ).digest()

    def test_validation_fails_fast(self):
        with pytest.raises(ConfigurationError, match="dictionary"):
            AttackCellSpec(attack="dictionnary", level="unprotected")
        with pytest.raises(ConfigurationError):
            AttackCellSpec(attack="dictionary", level="nope")
        with pytest.raises(ConfigurationError, match="workload"):
            AttackCellSpec(attack="dictionary", level="unprotected", workloads=())
        with pytest.raises(ConfigurationError, match="quake"):
            AttackCellSpec(
                attack="dictionary", level="unprotected", workloads=("quake",)
            )
        with pytest.raises(ConfigurationError):
            AttackCellSpec(attack="dictionary", level="unprotected", num_requests=0)

    def test_runner_contract_fields(self):
        spec = AttackCellSpec(attack="dictionary", level="oram")
        assert spec.benchmark == "bwaves+mcf+astar"
        assert spec.cores == 1
        assert spec.machine.channels == spec.channels

    def test_full_grid_covers_both_registries(self):
        specs = matrix_specs()
        assert len(specs) == len(scheme_names()) * len(attacker_names())


class TestSmallMatrix:
    def test_golden_cells(self, small_matrix):
        """The obfusmem-vs-plaintext advantage ordering, end to end."""
        result, _ = small_matrix
        plain_dict = result.cell("unprotected", "dictionary")
        obfus_dict = result.cell("obfusmem", "dictionary")
        assert plain_dict.outcome.advantage == 1.0 and plain_dict.leaked
        assert obfus_dict.outcome.advantage == 0.0 and not obfus_dict.leaked
        plain_type = result.cell("unprotected", "type_recovery")
        obfus_type = result.cell("obfusmem", "type_recovery")
        assert plain_type.outcome.advantage == 1.0
        assert obfus_type.outcome.advantage < 0.15
        assert result.agreement == (4, 4)

    def test_orderings_pass(self, small_matrix):
        result, _ = small_matrix
        checks = result.check_orderings()
        assert checks  # the obfusmem claim is present for this subset
        assert all(passed for _claim, passed in checks)

    def test_manifest_written(self, small_matrix):
        _, cache_dir = small_matrix
        manifest = json.loads((cache_dir / "manifests" / "matrix.json").read_text())
        assert manifest["jobs"] == 4

    def test_rerun_hits_memory(self, small_matrix):
        result, _ = small_matrix
        again = matrix.run(**SMALL)
        assert again.manifest.cache_misses == 0
        assert again.manifest.cache_hits == 4
        assert [c.outcome for c in again.cells] == [c.outcome for c in result.cells]

    def test_disk_cache_survives_memory_clear(self, small_matrix):
        result, cache_dir = small_matrix
        # The hermetic autouse fixture disabled the cache for this test
        # body; point the runner back at the module's populated cache.
        runner.configure(workers=1, cache_enabled=True, cache_dir=cache_dir)
        runner.clear_cache()
        matrix.capture_workload.cache_clear()
        again = matrix.run(**SMALL)
        assert again.manifest.cache_misses == 0  # all cells from disk
        assert [c.outcome for c in again.cells] == [c.outcome for c in result.cells]

    def test_format_matrix_render(self, small_matrix):
        result, _ = small_matrix
        text = format_matrix(result)
        assert "scheme" in text and "agree" in text
        assert "1.00+" in text  # unprotected leaks
        assert "0.00-" in text  # obfusmem resists
        assert "*" not in text.splitlines()[2]  # no disagreement flags

    def test_csv_export(self, small_matrix, tmp_path):
        result, _ = small_matrix
        path = write_matrix(result, tmp_path / "matrix.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("scheme,attack,advantage")
        assert len(lines) == 1 + len(result.cells)
        assert any(line.startswith("unprotected,dictionary,1.0000") for line in lines)


class TestAttackCache:
    def test_roundtrip_and_damage_degrade_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = AttackCellSpec(attack="dictionary", level="unprotected")
        outcome = AttackOutcome("dictionary", "unprotected", 1.0, 0.0, 1.0, {})
        assert cache.get(spec) is None
        path = cache.put(spec, outcome)
        assert cache.get(spec) == outcome
        payload = json.loads(path.read_text())
        payload["schema"] = "attack-cell-0"
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None  # stale schema
        path.write_text("{not json")
        assert cache.get(spec) is None  # damage

    def test_cells_share_the_result_directory_and_its_budget(self, tmp_path):
        """Cell entries sit beside simulation results, under one LRU budget."""
        runner.configure(cache_enabled=True, cache_dir=tmp_path)
        runner.clear_cache()
        matrix.capture_workload.cache_clear()
        matrix.run(**ONE_CELL)
        [spec] = matrix_specs(**ONE_CELL)
        entry = tmp_path / f"{spec.digest()}.json"
        assert entry.is_file()
        cache = ResultCache(tmp_path)
        assert cache.size_bytes() >= entry.stat().st_size
        assert cache.evict(max_bytes=0) >= 1
        assert not entry.exists()


class TestProfiledMatrix:
    def test_profiled_run_writes_reports(self, tmp_path):
        runner.configure(cache_enabled=True, cache_dir=tmp_path, profile=True)
        runner.clear_cache()
        matrix.capture_workload.cache_clear()
        try:
            matrix.run(**ONE_CELL)
        finally:
            runner.configure(profile=False)
        manifests = tmp_path / "manifests"
        report = json.loads((manifests / "matrix.profile.json").read_text())
        assert report["events_executed"] > 0
        assert (manifests / "matrix.profile.txt").is_file()


class TestDeterminism:
    def test_cell_outcome_bit_identical_across_processes(self, tmp_path):
        """Same spec digest -> byte-identical AttackOutcome JSON, twice."""
        script = (
            "import json\n"
            "from repro.experiments import runner\n"
            "from repro.experiments.matrix import AttackCellSpec\n"
            "runner.configure(cache_enabled=False)\n"
            "spec = AttackCellSpec(attack='type_recovery', level='unprotected',\n"
            "                      workloads=('bwaves',), num_requests=400, seed=11)\n"
            "print(spec.digest())\n"
            "print(json.dumps(spec.execute().to_jsonable(), sort_keys=True))\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        digest, payload = outputs[0].strip().splitlines()
        assert len(digest) == 64
        assert json.loads(payload)["advantage"] == 1.0


class TestResultAssembly:
    def _cell(self, scheme, attack, advantage, expected, threshold=0.5):
        outcome = AttackOutcome(attack, scheme, advantage, 0.0, advantage, {})
        return MatrixCell(scheme, attack, outcome, expected, threshold)

    def test_verdicts_and_disagreement_flag(self):
        leaky = self._cell("hide", "fingerprint", 0.9, expected=True)
        surprising = self._cell("obfusmem", "fingerprint", 0.9, expected=False)
        assert leaky.leaked and leaky.agrees
        assert surprising.leaked and not surprising.agrees
        result = MatrixResult(("bwaves",), 100, 1, 4, [leaky, surprising])
        assert result.agreement == (1, 2)
        assert "*" in format_matrix(result)

    def test_ordering_check_flags_timing_mismatch(self):
        cells = [
            self._cell("oram_ring", "rebuild_timing", 0.0, expected=True),
        ]
        result = MatrixResult(("bwaves",), 100, 1, 4, cells)
        checks = dict(result.check_orderings())
        assert checks["rebuild-timing flags exactly the bursty ORAM backends"] is False

    def test_cell_lookup_raises_on_absent(self):
        result = MatrixResult(("bwaves",), 100, 1, 4, [])
        with pytest.raises(KeyError):
            result.cell("unprotected", "dictionary")
