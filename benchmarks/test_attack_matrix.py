"""Bench: the scheme×attack leakage matrix at reduced scale.

Runs the matrix over a representative 4-scheme × 4-attack grid (passive
wire attacks plus the §3.2 dictionary) on two workloads and times the
full capture-then-attack sweep.  The security orderings asserted by
``python -m repro matrix`` must hold at this scale too — a bench that
times a wrong matrix would be worthless — so the headline assertions are
the same three: obfusmem ≈ random for address/type attacks, plaintext
schemes leak, and verdicts agree with the trait predictions.

Writes wall-clock plus a per-scheme advantage summary to
``benchmarks/BENCH_attack_matrix.json``.
"""

import json
import time
from pathlib import Path

import pytest

from conftest import run_once
from repro.experiments import matrix, runner

SCHEMES = ["unprotected", "encryption_only", "obfusmem", "oram_ring"]
ATTACKS = ["dictionary", "fingerprint", "type_recovery", "rebuild_timing"]
WORKLOADS = ("bwaves", "mcf")
OUTPUT_PATH = Path(__file__).parent / "BENCH_attack_matrix.json"

_runs: dict[str, object] = {}


def _run_matrix():
    runner.clear_cache()
    matrix.capture_workload.cache_clear()
    started = time.perf_counter()
    result = matrix.run(schemes=SCHEMES, attacks=ATTACKS, workloads=WORKLOADS)
    return result, time.perf_counter() - started


def test_matrix_sweep(benchmark):
    result, elapsed = run_once(benchmark, _run_matrix)
    _runs["result"] = result
    _runs["wall_s"] = elapsed
    assert len(result.cells) == len(SCHEMES) * len(ATTACKS)
    # The paper's security story, condensed to three orderings.
    assert result.cell("unprotected", "dictionary").outcome.advantage == 1.0
    assert result.cell("obfusmem", "dictionary").outcome.advantage == 0.0
    assert result.cell("obfusmem", "fingerprint").outcome.advantage < 0.2
    assert result.cell("oram_ring", "rebuild_timing").leaked
    agreed, total = result.agreement
    assert agreed == total


@pytest.mark.parametrize("scheme", SCHEMES)
def test_verdicts_match_trait_predictions(scheme):
    result = _runs.get("result")
    if result is None:
        pytest.skip("matrix sweep did not run in this session")
    for attack in ATTACKS:
        assert result.cell(scheme, attack).agrees


def _emit():
    result = _runs.get("result")
    if result is None:
        return  # a subset of the module ran; don't emit a partial record
    advantages = {
        scheme: {
            attack: round(result.cell(scheme, attack).outcome.advantage, 4)
            for attack in ATTACKS
        }
        for scheme in SCHEMES
    }
    agreed, total = result.agreement
    payload = {
        "bench": "attack_matrix",
        "schemes": SCHEMES,
        "attacks": ATTACKS,
        "workloads": list(WORKLOADS),
        "num_requests": result.num_requests,
        "seed": result.seed,
        "cells": len(result.cells),
        "wall_s": round(_runs["wall_s"], 4),
        "agreement": f"{agreed}/{total}",
        "advantage": advantages,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=1))


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write ``BENCH_attack_matrix.json`` once the sweep has run."""
    yield
    _emit()
