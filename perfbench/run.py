#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
line before it holds the run's metadata and sample counts, and the same
record is written under ``perfbench/.out/``.  Without ``src/repro`` the
command prints no result and exits with status 2.

Workloads, metrics and the traced run are described in ``README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    OUT_DIR,
    SRC,
    load_golden,
    median,
    peak_rss_mib,
    pin_to_one_cpu,
    ratio,
    run_child,
    run_metadata,
    tail,
    timing,
    variant_of,
)

perf = time.perf_counter

WORKLOADS = ("paper-grid", "app-kernels", "sweep-extend", "serve-mix")
#: Fresh-process set-ups per run besides this process's own.  Closed loops
#: run one after every measured pass, so the samples span the run, and top
#: up to this count; serve-mix runs them after its window.
SETUP_PROBES = 4

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "req/s",
    "accesses_per_s": "accesses/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "hit_p50_ms": "ms",
    "hit_tail_ms": "ms",
    "miss_p50_s": "s",
    "peak_rss_mib": "MiB",
}

LAYER_SELF = (
    "sim.engine",
    "cpu.core",
    "secure.memory_encryption",
    "core.controller",
    "core.hide",
    "oram.timing",
    "mem.scheduler",
    "mem.pcm",
    "cpu.generator",
    "cpu.kernels",
    "mem.hierarchy",
)

#: Self time that no named layer claims: the executor's wrappers around
#: jobs (the benchmark's progress callback included) and engine events
#: whose handler belongs to no module of the program.
UNNAMED = ("experiments.executor", "other")

PER_LAYER = {
    "sim.engine.events_per_request": "events/req",
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "cpu.core.read_wait_ns": "ns",
    "secure.memory_encryption.counter_hit_ratio": "ratio",
    "secure.memory_encryption.sim_self_ns": "ns",
    "core.controller.dummies_per_request": "dummies/req",
    "core.controller.sim_self_ns": "ns",
    "mem.scheduler.events": "count",
    "mem.scheduler.queue_wait_ns": "ns",
    "mem.scheduler.turnarounds_per_request": "turns/req",
    "mem.pcm.row_hit_ratio": "ratio",
    "mem.pcm.cell_writes_per_request": "writes/req",
    "experiments.trace_cache.hit_ratio": "ratio",
    "mem.hierarchy.llc_miss_ratio": "ratio",
    "system.world.build_s": "s",
    "system.world.snapshot_s": "s",
    "system.world.thaw_s": "s",
    "experiments.checkpoints.snapshot_bytes": "bytes",
    "experiments.checkpoints.store_s": "s",
    "experiments.checkpoints.resumed_frac": "ratio",
    "experiments.sweep.plan_s": "s",
    "experiments.executor.result_cache.get_s": "s",
    "experiments.executor.result_cache.put_s": "s",
    "serve.http.overhead_ms": "ms",
    "serve.service.queue_wait_s": "s",
    "serve.pool.run_s": "s",
    "serve.pool.busy_frac": "ratio",
    "serve.pool.requeues": "count",
    "serve.client.retries_per_request": "retries/req",
    "loadgen.lag_ms": "ms",
    "table3_error_pp": "pp",
    "perfbench.tracing_overhead": "ratio",
    "perfbench.tracer.self_s": "s",
    "perfbench.unattributed_frac": "ratio",
}


# ---------------------------------------------------------------------------
# set-up


def build(workload: str, variant: int):
    """Construct a workload: imports, scheme registry and its inputs."""
    if workload == "serve-mix":
        from servemix import ServeMix

        mix = ServeMix(variant)
        mix.start()
        return mix
    from workloads import CLOSED_LOOP

    return CLOSED_LOOP[workload](variant)


def setup_probe(workload: str, seed: int) -> float:
    """Set up once in this fresh process; returns seconds since start."""
    built = build(workload, variant_of(seed))
    elapsed = perf() - _T0
    if workload == "serve-mix":
        built.stop()
    return elapsed


def probe_setup(workload: str, seed: int) -> float:
    """Set up once in a fresh child process (waited for); its seconds."""
    completed = run_child(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--setup-probe",
        ],
        timeout=60,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr[-2000:]}")
    return float(completed.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# checks


def golden_failures(workload: str, variant: int, one_pass) -> int:
    """Jobs of one pass whose outputs differ from the recorded ones."""
    recorded = load_golden().get(workload, {}).get(str(variant), {})
    if workload == "sweep-extend":
        # One digest covers the whole sweep's aggregates.
        if one_pass.digests["aggregate"] != recorded.get("aggregate"):
            return len(one_pass.jobs)
        return 0
    return sum(
        1 for key, digest in one_pass.digests.items() if recorded.get(key) != digest
    )


# ---------------------------------------------------------------------------
# closed-loop workloads


def run_passes(
    workload, seconds: float, tracer=None, between=None
) -> tuple[list, list]:
    """Measure passes for ``seconds``: ``(untraced, traced)``.

    Untraced runs only measure plain passes.  A traced run alternates a
    plain pass with a traced pass of the same inputs.  A pass is started
    only while at least half of one is expected to fit in the window.
    ``between`` runs after every round, outside the window's time.
    """
    plain, traced = [], []
    elapsed = 0.0
    while True:
        started = perf()
        gc.collect()
        plain.append(workload.run_pass())
        if tracer is not None:
            gc.collect()
            tracer.recording = not traced
            tracer.install()
            try:
                traced.append(workload.run_pass())
            finally:
                tracer.uninstall()
        elapsed += perf() - started
        if between is not None:
            between()
        per_round = elapsed / len(plain)
        if tracer is None and len(plain) < 2:
            continue
        if elapsed + per_round / 2 >= seconds:
            return plain, traced


def closed_loop_metrics(passes, setup: list[float]) -> tuple[dict, dict]:
    from workloads import pass_metrics

    summary = pass_metrics(passes)
    values = {
        "setup_s": statistics.median(setup),
        "requests_per_s": summary["requests_per_s"],
        "accesses_per_s": summary["accesses_per_s"],
        "job_p50_s": summary["job_s"]["p50"],
        "job_tail_s": summary["job_s"]["tail"],
        "hit_p50_ms": summary["hit_ms"]["p50"],
        "hit_tail_ms": summary["hit_ms"]["tail"],
        "miss_p50_s": summary["miss_s"]["p50"],
        "peak_rss_mib": peak_rss_mib(),
    }
    samples = {
        "passes": len(passes),
        "pass_wall_s": [one.wall_s for one in passes],
        "job_s": summary["job_s"],
        "hit_ms": summary["hit_ms"],
        "miss_s": summary["miss_s"],
        "setup_s": setup,
    }
    return values, samples


def _stat_sum(results, name: str, group: str) -> float:
    """Sum of counter ``name`` over every ``group*`` stat group."""
    return sum(
        value
        for result in results
        for key, value in result.stats.items()
        if key.startswith(group) and key.endswith(f".{name}")
    )


def _histogram_mean(results, group: str, name: str) -> float:
    total = count = 0.0
    for result in results:
        for key, value in result.stats.items():
            if key.startswith(group) and key.endswith(f".{name}.mean"):
                samples = result.stats[key[: -len("mean")] + "samples"]
                total += value * samples
                count += samples
    return ratio(total, count)


def layer_metrics(tracer, traced, overhead: float) -> dict:
    """Per-layer metrics of the traced passes (zeros for idle layers)."""
    results = [result for one in traced for result in one.results]
    passes = len(traced)
    with_channels = [r for r in results if "channel0.requests_serviced" in r.stats]
    scheduled_requests = sum(result.num_requests for result in with_channels)
    calls, span_s, values = tracer.calls, tracer.span_s, tracer.values

    def mean_span(*names: str) -> float:
        return ratio(sum(span_s[n] for n in names), sum(calls[n] for n in names))

    store = (
        "experiments.checkpoints:CheckpointStore.put",
        "experiments.checkpoints:CheckpointStore.deepest",
    )
    counter_hits = _stat_sum(results, "counter_hits", "memenc")
    counter_lookups = counter_hits + _stat_sum(results, "counter_misses", "memenc")
    attributed = sum(
        seconds for layer, seconds in tracer.self_s.items() if layer not in UNNAMED
    )
    wall = sum(one.wall_s for one in traced)
    metrics = {
        "sim.engine.events_per_request": ratio(
            values["world_events"], values["world_requests"]
        ),
        **{
            f"{layer}.self_s": tracer.self_s[layer] / passes for layer in LAYER_SELF
        },
        "cpu.core.read_wait_ns": _histogram_mean(results, "core", "read_latency_ns"),
        "secure.memory_encryption.counter_hit_ratio": ratio(
            counter_hits, counter_lookups
        ),
        "secure.memory_encryption.sim_self_ns": ratio(
            tracer.sim_self_ns["secure.memory_encryption"],
            tracer.sim_reads["secure.memory_encryption"],
        ),
        "core.controller.dummies_per_request": ratio(
            _stat_sum(results, "dummy_reads", "obfusmem")
            + _stat_sum(results, "dummy_writes", "obfusmem"),
            _stat_sum(results, "requests_protected", "obfusmem"),
        ),
        "core.controller.sim_self_ns": ratio(
            tracer.sim_self_ns["core.controller"], tracer.sim_reads["core.controller"]
        ),
        "mem.scheduler.events": tracer.events["mem.scheduler"] / passes,
        "mem.scheduler.queue_wait_ns": _histogram_mean(
            results, "channel", "queue_delay_ns"
        ),
        "mem.scheduler.turnarounds_per_request": ratio(
            _stat_sum(results, "bus_turnarounds", "channel"), scheduled_requests
        ),
        "mem.pcm.row_hit_ratio": ratio(
            _stat_sum(results, "row_buffer_hits", "pcm"),
            _stat_sum(results, "row_buffer_accesses", "pcm"),
        ),
        "mem.pcm.cell_writes_per_request": ratio(
            _stat_sum(results, "array_writes", "pcm"), scheduled_requests
        ),
        "experiments.trace_cache.hit_ratio": ratio(
            values["trace_hits"], values["trace_hits"] + values["trace_misses"]
        ),
        "mem.hierarchy.llc_miss_ratio": ratio(
            values["hierarchy_llc_misses"], values["hierarchy_accesses"]
        ),
        "system.world.build_s": mean_span("system.world.build"),
        "system.world.snapshot_s": mean_span("system.world.snapshot"),
        "system.world.thaw_s": mean_span("system.world.thaw"),
        "experiments.checkpoints.snapshot_bytes": ratio(
            values["snapshot_bytes"], calls["system.world.snapshot"]
        ),
        "experiments.checkpoints.store_s": mean_span(*store),
        "experiments.checkpoints.resumed_frac": ratio(
            sum(one.resumed_events for one in traced), values["world_events"]
        ),
        "experiments.sweep.plan_s": span_s["experiments.sweep.plan"] / passes,
        "experiments.executor.result_cache.get_s": mean_span(
            "experiments.executor.result_cache:ResultCache.get"
        ),
        "experiments.executor.result_cache.put_s": mean_span(
            "experiments.executor.result_cache:ResultCache.put"
        ),
        "table3_error_pp": traced[0].table3_error_pp,
        "perfbench.tracing_overhead": overhead,
        "perfbench.tracer.self_s": tracer.self_s["perfbench.tracer"] / passes,
        "perfbench.unattributed_frac": ratio(wall - attributed, wall),
    }
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def closed_loop(args, variant: int) -> tuple[dict, int, int, dict]:
    workload = build(args.workload, variant)
    setup_main = perf() - _T0
    if not args.trace:
        setup = [setup_main]

        def probe() -> None:
            setup.append(probe_setup(args.workload, args.seed))

        passes, _ = run_passes(workload, args.seconds, between=probe)
        while len(setup) <= SETUP_PROBES:
            probe()
        failed = sum(golden_failures(args.workload, variant, one) for one in passes)
        attempted = sum(len(one.jobs) for one in passes)
        values, samples = closed_loop_metrics(passes, setup)
        return values, attempted, failed, samples

    from tracer import Tracer

    tracer = Tracer(OUT_DIR)
    plain, traced = run_passes(workload, args.seconds, tracer)
    failed = sum(
        golden_failures(args.workload, variant, one) for one in plain + traced
    )
    # Hygiene: tracing must not change a single simulated output.
    failed += sum(
        1
        for one in traced
        for key, digest in one.digests.items()
        if plain[0].digests.get(key) != digest
    )
    if args.workload == "app-kernels":
        filtered = tracer.values["hierarchy_accesses"]
        failed += filtered != sum(one.accesses for one in traced)
    attempted = sum(len(one.jobs) for one in plain + traced)
    overhead = statistics.median([one.wall_s for one in traced]) / statistics.median(
        [one.wall_s for one in plain]
    ) - 1.0
    metrics = layer_metrics(tracer, traced, overhead)
    tracer.write_trace(
        OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json",
        {"self_s": tracer.self_s, "span_s": tracer.span_s, "calls": tracer.calls},
    )
    samples = {
        "plain_wall_s": [one.wall_s for one in plain],
        "traced_wall_s": [one.wall_s for one in traced],
        "engine_cost_ns": tracer.engine_cost_s * 1e9,
        "self_s_per_pass": {
            layer: seconds / len(traced) for layer, seconds in tracer.self_s.items()
        },
        "unnamed_layers": list(UNNAMED),
    }
    return metrics, attempted, failed, samples


# ---------------------------------------------------------------------------
# serve-mix


def all_outcomes(window: dict) -> list:
    """Every arrival of every round of a window."""
    return [outcome for one in window["rounds"] for outcome in one]


def window_metrics(window: dict) -> tuple[dict, dict]:
    """End-to-end metrics of one open-loop window.

    Latencies use each arrival slot's median round: every round replays
    the same schedule, so a slot's queueing behind cold completions recurs
    in every round while jumps in the shared host's speed strike rounds at
    random.
    """
    from repro.cpu.spec_profiles import SPEC_PROFILES
    from repro.experiments.executor import result_from_jsonable
    from servemix import served

    outcomes = all_outcomes(window)
    ok = [outcome for outcome in outcomes if served(outcome)]
    slots = []  # (median latency, cold) per arrival slot
    for slot in zip(*window["rounds"]):
        good = [outcome for outcome in slot if served(outcome)]
        if good:
            cold = good[0].job["source"] == "simulated"
            slots.append((statistics.median(o.latency_s for o in good), cold))
    every = [(o.latency_s, o.job["source"] == "simulated") for o in ok]

    def series(kind: bool | None, scale: float = 1.0) -> dict:
        return timing(
            [latency for latency, cold in slots if kind in (None, cold)],
            [latency for latency, cold in every if kind in (None, cold)],
            scale,
        )

    span = sum(max(o.done_s for o in one) for one in window["rounds"])
    hot = {}
    for outcome in ok:
        if outcome.arrival.kind == "hit":
            spec = outcome.arrival.spec
            hot[(spec["benchmark"], spec["level"])] = result_from_jsonable(
                outcome.job["result"]
            )
    errors = [
        abs(
            hot[(benchmark, "obfusmem_auth")].overhead_pct(hot[(benchmark, "unprotected")])
            - SPEC_PROFILES[benchmark].obfusmem_overhead_pct
        )
        for benchmark, level in hot
        if level == "unprotected" and (benchmark, "obfusmem_auth") in hot
    ]
    job, hit, miss = series(None), series(False, 1000.0), series(True)
    cold = [o for o in ok if o.job["source"] == "simulated"]
    values = {
        "requests_per_s": sum(o.job["result"]["num_requests"] for o in ok) / span,
        "accesses_per_s": sum(o.job["result"]["num_requests"] for o in cold) / span,
        "job_p50_s": job["p50"],
        "job_tail_s": job["tail"],
        "hit_p50_ms": hit["p50"],
        "hit_tail_ms": hit["tail"],
        "miss_p50_s": miss["p50"],
        "peak_rss_mib": window["rss_mib"],
    }
    lag, lag_percentile = tail([o.lag_s * 1000.0 for o in outcomes])
    samples = {
        "arrivals": len(outcomes),
        "rounds": len(window["rounds"]),
        "window_s": span,
        "job_s": job,
        "hit_ms": hit,
        "miss_s": miss,
        "lag_tail_ms": lag,
        "lag_tail_percentile": lag_percentile,
        "retries": window["retries"],
        "table3_error_pp": statistics.mean(errors) if errors else 0.0,
    }
    return values, samples


def serve_layer_metrics(window: dict, tracer, overhead: float) -> dict:
    """Per-layer serve metrics: job JSON and /metrics of ``window``, plus
    the result-cache spans ``tracer`` recorded."""
    from servemix import pool_busy_frac, served

    outcomes = [o for o in all_outcomes(window) if served(o)]
    hits = [o for o in outcomes if o.job["source"] != "simulated"]
    misses = [o for o in outcomes if o.job["source"] == "simulated"]

    def mean_span(name: str) -> float:
        return ratio(tracer.span_s[name], tracer.calls[name])

    server = window["metrics"]
    metrics = {
        "serve.http.overhead_ms": median(
            [
                (o.done_s - o.sent_s - (o.job["finished_at"] - o.job["submitted_at"]))
                * 1000.0
                for o in hits
            ]
        ),
        "serve.service.queue_wait_s": median(
            [o.job["started_at"] - o.job["submitted_at"] for o in misses]
        ),
        "serve.pool.run_s": median([o.job["wall_ms"] / 1000.0 for o in misses]),
        "serve.pool.busy_frac": pool_busy_frac(window),
        "serve.pool.requeues": float(server["job_requeues"]),
        "serve.client.retries_per_request": ratio(
            window["retries"], window["http_requests"]
        ),
        "loadgen.lag_ms": tail([o.lag_s * 1000.0 for o in all_outcomes(window)])[0],
        "experiments.trace_cache.hit_ratio": float(server["trace_cache_hit_ratio"]),
        "experiments.executor.result_cache.get_s": mean_span(
            "experiments.executor.result_cache:ResultCache.get"
        ),
        "experiments.executor.result_cache.put_s": mean_span(
            "experiments.executor.result_cache:ResultCache.put"
        ),
        "perfbench.tracing_overhead": overhead,
    }
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def serve_mix(args, variant: int) -> tuple[dict, int, int, dict]:
    from servemix import ServeMix, verify

    if not args.trace:
        mix = build(args.workload, variant)
        setup_main = perf() - _T0
        try:
            window = mix.drive(args.seconds, args.seed)
        finally:
            mix.stop()
        outcomes = all_outcomes(window)
        failed = verify(outcomes)
        setup = [setup_main]
        setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        values, samples = window_metrics(window)
        values["setup_s"] = statistics.median(setup)
        samples["setup_s"] = setup
        return values, len(outcomes), failed, samples

    from tracer import Tracer

    # Two windows of half the run each: plain, then traced (a fresh server
    # whose forked worker inherits the patches).
    tracer = Tracer(OUT_DIR)
    windows = []
    for phase in (0, 1):
        if phase:
            tracer.install()
        mix = ServeMix(variant)
        try:
            mix.start()
            windows.append(mix.drive(args.seconds / 2, args.seed, phase))
        finally:
            mix.stop()
            tracer.uninstall()
    tracer.merge_children()
    failed = sum(verify(all_outcomes(window)) for window in windows)
    plain, traced = (window_metrics(window)[1] for window in windows)
    hit_p50 = [plain["hit_ms"]["p50"], traced["hit_ms"]["p50"]]
    overhead = ratio(hit_p50[1], hit_p50[0]) - 1.0
    # Job JSON and /metrics need no spans: read them from the plain window,
    # whose worker runs at full speed.  Only the result-cache spans come
    # from the traced window.
    metrics = serve_layer_metrics(windows[0], tracer, overhead)
    metrics["table3_error_pp"] = plain["table3_error_pp"]
    attempted = sum(len(all_outcomes(window)) for window in windows)
    summary = {"span_s": tracer.span_s, "calls": tracer.calls}
    tracer.write_trace(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json", summary)
    samples = {"hit_p50_ms": hit_p50, **summary}
    return metrics, attempted, failed, samples


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()  # set-up probes inherit it
    variant = variant_of(args.seed)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runner = serve_mix if args.workload == "serve-mix" else closed_loop
    values, attempted, failed, samples = runner(args, variant)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "meta": run_metadata(args.workload, args.seed, bool(args.trace)),
        "seconds": args.seconds,
        "samples": samples,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=1, default=float))
    print(json.dumps(record, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
