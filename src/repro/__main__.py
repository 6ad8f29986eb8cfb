"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list            benchmarks, protection levels and experiments available
run             simulate one benchmark at one protection level
experiments     regenerate one (or all) of the paper's tables/figures
table1 ...      shortcut: ``repro table1`` == ``repro experiments table1``
attacks         run the §3.5 active-attack suite against the live stack
report          full Markdown evaluation report (see experiments.report)
serve           run the HTTP simulation service (see repro.serve)
sweep           execute a declarative design-space sweep (repro.experiments.sweep)

Every experiment command accepts ``--profile``, which wraps the cold
simulations in cProfile + event accounting and writes hotspot reports next
to the sweep's run manifest (``<cache-dir>/manifests/<label>.profile.*``).
"""

from __future__ import annotations

import argparse

from repro.cpu.spec_profiles import BENCHMARK_NAMES, SPEC_PROFILES
from repro.errors import ConfigurationError
from repro.schemes import add_scheme_arguments, format_scheme_list, get_scheme
from repro.system.config import MachineConfig, ProtectionLevel
from repro.system.simulator import run_benchmark

_EXPERIMENTS = (
    "table1",
    "table3",
    "figure4",
    "figure5",
    "table4",
    "energy",
    "related",
    "matrix",
)


def _cmd_list(args: argparse.Namespace) -> None:
    print("benchmarks (Table 1):")
    for name in BENCHMARK_NAMES:
        profile = SPEC_PROFILES[name]
        print(
            f"  {name:12s} IPC {profile.ipc:5.2f}  MPKI {profile.llc_mpki:6.2f}  "
            f"gap {profile.avg_gap_ns:8.2f} ns"
        )
    print()
    print(format_scheme_list())
    print("\nexperiments:", ", ".join(_EXPERIMENTS))


def _cmd_run(args: argparse.Namespace) -> None:
    if args.benchmark not in SPEC_PROFILES:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}; try 'list'")
    try:
        # Any registered scheme works here, hybrids included; unknown
        # names exit with the registry's close-match hint.
        level = get_scheme(args.level)
    except ConfigurationError as error:
        raise SystemExit(str(error))
    machine = MachineConfig(channels=args.channels)
    profile = SPEC_PROFILES[args.benchmark]
    if args.profile:
        from repro.experiments.executor import DEFAULT_CACHE_DIR
        from repro.sim import profiling

        with profiling.capture() as session:
            result = run_benchmark(
                profile,
                level,
                machine=machine,
                num_requests=args.requests,
                seed=args.seed,
                cores=args.cores,
            )
        label = f"run_{args.benchmark}_{level.name}"
        json_path, text_path = session.write_reports(
            DEFAULT_CACHE_DIR / "manifests", label
        )
        print(f"profile reports  : {json_path} / {text_path}")
    else:
        result = run_benchmark(
            profile,
            level,
            machine=machine,
            num_requests=args.requests,
            seed=args.seed,
            cores=args.cores,
        )
    print(f"benchmark        : {args.benchmark}")
    print(f"scheme           : {level.name} ({level.stack_summary()})")
    print(f"channels / cores : {args.channels} / {args.cores}")
    print(f"requests         : {result.num_requests}")
    print(f"execution time   : {result.execution_time_ns / 1000:.1f} us")
    print(f"avg request gap  : {result.average_gap_ns:.1f} ns")
    print(f"IPC              : {result.ipc(machine.cpu_clock_ghz):.2f}")
    if args.baseline:
        baseline = run_benchmark(
            profile,
            ProtectionLevel.UNPROTECTED,
            machine=machine,
            num_requests=args.requests,
            seed=args.seed,
            cores=args.cores,
        )
        print(f"overhead         : {result.overhead_pct(baseline):+.1f}% vs unprotected")
    if args.stats:
        for key in sorted(result.stats):
            print(f"  {key} = {result.stats[key]:.2f}")


def _experiment_modules() -> dict:
    from repro.experiments import (
        energy,
        figure4,
        figure5,
        matrix,
        related,
        table1,
        table3,
        table4,
    )

    return {
        "table1": table1,
        "table3": table3,
        "figure4": figure4,
        "figure5": figure5,
        "table4": table4,
        "energy": energy,
        "related": related,
        "matrix": matrix,
    }


def _cmd_experiments(args: argparse.Namespace) -> None:
    from repro.experiments.runner import configure_from_args

    configure_from_args(args)
    modules = _experiment_modules()
    names = _EXPERIMENTS if args.name == "all" else (args.name,)
    for name in names:
        if name not in modules:
            raise SystemExit(f"unknown experiment {name!r}; one of {_EXPERIMENTS}")
        modules[name].main([])
        print()


def _cmd_experiment_shortcut(args: argparse.Namespace) -> None:
    """``repro table1 --profile`` == ``repro experiments table1 --profile``."""
    from repro.experiments.runner import configure_from_args

    configure_from_args(args)
    _experiment_modules()[args.command].main([])


def _cmd_attacks(args: argparse.Namespace) -> None:
    from repro.attacks.tamper import (
        command_bitflip_attack,
        data_tamper_attack,
        injection_attack,
        message_drop_attack,
        replay_attack,
    )

    scenarios = [
        ("command bit-flip", command_bitflip_attack, True),
        ("message drop", message_drop_attack, True),
        ("replay", replay_attack, True),
        ("injection", injection_attack, True),
        ("data tamper (deferred to Merkle)", data_tamper_attack, False),
    ]
    failures = 0
    for name, attack, expect_detected in scenarios:
        outcome = attack()
        ok = outcome.detected == expect_detected
        failures += 0 if ok else 1
        status = "detected" if outcome.detected else "not detected at bus"
        print(f"{'OK ' if ok else 'BAD'} {name:34s} -> {status}")
    if failures:
        raise SystemExit(f"{failures} attack scenario(s) behaved unexpectedly")


def _cmd_sweep(args: argparse.Namespace) -> None:
    from repro.experiments.checkpoints import CheckpointStore
    from repro.experiments.export import write_pareto
    from repro.experiments.pareto import ParetoAggregator
    from repro.experiments.runner import configure_from_args, get_config
    from repro.experiments.sweep import SweepSpec, plan_sweep, run_sweep

    configure_from_args(args)
    config = get_config()
    try:
        spec = SweepSpec.load(args.spec)
        compiled = spec.compile()
    except ConfigurationError as error:
        raise SystemExit(str(error))
    plan = plan_sweep(list(compiled.jobs))
    print(
        f"compiled {len(compiled.jobs)} job(s) from {compiled.requested} "
        f"design point(s) ({compiled.duplicates_dropped} duplicate(s) dropped, "
        f"{compiled.baselines_added} baseline anchor(s) added)"
    )
    print(plan.describe())
    for warning in compiled.warnings:
        print(f"  note: {warning}")
    if args.dry_run:
        return
    cache = None
    store = None
    if config.cache_enabled:
        from repro.experiments.executor import ResultCache

        cache = ResultCache(config.cache_dir, max_bytes=config.cache_bytes)
        store = CheckpointStore(config.cache_dir, max_bytes=config.cache_bytes)
    aggregator = ParetoAggregator()
    run = run_sweep(
        compiled,
        workers=config.workers,
        cache=cache,
        checkpoints=store,
        aggregator=aggregator,
        label=args.label,
    )
    manifest = run.manifest
    print(
        f"executed {manifest.jobs} job(s) in {run.wall_clock_s:.2f} s: "
        f"{manifest.cache_hits} cache hit(s), {manifest.cache_misses} simulated, "
        f"{manifest.checkpoint_hits} checkpoint warm-start(s), "
        f"{manifest.events_resumed} event(s) resumed"
    )
    if config.cache_enabled:
        manifest.write(config.cache_dir / "manifests" / f"{args.label}.json")
    frontier = aggregator.frontier()
    print(
        f"pareto frontier: {len(frontier)} non-dominated of "
        f"{len(aggregator.points())} point(s)"
        + (f" ({aggregator.pending} pending without baseline)" if aggregator.pending else "")
    )
    for point in frontier:
        print(
            f"  {point.scheme:24s} {point.benchmark:10s} "
            f"overhead {point.overhead_pct:8.2f}%  leakage {point.leakage:.2f}  "
            f"energy {point.energy_pj_per_access:10.1f} pJ/access"
        )
    if args.pareto:
        path = write_pareto(frontier, args.pareto)
        print(f"frontier csv     : {path}")


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.serve import cli as serve_cli

    serve_cli.run_from_args(args)


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.experiments import report

    forwarded = []
    if args.output:
        forwarded += ["-o", args.output]
    if args.fast:
        forwarded += ["--fast"]
    forwarded += ["--requests", str(args.requests)]
    if args.workers is not None:
        forwarded += ["--workers", str(args.workers)]
    if args.no_cache:
        forwarded += ["--no-cache"]
    if args.cache_dir is not None:
        forwarded += ["--cache-dir", str(args.cache_dir)]
    report.main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI with all subcommands."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    add_scheme_arguments(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="show benchmarks, levels, experiments")

    run_parser = subparsers.add_parser("run", help="simulate one benchmark")
    add_scheme_arguments(run_parser)
    run_parser.add_argument("benchmark")
    run_parser.add_argument(
        "--level",
        default="obfusmem_auth",
        help="protection scheme (any registry name; see --list-schemes)",
    )
    run_parser.add_argument("--channels", type=int, default=1)
    run_parser.add_argument("--cores", type=int, default=1)
    run_parser.add_argument("--requests", type=int, default=4000)
    run_parser.add_argument("--seed", type=int, default=2017)
    run_parser.add_argument(
        "--baseline", action="store_true", help="also run unprotected and show overhead"
    )
    run_parser.add_argument("--stats", action="store_true", help="dump all statistics")
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulation (cProfile + event counts) and write "
        "hotspot reports under the result cache's manifests directory",
    )

    from repro.experiments.runner import add_runner_arguments

    experiments_parser = subparsers.add_parser(
        "experiments", help="regenerate a paper table/figure"
    )
    experiments_parser.add_argument("name", choices=(*_EXPERIMENTS, "all"))
    add_runner_arguments(experiments_parser)

    for name in _EXPERIMENTS:
        shortcut = subparsers.add_parser(
            name, help=f"shortcut for 'experiments {name}'"
        )
        add_runner_arguments(shortcut)

    subparsers.add_parser("attacks", help="run the active-attack suite")

    from repro.serve.cli import add_serve_arguments

    serve_parser = subparsers.add_parser(
        "serve", help="run the HTTP simulation service"
    )
    add_serve_arguments(serve_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="execute a declarative design-space sweep"
    )
    sweep_parser.add_argument(
        "--spec", required=True, help="sweep spec JSON file (see EXPERIMENTS.md)"
    )
    sweep_parser.add_argument(
        "--pareto", default=None, help="write the Pareto frontier CSV here"
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the planned wave/warm-start schedule without simulating",
    )
    sweep_parser.add_argument(
        "--label", default="sweep", help="manifest label (default: sweep)"
    )
    add_runner_arguments(sweep_parser)

    report_parser = subparsers.add_parser("report", help="full Markdown report")
    report_parser.add_argument("-o", "--output")
    report_parser.add_argument("--requests", type=int, default=4000)
    report_parser.add_argument("--fast", action="store_true")
    add_runner_arguments(report_parser)

    return parser


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "experiments": _cmd_experiments,
        "attacks": _cmd_attacks,
        "serve": _cmd_serve,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    handler = handlers.get(args.command, _cmd_experiment_shortcut)
    handler(args)


if __name__ == "__main__":
    main()
