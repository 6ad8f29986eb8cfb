"""The ``python -m repro serve`` entry point: flags, signals, serve loop.

Runs the simulation service — a supervisor plus ``--workers`` persistent
simulation worker processes — in the foreground until SIGTERM/SIGINT,
then drains: the listener and idle client connections close, requests
in progress are answered, queued and running jobs finish (or are
cancelled past the grace period), the pool is stopped, and the process
exits 0.  Flags mirror the experiment runner's cache knobs so a
service and one-shot CLI runs can share one cache directory — a result
simulated for a remote client makes the next ``repro table3`` a cache
hit, and vice versa.  Worker processes share that same directory; their
concurrent LRU evictions are serialized by the cache's single-evictor
file lease.

See ``docs/serving.md`` for the operator's manual: worker sizing, the
full HTTP API, and what every ``/metrics`` key means.
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from repro.experiments.executor import DEFAULT_CACHE_DIR
from repro.serve.http import start_http_server
from repro.serve.service import ServiceConfig, SimulationService


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the serve flags to a parser (shared with ``python -m repro``)."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8787, help="TCP port (0 picks an ephemeral one)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="persistent simulation worker processes (size to CPU cores)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="max active (queued + running) jobs before admission answers 429",
    )
    parser.add_argument(
        "--cache-dir",
        default=str(DEFAULT_CACHE_DIR),
        help="persistent result cache directory shared with the CLI sweeps",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without a persistent cache (in-memory hits only)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="byte budget for the persistent cache (LRU eviction on write)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=300.0,
        help="default per-job timeout; jobs may override per submission",
    )
    parser.add_argument(
        "--drain-grace-s",
        type=float,
        default=30.0,
        help="how long shutdown waits for in-flight jobs before cancelling",
    )
    parser.add_argument(
        "--max-requeues",
        type=int,
        default=2,
        help="requeues allowed when a worker process dies mid-job",
    )
    parser.add_argument(
        "--max-preemptions",
        type=int,
        default=8,
        help=(
            "checkpoint-and-requeue slices a job may consume before it "
            "times out (needs the persistent cache)"
        ),
    )


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    """A :class:`ServiceConfig` from parsed :func:`add_serve_arguments` flags."""
    return ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_dir=None if args.no_cache else args.cache_dir,
        cache_bytes=args.cache_bytes,
        default_timeout_s=args.timeout_s,
        drain_grace_s=args.drain_grace_s,
        max_requeues=args.max_requeues,
        max_preemptions=args.max_preemptions,
    )


async def serve_until_signalled(
    config: ServiceConfig, host: str, port: int
) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully."""
    service = SimulationService(config)
    await service.start()
    api = await start_http_server(service, host=host, port=port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - win32
            pass
    cache = "disabled" if config.cache_dir is None else str(config.cache_dir)
    print(
        f"repro.serve listening on http://{host}:{api.port} "
        f"(workers={config.workers}, queue-depth={config.queue_depth}, "
        f"cache={cache})",
        flush=True,
    )
    await stop.wait()
    print("repro.serve draining...", flush=True)
    api.close()
    await service.drain()
    await api.wait_closed()
    print("repro.serve stopped.", flush=True)


def run_from_args(args: argparse.Namespace) -> None:
    """Handler for the ``python -m repro serve`` subcommand."""
    asyncio.run(serve_until_signalled(config_from_args(args), args.host, args.port))


def main(argv: list[str] | None = None) -> None:
    """Stand-alone entry point (``python -m repro.serve.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro serve", description=__doc__
    )
    add_serve_arguments(parser)
    run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    main()
