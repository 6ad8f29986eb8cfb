#!/usr/bin/env python3
"""Find where serve-mix's single pool worker saturates.

    python3 perfbench/capacity.py --rates 45,90,135,180,240 --seconds 20

For each offered rate a fresh server is driven open loop with serve-mix's
traffic (the same hot set, cold share and schedule) and one row is
printed: cold completions per second, the worker's busy share, cold-job
service time, queue wait, hit and miss latency from the due time, and how
late the generator sent.  Tails here are over every arrival (about the
99th percentile), not over arrival slots as in ``run.py``.  The rate at which the median queue wait starts
to grow is the knee; ``servemix.RATE_PER_S`` sits below it.  Run from the
root of a checkout; nothing is checked and no result line is printed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, pin_to_one_cpu, tail, variant_of  # noqa: E402

COLUMNS = (
    "rate/s",
    "cold/s",
    "busy",
    "run_ms",
    "wait_p50",
    "wait_p90",
    "hit_p50",
    "hit_tail",
    "miss_p50",
    "lag_tail",
)


def row(rate: float, window: dict) -> list[float]:
    """The printed figures of one window (times in ms)."""
    from servemix import pool_busy_frac, served

    outcomes = [o for one in window["rounds"] for o in one]
    ok = [o for o in outcomes if served(o)]
    cold = [o for o in ok if o.job["source"] == "simulated"]
    hits = [o.latency_s * 1000.0 for o in ok if o.job["source"] != "simulated"]
    waits = sorted((o.job["started_at"] - o.job["submitted_at"]) * 1000.0 for o in cold)
    span = sum(max(o.done_s for o in one) for one in window["rounds"])
    return [
        rate,
        len(cold) / span,
        pool_busy_frac(window),
        statistics.median(o.job["wall_ms"] for o in cold),
        statistics.median(waits),
        waits[int(0.9 * (len(waits) - 1))],
        statistics.median(hits),
        tail(hits)[0],
        statistics.median(o.latency_s * 1000.0 for o in cold),
        tail([o.lag_s * 1000.0 for o in outcomes])[0],
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="45,90,135,180,240")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    from servemix import ServeMix

    print(" ".join(f"{name:>9}" for name in COLUMNS), flush=True)
    for rate in (float(text) for text in args.rates.split(",")):
        mix = ServeMix(variant_of(args.seed), rate)
        try:
            mix.start()
            window = mix.drive(args.seconds, args.seed)
        finally:
            mix.stop()
        print(" ".join(f"{value:9.3f}" for value in row(rate, window)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
