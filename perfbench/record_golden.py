#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks every run against.

    python3 perfbench/record_golden.py [workload ...]

For each closed-loop workload (or each one named) and each input variant, runs one pass and
stores the digest of every simulated output in ``perfbench/golden.json``.
Re-record only when a change to the program is meant to change simulated
results; the benchmark reports any other difference as a failed job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import GOLDEN_PATH, SRC, VARIANTS  # noqa: E402

sys.path.insert(0, str(SRC))

from workloads import CLOSED_LOOP  # noqa: E402


def main(names: list[str]) -> int:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for name in names or list(CLOSED_LOOP):
        workload_class = CLOSED_LOOP[name]
        golden[name] = {}
        for variant in range(VARIANTS):
            one = workload_class(variant).run_pass()
            golden[name][str(variant)] = one.digests
            print(
                f"{name} variant {variant}: {len(one.digests)} digests, "
                f"table3 error {one.table3_error_pp:.3f} pp, "
                f"{one.requests} requests in {one.wall_s:.2f} s",
                flush=True,
            )
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
