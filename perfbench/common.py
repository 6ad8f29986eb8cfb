"""Shared helpers for the benchmark: paths, statistics, digests and metadata.

Everything here is plain standard library so that ``run.py`` can report a
clean error (and no result) when the program under test is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
#: Run records, setup-probe scratch and trace files (gitignored).
OUT_DIR = BENCH_DIR / ".out"

#: Workload inputs are drawn from this many recorded variants; ``--seed n``
#: selects variant ``n % VARIANTS``, so every input the benchmark can make
#: has golden outputs in ``golden.json``.
VARIANTS = 16


def pin_to_one_cpu() -> None:
    """Pin this process (and the processes it starts) to its last CPU.

    The scheduler's placement then does not vary between runs; serve-mix
    moves its pool worker to the remaining CPUs.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def variant_of(seed: int) -> int:
    """The recorded input variant a ``--seed`` value selects."""
    return seed % VARIANTS


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with ten samples
    beyond it: the eleventh-largest sample.

    Below eleven samples no percentile has ten beyond it; the maximum is
    returned then, with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], round(100.0 * (n - 10) / n, 2)


def median(values: list[float]) -> float:
    """Median of ``values``, or 0.0 when there are none."""
    return statistics.median(values) if values else 0.0


#: The tail is the eleventh-largest value, so one value per distinct job
#: puts it at or above the 80th percentile only from 50 jobs on.  With
#: fewer distinct jobs (app-kernels has 12) it is taken over every
#: repetition instead.
TAIL_MIN_JOBS = 50


def timing(per_job: list[float], samples: list[float], scale: float = 1.0) -> dict:
    """One timing series: the median of ``per_job`` (one value per distinct
    job or arrival slot) and its tail, or the tail of every repetition in
    ``samples`` when there are fewer than :data:`TAIL_MIN_JOBS` jobs; with
    the counts behind each (zeros if empty)."""
    if not per_job:
        return {"p50": 0.0, "tail": 0.0, "tail_percentile": 0.0, "n": 0, "tail_n": 0}
    pool = per_job if len(per_job) >= TAIL_MIN_JOBS else samples
    value, percentile = tail(pool)
    return {
        "p50": statistics.median(per_job) * scale,
        "tail": value * scale,
        "tail_percentile": percentile,
        "n": len(per_job),
        "tail_n": len(pool),
    }


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def result_digest(result) -> str:
    """SHA-256 of a ``RunResult``'s canonical JSON form (every stat)."""
    from repro.experiments.executor import result_to_jsonable

    encoded = json.dumps(
        result_to_jsonable(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    """The recorded per-variant outputs (empty when the file is absent)."""
    try:
        return json.loads(GOLDEN_PATH.read_text())
    except (OSError, ValueError):
        return {}


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def scratch_dir(prefix: str) -> Path:
    """A fresh directory inside the checkout for caches and stores."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


def remove_dir(path: Path) -> None:
    """Delete a scratch directory made by :func:`scratch_dir`."""
    shutil.rmtree(path, ignore_errors=True)


def run_child(
    args: list[str], *, timeout: float, input: str | None = None, env=None
) -> subprocess.CompletedProcess:
    """Run a child process from the checkout's root and wait for it to end.

    On a timeout or any other way out (an interrupt included) the child
    and every process below it are killed first, and the child is reaped:
    a set-up probe of serve-mix forks a pool worker, which a killed probe
    would otherwise leave running.
    """
    with subprocess.Popen(
        args,
        cwd=ROOT,
        stdin=subprocess.DEVNULL if input is None else subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    ) as child:
        try:
            stdout, stderr = child.communicate(input, timeout=timeout)
        except BaseException:
            for pid in [child.pid, *_descendants(child.pid)]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            child.wait()
            raise
    return subprocess.CompletedProcess(args, child.returncode, stdout, stderr)


def _descendants(pid: int) -> list[int]:
    """The live processes below ``pid``, read from ``/proc``."""
    found, parents = [], [pid]
    while parents:
        for listing in Path(f"/proc/{parents.pop()}/task").glob("*/children"):
            try:
                children = [int(text) for text in listing.read_text().split()]
            except OSError:
                continue
            found += children
            parents += children
    return found


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def run_metadata(workload: str, seed: int, trace: bool) -> dict:
    """Git revision, host and source facts recorded beside every metric set.

    A checkout without ``.git`` has no revision; ``src_sha256`` (a hash of
    every source file's path and bytes) identifies the code either way.
    """
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "variant": variant_of(seed),
        "trace": trace,
        "git_rev": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
