"""Experiment runners: one module per table/figure of the paper.

- :mod:`repro.experiments.table1` — benchmark characteristics.
- :mod:`repro.experiments.table3` — ORAM vs ObfusMem+Auth overheads.
- :mod:`repro.experiments.figure4` — overhead breakdown by level.
- :mod:`repro.experiments.figure5` — channel-count sweep, UNOPT vs OPT.
- :mod:`repro.experiments.table4` — measured security comparison.
- :mod:`repro.experiments.energy` — §5.2 energy/lifetime analysis.
- :mod:`repro.experiments.related` — §7 related-work comparison (HIDE/ORAM).
- :mod:`repro.experiments.matrix` — scheme×attack leakage matrix over the
  attacker registry (:mod:`repro.attacks`), with verdicts checked against
  trait-derived expectations.
- :mod:`repro.experiments.report` — one-shot Markdown report of everything.
- :mod:`repro.experiments.export` — CSV writers for every result type.
- :mod:`repro.experiments.executor` — parallel job execution + persistent
  on-disk result cache + run manifests.
- :mod:`repro.experiments.runner` — cached-run frontend, process-wide
  worker/cache configuration, table formatting.
- :mod:`repro.experiments.trace_cache` — front-end trace specs, stored
  as ordinary result-cache entries, behind an in-process trace memo.
- :mod:`repro.experiments.checkpoints` — persistent checkpoint store and
  warm-started execution for request-count sweep families.
- :mod:`repro.experiments.sweep` — declarative design-space sweeps
  (``SweepSpec``) compiled to deduplicated jobs and executed on a
  prefix-sharing warm-start schedule (``plan_sweep``/``run_sweep``).
- :mod:`repro.experiments.pareto` — streaming Pareto aggregation of sweep
  results into the overhead/leakage/energy frontier.

Each experiment module exposes ``run(...)`` returning structured results
and a ``main()`` that prints the regenerated table; run them as scripts,
e.g. ``python -m repro.experiments.table3 --workers 4``.  The shared flags
``--workers``, ``--no-cache`` and ``--cache-dir`` (or the environment
variables ``REPRO_WORKERS``, ``REPRO_NO_CACHE``, ``REPRO_CACHE_DIR``)
control parallel fan-out and the persistent result cache.
"""

from repro.experiments.executor import JobSpec, ParallelRunner, ResultCache, RunManifest
from repro.experiments.pareto import ParetoAggregator
from repro.experiments.runner import (
    cached_run,
    clear_cache,
    configure,
    prefetch,
    select_benchmarks,
)
from repro.experiments.sweep import SweepSpec, plan_sweep, run_sweep

__all__ = [
    "JobSpec",
    "ParallelRunner",
    "ParetoAggregator",
    "ResultCache",
    "RunManifest",
    "SweepSpec",
    "cached_run",
    "clear_cache",
    "configure",
    "plan_sweep",
    "prefetch",
    "run_sweep",
    "select_benchmarks",
]
