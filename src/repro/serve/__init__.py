"""``repro.serve`` — the always-on simulation service.

Turns the experiment execution layer (JobSpec / ResultCache /
ParallelRunner) into a long-lived network service: an asyncio HTTP/JSON
API fronting a supervised pool of persistent simulation worker processes,
with backlog-based admission control (429 + Retry-After), per-job
timeouts and cancellation, duplicate-submission coalescing, crash
requeue, live ``/metrics`` fleet health, and graceful drain on SIGTERM.
Everything is stdlib-only.

The pieces:

* :mod:`repro.serve.service` — the serving core (admission, coalescing,
  metrics) driving the pool;
* :mod:`repro.serve.pool` — the supervised multi-process worker pool;
* :mod:`repro.serve.http` — the HTTP/1.1 front end and its routes;
* :mod:`repro.serve.client` — a blocking, retrying client;
* :mod:`repro.serve.loadgen` — a closed-loop load generator;
* :mod:`repro.serve.harness` — an in-process server-on-a-thread for
  tests, benchmarks and smoke checks;
* :mod:`repro.serve.cli` — the ``python -m repro serve`` entry point.

Start one::

    python -m repro serve --port 8787 --workers 4 --queue-depth 32

and submit from anywhere (the client keeps its connection open until
``close()`` or the end of the ``with`` block)::

    from repro.serve.client import ServeClient
    with ServeClient(port=8787) as client:
        result = client.run({"benchmark": "mcf", "level": "obfusmem_auth"})

Operators: ``docs/serving.md`` is the deployment manual (worker sizing,
API reference, the full ``/metrics`` key table, security notes).
"""

from repro.serve.client import ClientError, JobFailed, RequestFailed, ServeClient, ServerBusy
from repro.serve.harness import ServerThread
from repro.serve.jobs import Job, JobBoard, JobState
from repro.serve.loadgen import LoadGenerator, LoadReport
from repro.serve.pool import PoolOutcome, WorkerHandle, WorkerPool
from repro.serve.service import (
    ServeError,
    ServiceConfig,
    ServiceDraining,
    ServiceSaturated,
    SimulationService,
    decode_submission,
)

__all__ = [
    "ClientError",
    "JobFailed",
    "RequestFailed",
    "ServeClient",
    "ServerBusy",
    "ServerThread",
    "Job",
    "JobBoard",
    "JobState",
    "LoadGenerator",
    "LoadReport",
    "PoolOutcome",
    "ServeError",
    "ServiceConfig",
    "ServiceDraining",
    "ServiceSaturated",
    "SimulationService",
    "WorkerHandle",
    "WorkerPool",
    "decode_submission",
]
