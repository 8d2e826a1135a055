"""The experiment-farm service: ``repro serve``.

A stdlib-only asyncio HTTP server that accepts experiment specs as
JSON, coalesces duplicate submissions against the result cache *and*
currently running jobs (every client of one key shares one execution),
fans work out to the persistent :class:`~repro.exec.pool.FarmExecutor`,
and exposes the fleet-telemetry plane live over HTTP: Server-Sent
Events at ``/events``, Prometheus text at ``/metrics``, per-job status
with ETA at ``/jobs/<key>``, and attribution artifacts as completed-job
payloads.

The hard invariant, inherited from the rest of the repository: every
result or artifact served over HTTP is byte-identical to what the CLI
writes for the same spec, at any ``--jobs`` setting.

- :mod:`repro.serve.http` — minimal HTTP/1.1 (keep-alive, chunked
  streaming) on raw asyncio;
- :mod:`repro.serve.specs` — strict JSON spec validation →
  :class:`~repro.exec.jobs.SimJob`;
- :mod:`repro.serve.app` — routes, job records, the SSE relay, and
  the embeddable :class:`~repro.serve.app.ServerThread`.
"""

from repro.serve.app import FarmServer, ServerThread
from repro.serve.http import HttpError, HttpServer, Request, Response
from repro.serve.specs import (
    SERVE_SCHEMA,
    SpecError,
    analyze_request,
    job_from_spec,
    workload_registry,
)

__all__ = [
    "FarmServer",
    "ServerThread",
    "HttpError",
    "HttpServer",
    "Request",
    "Response",
    "SERVE_SCHEMA",
    "SpecError",
    "analyze_request",
    "job_from_spec",
    "workload_registry",
]
