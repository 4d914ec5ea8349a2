"""repro.service — the compilation service subsystem.

Turns the compiler + simulator into an inference-stack-shaped server:
requests in, cached or freshly computed artifacts out.

* :mod:`repro.service.keys` — the canonical configuration identity:
  one helper derives both the sweep-journal header and the
  content-addressed store key, so the two can never disagree on what
  "same configuration" means.
* :mod:`repro.service.store` — a content-addressed on-disk artifact
  store (SHA-256 keys over canonicalized kernel source + machine
  config + level + disable set + code-version salt) with atomic
  writes and corruption-tolerant reads, safe to share across threads.
* :mod:`repro.service.jobs` — the async job engine: single-flight
  deduplication of identical in-flight requests, batching of
  compatible requests onto one width-sharded compilation, bounded
  queue with load shedding, per-request timeouts.
* :mod:`repro.service.server` — an HTTP front-end on stdlib
  ``ThreadingHTTPServer``: ``POST /v1/compile``, ``POST /v1/run``,
  ``POST /v1/sweep``, ``GET /v1/jobs/<id>``, ``GET /healthz``,
  ``GET /metrics``.
* :mod:`repro.service.client` — a small SDK over ``urllib`` used by
  ``repro submit`` and ``examples/service_client.py``.

Entry points: ``python -m repro serve`` / ``python -m repro submit``.
"""

from .keys import (
    CODE_VERSION,
    canonical_json,
    request_identity,
    request_key,
    sweep_header,
    workload_fingerprint,
)
from .store import ArtifactStore, StoreStats

__all__ = [
    "CODE_VERSION", "canonical_json", "request_identity", "request_key",
    "sweep_header", "workload_fingerprint",
    "ArtifactStore", "StoreStats",
]
