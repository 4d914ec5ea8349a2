"""Fault-injection harness and resilience layer.

Sized to the one workload it protects, the evaluation grid's
(workload, level) cells — in a sweep or behind the service:

* :mod:`~repro.resilience.errors` — the transient/fatal error taxonomy
  every tolerant path classifies against, plus orphaned tmp-file
  cleanup for the atomic-rename writers.
* :mod:`~repro.resilience.retry` — the one retry loop (capped
  exponential backoff, full jitter, retry budget, ``Retry-After``),
  used by the client SDK and the artifact store.
* :mod:`~repro.resilience.faults` — seeded, deterministic fault plans
  injected at named sites (zero overhead unarmed).
* :mod:`~repro.resilience.supervisor` — the one fork worker pool
  (heartbeats, deadlines, bounded re-dispatch, circuit breakers), used
  by the sweep, the ablation grid and the job engine.  Its tuning
  values are module constants; callers choose only ``jobs`` and the
  task deadline.
* :mod:`~repro.resilience.chaos` — the ``repro chaos`` runner: a fault
  plan against a real sweep and a served batch, reconciled against a
  fault-free baseline into ``results/CHAOS_report.json``.

Import from the submodules; the package re-exports nothing.
"""
