"""Async job engine: single-flight, batching, admission control.

The engine owns an asyncio event loop on a background thread plus a
``fork``-based :class:`~repro.resilience.supervisor.SupervisedPool`
(the one worker pool the sweep uses too).  Requests enter from any
thread (HTTP handler threads, the client-side of tests) via
:meth:`JobEngine.submit`; results flow back through
``concurrent.futures`` bridges.

Request lifecycle::

    submit ──admission──▶ store lookup ──hit──▶ done (cache="hit")
                │ full                │ miss
                ▼                     ▼
            Overloaded         single-flight table ──in flight──▶ join
               (shed)                 │ new
                                      ▼
                         cell batch (workload, level, ...) ── batch
                         window ──▶ one width-sharded compilation on
                         the process pool ──▶ store.put per width ──▶
                         resolve every joined future

* **Single-flight** — identical requests (same canonical key from
  :mod:`repro.service.keys`) submitted while one is in flight await the
  same future; only one computation runs.
* **Batching** — requests that differ *only in issue width* land in the
  same *cell* (one (workload, level, seed, flags, disable) unit).  The
  first request arms a :data:`BATCH_WINDOW_S` timer; everything that
  joins the cell before it fires is evaluated as one cell by the sweep's
  :func:`~repro.experiments.sweep.evaluate_cell` — one compilation,
  scheduled per width, a ``run`` cell executed once and replayed.
* **Admission control** — at most ``max_pending`` accepted-but-
  unfinished configurations, singles and sweeps alike; past that, new
  requests are *shed* (:class:`Overloaded`, surfaced as HTTP 429).  A
  sweep request is admitted or shed atomically for all the
  configurations it expands to, so one oversized sweep cannot wedge the
  queue.
* **Timeouts** — each request carries a deadline
  (``default_timeout`` unless overridden), stamped and enforced on
  ``time.monotonic()`` so an NTP/wall-clock step can neither expire a
  fresh job nor keep a dead one alive; expiry fails *that waiter*
  with :class:`RequestTimeout` while the underlying computation is left
  to finish and populate the store (process-pool work is not
  cancellable mid-kernel).  Wall-clock timestamps appear only in the
  ``/v1/jobs/<id>`` display fields.
* **Supervised execution** — the fork pool runs under the resilience
  layer's :class:`~repro.resilience.supervisor.SupervisedPool`: a
  worker lost to a crash or hang is replaced and the cell re-dispatched
  (deduplicated by canonical request key), and a cell that keeps
  failing trips its circuit breaker — further requests for it fail
  fast (:class:`~repro.resilience.supervisor.CellQuarantined`, HTTP
  503) until the cooldown's half-open probe heals it.
* **Degraded reads** — :meth:`JobEngine.degraded_lookup` serves a
  result straight from the artifact store when admission sheds a
  request; the server marks such responses ``"degraded": true``.  The
  store handle is thread-safe, so this read (and
  :meth:`JobEngine.store_put`) runs on the caller's thread.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..experiments.sweep import evaluate_cell
from ..ir.printer import format_block
from ..machine import MachineConfig
from ..passes import PassOptions
from ..pipeline import Level
from ..resilience import faults
from ..resilience.supervisor import CellQuarantined, SupervisedPool
from ..workloads import get_workload
from .keys import request_key, workload_fingerprint
from .store import ArtifactStore


#: how long a cell batch stays open for width-compatible requests
BATCH_WINDOW_S = 0.01


class Overloaded(RuntimeError):
    """Admission control rejected the request (HTTP 429)."""


class RequestTimeout(RuntimeError):
    """The request's deadline expired before its result was ready."""


# ---------------------------------------------------------------------------
# the process-pool worker (module-level: must pickle under fork)
# ---------------------------------------------------------------------------


def _array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def compute_cell(task: tuple) -> list[dict]:
    """Compile one (workload, level) cell for several widths; optionally
    simulate.  A thin formatter over the sweep's shared
    :func:`~repro.experiments.sweep.evaluate_cell` core, so a served
    result is the grid's result: one ILP transformation per cell, a
    scheduled clone per width, and a multi-width ``run`` cell executed
    once and replayed per width.
    """
    kind, name, level_int, widths, seed, check, check_ir, disable = task
    options = PassOptions(disable=tuple(disable)) if disable else None
    cell = evaluate_cell(
        get_workload(name), Level(level_int),
        [MachineConfig(issue_width=width) for width in widths],
        seed=seed, check=check, check_ir=check_ir, options=options,
        simulate=kind == "run",
    )
    out: list[dict] = []
    for width, rec in zip(widths, cell):
        ck, run = rec.ck, rec.run
        payload = {
            "kind": kind,
            "workload": name,
            "level": level_int,
            "width": width,
            "inner_makespan": ck.inner_makespan,
            "int_regs": rec.usage.int_regs,
            "fp_regs": rec.usage.fp_regs,
            "static_instructions": sum(len(b.instrs) for b in ck.func.blocks),
            "unroll_factor": ck.report.unroll_factor,
        }
        if run is not None:
            payload.update(
                cycles=run.cycles,
                instructions=run.instructions,
                checked=bool(check),
                seed=seed,
                scalars=dict(run.scalars),
                array_digests={k: _array_digest(v)
                               for k, v in sorted(run.arrays.items())},
            )
        else:
            payload["ir"] = format_block(ck.sb.body)
        out.append(payload)
    return out


def _request_key(kind: str, req: dict) -> str:
    """Canonical store key of one validated compile/run request."""
    return request_key(
        kind, req["workload"], req["level"], req["width"], seed=req["seed"],
        check=req["check"], check_ir=req["check_ir"],
        disable=tuple(req["disable"]),
        fingerprint=workload_fingerprint(req["workload"]),
    )


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One accepted request (or sweep of requests) and its outcome.

    Clock discipline: the *deadline* is enforced on ``time.monotonic()``
    (``deadline_mono``, stamped at admission) so an NTP step can neither
    expire a fresh job nor keep a dead one alive.  ``created`` /
    ``finished`` are wall-clock and exist **only** for display in
    ``/v1/jobs/<id>`` responses; nothing is computed from them —
    ``elapsed_s`` comes from the monotonic clock.
    """

    id: str
    kind: str
    request: dict
    state: str = "queued"        # queued | running | done | failed | timeout
    cache: Optional[str] = None  # hit | miss | joined (single-flight)
    result: Optional[dict] = None
    error: Optional[str] = None
    #: wall-clock timestamps, display only (never used for deadlines)
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None
    #: monotonic admission stamp and hard deadline (enforcement)
    created_mono: float = field(default_factory=time.monotonic)
    deadline_mono: Optional[float] = None
    elapsed_s: Optional[float] = None
    #: bridge to the waiting thread
    future: Optional["asyncio.Future"] = None

    def remaining_s(self) -> Optional[float]:
        """Monotonic time left before the deadline (None = no deadline)."""
        if self.deadline_mono is None:
            return None
        return self.deadline_mono - time.monotonic()

    def as_dict(self) -> dict:
        return {
            "id": self.id, "kind": self.kind, "request": self.request,
            "state": self.state, "cache": self.cache, "result": self.result,
            "error": self.error, "created": self.created,
            "finished": self.finished, "elapsed_s": self.elapsed_s,
        }


@dataclass
class _Cell:
    """A batch of width-compatible requests awaiting one compilation."""

    task_head: tuple  # (kind, workload, level) — widths appended at fire
    seed: int
    check: bool
    check_ir: bool
    disable: tuple
    #: width -> (key, future) of every request joined before the timer fired
    waiters: dict[int, tuple[str, "asyncio.Future"]] = field(default_factory=dict)


class JobEngine:
    """The service's execution core (shared by server and tests)."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        jobs: int = 1,
        max_pending: int = 64,
        default_timeout: float = 120.0,
    ):
        self.store = store
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        # the supervised pool forks its workers in its constructor —
        # before the loop / HTTP threads exist, since forking a
        # many-threaded process risks inheriting held locks.  The worker
        # deadline mirrors the request deadline: a cell the request
        # layer has given up on should not pin a worker forever.
        self._pool = SupervisedPool(jobs, deadline_s=default_timeout)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-service-loop", daemon=True)
        self._thread.start()
        self._lock = threading.Lock()
        self._pending = 0           # accepted, unfinished configurations
        self._jobs: dict[str, Job] = {}
        self._ids = itertools.count(1)
        # loop-confined state (touched only on the loop thread)
        self._inflight: dict[str, asyncio.Future] = {}
        self._cells: dict[tuple, _Cell] = {}
        # metrics
        self.counters = {
            "requests": 0, "hits": 0, "misses": 0, "joined": 0,
            "batched_cells": 0, "computed": 0, "shed": 0, "timeouts": 0,
            "errors": 0, "sweeps": 0,
        }
        self._latencies: deque[float] = deque(maxlen=2048)
        self._degraded_serves = 0
        self._closed = False

    # -- admission ------------------------------------------------------

    def _admit(self, n: int) -> None:
        with self._lock:
            if self._pending + n > self.max_pending:
                self.counters["shed"] += 1
                raise Overloaded(
                    f"queue full: {self._pending} pending + {n} requested "
                    f"> {self.max_pending} capacity"
                )
            self._pending += n

    def _release(self, n: int) -> None:
        with self._lock:
            self._pending -= n

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._pending

    # -- submission (any thread) ---------------------------------------

    def _new_job(self, kind: str, request: dict) -> Job:
        with self._lock:
            jid = f"job-{next(self._ids):06d}"
            job = Job(jid, kind, request)
            self._jobs[jid] = job
        return job

    def submit(self, kind: str, workload: str, level: int, width: int, *,
               seed: int = 0, check: bool = True, check_ir: bool = False,
               disable: tuple = (), timeout: float | None = None) -> Job:
        """Admit one compile/run request; returns immediately with a Job
        whose ``future`` resolves to the result payload."""
        get_workload(workload)  # unknown workloads fail fast, pre-admission
        request = {"workload": workload, "level": int(level),
                   "width": int(width), "seed": int(seed),
                   "check": bool(check), "check_ir": bool(check_ir),
                   "disable": sorted(set(disable))}
        self._admit(1)
        self.counters["requests"] += 1
        job = self._new_job(kind, request)
        job.deadline_mono = time.monotonic() + (
            timeout if timeout is not None else self.default_timeout)
        job.future = asyncio.run_coroutine_threadsafe(
            self._handle(job), self._loop
        )
        return job

    def submit_sweep(self, workloads: list[str], levels: list[int],
                     widths: list[int], *, seed: int = 0, check: bool = True,
                     check_ir: bool = False, disable: tuple = (),
                     timeout: float | None = None) -> Job:
        """Admit a grid of run requests atomically (all or shed)."""
        for name in workloads:
            get_workload(name)
        n = len(workloads) * len(levels) * len(widths)
        if n == 0:
            raise ValueError("empty sweep")
        request = {"workloads": list(workloads), "levels": list(levels),
                   "widths": list(widths), "seed": int(seed),
                   "check": bool(check), "check_ir": bool(check_ir),
                   "disable": sorted(set(disable)), "configs": n}
        self._admit(n)
        self.counters["requests"] += 1
        self.counters["sweeps"] += 1
        job = self._new_job("sweep", request)
        job.deadline_mono = time.monotonic() + (
            timeout if timeout is not None else self.default_timeout)
        job.future = asyncio.run_coroutine_threadsafe(
            self._handle_sweep(job), self._loop
        )
        return job

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job: Job, timeout: float | None = None) -> dict:
        """Block until the job resolves; raises its failure if any."""
        return job.future.result(timeout)

    # -- request handling (loop thread) --------------------------------

    async def _handle(self, job: Job) -> dict:
        return await self._settle(
            job, self._request(job.kind, job.request, job), 1)

    async def _handle_sweep(self, job: Job) -> dict:
        req = job.request
        subs = [
            {"workload": w, "level": lv, "width": wd, "seed": req["seed"],
             "check": req["check"], "check_ir": req["check_ir"],
             "disable": req["disable"]}
            for w in req["workloads"] for lv in req["levels"]
            for wd in req["widths"]
        ]

        async def run() -> dict:
            hits0 = self.counters["hits"]
            results = await asyncio.gather(
                *(self._request("run", s, None) for s in subs))
            return {
                "configs": len(subs),
                "hits": self.counters["hits"] - hits0,
                "results": sorted(
                    results,
                    key=lambda r: (r["workload"], r["level"], r["width"]),
                ),
            }

        return await self._settle(job, run(), len(subs))

    async def _settle(self, job: Job, work, n: int) -> dict:
        """Run a job's work under its deadline, record the outcome, and
        release its ``n`` admitted configurations."""
        t0 = time.perf_counter()
        job.state = "running"
        try:
            # the deadline was stamped on the monotonic clock at
            # admission; a wall-clock (NTP) step between then and now
            # cannot stretch or shrink it
            result = await asyncio.wait_for(work, job.remaining_s())
            job.result = result
            job.state = "done"
            return result
        except asyncio.TimeoutError:
            job.state = "timeout"
            job.error = "deadline expired"
            self.counters["timeouts"] += 1
            self.counters["errors"] += 1
            raise RequestTimeout(f"{job.id}: deadline expired") from None
        except Exception as e:
            job.state = "failed"
            job.error = repr(e)
            self.counters["errors"] += 1
            raise
        finally:
            job.finished = time.time()  # display only
            job.elapsed_s = round(time.monotonic() - job.created_mono, 6)
            self._latencies.append(time.perf_counter() - t0)
            self._release(n)

    async def _request(self, kind: str, req: dict, job: Job | None) -> dict:
        """Resolve one configuration: store, single-flight, or batch."""
        key = _request_key(kind, req)
        if self.store is not None:
            cached = self.store.get(key)
            if cached is not None:
                self.counters["hits"] += 1
                if job is not None:
                    job.cache = "hit"
                return cached
        self.counters["misses"] += 1
        shared = self._inflight.get(key)
        if shared is not None:
            self.counters["joined"] += 1
            if job is not None:
                job.cache = "joined"
            return await asyncio.shield(shared)
        if job is not None:
            job.cache = "miss"
        fut = self._join_cell(kind, req, key)
        self._inflight[key] = fut
        try:
            return await asyncio.shield(fut)
        finally:
            if self._inflight.get(key) is fut:
                del self._inflight[key]

    def _join_cell(self, kind: str, req: dict, key: str) -> "asyncio.Future":
        """Attach a request to its cell batch, arming the timer on first
        join; returns the future for this request's width."""
        cell_id = (kind, req["workload"], req["level"], req["seed"],
                   req["check"], req["check_ir"], tuple(req["disable"]))
        cell = self._cells.get(cell_id)
        if cell is None:
            cell = _Cell(
                task_head=(kind, req["workload"], req["level"]),
                seed=req["seed"], check=req["check"],
                check_ir=req["check_ir"], disable=tuple(req["disable"]),
            )
            self._cells[cell_id] = cell
            self._loop.call_later(
                BATCH_WINDOW_S,
                lambda: asyncio.ensure_future(self._fire_cell(cell_id)),
            )
        width = req["width"]
        if width not in cell.waiters:
            cell.waiters[width] = (key, self._loop.create_future())
        return cell.waiters[width][1]

    async def _fire_cell(self, cell_id: tuple) -> None:
        cell = self._cells.pop(cell_id, None)
        if cell is None:
            return
        kind, name, level = cell.task_head
        widths = tuple(sorted(cell.waiters))
        task = (kind, name, level, widths, cell.seed, cell.check,
                cell.check_ir, cell.disable)
        self.counters["batched_cells"] += 1
        try:
            # the cell's canonical identity is its lowest-width request
            # key: the supervisor dedups re-dispatches by it, and the
            # breaker quarantines on the (workload, level) coordinate
            cell_key = cell.waiters[widths[0]][0]
            payloads = await asyncio.wrap_future(
                self._pool.submit(compute_cell, task,
                                  key=cell_key, cell=(name, level))
            )
        except Exception as e:
            for _, fut in cell.waiters.values():
                if not fut.done():
                    fut.set_exception(e)
            return
        self.counters["computed"] += len(payloads)
        for payload in payloads:
            width_key, fut = cell.waiters[payload["width"]]
            if self.store is not None:
                self.store.put(width_key, payload)
            if not fut.done():
                fut.set_result(payload)

    # -- graceful degradation ------------------------------------------

    def degraded_lookup(self, kind: str, req: dict) -> dict | None:
        """Serve a shed request straight from the artifact store.

        Called by the server when admission control rejects a request:
        a previously computed (possibly stale-version-adjacent) result
        beats a 429 for read-mostly clients.  Returns None when nothing
        is stored — the caller sheds for real.
        """
        if self.store is None or self._closed:
            return None
        cached = self.store.get(_request_key(kind, req))
        if cached is not None:
            with self._lock:
                self._degraded_serves += 1
        return cached

    def store_put(self, key: str, payload: dict) -> bool:
        """Persist a payload computed *elsewhere* into this node's store
        shard.  The cluster layer uses this to land work-stolen and
        forwarded results on the key's owning shard."""
        if self.store is None or self._closed:
            return False
        return self.store.put(key, payload) is not None

    # -- metrics --------------------------------------------------------

    def metrics(self) -> dict:
        lats = sorted(self._latencies)

        def pct(p: float) -> float:
            if not lats:
                return 0.0
            return lats[min(len(lats) - 1, int(p * len(lats)))]

        m = dict(self.counters)
        m.update(
            queue_depth=self.queue_depth,
            latency_p50_s=round(pct(0.50), 6),
            latency_p95_s=round(pct(0.95), 6),
            jobs_total=len(self._jobs),
        )
        if self.store is not None:
            m["store"] = {
                "entries": len(self.store),
                "bytes": self.store.total_bytes(),
                **self.store.stats.as_dict(),
            }
        m["resilience"] = {
            **self._pool.counters,
            "breaker_trips": self._pool.breaker_trips,
            "degraded_serves": self._degraded_serves,
        }
        if faults.ARMED is not None:
            m["faults"] = {"injected": dict(faults.ARMED.injected)}
        return m

    def health(self) -> dict:
        """The /healthz payload: liveness plus watchdog/breaker state."""
        return {
            "ok": True,
            "queue_depth": self.queue_depth,
            "pool": self._pool.status(),
        }

    # -- shutdown -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._pool.close()
        self._loop.close()
