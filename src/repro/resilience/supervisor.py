"""Supervised fork worker pool: heartbeats, deadlines, re-dispatch.

The sweep engine, the ablation grid and the job engine all fan work
out over ``fork``-ed worker processes, and all of them use this one
pool.  A bare executor treats one dead worker as the end of the world:
every pending future fails and hours of grid results die with a single
OOM-kill.  :class:`SupervisedPool` keeps the fork-pool shape (workers
inherit the parent's warm caches and ``PYTHONHASHSEED``, so parallel
results are bit-identical to serial ones) and adds supervision:

* **Per-worker channels.**  Each worker owns a private inbox/outbox
  pipe pair with exactly one writer per end — there is no shared queue
  lock a SIGKILLed worker could strand, so one corpse can never wedge
  its siblings.
* **Heartbeat watchdog.**  A daemon thread in every worker beats on the
  outbox; a worker that stops beating (stuck in an uninterruptible
  syscall, swapped to death) past :data:`HEARTBEAT_TIMEOUT_S` is killed
  and replaced.
* **Per-task deadlines.**  A task running past its deadline marks the
  worker hung: SIGKILL, respawn, re-dispatch.
* **Bounded re-dispatch with dedup.**  A task lost to a crashed/hung
  worker is re-dispatched up to :data:`MAX_RETRIES` times.  Tasks are
  identified by their canonical request key
  (:mod:`repro.service.keys`), and only the first completion of a task
  resolves its future — a straggler's late duplicate is counted and
  dropped, never double-recorded.
* **Circuit breaker per cell.**  Failures are recorded against the
  task's *cell* (a (workload, level) coordinate);
  :data:`FAILURE_THRESHOLD` consecutive failures open the breaker and
  subsequent submissions for that cell fail fast with
  :class:`CellQuarantined` instead of burning the pool — one broken
  kernel quarantines itself, the rest of the sweep completes.

In-task exceptions follow the :mod:`~repro.resilience.errors`
taxonomy: ``transient`` failures are retried (in place, same pool),
everything else fails the task's future after feeding the breaker.

The tuning values below are module constants, not constructor options:
every caller runs the same grid cells, and none ever chose different
values.  A caller picks only the worker count and the task deadline.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait

from . import faults
from .errors import FatalError, TransientError, classify_exception

#: re-dispatches of a task lost to a crashed/hung worker or failed
#: transiently, after its first attempt
MAX_RETRIES = 2
#: consecutive failures of one cell that open its circuit breaker
FAILURE_THRESHOLD = 5
#: how long an open breaker fails fast before its half-open probe
BREAKER_COOLDOWN_S = 30.0
#: worker heartbeat period, and the silence after which a busy worker
#: counts as wedged and is killed
HEARTBEAT_INTERVAL_S = 0.25
HEARTBEAT_TIMEOUT_S = 15.0
#: supervisor wake-up period while waiting on worker channels
POLL_S = 0.02


class CellQuarantined(RuntimeError):
    """The cell's circuit breaker is open: failing fast, not computing."""


class TaskFailed(RuntimeError):
    """A task exhausted its retries (the last cause is in ``args``)."""


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


@dataclass
class CircuitBreaker:
    """closed → open (``failure_threshold`` consecutive failures) →
    half-open (one probe after ``cooldown_s``) → closed on success,
    back to open on a failed probe.  ``clock`` is injectable for tests."""

    failure_threshold: int
    cooldown_s: float
    clock: object = time.monotonic
    state: str = "closed"
    failures: int = 0
    opened_at: float = 0.0
    trips: int = 0

    def allow(self) -> bool:
        """May a new attempt proceed?  The first allowance after the
        cooldown is the half-open probe; further calls wait on it."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.clock() - self.opened_at >= self.cooldown_s:
                self.state = "half_open"
                return True
            return False
        return False  # half_open: probe already out

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.failure_threshold:
            if self.state != "open":
                self.trips += 1
            self.state = "open"
            self.opened_at = self.clock()


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------

def _apply_worker_faults(plan: faults.FaultPlan, key: str, attempt: int) -> None:
    """The worker-side fault sites, in severity order."""
    s = plan.fire("worker.kill", key, attempt)
    if s is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    s = plan.fire("worker.hang", key, attempt)
    if s is not None:
        time.sleep(s.delay_s or 3600.0)
    s = plan.fire("worker.slow", key, attempt)
    if s is not None:
        time.sleep(s.delay_s)
    s = plan.fire("worker.error", key, attempt)
    if s is not None:
        exc = FatalError if s.fatal else TransientError
        raise exc(f"injected worker.error for {key} (attempt {attempt})")


def _worker_main(inbox, outbox) -> None:
    """Worker loop: recv (task_id, attempt, key, fn, arg), send results.

    The outbox has two in-process writers (main loop + heartbeat
    thread), serialized by a thread lock; cross-process it has exactly
    one writer, so a sibling's death cannot corrupt this channel.

    The heartbeat thread also exits the worker once its parent is gone
    (reparented): sibling workers hold copies of this worker's pipe
    ends, so EOF alone never arrives when the parent is killed.
    """
    parent = os.getppid()
    send_lock = threading.Lock()

    def send(msg) -> bool:
        try:
            with send_lock:
                outbox.send(msg)
            return True
        except OSError:
            return False  # parent went away; nothing left to do

    def beat():
        while os.getppid() == parent and send(("hb", None, None)):
            time.sleep(HEARTBEAT_INTERVAL_S)
        os._exit(0)

    threading.Thread(target=beat, daemon=True, name="hb").start()
    plan = faults.ARMED  # inherited over fork
    while True:
        try:
            msg = inbox.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task_id, attempt, key, fn, arg = msg
        try:
            if plan is not None:
                _apply_worker_faults(plan, key, attempt)
            result = fn(arg)
        except BaseException as e:
            send(("err", task_id, (repr(e), classify_exception(e))))
        else:
            send(("ok", task_id, result))


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------


@dataclass
class _Task:
    id: int
    key: str
    cell: object
    fn: object
    arg: object
    future: Future
    attempts: int = 0  # dispatches so far


@dataclass
class _Worker:
    id: int
    proc: object
    sconn: object          # parent -> worker
    rconn: object          # worker -> parent
    task: _Task | None = None
    started: float = 0.0   # dispatch time of the current task
    last_beat: float = field(default_factory=time.monotonic)


class SupervisedPool:
    """A fork pool that survives crashed, hung, and slow workers.

    ``submit(fn, arg, key=..., cell=...)`` returns a
    :class:`concurrent.futures.Future`.  ``fn`` must be a module-level
    callable (it is pickled to a forked worker).  ``deadline_s`` is the
    deadline of every task (None = no deadline).
    """

    def __init__(self, jobs: int, *, deadline_s: float | None = None):
        self.deadline_s = deadline_s
        self._ctx = multiprocessing.get_context("fork")
        self._ids = itertools.count(1)
        self._wids = itertools.count(1)
        self._lock = threading.Lock()
        self._pending: deque[_Task] = deque()
        self._tasks: dict[int, _Task] = {}
        self._breakers: dict[object, CircuitBreaker] = {}
        self._closed = False
        self.counters = {
            "submitted": 0, "tasks_ok": 0, "tasks_failed": 0,
            "retries": 0, "redispatched": 0, "deadline_kills": 0,
            "hb_kills": 0, "worker_restarts": 0, "duplicates_dropped": 0,
            "quarantined": 0,
        }
        # fork all workers before the supervisor thread exists: forking a
        # multi-threaded parent risks inheriting held locks
        self._workers: dict[int, _Worker] = {}
        for _ in range(jobs):
            self._spawn()
        self._thread = threading.Thread(target=self._supervise, daemon=True,
                                        name="repro-pool-supervisor")
        self._thread.start()

    # -- public API ------------------------------------------------------

    def submit(self, fn, arg, *, key: str | None = None, cell=None) -> Future:
        fut: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            self.counters["submitted"] += 1
            if cell is not None:
                b = self._breakers.get(cell)
                if b is not None and not b.allow():
                    self.counters["quarantined"] += 1
                    fut.set_exception(CellQuarantined(
                        f"cell {cell!r} quarantined after "
                        f"{b.failures} consecutive failures"))
                    return fut
            t = _Task(next(self._ids), key or "", cell, fn, arg, fut)
            if not t.key:
                t.key = f"task-{t.id}"
            self._tasks[t.id] = t
            self._pending.append(t)
        return fut

    def breaker_states(self) -> dict:
        with self._lock:
            return {
                repr(cell): {"state": b.state, "failures": b.failures,
                             "trips": b.trips}
                for cell, b in self._breakers.items()
            }

    def status(self) -> dict:
        """Watchdog view for /healthz: worker liveness + breaker state."""
        now = time.monotonic()
        with self._lock:
            workers = [
                {"pid": w.proc.pid, "alive": w.proc.is_alive(),
                 "busy": w.task.key if w.task is not None else None,
                 "beat_age_s": round(now - w.last_beat, 3)}
                for w in self._workers.values()
            ]
            pending = len(self._pending)
        return {
            "workers": workers,
            "pending": pending,
            "breakers": self.breaker_states(),
            "counters": dict(self.counters),
        }

    @property
    def breaker_trips(self) -> int:
        with self._lock:
            return sum(b.trips for b in self._breakers.values())

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._thread.join(timeout=5)
        for t in list(self._tasks.values()):
            if not t.future.done():
                t.future.set_exception(RuntimeError("pool closed"))
        self._tasks.clear()
        for w in list(self._workers.values()):
            try:
                w.sconn.send(None)
            except OSError:
                pass
        for w in list(self._workers.values()):
            w.proc.join(timeout=1)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=1)
            w.sconn.close()
            w.rconn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- worker lifecycle (supervisor thread + __init__ only) ------------

    def _spawn(self) -> None:
        wid = next(self._wids)
        c_in_r, p_in_s = self._ctx.Pipe(duplex=False)
        p_out_r, c_out_s = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(c_in_r, c_out_s),
            daemon=True, name=f"repro-worker-{wid}",
        )
        proc.start()
        # close the child's ends in the parent so EOF propagates on death
        c_in_r.close()
        c_out_s.close()
        with self._lock:
            self._workers[wid] = _Worker(wid, proc, p_in_s, p_out_r)

    def _retire(self, w: _Worker, now: float, reason: str) -> None:
        """Kill/reap a worker, rescue its task, spawn a replacement."""
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(timeout=2)
        with self._lock:
            self._workers.pop(w.id, None)
        w.sconn.close()
        w.rconn.close()
        self.counters["worker_restarts"] += 1
        t, w.task = w.task, None
        if t is not None:
            self._rescue(t, reason)
        self._spawn()

    def _rescue(self, t: _Task, reason: str) -> None:
        """Re-dispatch a task lost with its worker, if retries remain."""
        if t.attempts <= MAX_RETRIES:
            self.counters["redispatched"] += 1
            with self._lock:
                self._pending.appendleft(t)
        else:
            self._finish_err(t, TaskFailed(
                f"task {t.key} lost {t.attempts} worker(s) ({reason})"))

    # -- completion ------------------------------------------------------

    def _breaker_for(self, cell) -> CircuitBreaker:
        b = self._breakers.get(cell)
        if b is None:
            b = self._breakers[cell] = CircuitBreaker(
                FAILURE_THRESHOLD, BREAKER_COOLDOWN_S)
        return b

    def _finish_ok(self, t: _Task, result) -> None:
        with self._lock:
            if self._tasks.pop(t.id, None) is None:
                self.counters["duplicates_dropped"] += 1
                return
            self.counters["tasks_ok"] += 1
            if t.cell is not None:
                self._breaker_for(t.cell).record_success()
        t.future.set_result(result)

    def _finish_err(self, t: _Task, exc: Exception) -> None:
        with self._lock:
            if self._tasks.pop(t.id, None) is None:
                self.counters["duplicates_dropped"] += 1
                return
            self.counters["tasks_failed"] += 1
            if t.cell is not None:
                self._breaker_for(t.cell).record_failure()
        t.future.set_exception(exc)

    # -- the supervision loop --------------------------------------------

    def _supervise(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
            self._dispatch()
            conns = {w.rconn: w for w in list(self._workers.values())}
            ready = _conn_wait(list(conns), timeout=POLL_S) if conns else ()
            now = time.monotonic()
            for conn in ready:
                self._drain(conns[conn], now)
            self._watchdog(now)

    def _dispatch(self) -> None:
        for w in list(self._workers.values()):
            if w.task is not None or not w.proc.is_alive():
                continue
            with self._lock:
                if not self._pending:
                    return
                t = self._pending.popleft()
            t.attempts += 1
            w.task = t
            w.started = time.monotonic()
            try:
                w.sconn.send((t.id, t.attempts - 1, t.key, t.fn, t.arg))
            except (OSError, ValueError):
                w.task = None
                self._retire(w, w.started, "send failed")
                return  # worker map changed; re-enter next loop tick

    def _drain(self, w: _Worker, now: float) -> None:
        try:
            msg = w.rconn.recv()
        except (EOFError, OSError):
            self._retire(w, now, "worker died")
            return
        kind, task_id, payload = msg
        w.last_beat = now
        if kind == "hb":
            return
        t = w.task
        w.task = None
        if t is None or t.id != task_id:
            # a message for a task this worker no longer owns
            self.counters["duplicates_dropped"] += 1
            w.task = t
            return
        if kind == "ok":
            self._finish_ok(t, payload)
            return
        text, severity = payload
        if severity == "transient" and t.attempts <= MAX_RETRIES:
            self.counters["retries"] += 1
            with self._lock:
                self._pending.appendleft(t)
        else:
            self._finish_err(t, TaskFailed(f"task {t.key}: {text}"))

    def _watchdog(self, now: float) -> None:
        for w in list(self._workers.values()):
            if not w.proc.is_alive():
                self._retire(w, now, "worker died")
            elif (w.task is not None and self.deadline_s is not None
                    and now - w.started > self.deadline_s):
                self.counters["deadline_kills"] += 1
                self._retire(w, now, "deadline expired")
            elif (w.task is not None
                    and now - w.last_beat > HEARTBEAT_TIMEOUT_S):
                self.counters["hb_kills"] += 1
                self._retire(w, now, "heartbeat lost")
