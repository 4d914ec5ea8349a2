"""HTTP front-end: stdlib ``ThreadingHTTPServer`` over the job engine.

Endpoints (all JSON in/out)::

    POST /v1/compile   {workload, level, width, disable?, check_ir?}
    POST /v1/run       {workload, level, width, seed?, check?, ...}
    POST /v1/sweep     {workloads, levels?, widths?, ...} -> {job} (async)
    GET  /v1/jobs/<id> job status + result once done
    GET  /healthz      liveness
    GET  /metrics      request counts, hit/miss ratio, queue depth,
                       p50/p95 latency, shed count, store bytes

``compile`` and ``run`` block until the result is ready (they ride the
engine's single-flight/batching and per-request timeout); ``sweep``
returns a job id immediately — poll ``/v1/jobs/<id>``.  Saturation is
surfaced as ``429`` with ``Retry-After`` — unless the artifact store
already holds the requested result, in which case it is served stale
with ``"degraded": true`` (a previously computed answer beats a
rejection for read-mostly clients).  A quarantined cell (open circuit
breaker) is ``503``; malformed requests are ``400``; failed
compilations ``500`` with the error string.  ``/healthz`` reports the
supervised pool's watchdog view (worker liveness, heartbeat ages,
breaker states) alongside the liveness bit.

``--fault-plan FILE`` arms a :mod:`repro.resilience.faults` plan before
the engine forks its workers — the chaos suite's entry point for
injecting dropped/delayed responses, worker crashes, and store I/O
errors into a live server.

No new dependencies: ``http.server`` + ``json`` only.  Not a hardened
public-internet server — it is the in-lab traffic front of the
compilation service (bind it to localhost).
"""

from __future__ import annotations

import argparse
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..experiments.sweep import WIDTHS
from ..pipeline import Level
from ..resilience import faults
from ..resilience.faults import FaultPlan
from ..resilience.supervisor import CellQuarantined
from .client import ServiceRequestError
from .jobs import JobEngine, Overloaded, RequestTimeout
from .store import ArtifactStore

#: request bodies larger than this are rejected outright (bad client)
MAX_BODY_BYTES = 1 << 20
_LEVELS = frozenset(int(level) for level in Level)


class ServiceError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a load-worthy listen backlog.

    The stdlib default backlog is 5: under a concurrent load generator
    (or a router fanning a sweep out cell-wise) the accept queue
    overflows and the kernel resets connections before the handler ever
    sees them.  128 matches the admission-control queue bound — beyond
    that the service is shedding anyway.
    """

    request_queue_size = 128
    daemon_threads = True


class _DroppedResponse(Exception):
    """Injected ``server.drop_response``: abandon the connection."""


def _check_grid(levels, widths) -> None:
    """400 unless every level is a pipeline ``Level`` and every width one
    of the grid's issue widths."""
    bad = ([f"level {x}" for x in levels if x not in _LEVELS]
           + [f"width {x}" for x in widths if x not in WIDTHS])
    if bad:
        raise ServiceError(400, f"bad {bad[0]}")


def _timeout(body: dict) -> float | None:
    return float(body["timeout"]) if "timeout" in body else None


def _req_fields(body: dict) -> dict:
    """Validated common fields of a compile/run request."""
    try:
        out = {
            "workload": str(body["workload"]),
            "level": int(body.get("level", 4)),
            "width": int(body.get("width", 8)),
            "seed": int(body.get("seed", 0)),
            "check": bool(body.get("check", True)),
            "check_ir": bool(body.get("check_ir", False)),
            "disable": tuple(body.get("disable", ())),
            "timeout": _timeout(body),
        }
    except (KeyError, TypeError, ValueError) as e:
        raise ServiceError(400, f"bad request: {e!r}") from None
    _check_grid((out["level"],), (out["width"],))
    return out


def _sweep_fields(body: dict) -> dict:
    """Validated fields of a sweep request (the node and the cluster
    router parse sweeps alike).  Levels and widths default to the full
    evaluation grid."""
    try:
        out = {
            "workloads": [str(w) for w in body["workloads"]],
            "levels": [int(x) for x in body.get("levels", tuple(Level))],
            "widths": [int(x) for x in body.get("widths", WIDTHS)],
            "seed": int(body.get("seed", 0)),
            "check": bool(body.get("check", True)),
            "disable": sorted(set(body.get("disable", ()))),
            "timeout": _timeout(body),
        }
    except (KeyError, TypeError, ValueError) as e:
        raise ServiceError(400, f"bad request: {e!r}") from None
    _check_grid(out["levels"], out["widths"])
    out["configs"] = (len(out["workloads"]) * len(out["levels"])
                      * len(out["widths"]))
    if out["configs"] == 0:
        raise ServiceError(400, "empty sweep")
    return out


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    #: set by make_server
    engine: JobEngine = None
    quiet: bool = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A003
        if not self.quiet:
            super().log_message(fmt, *args)

    def _send(self, status: int, payload: dict, headers: dict = ()) -> None:
        plan = faults.ARMED
        if plan is not None and self.command == "POST":
            # response-path fault sites; keyed by arrival order (HTTP
            # responses have no natural content key)
            if plan.fire("server.drop_response",
                         plan.next_seq("server.drop_response")) is not None:
                raise _DroppedResponse()
            s = plan.fire("server.delay_response",
                          plan.next_seq("server.delay_response"))
            if s is not None:
                time.sleep(s.delay_s)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for k, v in dict(headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(data)

    def _body(self) -> dict:
        n = int(self.headers.get("Content-Length", 0) or 0)
        if n > MAX_BODY_BYTES:
            raise ServiceError(400, "request body too large")
        raw = self.rfile.read(n) if n else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as e:
            raise ServiceError(400, f"invalid JSON body: {e}") from None
        if not isinstance(body, dict):
            raise ServiceError(400, "JSON body must be an object")
        return body

    # -- routes ---------------------------------------------------------

    def do_GET(self):  # noqa: N802
        try:
            self._handle_get()
        except ServiceError as e:
            self._send(e.status, {"error": str(e)})

    def _handle_get(self) -> None:
        """GET route table (the cluster node handler extends this)."""
        if self.path == "/healthz":
            self._send(200, self.engine.health())
        elif self.path == "/metrics":
            self._send(200, self.engine.metrics())
        elif self.path.startswith("/v1/jobs/"):
            jid = self.path[len("/v1/jobs/"):]
            job = self.engine.job(jid)
            if job is None:
                raise ServiceError(404, f"unknown job {jid!r}")
            self._send(200, job.as_dict())
        else:
            raise ServiceError(404, f"no route {self.path!r}")

    def do_POST(self):  # noqa: N802
        try:
            self._do_post()
        except _DroppedResponse:
            self.close_connection = True

    def _do_post(self) -> None:
        try:
            self._handle_post(self._body())
        except _DroppedResponse:
            raise  # handled by do_POST: abandon the connection
        except Overloaded as e:
            self._send(429, {"error": str(e)}, {"Retry-After": "1"})
        except CellQuarantined as e:
            self._send(503, {"error": str(e)}, {"Retry-After": "5"})
        except RequestTimeout as e:
            self._send(504, {"error": str(e)})
        except ServiceError as e:
            self._send(e.status, {"error": str(e)})
        except ServiceRequestError as e:
            # a cluster peer's verdict (429/503/...): relay it as-is
            retry = ({} if e.retry_after is None else
                     {"Retry-After": str(math.ceil(e.retry_after))})
            self._send(e.status, {"error": str(e)}, retry)
        except Exception as e:  # compilation/simulation failure
            self._send(500, {"error": repr(e)})

    def _handle_post(self, body: dict) -> None:
        """POST route table (the cluster node handler extends this)."""
        if self.path in ("/v1/compile", "/v1/run"):
            kind = self.path.rsplit("/", 1)[1]
            f = _req_fields(body)
            timeout = f.pop("timeout")
            self._serve_single(kind, f, timeout)
        elif self.path == "/v1/sweep":
            self._serve_sweep(body)
        else:
            raise ServiceError(404, f"no route {self.path!r}")

    def _serve_single(self, kind: str, f: dict, timeout: float | None,
                      extra: dict | None = None) -> None:
        """One blocking compile/run through the local engine."""
        try:
            job = self.engine.submit(kind, **f, timeout=timeout)
        except KeyError as e:
            raise ServiceError(400, f"unknown workload {e}") from None
        except Overloaded:
            reply = self._on_overload(kind, f, timeout)
            if reply is None:
                raise
            self._send(200, {**reply, **(extra or {})})
            return
        result = self.engine.wait(job)
        self._send(200, {"job": job.id, "cache": job.cache,
                         "result": result, **(extra or {})})

    def _on_overload(self, kind: str, f: dict,
                     timeout: float | None) -> dict | None:
        """Admission shed a request: a reply dict to serve instead of the
        429, or None to shed for real.  Base behavior is graceful
        degradation — a stored result beats a 429; the cluster node
        handler tries work-stealing to a peer first."""
        stale = self.engine.degraded_lookup(kind, f)
        if stale is None:
            return None
        return {"job": None, "cache": "degraded", "degraded": True,
                "result": stale}

    def _serve_sweep(self, body: dict) -> None:
        f = _sweep_fields(body)
        try:
            job = self.engine.submit_sweep(
                f["workloads"], f["levels"], f["widths"], seed=f["seed"],
                check=f["check"], disable=tuple(f["disable"]),
                timeout=f["timeout"],
            )
        except KeyError as e:
            raise ServiceError(400, f"unknown workload {e}") from None
        self._send(202, {"job": job.id, "state": job.state,
                         "configs": job.request["configs"]})


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store_dir: str | Path | None = None,
    jobs: int = 1,
    max_pending: int = 64,
    default_timeout: float = 120.0,
    quiet: bool = True,
) -> tuple[ThreadingHTTPServer, JobEngine]:
    """Build (but do not start) the service; port 0 picks a free port."""
    store = ArtifactStore(Path(store_dir)) if store_dir is not None else None
    engine = JobEngine(store=store, jobs=jobs, max_pending=max_pending,
                       default_timeout=default_timeout)
    handler = type("Handler", (_Handler,), {"engine": engine, "quiet": quiet})
    httpd = ServiceHTTPServer((host, port), handler)
    return httpd, engine


def serve_background(**kwargs) -> tuple[ThreadingHTTPServer, JobEngine, str]:
    """Start a server on a daemon thread; returns (server, engine, url).

    Test/CI helper: ``examples/service_client.py --selftest`` and the
    integration suite use it to run client and server in one process.
    """
    httpd, engine = make_server(**kwargs)
    threading.Thread(target=httpd.serve_forever, daemon=True,
                     name="repro-service-http").start()
    host, port = httpd.server_address[:2]
    return httpd, engine, f"http://{host}:{port}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro serve", description="Run the compilation service."
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8734)
    ap.add_argument("--store", metavar="DIR",
                    help="persistent artifact-store directory "
                         "(default: serve without a store)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="compile/simulate worker processes (default: 1)")
    ap.add_argument("--max-pending", type=int, default=64, metavar="N",
                    help="admission-control queue bound (default: 64)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="default per-request deadline in seconds")
    ap.add_argument("--fault-plan", metavar="FILE", default=None,
                    help="arm a fault-injection plan from a JSON file "
                         "(chaos testing only)")
    ap.add_argument("--verbose", action="store_true",
                    help="log every request")
    args = ap.parse_args(argv)

    if args.fault_plan:
        # arm before the engine forks its workers, so the plan is
        # inherited by every worker process
        plan = FaultPlan.from_file(args.fault_plan)
        faults.arm(plan)
        print(plan.describe(), flush=True)

    httpd, engine = make_server(
        host=args.host, port=args.port, store_dir=args.store,
        jobs=args.jobs, max_pending=args.max_pending,
        default_timeout=args.timeout, quiet=not args.verbose,
    )
    host, port = httpd.server_address[:2]
    store_note = f", store={args.store}" if args.store else ""
    print(f"repro service on http://{host}:{port} "
          f"({args.jobs} worker(s){store_note})", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        engine.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
