"""Client SDK for the compilation service (stdlib ``urllib`` only).

    from repro.service.client import ServiceClient

    c = ServiceClient("http://127.0.0.1:8734")
    c.healthz()
    r = c.run("dotprod", level=4, width=8)        # blocks; cached or fresh
    job = c.sweep(["add", "sum"], widths=[1, 8])  # async: returns job id
    data = c.wait_job(job)                        # poll until done
    c.metrics()["hits"]

Errors are raised as :class:`ServiceUnavailable` (connection refused or
dropped), :class:`ServiceOverloaded` (HTTP 429 — back off and retry),
or :class:`ServiceRequestError` (anything else non-2xx, with the
server's error string).  Transport failures and 503 (quarantined cell)
are retried under the shared :class:`~repro.resilience.retry.RetryPolicy`
— safe because every request is idempotent by canonical key; 429 is
retried only when ``retry_overloaded=True`` (by default shedding is a
signal the caller should see).  A ``Retry-After`` header overrides the
computed backoff; the service only ever sends its delta-seconds form
(:func:`parse_retry_after`).  Used by ``repro submit``,
``experiments/sweep.py`` clients, and ``examples/service_client.py``.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

from ..resilience.retry import RetryPolicy, retry_call

#: default transport retry schedule (connection drops, 503)
CLIENT_RETRY = RetryPolicy(max_attempts=5, base_s=0.05, cap_s=2.0,
                           budget_s=30.0)
#: ``retry=None``: exactly one attempt
NO_RETRY = RetryPolicy(max_attempts=1)


def parse_retry_after(value: str | None) -> float | None:
    """Seconds of server-suggested backoff from a ``Retry-After`` header.

    Only the *delta-seconds* form (``"5"``, negative clamps to ``0.0``)
    is read: every server in this package sends that form.  ``None``
    for a missing header or any other form (including an HTTP-date).
    """
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class ServiceRequestError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        #: server-suggested backoff (``Retry-After`` header), if any
        self.retry_after = retry_after


class ServiceOverloaded(ServiceRequestError):
    """The service shed the request (HTTP 429): retry after a backoff."""


class ServiceUnavailable(RuntimeError):
    """The service could not be reached at all."""


class ServiceClient:
    def __init__(self, base_url: str, timeout: float = 300.0,
                 retry: RetryPolicy | None = CLIENT_RETRY,
                 retry_overloaded: bool = False,
                 headers: dict | None = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self.retry_overloaded = retry_overloaded
        #: extra headers sent with every request (the cluster layer uses
        #: this for its forwarding loop guards)
        self.headers = dict(headers or {})
        #: transport retries performed over this client's lifetime
        self.retries = 0

    # -- transport ------------------------------------------------------

    def _retryable(self, e: Exception) -> bool:
        if isinstance(e, ServiceUnavailable):
            return True
        if isinstance(e, ServiceOverloaded):
            return self.retry_overloaded
        return isinstance(e, ServiceRequestError) and e.status == 503

    def _count_retry(self, attempt, delay, exc) -> None:
        self.retries += 1

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        return retry_call(lambda: self._call_once(method, path, body),
                          policy=self.retry or NO_RETRY,
                          retryable=self._retryable,
                          on_retry=self._count_retry, sleep=time.sleep)

    def _call_once(self, method: str, path: str,
                   body: dict | None = None) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json", **self.headers},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as e:
            try:
                message = json.loads(e.read() or b"{}").get("error", str(e))
            except json.JSONDecodeError:
                message = str(e)
            retry_after = parse_retry_after(e.headers.get("Retry-After"))
            cls = ServiceOverloaded if e.code == 429 else ServiceRequestError
            raise cls(e.code, message, retry_after) from None
        except urllib.error.URLError as e:
            raise ServiceUnavailable(f"{self.base_url}: {e.reason}") from None
        except (http.client.HTTPException, OSError) as e:
            # a dropped connection mid-response surfaces raw from
            # http.client rather than wrapped in URLError
            raise ServiceUnavailable(f"{self.base_url}: {e!r}") from None

    # -- endpoints ------------------------------------------------------

    def healthz(self) -> dict:
        return self._call("GET", "/healthz")

    def metrics(self) -> dict:
        return self._call("GET", "/metrics")

    def compile(self, workload: str, level: int = 4, width: int = 8,
                **kwargs) -> dict:
        """Compile one configuration; returns the artifact payload
        (``result``) plus job id and cache disposition."""
        body = {"workload": workload, "level": level, "width": width, **kwargs}
        return self._call("POST", "/v1/compile", body)

    def run(self, workload: str, level: int = 4, width: int = 8,
            **kwargs) -> dict:
        """Compile + simulate (+ NumPy-check) one configuration."""
        body = {"workload": workload, "level": level, "width": width, **kwargs}
        return self._call("POST", "/v1/run", body)

    def sweep(self, workloads: list[str], levels=None, widths=None,
              **kwargs) -> str:
        """Submit an async sweep; returns the job id to poll."""
        body = {"workloads": list(workloads), **kwargs}
        if levels is not None:
            body["levels"] = list(levels)
        if widths is not None:
            body["widths"] = list(widths)
        return self._call("POST", "/v1/sweep", body)["job"]

    def job(self, job_id: str) -> dict:
        return self._call("GET", f"/v1/jobs/{job_id}")

    def wait_job(self, job_id: str, timeout: float = 300.0,
                 poll: float = 0.05) -> dict:
        """Poll a job until it leaves the queue; returns its final record.

        Raises :class:`ServiceRequestError` if the job failed or timed
        out server-side.
        """
        deadline = time.monotonic() + timeout
        while True:
            rec = self.job(job_id)
            if rec["state"] in ("done", "failed", "timeout"):
                if rec["state"] != "done":
                    raise ServiceRequestError(
                        500, f"job {job_id} {rec['state']}: {rec['error']}"
                    )
                return rec
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {rec['state']} "
                                   f"after {timeout}s")
            time.sleep(poll)
