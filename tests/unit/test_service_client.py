"""Client and clock units: ``Retry-After`` parsing, the client's retry
contract, and monotonic job deadlines.

A server-suggested backoff must be honored in the delta-seconds form
the service sends, the client must retry exactly the failures it
documents as retryable, and a job's deadline must be immune to
wall-clock steps.
"""

import time

import pytest

from repro.service.client import (
    CLIENT_RETRY,
    ServiceClient,
    ServiceOverloaded,
    ServiceRequestError,
    ServiceUnavailable,
    parse_retry_after,
)
from repro.service.jobs import Job


class TestParseRetryAfter:
    def test_delta_seconds(self):
        assert parse_retry_after("5") == 5.0
        assert parse_retry_after("0") == 0.0
        assert parse_retry_after(" 2 ") == 2.0
        assert parse_retry_after("1.5") == 1.5

    def test_negative_delta_clamps_to_zero(self):
        assert parse_retry_after("-3") == 0.0

    def test_unparseable_is_none(self):
        assert parse_retry_after(None) is None
        assert parse_retry_after("") is None
        assert parse_retry_after("soon") is None
        assert parse_retry_after("Fri, 99 Zed 2026") is None

    def test_date_form_is_not_parsed(self):
        # no server in the package sends it: the client falls back to
        # its own computed backoff
        assert parse_retry_after("Fri, 08 Aug 2026 12:00:30 GMT") is None


class TestClientHeaders:
    def test_extra_headers_are_carried(self):
        c = ServiceClient("http://127.0.0.1:1", headers={"X-Repro-Hop": "route"})
        assert c.headers == {"X-Repro-Hop": "route"}
        # the default retry policy is the shared one, unchanged
        assert c.retry is CLIENT_RETRY


class TestRetryContract:
    """``ServiceClient._call`` over a stubbed transport and a fake sleep:
    which failures are retried, how long it waits, what it counts."""

    def _client(self, monkeypatch, outcomes, **kw):
        """A client whose transport yields ``outcomes`` in order (an
        exception is raised, anything else returned).  Returns the
        client, the list of transport calls and the list of sleeps."""
        client = ServiceClient("http://127.0.0.1:1", **kw)
        calls, slept = [], []
        script = iter(outcomes)

        def call_once(method, path, body=None):
            calls.append((method, path))
            out = next(script)
            if isinstance(out, Exception):
                raise out
            return out

        monkeypatch.setattr(client, "_call_once", call_once)
        monkeypatch.setattr(time, "sleep", slept.append)
        return client, calls, slept

    def test_unavailable_and_503_are_retried_until_success(self, monkeypatch):
        client, calls, slept = self._client(monkeypatch, [
            ServiceUnavailable("connection refused"),
            ServiceRequestError(503, "cell quarantined"),
            ServiceUnavailable("connection reset"),
            {"ok": True},
        ])
        assert client.healthz() == {"ok": True}
        assert len(calls) == 4
        assert len(slept) == 3
        # computed backoff: full jitter inside the policy's window
        for attempt, d in enumerate(slept):
            assert 0.0 <= d <= CLIENT_RETRY.max_delay(attempt)
        assert client.retries == 3

    def test_400_is_raised_at_once(self, monkeypatch):
        client, calls, slept = self._client(monkeypatch, [
            ServiceRequestError(400, "unknown workload"), {"ok": True}])
        with pytest.raises(ServiceRequestError) as ei:
            client.run("nope")
        assert ei.value.status == 400
        assert (len(calls), slept, client.retries) == (1, [], 0)

    def test_429_is_not_retried_by_default(self, monkeypatch):
        client, calls, slept = self._client(monkeypatch, [
            ServiceOverloaded(429, "queue full"), {"ok": True}])
        with pytest.raises(ServiceOverloaded):
            client.run("add")
        assert (len(calls), slept, client.retries) == (1, [], 0)

    def test_429_is_retried_when_asked(self, monkeypatch):
        client, calls, slept = self._client(monkeypatch, [
            ServiceOverloaded(429, "queue full"),
            ServiceOverloaded(429, "queue full"),
            {"result": 1}], retry_overloaded=True)
        assert client.run("add") == {"result": 1}
        assert (len(calls), len(slept), client.retries) == (3, 2, 2)

    def test_retry_after_replaces_the_computed_delay(self, monkeypatch):
        client, _, slept = self._client(monkeypatch, [
            ServiceOverloaded(429, "queue full", retry_after=2.5),
            ServiceRequestError(503, "quarantined", retry_after=7.0),
            {"result": 1}], retry_overloaded=True)
        client.run("add")
        assert slept == [2.5, 7.0]

    def test_retries_accumulate_across_calls(self, monkeypatch):
        client, _, _ = self._client(monkeypatch, [
            ServiceUnavailable("down"), {"ok": True},
            ServiceUnavailable("down"), ServiceUnavailable("down"),
            {"ok": True}])
        client.healthz()
        client.healthz()
        assert client.retries == 3

    def test_exhausted_schedule_reraises(self, monkeypatch):
        client, calls, slept = self._client(
            monkeypatch, [ServiceUnavailable("down")] * 10)
        with pytest.raises(ServiceUnavailable):
            client.healthz()
        assert len(calls) == CLIENT_RETRY.max_attempts
        assert client.retries == len(slept) == CLIENT_RETRY.max_attempts - 1

    def test_retry_none_makes_exactly_one_attempt(self, monkeypatch):
        client, calls, slept = self._client(monkeypatch, [
            ServiceUnavailable("down"), {"ok": True}], retry=None)
        with pytest.raises(ServiceUnavailable):
            client.healthz()
        assert (len(calls), slept, client.retries) == (1, [], 0)


class TestMonotonicDeadlines:
    def test_deadline_is_monotonic_not_wall_clock(self, monkeypatch):
        job = Job("job-000001", "run", {})
        job.deadline_mono = time.monotonic() + 5.0
        # a violent wall-clock step in either direction must not move
        # the deadline: remaining_s consults only the monotonic clock
        monkeypatch.setattr(time, "time", lambda: 0.0)
        assert 4.0 < job.remaining_s() <= 5.0
        monkeypatch.setattr(time, "time", lambda: 4e9)
        assert 4.0 < job.remaining_s() <= 5.0

    def test_no_deadline_means_unbounded(self):
        job = Job("job-000002", "run", {})
        assert job.deadline_mono is None
        assert job.remaining_s() is None

    def test_as_dict_exposes_display_times_and_elapsed(self):
        job = Job("job-000003", "run", {})
        d = job.as_dict()
        # wall-clock fields exist for humans; elapsed comes from the
        # monotonic clock and is None until the job finishes
        assert d["created"] > 0
        assert d["finished"] is None
        assert d["elapsed_s"] is None
        assert "deadline_mono" not in d  # internal, not API
