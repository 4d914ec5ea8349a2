"""The one shared retry loop: capped exponential backoff, full jitter.

Used by the client SDK (dropped connections, 429/503 shedding) and the
artifact store's write/rename paths (transient ``OSError``).  One
policy object describes the schedule; :func:`retry_call` is the only
loop that executes it.  All time sources are
injectable so the unit tests run the whole schedule on a fake clock.

Design points (the AWS "exponential backoff and jitter" results):

* **Full jitter** — the delay before attempt *n* is uniform in
  ``[0, min(cap, base * 2**n)]``, which de-correlates a thundering herd
  of retriers far better than equal or decorrelated jitter.
* **Retry budget** — beyond per-call attempt caps, a policy carries a
  total-sleep budget; once spent, failures surface immediately.  This
  bounds worst-case added latency under a persistent outage.
* **``Retry-After`` honoring** — if the failing exception carries a
  ``retry_after`` attribute (the client sets it from the HTTP header),
  that value replaces the computed backoff for the next attempt (still
  charged against the budget).

Retries are only safe because every request in this system is
idempotent: results are keyed by the canonical request key
(:mod:`repro.service.keys`), so a duplicate of an already-performed
operation lands on the same key and cannot double-count.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .errors import classify_exception


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter and a sleep budget."""

    max_attempts: int = 5          # total tries, including the first
    base_s: float = 0.05           # backoff scale for attempt 0
    cap_s: float = 2.0             # per-delay ceiling
    budget_s: float = 30.0         # total sleep allowed across a call

    def max_delay(self, attempt: int) -> float:
        """Upper edge of the jitter window before retry ``attempt``
        (attempt 0 = the delay after the first failure)."""
        return min(self.cap_s, self.base_s * (2.0 ** attempt))

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Full jitter: uniform in ``[0, max_delay(attempt)]``."""
        return rng.uniform(0.0, self.max_delay(attempt))


@dataclass
class RetryState:
    """Book-keeping for one logical operation's retries."""

    policy: RetryPolicy
    rng: random.Random = field(default_factory=random.Random)
    attempt: int = 0
    slept_s: float = 0.0

    def next_delay(self, retry_after: float | None = None) -> float | None:
        """Delay before the next attempt, or None if the schedule is
        exhausted (attempt cap or budget).  Advances the attempt count."""
        if self.attempt + 1 >= self.policy.max_attempts:
            return None
        d = (float(retry_after) if retry_after is not None
             else self.policy.delay(self.attempt, self.rng))
        if self.slept_s + d > self.policy.budget_s:
            return None
        self.attempt += 1
        self.slept_s += d
        return d


def retry_call(
    fn,
    *,
    policy: RetryPolicy | None = None,
    retryable=None,
    rng: random.Random | None = None,
    sleep=time.sleep,
    on_retry=None,
):
    """Call ``fn()`` under ``policy``, retrying transient failures.

    ``retryable(exc) -> bool`` decides what to retry (default: the
    :mod:`~repro.resilience.errors` taxonomy's ``transient`` class).
    ``on_retry(attempt, delay, exc)`` observes each retry (metrics
    counters hook in here).  The last exception is re-raised when the
    schedule is exhausted or the failure is not retryable.
    """
    policy = policy or RetryPolicy()
    retryable = retryable or (lambda e: classify_exception(e) == "transient")
    state = RetryState(policy, rng or random.Random())
    while True:
        try:
            return fn()
        except Exception as e:
            if not retryable(e):
                raise
            d = state.next_delay(getattr(e, "retry_after", None))
            if d is None:
                raise
            if on_retry is not None:
                on_retry(state.attempt, d, e)
            sleep(d)
