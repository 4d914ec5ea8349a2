"""Deterministic fault injection: seeded plans fired at named sites.

A :class:`FaultPlan` is an armed set of :class:`FaultSite` specs.  Code
on the hot paths (sweep worker loop, artifact store, job engine, HTTP
server) carries *sites* — named points where a fault can be injected:

====================== ====================================================
``worker.kill``        SIGKILL the worker process before it runs the task
``worker.hang``        sleep ``delay_s`` (≫ deadline) before the task
``worker.slow``        sleep ``delay_s`` (≪ deadline), then run normally
``worker.error``       raise from the task (Transient unless ``fatal``)
``store.torn_write``   truncate a blob's bytes mid-write (torn artifact)
``store.enospc``       raise ``OSError(ENOSPC)`` writing a blob
``store.eio``          raise ``OSError(EIO)`` at blob fsync
``server.drop_response``   close the HTTP connection without replying
``server.delay_response``  sleep ``delay_s`` before replying
====================== ====================================================

**Zero overhead when unarmed.**  The module global :data:`ARMED` is
``None`` almost always; every call site guards with a single
``faults.ARMED is not None`` test, so an un-armed run pays one pointer
compare per site visit and allocates nothing.

**Deterministic by content, not by schedule.**  Whether a site fires for
a given piece of work is a pure function of ``(plan seed, site name,
work key, attempt number)`` — a hash-thresholded Bernoulli draw — never
of wall clock, pid, or arrival order.  Two consequences the chaos suite
leans on: the same plan replays identically across runs and process
topologies, and the *expected* fault set can be computed independently
(:meth:`FaultPlan.count_for`) and reconciled against the recovery
counters, so no injected fault can escape unaccounted.

Fork inheritance arms the workers: ``arm()`` in the parent before the
pool forks and every worker sees the plan.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

KNOWN_SITES = (
    "worker.kill", "worker.hang", "worker.slow", "worker.error",
    "store.torn_write", "store.enospc", "store.eio",
    "server.drop_response", "server.delay_response",
)


@dataclass(frozen=True)
class FaultSite:
    """One armed site: which keys it selects and how hard it hits them."""

    site: str
    #: fraction of keys selected (hash-thresholded, not sampled)
    rate: float = 1.0
    #: a selected key faults on attempts ``0..fires-1`` and then runs
    #: clean — so bounded retries always converge on the true result
    fires: int = 1
    #: sleep length for slow/hang/delay sites
    delay_s: float = 0.0
    #: ``worker.error`` raises FatalError instead of TransientError
    fatal: bool = False

    def __post_init__(self):
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r} (known: {KNOWN_SITES})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0,1], got {self.rate}")
        if self.fires < 1:
            raise ValueError("fires must be >= 1")


def _selected(seed: int, site: str, key: str, rate: float) -> bool:
    """Hash-thresholded Bernoulli: same (seed, site, key) → same answer
    in every process, on every run."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    h = hashlib.sha256(f"{seed}\x00{site}\x00{key}".encode()).digest()
    return int.from_bytes(h[:8], "big") / 2.0 ** 64 < rate


@dataclass
class FaultPlan:
    """A seeded, composable set of fault sites.

    ``injected`` counts actual firings in *this process* (workers count
    their own; the parent reconciles via :meth:`count_for` instead).
    """

    seed: int = 0
    sites: tuple[FaultSite, ...] = ()
    injected: Counter = field(default_factory=Counter, compare=False)

    def __post_init__(self):
        self.sites = tuple(self.sites)
        names = [s.site for s in self.sites]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate fault sites in plan: {names}")
        self._by_site = {s.site: s for s in self.sites}
        self._seq = Counter()

    # -- decisions ------------------------------------------------------

    def count_for(self, site: str, key: str) -> int:
        """How many leading attempts of ``key`` fault at ``site`` (0 if
        the key is not selected).  Pure; usable for reconciliation."""
        s = self._by_site.get(site)
        if s is None or not _selected(self.seed, site, key, s.rate):
            return 0
        return s.fires

    def fire(self, site: str, key: str, attempt: int = 0) -> FaultSite | None:
        """The site spec if this (key, attempt) should fault, else None.
        Firing is recorded in :attr:`injected`."""
        s = self._by_site.get(site)
        if s is None or attempt >= self.count_for(site, key):
            return None
        self.injected[site] += 1
        return s

    def next_seq(self, site: str) -> str:
        """A per-site sequence key for sites with no natural work key
        (HTTP responses): ``#0``, ``#1``, ... in arrival order."""
        n = self._seq[site]
        self._seq[site] += 1
        return f"#{n}"

    # -- (de)serialization ----------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "sites": [asdict(s) for s in self.sites]},
            indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(seed=int(d.get("seed", 0)),
                   sites=tuple(FaultSite(**s) for s in d.get("sites", ())))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def describe(self) -> str:
        rows = [f"fault plan (seed {self.seed}):"]
        for s in self.sites:
            extra = f", delay {s.delay_s}s" if s.delay_s else ""
            extra += ", fatal" if s.fatal else ""
            rows.append(f"  {s.site:<24} rate {s.rate:.2f} x{s.fires}{extra}")
        return "\n".join(rows)


# ---------------------------------------------------------------------------
# global arming
# ---------------------------------------------------------------------------

#: the armed plan, or None (the overwhelmingly common case).  Call sites
#: guard on ``faults.ARMED is not None`` — one pointer compare.
ARMED: FaultPlan | None = None


def arm(plan: FaultPlan | None) -> None:
    global ARMED
    ARMED = plan


@contextlib.contextmanager
def armed(plan: FaultPlan):
    """``with faults.armed(plan): ...`` — arm for a scope, restore after."""
    prev = ARMED
    arm(plan)
    try:
        yield plan
    finally:
        arm(prev)
