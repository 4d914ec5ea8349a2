"""Content-addressed on-disk artifact store.

Blobs are JSON envelopes addressed by the SHA-256 request key of
:mod:`repro.service.keys`, laid out git-style under the store root::

    root/
      objects/ab/abcdef....json     # envelope: salt, key, payload
      quarantine/                   # corrupt blobs, moved aside

The directory is the whole state: a handle keeps no index in memory or
on disk, so ``len()`` and :meth:`ArtifactStore.total_bytes` scan
``objects/``.  An index file that an older version left in the root is
ignored.

Guarantees:

* **Atomic writes** — a blob is written to a tmp file in the same
  directory and ``os.replace``d into place, so readers (and concurrent
  writers of the same key: last rename wins, both contents identical by
  construction) never observe a torn blob at its final path.
* **Corruption tolerance** — a blob that fails to parse, fails its
  envelope check, or carries the wrong key is treated as a *miss* and
  moved into ``quarantine/`` so it cannot poison later reads (and so a
  corrupt file is preserved for inspection instead of being silently
  clobbered by the recomputation).
* **Version-salt invalidation** — every envelope records the
  :data:`~repro.service.keys.CODE_VERSION` salt it was written under;
  a mismatch is a miss and the stale blob is deleted.
* **Any thread, any process** — tmp names carry the writer's pid and
  thread id, one lock guards the handle's counters, and a quarantine is
  counted only by the reader whose ``os.replace`` moved the blob, so one
  handle may be shared by every thread of a process.
* **Classified failure handling** — write I/O errors run through the
  :mod:`repro.resilience.errors` taxonomy: transient ones (``ENOSPC``,
  ``EIO``, ...) are retried under the shared
  :class:`~repro.resilience.retry.RetryPolicy` and then *degrade* (the
  result is served, just not persisted) instead of failing the caller;
  only fatal ones (permissions, read-only fs) raise.  Orphaned
  ``*.tmp`` files from writers that died between write and rename are
  cleaned on open after a grace period.

Fault sites (active only under an armed
:class:`~repro.resilience.faults.FaultPlan`): ``store.torn_write``
truncates a blob's bytes before the rename, ``store.enospc`` raises at
the write, ``store.eio`` raises at the fsync.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..resilience import faults
from ..resilience.errors import (
    classify_os_error,
    clean_orphan_tmps,
    log_tolerated,
)
from ..resilience.retry import RetryPolicy, retry_call
from .keys import CODE_VERSION

#: write/rename retry schedule: brief, because a put that cannot land
#: quickly should degrade (skip persistence) rather than stall serving
PUT_RETRY = RetryPolicy(max_attempts=3, base_s=0.01, cap_s=0.1, budget_s=1.0)


@dataclass
class StoreStats:
    """Counters since this handle was opened (not persisted)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    quarantined: int = 0
    invalidated: int = 0
    #: transient write failures retried / degraded to "not persisted"
    put_retries: int = 0
    put_failures: int = 0
    #: orphaned tmp files removed at open
    tmp_cleaned: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ArtifactStore:
    """One process's handle on a store directory.

    Safe for concurrent use by multiple processes and by multiple
    threads sharing this handle: blob writes are atomic renames from
    per-thread tmp files, reads tolerate missing/corrupt files, and
    ``_lock`` guards the counters.
    """

    root: Path
    #: envelope salt; artifacts written under any other salt are stale
    salt: str = CODE_VERSION
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self):
        self.root = Path(self.root)
        self._objects = self.root / "objects"
        self._quarantine = self.root / "quarantine"
        self._objects.mkdir(parents=True, exist_ok=True)
        self.stats.tmp_cleaned += clean_orphan_tmps(self.root)
        self._lock = threading.Lock()
        #: per-key write-attempt sequence, so injected write faults fire
        #: on the first attempt and let the retry/recompute land clean
        self._fault_seq: Counter = Counter()

    def _blob_path(self, key: str) -> Path:
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self._objects / key[:2] / f"{key}.json"

    def _count(self, *names: str) -> None:
        with self._lock:
            for name in names:
                setattr(self.stats, name, getattr(self.stats, name) + 1)

    @staticmethod
    def _writer_tag() -> str:
        """Unique per writing thread: two threads of one process (or two
        processes) never share a tmp or quarantine name."""
        return f"{os.getpid()}-{threading.get_ident()}"

    # -- public API -----------------------------------------------------

    def get(self, key: str):
        """The stored payload for ``key``, or None on any kind of miss."""
        path = self._blob_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        try:
            # parse from raw bytes: a torn blob may not even be valid UTF-8
            env = json.loads(raw)
            if env["key"] != key or "payload" not in env:
                raise ValueError("envelope mismatch")
            env_salt = env["salt"]
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError, ValueError):
            self._quarantine_blob(path)
            self._count("misses")
            return None
        if env_salt != self.salt:
            # written by a different code version: stale, not corrupt
            path.unlink(missing_ok=True)
            self._count("invalidated", "misses")
            return None
        self._count("hits")
        return env["payload"]

    def put(self, key: str, payload) -> Path | None:
        """Store a JSON-serializable payload under ``key`` atomically.

        Transient write errors are retried under :data:`PUT_RETRY`; if they
        persist the put *degrades* — the blob is simply not stored (a
        future read is a miss and recomputes) and ``None`` is returned.
        Only fatal errors raise.
        """
        path = self._blob_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # plain dumps, not canonical_json: blob *content* must round-trip
        # with dict insertion order intact (e.g. a ConfigResult's
        # t_passes map records pass execution order); only key
        # derivation needs canonical form
        data = json.dumps({"salt": self.salt, "key": key,
                           "payload": payload})

        def count_retry(attempt, delay, exc):
            self._count("put_retries")

        try:
            retry_call(lambda: self._write_blob(path, key, data),
                       policy=PUT_RETRY, on_retry=count_retry)
        except OSError as e:
            if classify_os_error(e) == "fatal":
                raise
            self._count("put_failures")
            log_tolerated(f"store.put {key[:16]}", e)
            return None
        self._count("puts")
        return path

    def _write_blob(self, path: Path, key: str, data: str) -> None:
        """tmp-write + fsync + atomic rename, with the write fault sites."""
        plan = faults.ARMED
        attempt = 0
        if plan is not None:
            with self._lock:
                attempt = self._fault_seq[key]
                self._fault_seq[key] += 1
            if plan.fire("store.torn_write", key, attempt):
                # a torn write is *silent*: the writer thinks it
                # succeeded, and only a later read detects + quarantines
                data = data[: max(1, len(data) // 2)]
        tmp = path.with_name(f".{key[:16]}-{self._writer_tag()}.tmp")
        try:
            with open(tmp, "w") as f:
                if plan is not None and plan.fire("store.enospc", key, attempt):
                    raise OSError(errno.ENOSPC, "injected: no space left")
                f.write(data)
                f.flush()
                if plan is not None and plan.fire("store.eio", key, attempt):
                    raise OSError(errno.EIO, "injected: I/O error at fsync")
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def contains(self, key: str) -> bool:
        return self._blob_path(key).exists()

    def _blob_sizes(self) -> list[int]:
        sizes = []
        for p in self._objects.glob("??/*.json"):
            try:
                sizes.append(p.stat().st_size)
            except OSError:
                continue  # moved or deleted since the listing
        return sizes

    def total_bytes(self) -> int:
        return sum(self._blob_sizes())

    def __len__(self) -> int:
        return len(self._blob_sizes())

    # -- maintenance ----------------------------------------------------

    def _quarantine_blob(self, path: Path) -> None:
        self._quarantine.mkdir(parents=True, exist_ok=True)
        dest = (self._quarantine
                / f"{path.stem}-{self._writer_tag()}-{time.time_ns()}")
        try:
            os.replace(path, dest)
        except FileNotFoundError:
            return  # another reader moved it first, and counts it
        except OSError:
            path.unlink(missing_ok=True)  # cannot move it: stop serving it
            return
        self._count("quarantined")
