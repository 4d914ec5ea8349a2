"""Content-addressed on-disk artifact store.

Blobs are JSON envelopes addressed by the SHA-256 request key of
:mod:`repro.service.keys`, laid out git-style under the store root::

    root/
      objects/ab/abcdef....json     # envelope: salt, key, payload
      quarantine/                   # corrupt blobs, moved aside
      index.json                    # LRU bookkeeping (best-effort)

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
* **LRU size-capped eviction** — ``max_bytes`` caps the total blob
  size; inserting past the cap evicts least-recently-*used* blobs
  (reads refresh recency).  Recency is a *logical use counter*, not a
  wall-clock stamp: ``time.time()`` can step backwards (NTP, manual
  resets) and across machines two stores' clocks never agree, either of
  which would silently reorder eviction and throw away the hottest
  blob.  The counter is persisted in the index and survives reopen; a
  lost or torn index is rebuilt by scanning ``objects/`` (recency
  degrades to file-mtime *rank*, re-assigned deterministically, and
  correctness is unaffected).
* **Classified failure handling** — write and eviction I/O errors run
  through the :mod:`repro.resilience.errors` taxonomy: transient ones
  (``ENOSPC``, ``EIO``, ...) are retried under the shared
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
from .keys import CODE_VERSION, canonical_json

#: write/rename retry schedule: brief, because a put that cannot land
#: quickly should degrade (skip persistence) rather than stall serving
PUT_RETRY = RetryPolicy(max_attempts=3, base_s=0.01, cap_s=0.1, budget_s=1.0)


@dataclass
class StoreStats:
    """Counters since this handle was opened (not persisted)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    quarantined: int = 0
    invalidated: int = 0
    #: transient write failures retried / degraded to "not persisted"
    put_retries: int = 0
    put_failures: int = 0
    #: eviction unlinks absorbed by the taxonomy (transient, logged)
    evict_errors: int = 0
    #: orphaned tmp files removed at open
    tmp_cleaned: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _Entry:
    size: int
    used: int  # logical-use counter: higher = more recently used


@dataclass
class ArtifactStore:
    """One process's handle on a store directory.

    Safe for concurrent use by multiple processes: blob writes are
    atomic renames, reads tolerate missing/corrupt files, and the index
    is advisory.  Not internally locked — callers in one process should
    serialize access per handle (the job engine does).
    """

    root: Path
    #: total blob-byte cap; None = unbounded
    max_bytes: int | None = None
    #: envelope salt; artifacts written under any other salt are stale
    salt: str = CODE_VERSION
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self):
        self.root = Path(self.root)
        self._objects = self.root / "objects"
        self._quarantine = self.root / "quarantine"
        self._index_path = self.root / "index.json"
        self._objects.mkdir(parents=True, exist_ok=True)
        self.stats.tmp_cleaned += clean_orphan_tmps(self.root)
        #: per-key write-attempt sequence, so injected write faults fire
        #: on the first attempt and let the retry/recompute land clean
        self._fault_seq: Counter = Counter()
        self._index: dict[str, _Entry] = {}
        self._load_index()

    # -- paths ----------------------------------------------------------

    def _blob_path(self, key: str) -> Path:
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self._objects / key[:2] / f"{key}.json"

    # -- index ----------------------------------------------------------

    def _load_index(self) -> None:
        try:
            raw = json.loads(self._index_path.read_text())
            # ``used`` may be a legacy wall-clock float from an index
            # written before the logical counter; it is only used as a
            # rank below, so both forms load fine
            loaded = [
                (k, int(v["size"]), float(v["used"]))
                for k, v in raw.get("entries", {}).items()
            ]
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            loaded = None
        if loaded is None:
            # rebuild from a directory scan; recency falls back to the
            # blobs' mtime *rank* (ties broken by key, so the rebuild is
            # deterministic for a given set of files)
            loaded = []
            for p in self._objects.glob("??/*.json"):
                try:
                    st = p.stat()
                except OSError:
                    continue
                loaded.append((p.stem, st.st_size, st.st_mtime))
        else:
            # drop index entries whose blob vanished (another process
            # evicted or quarantined it)
            loaded = [
                (k, size, used) for k, size, used in loaded
                if self._blob_path(k).exists()
            ]
        # re-rank into compact logical counters 1..n, preserving order:
        # only the *order* of recency stamps matters for LRU, and ranks
        # are immune to whatever clock produced the originals
        loaded.sort(key=lambda t: (t[2], t[0]))
        self._index = {
            k: _Entry(size, rank)
            for rank, (k, size, _) in enumerate(loaded, start=1)
        }
        self._use_seq = len(loaded)

    def _next_use(self) -> int:
        """The next logical-use stamp (never goes backwards)."""
        self._use_seq += 1
        return self._use_seq

    def _save_index(self) -> None:
        payload = {
            "entries": {
                k: {"size": e.size, "used": e.used}
                for k, e in self._index.items()
            }
        }
        tmp = self._index_path.with_name(f".index-{os.getpid()}.tmp")
        try:
            tmp.write_text(canonical_json(payload))
            os.replace(tmp, self._index_path)
        except OSError:
            tmp.unlink(missing_ok=True)  # advisory only

    # -- public API -----------------------------------------------------

    def get(self, key: str):
        """The stored payload for ``key``, or None on any kind of miss."""
        path = self._blob_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            self._index.pop(key, None)
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
            self._index.pop(key, None)
            self.stats.misses += 1
            return None
        if env_salt != self.salt:
            # written by a different code version: stale, not corrupt
            path.unlink(missing_ok=True)
            self._index.pop(key, None)
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        e = self._index.get(key)
        if e is None:
            self._index[key] = _Entry(len(raw), self._next_use())
        else:
            e.used = self._next_use()
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
            self.stats.put_retries += 1

        try:
            retry_call(lambda: self._write_blob(path, key, data),
                       policy=PUT_RETRY, on_retry=count_retry)
        except OSError as e:
            if classify_os_error(e) == "fatal":
                raise
            self.stats.put_failures += 1
            log_tolerated(f"store.put {key[:16]}", e)
            return None
        self._index[key] = _Entry(len(data.encode()), self._next_use())
        self.stats.puts += 1
        if self.max_bytes is not None:
            self._evict_to(self.max_bytes, keep=key)
        self._save_index()
        return path

    def _write_blob(self, path: Path, key: str, data: str) -> None:
        """tmp-write + fsync + atomic rename, with the write fault sites."""
        plan = faults.ARMED
        attempt = 0
        if plan is not None:
            attempt = self._fault_seq[key]
            self._fault_seq[key] += 1
            if plan.fire("store.torn_write", key, attempt):
                # a torn write is *silent*: the writer thinks it
                # succeeded, and only a later read detects + quarantines
                data = data[: max(1, len(data) // 2)]
        tmp = path.with_name(f".{key[:16]}-{os.getpid()}.tmp")
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

    def total_bytes(self) -> int:
        return sum(e.size for e in self._index.values())

    def __len__(self) -> int:
        return len(self._index)

    # -- maintenance ----------------------------------------------------

    def _quarantine_blob(self, path: Path) -> None:
        self._quarantine.mkdir(parents=True, exist_ok=True)
        dest = self._quarantine / f"{path.stem}-{os.getpid()}-{time.time_ns()}"
        try:
            os.replace(path, dest)
        except OSError:
            path.unlink(missing_ok=True)  # raced: someone else moved it
        self.stats.quarantined += 1

    def _evict_to(self, max_bytes: int, keep: str | None = None) -> None:
        """Delete least-recently-used blobs until total size fits.

        ``keep`` (the blob just written) is never evicted: a single
        entry larger than the cap stays until something newer lands.
        """
        total = self.total_bytes()
        if total <= max_bytes:
            return
        for key, e in sorted(self._index.items(), key=lambda kv: kv[1].used):
            if key == keep:
                continue
            try:
                self._blob_path(key).unlink(missing_ok=True)
            except OSError as err:
                # a blob we cannot unlink right now is not fatal to the
                # cache: classify, log, count, and move on (a later
                # eviction or the index rebuild will reconcile it)
                if classify_os_error(err) == "fatal":
                    raise
                self.stats.evict_errors += 1
                log_tolerated(f"store.evict {key[:16]}", err)
                continue
            del self._index[key]
            self.stats.evictions += 1
            total -= e.size
            if total <= max_bytes:
                break
