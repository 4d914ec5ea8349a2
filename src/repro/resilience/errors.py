"""Structured error taxonomy for the fault-tolerant paths.

Every I/O-adjacent failure in the sweep/store/service stack falls into
one of two classes, and the handling rule is uniform:

* **Transient** — the operation may succeed if retried (``ENOSPC``
  once space frees up, ``EIO`` on a flaky disk, ``EAGAIN``, a dropped
  connection).
  Retried under a :class:`~repro.resilience.retry.RetryPolicy`; if the
  budget runs out the caller degrades (e.g. a result is served but not
  persisted) instead of crashing.
* **Fatal** — a programming error or an unrecoverable environment
  problem (permission denied on the store root, read-only filesystem).
  Raised: masking it would silently corrupt hours of results.

Damaged *data* (a torn blob, an undecodable journal line) is not an
exception class: the reader that finds it quarantines or skips it
inline and the result is recomputed.

The classifier below maps ``OSError`` values onto the taxonomy: only
genuinely fatal ones propagate, the rest are logged and counted.
"""

from __future__ import annotations

import errno
import sys
import time
from pathlib import Path


class TransientError(Exception):
    """Retryable: the same operation may succeed shortly."""


class FatalError(Exception):
    """Unrecoverable: must propagate to the operator."""


#: errno values where retrying (possibly after a backoff) is sane
TRANSIENT_ERRNOS = frozenset({
    errno.ENOSPC, errno.EDQUOT, errno.EIO, errno.EAGAIN, errno.EINTR,
    errno.EBUSY, errno.ETIMEDOUT, errno.EMFILE, errno.ENFILE,
    errno.ESTALE, errno.ECONNRESET, errno.ECONNREFUSED, errno.EPIPE,
})


def classify_os_error(exc: OSError) -> str:
    """``"transient"`` or ``"fatal"`` for an ``OSError``.

    ``ENOENT`` during cleanup is transient (another process
    already removed the file — the desired state holds); ``EACCES`` /
    ``EROFS`` / ``EPERM`` are fatal (retrying cannot fix permissions).
    """
    if exc.errno in TRANSIENT_ERRNOS or exc.errno == errno.ENOENT:
        return "transient"
    return "fatal"


def classify_exception(exc: BaseException) -> str:
    """Map any exception onto the taxonomy: ``transient`` | ``fatal``
    (:class:`FatalError` and anything unrecognised are fatal)."""
    if isinstance(exc, TransientError):
        return "transient"
    if isinstance(exc, OSError):
        return classify_os_error(exc)
    return "fatal"


def log_tolerated(where: str, exc: BaseException) -> None:
    """One-line stderr note for a classified-and-absorbed failure."""
    print(f"  [resilience] {where}: tolerated {classify_exception(exc)} "
          f"{exc!r}", file=sys.stderr)


# ---------------------------------------------------------------------------
# orphaned-tmp cleanup
# ---------------------------------------------------------------------------

#: a tmp file younger than this may belong to a live writer; leave it
TMP_GRACE_S = 600.0


def clean_orphan_tmps(root: Path, recursive: bool = True,
                      now: float | None = None) -> int:
    """Remove ``*.tmp`` droppings left by a writer that died between its
    tmp write and the atomic rename.

    Both the artifact store and the sweep journal/cache write via
    ``tmp + os.replace``; a crash in the window strands the tmp file
    forever (a new writer picks a fresh pid-stamped name).  Called on
    startup by the store and the sweep driver.  Only files older than
    ``TMP_GRACE_S`` go: a fresh tmp may be another live process mid-write.
    Returns the number of files removed; errors while removing are
    tolerated (another janitor may have won the race).
    """
    if not root.is_dir():
        return 0
    now = time.time() if now is None else now
    removed = 0
    pattern = "**/*.tmp" if recursive else "*.tmp"
    for p in root.glob(pattern):
        try:
            if not p.is_file() or now - p.stat().st_mtime < TMP_GRACE_S:
                continue
            p.unlink()
            removed += 1
        except OSError as e:
            if classify_os_error(e) == "fatal":
                raise
    return removed
