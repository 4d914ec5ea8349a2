"""Failure-mode tests for the content-addressed artifact store.

A persistent cache layer is only safe if every way it can rot degrades
to a *miss* (recompute) rather than serving garbage: concurrent
writers (processes and threads), torn blobs, and code-version changes
are each pinned here.
"""

import hashlib
import json
import multiprocessing

import pytest

from repro.service.keys import request_key
from repro.service.store import ArtifactStore


def key_of(n: int) -> str:
    return hashlib.sha256(str(n).encode()).hexdigest()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get(self, store):
        k = key_of(1)
        store.put(k, {"cycles": 42, "t_passes": {"b": 1.0, "a": 2.0}})
        got = store.get(k)
        assert got == {"cycles": 42, "t_passes": {"b": 1.0, "a": 2.0}}
        # insertion order round-trips (ConfigResult.t_passes records
        # pass execution order)
        assert list(got["t_passes"]) == ["b", "a"]
        assert store.stats.hits == 1 and store.stats.puts == 1

    def test_absent_is_miss(self, store):
        assert store.get(key_of(2)) is None
        assert store.stats.misses == 1

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ValueError, match="malformed"):
            store.get("../../etc/passwd")
        with pytest.raises(ValueError, match="malformed"):
            store.put("abc", {})

    def test_real_request_keys_address_blobs(self, store):
        k = request_key("run", "add", 4, 8)
        store.put(k, {"cycles": 1})
        assert store.get(k) == {"cycles": 1}

    def test_reopen_sees_existing_blobs(self, tmp_path):
        a = ArtifactStore(tmp_path / "s")
        a.put(key_of(3), {"x": 1})
        b = ArtifactStore(tmp_path / "s")
        assert b.get(key_of(3)) == {"x": 1}
        assert len(b) == 1

    def test_len_and_total_bytes_scan_objects(self, store):
        paths = [store.put(key_of(i), {"i": i}) for i in range(40, 60)]
        assert len(store) == 20
        assert store.total_bytes() == sum(p.stat().st_size for p in paths)


class TestCorruptionTolerance:
    def _blob_path(self, store, key):
        return store._blob_path(key)

    def test_truncated_blob_is_miss_and_quarantined(self, store):
        k = key_of(4)
        p = store.put(k, {"cycles": 9})
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])  # torn mid-write
        assert store.get(k) is None
        assert store.stats.quarantined == 1
        assert not p.exists()  # moved aside, cannot poison later reads
        assert list((store.root / "quarantine").iterdir())
        # and a recompute can re-populate the same key
        store.put(k, {"cycles": 9})
        assert store.get(k) == {"cycles": 9}

    def test_garbage_bytes_are_miss(self, store):
        k = key_of(5)
        p = self._blob_path(store, k)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(b"\xfe\xffnot json")
        assert store.get(k) is None
        assert store.stats.quarantined == 1

    def test_wrong_key_envelope_is_miss(self, store):
        """A blob whose envelope names a different key (e.g. a file
        copied to the wrong path) must not be served."""
        k1, k2 = key_of(6), key_of(7)
        p1 = store.put(k1, {"v": 1})
        p2 = self._blob_path(store, k2)
        p2.parent.mkdir(parents=True, exist_ok=True)
        p2.write_bytes(p1.read_bytes())
        assert store.get(k2) is None
        assert store.get(k1) == {"v": 1}

    def test_missing_payload_field_is_miss(self, store):
        k = key_of(8)
        p = self._blob_path(store, k)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps({"salt": store.salt, "key": k}))
        assert store.get(k) is None

    def test_stray_index_file_is_ignored(self, tmp_path):
        """A store directory written by an older version carries an
        ``index.json`` (possibly torn); the handle keeps no index and
        neither reads nor needs it."""
        a = ArtifactStore(tmp_path / "s")
        a.put(key_of(9), {"v": 1})
        a.put(key_of(10), {"v": 2})
        (tmp_path / "s" / "index.json").write_text('{"entries": {zzz')
        b = ArtifactStore(tmp_path / "s")
        assert len(b) == 2
        assert b.get(key_of(9)) == {"v": 1}


class TestVersionSalt:
    def test_salt_mismatch_is_miss_and_invalidates(self, tmp_path):
        old = ArtifactStore(tmp_path / "s", salt="code-v1")
        k = key_of(11)
        p = old.put(k, {"cycles": 7})
        new = ArtifactStore(tmp_path / "s", salt="code-v2")
        assert new.get(k) is None
        assert new.stats.invalidated == 1
        assert not p.exists()  # stale blob deleted, not quarantined
        assert new.stats.quarantined == 0
        new.put(k, {"cycles": 8})
        assert new.get(k) == {"cycles": 8}

    def test_default_salt_is_code_version(self, store):
        from repro.service.keys import CODE_VERSION

        assert store.salt == CODE_VERSION


def _writer(root, key, tag, n):
    s = ArtifactStore(root)
    for i in range(n):
        s.put(key, {"tag": tag, "i": i, "cycles": 123})


class TestConcurrentWriters:
    def test_two_processes_same_key(self, tmp_path):
        """Two processes hammering the same key: atomic tmp+rename means a
        reader always sees one writer's complete blob, never a torn mix."""
        root = tmp_path / "s"
        ArtifactStore(root)  # create layout up front
        k = key_of(70)
        ctx = multiprocessing.get_context("fork")
        ps = [ctx.Process(target=_writer, args=(root, k, tag, 25))
              for tag in ("a", "b")]
        for p in ps:
            p.start()
        for p in ps:
            p.join()
        assert all(p.exitcode == 0 for p in ps)
        got = ArtifactStore(root).get(k)
        assert got is not None and got["cycles"] == 123
        assert got["tag"] in ("a", "b") and got["i"] == 24

    def test_concurrent_distinct_keys_all_readable(self, tmp_path):
        root = tmp_path / "s"
        ArtifactStore(root)
        ctx = multiprocessing.get_context("fork")
        ps = [ctx.Process(target=_writer, args=(root, key_of(80 + j), str(j), 5))
              for j in range(4)]
        for p in ps:
            p.start()
        for p in ps:
            p.join()
        reader = ArtifactStore(root)
        for j in range(4):
            got = reader.get(key_of(80 + j))
            assert got == {"tag": str(j), "i": 4, "cycles": 123}


class TestSharedHandleThreads:
    """One handle shared by many threads of a process (the job engine's
    loop, HTTP handler threads and cluster steal threads all use one)."""

    @staticmethod
    def _run_threads(n, target):
        import threading

        barrier = threading.Barrier(n)
        errors = []

        def run(t):
            barrier.wait()
            try:
                target(t)
            except BaseException as e:  # surfaced by the assert below
                errors.append(e)

        threads = [threading.Thread(target=run, args=(t,)) for t in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert errors == []

    def test_eight_threads_same_sixteen_keys(self, store):
        keys = [key_of(200 + i) for i in range(16)]

        def work(t):
            for i, k in enumerate(keys):
                store.put(k, {"i": i, "cycles": 123})
                assert store.get(k) == {"i": i, "cycles": 123}

        self._run_threads(8, work)
        assert store.stats.puts == 8 * 16
        assert store.stats.hits == 8 * 16
        assert store.stats.quarantined == 0
        for i, k in enumerate(keys):
            assert store.get(k) == {"i": i, "cycles": 123}
        assert not list(store.root.glob("**/*.tmp"))

    def test_concurrent_readers_quarantine_a_blob_once(self, store):
        k = key_of(220)
        p = store._blob_path(k)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(b"\xfe\xffnot json")

        self._run_threads(8, lambda t: store.get(k))
        assert store.stats.misses == 8
        assert store.stats.quarantined == 1
        assert len(list((store.root / "quarantine").iterdir())) == 1


class TestStoreResilience:
    """Classified write failures: retry, then degrade; never a wrong read."""

    def _armed(self, site, fires=1):
        from repro.resilience.faults import FaultPlan, FaultSite, armed

        return armed(FaultPlan(seed=0,
                               sites=(FaultSite(site, rate=1.0, fires=fires),)))

    def test_enospc_is_retried_and_the_put_lands(self, store):
        k = key_of(90)
        with self._armed("store.enospc"):
            assert store.put(k, {"v": 1}) is not None
        assert store.stats.put_retries == 1
        assert store.stats.put_failures == 0
        assert store.get(k) == {"v": 1}

    def test_eio_at_fsync_is_retried_and_the_put_lands(self, store):
        k = key_of(91)
        with self._armed("store.eio"):
            assert store.put(k, {"v": 2}) is not None
        assert store.stats.put_retries == 1
        assert store.get(k) == {"v": 2}

    def test_persistent_write_failure_degrades_instead_of_raising(self, store):
        # fires exceeds the put retry schedule: the put gives up quietly
        k = key_of(92)
        with self._armed("store.enospc", fires=99):
            assert store.put(k, {"v": 3}) is None
        assert store.stats.put_failures == 1
        assert store.get(k) is None          # a miss, not an error
        # no tmp droppings left behind by the failed attempts
        assert not list(store.root.glob("**/*.tmp"))

    def test_torn_write_is_detected_quarantined_and_recomputable(self, store):
        k = key_of(93)
        with self._armed("store.torn_write"):
            store.put(k, {"v": 4, "pad": "x" * 256})
            assert store.get(k) is None      # torn: miss + quarantine
            assert store.stats.quarantined == 1
            # the "recompute" writes again: attempt 1 is past the fault
            store.put(k, {"v": 4, "pad": "x" * 256})
            assert store.get(k) == {"v": 4, "pad": "x" * 256}

    def test_fatal_write_error_raises(self, store, monkeypatch):
        import errno as _errno

        def denied(self, *a, **kw):
            raise OSError(_errno.EACCES, "permission denied")

        monkeypatch.setattr(ArtifactStore, "_write_blob", denied)
        with pytest.raises(OSError):
            store.put(key_of(94), {"v": 5})

    def test_orphaned_tmps_cleaned_on_open(self, tmp_path):
        import os as _os

        root = tmp_path / "store"
        objects = root / "objects" / "ab"
        objects.mkdir(parents=True)
        dead = objects / ".abcd-999.tmp"
        dead.write_text("torn half-write")
        old = 1.0
        _os.utime(dead, (old, old))
        fresh = objects / ".ef01-998.tmp"
        fresh.write_text("maybe live")
        s = ArtifactStore(root)
        assert s.stats.tmp_cleaned == 1
        assert not dead.exists()
        assert fresh.exists()
