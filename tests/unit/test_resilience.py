"""Unit tests for the resilience layer: retry schedule, circuit
breaker, error taxonomy, fault-plan determinism, the chaos CLI,
tmp-file janitor, pool-worker lifetime.

Everything time-dependent runs on a fake clock / injected sleep; the
one exception is the worker-lifetime test, which kills a real process
and polls (with a generous deadline) for its pool workers to exit.
"""

import errno
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.resilience.errors import (
    FatalError,
    TransientError,
    classify_exception,
    classify_os_error,
    clean_orphan_tmps,
)
from repro.resilience.faults import ARMED, FaultPlan, FaultSite, armed
from repro.resilience import faults as faults_mod
from repro.resilience.retry import RetryPolicy, RetryState, retry_call
from repro.resilience.supervisor import CircuitBreaker


# ---------------------------------------------------------------------------
# retry policy / backoff schedule
# ---------------------------------------------------------------------------


class TestRetrySchedule:
    def test_backoff_doubles_then_caps(self):
        p = RetryPolicy(base_s=0.1, cap_s=0.5)
        assert p.max_delay(0) == pytest.approx(0.1)
        assert p.max_delay(1) == pytest.approx(0.2)
        assert p.max_delay(2) == pytest.approx(0.4)
        assert p.max_delay(3) == pytest.approx(0.5)   # capped
        assert p.max_delay(10) == pytest.approx(0.5)

    def test_full_jitter_stays_inside_the_window(self):
        p = RetryPolicy(base_s=0.1, cap_s=2.0)
        rng = random.Random(42)
        for attempt in range(6):
            for _ in range(50):
                d = p.delay(attempt, rng)
                assert 0.0 <= d <= p.max_delay(attempt)

    def test_jitter_actually_varies(self):
        p = RetryPolicy(base_s=1.0, cap_s=8.0)
        rng = random.Random(7)
        assert len({p.delay(3, rng) for _ in range(10)}) > 1

    def test_attempt_cap_exhausts_the_schedule(self):
        st = RetryState(RetryPolicy(max_attempts=3, budget_s=1e9),
                        rng=random.Random(0))
        assert st.next_delay() is not None
        assert st.next_delay() is not None
        assert st.next_delay() is None   # 3 total tries = 2 retries

    def test_budget_exhaustion_beats_the_attempt_cap(self):
        # retry_after charges the budget directly, making it deterministic
        st = RetryState(RetryPolicy(max_attempts=100, budget_s=5.0),
                        rng=random.Random(0))
        assert st.next_delay(retry_after=4.0) == pytest.approx(4.0)
        assert st.next_delay(retry_after=2.0) is None   # 4 + 2 > 5
        assert st.slept_s == pytest.approx(4.0)

    def test_retry_after_overrides_the_computed_backoff(self):
        st = RetryState(RetryPolicy(base_s=0.01, budget_s=100.0),
                        rng=random.Random(0))
        assert st.next_delay(retry_after=7.5) == pytest.approx(7.5)

    def test_retry_call_retries_transient_until_success(self):
        calls, slept = [], []
        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("not yet")
            return "done"
        out = retry_call(flaky, policy=RetryPolicy(max_attempts=5),
                         rng=random.Random(0), sleep=slept.append)
        assert out == "done"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_retry_call_raises_fatal_immediately(self):
        calls = []
        def broken():
            calls.append(1)
            raise FatalError("no")
        with pytest.raises(FatalError):
            retry_call(broken, sleep=lambda s: None)
        assert len(calls) == 1

    def test_retry_call_reraises_after_exhaustion(self):
        def always():
            raise TransientError("still down")
        with pytest.raises(TransientError):
            retry_call(always, policy=RetryPolicy(max_attempts=3),
                       rng=random.Random(0), sleep=lambda s: None)

    def test_retry_call_reports_each_retry(self):
        seen = []
        def flaky():
            if len(seen) < 2:
                raise OSError(errno.EIO, "flaky disk")
            return 1
        retry_call(flaky, rng=random.Random(0), sleep=lambda s: None,
                   on_retry=lambda a, d, e: seen.append((a, e.errno)))
        assert [e for _, e in seen] == [errno.EIO, errno.EIO]


# ---------------------------------------------------------------------------
# circuit breaker (fake clock)
# ---------------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def _breaker(self, threshold=3, cooldown=10.0):
        clock = _Clock()
        return CircuitBreaker(failure_threshold=threshold,
                              cooldown_s=cooldown, clock=clock), clock

    def test_closed_allows(self):
        b, _ = self._breaker()
        assert b.state == "closed" and b.allow()

    def test_opens_after_consecutive_failures(self):
        b, _ = self._breaker(threshold=3)
        b.record_failure(); b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open" and b.trips == 1
        assert not b.allow()

    def test_success_resets_the_failure_streak(self):
        b, _ = self._breaker(threshold=3)
        b.record_failure(); b.record_failure()
        b.record_success()
        b.record_failure(); b.record_failure()
        assert b.state == "closed"   # streak broken: 2 + 2, never 3

    def test_half_open_grants_exactly_one_probe(self):
        b, clock = self._breaker(threshold=1, cooldown=10.0)
        b.record_failure()
        assert not b.allow()
        clock.t = 10.0
        assert b.allow()             # the probe
        assert b.state == "half_open"
        assert not b.allow()         # probe already out

    def test_successful_probe_closes(self):
        b, clock = self._breaker(threshold=1, cooldown=5.0)
        b.record_failure()
        clock.t = 5.0
        assert b.allow()
        b.record_success()
        assert b.state == "closed" and b.allow()

    def test_failed_probe_reopens_and_restarts_the_cooldown(self):
        b, clock = self._breaker(threshold=1, cooldown=5.0)
        b.record_failure()
        clock.t = 5.0
        assert b.allow()
        b.record_failure()
        assert b.state == "open" and b.trips == 2
        clock.t = 9.0
        assert not b.allow()         # new cooldown runs from t=5
        clock.t = 10.0
        assert b.allow()


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


class TestTaxonomy:
    @pytest.mark.parametrize("eno", [errno.ENOSPC, errno.EIO, errno.EAGAIN,
                                     errno.EBUSY, errno.ECONNRESET])
    def test_transient_errnos(self, eno):
        assert classify_os_error(OSError(eno, "x")) == "transient"

    def test_enoent_is_transient_for_cleanup_paths(self):
        assert classify_os_error(OSError(errno.ENOENT, "gone")) == "transient"

    @pytest.mark.parametrize("eno", [errno.EACCES, errno.EPERM, errno.EROFS])
    def test_permission_problems_are_fatal(self, eno):
        assert classify_os_error(OSError(eno, "x")) == "fatal"

    def test_exception_classes_map_onto_the_taxonomy(self):
        assert classify_exception(TransientError()) == "transient"
        assert classify_exception(FatalError()) == "fatal"
        assert classify_exception(ValueError("bug")) == "fatal"
        assert classify_exception(OSError(errno.EIO, "x")) == "transient"


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rate_one_selects_every_key(self):
        p = FaultPlan(seed=0, sites=(FaultSite("worker.kill", rate=1.0),))
        assert all(p.count_for("worker.kill", f"k{i}") == 1
                   for i in range(20))

    def test_rate_zero_selects_nothing(self):
        p = FaultPlan(seed=0, sites=(FaultSite("worker.kill", rate=0.0),))
        assert all(p.count_for("worker.kill", f"k{i}") == 0
                   for i in range(20))

    def test_selection_is_deterministic_across_instances(self):
        a = FaultPlan(seed=3, sites=(FaultSite("store.eio", rate=0.5),))
        b = FaultPlan(seed=3, sites=(FaultSite("store.eio", rate=0.5),))
        keys = [f"key-{i}" for i in range(64)]
        assert ([a.count_for("store.eio", k) for k in keys]
                == [b.count_for("store.eio", k) for k in keys])

    def test_different_seeds_select_different_keys(self):
        keys = [f"key-{i}" for i in range(128)]
        picks = []
        for seed in (0, 1):
            p = FaultPlan(seed=seed,
                          sites=(FaultSite("store.eio", rate=0.5),))
            picks.append([p.count_for("store.eio", k) for k in keys])
        assert picks[0] != picks[1]

    def test_rate_half_selects_roughly_half(self):
        p = FaultPlan(seed=0, sites=(FaultSite("store.eio", rate=0.5),))
        n = sum(p.count_for("store.eio", f"key-{i}") for i in range(400))
        assert 140 <= n <= 260

    def test_attempt_gating_fires_then_runs_clean(self):
        p = FaultPlan(seed=0,
                      sites=(FaultSite("worker.kill", rate=1.0, fires=2),))
        assert p.fire("worker.kill", "k", attempt=0) is not None
        assert p.fire("worker.kill", "k", attempt=1) is not None
        assert p.fire("worker.kill", "k", attempt=2) is None

    def test_fire_records_injections(self):
        p = FaultPlan(seed=0, sites=(FaultSite("store.enospc", rate=1.0),))
        p.fire("store.enospc", "a")
        p.fire("store.enospc", "b")
        p.fire("store.enospc", "b", attempt=1)   # gated off: not counted
        assert p.injected["store.enospc"] == 2

    def test_unarmed_site_never_fires(self):
        p = FaultPlan(seed=0, sites=(FaultSite("worker.kill", rate=1.0),))
        assert p.fire("store.eio", "k") is None

    def test_json_round_trip(self):
        p = FaultPlan(seed=9, sites=(
            FaultSite("worker.hang", rate=0.25, fires=2, delay_s=3.0),
            FaultSite("store.torn_write", rate=0.5),
        ))
        q = FaultPlan.from_json(p.to_json())
        assert q.seed == 9 and q.sites == p.sites

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultSite("worker.typo")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultSite("worker.kill", rate=1.5)

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(sites=(FaultSite("worker.kill"),
                             FaultSite("worker.kill")))

    def test_armed_context_restores_previous_plan(self):
        assert faults_mod.ARMED is None
        p = FaultPlan(seed=0, sites=())
        with armed(p):
            assert faults_mod.ARMED is p
        assert faults_mod.ARMED is None

    def test_next_seq_counts_per_site(self):
        p = FaultPlan(seed=0, sites=())
        assert p.next_seq("server.drop_response") == "#0"
        assert p.next_seq("server.drop_response") == "#1"
        assert p.next_seq("server.delay_response") == "#0"


# ---------------------------------------------------------------------------
# the chaos CLI
# ---------------------------------------------------------------------------


class TestChaosCli:
    @pytest.mark.parametrize("flags", [["--plan", "kill"], ["--seed", "0"],
                                       ["--no-serve"]])
    def test_cluster_rejects_flags_it_would_ignore(self, flags, capsys,
                                                   monkeypatch):
        import repro.cluster.chaos as cluster_chaos
        from repro.resilience.chaos import main

        def never(**kw):
            raise AssertionError("--cluster ran despite ignored flags")

        monkeypatch.setattr(cluster_chaos, "run_cluster_chaos", never)
        with pytest.raises(SystemExit) as ei:
            main(["--cluster", *flags])
        assert ei.value.code == 2
        assert flags[0] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# orphaned-tmp janitor
# ---------------------------------------------------------------------------


class TestCleanOrphanTmps:
    def _plant(self, path, age_s, now=1_000_000.0):
        path.write_text("partial write")
        os.utime(path, (now - age_s, now - age_s))

    def test_removes_old_keeps_fresh_and_non_tmp(self, tmp_path):
        now = 1_000_000.0
        self._plant(tmp_path / "dead.tmp", age_s=3600, now=now)
        self._plant(tmp_path / ".hidden-123.tmp", age_s=3600, now=now)
        self._plant(tmp_path / "live.tmp", age_s=5, now=now)
        self._plant(tmp_path / "data.json", age_s=3600, now=now)
        removed = clean_orphan_tmps(tmp_path, now=now)
        assert removed == 2
        assert not (tmp_path / "dead.tmp").exists()
        assert not (tmp_path / ".hidden-123.tmp").exists()
        assert (tmp_path / "live.tmp").exists()
        assert (tmp_path / "data.json").exists()

    def test_recursive_reaches_subdirectories(self, tmp_path):
        now = 1_000_000.0
        sub = tmp_path / "objects" / "ab"
        sub.mkdir(parents=True)
        self._plant(sub / "deep.tmp", age_s=3600, now=now)
        assert clean_orphan_tmps(tmp_path, now=now) == 1
        assert not (sub / "deep.tmp").exists()

    def test_non_recursive_stays_shallow(self, tmp_path):
        now = 1_000_000.0
        sub = tmp_path / "sub"
        sub.mkdir()
        self._plant(sub / "deep.tmp", age_s=3600, now=now)
        assert clean_orphan_tmps(tmp_path, recursive=False, now=now) == 0
        assert (sub / "deep.tmp").exists()

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert clean_orphan_tmps(tmp_path / "nope") == 0


# ---------------------------------------------------------------------------
# pool workers do not outlive their parent
# ---------------------------------------------------------------------------

_POOL_OWNER = """
import time
from repro.resilience.supervisor import SupervisedPool
pool = SupervisedPool(2)
print(*(w["pid"] for w in pool.status()["workers"]), flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
def test_pool_workers_exit_when_their_owner_is_terminated():
    """SIGTERM skips every cleanup hook of the pool's owner; its forked
    workers must still notice the loss of their parent and exit."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    owner = subprocess.Popen([sys.executable, "-c", _POOL_OWNER], env=env,
                             stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(p) for p in owner.stdout.readline().split()]
        assert len(pids) == 2
        owner.send_signal(signal.SIGTERM)
        owner.wait(timeout=10)
        deadline = time.monotonic() + 30.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [p for p in pids if _running(p)]
        for p in survivors:  # do not leak them past a failing run
            os.kill(p, signal.SIGKILL)
        assert survivors == [], f"orphaned pool workers: {survivors}"
    finally:
        if owner.poll() is None:
            owner.kill()
            owner.wait()
