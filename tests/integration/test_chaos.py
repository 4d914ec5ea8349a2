"""Chaos integration suite: injected faults must change *nothing* about
the results and every fault must be visible in a recovery counter.

Covers the supervised pool directly (crash/hang/flaky workers), the
chaos runner end-to-end per fault family (sweep + served batch compared
against fault-free baselines), graceful degradation (stale store serve
when saturated), and breaker quarantine surfacing as HTTP 503.
"""

import json

import pytest

from repro.resilience import faults, supervisor
from repro.resilience.chaos import load_plan, run_chaos
from repro.resilience.faults import FaultPlan, FaultSite
from repro.resilience.supervisor import (
    CellQuarantined,
    SupervisedPool,
    TaskFailed,
)

GRID = dict(workloads=("add", "sum"), levels=(0, 4), widths=(1, 8))


def _square(x):
    return x * x


# ---------------------------------------------------------------------------
# the supervised pool, in isolation
# ---------------------------------------------------------------------------


class TestSupervisedPool:
    def test_plain_tasks_complete(self):
        with SupervisedPool(2) as pool:
            futs = [pool.submit(_square, i, key=f"sq-{i}") for i in range(6)]
            assert [f.result(timeout=30) for f in futs] == [i * i
                                                            for i in range(6)]
            assert pool.counters["tasks_ok"] == 6
            assert pool.counters["redispatched"] == 0

    def test_killed_workers_are_replaced_and_tasks_redispatched(self):
        plan = FaultPlan(seed=0, sites=(FaultSite("worker.kill", rate=1.0),))
        with faults.armed(plan):
            with SupervisedPool(2) as pool:
                futs = [pool.submit(_square, i, key=f"k-{i}")
                        for i in range(4)]
                assert [f.result(timeout=60) for f in futs] == [0, 1, 4, 9]
                # every task's first attempt died; all recovered exactly once
                assert pool.counters["redispatched"] == 4
                assert pool.counters["worker_restarts"] >= 4

    def test_hung_workers_hit_the_deadline_and_recover(self):
        plan = FaultPlan(seed=0, sites=(
            FaultSite("worker.hang", rate=1.0, delay_s=60.0),))
        with faults.armed(plan):
            with SupervisedPool(2, deadline_s=0.5) as pool:
                futs = [pool.submit(_square, i, key=f"h-{i}")
                        for i in range(2)]
                assert [f.result(timeout=60) for f in futs] == [0, 1]
                assert pool.counters["deadline_kills"] == 2
                assert pool.counters["redispatched"] == 2

    def test_transient_errors_retry_in_place(self):
        plan = FaultPlan(seed=0, sites=(FaultSite("worker.error", rate=1.0),))
        with faults.armed(plan):
            with SupervisedPool(2) as pool:
                fut = pool.submit(_square, 5, key="t-5")
                assert fut.result(timeout=30) == 25
                assert pool.counters["retries"] == 1

    def test_fatal_errors_fail_the_task_without_retry(self):
        plan = FaultPlan(seed=0, sites=(
            FaultSite("worker.error", rate=1.0, fires=99, fatal=True),))
        with faults.armed(plan):
            with SupervisedPool(1) as pool:
                with pytest.raises(TaskFailed):
                    pool.submit(_square, 1, key="f-1").result(timeout=30)
                assert pool.counters["retries"] == 0
                assert pool.counters["tasks_failed"] == 1

    def test_breaker_quarantines_a_persistently_failing_cell(
            self, monkeypatch):
        monkeypatch.setattr(supervisor, "FAILURE_THRESHOLD", 2)
        monkeypatch.setattr(supervisor, "BREAKER_COOLDOWN_S", 3600.0)
        plan = FaultPlan(seed=0, sites=(
            FaultSite("worker.error", rate=1.0, fires=99, fatal=True),))
        with faults.armed(plan):
            with SupervisedPool(1) as pool:
                for i in range(2):
                    with pytest.raises(TaskFailed):
                        pool.submit(_square, i, key=f"b-{i}",
                                    cell=("bad", 0)).result(timeout=30)
                with pytest.raises(CellQuarantined):
                    pool.submit(_square, 9, key="b-9",
                                cell=("bad", 0)).result(timeout=30)
                assert pool.counters["quarantined"] == 1
                assert pool.breaker_states()["('bad', 0)"]["state"] == "open"
                # quarantine is per cell: an unrelated cell is still
                # dispatched (it fails in-task here — the plan selects
                # every key — but it is NOT fast-failed by the breaker)
                with pytest.raises(TaskFailed):
                    pool.submit(_square, 3, key="ok-3",
                                cell=("good", 0)).result(timeout=30)
                assert pool.counters["quarantined"] == 1


# ---------------------------------------------------------------------------
# the chaos runner: byte-identical results + full accounting per family
# ---------------------------------------------------------------------------


def _chaos(plan, tmp_path, serve=False, **kw):
    report = run_chaos(plan, jobs=2, workdir=tmp_path / "chaos",
                       out=tmp_path / "report.json", serve=serve,
                       verbose=False, **GRID, **kw)
    # every check must hold, not just the aggregate flag
    bad = [c for c in report["checks"] if not c["ok"]]
    assert not bad, f"unaccounted faults: {bad}"
    assert report["ok"]
    # the report artifact is written and loadable
    assert json.loads((tmp_path / "report.json").read_text())["ok"]
    return report


class TestChaosRunner:
    def test_worker_kills_leave_results_identical(self, tmp_path):
        r = _chaos("kill", tmp_path)
        assert r["sweep"]["identical"]
        assert r["sweep"]["resilience"]["redispatched"] >= 1

    def test_torn_writes_are_quarantined_not_served(self, tmp_path):
        r = _chaos("torn", tmp_path)
        assert r["sweep"]["identical"]
        assert r["sweep"]["injected"].get("store.torn_write", 0) >= 1

    def test_store_write_errors_retry_and_land(self, tmp_path):
        r = _chaos("enospc", tmp_path)
        assert r["sweep"]["identical"]
        assert r["sweep"]["store"]["put_retries"] >= 1
        assert r["sweep"]["store"]["put_failures"] == 0

    def test_hung_workers_recover_via_deadline_kills(self, tmp_path):
        r = _chaos("hang", tmp_path)
        assert r["sweep"]["identical"]
        assert r["sweep"]["resilience"]["deadline_kills"] >= 1

    def test_dropped_responses_are_retried_by_the_client(self, tmp_path):
        r = _chaos("drop", tmp_path, serve=True)
        assert r["serve"]["identical"]
        assert r["serve"]["injected"].get("server.drop_response", 0) >= 1
        assert (r["serve"]["client_retries"]
                >= r["serve"]["injected"]["server.drop_response"])

    def test_everything_at_once(self, tmp_path):
        r = _chaos("all", tmp_path, serve=True)
        assert r["sweep"]["identical"] and r["serve"]["identical"]
        injected = dict(r["sweep"]["injected"])
        for site, n in r["serve"]["injected"].items():
            injected[site] = injected.get(site, 0) + n
        assert sum(injected.values()) >= 3


# ---------------------------------------------------------------------------
# sweep-level failure semantics
# ---------------------------------------------------------------------------


class TestSweepFailureSemantics:
    def _run_failing_grid(self):
        """Sweep a grid whose every cell fails permanently; return the
        :class:`SweepError` the sweep raises once the grid finishes."""
        from repro.experiments.sweep import SweepError, run_sweep
        from repro.workloads import get_workload

        plan = FaultPlan(seed=0, sites=(
            FaultSite("worker.error", rate=1.0, fires=99, fatal=True),))
        with faults.armed(plan):
            with pytest.raises(SweepError) as ei:
                run_sweep([get_workload("add")], levels=(0, 4),
                          widths=(1,), jobs=2)
        return ei.value

    def test_strict_sweep_raises_on_permanent_cell_failure(self):
        err = self._run_failing_grid()
        assert "failed" in str(err)

    def test_lenient_sweep_records_failures_and_continues(self):
        """The sweep runs past the first failed cell to the end of the
        grid; the error carries the partial result with every failed
        cell recorded."""
        data = self._run_failing_grid().data
        assert len(data.failed) == 2            # both (add, level) cells
        assert data.results == {}
        assert data.resilience["tasks_failed"] == 2


# ---------------------------------------------------------------------------
# graceful degradation + quarantine over HTTP
# ---------------------------------------------------------------------------


class TestServiceDegradation:
    def test_saturated_server_serves_stale_from_store(self, tmp_path):
        from repro.service.client import ServiceClient, ServiceOverloaded
        from repro.service.server import serve_background

        store = tmp_path / "store"
        # 1: populate the store through a healthy server
        httpd, engine, url = serve_background(store_dir=store, jobs=1)
        try:
            ServiceClient(url).run("add", level=0, width=1)
        finally:
            httpd.shutdown()
            engine.close()
        # 2: a saturated server (zero admission capacity) must degrade to
        # the stored result rather than shed it...
        httpd, engine, url = serve_background(store_dir=store, jobs=1,
                                              max_pending=0)
        try:
            client = ServiceClient(url, retry=None)
            reply = client.run("add", level=0, width=1)
            assert reply["degraded"] is True
            assert reply["cache"] == "degraded"
            assert reply["result"]["cycles"] > 0
            # ...while an uncached configuration still sheds honestly
            with pytest.raises(ServiceOverloaded):
                client.run("add", level=4, width=8)
            m = client.metrics()
            assert m["resilience"]["degraded_serves"] == 1
            assert m["shed"] >= 1
        finally:
            httpd.shutdown()
            engine.close()

    def test_quarantined_cell_surfaces_as_503(self, tmp_path):
        from repro.service.client import ServiceClient, ServiceRequestError
        from repro.service.server import serve_background

        plan = FaultPlan(seed=0, sites=(
            FaultSite("worker.error", rate=1.0, fires=99, fatal=True),))
        with faults.armed(plan):
            httpd, engine, url = serve_background(jobs=1)
        try:
            client = ServiceClient(url, retry=None)
            # drive the (add, 0) cell to its breaker threshold
            for _ in range(5):
                with pytest.raises(ServiceRequestError) as ei:
                    client.run("add", level=0, width=1)
                assert ei.value.status == 500
            with pytest.raises(ServiceRequestError) as ei:
                client.run("add", level=0, width=1)
            assert ei.value.status == 503
            # /healthz exposes the open breaker and live worker state
            h = client.healthz()
            assert h["ok"] is True
            assert any(b["state"] == "open"
                       for b in h["pool"]["breakers"].values())
            assert all(w["alive"] for w in h["pool"]["workers"])
            m = client.metrics()
            assert m["resilience"]["quarantined"] >= 1
            assert m["resilience"]["breaker_trips"] >= 1
        finally:
            httpd.shutdown()
            engine.close()


# ---------------------------------------------------------------------------
# cluster node-kill: a whole node dies, the fleet's answers don't change
# ---------------------------------------------------------------------------


class TestClusterChaos:
    def test_node_kill_reconciles_exactly(self, tmp_path):
        """SIGKILL a whole node (engine + fork pool + store shard)
        mid-batch: every request is served byte-identically to a
        fault-free single-node baseline, the router's failovers match
        the ring's prediction exactly, and the victim's lost artifacts
        are recomputed exactly once each."""
        from repro.cluster.chaos import run_cluster_chaos

        report = run_cluster_chaos(
            nodes=3, jobs=1,
            workloads=("add", "sum"), levels=(0, 4), widths=(1, 8),
            workdir=tmp_path, out=tmp_path / "report.json", verbose=False)
        assert report["ok"], report["checks"]
        # the kill must have actually disturbed the batch: the victim
        # owned second-half keys, so failovers are inevitable
        assert report["router"]["failovers"] > 0
        assert report["victim_owned"]["second_half"] > 0
        assert (tmp_path / "report.json").exists()
        assert json.loads(
            (tmp_path / "report.json").read_text())["ok"] is True
