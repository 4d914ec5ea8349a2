"""End-to-end tests of the compilation service: HTTP server + client SDK.

One in-process server (``serve_background``) backed by a real artifact
store serves the whole module; the tests drive it exclusively through
:class:`repro.service.client.ServiceClient` — the same path ``repro
submit`` and CI use — so the JSON wire format is pinned too.

The load-bearing property is the last class: results served over HTTP
must match the differential oracle (golden interpretation of the
unoptimized kernel) *exactly* — same scalars, same output-array bytes —
for kernels from the CI oracle set.  A cache layer that returned almost-
right numbers would be worse than none.
"""

import hashlib

import numpy as np
import pytest

from repro.check.refeval import reference_run
from repro.experiments.sweep import run_config
from repro.machine import MachineConfig
from repro.pipeline import Level
from repro.service.client import (
    ServiceClient,
    ServiceOverloaded,
    ServiceRequestError,
)
from repro.service.server import serve_background
from repro.workloads import get_workload

#: fast members of the differential-oracle CI subset (see ablation.py)
ORACLE_KERNELS = ("add", "sum", "dotprod")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    httpd, engine, url = serve_background(
        store_dir=tmp_path_factory.mktemp("store"),
        jobs=1,
        max_pending=8,
        default_timeout=120.0,
    )
    yield ServiceClient(url, timeout=120.0), engine
    httpd.shutdown()
    engine.close()


class TestEndpoints:
    def test_healthz(self, service):
        client, _ = service
        h = client.healthz()
        assert h["ok"] is True
        assert h["queue_depth"] >= 0

    def test_run_then_duplicate_is_store_hit(self, service):
        client, _ = service
        first = client.run("add", level=2, width=4)
        assert first["cache"] == "miss"
        r = first["result"]
        assert r["cycles"] > 0 and r["checked"] is True
        assert r["workload"] == "add" and r["level"] == 2 and r["width"] == 4
        again = client.run("add", level=2, width=4)
        assert again["cache"] == "hit"
        assert again["result"] == r  # byte-identical payload round-trip

    def test_compile_returns_scheduled_ir(self, service):
        client, _ = service
        r = client.compile("dotprod", level=4, width=8)["result"]
        assert r["kind"] == "compile"
        assert "MEM(" in r["ir"]  # scheduled inner-loop body, pretty-printed
        assert "cycles" not in r  # compile does not simulate
        assert r["unroll_factor"] >= 1

    def test_sweep_job_lifecycle(self, service):
        client, engine = service
        jid = client.sweep(["add"], levels=[0, 2], widths=[1, 8])
        rec = client.wait_job(jid, timeout=120.0)
        res = rec["result"]
        assert res["configs"] == 4 and len(res["results"]) == 4
        grid = [(r["workload"], r["level"], r["width"])
                for r in res["results"]]
        assert grid == sorted(grid)
        # level 0 at width 1 is the paper's baseline: slowest of the four
        cycles = {(r["level"], r["width"]): r["cycles"]
                  for r in res["results"]}
        assert cycles[(0, 1)] == max(cycles.values())
        assert engine.job(jid) is not None

    def test_batched_widths_share_one_compilation(self, service):
        """Two widths of one (workload, level) submitted back-to-back land
        in the same cell: one compilation, both results correct."""
        client, engine = service
        cells0 = engine.counters["batched_cells"]
        jid = client.sweep(["maxval"], levels=[4], widths=[1, 8])
        res = client.wait_job(jid, timeout=120.0)["result"]
        assert len(res["results"]) == 2
        assert engine.counters["batched_cells"] - cells0 == 1
        w1, w8 = res["results"]
        assert w1["cycles"] > w8["cycles"]  # wider issue must not be slower

    def test_unknown_workload_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client.run("no-such-kernel")
        assert ei.value.status == 400

    def test_bad_width_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client.run("add", width=3)
        assert ei.value.status == 400

    def test_lev5_run_matches_local_compilation(self, service):
        client, _ = service
        served = client.run("dotprod", level=5, width=8)["result"]
        local = run_config(get_workload("dotprod"), Level.LEV5,
                           MachineConfig(issue_width=8))
        assert served["level"] == 5
        assert served["cycles"] == local.cycles

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client.job("job-999999")
        assert ei.value.status == 404

    def test_unknown_route_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client._call("GET", "/v2/nope")
        assert ei.value.status == 404

    def test_oversized_sweep_is_shed_as_429(self, service):
        client, _ = service
        # 2 workloads x 6 levels x 4 widths = 48 configs > max_pending=8;
        # admission is atomic, so the whole sweep is shed up front
        with pytest.raises(ServiceOverloaded) as ei:
            client.sweep(["add", "sum"])
        assert ei.value.status == 429
        # shedding must not wedge the service
        assert client.healthz()["ok"] is True
        assert client.run("add", level=0, width=1)["result"]["cycles"] > 0

    def test_metrics_expose_the_service_counters(self, service):
        client, _ = service
        m = client.metrics()
        for field in ("requests", "hits", "misses", "shed", "batched_cells",
                      "queue_depth", "latency_p50_s", "latency_p95_s"):
            assert field in m
        assert m["hits"] >= 1          # the duplicate-run test above
        assert m["shed"] >= 1          # the oversized sweep above
        assert m["store"]["entries"] >= 1
        assert m["store"]["bytes"] > 0


class TestAdmissionLimit:
    def test_sweep_and_single_share_one_limit(self):
        """``max_pending`` bounds singles and sweeps alike: with no
        capacity, even a one-configuration sweep is shed."""
        httpd, engine, url = serve_background(jobs=1, max_pending=0)
        try:
            client = ServiceClient(url, retry=None)
            with pytest.raises(ServiceOverloaded) as ei:
                client.sweep(["add"], levels=[0], widths=[1])
            assert ei.value.status == 429
            assert ei.value.retry_after == 1.0
            with pytest.raises(ServiceOverloaded):
                client.run("add", level=0, width=1)
            assert client.metrics()["shed"] == 2
        finally:
            httpd.shutdown()
            engine.close()


class TestServedResultsMatchOracle:
    """Acceptance: served ``/v1/run`` results for the oracle kernels match
    the differential oracle (golden interpretation of the *unoptimized*
    kernel on the same inputs) exactly — scalar-for-scalar and
    byte-for-byte on every output array."""

    @pytest.mark.parametrize("name", ORACLE_KERNELS)
    def test_served_run_matches_golden_reference(self, service, name):
        client, _ = service
        served = client.run(name, level=4, width=8)["result"]

        w = get_workload(name)
        arrays, scalars = w.make_inputs(seed=0)
        ref_arrays, ref_scalars, _ = reference_run(w.build(), arrays, scalars)
        ref_digests = {
            k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
            for k, v in sorted(ref_arrays.items())
        }
        assert served["array_digests"] == ref_digests
        assert set(served["scalars"]) == set(ref_scalars)
        for k, ref in ref_scalars.items():
            assert served["scalars"][k] == ref  # exact, not approximate

    @pytest.mark.parametrize("name", ORACLE_KERNELS)
    def test_served_cycles_match_local_compilation(self, service, name):
        """The service is a cache, not a different compiler: cycle counts
        served over HTTP equal a local in-process compilation's."""
        client, _ = service
        served = client.run(name, level=4, width=8)["result"]
        local = run_config(w=get_workload(name), level=Level.LEV4,
                           machine=MachineConfig(issue_width=8))
        assert served["cycles"] == local.cycles
        assert served["instructions"] == local.instructions
        assert served["inner_makespan"] == local.inner_makespan
        assert (served["int_regs"], served["fp_regs"]) == (
            local.int_regs, local.fp_regs)
