"""``repro chaos --cluster``: SIGKILL a whole node mid-batch and prove
the fleet's answers don't change.

The single-node chaos suite (:mod:`repro.resilience.chaos`) injects
faults *inside* one service; this mode removes an entire node — engine,
fork pool, and store shard — with ``SIGKILL`` (no shutdown hooks, no
flushes) while a batch is in flight, and requires **exact
reconciliation**: every request is served byte-identically to a
fault-free single-node baseline, and every deviation from the smooth
path is accounted for by a counter that was *predicted in advance* from
the consistent-hash ring:

* phase 1 — first half of the grid through the router, all nodes up;
* kill — the victim is chosen as the node owning the most second-half
  keys (so the kill is guaranteed to matter), then SIGKILLed;
* phase 2 — second half through the router: requests for victim-owned
  keys must fail over along the ring's preference order, exactly
  ``victim_owned(second_half)`` times;
* phase 3 — the *entire* grid re-requested: victim-owned keys from
  phase 1 lost their artifacts with the victim's shard and must be
  recomputed (a counted miss); every other key must be a cache hit.

The reconciliation fails if results differ anywhere, if the router's
failover counter deviates from the ring prediction, if a lost artifact
is recomputed more or fewer times than predicted, or if any surviving
engine logged an error.  Report: ``results/CHAOS_cluster_report.json``.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..resilience.chaos import (
    DEFAULT_LEVELS,
    DEFAULT_WIDTHS,
    DEFAULT_WORKLOADS,
    _run_serve,
    check_row,
    finish_report,
    identity_check,
)
from ..service.client import ServiceClient
from ..service.keys import request_key, workload_fingerprint
from .launch import ProcessCluster
from .ring import HashRing
from .router import serve_router_background


def _grid(workloads, levels, widths) -> list[tuple[str, int, int]]:
    return [(n, int(lv), int(wd))
            for n in workloads for lv in levels for wd in widths]


def _cfg_key(cfg: tuple[str, int, int], fps: dict) -> str:
    n, lv, wd = cfg
    return request_key("run", n, lv, wd, seed=0, check=True, check_ir=False,
                       disable=(), fingerprint=fps[n])


def run_cluster_chaos(*, nodes: int = 3, jobs: int = 1,
                      workloads=DEFAULT_WORKLOADS, levels=DEFAULT_LEVELS,
                      widths=DEFAULT_WIDTHS, workdir: Path | None = None,
                      out: Path | None = None, verbose: bool = True) -> dict:
    """Kill a node mid-batch; reconcile exactly.  Returns the report."""
    import tempfile

    t0 = time.monotonic()
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="repro-cluster-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)

    grid = _grid(workloads, levels, widths)
    half = len(grid) // 2
    first, second = grid[:half], grid[half:]
    fps = {n: workload_fingerprint(n) for n in workloads}
    keys = {cfg: _cfg_key(cfg, fps) for cfg in grid}

    if verbose:
        print(f"cluster chaos: {len(grid)} configs over {nodes} nodes, "
              f"kill after {half} ({workdir})")
        print("cluster chaos: fault-free single-node baseline...")
    base, _, _ = _run_serve(workloads, levels, widths, jobs,
                            workdir / "baseline" / "store",
                            pool_deadline_s=120.0)

    cluster = ProcessCluster(n=nodes, store_root=workdir / "cluster",
                             jobs=jobs).start()
    router_httpd = None
    try:
        router_httpd, router, router_url = serve_router_background(
            cluster.urls)
        # predict the failure accounting BEFORE any request flows: the
        # ring is deterministic, so ownership — and therefore which
        # requests a dead node can disturb — is known in advance
        ring = HashRing(cluster.urls)
        owner = {cfg: ring.node_for(keys[cfg]) for cfg in grid}
        victim = max(cluster.urls,
                     key=lambda u: (sum(1 for c in second if owner[c] == u),
                                    u))
        victim_first = [c for c in first if owner[c] == victim]
        victim_second = [c for c in second if owner[c] == victim]
        predicted_failovers = len(victim_second) + sum(
            1 for c in grid if owner[c] == victim)
        if verbose:
            print(f"cluster chaos: victim {victim} owns "
                  f"{len(victim_first)}+{len(victim_second)} of "
                  f"{half}+{len(second)} keys")

        client = ServiceClient(router_url, timeout=120.0, retry=None)

        def run_cfg(cfg):
            n, lv, wd = cfg
            return client.run(n, level=lv, width=wd, timeout=60.0)

        got: dict[str, dict] = {}
        for cfg in first:
            got[f"{cfg[0]}/L{cfg[1]}/w{cfg[2]}"] = run_cfg(cfg)["result"]

        if verbose:
            print(f"cluster chaos: SIGKILL {victim} mid-batch...")
        cluster.kill(victim)

        for cfg in second:
            got[f"{cfg[0]}/L{cfg[1]}/w{cfg[2]}"] = run_cfg(cfg)["result"]

        # phase 3: every artifact must still be servable — the victim's
        # shard died with it, so exactly its phase-1 keys recompute
        got3: dict[str, dict] = {}
        misses = 0
        for cfg in grid:
            r = run_cfg(cfg)
            got3[f"{cfg[0]}/L{cfg[1]}/w{cfg[2]}"] = r["result"]
            if r.get("cache") != "hit":
                misses += 1

        survivors = [u for u in cluster.urls if u != victim]
        survivor_errors = 0
        for u in survivors:
            m = ServiceClient(u, retry=None).metrics()
            survivor_errors += int(m.get("errors", 0))
        counters = router.snapshot()
    finally:
        if router_httpd is not None:
            router_httpd.shutdown()
        cluster.stop()

    checks = [
        identity_check("batch served byte-identically across the kill",
                       base, got),
        identity_check("post-kill re-request byte-identical", base, got3),
        check_row("router failovers exactly as ring-predicted",
                  predicted_failovers, counters["failovers"]),
        check_row("lost artifacts recomputed exactly once each",
                  len(victim_first), misses),
        check_row("no unroutable requests", 0, counters["unroutable"]),
        check_row("surviving engines logged zero errors", 0,
                  survivor_errors),
    ]
    report = {
        "mode": "cluster",
        "grid": {"workloads": list(workloads), "levels": list(levels),
                 "widths": list(widths), "configs": len(grid)},
        "nodes": nodes,
        "victim": victim,
        "victim_owned": {"first_half": len(victim_first),
                         "second_half": len(victim_second)},
        "router": counters,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "elapsed_s": round(time.monotonic() - t0, 2),
    }
    return finish_report(report, out, "cluster chaos", verbose)
