"""Cluster load generator: latency percentiles and saturation curves.

Drives a live 3-node cluster (in-process nodes + router) two ways:

* **closed loop** — K workers each issue the next request the moment
  the previous reply lands, for K in a concurrency ladder.  Throughput
  vs. K is the classic saturation curve: it climbs while the fleet has
  idle capacity and flattens at the service ceiling, while latency
  rises with queueing.
* **open loop** — requests arrive on a fixed schedule (the arrival rate
  does not slow down when the service does), for a ladder of rates.
  Unlike the closed loop, this exposes queueing collapse: past the
  service ceiling, latency grows with the backlog instead of
  plateauing, and admission control starts shedding (counted, never
  silent).

The request mix is drawn deterministically (seeded RNG) from a small
config grid that is pre-warmed into the store shards, so the benchmark
measures the *service path* — routing, forwarding, store reads,
single-flight — rather than compilation cost.  Results (per-rung
p50/p95/p99, throughput, shed counts) land in
``results/BENCH_load.json``.

Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster_load.py -v
"""

import json
import random
import tempfile
import threading
import time
from pathlib import Path

from repro.cluster.launch import ThreadCluster
from repro.cluster.router import serve_router_background
from repro.experiments.sweep import default_cache_path
from repro.service.client import (
    ServiceClient,
    ServiceOverloaded,
    ServiceRequestError,
    ServiceUnavailable,
)

GRID_WORKLOADS = ("add", "sum", "dotprod")
GRID_LEVELS = (0, 4)
GRID_WIDTHS = (1, 8)

CLOSED_CONCURRENCY = (1, 2, 4, 8, 16)
CLOSED_REQUESTS_PER_WORKER = 25
OPEN_RATES = (50.0, 150.0, 400.0)
OPEN_DURATION_S = 2.0


def _percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"p50": None, "p95": None, "p99": None}
    s = sorted(samples)

    def pct(p: float) -> float:
        return round(s[min(len(s) - 1, int(p * len(s)))] * 1e3, 3)

    return {"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99)}


def _request(client: ServiceClient, cfg, latencies: list, sheds: list,
             errors: list) -> None:
    n, lv, wd = cfg
    t0 = time.perf_counter()
    for attempt in (1, 2):
        try:
            client.run(n, level=lv, width=wd, timeout=60.0)
        except ServiceOverloaded:
            sheds.append(1)
            return
        except ServiceUnavailable as e:
            # idempotent by key: one immediate retry absorbs a transient
            # connection reset; a second failure is a real error
            if attempt == 1:
                continue
            errors.append(str(e))
            return
        except ServiceRequestError as e:
            errors.append(str(e))
            return
        break
    latencies.append(time.perf_counter() - t0)


def _closed_loop(url: str, grid, workers: int, per_worker: int) -> dict:
    latencies: list[float] = []
    sheds: list[int] = []
    errors: list[str] = []
    lock = threading.Lock()

    def worker(wid: int) -> None:
        rng = random.Random(1000 + wid)
        client = ServiceClient(url, timeout=60.0, retry=None)
        mine: list[float] = []
        my_sheds: list[int] = []
        my_errors: list[str] = []
        for _ in range(per_worker):
            _request(client, rng.choice(grid), mine, my_sheds, my_errors)
        with lock:
            latencies.extend(mine)
            sheds.extend(my_sheds)
            errors.extend(my_errors)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(workers)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    done = len(latencies)
    return {
        "workers": workers,
        "requests": workers * per_worker,
        "completed": done,
        "shed": len(sheds),
        "errors": len(errors),
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(done / elapsed, 1) if elapsed else None,
        "latency_ms": _percentiles(latencies),
    }


def _open_loop(url: str, grid, rate_rps: float, duration_s: float) -> dict:
    """Fixed arrival schedule; every arrival gets its own thread so a
    slow reply cannot hold back the next arrival (true open loop)."""
    latencies: list[float] = []
    sheds: list[int] = []
    errors: list[str] = []
    lock = threading.Lock()
    rng = random.Random(int(rate_rps))
    client = ServiceClient(url, timeout=60.0, retry=None)

    def fire(cfg) -> None:
        mine: list[float] = []
        my_sheds: list[int] = []
        my_errors: list[str] = []
        _request(client, cfg, mine, my_sheds, my_errors)
        with lock:
            latencies.extend(mine)
            sheds.extend(my_sheds)
            errors.extend(my_errors)

    n = int(rate_rps * duration_s)
    interval = 1.0 / rate_rps
    threads = []
    t0 = time.perf_counter()
    for i in range(n):
        target = t0 + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        t = threading.Thread(target=fire, args=(rng.choice(grid),),
                             daemon=True)
        t.start()
        threads.append(t)
    for t in threads:
        t.join(timeout=60.0)
    elapsed = time.perf_counter() - t0
    done = len(latencies)
    return {
        "offered_rps": rate_rps,
        "requests": n,
        "completed": done,
        "shed": len(sheds),
        "errors": len(errors),
        "elapsed_s": round(elapsed, 3),
        "achieved_rps": round(done / elapsed, 1) if elapsed else None,
        "latency_ms": _percentiles(latencies),
    }


def test_cluster_load():
    grid = [(n, lv, wd) for n in GRID_WORKLOADS for lv in GRID_LEVELS
            for wd in GRID_WIDTHS]
    with tempfile.TemporaryDirectory() as tmp:
        with ThreadCluster(n=3, store_root=Path(tmp),
                           max_pending=256) as tc:
            httpd, router, url = serve_router_background(tc.urls)
            try:
                # pre-warm every key onto its home shard: the load test
                # then measures the service path, not compilation
                warm = ServiceClient(url, timeout=120.0, retry=None)
                for n, lv, wd in grid:
                    warm.run(n, level=lv, width=wd, timeout=60.0)

                closed = [_closed_loop(url, grid, k,
                                       CLOSED_REQUESTS_PER_WORKER)
                          for k in CLOSED_CONCURRENCY]
                opened = [_open_loop(url, grid, r, OPEN_DURATION_S)
                          for r in OPEN_RATES]
                counters = router.snapshot()
            finally:
                httpd.shutdown()

    out = default_cache_path().parent / "BENCH_load.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "cluster": {"nodes": 3, "router": True,
                    "grid_configs": len(grid), "prewarmed": True},
        "closed_loop": closed,
        "open_loop": opened,
        "router": counters,
    }, indent=2) + "\n")

    print()
    for row in closed:
        lat = row["latency_ms"]
        print(f"closed k={row['workers']:<3} {row['throughput_rps']:>7} rps  "
              f"p50={lat['p50']}ms p95={lat['p95']}ms p99={lat['p99']}ms  "
              f"shed={row['shed']}")
    for row in opened:
        lat = row["latency_ms"]
        print(f"open  λ={row['offered_rps']:<5} "
              f"{row['achieved_rps']:>7} rps  "
              f"p50={lat['p50']}ms p95={lat['p95']}ms p99={lat['p99']}ms  "
              f"shed={row['shed']}")
    print(f"-> {out}")

    # every request is accounted for: completed + shed + errors == sent
    for row in closed + opened:
        assert row["completed"] + row["shed"] + row["errors"] \
            == row["requests"], row
        assert row["errors"] == 0, row
    # pre-warmed keys through a healthy fleet: nothing may be unroutable
    assert counters["unroutable"] == 0
    # the ladder must reach a real service ceiling (all rungs GIL-share
    # one process here, so the curve is flat-ish — but never collapsed)
    peak = max(row["throughput_rps"] for row in closed)
    assert peak >= 50.0, f"cluster throughput collapsed: {peak} rps"
    assert all(row["latency_ms"]["p50"] is not None for row in closed)
