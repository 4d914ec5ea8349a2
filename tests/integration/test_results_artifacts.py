"""The committed artifacts in ``results/`` agree with each other.

``results/headroom.txt`` (written by a full ``repro headroom`` run) and
``results/BENCH_optsched.json`` (written by
``benchmarks/bench_optsched_headroom.py``) report the same 40-loop
experiment; a subset or stale table would contradict the benchmark.
``results/CHAOS_cluster_report.json`` must agree with its own grid and
checks.
"""

import json
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[2] / "results"
RULE = "-" * 78


def _headroom_table() -> tuple[list[list[str]], list[str]]:
    """(per-loop rows split into columns, summary lines)."""
    lines = (RESULTS / "headroom.txt").read_text().splitlines()
    top, bottom = [i for i, line in enumerate(lines) if line == RULE]
    return [line.split() for line in lines[top + 1:bottom]], lines[bottom + 1:]


def test_headroom_table_matches_bench_optsched():
    bench = json.loads((RESULTS / "BENCH_optsched.json").read_text())
    rows, summary = _headroom_table()
    loops = bench["loops"]
    assert len(rows) == len(loops) == 40
    for name, n, heur, opt, lb, status, mii, ii, acyc, mstatus in rows:
        loop = loops[name]
        assert (int(n), int(heur), int(opt), int(lb), status) == (
            loop["n_instrs"], loop["heuristic_makespan"],
            loop["optimal_makespan"], loop["proved_lb"], loop["status"]), name
        assert (int(mii), int(ii), int(acyc), mstatus) == (
            loop["mii"], loop["exact_ii"], loop["optimal_makespan"],
            loop["modulo_status"]), name

    assert (bench["proved_optimal"], bench["improved_blocks"],
            bench["pipelining_wins"]) == (37, 2, 14)
    assert summary[0].startswith(
        f"block scheduling: {bench['proved_optimal']}/40 loops proven "
        f"optimal, {bench['improved_blocks']} improved over the heuristic")
    assert summary[1].startswith(
        f"modulo scheduling: {bench['modulo_status_counts']['optimal']} "
        f"proven MII-optimal, {bench['pipelining_wins']} loops where "
        f"pipelining beats the best acyclic schedule")


def test_cluster_chaos_report_reconciles():
    """``repro chaos --cluster`` routes the first half of the grid, the
    second half, then the whole grid again, and its failover count is
    the one its own check predicted from the ring."""
    report = json.loads((RESULTS / "CHAOS_cluster_report.json").read_text())
    assert report["ok"]
    checks = {c["check"]: c for c in report["checks"]}
    assert len(checks) == 6
    assert all(c["ok"] and c["observed"] == c["expected"]
               for c in checks.values()), checks
    router = report["router"]
    assert router["failovers"] == checks[
        "router failovers exactly as ring-predicted"]["expected"]
    grid = report["grid"]
    configs = grid["configs"]
    assert configs == (len(grid["workloads"]) * len(grid["levels"])
                       * len(grid["widths"]))
    half = configs // 2
    assert router["routed"] == half + (configs - half) + configs
