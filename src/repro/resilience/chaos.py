"""The ``repro chaos`` runner: prove the stack recovers from injected
faults without changing a single result.

A chaos run executes the same small grid twice per surface:

1. **Sweep**: a fault-free baseline sweep, then the identical sweep
   under an armed :class:`~repro.resilience.faults.FaultPlan` with the
   supervised pool and a fresh artifact store.  The result grids must
   match exactly (wall-clock timing fields excluded — everything the
   paper's figures consume is compared).
2. **Serve** (unless ``--no-serve``): the same comparison through the
   full HTTP service — a fault-free served batch vs. one against a
   server whose workers, store, and response path are armed, consumed
   by a :class:`~repro.service.client.ServiceClient` retrying under the
   shared policy.

Because fault decisions are pure functions of ``(seed, site, key)``
(:meth:`FaultPlan.count_for`), the runner *predicts* every injection
independently and reconciles the predictions against the recovery
counters (re-dispatches, retries, deadline kills, store put-retries,
quarantined blobs, client transport retries).  A fault that fired but
was not visibly recovered — or a recovery with no matching fault —
fails the run.  The reconciliation is written to
``results/CHAOS_report.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..pipeline import Level
from ..workloads import get_workload
from . import faults
from .faults import FaultPlan, FaultSite

#: small but level-diverse default grid: scalar reduction, DOALL, dotprod
DEFAULT_WORKLOADS = ("add", "sum", "dotprod")
DEFAULT_LEVELS = (0, 4)
DEFAULT_WIDTHS = (1, 8)

#: timing fields are wall-clock and legitimately differ between runs;
#: everything else in a result must be byte-identical under faults
TIMING_FIELDS = ("t_compile", "t_schedule", "t_simulate", "t_passes")

BUILTIN_PLANS = {
    "kill":   ((("worker.kill", 0.5, 1, 0.0, False),),
               "SIGKILL workers mid-task"),
    "hang":   ((("worker.hang", 0.5, 1, 60.0, False),),
               "hang workers past the deadline"),
    "flaky":  ((("worker.error", 0.5, 1, 0.0, False),),
               "transient in-task exceptions"),
    "torn":   ((("store.torn_write", 0.5, 1, 0.0, False),),
               "truncate artifact blobs mid-write"),
    "enospc": ((("store.enospc", 0.5, 1, 0.0, False),
                ("store.eio", 0.3, 1, 0.0, False)),
               "ENOSPC at blob write, EIO at fsync"),
    "drop":   ((("server.drop_response", 0.25, 1, 0.0, False),),
               "close HTTP connections without replying"),
    "delay":  ((("server.delay_response", 0.4, 1, 0.02, False),),
               "delay HTTP responses"),
    "all":    ((("worker.kill", 0.2, 1, 0.0, False),
                ("worker.error", 0.25, 1, 0.0, False),
                ("store.torn_write", 0.25, 1, 0.0, False),
                ("store.enospc", 0.2, 1, 0.0, False),
                ("server.drop_response", 0.15, 1, 0.0, False),
                ("server.delay_response", 0.1, 1, 0.01, False)),
               "everything at once (reduced rates)"),
}


def load_plan(spec: str, seed: int = 0) -> FaultPlan:
    """A builtin plan name, or a path to a FaultPlan JSON file."""
    entry = BUILTIN_PLANS.get(spec)
    if entry is not None:
        sites = tuple(FaultSite(site, rate, fires, delay_s, fatal)
                      for site, rate, fires, delay_s, fatal in entry[0])
        return FaultPlan(seed=seed, sites=sites)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(
            f"unknown plan {spec!r}: not a builtin "
            f"({', '.join(BUILTIN_PLANS)}) and no such file")
    return FaultPlan.from_file(path)


# ---------------------------------------------------------------------------
# key prediction (mirrors sweep.py task sharding / jobs.py cell keys)
# ---------------------------------------------------------------------------


def _keys(kind: str, workloads, levels, widths, per_width: bool,
          seed: int = 0) -> list[str]:
    """The canonical request keys the run will present to the fault
    sites: per-(workload, level) task keys (``per_width=False``, the
    worker sites) or per-configuration blob keys (``per_width=True``,
    the store sites)."""
    from ..service.keys import request_key, workload_fingerprint

    fps = {n: workload_fingerprint(n) for n in workloads}
    out = []
    for n in workloads:
        for lv in levels:
            cols = widths if per_width else widths[:1]
            out.extend(
                request_key(kind, n, int(lv), wd, seed=seed, check=True,
                            check_ir=False, disable=(), fingerprint=fps[n])
                for wd in cols
            )
    return out


def _expected(plan: FaultPlan, site: str, keys) -> int:
    return sum(plan.count_for(site, k) for k in keys)


def _expected_quarantines(plan: FaultPlan, keys) -> int:
    """Keys whose first write is torn *and* not failed by enospc/eio —
    only those land a corrupt blob for a later read to quarantine (a
    failed first write is retried and lands clean, torn or not)."""
    return sum(
        1 for k in keys
        if plan.count_for("store.torn_write", k) > 0
        and plan.count_for("store.enospc", k) == 0
        and plan.count_for("store.eio", k) == 0
    )


# ---------------------------------------------------------------------------
# the two surfaces
# ---------------------------------------------------------------------------


def _canon_sweep(data) -> dict:
    from dataclasses import asdict

    out = {}
    for (n, lv, wd), r in sorted(data.results.items()):
        d = asdict(r)
        for f in TIMING_FIELDS:
            d.pop(f, None)
        out[f"{n}/L{lv}/w{wd}"] = d
    return out


def _run_sweep(workloads, levels, widths, jobs, root: Path,
               deadline_s=None) -> tuple[dict, dict, object]:
    from ..experiments.sweep import run_sweep
    from ..service.store import ArtifactStore

    store = ArtifactStore(root / "store")
    data = run_sweep(
        [get_workload(n) for n in workloads],
        levels=tuple(Level(lv) for lv in levels), widths=tuple(widths),
        jobs=jobs, journal=root / "journal.jsonl", resume=False,
        store=store, deadline_s=deadline_s,
    )
    return _canon_sweep(data), dict(data.resilience), store


def _run_serve(workloads, levels, widths, jobs, store_dir: Path,
               pool_deadline_s: float) -> tuple[dict, dict, int]:
    from ..service.client import ServiceClient
    from ..service.server import serve_background

    httpd, engine, url = serve_background(
        store_dir=store_dir, jobs=jobs,
        default_timeout=pool_deadline_s,
    )
    client = ServiceClient(url, timeout=120.0, retry_overloaded=True)
    out = {}
    try:
        for n in workloads:
            for lv in levels:
                for wd in widths:
                    # generous per-request deadline: a deadline-killed
                    # worker needs pool_deadline_s + a rerun to recover
                    r = client.run(n, level=int(lv), width=int(wd),
                                   timeout=60.0)
                    out[f"{n}/L{lv}/w{wd}"] = r["result"]
        metrics = engine.metrics()
    finally:
        httpd.shutdown()
        engine.close()
    return out, metrics, client.retries


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------


def check_row(name: str, expected, observed, op: str = "==") -> dict:
    """One reconciliation check: ``observed`` against ``expected``."""
    ok = observed >= expected if op == ">=" else observed == expected
    return {"check": name, "expected": expected, "observed": observed,
            "ok": bool(ok)}


def identity_check(name: str, base: dict, got: dict) -> dict:
    """The check that a faulted run's results equal the baseline's."""
    return {"check": name, "expected": len(base),
            "observed": sum(1 for k in base if got.get(k) == base[k]),
            "ok": got == base}


def finish_report(report: dict, out: Path | None, label: str,
                  verbose: bool) -> dict:
    """Write ``report`` to ``out`` (if given) and print its checks."""
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2))
    if verbose:
        for c in report["checks"]:
            mark = "ok " if c["ok"] else "FAIL"
            print(f"  [{mark}] {c['check']}: expected {c['expected']}, "
                  f"observed {c['observed']}")
        where = f" -> {out}" if out is not None else ""
        print(f"{label}: {'PASS' if report['ok'] else 'FAIL'} "
              f"({report['elapsed_s']}s){where}")
    return report


def _reconcile(plan, site_names, keys_task, keys_blob, resilience,
               store_stats, injected, client_retries=None) -> list[dict]:
    """Per-site checks: predicted injections vs. recovery counters."""
    checks = []

    def check(*args):
        checks.append(check_row(*args))

    if "worker.kill" in site_names:
        check("worker.kill -> redispatched",
              _expected(plan, "worker.kill", keys_task),
              resilience.get("redispatched", 0), ">=")
    if "worker.hang" in site_names:
        e = _expected(plan, "worker.hang", keys_task)
        check("worker.hang -> deadline_kills", e,
              resilience.get("deadline_kills", 0))
        check("worker.hang -> redispatched", e,
              resilience.get("redispatched", 0), ">=")
    if "worker.error" in site_names:
        check("worker.error -> retries",
              _expected(plan, "worker.error", keys_task),
              resilience.get("retries", 0), ">=")
    if "store.enospc" in site_names or "store.eio" in site_names:
        # enospc raises before the write reaches the fsync (eio) site,
        # so on a key selected for both, eio only fires on the attempts
        # left after the enospc fires are exhausted
        e = 0
        for k in keys_blob:
            en = plan.count_for("store.enospc", k)
            ei = plan.count_for("store.eio", k)
            e += en + max(0, ei - en)
        check("store write faults -> injected", e,
              injected.get("store.enospc", 0) + injected.get("store.eio", 0))
        check("store write faults -> put_retries", e,
              store_stats.get("put_retries", 0))
    if "store.torn_write" in site_names:
        check("store.torn_write -> injected",
              _expected(plan, "store.torn_write", keys_blob),
              injected.get("store.torn_write", 0))
    if "server.drop_response" in site_names and client_retries is not None:
        check("server.drop_response -> client retries",
              injected.get("server.drop_response", 0),
              client_retries, ">=")
    return checks


def _verify_store_recovery(store_dir: Path, plan, keys_blob) -> list[dict]:
    """Disarmed re-read of every blob the armed run wrote: torn blobs
    must be detected + quarantined (a miss, never a wrong answer), and
    every retried write must have landed readable."""
    from ..service.store import ArtifactStore

    store = ArtifactStore(store_dir)
    torn = _expected_quarantines(plan, keys_blob)
    hits = sum(1 for k in keys_blob if store.get(k) is not None)
    return [
        check_row("torn blobs quarantined on read", torn,
                  store.stats.quarantined),
        check_row("non-torn blobs all readable", len(keys_blob) - torn, hits),
    ]


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def run_chaos(plan_spec: str = "all", *, seed: int = 0, jobs: int = 2,
              workloads=DEFAULT_WORKLOADS, levels=DEFAULT_LEVELS,
              widths=DEFAULT_WIDTHS, workdir: Path | None = None,
              out: Path | None = None, serve: bool = True,
              verbose: bool = True) -> dict:
    """Run the chaos suite; returns (and optionally writes) the report."""
    import tempfile

    plan = load_plan(plan_spec, seed)
    site_names = {s.site for s in plan.sites}
    has_hang = "worker.hang" in site_names
    deadline_s = 2.0 if has_hang else None
    t0 = time.monotonic()

    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)
    if verbose:
        print(plan.describe())
        print(f"chaos grid: {len(workloads)} workloads x {len(levels)} "
              f"levels x {len(widths)} widths, {jobs} jobs ({workdir})")

    keys_task = _keys("result", workloads, levels, widths, per_width=False)
    keys_blob = _keys("result", workloads, levels, widths, per_width=True)

    if verbose:
        print("chaos: baseline sweep (fault-free)...")
    base, _, _ = _run_sweep(workloads, levels, widths, jobs,
                            workdir / "baseline")
    if verbose:
        print("chaos: armed sweep...")
    with faults.armed(plan):
        got, resilience, store = _run_sweep(
            workloads, levels, widths, jobs, workdir / "armed",
            deadline_s=deadline_s)
        sweep_injected = dict(plan.injected)

    checks = [identity_check("sweep results identical under faults",
                             base, got)]
    checks += _reconcile(plan, site_names, keys_task, keys_blob,
                         resilience, store.stats.as_dict(), sweep_injected)
    if site_names & {"store.torn_write", "store.enospc", "store.eio"}:
        checks += _verify_store_recovery(workdir / "armed" / "store",
                                         plan, keys_blob)

    serve_report = None
    if serve:
        # the served batch is sequential, so every (workload, level,
        # width) request is its own single-width cell: the worker-site
        # keys coincide with the per-configuration blob keys
        serve_keys_blob = _keys("run", workloads, levels, widths,
                                per_width=True)
        serve_keys_task = serve_keys_blob
        if verbose:
            print("chaos: baseline served batch (fault-free)...")
        base_s, _, _ = _run_serve(workloads, levels, widths, jobs,
                                  workdir / "serve-baseline" / "store",
                                  pool_deadline_s=120.0)
        if verbose:
            print("chaos: armed served batch...")
        plan2 = load_plan(plan_spec, seed)  # fresh injection counters
        with faults.armed(plan2):
            got_s, metrics, client_retries = _run_serve(
                workloads, levels, widths, jobs,
                workdir / "serve-armed" / "store",
                pool_deadline_s=2.0 if has_hang else 120.0)
            serve_injected = dict(plan2.injected)
        serve_checks = [identity_check(
            "served results identical under faults", base_s, got_s)]
        serve_checks += _reconcile(
            plan2, site_names, serve_keys_task, serve_keys_blob,
            metrics.get("resilience", {}),
            metrics.get("store", {}), serve_injected,
            client_retries=client_retries)
        serve_report = {
            "identical": got_s == base_s,
            "resilience": metrics.get("resilience", {}),
            "client_retries": client_retries,
            "injected": serve_injected,
            "checks": serve_checks,
        }
        checks += serve_checks

    report = {
        "plan": json.loads(plan.to_json()),
        "plan_name": plan_spec,
        "grid": {"workloads": list(workloads), "levels": list(levels),
                 "widths": list(widths), "jobs": jobs},
        "sweep": {"identical": got == base, "resilience": resilience,
                  "injected": sweep_injected,
                  "store": store.stats.as_dict()},
        "serve": serve_report,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
        "elapsed_s": round(time.monotonic() - t0, 2),
    }
    return finish_report(report, out, "chaos", verbose)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro chaos",
        description="Fault-injection suite: inject worker crashes/hangs, "
                    "store I/O errors, and dropped HTTP responses into a "
                    "real sweep and a served batch; verify results are "
                    "identical to a fault-free run and every fault is "
                    "accounted for by a recovery counter.",
    )
    # --plan, --seed and --no-serve default to None/False so that
    # passing any of them with --cluster (which ignores them) is caught
    ap.add_argument("--plan", default=None,
                    help="builtin plan name (%s) or a FaultPlan JSON file "
                         "(default: all)" % ", ".join(BUILTIN_PLANS))
    ap.add_argument("--seed", type=int, default=None,
                    help="fault-plan seed (default: 0)")
    ap.add_argument("--jobs", type=int, default=2, metavar="N",
                    help="worker processes (default: 2)")
    ap.add_argument("--workloads", metavar="A,B,...",
                    default=",".join(DEFAULT_WORKLOADS))
    ap.add_argument("--levels", metavar="L,L,...",
                    default=",".join(map(str, DEFAULT_LEVELS)))
    ap.add_argument("--widths", metavar="W,W,...",
                    default=",".join(map(str, DEFAULT_WIDTHS)))
    ap.add_argument("--out", metavar="FILE",
                    default="results/CHAOS_report.json",
                    help="report path (default: results/CHAOS_report.json)")
    ap.add_argument("--workdir", metavar="DIR", default=None,
                    help="scratch directory (default: a fresh tempdir)")
    ap.add_argument("--no-serve", action="store_true",
                    help="skip the HTTP-service phase")
    ap.add_argument("--cluster", action="store_true",
                    help="node-kill mode: run the grid through a "
                         "multi-node cluster, SIGKILL a whole node "
                         "mid-batch, and reconcile exactly (see "
                         "repro.cluster.chaos)")
    ap.add_argument("--nodes", type=int, default=3, metavar="N",
                    help="cluster size for --cluster (default: 3)")
    ap.add_argument("--list-plans", action="store_true",
                    help="list the builtin plans and exit")
    args = ap.parse_args(argv)

    if args.list_plans:
        for name, (_, doc) in BUILTIN_PLANS.items():
            print(f"{name:<8} {doc}")
        return 0

    if args.cluster:
        from ..cluster.chaos import run_cluster_chaos

        ignored = [flag for flag, given in (
            ("--plan", args.plan is not None),
            ("--seed", args.seed is not None),
            ("--no-serve", args.no_serve)) if given]
        if ignored:
            ap.error(f"--cluster does not take {', '.join(ignored)}")

        out = args.out
        if out == "results/CHAOS_report.json":  # keep reports separate
            out = "results/CHAOS_cluster_report.json"
        report = run_cluster_chaos(
            nodes=args.nodes, jobs=args.jobs,
            workloads=tuple(args.workloads.split(",")),
            levels=tuple(int(x) for x in args.levels.split(",")),
            widths=tuple(int(x) for x in args.widths.split(",")),
            workdir=Path(args.workdir) if args.workdir else None,
            out=Path(out) if out else None,
        )
        return 0 if report["ok"] else 1

    report = run_chaos(
        args.plan or "all", seed=args.seed or 0, jobs=args.jobs,
        workloads=tuple(args.workloads.split(",")),
        levels=tuple(int(x) for x in args.levels.split(",")),
        widths=tuple(int(x) for x in args.widths.split(",")),
        workdir=Path(args.workdir) if args.workdir else None,
        out=Path(args.out) if args.out else None,
        serve=not args.no_serve,
    )
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
