"""One pass of one workload in a fresh process; prints one JSON line.

Modes:

* ``setup``   — import the workload's entry layer, build the 40-loop
  corpus (and for ``serve-mix`` start a node and get its first
  ``/healthz`` reply), then stop.  Reports ``setup_s``.
* ``measure`` — set up, run the workload untraced, check its outputs.
* ``trace``   — the same with the per-layer tracer installed between
  set-up and the measured section.
* ``baseline`` — ``measure`` preceded by the imports the tracer makes, so
  that it differs from ``trace`` only by the tracer.

``run.py`` starts this script; it is not meant to be run by hand.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import HostSpeed  # noqa: E402

SETUP_SPEED = HostSpeed()
SETUP_SPEED.sample()
T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads as wl  # noqa: E402
from stats import median, percentile  # noqa: E402

ENTRY_MODULES = {
    "grid-cold": "repro.experiments.sweep",
    "oracle": "repro.check.oracle",
    "store-mix": "repro.service.jobs",
    "serve-mix": "repro.service.server",
}


def set_up(workload: str):
    """The work a user pays before the first operation; returns the
    served node for ``serve-mix``."""
    importlib.import_module(ENTRY_MODULES[workload])
    from repro.workloads import all_workloads

    all_workloads()
    return wl.ServedNode() if workload == "serve-mix" else None


def peak_rss_mb() -> float:
    """This process plus its largest reaped child, in MiB (Linux KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "baseline", "trace"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--requests", type=int, default=400,
                    help="store-mix, serve-mix: requests to send")
    args = ap.parse_args(argv)

    node = set_up(args.workload)
    report = {"setup_s": SETUP_SPEED.normalize(time.perf_counter() - T_START)}
    if args.mode == "setup":
        if node is not None:
            node.close()
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode in ("baseline", "trace"):
        from tracer import Tracer, import_all_repro

        import_all_repro()
        if args.mode == "trace":
            tracer = Tracer().install()

    if args.workload == "grid-cold":
        out = wl.grid_cold(args.seed)
    elif args.workload == "oracle":
        out = wl.oracle(args.seed)
    elif args.workload == "store-mix":
        out = wl.store_mix(args.seed, args.requests)
    else:
        try:
            out = wl.serve_mix(args.seed, args.requests, node)
        finally:
            node.close()
    report["peak_rss_mb"] = peak_rss_mb()

    if tracer is not None:
        traced_s = out.raw_wall_s
        if args.workload == "serve-mix":
            t0 = time.perf_counter()
            wl.replay_miss_cells(sorted(out.results))
            traced_s += time.perf_counter() - t0
        tracer.uninstall()
        report["layers"] = tracer.metrics()
        report["unattributed_s"] = traced_s - tracer.total_self_s()

    if args.workload == "grid-cold":
        wl.check_grid(out, args.seed)
    if args.mode == "measure":
        cycles = (wl.probe_speedups(args.seed)
                  if args.workload.endswith("-mix") else out.cycles)
        report.update(wl.sim_speedups(cycles))

    lat = out.latencies_ms or [0.0]
    report.update(
        attempted=out.attempted, failed=out.failed, wrong=out.wrong,
        wall_s=out.wall_s, raw_wall_s=out.raw_wall_s,
        host_slowdown=out.speed.slowdown(), ops_per_s=out.ops_per_s(),
        p50_ms=median(lat), p95_ms=percentile(lat, 95),
        latency_samples=len(out.latencies_ms), totals=out.totals,
        notes=out.notes[:20],
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
