"""The repository benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload grid-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced pass (set-up
time is the median of ``SETUP_REPEATS`` fresh-process set-ups).
``--trace 1`` runs the workload twice — untraced, then with the
per-layer tracer — and prints the per-layer metrics, ``unattributed_s``
and ``trace_overhead_ratio``.  Every pass runs in a fresh process, so
each one is cold.  See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import median  # noqa: E402
from tracer import TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
#: the request mixes send this many requests per ``--seconds`` (about
#: their rate at nominal host speed): a fixed amount of work, so that
#: how much they cache does not follow the host's speed
MIX_RATE = 140
#: ... and exactly this many in each pass of a traced run
TRACE_REQUESTS = 400
#: wall-clock budget for all passes of one invocation
BUDGET_S = 170.0

#: (name, unit, better) of every metric printed with --trace 0 ...
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p95_ms", "ms", "lower"),
    ("sim_speedup_lev4_i8", "x", "higher"),
    ("sim_speedup_lev5_i8", "x", "higher"),
)
#: ... and with --trace 1: two per traced layer, then the rest
PER_LAYER = tuple(
    m for layer in TARGETS
    for m in ((f"{layer}.self_s", "s", "lower"),
              (f"{layer}.calls", "count", "lower"))
) + (
    ("service.hit_p50_ms", "ms", "lower"),
    ("service.miss_p50_ms", "ms", "lower"),
    ("service.hits", "count", "higher"),
    ("service.misses", "count", "lower"),
    ("service.joined", "count", "higher"),
    ("service.batched_cells", "count", "lower"),
    ("regalloc.int_regs_total", "count", "lower"),
    ("regalloc.fp_regs_total", "count", "lower"),
    ("sim.instructions", "count", "lower"),
    ("result_mismatches", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("raw_wall_s", "s", "lower"),
    ("host_slowdown", "ratio", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, mode: str, seed: int, requests: int,
             deadline: float) -> dict:
    """Run ``child.py`` in a fresh process and return its JSON report."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--mode", mode, "--seed", str(seed), "--requests", str(requests)]
    # fixed string hashing: set iteration order, and with it the call
    # counts, then repeat exactly from run to run
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    # own process group, so a timed-out pass is killed with the worker
    # processes it forked
    with subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"{workload} {mode} pass timed out") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} {mode} pass exited "
                         f"{proc.returncode}:\n{stderr[-4000:]}")
    report = json.loads(lines[-1])
    for note in report.get("notes", ()):
        print(f"perfbench: {workload} {mode}: {note}", file=sys.stderr)
    if mode != "setup":
        print(f"perfbench: {workload} {mode}: {report['latency_samples']} "
              f"latency samples, {report['raw_wall_s']:.2f} s raw wall, "
              f"host slowdown {report['host_slowdown']:.3f}",
              file=sys.stderr)
    return report


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> dict:
    requests = round(MIX_RATE * seconds)
    setups = [run_pass(workload, "setup", seed, requests, deadline)
              ["setup_s"] for _ in range(SETUP_REPEATS)]
    m = run_pass(workload, "measure", seed, requests, deadline)
    values = {
        "setup_s": median(setups),
        "ops_per_s": m["ops_per_s"],
        "ok_ratio": (m["attempted"] - m["failed"]) / m["attempted"],
        "peak_rss_mb": m["peak_rss_mb"],
        "p50_ms": m["p50_ms"],
        "p95_ms": m["p95_ms"],
        "sim_speedup_lev4_i8": m["sim_speedup_lev4_i8"],
        "sim_speedup_lev5_i8": m["sim_speedup_lev5_i8"],
    }
    return result(m, [m], END_TO_END, values)


def per_layer(workload: str, seed: int, seconds: float,
              deadline: float) -> dict:
    base = run_pass(workload, "baseline", seed, TRACE_REQUESTS, deadline)
    tr = run_pass(workload, "trace", seed, TRACE_REQUESTS, deadline)
    values = {**tr["layers"], **tr["totals"]}
    for name in ("unattributed_s", "raw_wall_s", "host_slowdown"):
        values[name] = tr[name]
    values["trace_overhead_ratio"] = (
        (tr["wall_s"] / tr["attempted"]) / (base["wall_s"] / base["attempted"]))
    return result(tr, [base, tr], PER_LAYER, values)


def result(main: dict, passes: list[dict], specs, values: dict) -> dict:
    """The result object; metrics a workload does not exercise read 0."""
    return {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit, _ in specs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sizes the request mixes: MIX_RATE requests per "
                         "second; grid-cold and oracle always measure one "
                         "full pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "repro",
                           ROOT / "results" / "sweep.json")
               if not p.exists()]
    if missing:
        print(f"perfbench: not a repository checkout, missing "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    measure = per_layer if args.trace else end_to_end
    try:
        res = measure(args.workload, args.seed, args.seconds, deadline)
    except PassFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
