"""CI full-grid identity: recompute all 960 configurations and require
every number to equal the committed ``results/sweep.json``.

A speed-up counts only if the grid's numbers stay identical, and the
golden pass-manager test covers just the oracle subset.  This script
runs the whole 40 x 6 x 4 grid in-process (``run_sweep(jobs=2)``, no
artifact store, no journal — it writes nothing under ``results/``) and
compares, per configuration, the fields the figures are built from.
Wall-clock fields (``t_*``) are ignored.  Exits 1 on any mismatch,
missing or extra configuration.

    PYTHONHASHSEED=0 python .github/scripts/grid_identity.py
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.sweep import load_sweep, run_sweep  # noqa: E402

FIELDS = ("cycles", "instructions", "inner_makespan", "int_regs", "fp_regs",
          "checked")


def main() -> int:
    golden = load_sweep()
    if golden is None:
        print("FAIL: results/sweep.json is missing or not a complete grid")
        return 1
    t0 = time.perf_counter()
    fresh = run_sweep(jobs=2)
    elapsed = time.perf_counter() - t0

    bad = 0
    for key in sorted(golden.results.keys() | fresh.results.keys()):
        want, got = golden.results.get(key), fresh.results.get(key)
        if want is None or got is None:
            bad += 1
            print(f"MISMATCH {key}: {'extra' if want is None else 'missing'}")
            continue
        diffs = [f"{f} {getattr(got, f)} != {getattr(want, f)}"
                 for f in FIELDS if getattr(got, f) != getattr(want, f)]
        if diffs:
            bad += 1
            print(f"MISMATCH {key}: " + "; ".join(diffs))
    total = len(golden.results)
    print(f"{total - bad}/{total} configurations identical to "
          f"results/sweep.json ({elapsed:.1f}s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
