"""The benchmark workloads, each run inside one fresh process.

Every workload returns an :class:`Outcome`: how many operations it
attempted, how many failed, how many produced a wrong output, the latency
of each successful operation, the time of its measured section, and the
exact outputs the per-layer report sums.  Operations that raise are
counted as failed and the workload carries on.  Times are scaled to the
host's nominal speed with :class:`hostspeed.HostSpeed`, sampled between
operations (raw wall time is kept as ``raw_wall_s``).

* ``grid-cold``: the 40 x 6-level x 4-width grid through
  :func:`repro.experiments.sweep.run_sweep` (``jobs=1``, no store,
  ``check=True``), one call per (workload, level) cell.
* ``oracle``: :func:`repro.check.run_oracle` with between-pass IR checks,
  one call per kernel, over 40 kernels x 6 levels x widths {1, 8}; its
  latency samples are single configurations.
* ``store-mix``: the request stream resolved in-process against a
  fresh artifact store, one request at a time.
* ``serve-mix``: two closed-loop clients against one in-process
  ``repro serve`` node with a fresh store and one worker.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed
from stats import geomean, median

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_SWEEP = ROOT / "results" / "sweep.json"
#: scratch space for the request mixes' stores (inside the checkout)
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("grid-cold", "oracle", "store-mix", "serve-mix")
LEVELS = tuple(range(6))          # Conv..Lev5
WIDTHS = (1, 2, 4, 8)
ORACLE_WIDTHS = (1, 8)

#: ConfigResult fields that do not depend on the input seed
STATIC_FIELDS = ("inner_makespan", "int_regs", "fp_regs", "checked")
#: ... and the rest of the non-timing fields, compared at seed 0 only
#: (the committed ``results/sweep.json`` is the seed-0 grid)
SEEDED_FIELDS = ("cycles", "instructions")

#: request stream: share of requests that draw a fresh key; the rest
#: repeat a uniformly chosen earlier key (store reads)
FRESH_SHARE = 0.2
CLIENTS = 2
KINDS = ("run", "compile")
#: the request mixes sample host speed about this often (serve-mix
#: pauses its clients for it; store-mix samples every SLICE_S / 4)
SLICE_S = 2.0


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: operations whose output was wrong (a subset of ``failed``)
    wrong: int = 0
    #: successful operations' latencies, at nominal host speed
    latencies_ms: list[float] = field(default_factory=list)
    #: measured section at nominal host speed, and as the wall clock saw it
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: (level, width) -> {workload: cycles}, for the speedup metrics
    cycles: dict = field(default_factory=dict)
    #: exact output sums and counters for the per-layer report
    totals: dict = field(default_factory=dict)
    #: produced outputs by key (grid: ConfigResult rows; serve: the first
    #: payload served per request key)
    results: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def timed(self, raw_s: float) -> float:
        """Account one operation (or serve slice) that took ``raw_s`` since
        the previous host-speed sample; returns its nominal-speed time."""
        nominal = self.speed.normalize(raw_s)
        self.raw_wall_s += raw_s
        self.wall_s += nominal
        return nominal

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s


def sim_speedups(cycles: dict) -> dict[str, float]:
    """Geomean over the loops of issue-1 Conv cycles / issue-8 LevN cycles."""
    base = cycles[(0, 1)]
    out = {}
    for level in (4, 5):
        top = cycles[(level, 8)]
        out[f"sim_speedup_lev{level}_i8"] = geomean(
            base[name] / top[name] for name in sorted(base))
    return out


def _record_cycles(cycles: dict, name: str, level: int, width: int,
                   n: int) -> None:
    cycles.setdefault((level, width), {})[name] = n


# ---------------------------------------------------------------------------
# grid-cold
# ---------------------------------------------------------------------------


def load_expected() -> dict[tuple, dict]:
    rows = json.loads(EXPECTED_SWEEP.read_text())["results"]
    return {(r["workload"], r["level"], r["width"]): r for r in rows}


def result_mismatches(results: dict[tuple, dict], expected: dict[tuple, dict],
                      seed: int) -> set[tuple]:
    """Keys of the configs whose non-timing fields differ from the
    committed grid.

    At seed 0 every non-timing field is compared; at other seeds only the
    fields that do not depend on the input data.  A config the run did
    not produce counts as a mismatch.
    """
    fields = STATIC_FIELDS + (SEEDED_FIELDS if seed == 0 else ())
    return {key for key, want in expected.items()
            if (got := results.get(key)) is None
            or any(got[f] != want[f] for f in fields)}


def grid_cold(seed: int) -> Outcome:
    from dataclasses import asdict

    from repro.experiments.sweep import run_sweep
    from repro.pipeline import Level
    from repro.workloads import all_workloads

    out = Outcome()
    out.speed.sample()
    for w in all_workloads():
        for level in LEVELS:
            out.attempted += len(WIDTHS)
            t0 = time.perf_counter()
            try:
                data = run_sweep([w], levels=(Level(level),), widths=WIDTHS,
                                 seed=seed, jobs=1, check=True)
            except AssertionError as e:  # check_run: a wrong output
                out.timed(time.perf_counter() - t0)
                out.failed += len(WIDTHS)
                out.wrong += len(WIDTHS)
                out.notes.append(f"{w.name}/L{level}: {e}")
                continue
            except Exception as e:  # noqa: BLE001 - count and carry on
                out.timed(time.perf_counter() - t0)
                out.failed += len(WIDTHS)
                out.notes.append(f"{w.name}/L{level}: {e!r}")
                continue
            out.latencies_ms.append(out.timed(time.perf_counter() - t0) * 1e3)
            for key, r in data.results.items():
                out.results[key] = asdict(r)

    rows = out.results.values()
    for (name, level, width), r in out.results.items():
        _record_cycles(out.cycles, name, level, width, r["cycles"])
    out.totals = {
        "regalloc.int_regs_total": sum(r["int_regs"] for r in rows),
        "regalloc.fp_regs_total": sum(r["fp_regs"] for r in rows),
        "sim.instructions": sum(r["instructions"] for r in rows),
    }
    return out


def check_grid(out: Outcome, seed: int) -> None:
    """Compare a grid against the committed one (untimed)."""
    bad = result_mismatches(out.results, load_expected(), seed)
    out.totals["result_mismatches"] = len(bad)
    # configs that ran but disagree are wrong outputs; those that raised
    # are already counted as failed
    produced = sum(1 for key in bad if key in out.results)
    out.failed += produced
    out.wrong += produced


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def oracle(seed: int) -> Outcome:
    """The oracle's latency samples are single configurations: from its
    ``schedule_kernel`` call to the end of the reference evaluation of its
    scheduled code (per-level ILP transforms and the per-kernel golden
    run fall between samples).  Hooks on the oracle module's own names
    record those instants and each simulation's cycles."""
    import repro.check.oracle as oracle_mod
    from repro.pipeline import Level
    from repro.workloads import all_workloads

    out = Outcome()
    levels = tuple(Level(lv) for lv in LEVELS)
    per_kernel = len(levels) * len(ORACLE_WIDTHS)
    runs: list[tuple[int, int, int, int]] = []
    spans: list[float] = []
    started = [0.0]
    inner = {name: getattr(oracle_mod, name) for name in
             ("schedule_kernel", "run_compiled_kernel", "reference_run")}

    def schedule_kernel(*args, **kwargs):
        started[0] = time.perf_counter()
        return inner["schedule_kernel"](*args, **kwargs)

    def run_compiled_kernel(ck, *args, **kwargs):
        run = inner["run_compiled_kernel"](ck, *args, **kwargs)
        runs.append((int(ck.level), ck.machine.issue_width, run.cycles,
                     run.instructions))
        return run

    def reference_run(*args, lowered=None, **kwargs):
        res = inner["reference_run"](*args, lowered=lowered, **kwargs)
        if lowered is not None:  # a configuration's, not the golden run
            spans.append(time.perf_counter() - started[0])
        return res

    hooks = {"schedule_kernel": schedule_kernel,
             "run_compiled_kernel": run_compiled_kernel,
             "reference_run": reference_run}
    for name, hook in hooks.items():
        setattr(oracle_mod, name, hook)
    instructions = 0
    try:
        out.speed.sample()
        for w in all_workloads():
            out.attempted += per_kernel
            runs.clear()
            spans.clear()
            t0 = time.perf_counter()
            try:
                report = oracle_mod.run_oracle([w], levels=levels,
                                               widths=ORACLE_WIDTHS,
                                               seed=seed, check_ir=True)
            except Exception as e:  # noqa: BLE001 - count and carry on
                out.timed(time.perf_counter() - t0)
                out.failed += per_kernel
                out.notes.append(f"{w.name}: {e!r}")
                continue
            raw = time.perf_counter() - t0
            scale = out.timed(raw) / raw
            out.latencies_ms.extend(s * scale * 1e3 for s in spans)
            bad = {(d.level, d.width) for d in report.divergences
                   if d.kind != "compile-error"}
            out.wrong += len(bad)
            out.failed += per_kernel - report.configs_checked + len(bad)
            out.notes.extend(str(d) for d in report.divergences)
            for level, width, cycles, n_instr in runs:
                _record_cycles(out.cycles, w.name, level, width, cycles)
                instructions += n_instr
    finally:
        for name, fn in inner.items():
            setattr(oracle_mod, name, fn)
    out.totals = {"sim.instructions": instructions}
    return out


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


def _deck(rng: random.Random, items):
    """Endless draws that take every item once per shuffled round, so a
    short stream still covers each item evenly."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def request_stream(seed: int, names: list[str]):
    """The seeded request stream: an endless iterator of
    ``(kind, workload, level, width, input_seed)`` keys.

    A request draws a fresh key with probability ``FRESH_SHARE`` (always
    for the first), with a new input seed; otherwise it repeats an
    earlier fresh key chosen uniformly.  Each field of a fresh key comes
    from its own shuffled deck, so kinds, the 40 workloads, the six
    levels (Lev5 included) and the four widths appear evenly.
    """
    rng = random.Random(seed)
    decks = [_deck(rng, items) for items in (KINDS, names, LEVELS, WIDTHS)]
    fresh: list[tuple] = []
    while True:
        if not fresh or rng.random() < FRESH_SHARE:
            key = (*(next(d) for d in decks), seed * 1_000_000 + len(fresh))
            fresh.append(key)
        else:
            key = fresh[rng.randrange(len(fresh))]
        yield key


class ServedNode:
    """One in-process ``repro serve`` node with a fresh store."""

    def __init__(self):
        from repro.service.client import ServiceClient
        from repro.service.server import serve_background

        TMP.mkdir(exist_ok=True)
        self.store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=TMP))
        self.httpd, self.engine, self.url = serve_background(
            store_dir=self.store_dir, jobs=1)
        ServiceClient(self.url, retry=None).healthz()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.engine.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


class _ClosedLoop:
    """``CLIENTS`` client threads, each sending the stream's next request
    once its previous reply arrived; one :meth:`run` is one slice."""

    def __init__(self, node: ServedNode, stream, out: Outcome,
                 requests: int):
        self.url = node.url
        self.stream = stream
        self.out = out
        self.requests = requests
        self.lock = threading.Lock()
        self.by_cache: dict[str, list[float]] = {}
        self.errors: dict[str, int] = {}

    def done(self) -> bool:
        return self.out.attempted >= self.requests

    def _take(self, until: float):
        with self.lock:
            if self.done() or time.perf_counter() >= until:
                return None
            self.out.attempted += 1
            return next(self.stream)

    def _client(self, until: float, replies: list) -> None:
        from repro.service.client import (
            ServiceClient, ServiceRequestError, ServiceUnavailable,
        )

        client = ServiceClient(self.url, timeout=120.0, retry=None)
        out = self.out
        while (key := self._take(until)) is not None:
            kind, name, level, width, input_seed = key
            call = client.run if kind == "run" else client.compile
            t0 = time.perf_counter()
            try:
                reply = call(name, level, width, seed=input_seed)
            except (ServiceRequestError, ServiceUnavailable) as e:
                with self.lock:
                    out.failed += 1
                    self.errors[str(e)] = self.errors.get(str(e), 0) + 1
                continue
            ms = (time.perf_counter() - t0) * 1e3
            with self.lock:
                replies.append((reply["cache"], ms))
                payload = reply["result"]
                seen = out.results.setdefault(key, payload)
                if seen is not payload and seen != payload:
                    out.failed += 1
                    out.wrong += 1

    def run(self, seconds: float) -> None:
        """One slice: send for ``seconds``, then wait for every reply."""
        replies: list[tuple[str, float]] = []
        t0 = time.perf_counter()
        threads = [threading.Thread(target=self._client,
                                    args=(t0 + seconds, replies))
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        raw = time.perf_counter() - t0
        scale = self.out.timed(raw) / raw
        for cache, ms in replies:
            self.out.latencies_ms.append(ms * scale)
            self.by_cache.setdefault(cache, []).append(ms * scale)


def serve_mix(seed: int, requests: int, node: ServedNode) -> Outcome:
    """Closed loop of ``CLIENTS`` clients until ``requests`` requests were
    sent, in slices of ``SLICE_S`` with a host-speed sample between
    slices."""
    from repro.service.client import ServiceClient
    from repro.workloads import all_workloads

    names = sorted(w.name for w in all_workloads())
    out = Outcome()
    loop = _ClosedLoop(node, request_stream(seed, names), out, requests)
    out.speed.sample()
    while not loop.done():
        loop.run(SLICE_S)

    counters = ServiceClient(node.url, retry=None).metrics()
    out.notes.extend(f"{n} x {reason}"
                     for reason, n in sorted(loop.errors.items()))
    first = out.results.values()
    out.totals = {
        "service.hit_p50_ms": median(loop.by_cache.get("hit", [0.0])),
        "service.miss_p50_ms": median(loop.by_cache.get("miss", [0.0])),
        "service.hits": counters["hits"],
        "service.misses": counters["misses"],
        "service.joined": counters["joined"],
        "service.batched_cells": counters["batched_cells"],
        "regalloc.int_regs_total": sum(p["int_regs"] for p in first),
        "regalloc.fp_regs_total": sum(p["fp_regs"] for p in first),
        "sim.instructions": sum(p.get("instructions", 0) for p in first),
    }
    return out


def store_mix(seed: int, requests: int) -> Outcome:
    """The serving core without its transport: the same request stream
    resolved in-process, one request at a time, against a fresh artifact
    store — ``ArtifactStore.get``, and on a miss ``compute_cell`` plus
    ``ArtifactStore.put``.  No HTTP, threads, worker process or batch
    window, so the host-speed scaling fits it as it fits the grid."""
    from repro.service.jobs import compute_cell
    from repro.service.keys import request_key, workload_fingerprint
    from repro.service.store import ArtifactStore
    from repro.workloads import all_workloads

    names = sorted(w.name for w in all_workloads())
    fingerprints = {name: workload_fingerprint(name) for name in names}
    stream = request_stream(seed, names)
    TMP.mkdir(exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=TMP))
    store = ArtifactStore(store_dir)
    out = Outcome()
    by_cache: dict[str, list[float]] = {"hit": [], "miss": []}
    first: dict[tuple, str] = {}     # key -> canonical JSON first produced
    batch: list[tuple[str, float]] = []   # (cache, raw s) since last sample

    def flush() -> None:
        if not batch:
            return
        raw = sum(d for _, d in batch)
        scale = out.timed(raw) / raw
        for cache, d in batch:
            if cache != "failed":
                out.latencies_ms.append(d * scale * 1e3)
                by_cache[cache].append(d * scale * 1e3)
        batch.clear()

    try:
        out.speed.sample()
        while out.attempted < requests:
            key = next(stream)
            kind, name, level, width, input_seed = key
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                store_key = request_key(kind, name, level, width,
                                        seed=input_seed,
                                        fingerprint=fingerprints[name])
                payload = store.get(store_key)
                cache = "hit"
                if payload is None:
                    cache = "miss"
                    payload, = compute_cell((kind, name, level, (width,),
                                             input_seed, True, False, ()))
                    store.put(store_key, payload)
            except Exception as e:  # noqa: BLE001 - count and carry on
                batch.append(("failed", time.perf_counter() - t0))
                out.failed += 1
                out.notes.append(f"{key}: {e!r}")
                continue
            batch.append((cache, time.perf_counter() - t0))
            text = json.dumps(payload, sort_keys=True)
            if first.setdefault(key, text) != text:
                out.failed += 1
                out.wrong += 1
            else:
                out.results[key] = payload
            # sample host speed about twice a second
            if sum(d for _, d in batch) >= SLICE_S / 4:
                flush()
        flush()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    first_payloads = out.results.values()
    out.totals = {
        "service.hit_p50_ms": median(by_cache["hit"] or [0.0]),
        "service.miss_p50_ms": median(by_cache["miss"] or [0.0]),
        "service.hits": len(by_cache["hit"]),
        "service.misses": len(by_cache["miss"]),
        "regalloc.int_regs_total": sum(p["int_regs"] for p in first_payloads),
        "regalloc.fp_regs_total": sum(p["fp_regs"] for p in first_payloads),
        "sim.instructions": sum(p.get("instructions", 0)
                                for p in first_payloads),
    }
    return out


def replay_miss_cells(keys) -> None:
    """Recompute every served key in-process, one ``compute_cell`` per
    key (the node computes them in its worker, outside the tracer)."""
    from repro.service.jobs import compute_cell

    for kind, name, level, width, input_seed in keys:
        compute_cell((kind, name, level, (width,), input_seed, True, False,
                      ()))


def probe_speedups(seed: int) -> dict:
    """Issue-1 Conv and issue-8 Lev4/Lev5 cycles of every loop, computed
    in-process (the served node refuses Lev5)."""
    from repro.experiments.sweep import run_sweep
    from repro.pipeline import Level

    cycles: dict = {}
    for levels, widths in (((0,), (1,)), ((4, 5), (8,))):
        data = run_sweep(levels=tuple(Level(lv) for lv in levels),
                         widths=widths, seed=seed, jobs=1, check=True)
        for (name, level, width), r in data.results.items():
            _record_cycles(cycles, name, level, width, r.cycles)
    return cycles
