"""The evaluation grid: 40 loop nests x all levels x issue rates 1/2/4/8.

The level axis derives from :class:`repro.pipeline.Level` — the paper's
five (Conv..Lev4) plus Lev5 (SLP vectorization).

Replicates the paper's methodology (Section 3.1): each configuration is
compiled through the full pipeline and measured with execution-driven
simulation; speedups are relative to the issue-1 processor with
conventional (Conv) optimization; register usage is the colored
int+fp total of the compiled loop nest.

The grid is embarrassingly parallel and highly redundant, and the engine
exploits both:

* **Width sharding.**  The unit of work is a *task* — one (workload,
  level) cell covering every requested issue width.  The classical and
  ILP transformation stages observe only the machine's latencies
  (:func:`repro.harness.ilp_transform`), so a task transforms once and
  schedules a clone per width instead of recompiling from scratch
  4 times.  Classical optimization is additionally level-independent, so
  each worker process runs it once per workload (all levels share it).
  :func:`evaluate_cell` is the one implementation of a cell; the sweep,
  :func:`run_config` and the service's ``compute_cell`` format its
  records.
* **Process parallelism.**  ``jobs > 1`` fans tasks out over the
  ``fork``-based :class:`~repro.resilience.supervisor.SupervisedPool`.
  Results are merged deterministically (sorted by grid key), so serial
  and parallel sweeps are bit-identical.
* **Resumability.**  Each finished configuration is appended to a JSONL
  *journal*; an interrupted sweep rerun with the same journal reloads
  the finished configurations and computes only the missing ones.
* **Persistence.**  With ``store=`` (CLI ``--store DIR``), finished
  configurations are also written to the content-addressed artifact
  store (:mod:`repro.service.store`), keyed by the same canonical
  identity as the service (:mod:`repro.service.keys`).  A later sweep
  pointed at the same store — or compile/run traffic served from it —
  reuses them across processes and machines, so a warm rerun is
  near-free.

Results are cached as JSON so the figure benchmarks can re-render without
recomputation (delete ``results/sweep.json`` or pass ``force=True`` to
refresh).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..harness import (
    BatchedRunner,
    CompiledKernel,
    ConvKernel,
    KernelRun,
    ilp_transform,
    lower_conv,
    run_compiled_kernel,
    schedule_kernel,
)
from ..machine import MachineConfig
from ..passes import PassOptions
from ..pipeline import Level
from ..regalloc import RegisterUsage, measure_register_usage
from ..resilience.errors import clean_orphan_tmps
from ..resilience.supervisor import (
    CellQuarantined,
    SupervisedPool,
    TaskFailed,
)
from ..service.keys import request_key, sweep_header, workload_fingerprint
from ..workloads import Workload, all_workloads, check_run, get_workload


class SweepError(RuntimeError):
    """One or more grid cells failed permanently.  Raised after the rest
    of the grid finished; ``data`` is that partial :class:`SweepData`,
    with the failed cells in ``data.failed``."""

    def __init__(self, message: str, data: "SweepData"):
        super().__init__(message)
        self.data = data


WIDTHS = (1, 2, 4, 8)
#: 4 added per-phase timing fields and partial-grid journals; version-3
#: files (no timings, always full-grid) still load, as do version-4
#: files from before the per-pass ``t_passes`` timing map was added.
CACHE_VERSION = 4
_COMPAT_VERSIONS = (3, CACHE_VERSION)


@dataclass
class ConfigResult:
    workload: str
    level: int                # Level value
    width: int
    cycles: int
    instructions: int
    inner_makespan: int
    int_regs: int
    fp_regs: int
    checked: bool
    #: wall-clock phase costs.  Compilation work shared across the widths
    #: of a task (classical + ILP transformation) is attributed to the
    #: width that actually paid it (the task's first width), not smeared.
    #: ``t_schedule`` covers scheduling and register-usage measurement.
    t_compile: float = 0.0
    t_schedule: float = 0.0
    t_simulate: float = 0.0
    #: per-pass wall-clock seconds from the unified pipeline report, under
    #: the same attribution rule as ``t_compile``: shared transform passes
    #: are charged to the task's first width, scheduling to every width.
    t_passes: dict[str, float] = field(default_factory=dict)

    @property
    def total_regs(self) -> int:
        return self.int_regs + self.fp_regs


@dataclass
class SweepData:
    """Full grid of results, with speedup helpers."""

    results: dict[tuple[str, int, int], ConfigResult] = field(default_factory=dict)
    elapsed: float = 0.0
    #: configurations computed this run vs. reloaded from a journal
    computed: int = 0
    reused: int = 0
    #: corrupt/truncated journal lines skipped while resuming
    journal_skipped: int = 0
    #: configurations served from the persistent artifact store
    store_hits: int = 0
    #: supervised-pool counters (redispatched, retries, deadline_kills,
    #: worker_restarts, ...) from a ``jobs > 1`` run; empty when serial
    resilience: dict = field(default_factory=dict)
    #: (cell, error) pairs for cells that failed permanently (the sweep
    #: then raises :class:`SweepError` carrying this data)
    failed: list = field(default_factory=list)

    def get(self, name: str, level: Level, width: int) -> ConfigResult:
        return self.results[(name, int(level), width)]

    def base_cycles(self, name: str) -> int:
        """Issue-1 processor with Conv: the paper's speedup denominator."""
        return self.get(name, Level.CONV, 1).cycles

    def speedup(self, name: str, level: Level, width: int) -> float:
        return self.base_cycles(name) / self.get(name, level, width).cycles

    def workload_names(self) -> list[str]:
        return sorted({k[0] for k in self.results}, key=str.lower)

    def pass_seconds(self) -> dict[str, float]:
        """Aggregate compile-time cost per registered pass over the grid
        (the bench trajectory tracks these; see ``bench_sweep_perf``)."""
        out: dict[str, float] = {}
        for r in self.results.values():
            for name, s in r.t_passes.items():
                out[name] = out.get(name, 0.0) + s
        return out


# ---------------------------------------------------------------------------
# per-process worker state
# ---------------------------------------------------------------------------

#: classical optimization is level- and machine-independent, so one
#: ``ConvKernel`` per (workload, disabled-pass set) serves every task a
#: worker process sees.  The time it cost rides along and is charged to
#: the first task that needs it (``_conv_cached`` pops the cost).
_CONV_CACHE: dict[tuple, tuple[ConvKernel, float]] = {}
#: input sets kept per process: at least the corpus size, so a grid at
#: one seed never evicts, while a served worker seeing fresh seeds stays
#: bounded
INPUT_CACHE_SIZE = 64


def _conv_cached(
    w: Workload, options: PassOptions | None = None
) -> tuple[ConvKernel, float]:
    """Stage-1 result for a workload, plus the cost if paid just now.

    Keyed by the disabled-pass set: ablation runs that switch classical
    passes off must not be served the fully-optimized cached result.
    """
    key = (w.name, options.key if options is not None else ())
    hit = _CONV_CACHE.get(key)
    if hit is not None:
        conv, _ = hit
        return conv, 0.0
    t0 = time.perf_counter()
    conv = lower_conv(w.build(), options=options)
    dt = time.perf_counter() - t0
    _CONV_CACHE[key] = (conv, dt)
    return conv, dt


@functools.lru_cache(maxsize=INPUT_CACHE_SIZE)
def _inputs_cached(name: str, seed: int) -> tuple[dict, dict]:
    """Inputs are read-only (``check_run`` copies before mutating;
    ``Memory.bind_array`` copies into simulated memory), so one binding
    per (workload, seed) serves every configuration."""
    return get_workload(name).make_inputs(seed)


# ---------------------------------------------------------------------------
# the cell-evaluation core
# ---------------------------------------------------------------------------


@dataclass
class CellRecord:
    """One machine's share of an evaluated (workload, level) cell.  Work
    the machines share (transformation, the trace-once execution) is
    charged to the first machine, which paid it."""

    ck: CompiledKernel
    usage: RegisterUsage
    #: None when the cell was evaluated with ``simulate=False``
    run: KernelRun | None
    t_compile: float
    #: scheduling plus register-usage measurement
    t_schedule: float
    t_simulate: float
    t_passes: dict[str, float]


def evaluate_cell(
    w: Workload, level: Level, machines: list[MachineConfig], *,
    seed: int = 0, check: bool = True, check_ir: bool = False,
    options: PassOptions | None = None, engine: str = "auto",
    scheduler: str = "list", solver_budget: int | None = None,
    solver_store=None, simulate: bool = True,
) -> list[CellRecord]:
    """Compile, measure and simulate one (workload, level) cell for each
    of ``machines`` — the operation every grid configuration repeats.

    The ILP transformation observes only latencies, so it runs once, on
    ``machines[0]`` (all machines must share its ``latency_key()``); each
    machine schedules a clone and has its register usage measured once.
    With several machines and the compiled engine the cell *executes*
    once and each machine replays the trace against its own schedule
    (:class:`repro.harness.BatchedRunner`), bit-identical to full
    simulation.  ``check`` validates every fresh execution against the
    NumPy reference: once per replayed cell, plus any fallback.
    """
    if len({m.latency_key() for m in machines}) > 1:
        raise ValueError(f"{w.name}: the machines of one cell must share "
                         "latencies (they share one ILP transformation)")

    conv, t_conv = _conv_cached(w, options)
    t0 = time.perf_counter()
    tk = ilp_transform(conv.clone(), level, machines[0], check=check_ir,
                       options=options)
    t_transform = t_conv + (time.perf_counter() - t0)

    cell: list[CellRecord] = []
    for i, machine in enumerate(machines):
        t0 = time.perf_counter()
        # the last machine may consume tk itself: nothing reads it afterwards
        clone = tk.clone() if i + 1 < len(machines) else tk
        ck = schedule_kernel(clone, machine, check=check_ir, options=options,
                             scheduler=scheduler, solver_budget=solver_budget,
                             solver_store=solver_store)
        # a checked schedule has colored the kernel already
        usage = ck.usage or measure_register_usage(ck.func,
                                                   ck.lowered.live_out_exit)
        t_schedule = time.perf_counter() - t0
        # transform passes are charged to the first machine (the classical
        # phase only when this cell paid it), scheduling to every machine
        phases = (("schedule",) if i else
                  None if t_conv > 0 else ("ilp", "cleanup", "schedule"))
        cell.append(CellRecord(
            ck, usage, None, t_transform if i == 0 else 0.0, t_schedule, 0.0,
            ck.report.pass_seconds(phases=phases),
        ))
    if not simulate:
        return cell

    arrays, scalars = _inputs_cached(w.name, seed)
    runner = None
    t_exec = 0.0
    if engine in ("auto", "compiled") and len(cell) > 1:
        from ..sim import EngineUnsupported, ReplayUnsupported

        t0 = time.perf_counter()
        try:
            runner = BatchedRunner(cell[0].ck, arrays, scalars)
        except (EngineUnsupported, ReplayUnsupported):
            runner = None  # cell outside engine scope: simulate per machine
        t_exec = time.perf_counter() - t0

    for i, rec in enumerate(cell):
        t0 = time.perf_counter()
        if runner is None:
            rec.run = run_compiled_kernel(rec.ck, arrays=arrays,
                                          scalars=scalars, engine=engine)
            fresh = True
        else:
            rec.run = runner.run(rec.ck)
            # replayed outputs are shared across the cell
            fresh = i == 0 or runner.last_fallback
        if check and fresh:
            check_run(w, rec.run.arrays, rec.run.scalars, arrays, scalars)
        rec.t_simulate = (time.perf_counter() - t0) + (t_exec if i == 0 else 0.0)
    return cell


def _config_result(w: Workload, rec: CellRecord, check: bool) -> ConfigResult:
    ck, run = rec.ck, rec.run
    return ConfigResult(
        w.name, int(ck.level), ck.machine.issue_width, run.cycles,
        run.instructions, ck.inner_makespan, rec.usage.int_regs,
        rec.usage.fp_regs, check, t_compile=rec.t_compile,
        t_schedule=rec.t_schedule, t_simulate=rec.t_simulate,
        t_passes=rec.t_passes,
    )


def _run_task(task: tuple) -> list[ConfigResult]:
    """Run one (workload, level) cell over the requested widths."""
    name, level_int, widths, seed, check, check_ir, options, engine = task
    w = get_workload(name)
    cell = evaluate_cell(
        w, Level(level_int), [MachineConfig(issue_width=wd) for wd in widths],
        seed=seed, check=check, check_ir=check_ir, options=options,
        engine=engine,
    )
    return [_config_result(w, rec, check) for rec in cell]


def run_config(
    w: Workload, level: Level, machine: MachineConfig, seed: int = 0,
    check: bool = True, check_ir: bool = False,
    options: PassOptions | None = None, engine: str = "auto",
    scheduler: str = "list", solver_budget: int | None = None,
    solver_store=None,
) -> ConfigResult:
    """Compile, simulate, and check a single configuration.

    Unlike the sweep tasks this honors the full ``machine`` (custom
    latencies / slot limits — the ablation benchmarks use those); the
    classical stage is still reused across calls per workload.
    ``check_ir=True`` additionally runs the between-pass invariant
    verifier (the CLI ``--check`` flag); ``options`` carries
    ``--disable-pass`` / ``--print-after`` pipeline controls;
    ``scheduler`` selects the schedule backend (``--scheduler``), with
    ``solver_store`` caching exact-solver results fleet-wide.
    """
    rec, = evaluate_cell(
        w, level, [machine], seed=seed, check=check, check_ir=check_ir,
        options=options, engine=engine, scheduler=scheduler,
        solver_budget=solver_budget, solver_store=solver_store,
    )
    return _config_result(w, rec, check)


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------


def _journal_header(seed: int, check: bool, check_ir: bool = False,
                    options: PassOptions | None = None) -> dict:
    """Journal identity: the canonical grid-wide half of the request
    identity (:func:`repro.service.keys.sweep_header` — shared with the
    artifact store, so the two can never disagree) plus the journal's
    own schema version."""
    disable = options.key if options is not None else ()
    return {"version": CACHE_VERSION,
            **sweep_header(seed, check, check_ir, disable)}


def read_journal(
    path: Path, seed: int, check: bool, check_ir: bool = False,
    on_skip=None, options: PassOptions | None = None,
) -> dict[tuple, ConfigResult]:
    """Finished configurations from an (possibly interrupted) journal.

    Skips truncated or corrupt lines (the process died mid-write — a torn
    line may even be invalid UTF-8, so parsing works on raw bytes) and
    reports each skip through ``on_skip(lineno, raw_line)``.  The whole
    journal is rejected if the header does not match the requested sweep
    parameters.
    """
    results: dict[tuple, ConfigResult] = {}
    try:
        lines = path.read_bytes().splitlines()
    except OSError:
        return results
    if not lines:
        return results
    try:
        header = json.loads(lines[0])
    except (UnicodeDecodeError, json.JSONDecodeError):
        return results
    if header != _journal_header(seed, check, check_ir, options):
        return results
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            d = json.loads(line)
            r = ConfigResult(**d)
        except (UnicodeDecodeError, json.JSONDecodeError, TypeError):
            if on_skip is not None:
                on_skip(lineno, line)
            continue  # truncated / malformed line
        results[(r.workload, r.level, r.width)] = r
    return results


def _run_supervised(tasks, record, data: SweepData, jobs: int,
                    deadline_s: float | None, result_key) -> None:
    """Fan tasks out over the supervised pool: crashed/hung workers are
    replaced and their tasks re-dispatched; a permanently failing cell is
    recorded in ``data.failed`` instead of aborting the grid.  Tasks are
    keyed by canonical request key so a re-dispatched task's late
    duplicate can never double-count a configuration.  The pool forks
    (not spawns), so workers inherit the parent's ``PYTHONHASHSEED``:
    several passes iterate sets of enum members, and bit-identical
    serial/parallel results need every process to break those ties the
    same way."""
    from concurrent.futures import as_completed

    with SupervisedPool(jobs, deadline_s=deadline_s) as pool:
        futures = {}
        for task in tasks:
            name, level_int, widths_t = task[0], task[1], task[2]
            fut = pool.submit(_run_task, task,
                              key=result_key(name, level_int, widths_t[0]),
                              cell=(name, level_int))
            futures[fut] = (name, level_int)
        for fut in as_completed(futures):
            cell = futures[fut]
            try:
                record(fut.result())
            except (CellQuarantined, TaskFailed) as e:
                data.failed.append((cell, repr(e)))
        data.resilience = dict(pool.counters)


def run_sweep(
    workloads: list[Workload] | None = None,
    levels: tuple[Level, ...] = tuple(Level),
    widths: tuple[int, ...] = WIDTHS,
    seed: int = 0,
    check: bool = True,
    verbose: bool = False,
    jobs: int = 1,
    journal: Path | None = None,
    resume: bool = True,
    check_ir: bool = False,
    options: PassOptions | None = None,
    store=None,
    deadline_s: float | None = None,
    engine: str = "auto",
) -> SweepData:
    """Run the evaluation grid.

    ``engine`` selects the simulator core (see
    :func:`repro.sim.simulate`): the default compiled engine executes
    each (workload, level) cell once and replays the trace per width;
    ``"interp"`` forces the tuple interpreter.  Both produce identical
    results, so the engine is *not* part of the journal/store identity.

    ``jobs > 1`` distributes (workload, level) tasks over worker processes.
    With a ``journal`` path, every finished configuration is appended as a
    JSON line; rerunning with ``resume=True`` (the default) reloads the
    finished part and computes only the remainder.  Serial, parallel,
    resumed, and fresh sweeps all produce identical results.
    ``check_ir=True`` runs the invariant verifier between every compiler
    pass of every configuration (the CLI ``--check`` flag); ``options``
    carries ``--disable-pass`` pipeline controls (recorded in the journal
    header, so a resumed sweep never mixes pipelines).

    ``store`` (an :class:`~repro.service.store.ArtifactStore`) adds a
    persistent cross-process layer: configurations whose canonical key
    is already stored are reloaded instead of computed, and every
    computed configuration is written back, so a second sweep against
    the same store is near-free.

    The parallel pool is the resilience layer's
    :class:`~repro.resilience.supervisor.SupervisedPool`: a worker lost
    to a crash or a hang (past ``deadline_s``) is replaced and its task
    re-dispatched, deduplicated by canonical request key, instead of
    killing the whole sweep; counters land in ``SweepData.resilience``.
    A cell that fails permanently (retries exhausted or circuit breaker
    open) raises :class:`SweepError` after the rest of the grid
    finishes; the error carries the partial result as ``.data``.
    """
    workloads = workloads or all_workloads()
    data = SweepData()
    t0 = time.time()
    disable = options.key if options is not None else ()

    fingerprints: dict[str, str] = {}

    def result_key(name: str, level: int, width: int) -> str:
        # "result" blobs hold the sweep's full ConfigResult (phase and
        # per-pass timings included) — distinct from the service's
        # leaner "run" payloads for the same configuration
        fp = fingerprints.get(name)
        if fp is None:
            fp = fingerprints[name] = workload_fingerprint(name)
        return request_key("result", name, level, width, seed=seed,
                           check=check, check_ir=check_ir, disable=disable,
                           fingerprint=fp)

    if journal is not None and resume and journal.exists():
        wanted = {
            (w.name, int(lv), wd)
            for w in workloads for lv in levels for wd in widths
        }
        skipped: list[int] = []
        loaded = read_journal(journal, seed, check, check_ir,
                              on_skip=lambda lineno, raw: skipped.append(lineno),
                              options=options)
        for key, r in loaded.items():
            if key in wanted:
                data.results[key] = r
        data.journal_skipped = len(skipped)
        if skipped:
            print(f"  journal {journal}: skipped {len(skipped)} corrupt "
                  f"line(s) (first at line {skipped[0]}); "
                  f"those configurations will be recomputed", file=sys.stderr)
    data.reused = len(data.results)

    if store is not None:
        # persistent layer: anything the journal did not cover may still
        # be in the artifact store from an earlier sweep (or service
        # traffic).  A corrupt or stale blob is just a miss.
        for w in workloads:
            for level in levels:
                for wd in widths:
                    gk = (w.name, int(level), wd)
                    if gk in data.results:
                        continue
                    payload = store.get(result_key(*gk))
                    if payload is None:
                        continue
                    try:
                        data.results[gk] = ConfigResult(**payload)
                    except TypeError:
                        continue  # foreign schema: recompute
                    data.store_hits += 1

    # one task per (workload, level): the widths of a cell share their
    # transformed code, so they stay together
    tasks = []
    for w in workloads:
        for level in levels:
            missing = tuple(
                wd for wd in widths if (w.name, int(level), wd) not in data.results
            )
            if missing:
                tasks.append((w.name, int(level), missing, seed, check,
                              check_ir, options, engine))

    jf = None
    if journal is not None and tasks:
        journal.parent.mkdir(parents=True, exist_ok=True)
        # a writer that died between tmp-write and rename strands a tmp
        # file next to the journal/cache forever; sweep startup is the
        # janitor (grace-period guarded — a fresh tmp may be live)
        clean_orphan_tmps(journal.parent, recursive=False)
        fresh = not (resume and data.results)
        torn_tail = (not fresh and journal.exists()
                     and not journal.read_bytes().endswith(b"\n"))
        jf = journal.open("w" if fresh else "a")
        if fresh:
            jf.write(json.dumps(_journal_header(seed, check, check_ir,
                                                options)) + "\n")
            jf.flush()
        elif torn_tail:
            # terminate a torn final line so appended records stay parseable
            jf.write("\n")

    def record(rs: list[ConfigResult]) -> None:
        for r in rs:
            data.results[(r.workload, r.level, r.width)] = r
            if jf is not None:
                jf.write(json.dumps(asdict(r)) + "\n")
            if store is not None:
                store.put(result_key(r.workload, r.level, r.width), asdict(r))
        if jf is not None:
            jf.flush()
        data.computed += len(rs)
        if verbose and rs:
            r = rs[0]
            print(f"  {r.workload} {Level(r.level).label} done "
                  f"({time.time() - t0:.1f}s)")

    try:
        if jobs > 1 and len(tasks) > 1:
            _run_supervised(tasks, record, data, jobs, deadline_s,
                            result_key)
        else:
            for task in tasks:
                record(_run_task(task))
    finally:
        if jf is not None:
            jf.close()

    # deterministic merge: identical key order no matter which process
    # finished first or how much came from the journal
    data.results = dict(sorted(data.results.items()))
    data.elapsed = time.time() - t0
    if data.failed:
        print(f"  sweep: {len(data.failed)} cell(s) failed permanently: "
              + ", ".join(f"{c[0]}/L{c[1]}" for c, _ in data.failed),
              file=sys.stderr)
        raise SweepError(
            f"{len(data.failed)} cell(s) failed permanently", data)
    return data


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------


def default_cache_path() -> Path:
    return Path(__file__).resolve().parents[3] / "results" / "sweep.json"


def default_journal_path() -> Path:
    return default_cache_path().with_suffix(".journal.jsonl")


def save_sweep(data: SweepData, path: Path | None = None) -> Path:
    path = path or default_cache_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "elapsed": data.elapsed,
        "results": [asdict(r) for r in data.results.values()],
    }
    # atomic: a reader (or a crash) mid-save must never observe a torn
    # cache; orphaned tmps from dead writers are cleaned at sweep start
    tmp = path.with_name(f".{path.name}-{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
    return path


def load_sweep(path: Path | None = None, require_complete: bool = True) -> SweepData | None:
    """Load a cached sweep.

    By default only a full 40x6x4 grid is usable (the figure renderers
    need every cell); ``require_complete=False`` returns whatever subset
    the file holds, so partial sweeps remain inspectable.
    """
    path = path or default_cache_path()
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("version") not in _COMPAT_VERSIONS:
        return None
    data = SweepData(elapsed=payload.get("elapsed", 0.0))
    for d in payload["results"]:
        r = ConfigResult(**d)
        data.results[(r.workload, r.level, r.width)] = r
    if require_complete:
        expected = len(all_workloads()) * len(Level) * len(WIDTHS)
        if len(data.results) != expected:
            return None
    return data


def sweep_cached(force: bool = False, verbose: bool = False, jobs: int = 1,
                 check_ir: bool = False,
                 options: PassOptions | None = None,
                 store=None, engine: str = "auto") -> SweepData:
    """Load the cached grid or compute and cache it.

    Computation journals to ``results/sweep.journal.jsonl``, so an
    interrupted sweep resumes where it stopped; the journal is removed
    once the full grid is saved.  ``check_ir=True`` forces a fresh sweep
    with the between-pass invariant verifier on (never satisfied from the
    cache, which does not record verification).  A run with disabled
    passes (``options``) bypasses the cache entirely — loading and
    saving — so ablations never poison the canonical grid.  ``store``
    threads a persistent :class:`~repro.service.store.ArtifactStore`
    through the computation (CLI ``--store DIR``).
    """
    ablated = options is not None and bool(options.key)
    if not force and not check_ir and not ablated:
        cached = load_sweep()
        if cached is not None:
            return cached
    if ablated:
        return run_sweep(verbose=verbose, jobs=jobs, check_ir=check_ir,
                         options=options, store=store, engine=engine)
    journal = default_journal_path()
    data = run_sweep(verbose=verbose, jobs=jobs, journal=journal,
                     resume=not force, check_ir=check_ir, store=store,
                     engine=engine)
    save_sweep(data)
    journal.unlink(missing_ok=True)
    return data
