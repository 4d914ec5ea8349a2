"""End-to-end harness: kernel -> compile at a level -> simulate -> check.

This is the public "just run it" API::

    ck = compile_kernel(kernel, Level.LEV4, issue8())
    out = run_compiled_kernel(ck, arrays={"A": a, "B": b, "C": c},
                              scalars={"n": 100})
    out.cycles, out.arrays["C"], out.scalars.get("s")

``compile_kernel`` is a composition of three stages with strictly widening
dependence on the configuration, so sweeps can share the early stages:

1. :func:`lower_conv` — lowering + classical optimization.  Depends only on
   the kernel (level- and machine-independent).
2. :func:`ilp_transform` — the paper's ILP transformations.  Depends on the
   level and on the machine's *latencies* only
   (:meth:`repro.machine.MachineConfig.latency_key`): machines differing
   only in issue width share transformed code.
3. :func:`schedule_kernel` — list scheduling.  Depends on the full machine
   (the issue width shapes every packet).

Stages 2 and 3 mutate the function in place; reuse an earlier stage's
result across several downstream calls by scheduling a ``.clone()`` of it.

Each stage appends to one unified
:class:`~repro.passes.stats.PipelineReport` (per-pass rewrites, wall
time, instruction-count deltas); ``options`` takes a
:class:`~repro.passes.manager.PassOptions` to disable registered passes
or dump IR after them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .frontend.ast import Kernel, Ty
from .frontend.lower import LoweredKernel, lower_kernel
from .ir.block import Block
from .ir.function import Function
from .machine import MachineConfig
from .opt.driver import run_conv
from .passes import PassOptions, PipelineReport
from .pipeline import Level, apply_ilp_transforms, schedule_function
from .regalloc import RegisterUsage, measure_register_usage
from .schedule.listsched import Schedule
from .schedule.superblock import SuperblockLoop
from .sim import Memory, simulate


@dataclass
class CompiledKernel:
    lowered: LoweredKernel
    level: Level
    machine: MachineConfig
    sb: SuperblockLoop
    schedules: dict[str, Schedule]
    report: PipelineReport
    #: register usage colored by ``schedule_kernel(check=True)``, kept so
    #: callers that need the numbers do not color the kernel again
    usage: RegisterUsage | None = None

    @property
    def func(self):
        return self.lowered.func

    @property
    def inner_makespan(self) -> int:
        return self.schedules[self.sb.header].makespan


def _clone_stage(obj):
    """Deep-copy a stage result, sharing the immutable kernel AST.

    The cloned ``Function``/``SuperblockLoop``/``scalar_regs`` stay mutually
    consistent (one deepcopy memo), so the clone can be mutated by later
    stages without disturbing the original.
    """
    memo = {id(obj.lowered.kernel): obj.lowered.kernel}
    return copy.deepcopy(obj, memo)


@dataclass
class ConvKernel:
    """Stage-1 result: lowered + classically optimized (level-independent)."""

    lowered: LoweredKernel
    report: PipelineReport

    def clone(self) -> "ConvKernel":
        return _clone_stage(self)


@dataclass
class TransformedKernel:
    """Stage-2 result: ILP-transformed but not yet scheduled.

    Width-independent: only the machine's latencies were observed
    (tree height reduction), so one ``TransformedKernel`` serves every
    issue width via ``schedule_kernel(tk.clone(), machine)``.
    """

    lowered: LoweredKernel
    level: Level
    sb: SuperblockLoop
    report: PipelineReport

    def clone(self) -> "TransformedKernel":
        """Clone for scheduling: fresh function/blocks/instruction lists,
        *shared* instruction and operand objects.

        The scheduling stage only reorders instruction lists — instruction
        objects are mutated exclusively by the ILP stage (superblock
        formation rewrites targets) — so structural sharing is safe here
        and far cheaper than a deep copy.  Do not feed a clone back into
        :func:`ilp_transform`.  The report is forked so each width's
        schedule extends its own copy of the shared transform history.
        """
        lk = self.lowered
        f = lk.func
        nf = Function(f.name, pinned_regs=set(f.pinned_regs),
                      _next_reg=dict(f._next_reg), _next_label=f._next_label)
        bmap: dict[int, Block] = {}
        for b in f.blocks:
            nb = Block(b.label, list(b.instrs))
            nf.blocks.append(nb)
            bmap[id(b)] = nb
        nlk = LoweredKernel(lk.kernel, nf, lk.scalar_regs, lk.counted,
                            lk.inner_header, lk.inner_kind)
        sb = self.sb
        nsb = SuperblockLoop(
            nf, bmap.get(id(sb.body), sb.body),
            bmap.get(id(sb.preheader), sb.preheader), sb.counted,
            set(sb.offtrace),
            None if sb.exit_block is None
            else bmap.get(id(sb.exit_block), sb.exit_block),
        )
        return TransformedKernel(nlk, self.level, nsb, self.report.fork())


def lower_conv(kernel: Kernel, options: PassOptions | None = None) -> ConvKernel:
    """Stage 1: lower a kernel and run the classical (conventional)
    optimizations.  Depends only on the kernel itself."""
    lk = lower_kernel(kernel)
    report = run_conv(lk.func, lk.counted, lk.live_out_exit, options=options)
    return ConvKernel(lk, report)


def ilp_transform(
    conv: ConvKernel,
    level: Level,
    machine: MachineConfig,
    unroll_factor: int | None = None,
    thr_unit_latency: bool = False,
    check: bool = False,
    options: PassOptions | None = None,
) -> TransformedKernel:
    """Stage 2: apply the paper's ILP transformations at ``level``.

    Mutates ``conv``'s function in place (pass ``conv.clone()`` to keep the
    stage-1 result reusable).  Observes only ``machine.latency_key()``.
    ``check=True`` runs the invariant verifier between every pass.
    """
    lk = conv.lowered
    counted = lk.counted[lk.inner_header]
    sb, report = apply_ilp_transforms(
        lk.func,
        counted,
        level,
        machine,
        lk.live_out_exit,
        unroll_factor,
        thr_unit_latency=thr_unit_latency,
        check=check,
        options=options,
        report=conv.report,
    )
    return TransformedKernel(lk, level, sb, report)


def schedule_kernel(
    tk: TransformedKernel, machine: MachineConfig, check: bool = False,
    options: PassOptions | None = None, scheduler: str = "list",
    solver_budget: int | None = None, solver_store=None,
) -> CompiledKernel:
    """Stage 3: schedule a transformed kernel for a concrete machine.

    Mutates ``tk``'s function in place (pass ``tk.clone()`` to schedule the
    same transformed code for several widths).  ``check=True`` verifies
    invariants on the scheduled code and the register coloring.
    ``scheduler`` selects the backend (``"list"`` heuristic or
    ``"optimal"`` exact, see :mod:`repro.optsched`).
    """
    lk = tk.lowered
    doall = lk.inner_kind == "doall"
    report = tk.report.fork()
    schedules = schedule_function(
        lk.func, machine, lk.live_out_exit, sb=tk.sb, doall=doall,
        check=check, options=options, report=report,
        scheduler=scheduler, solver_budget=solver_budget,
        solver_store=solver_store,
    )
    usage = (measure_register_usage(lk.func, lk.live_out_exit, check=True)
             if check else None)
    return CompiledKernel(lk, tk.level, machine, tk.sb, schedules, report,
                          usage)


def compile_kernel(
    kernel: Kernel,
    level: Level,
    machine: MachineConfig,
    unroll_factor: int | None = None,
    thr_unit_latency: bool = False,
    check: bool = False,
    options: PassOptions | None = None,
    scheduler: str = "list",
    solver_budget: int | None = None,
    solver_store=None,
) -> CompiledKernel:
    """Lower, classically optimize, ILP-transform, and schedule a kernel.

    ``check=True`` turns on the between-pass invariant verifier for every
    stage (the CLI ``--check`` flag); ``options`` carries pass disabling
    and IR printing controls (``--disable-pass``, ``--print-after``);
    ``scheduler`` selects the schedule backend (``"list"``/``"optimal"``).
    """
    tk = ilp_transform(
        lower_conv(kernel, options=options), level, machine, unroll_factor,
        thr_unit_latency=thr_unit_latency, check=check, options=options,
    )
    return schedule_kernel(tk, machine, check=check, options=options,
                           scheduler=scheduler, solver_budget=solver_budget,
                           solver_store=solver_store)


@dataclass
class KernelRun:
    cycles: int
    instructions: int
    arrays: dict[str, np.ndarray]
    scalars: dict[str, float | int]

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def bind_inputs(
    lowered: LoweredKernel,
    arrays: dict[str, np.ndarray] | None = None,
    scalars: dict[str, float | int] | None = None,
) -> tuple[Memory, dict[int, int], dict[int, float]]:
    """Bind workload data for execution: arrays into simulated memory,
    input scalars into register live-in maps.

    Every declared array must be provided with matching total size; input
    scalars default to 0.  Shared by the cycle-accurate simulator
    (:func:`run_compiled_kernel`) and the reference evaluator
    (:mod:`repro.check.refeval`), so both execute from identical state.
    """
    arrays = arrays or {}
    scalars = scalars or {}
    kernel = lowered.kernel
    mem = Memory()
    for name, decl in kernel.arrays.items():
        if name not in arrays:
            raise ValueError(f"array {name!r} not bound")
        data = np.asarray(arrays[name])
        if data.size != decl.size:
            raise ValueError(
                f"array {name!r}: expected {decl.size} elements, got {data.size}"
            )
        mem.bind_array(name, data)

    iregs: dict[int, int] = {}
    fregs: dict[int, float] = {}
    for name, reg in lowered.scalar_regs.items():
        ty = kernel.scalars.get(name)
        if ty is None:
            continue  # loop variables and such: defined by the code
        val = scalars.get(name, 0)
        if ty is Ty.FP:
            fregs[reg.id] = float(val)
        else:
            iregs[reg.id] = int(val)
    return mem, iregs, fregs


def collect_outputs(
    lowered: LoweredKernel,
    mem: Memory,
    iregs: dict[int, int],
    fregs: dict[int, float],
    scalars_in: dict[str, float | int] | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, float | int]]:
    """Read final array contents and declared output scalars back out of an
    execution's end state (counterpart of :func:`bind_inputs`)."""
    scalars_in = scalars_in or {}
    kernel = lowered.kernel
    out_arrays = {
        name: mem.read_array(
            name, decl.dims,
            np.float64 if decl.ty is Ty.FP else np.int64,
        )
        for name, decl in kernel.arrays.items()
    }
    out_scalars: dict[str, float | int] = {}
    for name in kernel.outputs:
        reg = lowered.scalar_regs[name]
        bank = fregs if reg.is_fp else iregs
        if reg.id in bank:
            out_scalars[name] = bank[reg.id]
        else:  # never written: the input value flows through
            out_scalars[name] = scalars_in.get(name, 0)
    return out_arrays, out_scalars


def run_compiled_kernel(
    ck: CompiledKernel,
    arrays: dict[str, np.ndarray] | None = None,
    scalars: dict[str, float | int] | None = None,
    max_cycles: int = 200_000_000,
    engine: str = "auto",
) -> KernelRun:
    """Simulate a compiled kernel on bound data.

    Every declared array must be provided with matching total size; input
    scalars default to 0.  Returns final array contents and the kernel's
    declared output scalars.  ``engine`` selects the simulator core
    (see :func:`repro.sim.simulate`).
    """
    mem, iregs, fregs = bind_inputs(ck.lowered, arrays, scalars)
    res = simulate(ck.func, ck.machine, mem, iregs, fregs,
                   max_cycles=max_cycles, engine=engine)
    out_arrays, out_scalars = collect_outputs(
        ck.lowered, mem, res.iregs, res.fregs, scalars or {}
    )
    return KernelRun(res.cycles, res.instructions, out_arrays, out_scalars)


class BatchedRunner:
    """Execute a (workload, level) cell once, time it for many widths.

    The dynamic trace of the in-order model depends only on values, so
    the issue widths of one cell share it: construct the runner from any
    one width's :class:`CompiledKernel` (this executes the program once,
    valuewise) and call :meth:`run` per width to get that machine's
    cycle/instruction counts by trace replay — bit-identical to full
    simulation, at a fraction of the cost.

    End-state outputs are shared across widths (the scheduler preserves
    the values of memory and live-out scalars; speculation only touches
    dead or renamed registers).  A width whose schedule the replayer
    cannot map (or a machine outside replay scope) transparently falls
    back to a full simulation with freshly bound inputs —
    ``last_fallback`` reports which path the most recent :meth:`run`
    took, so callers can re-validate fallback outputs if they need to.

    Construction raises ``EngineUnsupported``/``ReplayUnsupported`` when
    the cell cannot use the compiled engine at all; callers then run
    each width the classic way.
    """

    def __init__(
        self,
        ck: CompiledKernel,
        arrays: dict[str, np.ndarray] | None = None,
        scalars: dict[str, float | int] | None = None,
        max_cycles: int = 200_000_000,
    ):
        from .sim import ReplaySpec, compiled_program, exec_plan, execute_plan, replay
        from .sim.replay import traced_rows
        from .sim.simulator import _bank_dict

        self._arrays_in = arrays
        self._scalars_in = scalars
        self._max_cycles = max_cycles
        self.last_fallback = False
        mem, iregs, fregs = bind_inputs(ck.lowered, arrays, scalars)
        prog = compiled_program(ck.func, ck.machine, mem.symbols)
        self._plan = exec_plan(prog)
        self._rows = traced_rows(self._plan)
        # validate before executing
        spec = ReplaySpec(self._plan, prog.func, prog.machine, self._rows)
        self._segs, ivals, fvals = execute_plan(
            self._plan, mem, iregs, fregs, max_cycles
        )
        self._replay = replay
        cycles, n_instr = replay(self._segs, spec, max_cycles)
        out_arrays, out_scalars = collect_outputs(
            ck.lowered, mem, _bank_dict(ivals), _bank_dict(fvals), scalars or {}
        )
        self.arrays = out_arrays
        self.scalars = out_scalars
        self._first = KernelRun(cycles, n_instr, out_arrays, out_scalars)
        self._first_ck = ck

    def run(self, ck: CompiledKernel) -> KernelRun:
        """Cycle/instruction counts for ``ck``'s machine, with the shared
        end-state outputs.  ``ck`` must be a reschedule of the traced
        kernel (a width clone of the same transformed code).

        The width's replay view is built from ``ck``'s block layout and
        the timing rows the traced program already lowered — the program
        is not lowered again per width."""
        from .sim import ReplaySpec, ReplayUnmapped, ReplayUnsupported

        self.last_fallback = False
        if ck is self._first_ck:
            return self._first
        try:
            spec = ReplaySpec(self._plan, ck.func, ck.machine, self._rows)
        except (ReplayUnmapped, ReplayUnsupported):
            self.last_fallback = True
            return run_compiled_kernel(
                ck, self._arrays_in, self._scalars_in, self._max_cycles
            )
        cycles, n_instr = self._replay(self._segs, spec, self._max_cycles)
        return KernelRun(cycles, n_instr, self.arrays, self.scalars)
