"""Execution-driven, cycle-accurate simulation.

Implements the paper's processor model (see :mod:`repro.machine`): in-order
issue of up to ``issue_width`` instructions per cycle, register interlocks
with deterministic latencies, one branch per cycle (a branch terminates its
issue packet), 100% cache hits.

The simulator is *execution driven*: it computes real values, follows real
branch outcomes, and mutates simulated memory, so transformation
correctness is checked at the same time performance is measured.

The interpreter executes millions of dynamic instructions per sweep, so the
hot loop works on the pre-flattened form built by
:class:`repro.sim.executor.CompiledProgram`: plain instruction tuples
(no attribute chasing) and flat list-indexed register banks (registers are
densely reindexed by ``Function.reindex_regs``; a list index replaces two
dict probes per operand).  Reads of never-written registers surface as
:class:`SimulationError` rather than silently producing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..machine import MachineConfig
from .errors import SimulationError
from .executor import (
    C_ALU,
    C_ALU1,
    C_ALU2,
    C_ALUN,
    C_BRANCH,
    C_HALT,
    C_JUMP,
    C_LOAD,
    C_NOP,
    C_STORE,
    C_VLOAD,
    C_VSTORE,
    CONST,
    CompiledProgram,
    FP_BANK,
    INT_BANK,
    compiled_program,
)
from .memory import Memory, SimMemoryError

#: engine used by ``simulate(engine="auto")``.  "compiled" is the
#: closure-compiled execute-then-replay engine (bit-identical results,
#: see DESIGN.md §13); "interp" is the tuple interpreter below.
DEFAULT_ENGINE = "compiled"


@dataclass
class RunResult:
    """Outcome of simulating one function to completion."""

    cycles: int
    instructions: int
    iregs: dict[int, int]
    fregs: dict[int, float]
    memory: Memory
    block_visits: dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def simulate(
    func: Function,
    machine: MachineConfig,
    memory: Memory | None = None,
    iregs: dict[int, int] | None = None,
    fregs: dict[int, float] | None = None,
    max_cycles: int = 200_000_000,
    collect_block_visits: bool = False,
    trace: list | None = None,
    engine: str = "auto",
) -> RunResult:
    """Run ``func`` to completion on the given machine configuration.

    ``iregs`` / ``fregs`` provide live-in register values; ``memory``
    supplies bound arrays and the symbol table.  Execution starts at the
    entry block and ends when control falls off the end of the last block.
    Program lowering is memoized per (function, machine, symbol table).

    ``engine`` selects the simulator core: ``"compiled"`` executes
    closure-compiled blocks once and replays the trace for timing
    (results are bit-identical to the interpreter); ``"interp"`` forces
    the tuple interpreter; ``"auto"`` (default) uses
    :data:`DEFAULT_ENGINE` but falls back to the interpreter when a
    per-instruction issue ``trace`` or ``collect_block_visits`` is
    requested, or when the program/machine is outside the compiled
    engine's scope (slot-limit ablations, sub-unit latencies).
    """
    memory = memory if memory is not None else Memory()
    prog = compiled_program(func, machine, memory.symbols)
    if engine == "auto":
        engine = DEFAULT_ENGINE
    if engine == "compiled" and trace is None and not collect_block_visits:
        from .blockgen import EngineUnsupported
        from .replay import ReplayUnsupported

        try:
            return run_traced(prog, memory, iregs or {}, fregs or {},
                              max_cycles)
        except (EngineUnsupported, ReplayUnsupported):
            pass  # outside the compiled engine's scope: interpret
    return run_compiled(
        prog, memory, iregs or {}, fregs or {}, max_cycles,
        collect_block_visits, trace,
    )


def run_traced(
    prog: CompiledProgram,
    memory: Memory,
    iregs: dict[int, int],
    fregs: dict[int, float],
    max_cycles: int = 200_000_000,
) -> RunResult:
    """The compiled engine: execute blocks once, replay the trace for
    timing.  Raises ``EngineUnsupported``/``ReplayUnsupported`` (before
    touching ``memory``) when the program or machine is out of scope."""
    from .blockgen import exec_plan, execute_plan
    from .replay import replay, replay_spec

    plan = exec_plan(prog)
    spec = replay_spec(plan)  # validate machine before executing
    segs, ivals, fvals = execute_plan(plan, memory, iregs, fregs, max_cycles)
    cycles, n_instr = replay(segs, spec, max_cycles)
    return RunResult(cycles, n_instr, _bank_dict(ivals), _bank_dict(fvals),
                     memory, {})


def _bank_dict(vals: list) -> dict:
    """Registers that hold a value (live-in or written) as an id->value map."""
    return {i: v for i, v in enumerate(vals) if v is not None}


def run_compiled(
    prog: CompiledProgram,
    memory: Memory,
    iregs: dict[int, int],
    fregs: dict[int, float],
    max_cycles: int = 200_000_000,
    collect_block_visits: bool = False,
    trace: list | None = None,
) -> RunResult:
    machine = prog.machine
    width = machine.issue_width if machine.issue_width > 0 else 1 << 30
    slot_limits = machine.slot_limits

    mem = memory._words  # hot-path access
    ni, nf = prog.n_iregs, prog.n_fregs
    if iregs:
        ni = max(ni, max(iregs) + 1)
    if fregs:
        nf = max(nf, max(fregs) + 1)
    ivals: list = [None] * ni
    fvals: list = [None] * nf
    for r, v in iregs.items():
        ivals[r] = v
    for r, v in fregs.items():
        fvals[r] = v
    # vector banks have no live-ins: vectors exist only between a pack (or
    # vector load) and its extracts/stores inside the compiled function
    vivals: list = [None] * prog.n_viregs
    vfvals: list = [None] * prog.n_vfregs
    iready = [0] * ni
    fready = [0] * nf
    viready = [0] * prog.n_viregs
    vfready = [0] * prog.n_vfregs
    # indexed by bank tag; the CONST slot is never dereferenced
    banks_vals = (ivals, fvals, None, vivals, vfvals)
    banks_ready = (iready, fready, None, viready, vfready)

    codes = prog.flat
    nexts = prog.next_index
    labels = prog.labels
    visits: dict[str, int] = {}

    cycle = 0
    n_instr = 0
    last_issue = -1
    bi = 0
    ii = 0

    # Skip leading empty blocks.
    while bi < len(codes) and not codes[bi]:
        if collect_block_visits:
            visits[labels[bi]] = visits.get(labels[bi], 0) + 1
        nxt = nexts[bi]
        if nxt is None:
            return RunResult(0, 0, _bank_dict(ivals), _bank_dict(fvals),
                             memory, visits)
        bi = nxt

    if collect_block_visits:
        visits[labels[bi]] = 1

    code = codes[bi]
    ncode = len(code)
    # hot-loop locals (module-global loads are slower inside the loop)
    ALU2, ALU1, LOAD, STORE, BRANCH = C_ALU2, C_ALU1, C_LOAD, C_STORE, C_BRANCH
    JUMP, HALT = C_JUMP, C_HALT
    ALUN, VLOAD, VSTORE = C_ALUN, C_VLOAD, C_VSTORE
    KONST = CONST
    running = True
    while running:
        if cycle > max_cycles:
            raise SimulationError(
                f"exceeded {max_cycles} cycles in {prog.func.name} "
                f"(at block {labels[bi]})"
            )
        issued = 0
        slot_used: dict | None = None
        # issue packet for this cycle
        while True:
            if ii >= ncode:
                # fall through to next block (costs no cycles by itself)
                nxt = nexts[bi]
                if nxt is None:
                    running = False
                    break
                bi = nxt
                code = codes[bi]
                ncode = len(code)
                ii = 0
                if collect_block_visits:
                    lab = labels[bi]
                    visits[lab] = visits.get(lab, 0) + 1
                continue
            if issued >= width:
                break
            cat, fn, srcs, rsrcs, db, di, lat, meta = code[ii]

            # operand readiness (flow interlock); at most 3 register
            # sources outside variadic packs, so the loop is unrolled over
            # the flattened pairs with a generic tail for wider packs
            need = cycle
            lr = len(rsrcs)
            if lr:
                t = banks_ready[rsrcs[0]][rsrcs[1]]
                if t > need:
                    need = t
                if lr > 2:
                    t = banks_ready[rsrcs[2]][rsrcs[3]]
                    if t > need:
                        need = t
                    if lr > 4:
                        t = banks_ready[rsrcs[4]][rsrcs[5]]
                        if t > need:
                            need = t
                        if lr > 6:
                            for j in range(6, lr, 2):
                                t = banks_ready[rsrcs[j]][rsrcs[j + 1]]
                                if t > need:
                                    need = t
            # WAW interlock: later write must complete strictly later
            if db >= 0:
                t = banks_ready[db][di] - lat + 1
                if t > need:
                    need = t
            if need > cycle:
                if issued == 0:
                    # nothing issued yet: fast-forward to the stall end
                    cycle = need
                else:
                    break  # end this packet; retry next cycle
            if slot_limits:
                kind = meta[0]
                lim = slot_limits.get(kind)
                if lim is not None:
                    if slot_used is None:
                        slot_used = {}
                    used = slot_used.get(kind, 0)
                    if used >= lim:
                        break
                    slot_used[kind] = used + 1

            # ---- issue: execute semantics -------------------------------
            if cat == ALU2:
                b0, k0, b1, k1 = srcs
                a = k0 if b0 == KONST else banks_vals[b0][k0]
                b = k1 if b1 == KONST else banks_vals[b1][k1]
                try:
                    res = fn(a, b)
                except ZeroDivisionError:
                    raise SimulationError(f"division by zero: {meta[2]!r}") from None
                except TypeError:
                    if a is None or b is None:
                        raise SimulationError(
                            f"read of uninitialized register: {meta[2]!r}"
                        ) from None
                    raise
                banks_vals[db][di] = res
                banks_ready[db][di] = cycle + lat
            elif cat == LOAD:
                b0, k0, b1, k1 = srcs
                addr = -1
                try:
                    addr = (k0 if b0 == KONST else ivals[k0]) + (
                        k1 if b1 == KONST else ivals[k1]
                    )
                    banks_vals[db][di] = mem[addr >> 2]
                except KeyError:
                    raise SimMemoryError(
                        f"load from uninitialized address {addr:#x}: {meta[2]!r}"
                    ) from None
                except TypeError:
                    raise SimulationError(
                        f"read of uninitialized register: {meta[2]!r}"
                    ) from None
                banks_ready[db][di] = cycle + lat
            elif cat == STORE:
                b0, k0, b1, k1, bv, kv = srcs
                v = kv if bv == KONST else banks_vals[bv][kv]
                try:
                    addr = (k0 if b0 == KONST else ivals[k0]) + (
                        k1 if b1 == KONST else ivals[k1]
                    )
                except TypeError:
                    raise SimulationError(
                        f"read of uninitialized register: {meta[2]!r}"
                    ) from None
                if v is None:
                    raise SimulationError(
                        f"store of uninitialized register: {meta[2]!r}"
                    )
                mem[addr >> 2] = v
            elif cat == BRANCH:
                b0, k0, b1, k1 = srcs
                v0 = k0 if b0 == KONST else banks_vals[b0][k0]
                v1 = k1 if b1 == KONST else banks_vals[b1][k1]
                if v0 is None or v1 is None:
                    raise SimulationError(
                        f"read of uninitialized register: {meta[2]!r}"
                    )
                n_instr += 1
                issued += 1
                last_issue = cycle
                if trace is not None:
                    trace.append((cycle, meta[2]))
                if fn(v0, v1):
                    bi = meta[1]
                    code = codes[bi]
                    ncode = len(code)
                    ii = 0
                    if collect_block_visits:
                        lab = labels[bi]
                        visits[lab] = visits.get(lab, 0) + 1
                else:
                    ii += 1
                break  # branch terminates the issue packet
            elif cat == ALU1:
                b0, k0 = srcs
                a = k0 if b0 == KONST else banks_vals[b0][k0]
                try:
                    res = fn(a)
                except TypeError:
                    if a is None:
                        raise SimulationError(
                            f"read of uninitialized register: {meta[2]!r}"
                        ) from None
                    raise
                banks_vals[db][di] = res
                banks_ready[db][di] = cycle + lat
            elif cat == VLOAD:
                # fn holds the lane count; lanes occupy consecutive words
                b0, k0, b1, k1 = srcs
                addr = -1
                try:
                    addr = (k0 if b0 == KONST else ivals[k0]) + (
                        k1 if b1 == KONST else ivals[k1]
                    )
                    w = addr >> 2
                    banks_vals[db][di] = tuple(mem[w + j] for j in range(fn))
                except KeyError:
                    raise SimMemoryError(
                        f"load from uninitialized address {addr:#x}: {meta[2]!r}"
                    ) from None
                except TypeError:
                    raise SimulationError(
                        f"read of uninitialized register: {meta[2]!r}"
                    ) from None
                banks_ready[db][di] = cycle + lat
            elif cat == VSTORE:
                b0, k0, b1, k1, bv, kv = srcs
                v = banks_vals[bv][kv]
                try:
                    addr = (k0 if b0 == KONST else ivals[k0]) + (
                        k1 if b1 == KONST else ivals[k1]
                    )
                except TypeError:
                    raise SimulationError(
                        f"read of uninitialized register: {meta[2]!r}"
                    ) from None
                if v is None:
                    raise SimulationError(
                        f"store of uninitialized register: {meta[2]!r}"
                    )
                w = addr >> 2
                for j in range(fn):
                    mem[w + j] = v[j]
            elif cat == ALUN:
                # variadic pack: gather one lane per source into a tuple
                vals = []
                for j in range(0, len(srcs), 2):
                    bb = srcs[j]
                    kk = srcs[j + 1]
                    v = kk if bb == KONST else banks_vals[bb][kk]
                    if v is None:
                        raise SimulationError(
                            f"read of uninitialized register: {meta[2]!r}"
                        )
                    vals.append(v)
                banks_vals[db][di] = tuple(vals)
                banks_ready[db][di] = cycle + lat
            elif cat == HALT:
                n_instr += 1
                issued += 1
                last_issue = cycle
                if trace is not None:
                    trace.append((cycle, meta[2]))
                running = False
                break
            elif cat == JUMP:
                n_instr += 1
                issued += 1
                last_issue = cycle
                if trace is not None:
                    trace.append((cycle, meta[2]))
                bi = meta[1]
                code = codes[bi]
                ncode = len(code)
                ii = 0
                if collect_block_visits:
                    lab = labels[bi]
                    visits[lab] = visits.get(lab, 0) + 1
                break
            # C_NOP: just consumes an issue slot

            n_instr += 1
            issued += 1
            last_issue = cycle
            if trace is not None:
                trace.append((cycle, meta[2]))
            ii += 1

        cycle += 1

    # The paper's timing convention (its worked examples) counts a loop body
    # as ending one cycle after the final issue, so total cycles is
    # last_issue + 1.  In-flight completion beyond that is not charged.
    return RunResult(last_issue + 1, n_instr, _bank_dict(ivals),
                     _bank_dict(fvals), memory, visits)
