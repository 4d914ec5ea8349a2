"""Width-batched timing replay: the timing half of the fast engine.

The in-order model's dynamic control trace depends only on *values*,
never on the issue width: branch outcomes are value-determined, and the
dependence graph keeps branches in order, so the sequence of (block,
taken-exit) segments recorded by :mod:`repro.sim.blockgen` is identical
for every width of one (workload, level) cell.  What differs per width
is only the *timing* — issue packing, flow/WAW interlocks, and the
branch-per-cycle rule — plus which speculated instructions sit above
each block's exit in that width's schedule.

So each cell executes once and replays N times.  A replay walks the
segment trace through a tiny timing state machine that mirrors the
interpreter's packet loop exactly:

* state between segments is ``(instructions already issued into the
  open packet, in-flight writes as (register, cycles-until-ready))``;
* a segment transition issues the target schedule's instruction prefix
  for that segment (everything up to and including its exit in *that
  width's* block order), mirroring the interpreter's check order:
  packet-full first, then flow/WAW readiness with the idle-packet
  fast-forward, branches closing their packet;
* transitions are memoized per (segment, entry state): steady-state
  loop iterations hit the memo instead of re-walking instructions;
* when the (segment, state) pair recurs — a periodic steady state —
  the replay matches the whole repeating segment pattern against the
  remaining trace with one vectorized NumPy comparison and skips every
  full period at once (cycle and last-issue advance by exact multiples).

Dropping in-flight writes that completed at or before the segment
boundary is exact *because every latency is at least 1*: a completed
write imposes no flow constraint, and its WAW bound ``ready - lat + 1``
cannot exceed the current cycle.  Machines with a sub-1 latency or with
per-kind slot limits fall back to the full simulator
(:class:`ReplayUnsupported`).

Instruction counts come from the same trace: ``bincount(segments) ·
segment_length`` with per-width segment lengths (a width that speculated
more above an exit issues more instructions — exactly as the full
simulator counts them).
"""

from __future__ import annotations

import numpy as np

from ..ir.function import Function
from ..ir.instructions import Instr
from ..machine import MachineConfig
from .blockgen import FALL, ExecPlan
from .errors import SimulationError
from .executor import CONST, CompiledInstr, compile_instr

#: categories that close an issue packet (branch/jump/halt)
from .executor import C_BRANCH, C_HALT, C_JUMP

_CTRL = (C_BRANCH, C_JUMP, C_HALT)


class ReplayUnsupported(Exception):
    """This machine's timing cannot be replayed; run the full simulator."""


class ReplayUnmapped(Exception):
    """A segment exit has no position in the target schedule (the target
    program is not a reschedule of the traced one)."""


def _timing_row(ci: CompiledInstr) -> tuple:
    """What the packet loop needs of one lowered instruction:
    ``(reg_source_keys, dest_key, latency, closes_packet)``, registers
    packed to single ints (``bank << 24 | id``) so the in-flight dict is
    int-keyed — no tuple allocation per lookup."""
    rk = tuple((bank << 24) | key for bank, key in ci.srcs if bank != CONST)
    dk = (ci.dest[0] << 24) | ci.dest[1] if ci.dest is not None else -1
    return (rk, dk, ci.lat, ci.cat in _CTRL)


def traced_rows(plan: ExecPlan) -> dict[int, tuple]:
    """Timing rows of every instruction the traced program lowered, keyed
    by instruction identity (the plan's lowered instructions keep every
    keyed instruction alive, so no id is recycled while the plan lives)."""
    return {id(ci.instr): _timing_row(ci) for ci in plan.instrs}


class ReplaySpec:
    """One target schedule's view of a plan's segments.

    The target is ``func`` — the traced function or a reschedule of it
    (a width clone sharing its instruction objects) — on ``machine``;
    ``traced`` is the plan's :func:`traced_rows`.
    ``rows[s]`` is the tuple of timing rows (see :func:`_timing_row`) the
    target issues for segment ``s``: the target block's scheduled order up
    to and including the exit instruction (located by identity), or the
    whole block for a fall-through.  ``seg_len[s]`` is the per-width
    instruction count.

    Nothing is lowered again: a timing row depends on the instruction and
    the machine's latencies only, so when ``machine`` shares the traced
    machine's latencies each instruction's row is taken from the traced
    program by identity.  An instruction the traced program did not lower
    (or any instruction, under other latencies) is lowered on its own,
    against the traced program's symbols.
    """

    def __init__(self, plan: ExecPlan, func: Function, machine: MachineConfig,
                 traced: dict[int, tuple]):
        if machine.slot_limits:
            raise ReplayUnsupported("per-kind slot limits")
        if min(machine.latencies.values()) < 1:
            raise ReplayUnsupported("latency below 1 cycle")
        prog = plan.prog
        self.labels = [b.label for b in func.blocks]
        if self.labels != prog.labels:
            raise ReplayUnmapped("block structure differs")
        self.plan = plan
        self.name = func.name
        self.width = machine.issue_width if machine.issue_width > 0 else 1 << 30
        known = (traced if machine.latency_key() == prog.machine.latency_key()
                 else {})

        def row(ins: Instr) -> tuple:
            r = known.get(id(ins))
            if r is None:
                r = _timing_row(compile_instr(ins, machine, prog.symbols))
            return r

        rows: list[tuple] = []
        lens: list[int] = []
        pos_maps: dict[int, dict[int, int]] = {}
        block_rows: dict[int, tuple] = {}

        def rows_of(b: int) -> tuple:
            out = block_rows.get(b)
            if out is None:
                out = block_rows[b] = tuple(map(row, func.blocks[b].instrs))
            return out

        for s, b in enumerate(plan.seg_block):
            exit_ci = plan.seg_exit[s]
            if exit_ci is FALL:
                out = rows_of(b)
            else:
                pm = pos_maps.get(b)
                if pm is None:
                    pm = pos_maps[b] = {
                        id(ins): p for p, ins in enumerate(func.blocks[b].instrs)
                    }
                p = pm.get(id(exit_ci.instr))
                if p is None:
                    raise ReplayUnmapped(
                        f"exit {exit_ci.instr!r} not in target block "
                        f"{self.labels[b]}"
                    )
                out = rows_of(b)[: p + 1]
            rows.append(out)
            lens.append(len(out))
        self.rows = rows
        self.seg_len = np.array(lens, dtype=np.int64)


def replay_spec(plan: ExecPlan) -> ReplaySpec:
    """Memoized :class:`ReplaySpec` of the traced program itself."""
    spec = getattr(plan, "_replay_spec", None)
    if spec is None:
        prog = plan.prog
        spec = plan._replay_spec = ReplaySpec(plan, prog.func, prog.machine,
                                              traced_rows(plan))
    return spec


def _transition(rows: tuple, state: tuple, width: int):
    """Issue one segment's instructions from ``state``; returns
    ``(cycle_delta, last_issue_delta, exit_state)``.

    Mirrors the interpreter's packet loop: packet-full check first, then
    operand/WAW readiness (fast-forwarding an idle packet to the stall
    end, closing a non-empty one), control instructions closing their
    packet.  Cycles are relative to segment entry; ``last_issue_delta``
    is -1 when nothing issued (empty fall-through blocks).
    """
    issued, inflight = state
    ready = dict(inflight)
    get = ready.get
    cycle = 0
    dli = -1
    for rk, dk, lat, closes in rows:
        while True:
            if issued >= width:
                issued = 0
                cycle += 1
                continue
            need = cycle
            for k in rk:
                t = get(k, 0)
                if t > need:
                    need = t
            if dk >= 0:
                t = get(dk, 0) - lat + 1
                if t > need:
                    need = t
            if need > cycle:
                if issued == 0:
                    cycle = need
                else:
                    issued = 0
                    cycle += 1
                    continue
            break
        issued += 1
        dli = cycle
        if dk >= 0:
            ready[dk] = cycle + lat
        if closes:
            # a branch (taken or not), jump, or halt closes the packet
            issued = 0
            cycle += 1
    pruned = [(k, v - cycle) for k, v in ready.items() if v > cycle]
    pruned.sort()
    return cycle, dli, (issued, tuple(pruned))


def replay(
    segs: list[int] | np.ndarray,
    spec: ReplaySpec,
    max_cycles: int = 200_000_000,
) -> tuple[int, int]:
    """Replay a segment trace under ``spec``'s machine; returns
    ``(cycles, instructions)`` — identical to full simulation."""
    arr = np.asarray(segs, dtype=np.int64)
    n = int(arr.size)
    n_instr = 0
    if n:
        counts = np.bincount(arr, minlength=len(spec.seg_len))
        n_instr = int(counts @ spec.seg_len)

    rows = spec.rows
    width = spec.width
    name = spec.name
    labels = spec.labels
    seg_block = spec.plan.seg_block
    memo: dict = {}
    seen: dict = {}
    sl = arr.tolist()
    state = (0, ())
    cycle = 0
    last_issue = -1
    i = 0
    while i < n:
        s = sl[i]
        key = (s, state)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _transition(rows[s], state, width)
        dc, dli, nstate = hit
        prev = seen.get(key)
        if prev is None:
            seen.setdefault(key, (i, cycle))
            if len(seen) > 65536:
                seen.clear()
        else:
            # periodic steady state: the trace from the first occurrence
            # repeats — match whole periods against the remaining trace in
            # one vectorized comparison and skip them all
            j, cj = prev
            p = i - j
            dcyc = cycle - cj
            if p > 0 and dcyc > 0:
                m = (n - i) // p
                if m > 0:
                    tile = arr[i : i + m * p].reshape(m, p)
                    bad = np.flatnonzero(~(tile == arr[j:i]).all(axis=1))
                    if bad.size:
                        m = int(bad[0])
                if m > 0:
                    # each period issues (dcyc > 0 implies a control exit),
                    # so last_issue advances by exactly dcyc per period
                    cycle += m * dcyc
                    last_issue += m * dcyc
                    i += m * p
                    seen.clear()
                    if cycle > max_cycles:
                        raise SimulationError(
                            f"exceeded {max_cycles} cycles in {name} "
                            f"(at block {labels[seg_block[s]]})"
                        )
                    continue
            seen[key] = (i, cycle)
        if dli >= 0:
            last_issue = cycle + dli
        cycle += dc
        state = nstate
        i += 1
        if cycle > max_cycles:
            raise SimulationError(
                f"exceeded {max_cycles} cycles in {name} "
                f"(at block {labels[seg_block[s]]})"
            )
    return last_issue + 1, n_instr
