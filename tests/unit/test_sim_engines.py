"""Differential tests between the two simulator engines.

The block-compiled trace/replay core (``engine="compiled"``) must be
observationally identical to the reference interpreter
(``engine="interp"``): same cycles, same instruction counts, same end
state, and the same ``SimulationError`` diagnostics — the fast engine
is only admissible because no caller can tell it ran.

Three layers of evidence:

* an engine-vs-engine matrix over nine oracle kernels x all five
  transformation levels x four issue widths;
* the width-batched path (execute once, replay timing per width —
  :class:`repro.harness.BatchedRunner`) against independent full
  simulations of every width;
* error-semantics parity: reads of never-written registers, division
  by zero, and unmapped memory must raise the same exception type with
  the same message from generated block code as from the interpreter —
  never a ``NameError``/``IndexError`` leaking codegen internals.
"""

from __future__ import annotations

import copy
import importlib

import numpy as np
import pytest

from repro.harness import (
    BatchedRunner,
    ilp_transform,
    lower_conv,
    run_compiled_kernel,
    schedule_kernel,
)
from repro.ir import parse_function
from repro.ir.instructions import Kind
from repro.machine import MachineConfig, unlimited
from repro.pipeline import ALL_LEVELS, Level
from repro.sim import Memory, SimMemoryError, SimulationError, simulate
from repro.workloads import get_workload

ORACLE_KERNELS = (
    "add", "sum", "dotprod", "maxval", "merge",
    "LWS-1", "NAS-4", "SRS-1", "TFS-2",
)
WIDTHS = (1, 2, 4, 8)


def _assert_runs_equal(a, b, ctx=""):
    assert a.cycles == b.cycles, f"{ctx}: cycles {a.cycles} != {b.cycles}"
    assert a.instructions == b.instructions, (
        f"{ctx}: instructions {a.instructions} != {b.instructions}"
    )
    assert set(a.arrays) == set(b.arrays), ctx
    for name in a.arrays:
        assert np.array_equal(
            np.asarray(a.arrays[name]), np.asarray(b.arrays[name])
        ), f"{ctx}: array {name} differs"
    assert a.scalars == b.scalars, f"{ctx}: scalars differ"


class TestEngineMatrix:
    """interpreter vs compiled-block engine across the oracle corpus."""

    @pytest.mark.parametrize("name", ORACLE_KERNELS)
    def test_engines_identical(self, name):
        w = get_workload(name)
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        for level in ALL_LEVELS:
            tk = ilp_transform(conv.clone(), level, MachineConfig(issue_width=1))
            for width in WIDTHS:
                ck = schedule_kernel(tk.clone(), MachineConfig(issue_width=width))
                interp = run_compiled_kernel(
                    ck, arrays=arrays, scalars=scalars, engine="interp"
                )
                compiled = run_compiled_kernel(
                    ck, arrays=arrays, scalars=scalars, engine="compiled"
                )
                _assert_runs_equal(
                    interp, compiled, f"{name}/{level.label}/w{width}"
                )


class TestBatchedReplayVsFullSim:
    """execute-once / replay-per-width vs independent full simulations."""

    @pytest.mark.parametrize("name", ["dotprod", "maxval", "NAS-4", "TFS-2"])
    def test_batched_identical(self, name):
        w = get_workload(name)
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        for level in (Level.CONV, Level.LEV2, Level.LEV4):
            tk = ilp_transform(conv.clone(), level, MachineConfig(issue_width=1))
            cks = [
                schedule_kernel(tk.clone(), MachineConfig(issue_width=width))
                for width in WIDTHS
            ]
            runner = BatchedRunner(cks[0], arrays, scalars)
            for ck, width in zip(cks, WIDTHS):
                got = runner.run(ck)
                assert not runner.last_fallback, (
                    f"{name}/{level.label}/w{width} unexpectedly fell back"
                )
                want = run_compiled_kernel(
                    ck, arrays=arrays, scalars=scalars, engine="interp"
                )
                _assert_runs_equal(got, want, f"{name}/{level.label}/w{width}")

    def test_batched_falls_back_on_foreign_schedule(self):
        # a kernel transformed separately shares no instruction objects,
        # so its exits cannot be mapped onto the trace: the runner must
        # fall back to a full simulation, not crash or mis-time
        w = get_workload("dotprod")
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        tk1 = ilp_transform(conv.clone(), Level.LEV4, MachineConfig(issue_width=1))
        tk2 = ilp_transform(conv.clone(), Level.LEV4, MachineConfig(issue_width=1))
        ck1 = schedule_kernel(tk1, MachineConfig(issue_width=1))
        ck2 = schedule_kernel(tk2, MachineConfig(issue_width=8))
        runner = BatchedRunner(ck1, arrays, scalars)
        got = runner.run(ck2)
        assert runner.last_fallback
        want = run_compiled_kernel(
            ck2, arrays=arrays, scalars=scalars, engine="interp"
        )
        _assert_runs_equal(got, want, "foreign schedule fallback")

    def test_batched_falls_back_on_slot_limits(self):
        # slot-limited machines have no replay model; the batched path
        # must degrade to full simulation with identical results
        w = get_workload("sum")
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        tk = ilp_transform(conv.clone(), Level.LEV2, MachineConfig(issue_width=1))
        base = schedule_kernel(tk.clone(), MachineConfig(issue_width=1))
        limited_machine = MachineConfig(issue_width=4, slot_limits={Kind.LOAD: 1})
        limited = schedule_kernel(tk.clone(), limited_machine)
        runner = BatchedRunner(base, arrays, scalars)
        got = runner.run(limited)
        assert runner.last_fallback
        want = run_compiled_kernel(
            limited, arrays=arrays, scalars=scalars, engine="interp"
        )
        _assert_runs_equal(got, want, "slot-limit fallback")


class TestLowerOncePerCell:
    """A replayed cell lowers its program once: every width's replay view
    reuses the traced width's per-instruction timing rows."""

    CELLS = (("sum", Level.CONV),      # scalar loop
             ("add", Level.LEV5),      # SLP-vectorized loop
             ("maxval", Level.LEV4))   # superblock with side exits

    @staticmethod
    def _count_lowerings(monkeypatch) -> list:
        # the package re-exports a ``replay`` function over the module name
        replay = importlib.import_module("repro.sim.replay")
        executor = importlib.import_module("repro.sim.executor")
        calls = []
        orig = executor.compile_instr

        def counting(ins, machine, symbols):
            calls.append(ins)
            return orig(ins, machine, symbols)

        monkeypatch.setattr(executor, "compile_instr", counting)
        monkeypatch.setattr(replay, "compile_instr", counting)
        return calls

    @staticmethod
    def _cell(name, level):
        w = get_workload(name)
        tk = ilp_transform(lower_conv(w.build()), level,
                           MachineConfig(issue_width=1))
        cks = [schedule_kernel(tk.clone(), MachineConfig(issue_width=width))
               for width in WIDTHS]
        return w.make_inputs(0), cks

    @pytest.mark.parametrize("name,level", CELLS)
    def test_one_program_lowered_per_cell(self, monkeypatch, name, level):
        (arrays, scalars), cks = self._cell(name, level)
        calls = self._count_lowerings(monkeypatch)
        runner = BatchedRunner(cks[0], arrays, scalars)
        got = [runner.run(ck) for ck in cks]
        assert not runner.last_fallback
        # exactly one CompiledProgram's worth of lowering: each
        # instruction of the traced function, once
        assert len(calls) == cks[0].func.n_instrs()
        assert {id(i) for i in calls} == {id(i) for i in cks[0].func.iter_instrs()}
        monkeypatch.undo()
        for ck, run, width in zip(cks, got, WIDTHS):
            want = run_compiled_kernel(ck, arrays=arrays, scalars=scalars)
            assert (run.cycles, run.instructions) == (
                want.cycles, want.instructions), f"{name}/{level.label}/w{width}"

    def test_instruction_not_in_trace_is_lowered_alone(self, monkeypatch):
        # a width whose schedule holds one instruction the traced program
        # never lowered: that instruction alone is lowered, no fallback
        (arrays, scalars), cks = self._cell("maxval", Level.LEV4)
        ck = cks[-1]
        blk = next(b for b in ck.func.blocks
                   if any(i.dest is not None for i in b.instrs))
        p = next(p for p, i in enumerate(blk.instrs) if i.dest is not None)
        blk.instrs[p] = copy.copy(blk.instrs[p])
        calls = self._count_lowerings(monkeypatch)
        runner = BatchedRunner(cks[0], arrays, scalars)
        n_traced = len(calls)
        got = runner.run(ck)
        assert not runner.last_fallback
        assert calls[n_traced:] == [blk.instrs[p]]
        monkeypatch.undo()
        want = run_compiled_kernel(ck, arrays=arrays, scalars=scalars,
                                   engine="interp")
        _assert_runs_equal(got, want, "fresh instruction")

    def test_unmapped_exit_still_falls_back(self):
        (arrays, scalars), cks = self._cell("maxval", Level.LEV4)
        ck = cks[-1]
        # replace a side exit by an equal copy: the trace's exit has no
        # position in this schedule any more
        blk = next(b for b in ck.func.blocks if any(b.side_exits()))
        ex = next(blk.side_exits())
        blk.instrs[blk.instrs.index(ex)] = copy.copy(ex)
        runner = BatchedRunner(cks[0], arrays, scalars)
        got = runner.run(ck)
        assert runner.last_fallback
        want = run_compiled_kernel(ck, arrays=arrays, scalars=scalars,
                                   engine="interp")
        _assert_runs_equal(got, want, "unmapped exit fallback")


class TestProgramMemoLifetime:
    """The simulator's per-function program memo neither outlives its
    function nor travels with a copy of it."""

    @staticmethod
    def _simulated(name="add", level=Level.LEV4, width=8):
        w = get_workload(name)
        machine = MachineConfig(issue_width=width)
        ck = schedule_kernel(
            ilp_transform(lower_conv(w.build()), level, machine), machine)
        arrays, scalars = w.make_inputs(0)
        run_compiled_kernel(ck, arrays=arrays, scalars=scalars)
        return ck

    def test_simulated_function_dies_with_its_last_reference(self):
        import gc
        import weakref

        refs = []
        for _ in range(3):
            ck = self._simulated()
            refs.append(weakref.ref(ck.func))
            del ck
        gc.collect()
        assert [r() for r in refs] == [None, None, None]

    def test_memo_is_reused_but_not_copied(self):
        from repro.sim.executor import compiled_program

        ck = self._simulated()
        memo = ck.func.__dict__["_programs"]
        prog, = memo.values()
        machine = MachineConfig(issue_width=8)
        symbols = dict(next(iter(memo))[1])
        assert compiled_program(ck.func, machine, symbols) is prog
        assert "_programs" not in copy.deepcopy(ck.func).__dict__


def _run_both(text, machine=None, mem_fn=None, iregs=None, fregs=None, **kw):
    """Run one assembly function under both engines; returns (interp,
    compiled) results or raises after asserting error parity."""
    f = parse_function(text)
    machine = machine or unlimited()

    def one(engine):
        mem = mem_fn() if mem_fn else Memory()
        return simulate(f, machine, mem, dict(iregs or {}), dict(fregs or {}),
                        engine=engine, **kw)

    return one("interp"), one("compiled")


def _error_both(text, exc_type, machine=None, mem_fn=None, iregs=None,
                fregs=None, **kw):
    """Assert both engines raise ``exc_type`` with the same message;
    returns that message."""
    f = parse_function(text)
    machine = machine or unlimited()
    msgs = []
    for engine in ("interp", "compiled"):
        mem = mem_fn() if mem_fn else Memory()
        with pytest.raises(exc_type) as ei:
            simulate(f, machine, mem, dict(iregs or {}), dict(fregs or {}),
                     engine=engine, **kw)
        msgs.append(str(ei.value))
    assert msgs[0] == msgs[1], f"messages diverge: {msgs[0]!r} vs {msgs[1]!r}"
    return msgs[0]


class TestErrorParity:
    """The compiled engine must surface interpreter-identical errors.

    Regression for the uninitialized-register class of bugs: generated
    block code binds registers to local variables, so a never-written
    register must be detected and reported as a ``SimulationError`` —
    not escape as a ``NameError``/``TypeError`` from the generated
    function's internals.
    """

    def test_uninit_alu_operand(self):
        msg = _error_both(
            "function t:\nA:\n  r3i = r1i + r2i\n  halt\n", SimulationError,
            iregs={1: 4},
        )
        assert "uninitialized register" in msg

    def test_uninit_branch_operand(self):
        msg = _error_both(
            "function t:\nA:\n  blt (r1i r2i) T\n  halt\nT:\n  halt\n",
            SimulationError, iregs={1: 1},
        )
        assert "uninitialized register" in msg

    def test_uninit_equality_branch_operand(self):
        # == / != accept None silently in Python, so the generated code
        # carries an explicit guard for them — cover it separately
        msg = _error_both(
            "function t:\nA:\n  beq (r1i r2i) T\n  halt\nT:\n  halt\n",
            SimulationError, iregs={1: 1},
        )
        assert "uninitialized register" in msg

    def test_uninit_store_value(self):
        msg = _error_both(
            "function t:\nA:\n  MEM(A+0) = r9f\n  halt\n",
            SimulationError,
            mem_fn=_one_slot_memory,
        )
        assert "uninitialized register" in msg

    def test_uninit_store_address(self):
        msg = _error_both(
            "function t:\nA:\n  MEM(r9i+0) = r1i\n  halt\n",
            SimulationError, iregs={1: 7},
        )
        assert "uninitialized register" in msg

    def test_uninit_load_address(self):
        msg = _error_both(
            "function t:\nA:\n  r1f = MEM(r9i+0)\n  halt\n",
            SimulationError,
        )
        assert "uninitialized register" in msg

    def test_division_by_zero(self):
        msg = _error_both(
            "function t:\nA:\n  r3i = r1i / r2i\n  halt\n",
            SimulationError, iregs={1: 1, 2: 0},
        )
        assert "division by zero" in msg

    def test_unmapped_load(self):
        _error_both(
            "function t:\nA:\n  r1f = MEM(r2i+0)\n  halt\n",
            SimMemoryError, iregs={2: 0x4000},
        )

    def test_runaway_loop(self):
        msg = _error_both(
            "function t:\nA:\n  jmp A\n", SimulationError, max_cycles=500,
        )
        assert "exceeded 500 cycles" in msg

    def test_healthy_program_identical(self):
        interp, compiled = _run_both(
            """
function t:
A:
  r1i = 0
L:
  r1i = r1i + 1
  blt (r1i 10) L
""",
        )
        assert interp.cycles == compiled.cycles
        assert interp.instructions == compiled.instructions
        assert interp.iregs == compiled.iregs


def _one_slot_memory():
    m = Memory()
    m.bind_array("A", np.zeros(4))
    return m
