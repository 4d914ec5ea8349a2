"""Compilation of IR instructions into a fast internal form for simulation.

The simulator executes millions of dynamic instructions, so each IR
instruction is pre-lowered once into a :class:`CompiledInstr` with:

* resolved source fetch descriptors (register bank + id, or literal value,
  with symbols resolved against the memory's symbol table);
* a destination slot;
* the machine latency;
* a small semantic function.

Integer semantics are paper-era FORTRAN/C: division and remainder truncate
toward zero; shifts are arithmetic (``shra``) or 64-bit logical (``shrl``).
Floating point is IEEE double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ir.block import Block
from ..ir.function import Function
from ..ir.instructions import Instr, Kind, Op
from ..ir.operands import FImm, Imm, Reg, RegClass, Sym
from ..machine import MachineConfig

#: Simulator-engine version: bumped whenever the execution/timing core
#: changes in a way that could alter observable results or their cost
#: profile.  The content-addressed store's CODE_VERSION salt
#: (:mod:`repro.service.keys`) is derived from this, so artifacts
#: produced by an older engine can never be served as current.
ENGINE_VERSION = "sim-3-vector"

# source/dest bank tags.  The vector banks index past the CONST tag so
# ``banks[(bank)]`` tuples can be built as (ivals, fvals, None, vivals,
# vfvals) with CONST operands never indexing a bank.
INT_BANK = 0
FP_BANK = 1
CONST = 2
VINT_BANK = 3
VFP_BANK = 4

_BANK_OF_CLASS = {
    RegClass.INT: INT_BANK,
    RegClass.FP: FP_BANK,
    RegClass.VINT: VINT_BANK,
    RegClass.VFP: VFP_BANK,
}

_MASK64 = (1 << 64) - 1


def _idiv(a: int, b: int) -> int:
    """Truncating integer division (toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _irem(a: int, b: int) -> int:
    return a - b * _idiv(a, b)


#: Scalar semantics shared with the reference evaluator
#: (:mod:`repro.check.refeval`): the differential oracle tests the
#: *compiler transformations*, so both executors must agree on what each
#: opcode computes — any divergence between them is then a transformation
#: or simulator-machinery bug, never an arithmetic-definition mismatch.
_ALU2 = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: a * b,
    Op.DIV: _idiv,
    Op.REM: _irem,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << b,
    Op.SHRA: lambda a, b: a >> b,
    Op.SHRL: lambda a, b: (a & _MASK64) >> b,
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FDIV: lambda a, b: a / b,
}

#: public aliases for the shared semantic tables
ALU_SEMANTICS = _ALU2

_CMP = {
    Op.BLT: lambda a, b: a < b,
    Op.BLE: lambda a, b: a <= b,
    Op.BGT: lambda a, b: a > b,
    Op.BGE: lambda a, b: a >= b,
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.FBLT: lambda a, b: a < b,
    Op.FBLE: lambda a, b: a <= b,
    Op.FBGT: lambda a, b: a > b,
    Op.FBGE: lambda a, b: a >= b,
    Op.FBEQ: lambda a, b: a == b,
    Op.FBNE: lambda a, b: a != b,
}

CMP_SEMANTICS = _CMP


def _vmap(f):
    """Lift a scalar binary semantic to element-wise over lane tuples."""
    return lambda a, b: tuple(map(f, a, b))


#: Element-wise vector semantics: per-lane application of the shared
#: scalar definitions, so scalar and vector lanes can never disagree.
_VEC2 = {
    Op.VADD: _vmap(_ALU2[Op.ADD]),
    Op.VSUB: _vmap(_ALU2[Op.SUB]),
    Op.VMUL: _vmap(_ALU2[Op.MUL]),
    Op.VFADD: _vmap(_ALU2[Op.FADD]),
    Op.VFSUB: _vmap(_ALU2[Op.FSUB]),
    Op.VFMUL: _vmap(_ALU2[Op.FMUL]),
    Op.VFDIV: _vmap(_ALU2[Op.FDIV]),
}

VEC_SEMANTICS = _VEC2


def _vext(v, i):
    return v[i]


# instruction categories for the simulator's dispatch
C_ALU = 0
C_LOAD = 1
C_STORE = 2
C_BRANCH = 3
C_JUMP = 4
C_NOP = 5
C_HALT = 6
# arity-specialized ALU categories used only by the pre-flattened form
# (CompiledInstr.cat keeps the generic C_ALU)
C_ALU2 = 7
C_ALU1 = 8
# vector categories: variadic pack (gather lanes into a tuple), and
# multi-word memory ops (``fn`` carries the lane count)
C_ALUN = 9
C_VLOAD = 10
C_VSTORE = 11


@dataclass(eq=False)
class CompiledInstr:
    """One instruction pre-lowered for the cycle loop."""

    __slots__ = ("cat", "fn", "srcs", "dest", "lat", "kind", "target", "instr")

    cat: int
    fn: object  # semantic callable, or None
    srcs: tuple  # ((bank, key_or_value), ...)
    dest: tuple | None  # (bank, id)
    lat: int
    kind: Kind
    target: str | None
    instr: Instr  # original, for tracing / errors


def _fetch_desc(operand, symbols: dict[str, int]):
    if isinstance(operand, Reg):
        return (_BANK_OF_CLASS[operand.cls], operand.id)
    if isinstance(operand, Imm):
        return (CONST, operand.value)
    if isinstance(operand, FImm):
        return (CONST, operand.value)
    if isinstance(operand, Sym):
        try:
            return (CONST, symbols[operand.name])
        except KeyError:
            raise KeyError(f"unresolved symbol {operand.name!r}") from None
    raise TypeError(f"bad operand {operand!r}")


def compile_instr(ins: Instr, machine: MachineConfig, symbols: dict[str, int]) -> CompiledInstr:
    op = ins.op
    kind = ins.kind
    lat = machine.latency(op)
    srcs = tuple(_fetch_desc(s, symbols) for s in ins.srcs)
    dest = None
    if ins.dest is not None:
        dest = (_BANK_OF_CLASS[ins.dest.cls], ins.dest.id)

    if op in _ALU2:
        return CompiledInstr(C_ALU, _ALU2[op], srcs, dest, lat, kind, None, ins)
    if op in _VEC2:
        return CompiledInstr(C_ALU, _VEC2[op], srcs, dest, lat, kind, None, ins)
    if op in (Op.VEXT, Op.VEXTF):
        return CompiledInstr(C_ALU, _vext, srcs, dest, lat, kind, None, ins)
    if op in (Op.VPACK, Op.VPACKF):
        return CompiledInstr(C_ALUN, None, srcs, dest, lat, kind, None, ins)
    if op in (Op.MOV, Op.FMOV):
        return CompiledInstr(C_ALU, lambda a: a, srcs, dest, lat, kind, None, ins)
    if op is Op.ITOF:
        return CompiledInstr(C_ALU, float, srcs, dest, lat, kind, None, ins)
    if op is Op.FTOI:
        return CompiledInstr(C_ALU, lambda a: math.trunc(a), srcs, dest, lat, kind, None, ins)
    if kind is Kind.VEC_LOAD:
        return CompiledInstr(C_VLOAD, ins.lanes, srcs, dest, lat, kind, None, ins)
    if kind is Kind.VEC_STORE:
        return CompiledInstr(C_VSTORE, ins.lanes, srcs, None, lat, kind, None, ins)
    if kind is Kind.LOAD:
        return CompiledInstr(C_LOAD, None, srcs, dest, lat, kind, None, ins)
    if kind is Kind.STORE:
        return CompiledInstr(C_STORE, None, srcs, None, lat, kind, None, ins)
    if kind is Kind.BRANCH:
        assert ins.target is not None
        return CompiledInstr(C_BRANCH, _CMP[op], srcs, None, lat, kind, ins.target.name, ins)
    if op is Op.JMP:
        assert ins.target is not None
        return CompiledInstr(C_JUMP, None, (), None, lat, kind, ins.target.name, ins)
    if op is Op.HALT:
        return CompiledInstr(C_HALT, None, (), None, lat, kind, None, ins)
    if op is Op.NOP:
        return CompiledInstr(C_NOP, None, (), None, lat, kind, None, ins)
    raise AssertionError(f"unhandled opcode {op}")


@dataclass(eq=False)
class CompiledBlock:
    label: str
    code: list[CompiledInstr]
    #: index of the next block in layout order (fall-through), or None
    next_index: int | None


class CompiledProgram:
    """A function lowered for simulation against a given machine + symtab.

    Besides the structured :class:`CompiledBlock` view, every instruction is
    pre-flattened into a plain tuple so the interpreter's inner loop pays a
    single ``UNPACK_SEQUENCE`` instead of repeated attribute chasing::

        (cat, fn, srcs, rsrcs, dest_bank, dest_id, lat, (kind, target, instr))

    ``cat`` is arity-specialized (``C_ALU2``/``C_ALU1`` instead of the
    generic ``C_ALU``) so the hot ALU path calls ``fn(a, b)`` directly with
    no argument list built.  ``srcs`` is the fetch descriptor *flattened* to
    ``(bank0, key0, bank1, key1, ...)`` — one unpack fetches every operand.
    ``rsrcs`` keeps only the register sources, likewise flattened, for the
    readiness/interlock check (constants are skipped entirely; at most 3
    register sources exist outside variadic packs, so the check is unrolled
    with a generic tail for wider packs).  ``dest_bank`` is -1 when there
    is no destination.  The cold fields ride in a nested tuple the hot
    path never unpacks: the slot-limit kind, the branch target resolved to
    a *block index* (-1 if none), and the original instruction
    (tracing/errors).  ``n_iregs`` / ``n_fregs`` / ``n_viregs`` /
    ``n_vfregs`` bound the register ids referenced, so the simulator can
    use flat list register banks instead of dicts (registers are densely
    reindexed by ``Function.reindex_regs``).
    """

    def __init__(self, func: Function, machine: MachineConfig, symbols: dict[str, int]):
        self.func = func
        self.machine = machine
        self.symbols = dict(symbols)
        self.blocks: list[CompiledBlock] = []
        self.index: dict[str, int] = {}
        for i, blk in enumerate(func.blocks):
            self.index[blk.label] = i
        for i, blk in enumerate(func.blocks):
            code = [compile_instr(ins, machine, symbols) for ins in blk.instrs]
            nxt = i + 1 if i + 1 < len(func.blocks) else None
            self.blocks.append(CompiledBlock(blk.label, code, nxt))
        # resolve branch targets to block indices up front
        self.target_index: dict[str, int] = dict(self.index)

        self.labels: list[str] = [b.label for b in self.blocks]
        self.next_index: list[int | None] = [b.next_index for b in self.blocks]
        nregs = [0, 0, 0, 0, 0]  # indexed by bank tag (CONST slot unused)
        self.flat: list[list[tuple]] = []
        for b in self.blocks:
            row = []
            for ci in b.code:
                reg_srcs = [s for s in ci.srcs if s[0] != CONST]
                # variadic packs read one register per lane; everything
                # else reads at most 3 (the readiness check fast path)
                assert len(reg_srcs) <= 3 or ci.cat == C_ALUN, ci.instr
                rsrcs = tuple(x for s in reg_srcs for x in s)
                for bank, key in reg_srcs:
                    if key + 1 > nregs[bank]:
                        nregs[bank] = key + 1
                if ci.dest is None:
                    db = di = -1
                else:
                    db, di = ci.dest
                    if di + 1 > nregs[db]:
                        nregs[db] = di + 1
                tgt = self.index[ci.target] if ci.target is not None else -1
                cat = ci.cat
                if cat == C_ALU:
                    cat = C_ALU2 if len(ci.srcs) == 2 else C_ALU1
                    assert len(ci.srcs) in (1, 2), ci.instr
                srcs = tuple(x for s in ci.srcs for x in s)
                row.append((cat, ci.fn, srcs, rsrcs, db, di,
                            ci.lat, (ci.kind, tgt, ci.instr)))
            self.flat.append(row)
        self.n_iregs = nregs[INT_BANK]
        self.n_fregs = nregs[FP_BANK]
        self.n_viregs = nregs[VINT_BANK]
        self.n_vfregs = nregs[VFP_BANK]


#: per-function memo bound: programs kept per function before a reset
_PROGRAM_CACHE_LIMIT = 8


def compiled_program(
    func: Function, machine: MachineConfig, symbols: dict[str, int]
) -> CompiledProgram:
    """Memoized :class:`CompiledProgram` construction.

    Repeated simulation of the same function on the same machine (figure
    refreshes, ablations, repeated ``run_compiled_kernel`` calls) reuses the
    lowered program instead of recompiling every instruction.  The cache key
    fingerprints the instruction objects in layout order, so in-place
    reordering, insertion, or deletion after a prior simulation is detected
    and recompiled (the cached program keeps the fingerprinted instructions
    alive, so ids cannot be recycled while an entry lives).
    """
    key = (
        machine.cache_key(),
        tuple(sorted(symbols.items())),
        tuple(b.label for b in func.blocks),
        tuple(map(id, func.iter_instrs())),
    )
    # the memo lives on the function, so it dies with it (each program
    # refers back to its function: a global map would keep both alive)
    per_func = func.__dict__.setdefault("_programs", {})
    prog = per_func.get(key)
    if prog is None:
        if len(per_func) >= _PROGRAM_CACHE_LIMIT:
            per_func.clear()
        prog = CompiledProgram(func, machine, symbols)
        per_func[key] = prog
    return prog
