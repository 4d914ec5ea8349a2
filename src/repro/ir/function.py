"""Function: the CFG container and unit of compilation/simulation.

A function is an ordered list of blocks; layout order defines fall-through.
Execution starts at the first block and ends when control falls off the end
of the last block.  Conventionally the last block is an (often empty) block
labeled ``exit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .block import Block
from .instructions import Instr, Op
from .operands import Reg, RegClass

EXIT_LABEL = "exit"


@dataclass(eq=False)
class Function:
    """An IR function: ordered basic blocks plus register/label allocators."""

    name: str
    blocks: list[Block] = field(default_factory=list)
    #: registers referenced outside the instruction stream (harness
    #: bindings); they survive reindex_regs and are never re-allocated
    pinned_regs: set[Reg] = field(default_factory=set)
    _next_reg: dict[RegClass, int] = field(
        default_factory=lambda: {cls: 1 for cls in RegClass}
    )
    _next_label: int = 0

    def __getstate__(self) -> dict:
        # copies and pickles leave out the simulator's per-function
        # program memo (``sim.executor.compiled_program``): its programs
        # are bound to this object's instructions
        state = self.__dict__.copy()
        state.pop("_programs", None)
        return state

    # -- construction -------------------------------------------------------

    def add_block(self, label: str | None = None, index: int | None = None) -> Block:
        """Create and insert a new block (at the end by default)."""
        if label is None:
            label = self.new_label()
        if any(b.label == label for b in self.blocks):
            raise ValueError(f"duplicate block label {label!r}")
        blk = Block(label)
        if index is None:
            self.blocks.append(blk)
        else:
            self.blocks.insert(index, blk)
        return blk

    def new_reg(self, cls: RegClass) -> Reg:
        """Allocate a fresh virtual register of the given class."""
        i = self._next_reg[cls]
        self._next_reg[cls] = i + 1
        return Reg(i, cls)

    def new_int_reg(self) -> Reg:
        return self.new_reg(RegClass.INT)

    def new_fp_reg(self) -> Reg:
        return self.new_reg(RegClass.FP)

    def reserve_reg(self, reg: Reg) -> Reg:
        """Mark a specific register id as in use (for hand-built IR)."""
        if reg.id >= self._next_reg[reg.cls]:
            self._next_reg[reg.cls] = reg.id + 1
        return reg

    def new_label(self, hint: str = "L") -> str:
        """Allocate a fresh, unused block label."""
        existing = {b.label for b in self.blocks}
        while True:
            self._next_label += 1
            lab = f"{hint}{self._next_label}"
            if lab not in existing:
                return lab

    def reindex_regs(self) -> None:
        """Recompute fresh-register counters from the instructions present
        (plus pinned registers that live only in harness bindings)."""
        nxt = {cls: 1 for cls in RegClass}
        for ins in self.iter_instrs():
            for r in ins.reg_uses():
                nxt[r.cls] = max(nxt[r.cls], r.id + 1)
            for r in ins.reg_defs():
                nxt[r.cls] = max(nxt[r.cls], r.id + 1)
        for r in self.pinned_regs:
            nxt[r.cls] = max(nxt[r.cls], r.id + 1)
        self._next_reg = nxt

    # -- structure queries ---------------------------------------------------

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def block_map(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def get_block(self, label: str) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    def block_index(self, label: str) -> int:
        for i, b in enumerate(self.blocks):
            if b.label == label:
                return i
        raise KeyError(label)

    def successors(self, blk: Block) -> list[str]:
        """Successor labels: every branch target plus fall-through."""
        succ: list[str] = []
        for ins in blk.branches():
            if ins.target is not None and ins.target.name not in succ:
                succ.append(ins.target.name)
        if blk.falls_through:
            idx = self.blocks.index(blk)
            if idx + 1 < len(self.blocks):
                nxt = self.blocks[idx + 1].label
                if nxt not in succ:
                    succ.append(nxt)
        return succ

    def fallthrough_succ(self, blk: Block) -> str | None:
        if not blk.falls_through:
            return None
        idx = self.blocks.index(blk)
        if idx + 1 < len(self.blocks):
            return self.blocks[idx + 1].label
        return None

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {b.label: [] for b in self.blocks}
        for b in self.blocks:
            for s in self.successors(b):
                if s in preds:
                    preds[s].append(b.label)
        return preds

    def iter_instrs(self) -> Iterator[Instr]:
        for b in self.blocks:
            yield from b.instrs

    def n_instrs(self) -> int:
        return sum(len(b) for b in self.blocks)

    # -- editing helpers ------------------------------------------------------

    def retarget(self, old: str, new: str) -> None:
        """Rewrite every branch target ``old`` to ``new``."""
        from .operands import Label

        for ins in self.iter_instrs():
            if ins.target is not None and ins.target.name == old:
                ins.target = Label(new)

    def remove_block(self, label: str) -> None:
        self.blocks.remove(self.get_block(label))

    def ensure_fallthrough_jump(self, blk: Block) -> None:
        """Give ``blk`` an explicit jump to its current fall-through target,
        so it can be moved in layout order without changing behaviour."""
        from .operands import Label

        ft = self.fallthrough_succ(blk)
        if ft is not None:
            blk.append(Instr(Op.JMP, target=Label(ft)))

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        from .printer import format_function

        return format_function(self)

    def __repr__(self) -> str:
        return f"<Function {self.name}: {len(self.blocks)} blocks, {self.n_instrs()} instrs>"


def reachable_labels(func: Function) -> set[str]:
    """Labels reachable from the entry block."""
    if not func.blocks:
        return set()
    bm = func.block_map()
    seen: set[str] = set()
    work = [func.entry.label]
    while work:
        lab = work.pop()
        if lab in seen or lab not in bm:
            continue
        seen.add(lab)
        work.extend(func.successors(bm[lab]))
    return seen


def remove_unreachable(func: Function) -> int:
    """Delete unreachable blocks; returns how many were removed."""
    keep = reachable_labels(func)
    dead = [b for b in func.blocks if b.label not in keep]
    for b in dead:
        func.blocks.remove(b)
    return len(dead)
