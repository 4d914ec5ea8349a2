"""Interference graph construction over a whole function.

The modeled processor has an unlimited register file, but the paper's
register allocator "attempts to utilize the least number of registers
required for a given loop.  Therefore, registers are reused as soon as
they become available."  We measure that number by building the
interference graph of the final (scheduled) code and coloring it greedily:
two virtual registers interfere when one is defined at a point where the
other is live.

Registers live into the function (workload inputs) are treated as defined
at entry, so they interfere with each other and with anything live across
their range.

The graph is built on int bitsets: every register of the function gets a
dense index, liveness runs on block masks (:func:`liveness_masks`), and
interference is one adjacency row per register.  A definition's row gains
the live registers of its own class (one AND with the class mask); the
rows are symmetrized once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.liveness import liveness_masks
from ..ir.function import Function
from ..ir.operands import Reg, RegClass


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class InterferenceGraph:
    """Interference over a dense register numbering, as int bitsets.

    ``regs[i]`` is the register numbered ``i`` (``index`` is the inverse);
    bit ``j`` of ``rows[i]`` is set when registers ``i`` and ``j``
    interfere — rows are symmetric and only ever link registers of one
    class.  ``nodes`` masks the graph's nodes: every register an
    instruction reads or writes, plus any other register with an edge
    (a live-out or entry live-in register no instruction names).
    """

    regs: list[Reg]
    index: dict[Reg, int]
    rows: list[int]
    nodes: int
    class_masks: dict[RegClass, int]

    def _row(self, r: Reg) -> int:
        i = self.index.get(r)
        return 0 if i is None else self.rows[i]

    def interferes(self, a: Reg, b: Reg) -> bool:
        j = self.index.get(b)
        return j is not None and bool(self._row(a) >> j & 1)

    def neighbors(self, r: Reg) -> list[Reg]:
        return [self.regs[j] for j in iter_bits(self._row(r))]

    def of_class(self, cls: RegClass) -> list[Reg]:
        return [self.regs[i] for i in iter_bits(self.nodes & self.class_masks[cls])]


def _symmetrize(rows: list[int]) -> list[int]:
    """``rows | rows.T`` for a square bit matrix of int rows, as one NumPy
    transpose instead of a Python loop over every edge."""
    n = len(rows)
    if not n:
        return rows
    nb = (n + 7) // 8
    raw = b"".join(r.to_bytes(nb, "little") for r in rows)
    m = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(n, nb), axis=1,
                      count=n, bitorder="little")
    packed = np.packbits(m | m.T, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i * nb:(i + 1) * nb], "little")
            for i in range(n)]


def build_interference(
    func: Function, live_out_exit: set[Reg] | None = None
) -> InterferenceGraph:
    index: dict[Reg, int] = {}
    regs: list[Reg] = []
    class_masks = dict.fromkeys(RegClass, 0)

    def number(r: Reg) -> int:
        i = index[r] = len(regs)
        regs.append(r)
        class_masks[r.cls] |= 1 << i
        return i

    # per instruction: (use mask, dest index or -1); per block gen/kill
    code: list[list[tuple[int, int]]] = []
    gen: list[int] = []
    kill: list[int] = []
    named = 0  # registers some instruction reads or writes
    for blk in func.blocks:
        rows_b = []
        g = k = 0
        for ins in blk.instrs:
            use = 0
            for s in ins.srcs:
                if s.__class__ is Reg:
                    i = index.get(s)
                    use |= 1 << (number(s) if i is None else i)
            g |= use & ~k
            d = ins.dest
            di = -1
            if d is not None:
                di = index.get(d)
                if di is None:
                    di = number(d)
                k |= 1 << di
            named |= use | k
            rows_b.append((use, di))
        code.append(rows_b)
        gen.append(g)
        kill.append(k)
    exit_mask = 0
    for r in live_out_exit or ():
        i = index.get(r)
        exit_mask |= 1 << (number(r) if i is None else i)
    live_in, live_out = liveness_masks(func, gen, kill, exit_mask)

    rows = [0] * len(regs)
    same_class = [class_masks[r.cls] & ~(1 << i) for i, r in enumerate(regs)]
    for rows_b, live in zip(code, live_out):
        for use, d in reversed(rows_b):
            if d >= 0:
                rows[d] |= live & same_class[d]
                live &= ~(1 << d)
            live |= use

    # function inputs: live-in registers of the entry block are all defined
    # "before" the program and therefore mutually interfere
    entry_live = live_in[0] if live_in else 0
    for cm in class_masks.values():
        clique = entry_live & cm
        for i in iter_bits(clique):
            rows[i] |= clique & ~(1 << i)

    rows = _symmetrize(rows)
    nodes = named
    for i, row in enumerate(rows):
        if row:
            nodes |= 1 << i
    return InterferenceGraph(regs, index, rows, nodes, class_masks)
