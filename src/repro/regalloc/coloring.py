"""Greedy graph coloring and register-usage measurement.

Chaitin-style simplification order (repeatedly remove the minimum-degree
node, ties broken by register id; color in reverse) with first-fit color
choice, all on the graph's int bitset rows.  With an unbounded
color supply this never spills; the number of colors used per register
class is the paper's "registers utilized" statistic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..ir.function import Function
from ..ir.operands import Reg, RegClass
from .interference import InterferenceGraph, build_interference, iter_bits


def color_class(g: InterferenceGraph, cls: RegClass) -> dict[Reg, int]:
    regs, rows = g.regs, g.rows
    members = list(iter_bits(g.nodes & g.class_masks[cls]))
    if not members:
        return {}
    # Simplification stack: repeatedly remove the (degree, id)-minimal
    # node.  A lazy heap of (degree, id) keys packed into single ints
    # (``degree << shift | id``): each degree decrement pushes a fresh
    # key, and stale keys (node already removed, or recorded at an
    # outdated degree) are discarded on pop.  Keys are unique (a node's
    # degree only decreases), so the pop sequence depends on the graph
    # alone, never on push order.  Rows only link same-class registers,
    # so no class filtering is needed inside.
    shift = max(regs[i].id for i in members).bit_length()
    id_mask = (1 << shift) - 1
    ids = {i: regs[i].id for i in members}
    by_id = {r_id: i for i, r_id in ids.items()}
    degree = {i: rows[i].bit_count() for i in members}
    heap = [(degree[i] << shift) | ids[i] for i in members]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    removed = 0
    stack: list[int] = []
    while heap:
        key = pop(heap)
        i = by_id[key & id_mask]
        if removed >> i & 1 or key >> shift != degree[i]:
            continue
        removed |= 1 << i
        stack.append(i)
        m = rows[i] & ~removed
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            d = degree[j] = degree[j] - 1
            push(heap, (d << shift) | ids[j])
    # first-fit: the lowest color none of whose members is a neighbor
    colored: list[int] = []  # per color, the mask of its registers
    colors: dict[Reg, int] = {}
    for i in reversed(stack):
        row = rows[i]
        c = 0
        while c < len(colored) and colored[c] & row:
            c += 1
        if c == len(colored):
            colored.append(0)
        colored[c] |= 1 << i
        colors[regs[i]] = c
    return colors


@dataclass
class RegisterUsage:
    """Registers utilized by a compiled function, per class and total.

    Vector registers live in their own file (see ``machine.py``), so they
    are counted separately and default to 0 for scalar-only code."""

    int_regs: int
    fp_regs: int
    vint_regs: int = 0
    vfp_regs: int = 0

    @property
    def total(self) -> int:
        return self.int_regs + self.fp_regs + self.vint_regs + self.vfp_regs


class ColoringError(AssertionError):
    pass


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def verify_coloring(g: InterferenceGraph, colors: dict[Reg, int]) -> None:
    """Post-regalloc consistency: a coloring is valid iff every node got a
    color and no interference edge connects two same-colored registers.

    The paper's register statistic is only meaningful if the coloring
    respects interference — a violation means two simultaneously-live
    values would share a physical register, i.e. a silent miscompile on
    real hardware even though the virtual-register simulator runs fine.
    """
    colored = 0
    by_color: dict[int, int] = {}
    for r, c in colors.items():
        if c < 0:
            raise ColoringError(f"{r}: negative color {c}")
        i = g.index.get(r)
        if i is not None:
            colored |= 1 << i
            by_color[c] = by_color.get(c, 0) | 1 << i
    for r, c in colors.items():
        i = g.index.get(r)
        if i is None:
            continue
        row = g.rows[i]
        if row & ~colored:
            n = g.regs[_lowest(row & ~colored)]
            raise ColoringError(f"{n} interferes with {r} but is uncolored")
        if row & by_color[c]:
            n = g.regs[_lowest(row & by_color[c])]
            raise ColoringError(
                f"interfering registers {r} and {n} share color {c}"
            )


def measure_register_usage(
    func: Function, live_out_exit: set[Reg] | None = None, check: bool = False
) -> RegisterUsage:
    g = build_interference(func, live_out_exit)
    counts = {}
    for cls in RegClass:
        colors = color_class(g, cls)
        if check:
            verify_coloring(g, colors)
        counts[cls] = (max(colors.values()) + 1) if colors else 0
    return RegisterUsage(counts[RegClass.INT], counts[RegClass.FP],
                         counts[RegClass.VINT], counts[RegClass.VFP])
