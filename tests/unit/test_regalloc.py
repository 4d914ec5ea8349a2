"""Unit tests for interference construction and register-usage coloring.

The allocator runs on int bitsets.  ``_ref_interference`` /
``_ref_color_class`` below are the set-based construction it replaced,
kept here only as a differential reference: every coloring the bitset
allocator produces must equal theirs, register for register.
"""

import heapq
from collections import defaultdict
from dataclasses import dataclass, field

import pytest

from repro.analysis.liveness import liveness
from repro.experiments.ablation import ORACLE_SET
from repro.harness import ilp_transform, lower_conv, schedule_kernel
from repro.ir import fp_reg, int_reg, parse_function
from repro.ir.operands import Reg, RegClass
from repro.machine import MachineConfig
from repro.pipeline import Level
from repro.regalloc import (
    ColoringError,
    build_interference,
    color_class,
    measure_register_usage,
    verify_coloring,
)
from repro.workloads import get_workload


# ---------------------------------------------------------------------------
# set-based reference (test only)
# ---------------------------------------------------------------------------


@dataclass
class _RefGraph:
    adj: dict[Reg, set[Reg]] = field(default_factory=lambda: defaultdict(set))
    nodes: set[Reg] = field(default_factory=set)

    def add_node(self, r: Reg) -> None:
        self.nodes.add(r)
        self.adj.setdefault(r, set())

    def add_edge(self, a: Reg, b: Reg) -> None:
        if a == b or a.cls is not b.cls:
            return
        self.add_node(a)
        self.add_node(b)
        self.adj[a].add(b)
        self.adj[b].add(a)


def _ref_interference(func, live_out_exit=None) -> _RefGraph:
    """A register defined where another of its class is live interferes
    with it; the entry block's live-ins form a clique."""
    lv = liveness(func, live_out_exit or set())
    g = _RefGraph()
    for ins in func.iter_instrs():
        for r in ins.reg_uses():
            g.add_node(r)
        for r in ins.reg_defs():
            g.add_node(r)
    for blk in func.blocks:
        live = set(lv.live_out[blk.label])
        for ins in reversed(blk.instrs):
            d = ins.dest
            if d is not None:
                for other in live:
                    g.add_edge(d, other)
                live.discard(d)
            for r in ins.reg_uses():
                live.add(r)
    entry_live = lv.live_in.get(func.entry.label, set())
    for a in entry_live:
        for b in entry_live:
            g.add_edge(a, b)
    return g


def _ref_color_class(g: _RefGraph, cls: RegClass) -> dict[Reg, int]:
    """Chaitin order — pop the (degree, id)-minimal node from a lazy
    heap — then first-fit in reverse."""
    nodes = sorted((r for r in g.nodes if r.cls is cls), key=lambda r: r.id)
    degree = {r: len(g.adj[r]) for r in nodes}
    removed: set[Reg] = set()
    stack: list[Reg] = []
    heap = [(degree[r], r.id, r) for r in nodes]
    heapq.heapify(heap)
    while heap:
        d, _, r = heapq.heappop(heap)
        if r in removed or d != degree[r]:
            continue
        removed.add(r)
        stack.append(r)
        for n in g.adj[r]:
            if n not in removed:
                degree[n] -= 1
                heapq.heappush(heap, (degree[n], n.id, n))
    colors: dict[Reg, int] = {}
    for r in reversed(stack):
        mask = 0
        for n in g.adj[r]:
            c = colors.get(n)
            if c is not None:
                mask |= 1 << c
        colors[r] = (~mask & (mask + 1)).bit_length() - 1
    return colors


def _assert_matches_reference(func, live_out_exit=None, ctx=""):
    ref = _ref_interference(func, live_out_exit)
    g = build_interference(func, live_out_exit)
    assert {r: set(g.neighbors(r)) for cls in RegClass
            for r in g.of_class(cls)} == dict(ref.adj), f"{ctx}: graphs differ"
    counts = {}
    for cls in RegClass:
        want = _ref_color_class(ref, cls)
        got = color_class(g, cls)
        assert got == want, f"{ctx}: {cls.name} colorings differ"
        verify_coloring(g, got)
        counts[cls] = max(want.values()) + 1 if want else 0
    u = measure_register_usage(func, live_out_exit, check=True)
    assert (u.int_regs, u.fp_regs, u.vint_regs, u.vfp_regs) == (
        counts[RegClass.INT], counts[RegClass.FP],
        counts[RegClass.VINT], counts[RegClass.VFP],
    ), ctx
    return g


class TestAgainstSetReference:
    @pytest.mark.parametrize("name", ORACLE_SET)
    def test_oracle_workloads_all_levels(self, name):
        conv = lower_conv(get_workload(name).build())
        for level in Level:
            tk = ilp_transform(conv.clone(), level, MachineConfig(issue_width=1))
            for width in (1, 8):
                ck = schedule_kernel(tk.clone(), MachineConfig(issue_width=width))
                _assert_matches_reference(
                    ck.func, ck.lowered.live_out_exit,
                    f"{name} {level.label} issue-{width}",
                )

    def test_live_out_register_named_by_no_instruction(self):
        # r9i is live from entry to exit and no instruction names it: it
        # interferes with the registers defined across it, so it is a node
        f = parse_function(
            "function t:\nA:\n  r1i = 1\n  MEM(X) = r1i\n  halt\n"
        )
        g = _assert_matches_reference(f, {int_reg(9)})
        assert g.interferes(int_reg(1), int_reg(9))
        assert measure_register_usage(f, {int_reg(9)}).int_regs == 2

    def test_isolated_live_out_register_is_no_node(self):
        # nothing is defined while r9i is live, and it is the only entry
        # live-in of its class: no edge, no node, no register counted
        f = parse_function("function t:\nA:\n  MEM(X) = r1f\n  halt\n")
        g = _assert_matches_reference(f, {int_reg(9)})
        assert int_reg(9) not in g.of_class(RegClass.INT)
        assert measure_register_usage(f, {int_reg(9)}).int_regs == 0

    def test_lone_entry_live_in(self):
        f = parse_function(
            "function t:\nA:\n  r2i = r1i + 1\n  MEM(X) = r2i\n  halt\n"
        )
        g = _assert_matches_reference(f)
        assert g.neighbors(int_reg(1)) == []
        assert measure_register_usage(f).int_regs == 1

    def test_vector_registers(self):
        f = parse_function(
            """
function t:
A:
  r1vf = vldf.4(A, r1i)
  r2vf = vpackf.4(r20f, r20f, r20f, r20f)
  r3vf = vfmul.4(r1vf, r2vf)
  vstf.4(B, r1i, r3vf)
  r4vi = vld.4(C, r1i)
  vst.4(D, r1i, r4vi)
  halt
"""
        )
        g = _assert_matches_reference(f)
        assert g.interferes(Reg(1, RegClass.VFP), Reg(2, RegClass.VFP))
        assert not g.interferes(Reg(3, RegClass.VFP), Reg(4, RegClass.VINT))
        u = measure_register_usage(f)
        assert (u.vfp_regs, u.vint_regs) == (2, 1)

    def test_loop_carried_range(self):
        f = parse_function(
            """
function t:
A:
  r1i = 0
L:
  r2i = r1i + 1
  r1i = r2i + r3i
  blt (r1i r4i) L
exit:
  MEM(X) = r1i
  halt
"""
        )
        g = _assert_matches_reference(f)
        # r1i is live around the back edge, r3i and r4i throughout
        assert g.interferes(int_reg(1), int_reg(3))
        assert g.interferes(int_reg(2), int_reg(4))


class TestVerifyColoring:
    def _graph(self):
        return build_interference(parse_function(
            "function t:\nA:\n  r1i = 1\n  r2i = 2\n  r3i = r1i + r2i\n"
            "  MEM(X) = r3i\n  halt\n"
        ))

    def test_corrupted_coloring_is_rejected(self):
        g = self._graph()
        colors = color_class(g, RegClass.INT)
        verify_coloring(g, colors)
        assert colors[int_reg(1)] != colors[int_reg(2)]
        colors[int_reg(2)] = colors[int_reg(1)]
        with pytest.raises(ColoringError, match="share color"):
            verify_coloring(g, colors)

    def test_uncolored_neighbor_is_rejected(self):
        g = self._graph()
        colors = color_class(g, RegClass.INT)
        del colors[int_reg(2)]
        with pytest.raises(ColoringError, match="uncolored"):
            verify_coloring(g, colors)


class TestInterference:
    def test_sequential_reuse_no_interference(self):
        f = parse_function(
            """
function t:
A:
  r1i = 1
  MEM(X) = r1i
  r2i = 2
  MEM(X) = r2i
  halt
"""
        )
        g = build_interference(f)
        assert not g.interferes(int_reg(1), int_reg(2))

    def test_overlapping_ranges_interfere(self):
        f = parse_function(
            """
function t:
A:
  r1i = 1
  r2i = 2
  r3i = r1i + r2i
  MEM(X) = r3i
  halt
"""
        )
        g = build_interference(f)
        assert g.interferes(int_reg(1), int_reg(2))

    def test_classes_never_interfere(self):
        f = parse_function(
            "function t:\nA:\n  r1i = 1\n  r1f = 2.0\n  MEM(X) = r1i\n  MEM(Y) = r1f\n  halt\n"
        )
        g = build_interference(f)
        assert not g.interferes(int_reg(1), fp_reg(1))

    def test_entry_live_ins_interfere(self):
        f = parse_function(
            "function t:\nA:\n  r3i = r1i + r2i\n  MEM(X) = r3i\n  halt\n"
        )
        g = build_interference(f)
        assert g.interferes(int_reg(1), int_reg(2))

    def test_loop_carried_interference(self):
        f = parse_function(
            """
function t:
A:
L:
  r2i = r1i + 1
  r1i = r2i + r3i
  blt (r1i r4i) L
exit:
  halt
"""
        )
        g = build_interference(f)
        # r3i is live across everything, including both defs
        assert g.interferes(int_reg(1), int_reg(3))
        assert g.interferes(int_reg(2), int_reg(3))


class TestColoring:
    def test_coloring_is_proper(self):
        f = parse_function(
            """
function t:
A:
  r1i = 1
  r2i = 2
  r3i = 3
  r4i = r1i + r2i
  r5i = r4i + r3i
  MEM(X) = r5i
  halt
"""
        )
        g = build_interference(f)
        colors = color_class(g, RegClass.INT)
        for r, c in colors.items():
            for n in g.neighbors(r):
                if n in colors:
                    assert colors[n] != c

    def test_usage_counts_reuse(self):
        # two disjoint live ranges share one register
        f = parse_function(
            """
function t:
A:
  r1i = 1
  MEM(X) = r1i
  r2i = 2
  MEM(X) = r2i
  halt
"""
        )
        u = measure_register_usage(f)
        assert u.int_regs == 1
        assert u.fp_regs == 0

    def test_usage_grows_with_overlap(self):
        lines = [f"  r{k}i = {k}" for k in range(1, 6)]
        adds = ["  r6i = r1i + r2i", "  r6i = r6i + r3i",
                "  r6i = r6i + r4i", "  r6i = r6i + r5i", "  MEM(X) = r6i"]
        f = parse_function("function t:\nA:\n" + "\n".join(lines + adds) + "\n  halt\n")
        u = measure_register_usage(f)
        assert u.int_regs >= 5

    def test_totals(self):
        f = parse_function(
            "function t:\nA:\n  r1i = 1\n  r1f = 2.0\n  MEM(X) = r1i\n  MEM(Y) = r1f\n  halt\n"
        )
        u = measure_register_usage(f)
        assert u.total == u.int_regs + u.fp_regs == 2
