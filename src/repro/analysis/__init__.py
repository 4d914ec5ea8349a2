"""repro.analysis — dataflow, liveness, dependence, and loop-variable
analyses used by the optimizer, transformations, and scheduler."""

from .defuse import DefUse, func_def_counts, reaching_def_before, regs_defined, regs_used
from .liveness import (
    Liveness, block_gen_kill, live_at_instr_positions, liveness, liveness_masks,
)
from .memdep import AddressAnalysis, AddrExpr, may_alias, memory_independent
from .depgraph import DepGraph, build_depgraph, speculable
from .loopvars import (
    AccumulatorInfo,
    CountedLoop,
    InductionInfo,
    SearchInfo,
    find_accumulators,
    find_inductions,
    find_search_variables,
)

__all__ = [
    "DefUse", "func_def_counts", "reaching_def_before", "regs_defined", "regs_used",
    "Liveness", "block_gen_kill", "live_at_instr_positions", "liveness",
    "liveness_masks",
    "AddressAnalysis", "AddrExpr", "may_alias", "memory_independent",
    "DepGraph", "build_depgraph", "speculable",
    "AccumulatorInfo", "CountedLoop", "InductionInfo", "SearchInfo",
    "find_accumulators", "find_inductions", "find_search_variables",
]
