"""Per-layer spans recorded from outside the program.

The tracer wraps the public entry function of each ``repro`` layer (the
``TARGETS`` table) and records, per layer, the number of calls and the
*self time*: a span's duration minus the time its child spans cover.
Nothing under ``src/`` is changed; the wrappers are installed at run time
by rebinding every module attribute (and class attribute) that refers to
the original function, so ``from x import f`` aliases are caught too.

Spans nest per thread (the service answers on several threads).  The
recorder lives on a :class:`Tracer` object that the caller creates and
uninstalls; while no tracer is installed the program runs unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time

#: layer name -> (defining module, attribute path).  The layer name is
#: the metric prefix: ``<layer>.self_s`` and ``<layer>.calls``.
TARGETS: dict[str, tuple[str, str]] = {
    "frontend.lower_kernel": ("repro.frontend.lower", "lower_kernel"),
    "opt.run_conv": ("repro.opt.driver", "run_conv"),
    "pipeline.apply_ilp_transforms": ("repro.pipeline", "apply_ilp_transforms"),
    "pipeline.schedule_function": ("repro.pipeline", "schedule_function"),
    "analysis.liveness": ("repro.analysis.liveness", "liveness"),
    "analysis.build_depgraph": ("repro.analysis.depgraph", "build_depgraph"),
    "ir.loop.dominators": ("repro.ir.loop", "dominators"),
    "ir.loop.find_loops": ("repro.ir.loop", "find_loops"),
    "ir.verify.verify_pipeline": ("repro.ir.verify", "verify_pipeline"),
    "regalloc.measure_register_usage": ("repro.regalloc.coloring",
                                        "measure_register_usage"),
    "harness.ConvKernel.clone": ("repro.harness", "ConvKernel.clone"),
    "harness.TransformedKernel.clone": ("repro.harness",
                                        "TransformedKernel.clone"),
    "harness.run_compiled_kernel": ("repro.harness", "run_compiled_kernel"),
    "sim.compiled_program": ("repro.sim.executor", "compiled_program"),
    "sim.execute_plan": ("repro.sim.blockgen", "execute_plan"),
    "sim.replay": ("repro.sim.replay", "replay"),
    "check.refeval.reference_run": ("repro.check.refeval", "reference_run"),
    "service.store.get": ("repro.service.store", "ArtifactStore.get"),
    "service.store.put": ("repro.service.store", "ArtifactStore.put"),
    "service.jobs.compute_cell": ("repro.service.jobs", "compute_cell"),
}


def import_all_repro() -> None:
    """Import every ``repro`` module, so that every alias of a traced
    function exists before the wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # that one runs the CLI
            importlib.import_module(info.name)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


class Tracer:
    """Self time and call count per layer; install() / uninstall()."""

    def __init__(self, targets: dict[str, tuple[str, str]] = TARGETS,
                 clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.self_s = {layer: 0.0 for layer in targets}
        self.calls = {layer: 0 for layer in targets}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        local = self._local
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)  # child time accumulated under this span
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.self_s[layer] += dt - child
                    self.calls[layer] += 1

        return span

    def install(self) -> "Tracer":
        import_all_repro()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "repro" or n.startswith("repro.")) and m]
        for layer, (module, attr) in self.targets.items():
            owner, name, orig = _resolve(module, attr)
            wrapper = self._wrap(layer, orig)
            self._rebind(owner, name, wrapper)
            if isinstance(owner, type):
                continue
            # every other module-level alias (``from .x import f``)
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, alias, wrapper)
        return self

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in self.targets:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
