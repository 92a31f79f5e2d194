"""Per-layer self time from class-level span wrappers.

The simulator has no spans of its own yet, so the traced benchmark run
wraps public methods of each layer at class level *before* the machine
is built: every instance, and every bound method a component captures
while it is wired up, then goes through the wrapper.  Each wrapper
records one span per call; a layer's self time is the span's duration
minus the time its child spans cover, so time spent in the TLB while the
translation service is on the stack is billed to the TLB, not to the
translation service.

``Recorder.install`` saves every original attribute and
``Recorder.uninstall`` puts them back, so untraced passes that follow a
traced pass in the same process run the unwrapped code.  A target whose
module, class or method cannot be found is reported in ``absent`` and
skipped: that layer reads as zero and nothing else changes.

Sweep workers are forked from the benchmark process and inherit the
wrappers.  When a spool directory is given, a worker rewrites its
cumulative totals to ``<spool>/<pid>.json`` each time its outermost span
closes, and :meth:`Recorder.totals` adds those files to the parent's own
totals once the pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

#: (layer metric prefix, module, class, method).  Each layer is named by
#: the package of ``src/repro`` the method lives in.
TARGETS = (
    ("workloads.build", "repro.workloads.base", "TraceWorkload", "__init__"),
    ("arch.build", "repro.arch.machine", "MachineBuilder", "build"),
    ("sim.run", "repro.sim.engine", "Engine", "run"),
    ("gpu.request", "repro.gpu.translation", "TranslationService", "request"),
    ("tlb.lookup", "repro.tlb.tlb", "TLB", "lookup"),
    ("tlb.fill", "repro.tlb.tlb", "TLB", "fill"),
    ("tlb.mshr_allocate", "repro.tlb.mshr", "MSHRFile", "allocate"),
    ("tlb.track", "repro.tlb.tracker", "L2MissTracker", "track"),
    ("tlb.pwc_probe", "repro.tlb.pwc", "PageWalkCache", "probe"),
    ("ptw.submit", "repro.ptw.subsystem", "HardwareWalkBackend", "submit"),
    ("core.receive", "repro.core.controller", "SoftWalkerController", "receive"),
    ("core.distributor_submit", "repro.core.distributor", "RequestDistributor", "submit"),
    ("core.distributor_complete", "repro.core.distributor", "RequestDistributor", "complete"),
    ("core.pwb_take", "repro.core.softpwb", "SoftPWB", "take_valid"),
    ("memory.data_access", "repro.memory.hierarchy", "MemorySystem", "data_access"),
    ("memory.pte_access", "repro.memory.hierarchy", "MemorySystem", "pte_access"),
    ("pagetable.walk_path", "repro.pagetable.radix", "RadixPageTable", "walk_path"),
    ("pagetable.translate", "repro.pagetable.radix", "RadixPageTable", "translate"),
)

#: The two set-up steps the untraced sweep times inside its workers
#: (``build_workload`` and ``GPUSimulator(...)``); they never nest, so
#: their self times are their durations.
SETUP_TARGETS = (
    ("workloads.build", "repro.workloads.base", "TraceWorkload", "__init__"),
    ("gpu.construct", "repro.gpu.gpu", "GPUSimulator", "__init__"),
)

#: Span around ``submit`` of whatever class the built machine's walk
#: backend has (a plugin wrapper included).  Resolved after each
#: ``MachineBuilder.build``, because the class is only known then.
WALK_SUBMIT = "walk.submit"


class Recorder:
    """Installs span wrappers and accumulates calls and self time per span."""

    def __init__(self, targets=TARGETS, *, spool: Path | None = None) -> None:
        self.targets = tuple(targets)
        self.spool = spool
        self.absent: list[str] = []
        #: span name -> [calls, self seconds]
        self._totals: dict[str, list] = {}
        #: one [child seconds] cell per open span
        self._stack: list[list[float]] = []
        #: (class, attribute, original or None when it was inherited)
        self._saved: list[tuple[type, str, object]] = []
        self._backend_classes: set[type] = set()
        self._owner = os.getpid()

    # ------------------------------------------------------------------
    def install(self) -> "Recorder":
        self.absent = []
        for name, module, cls_name, method in self.targets:
            try:
                cls = getattr(importlib.import_module(module), cls_name)
                getattr(cls, method)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            after = self._wrap_backend if name == "arch.build" else None
            self._patch(cls, method, name, after)
        return self

    def uninstall(self) -> None:
        self._backend_classes.clear()
        while self._saved:
            cls, attr, original = self._saved.pop()
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        for cell in self._totals.values():
            cell[0] = 0
            cell[1] = 0.0
        if self.spool is not None:
            for path in self.spool.glob("*.json"):
                path.unlink()

    def totals(self) -> dict[str, tuple[int, float]]:
        """span -> (calls, self seconds), worker spool files included."""
        merged = {name: [cell[0], cell[1]] for name, cell in self._totals.items()}
        if self.spool is not None:
            for path in sorted(self.spool.glob("*.json")):
                for name, (calls, self_s) in json.loads(path.read_text()).items():
                    cell = merged.setdefault(name, [0, 0.0])
                    cell[0] += calls
                    cell[1] += self_s
        return {name: (cell[0], cell[1]) for name, cell in merged.items()}

    # ------------------------------------------------------------------
    def _patch(self, cls: type, attr: str, name: str, after=None) -> None:
        original = cls.__dict__.get(attr)
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self._span(name, getattr(cls, attr), after))

    def _wrap_backend(self, machine) -> None:
        cls = type(machine.backend)
        if cls in self._backend_classes:
            return
        self._backend_classes.add(cls)
        self._patch(cls, "submit", WALK_SUBMIT)

    def _span(self, name: str, fn, after=None):
        cell = self._totals.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        flush = self._flush

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                cell[0] += 1
                cell[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    flush()
            if after is not None:
                after(result)
            return result

        return span

    def _flush(self) -> None:
        if self.spool is None or os.getpid() == self._owner:
            return
        data = {name: cell for name, cell in self._totals.items() if cell[0]}
        (self.spool / f"{os.getpid()}.json").write_text(json.dumps(data))
