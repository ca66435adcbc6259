"""Per-layer probes for the traced run, installed from outside the program.

A :class:`Probe` names one public function or method of a layer.  While
a :class:`ProbeSet` is installed, every place the program looks that
object up is rebound to a recording wrapper:

* a module-level function is replaced in *every* loaded ``repro``
  module that holds it (``decompose`` lives in ``repro.pipeline.stages``
  but is called through ``repro.pipeline.planner.decompose`` and
  ``repro.pipeline.delta.decompose``), found by identity, not by name;
* a method is replaced on its class, which every instance consults.

:meth:`ProbeSet.uninstall` puts every original object back, and
:func:`restored` checks that by identity.

Spans only count while the harness has a root span open (one per timed
operation), so the benchmark's own verification calls never pollute the
numbers.  Each timed probe records inclusive seconds (outermost
activation only, so recursion is not double counted), self seconds
(inclusive minus the time its child spans cover) and calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: probe kinds
TIMED = "timed"  # s, self_s, calls
COUNTED = "counted"  # calls only (hot kernels where timing costs too much)
OK_RATIO = "ok"  # timed, plus the share of calls returning a truthy value
HIT_MISS = "hitmiss"  # calls split by a None (miss) / non-None (hit) result
ATTEMPTS = "attempts"  # wraps the callable a factory returns; counts its calls


@dataclass(frozen=True)
class Probe:
    """One wrapped layer entry point.

    ``module`` and ``attr`` locate the original (``attr`` may be
    ``Class.method``); ``name`` is the metric prefix.
    """

    name: str
    module: str
    attr: str
    kind: str = TIMED


@dataclass
class Stat:
    incl: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    ok: int = 0
    misses: int = 0
    depth: int = 0


class Recorder:
    """Span stack plus per-probe accumulators for one traced phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, Stat] = {}
        # One [child seconds] cell per open span; empty outside an op.
        self._stack: List[List[float]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def span(self, name: str, fn: Callable[..., Any], ok: bool = False,
             hitmiss: bool = False) -> Callable[..., Any]:
        stat = self.stat(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            cell = [0.0]
            stack.append(cell)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                if stat.depth == 0:
                    stat.incl += elapsed
                stat.self_s += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if ok and result:
                stat.ok += 1
            if hitmiss and result is None:
                stat.misses += 1
            return result

        return wrapper

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stat = self.stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack:
                stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def attempts(self, name: str, factory: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a factory so each callable it returns counts its calls."""
        count = self.counter

        @functools.wraps(factory)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return count(name, factory(*args, **kwargs))

        return wrapper

    def root(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span of one timed operation."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._stack.append([0.0])
        stat = self.stat(name)
        start = self.clock()
        try:
            return fn()
        finally:
            elapsed = self.clock() - start
            cell = self._stack.pop()
            stat.calls += 1
            stat.incl += elapsed
            stat.self_s += elapsed - cell[0]


def _resolve(module: str, attr: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, original)`` for a probe target."""
    owner: Any = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


class ProbeSet:
    """Install and remove a list of probes around a traced phase."""

    def __init__(self, probes: List[Probe], recorder: Recorder) -> None:
        self.probes = probes
        self.recorder = recorder
        #: (owner, attribute, original) for every rebinding made.
        self.patched: List[Tuple[Any, str, Any]] = []

    def _wrap(self, probe: Probe, original: Any) -> Any:
        rec = self.recorder
        if probe.kind == COUNTED:
            return rec.counter(probe.name, original)
        if probe.kind == ATTEMPTS:
            return rec.attempts(probe.name, original)
        return rec.span(
            probe.name, original,
            ok=probe.kind == OK_RATIO, hitmiss=probe.kind == HIT_MISS,
        )

    def targets(self) -> List[Tuple[Probe, Any, str, Any]]:
        """Every ``(probe, owner, attribute, original)`` binding to rebind.

        A method is rebound on its class.  A function is rebound in every
        loaded ``repro`` module that holds it, whatever name it was
        imported under.
        """
        found: List[Tuple[Probe, Any, str, Any]] = []
        for probe in self.probes:
            owner, name, original = _resolve(probe.module, probe.attr)
            if isinstance(owner, type):
                found.append((probe, owner, name, original))
                continue
            for mod_name in sorted(sys.modules):
                if mod_name != "repro" and not mod_name.startswith("repro."):
                    continue
                mod = sys.modules[mod_name]
                found.extend(
                    (probe, mod, key, original)
                    for key, value in list(vars(mod).items())
                    if value is original
                )
        return found

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("probes already installed")
        wrappers: Dict[Probe, Any] = {}
        try:
            for probe, owner, name, original in self.targets():
                wrapper = wrappers.get(probe)
                if wrapper is None:
                    wrapper = wrappers[probe] = self._wrap(probe, original)
                setattr(owner, name, wrapper)
                self.patched.append((owner, name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "ProbeSet":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def restored(targets: List[Tuple[Probe, Any, str, Any]]) -> Optional[str]:
    """``None`` when every target binding holds its original object again."""
    for _probe, owner, name, original in targets:
        current = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if current is not original:
            return f"{getattr(owner, '__name__', owner)}.{name} was not restored"
    return None


#: The layers the traced run measures, named ``<module>.<function>``
#: after the package layout under ``src/repro``.
PROBES: List[Probe] = [
    Probe("pipeline.planner.plan", "repro.pipeline.planner", "plan"),
    Probe("pipeline.stages.normalize", "repro.pipeline.stages", "normalize"),
    Probe("pipeline.stages.decompose", "repro.pipeline.stages", "decompose"),
    Probe("pipeline.stages.merge", "repro.pipeline.stages", "merge"),
    Probe("pipeline.canonical.fingerprint", "repro.pipeline.canonical", "fingerprint"),
    Probe("pipeline.canonical.canonicalize_rounds", "repro.pipeline.canonical",
          "canonicalize_rounds"),
    Probe("pipeline.canonical.rehydrate_rounds", "repro.pipeline.canonical",
          "rehydrate_rounds"),
    Probe("pipeline.cache.get_plan", "repro.pipeline.cache", "PlanCache.get_plan",
          HIT_MISS),
    Probe("pipeline.cache.get_bound", "repro.pipeline.cache", "PlanCache.get_bound",
          HIT_MISS),
    Probe("pipeline.parallel.solve_job", "repro.pipeline.parallel", "solve_job"),
    Probe("solve.attempts", "repro.pipeline.parallel", "backend_solver", ATTEMPTS),
    Probe("pipeline.delta.plan_delta", "repro.pipeline.delta", "plan_delta"),
    Probe("core.recolor.ArrayColoringState.common_missing_color", "repro.core.recolor",
          "ArrayColoringState.common_missing_color"),
    Probe("core.recolor.ArrayColoringState.try_color_edge", "repro.core.recolor",
          "ArrayColoringState.try_color_edge", OK_RATIO),
    Probe("core.recolor.ArrayColoringState.attempt_flip", "repro.core.recolor",
          "ArrayColoringState.attempt_flip", OK_RATIO),
    Probe("core.recolor.ArrayColoringState.add_color", "repro.core.recolor",
          "ArrayColoringState.add_color"),
    Probe("core.recolor.ColoringState.preload", "repro.core.recolor",
          "ColoringState.preload"),
    Probe("core.recolor.ColoringState.try_color_edge", "repro.core.recolor",
          "ColoringState.try_color_edge"),
    Probe("graphs.matching.QuotaPeeler.peel", "repro.graphs.matching", "QuotaPeeler.peel"),
    Probe("graphs.euler.compact_euler_orientation", "repro.graphs.euler",
          "compact_euler_orientation"),
    Probe("graphs.array_backend.lower_instance", "repro.graphs.array_backend",
          "lower_instance"),
    Probe("core.lower_bounds.lb2_witness", "repro.core.lower_bounds", "lb2_witness"),
    Probe("core.lower_bounds.lb2_exact_witness", "repro.core.lower_bounds",
          "lb2_exact_witness"),
    Probe("core.lower_bounds.subset_bound", "repro.core.lower_bounds", "subset_bound",
          COUNTED),
    Probe("checks.certify.make_certificate", "repro.checks.certify", "make_certificate"),
    Probe("checks.certify.certify", "repro.checks.certify", "certify"),
    Probe("checks.certify.verify_schedule", "repro.checks.certify", "verify_schedule"),
    Probe("core.schedule.MigrationSchedule.validate", "repro.core.schedule",
          "MigrationSchedule.validate"),
    Probe("core.delta.apply_delta", "repro.core.delta", "apply_delta"),
    Probe("sim.repair.build_repair_instance", "repro.sim.repair", "build_repair_instance"),
]
