"""The benchmark's four workloads and their input generators.

Every workload drives one public entry point of the program:

* ``cold-odd-dense`` and ``cold-even-sparse`` time certified
  ``repro.plan`` calls on fresh inputs (no plan cache);
* ``delta-stream`` times ``repro.plan_delta`` steps on a shared
  ``PlanCache``;
* ``sim-campaign`` times ``repro.sim.SimEngine.run``.

A workload is driven by :mod:`perfbench.harness` through five calls:
``setup(k)`` (one set-up, timed by the harness), ``warmup()``,
``prepare(i)`` (builds op ``i``'s input and returns the timed call),
``check(i, output)`` (the correctness gate for that op, untimed) and
``finish()`` (whole-run checks).  Inputs depend only on the seed and
the op index, never on timing, so a traced and an untraced run see the
same inputs and must produce the same schedule digests.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.checks.certify import (
    certify,
    rounds_digest,
    verify_certificate,
    verify_patch_certificate,
)
from repro.core.delta import InstanceDelta
from repro.core.problem import MigrationInstance
from repro.graphs.multigraph import Multigraph
from repro.obs import names
from repro.sim import SimConfig, SimEngine
from repro.sim.report import build_report
from repro.workloads.generators import random_instance, regular_instance

import repro.sim.engine as sim_engine

#: capacity mix of the odd-dense family: half the disks have odd c_v.
ODD_MIX = {1: 0.3, 2: 0.2, 3: 0.3, 4: 0.2}


def derive(seed: int, *parts: object) -> int:
    """A 32-bit seed derived from the run seed and a label."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16)


@dataclass
class Outcome:
    """What the correctness gate learned about one timed operation."""

    #: identifies the input; repeated inputs must repeat their digest.
    key: str
    items: int
    rounds: int
    #: verified lower bound on ``rounds``.
    lower_bound: int
    digest: str
    failures: List[str] = field(default_factory=list)
    #: workload-specific counts read off the output.
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: set-ups per run; the harness reports their median time.
    setups = 3
    #: operations a run makes however long they take.
    min_ops = 3

    def setup(self, k: int) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed work that lets lazy imports and caches settle."""

    def prepare(self, i: int) -> Callable[[], Any]:
        raise NotImplementedError

    def check(self, i: int, output: Any) -> Outcome:
        raise NotImplementedError

    def finish(self) -> List[str]:
        return []


def _certified(instance: MigrationInstance, result: Any, key: str) -> Outcome:
    """Re-verify a certified plan's schedule and lower-bound certificate."""
    failures: List[str] = []
    report = certify(instance, result.schedule, certificate=result.certificate)
    if verify_certificate(instance, result.certificate) != result.lower_bound:
        failures.append(f"{key}: certificate does not prove the reported bound")
    if report.rounds != result.num_rounds or report.lower_bound != result.lower_bound:
        failures.append(f"{key}: certifier disagrees with the plan's result")
    return Outcome(
        key=key,
        items=instance.num_items,
        rounds=report.rounds,
        lower_bound=report.lower_bound,
        digest=rounds_digest(result.schedule.rounds),
        failures=failures,
    )


# ----------------------------------------------------------------------
# cold certified plans
# ----------------------------------------------------------------------

class ColdPlan(Workload):
    """Certified ``repro.plan`` of a few fresh instances, round robin.

    Each set-up generates one instance; op ``i`` plans instance
    ``i mod setups`` with no cache, so every call is cold and every
    repeat must reproduce its instance's digest.
    """

    def __init__(self, name: str, seed: int,
                 build: Callable[[int], MigrationInstance],
                 warm: Callable[[int], MigrationInstance],
                 setups: int, min_ops: int) -> None:
        self.name = name
        self.seed = seed
        self.build, self.warm = build, warm
        self.setups, self.min_ops = setups, min_ops
        self.instances: List[Tuple[int, MigrationInstance]] = []
        self.digests: Dict[str, str] = {}

    def setup(self, k: int) -> None:
        instance_seed = derive(self.seed, self.name, k)
        self.instances.append((instance_seed, self.build(instance_seed)))

    def warmup(self) -> None:
        repro.plan(self.warm(self.seed), certify=True, parallel=False)

    def prepare(self, i: int) -> Callable[[], Any]:
        plan_seed, instance = self.instances[i % len(self.instances)]
        return lambda: repro.plan(instance, seed=plan_seed, certify=True, parallel=False)

    def check(self, i: int, output: Any) -> Outcome:
        k = i % len(self.instances)
        outcome = _certified(self.instances[k][1], output, f"instance {k}")
        first = self.digests.setdefault(outcome.key, outcome.digest)
        if first != outcome.digest:
            outcome.failures.append(f"instance {k}: repeat plan changed the schedule")
        return outcome


# ----------------------------------------------------------------------
# delta stream
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaFamily:
    """Many small odd-capacity components (the plan_delta family)."""

    components: int
    nodes: int
    edges: int
    #: components one delta is confined to.
    dirty: int
    #: share of all items one delta edits (split remove/retarget/add).
    fraction: float


def component_instance(family: DeltaFamily, seed: int) -> MigrationInstance:
    """A spanning path plus random extra edges per component, c_v in {1, 3}."""
    rng = random.Random(seed)
    graph = Multigraph()
    capacities: Dict[str, int] = {}
    for k in range(family.components):
        nodes = [f"c{k:03d}.d{i:02d}" for i in range(family.nodes)]
        for node in nodes:
            graph.add_node(node)
            capacities[node] = rng.choice((1, 3))
        for u, v in zip(nodes, nodes[1:]):
            graph.add_edge(u, v)
        for _ in range(family.edges - (family.nodes - 1)):
            u, v = rng.sample(nodes, 2)
            graph.add_edge(u, v)
    return MigrationInstance(graph, capacities)


def confined_delta(instance: MigrationInstance, family: DeltaFamily,
                   seed: int) -> InstanceDelta:
    """Removes, retargets and adds confined to ``family.dirty`` components.

    Removes and retargets consume disjoint edges of a shuffled pool, so
    no two edits race for the last parallel copy of a pair.
    """
    rng = random.Random(seed)
    tags = sorted(f"c{k:03d}" for k in rng.sample(range(family.components), family.dirty))
    dirty = set(tags)
    members: Dict[str, List[str]] = {tag: [] for tag in tags}
    for node in instance.graph.nodes:
        tag = node.split(".")[0]
        if tag in dirty:
            members[tag].append(node)
    for nodes in members.values():
        nodes.sort()
    pool = [(u, v) for _eid, u, v in instance.graph.edges() if u.split(".")[0] in dirty]
    rng.shuffle(pool)
    each = max(1, int(instance.num_items * family.fraction) // 3)
    each = min(each, len(pool) // 2)
    removes = [pool.pop() for _ in range(each)]
    retargets = []
    for _ in range(each):
        u, v = pool.pop()
        others = [n for n in members[u.split(".")[0]] if n not in (u, v)]
        retargets.append((u, v, others[rng.randrange(len(others))]))
    adds = []
    for _ in range(each):
        nodes = members[tags[rng.randrange(len(tags))]]
        u, v = rng.sample(nodes, 2)
        adds.append((u, v))
    return InstanceDelta(
        add_moves=tuple(adds),
        remove_moves=tuple(removes),
        retarget_moves=tuple(retargets),
    )


class DeltaStream(Workload):
    """Successive ``plan_delta(..., certify=True)`` steps on one cache.

    A set-up builds the instance and makes the cold certified prior
    plan; op ``i`` absorbs delta ``i`` into the result of op ``i - 1``.
    Every ``sample_every``-th step is also compared byte for byte with a
    full ``repro.plan`` of the patched instance on the shared cache.
    """

    name = "delta-stream"

    def __init__(self, seed: int, family: DeltaFamily, setups: int,
                 min_ops: int, sample_every: int) -> None:
        self.seed = seed
        self.family = family
        self.setups, self.min_ops = setups, min_ops
        self.sample_every = sample_every
        self.plan_seed = derive(seed, self.name, "plan")
        self.cache: Optional[repro.PlanCache] = None
        self.current: Any = None
        self.prior_digests: List[str] = []
        self.pending: Optional[Tuple[Any, InstanceDelta]] = None

    def setup(self, k: int) -> None:
        instance = component_instance(self.family, derive(self.seed, self.name))
        self.cache = repro.PlanCache(max_entries=1 << 16)
        self.current = repro.plan(
            instance, "auto", self.plan_seed, cache=self.cache,
            certify=True, parallel=False,
        )
        self.prior_digests.append(rounds_digest(self.current.schedule.rounds))

    def prepare(self, i: int) -> Callable[[], Any]:
        prior = self.current
        delta = confined_delta(prior.instance, self.family, derive(self.seed, "delta", i))
        self.pending = (prior, delta)
        cache = self.cache
        return lambda: repro.plan_delta(prior, delta, cache=cache, certify=True)

    def check(self, i: int, output: Any) -> Outcome:
        assert self.pending is not None
        prior, delta = self.pending
        outcome = _certified(output.instance, output, f"step {i}")
        verify_patch_certificate(
            output.patch_certificate,
            prior.schedule.rounds,
            delta.canonical_payload(),
            output.schedule.rounds,
        )
        if i % self.sample_every == 0:
            full = repro.plan(
                output.instance, "auto", self.plan_seed, cache=self.cache,
                certify=True, parallel=False,
            )
            if rounds_digest(full.schedule.rounds) != outcome.digest:
                outcome.failures.append(f"step {i}: differs from a full plan()")
            if full.lower_bound != outcome.lower_bound:
                outcome.failures.append(f"step {i}: bound differs from a full plan()")
        outcome.extra = {
            "reused": output.components_reused,
            "patched": output.components_patched,
            "resolved": output.components_resolved,
            "patched_edges": output.patched_edges,
            "fallbacks": output.fallbacks,
        }
        self.current = output
        return outcome

    def finish(self) -> List[str]:
        if len(set(self.prior_digests)) > 1:
            return ["repeated set-ups planned different prior schedules"]
        return []


# ----------------------------------------------------------------------
# simulator campaign
# ----------------------------------------------------------------------

def campaign_digest(engine: SimEngine) -> str:
    return hashlib.sha256(build_report(engine).canonical_json().encode("utf-8")).hexdigest()


class SimCampaign(Workload):
    """Whole ``SimEngine.run`` campaigns, round robin over a few seeds.

    A set-up builds one campaign's engine (fleet and placement).  The
    warm-up runs every campaign once with the engine's ``plan`` calls
    recorded, certifies each recorded repair schedule and stores the
    campaign's report digest; each timed run must repeat that digest.
    """

    name = "sim-campaign"

    def __init__(self, seed: int, config: Dict[str, Any], setups: int,
                 min_ops: int) -> None:
        self.configs = [
            SimConfig(seed=derive(seed, self.name, k), **config) for k in range(setups)
        ]
        self.setups, self.min_ops = setups, min_ops
        self.built: Dict[int, SimEngine] = {}
        #: per campaign: (report digest, Σ rounds, Σ verified LB, failures)
        self.reference: Dict[int, Tuple[str, int, int, List[str]]] = {}

    def setup(self, k: int) -> None:
        self.built[k] = SimEngine(self.configs[k])

    def warmup(self) -> None:
        for k, config in enumerate(self.configs):
            self.reference[k] = self._recorded_campaign(config)

    @staticmethod
    def _recorded_campaign(config: SimConfig) -> Tuple[str, int, int, List[str]]:
        recorded: List[Tuple[MigrationInstance, Any]] = []
        real_plan = sim_engine.plan

        def recording_plan(instance: MigrationInstance, *args: Any, **kwargs: Any) -> Any:
            result = real_plan(instance, *args, **kwargs)
            recorded.append((instance, result))
            return result

        sim_engine.plan = recording_plan
        try:
            engine = SimEngine(config).run()
        finally:
            sim_engine.plan = real_plan
        rounds = bound = 0
        failures: List[str] = []
        for n, (instance, result) in enumerate(recorded):
            report = certify(instance, result.schedule)
            if report.rounds != result.num_rounds:
                failures.append(f"incident {n}: certifier disagrees on rounds")
            rounds += report.rounds
            bound += report.lower_bound
        return campaign_digest(engine), rounds, bound, failures

    def prepare(self, i: int) -> Callable[[], Any]:
        k = i % len(self.configs)
        engine = self.built.pop(k, None) or SimEngine(self.configs[k])
        return engine.run

    def check(self, i: int, output: Any) -> Outcome:
        k = i % len(self.configs)
        digest, rounds, bound, failures = self.reference[k]
        outcome = Outcome(
            key=f"campaign {k}",
            items=sum(incident.transfers for incident in output.incidents),
            rounds=rounds,
            lower_bound=bound,
            digest=campaign_digest(output),
            failures=list(failures),
        )
        if outcome.digest != digest:
            outcome.failures.append(f"campaign {k}: report digest did not repeat")
        makespans = [incident.makespan for incident in output.incidents]
        outcome.extra = {
            "events": output.metrics.counters.get(names.SIM_EVENTS, 0),
            "makespan_sum": sum(makespans),
            "incidents": len(makespans),
        }
        return outcome


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

#: the workloads, in the order BENCHMARK.json lists them (with the
#: reason each exists).
NAMES = ("cold-odd-dense", "cold-even-sparse", "delta-stream", "sim-campaign")

#: sizes per scale; ``tiny`` keeps the benchmark's own tests fast.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "cold-odd-dense": {"disks": 64, "items": 12000, "setups": 4, "min_ops": 8},
        "cold-even-sparse": {"disks": 200, "degree": 68, "setups": 4, "min_ops": 8},
        "delta-stream": {
            "family": DeltaFamily(components=60, nodes=10, edges=50, dirty=4,
                                  fraction=0.01),
            "setups": 3, "min_ops": 100, "sample_every": 10,
        },
        "sim-campaign": {
            "config": {"duration": 1000.0, "items": 400, "failure_rate": 0.002},
            "setups": 6, "min_ops": 12,
        },
    },
    "tiny": {
        "cold-odd-dense": {"disks": 16, "items": 300, "setups": 2, "min_ops": 2},
        "cold-even-sparse": {"disks": 40, "degree": 8, "setups": 2, "min_ops": 2},
        "delta-stream": {
            "family": DeltaFamily(components=8, nodes=10, edges=20, dirty=2,
                                  fraction=0.05),
            "setups": 2, "min_ops": 5, "sample_every": 2,
        },
        "sim-campaign": {
            "config": {"duration": 300.0, "items": 60, "failure_rate": 0.002},
            "setups": 2, "min_ops": 2,
        },
    },
}



def make(name: str, seed: int, scale: str = "full") -> Workload:
    """Build workload ``name`` for ``seed`` at ``scale`` ("full" or "tiny")."""
    size = SIZES[scale][name]
    if name == "cold-odd-dense":
        disks, items = size["disks"], size["items"]
        return ColdPlan(
            name, seed,
            build=lambda s: random_instance(disks, items, ODD_MIX, seed=s),
            warm=lambda s: random_instance(disks, max(items // 20, 50), ODD_MIX, seed=s),
            setups=size["setups"], min_ops=size["min_ops"],
        )
    if name == "cold-even-sparse":
        disks, degree = size["disks"], size["degree"]
        return ColdPlan(
            name, seed,
            build=lambda s: regular_instance(disks, degree, capacity=2, seed=s),
            warm=lambda s: regular_instance(max(disks // 10, 10), degree, capacity=2, seed=s),
            setups=size["setups"], min_ops=size["min_ops"],
        )
    if name == "delta-stream":
        return DeltaStream(seed, size["family"], size["setups"],
                           size["min_ops"], size["sample_every"])
    if name == "sim-campaign":
        return SimCampaign(seed, size["config"], size["setups"],
                           size["min_ops"])
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
