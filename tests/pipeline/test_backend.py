"""The solve stage's production path (``backend_solver``)."""

from repro.checks.engine import REFERENCE_KERNELS
from repro.pipeline import PlanCache, plan
from repro.pipeline.parallel import backend_solver
from repro.pipeline.registry import get_solver
from repro.workloads.generators import (
    multi_component_instance,
    random_instance,
)
from tests.conftest import reference_kernels


class TestBackendSolver:
    def test_array_and_object_agree(self):
        """The array kernel the solve stage runs matches its reference."""
        instance = random_instance(8, 40, seed=2)
        spec = get_solver("general")
        obj = REFERENCE_KERNELS["general"](instance, 0, None)
        arr = backend_solver(spec, instance)(0, None)
        assert obj.rounds == arr.rounds
        assert obj.method == arr.method


class TestPlanBackendAttribution:
    def test_plans_are_byte_identical(self):
        """A plan on the array kernels equals the reference-kernel plan."""
        instance = multi_component_instance(3, seed=5)
        arr = plan(instance, parallel=False)
        production = get_solver("general").solve
        with reference_kernels():
            assert get_solver("general").solve is not production
            ref = plan(instance, parallel=False)
        assert ref.schedule.rounds == arr.schedule.rounds
        assert ref.schedule.method == arr.schedule.method
        assert [c.method for c in ref.components] == [
            c.method for c in arr.components
        ]

    def test_cache_is_backend_agnostic(self):
        """A reference-kernel solve is a cache hit for a production plan."""
        instance = multi_component_instance(2, seed=9)
        cache = PlanCache()
        production = get_solver("general").solve
        with reference_kernels():
            cold = plan(instance, cache=cache, parallel=False)
        assert get_solver("general").solve is production
        warm = plan(instance, cache=cache, parallel=False)
        assert cold.schedule.rounds == warm.schedule.rounds
        assert cold.schedule.method == warm.schedule.method
        assert warm.components_cached == len(warm.components)
        assert all(comp.cached for comp in warm.components)
