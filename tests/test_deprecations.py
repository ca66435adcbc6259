"""Removed legacy spellings stay removed.

Each deprecation cycle ends with the old spelling gone: calling it is
an error, and the canonical spelling works without a warning.
"""

import inspect
import warnings

import pytest

from repro.extensions.online import run_online
from repro.pipeline import PlanCache, plan, plan_delta, solver_names
from repro.runtime import MigrationExecutor
from repro.workloads.scenarios import decommission_scenario


def scenario_executor(**kwargs):
    scenario = decommission_scenario(seed=1)
    schedule = plan(scenario.instance).schedule
    return MigrationExecutor(
        scenario.cluster, scenario.context, schedule, **kwargs
    )


class TestExecutorCacheKwarg:
    def test_plan_cache_kwarg_is_gone(self):
        """The deprecation cycle ended: plan_cache= is now a TypeError."""
        with pytest.raises(TypeError, match="plan_cache"):
            scenario_executor(plan_cache=PlanCache())

    def test_from_state_plan_cache_kwarg_is_gone(self):
        executor = scenario_executor(cache=PlanCache())
        state = executor.get_state()
        scenario = decommission_scenario(seed=1)
        with pytest.raises(TypeError, match="plan_cache"):
            MigrationExecutor.from_state(
                scenario.cluster, state, plan_cache=PlanCache()
            )

    def test_canonical_cache_kwarg_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor = scenario_executor(cache=PlanCache())
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert executor.plan_cache is not None


class TestRemovedPlanningKnobs:
    def test_planners_take_no_engine_choice(self):
        for fn in (plan, plan_delta):
            assert "backend" not in inspect.signature(fn).parameters

    def test_exact_is_no_longer_a_method(self):
        """``exact_bb`` superseded the brute-force ``exact`` method."""
        assert "exact" not in solver_names()
        scenario = decommission_scenario(seed=1)
        with pytest.raises(ValueError, match="unknown method"):
            plan(scenario.instance, method="exact")

    def test_run_online_rejects_round_batch_mapping(self):
        with pytest.raises(TypeError, match="InstanceDelta"):
            run_online({0: [("a", "b")]}, {"a": 1, "b": 1})
