"""Replicate-runner tests: worker-count independence and the failure policy."""
import dataclasses

import pytest

from trialmi import simharness
from trialmi.datagen import setting_preset
from trialmi.errors import ImputationError, SimulationError
from trialmi.imputation import ImputationConfig
from trialmi.simharness import SimPlan, run_plan

PARAMS = dataclasses.replace(setting_preset("setting1"), n_per_arm=60)


def plan(**kw):
    return SimPlan(params=PARAMS, n_replicates=4, seed=3, truth_n_datasets=200,
                   imputation=ImputationConfig(method="A", m=5, min_donor_pool=4), **kw)


def fail_replicate(monkeypatch, rep, exc):
    generate = simharness.generate_trial

    def failing(params, seed, *, replicate=0):
        if replicate == rep:
            raise exc
        return generate(params, seed, replicate=replicate)
    monkeypatch.setattr(simharness, "generate_trial", failing)


def test_worker_count_does_not_change_results():
    one, two = run_plan(plan(workers=1)), run_plan(plan(workers=2))
    assert len(one.rows) == 4 * 3
    assert one.rows == two.rows
    assert one.scenario_summary == two.scenario_summary


def test_typed_failure_is_excluded_within_allowance(monkeypatch):
    fail_replicate(monkeypatch, 1, ImputationError("donor pool exhausted"))
    table = run_plan(plan(max_failure_fraction=0.25))
    assert (table.n_replicates, table.n_excluded) == (3, 1)
    assert table.failures == ("replicate 1: ImputationError: donor pool exhausted",)


def test_typed_failure_beyond_allowance_fails_the_plan(monkeypatch):
    fail_replicate(monkeypatch, 1, ImputationError("donor pool exhausted"))
    with pytest.raises(SimulationError, match="1 of 4 replicates failed"):
        run_plan(plan(max_failure_fraction=0.2))


def test_programming_error_aborts_the_plan(monkeypatch):
    fail_replicate(monkeypatch, 1, ValueError("not a typed failure"))
    with pytest.raises(ValueError, match="not a typed failure"):
        run_plan(plan(max_failure_fraction=1.0))
