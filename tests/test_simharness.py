"""Replicate-runner tests: worker-count independence, the failure policy, and
the analysis pipeline's shared work across methods."""
import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialmi import core, imputation, simharness
from trialmi.cli import read_dataset_csv
from trialmi.core import ScenarioLabel, validate_dataset
from trialmi.datagen import generate_trial, setting_preset
from trialmi.errors import ConfigError, ImputationError, SimulationError, TrialMIError
from trialmi.estimation import ESTIMANDS, estimate_matrix
from trialmi.imputation import METHODS, ImputationConfig
from trialmi.simharness import SimPlan, analyze_dataset, run_plan

from .helpers import (completer, count_calls, load_trialgen, make_dataset, make_subject,
                      reference_metrics, reference_pool_rubin)
from .strategies import valid_records

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


@pytest.mark.parametrize("count", [0, -5])
def test_plan_rejects_a_truth_count_below_one_at_construction(count):
    with pytest.raises(ConfigError, match=f"^truth_n_datasets must be >= 1, got {count}$"):
        dataclasses.replace(plan(), truth_n_datasets=count)


def test_worker_count_does_not_change_results():
    one, two = run_plan(plan(workers=1)), run_plan(plan(workers=2))
    assert len(one.rows) == 4 * 3
    assert one.rows == two.rows
    assert one.scenario_summary == two.scenario_summary


def test_metrics_match_a_per_replicate_loop():
    # Bit for bit: the replicate arrays reduce as 1-D arrays over the replicates do.
    p = dataclasses.replace(plan(), n_replicates=24, methods=("D", "A", "C"))
    table = run_plan(p)
    rows, summary = reference_metrics(p)
    assert table.rows == rows and table.scenario_summary == summary
    assert list(table.scenario_summary) == list(summary)
    assert (table.n_replicates, table.n_excluded) == (24, 0)


def test_typed_failure_is_excluded_within_allowance(monkeypatch):
    fail_replicate(monkeypatch, 1, ImputationError("donor pool exhausted"))
    monkeypatch.setattr(simharness, "MAX_FAILURE_FRACTION", 0.25)
    table = run_plan(plan())
    assert (table.n_replicates, table.n_excluded) == (3, 1)
    assert table.failures == ("replicate 1: ImputationError: donor pool exhausted",)


def test_typed_failure_beyond_allowance_fails_the_plan(monkeypatch):
    fail_replicate(monkeypatch, 1, ImputationError("donor pool exhausted"))
    monkeypatch.setattr(simharness, "MAX_FAILURE_FRACTION", 0.2)
    with pytest.raises(SimulationError, match="1 of 4 replicates failed"):
        run_plan(plan())


def test_programming_error_aborts_the_plan(monkeypatch):
    fail_replicate(monkeypatch, 1, ValueError("not a typed failure"))
    monkeypatch.setattr(simharness, "MAX_FAILURE_FRACTION", 1.0)
    with pytest.raises(ValueError, match="not a typed failure") as info:
        run_plan(plan())
    if sys.version_info >= (3, 11):
        assert info.value.__notes__ == ["replicate 1"]


def small_trial():
    return generate_trial(dataclasses.replace(setting_preset("setting2"), n_per_arm=80), 5, replicate=1)


def trialgen_trial(tmp_path):
    trialgen = load_trialgen()
    trialgen.write_csv(tmp_path / "trial.csv", trialgen.generate(seed=3, n_per_arm=150)[0])
    return read_dataset_csv(tmp_path / "trial.csv")


def short_arm_trial():
    """Arm 1 has two adherent completers, two retrieved dropouts and five
    subjects not withdrawn, so at IMP's min_donor_pool=6 the adherent,
    retrieved-dropout and endpoint donors of its targets all pool with arm 0's."""
    sizes = ((0, 8), (1, 2))
    subjects = [completer(-1.0 + 0.05 * j, arm=arm, baseline=7.0 + 0.3 * j)
                for arm, k in sizes for j in range(k)]
    subjects += [completer(-0.3 - 0.1 * j, arm=arm, disc=12.0 * (1 + j % 3), baseline=7.2 + 0.25 * j)
                 for arm, k in sizes for j in range(k)]
    subjects += [make_subject([-0.4, -0.6, None, None], arm=arm, baseline=8.1) for arm in (0, 1)]
    subjects += [make_subject([-0.2, None, None, None], disc=24.0)]
    subjects += [make_subject([-0.5 + 0.1 * j, -0.7, None, None], arm=arm, withdraw=30.0, baseline=7.5 + j)
                 for arm in (0, 1) for j in range(2)]
    return make_dataset(subjects)


def count_passes(monkeypatch):
    """A function giving the counts, from now on, of dataset checks
    (``core._violations``: the one pass that checks and then classifies every
    subject), ``classify_scenario`` calls through every trialmi module that
    holds it, and subject records built."""
    original = core.classify_scenario
    holders = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "trialmi" and getattr(module, "classify_scenario", None) is original]
    one_record = [count_calls(monkeypatch, module, "classify_scenario") for module in holders]
    checks = count_calls(monkeypatch, core, "_violations")
    records = count_calls(monkeypatch, core.SubjectRecord, "__init__")
    return lambda: (checks[0], sum(c[0] for c in one_record), records[0])


def test_analysis_classifies_each_subject_once(monkeypatch):
    data = small_trial()
    counts = count_passes(monkeypatch)
    analyze_dataset(data, IMP, METHODS, 0.95)
    assert counts() == (1, 0, 0) and "subjects" not in vars(data)
    assert (data.columns.scenario == ScenarioLabel.S52).any()  # method C built survival samples


def test_replicate_classifies_each_subject_once(monkeypatch):
    generate, made = simharness.generate_trial, []
    monkeypatch.setattr(simharness, "generate_trial",
                        lambda *a, **kw: made.append(generate(*a, **kw)) or made[-1])
    counts = count_passes(monkeypatch)
    result = simharness._run_replicate((PARAMS, plan(), 0))
    rep, scenarios, values = result
    assert rep == 0 and scenarios.shape == (2, len(ScenarioLabel)) and values.shape == (len(METHODS), 3, 4)
    assert counts() == (1, 0, 0) and len(made) == 1 and "subjects" not in vars(made[0])
    run_plan(plan())
    assert counts() == (1 + 4, 0, 0) and not any("subjects" in vars(d) for d in made)


IMP = ImputationConfig(method="A", m=12, seed=5, min_donor_pool=6)
CASES = {
    "DCBA": (IMP, tuple("DCBA")), "A": (IMP, ("A",)), "C": (IMP, ("C",)), "D": (IMP, ("D",)),
    "BD": (IMP, ("B", "D")),
    "BA-baseline-only": (dataclasses.replace(IMP, mar_conditioning="baseline-only"), ("B", "A")),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("source", ["setting1", "small-setting2", "trialgen", "short-arm"])
def test_shared_work_matches_separate_calls(case, source, tmp_path, monkeypatch):
    data = {"setting1": lambda: generate_trial("setting1", 5, replicate=2),
            "small-setting2": small_trial, "trialgen": lambda: trialgen_trial(tmp_path),
            "short-arm": short_arm_trial}[source]()
    calls = []
    impute = simharness.impute_matrix

    def recording(dataset, cfg, **kw):
        calls.append((cfg, impute(dataset, cfg, **kw)))
        return calls[-1][1]
    monkeypatch.setattr(simharness, "impute_matrix", recording)
    imp, methods = CASES[case]
    pooled, events = analyze_dataset(data, imp, methods, 0.9, replicate=3)

    arms = np.array([s.arm for s in data.subjects])
    n0, n1 = int((arms == 0).sum()), int((arms == 1).sum())
    com_df = {"control": n0 - 1, "treatment": n1 - 1, "difference": n0 + n1 - 2}
    assert [cfg for cfg, _ in calls] == [dataclasses.replace(imp, method=m) for m in methods]
    for cfg, got in calls:
        fresh = imputation.impute_matrix(data, cfg, replicate=3)
        assert np.array_equal(got.endpoints, fresh.endpoints)
        assert got.fallback_events == fresh.fallback_events == events[cfg.method]
        est = estimate_matrix(arms, fresh.endpoints)
        assert list(est) == list(pooled[cfg.method]) == list(ESTIMANDS)
        for estimand, (pairs, df) in est.items():
            assert df == com_df[estimand]
            p = pooled[cfg.method][estimand]
            assert (p.point, p.within, p.between, p.total, p.df, p.ci_low, p.ci_high) == \
                reference_pool_rubin(pairs.tolist(), 0.9, com_df[estimand])


def test_shared_work_makes_fewer_donor_fits(monkeypatch):
    data = small_trial()
    fits = []
    fit = imputation.fit_donor_model
    monkeypatch.setattr(imputation, "fit_donor_model", lambda *a, **kw: fits.append(1) or fit(*a, **kw))
    analyze_dataset(data, IMP, ("A", "B", "C"), 0.95)
    shared = len(fits)
    fits.clear()
    for method in "ABC":
        analyze_dataset(data, IMP, (method,), 0.95)
    assert 0 < shared < len(fits)


def test_method_skips_donor_groups_it_does_not_use():
    # Too few adherent completers for any MAR fit, but no S2 subject: B never
    # asks for one, while A imputes the withdrawn from adherers.
    subjects = [completer(-1.0 + 0.1 * j, arm=arm, baseline=7 + 0.2 * j) for arm in (0, 1) for j in range(2)]
    subjects += [completer(-0.3 - 0.02 * j, arm=arm, disc=12.0, baseline=7 + 0.1 * j)
                 for arm in (0, 1) for j in range(8)]
    subjects += [make_subject([-0.2, None, None, None], arm=arm, withdraw=20.0) for arm in (0, 1)]
    data = make_dataset(subjects)
    assert set(analyze_dataset(data, IMP, ("B", "D"), 0.95)[0]) == {"B", "D"}
    with pytest.raises(ImputationError, match="pooling arms"):
        analyze_dataset(data, IMP, ("B", "A"), 0.95)


@given(st.lists(valid_records(), min_size=24, max_size=48, unique_by=lambda r: r.id),
       st.sampled_from(["baseline-only", "monotone-sequential"]))
def test_valid_dataset_gives_finite_estimates_or_a_typed_error(records, conditioning):
    # Most such datasets stop with a typed short-donor-pool error; about a
    # quarter reach the finiteness checks.
    data = make_dataset(records)
    assert not validate_dataset(data)
    imputed = []
    impute = simharness.impute_matrix

    def recording(dataset, cfg, **kw):
        imputed.append(impute(dataset, cfg, **kw))
        return imputed[-1]
    imp = ImputationConfig(method="A", m=3, min_donor_pool=2, mar_conditioning=conditioning)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simharness, "impute_matrix", recording)
        try:
            pooled, _ = analyze_dataset(data, imp, METHODS, 0.95)
        except TrialMIError:
            return
    observed = [j for j, s in enumerate(records) if s.outcomes[-1] is not None]
    for result in imputed:
        assert np.isfinite(result.endpoints).all()
        assert (result.endpoints[:, observed] == [records[j].outcomes[-1] for j in observed]).all()
    for by_estimand in pooled.values():
        for p in by_estimand.values():
            assert np.isfinite([p.point, p.within, p.between, p.total, p.ci_low, p.ci_high]).all()
