"""Generative-model tests: closed-form checks, Monte Carlo oracles, and
reproducibility properties."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialmi._streams import substream
from trialmi.core import ScenarioLabel, VisitGrid, scenario_counts
from trialmi.datagen import (NEVER, GenParams, adherent_trajectory, assemble_subject,
                             disc_probability, draw_baseline, generate_trial,
                             generate_truth, setting_preset, simulate_disc_time,
                             simulate_withdrawal, treatment_policy_trajectory)
from trialmi.errors import ConfigError

from .analytic_oracle import scenario_probabilities
from .helpers import reference_truth

S = ScenarioLabel
BASELINE_MEAN = 7.0 + 3.0 * 1.5 / 3.5  # 8.2857...


def rng(*key):
    return substream(99, 7, *key)


class TestPresets:
    def test_setting_values(self):
        s1 = setting_preset("setting1")
        assert (s1.alpha0, s1.alpha1, s1.withdrawal_hazard) == (-3.5, 1.5, 0.002)
        s2 = setting_preset("setting2")
        assert (s2.alpha0, s2.alpha1, s2.withdrawal_hazard) == (-3.5, 0.0, 0.005)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            setting_preset("setting9")

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            GenParams(kappa=0.0).validate()
        with pytest.raises(ConfigError):
            GenParams(c_control=(0.2, 0.2)).validate()
        with pytest.raises(ConfigError):
            GenParams(c_control=(1.0, 0.2, 0.2, 0.2)).validate()


class TestBaseline:
    def test_population_mean(self):
        assert GenParams().baseline_mean == pytest.approx(BASELINE_MEAN, abs=1e-12)

    def test_degenerate_scale(self):
        params = GenParams(baseline_scale=0.0)
        x = draw_baseline(rng(1), params, size=100)
        assert np.all(x == 7.0)

    def test_invalid_beta(self):
        with pytest.raises(ConfigError):
            draw_baseline(rng(2), GenParams(baseline_beta_a=-1.0))

    def test_monte_carlo_mean(self):
        params = GenParams()
        x = draw_baseline(rng(3), params, size=1_000_000)
        a, b = 1.5, 2.0
        sd = 3.0 * math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        assert abs(x.mean() - BASELINE_MEAN) < 3 * sd / 1000.0


class TestAdherentTrajectory:
    def test_saturates_to_ultimate_change(self):
        params = GenParams(sigma_s2=0.0, sigma_e2=0.0, kappa=1.0,
                           grid=dataclasses.replace(GenParams().grid))
        _, y = adherent_trajectory(rng(4), BASELINE_MEAN, 1, params)
        assert y[-1] == pytest.approx(params.theta1, abs=1e-12)

    def test_baseline_slope_only(self):
        params = GenParams(sigma_s2=0.0, sigma_e2=0.0, kappa=50.0, theta0=0.0)
        x = 10.0
        _, y = adherent_trajectory(rng(5), x, 0, params)
        assert np.allclose(y, -0.1 * (x - BASELINE_MEAN), atol=1e-12)

    def test_monte_carlo_week48_mean(self):
        params = setting_preset("setting1")
        n = 100_000
        g = rng(6)
        x = draw_baseline(g, params, size=n)
        s = g.normal(0, 1.0, size=n)
        eps = g.normal(0, math.sqrt(0.5), size=n)
        decay = 1.0 - math.exp(-params.kappa * 48.0)
        y48 = (params.theta1 + (params.beta0 + params.beta1) * (x - BASELINE_MEAN) + s) * decay + eps
        expected = params.theta1 * decay
        sd = y48.std()
        assert abs(y48.mean() - expected) < 3 * sd / math.sqrt(n)


class TestDiscontinuation:
    def test_logistic_arithmetic(self):
        params = GenParams(alpha1=0.0, c_control=(0.2,) * 4)
        p = disc_probability(0.0, 0, 0, params)
        assert p == pytest.approx(0.229312, abs=5e-7)

    def test_certain_at_first_visit(self):
        base = float(1.0 / (1.0 + math.exp(3.5)))
        params = GenParams(alpha1=0.0, c_control=(1.0 - base - 1e-12,) * 4)
        for seed in range(20):
            t = simulate_disc_time(rng(7, seed), np.zeros(4), 0, params)
            assert t == 0.0

    def test_never_when_probability_zero(self):
        params = GenParams(alpha0=-60.0, alpha1=0.0, c_control=(0.0,) * 4,
                           c_experimental=(0.0,) * 4)
        assert simulate_disc_time(rng(8), np.zeros(4), 0, params) == NEVER

    def test_extreme_response_clipped(self):
        params = setting_preset("setting1")
        p = disc_probability(50.0, 0, 0, params)
        assert p == 1.0

    def test_per_visit_frequency_matches_closed_form(self):
        params = setting_preset("setting2")
        n = 100_000
        g = rng(9)
        at_risk = np.full(n, True)
        for k in range(4):
            p = disc_probability(0.0, k, 0, params)
            fail = at_risk & (g.random(n) < p)
            frac = fail.sum() / at_risk.sum()
            se = math.sqrt(p * (1 - p) / at_risk.sum())
            assert abs(frac - p) < 3 * se
            at_risk &= ~fail


class TestWashout:
    def test_control_arm_unchanged(self):
        params = setting_preset("setting1")
        _, y = adherent_trajectory(rng(10), 8.0, 0, params)
        assert np.array_equal(treatment_policy_trajectory(y, 0, 12.0, params), y)

    def test_no_discontinuation_identity(self):
        params = setting_preset("setting1")
        _, y = adherent_trajectory(rng(11), 8.0, 1, params)
        assert np.array_equal(treatment_policy_trajectory(y, 1, NEVER, params), y)

    def test_full_washout_reaches_control_level(self):
        params = GenParams(sigma_s2=0.0, sigma_e2=0.0)
        _, y = adherent_trajectory(rng(12), BASELINE_MEAN, 1, params)
        y_tp = treatment_policy_trajectory(y, 1, 0.0, params)
        decay = 1.0 - np.exp(-params.kappa * np.asarray(params.grid.times))
        # 24 weeks past the week-0 discontinuation, the deterministic part is
        # the control mean.
        assert y_tp[1] == pytest.approx(params.theta0 * decay[1], abs=1e-12)
        assert y_tp[3] == pytest.approx(params.theta0 * decay[3], abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=36.0), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_identity_before_discontinuation(self, disc, seed):
        params = setting_preset("setting1")
        _, y = adherent_trajectory(substream(seed, 0), 8.5, 1, params)
        y_tp = treatment_policy_trajectory(y, 1, disc, params)
        times = np.asarray(params.grid.times)
        assert np.array_equal(y_tp[times <= disc], y[times <= disc])


class TestWithdrawal:
    def test_zero_hazard(self):
        params = GenParams(withdrawal_hazard=0.0)
        assert simulate_withdrawal(rng(13), params) == NEVER

    def test_monte_carlo_fraction(self):
        params = GenParams(withdrawal_hazard=0.002)
        n = 100_000
        g = rng(14)
        hits = sum(simulate_withdrawal(g, params) < 48.0 for _ in range(n))
        p = 1.0 - math.exp(-0.002 * 48.0)
        assert p == pytest.approx(0.09153598, abs=5e-8)
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)


class TestAssembly:
    def test_clean_completer(self):
        params = dataclasses.replace(setting_preset("setting1"), p_miss_completer=0.0)
        subject = assemble_subject("a", 8.0, 0, np.zeros(4), NEVER, NEVER, rng(15), params)
        assert subject.disc_time is None and subject.withdraw_time is None
        assert not any(subject.missing)

    def test_retained_dropout_masked(self):
        params = dataclasses.replace(setting_preset("setting1"), p_miss_retained_dropout=1.0)
        subject = assemble_subject("a", 8.0, 1, np.zeros(4), 24.0, NEVER, rng(16), params)
        assert subject.disc_time == 24.0
        assert subject.missing == (False, False, False, True)

    def test_withdrawal_masks_later_visits(self):
        params = setting_preset("setting1")
        subject = assemble_subject("a", 8.0, 0, np.zeros(4), NEVER, 30.0, rng(17), params)
        assert subject.withdraw_time == 30.0 and subject.withdraw_type == 1
        assert subject.missing == (False, False, True, True)
        assert subject.disc_time is None

    def test_disc_censored_by_earlier_withdrawal(self):
        params = setting_preset("setting1")
        subject = assemble_subject("a", 8.0, 0, np.zeros(4), 36.0, 20.0, rng(18), params)
        assert subject.disc_time is None  # withdrawal precedes it


class TestGenerateTrial:
    def test_deterministic(self):
        a = generate_trial("setting1", seed=5)
        b = generate_trial("setting1", seed=5)
        assert a == b

    def test_replicates_differ(self):
        a = generate_trial("setting1", seed=5, replicate=0)
        b = generate_trial("setting1", seed=5, replicate=1)
        assert a.subjects != b.subjects

    def test_all_completers_in_degenerate_regime(self):
        params = dataclasses.replace(
            setting_preset("setting1"), alpha0=-60.0, alpha1=0.0,
            c_control=(0.0,) * 4, c_experimental=(0.0,) * 4,
            withdrawal_hazard=0.0, p_miss_completer=0.0, p_miss_retained_dropout=0.0)
        data = generate_trial(params, seed=3)
        counts = scenario_counts(data)
        assert counts[0][S.S1] == counts[1][S.S1] == params.n_per_arm

    def test_zero_hazard_means_no_withdrawals(self):
        params = dataclasses.replace(setting_preset("setting2"), withdrawal_hazard=0.0)
        for rep in range(3):
            counts = scenario_counts(generate_trial(params, seed=11, replicate=rep))
            assert counts[0][S.S52] == 0 and counts[1][S.S52] == 0

    def test_scenario_proportions_match_analytic_tree(self):
        params = setting_preset("setting2")
        reps = 300
        totals = {arm: {label: 0.0 for label in S} for arm in (0, 1)}
        for rep in range(reps):
            counts = scenario_counts(generate_trial(params, seed=17, replicate=rep))
            for arm in (0, 1):
                for label in S:
                    totals[arm][label] += counts[arm][label]
        n = params.n_per_arm
        for arm in (0, 1):
            expected = scenario_probabilities(params, arm)
            for label in S:
                mean = totals[arm][label] / reps
                target = n * expected[label]
                se = math.sqrt(n * expected[label] * (1 - expected[label]) / reps)
                assert abs(mean - target) < 3 * se, (arm, label, mean, target)


class TestTruth:
    def test_control_truth_near_zero(self):
        truth = generate_truth("setting2", 2000, seed=21)
        assert abs(truth.mean_control) < 0.05
        assert truth.difference == pytest.approx(
            truth.mean_treatment - truth.mean_control, abs=1e-12)

    def test_deterministic_plugin_case(self):
        params = dataclasses.replace(
            setting_preset("setting1"), sigma_s2=0.0, sigma_e2=0.0,
            baseline_scale=0.0, mu_x=7.0, alpha0=-60.0, alpha1=0.0,
            c_control=(0.0,) * 4, c_experimental=(0.0,) * 4)
        truth = generate_truth(params, 1, seed=1)
        decay = 1.0 - math.exp(-params.kappa * 48.0)
        assert truth.mean_control == pytest.approx(0.0, abs=1e-12)
        assert truth.mean_treatment == pytest.approx(params.theta1 * decay, abs=1e-12)

    @pytest.mark.parametrize("params, n_datasets, seed", [
        pytest.param("setting1", 1, 7, id="setting1-1"),
        pytest.param("setting1", 501, 8, id="setting1-501"),
        pytest.param("setting2", 1, 8, id="setting2-1"),
        pytest.param("setting2", 501, 7, id="setting2-501"),
        pytest.param(dataclasses.replace(setting_preset("setting1"), theta1=0.0), 501, 3,
                     id="equal-effects"),
        pytest.param(dataclasses.replace(setting_preset("setting1"), grid=VisitGrid((48.0,)),
                                         c_control=(0.2,), c_experimental=(0.06,)), 501, 4,
                     id="one-visit"),
    ])
    def test_bit_identical_to_reference_kernel(self, params, n_datasets, seed):
        # The fast kernel keeps the reference's draws and arithmetic order,
        # so every truth value is equal, not merely close.
        assert generate_truth(params, n_datasets, seed) == reference_truth(params, n_datasets, seed)

    def test_seed_batches_agree(self):
        a = generate_truth("setting2", 2000, seed=100)
        b = generate_truth("setting2", 2000, seed=200)
        for field in ("mean_control", "mean_treatment", "difference"):
            assert abs(getattr(a, field) - getattr(b, field)) < 0.01

    def test_matches_scalar_generation_path(self):
        # The vectorized truth oracle and the per-subject trial generator
        # sample the same law: compare complete-data endpoint means.
        params = dataclasses.replace(setting_preset("setting2"), withdrawal_hazard=0.0,
                                     p_miss_completer=0.0, p_miss_retained_dropout=0.0)
        reps = 60
        means = {0: [], 1: []}
        for rep in range(reps):
            data = generate_trial(params, seed=33, replicate=rep)
            for arm in (0, 1):
                vals = [s.endpoint for s in data.subjects if s.arm == arm]
                means[arm].append(float(np.mean(vals)))
        # endpoints are observed for S1/S3 only; with no withdrawal and no
        # masking every subject keeps the endpoint
        truth = generate_truth(params, 4000, seed=44)
        for arm, target in ((0, truth.mean_control), (1, truth.mean_treatment)):
            sample = np.array(means[arm])
            se = sample.std(ddof=1) / math.sqrt(reps)
            assert abs(sample.mean() - target) < 4 * se
