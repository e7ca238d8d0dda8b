"""Generative-model tests: closed-form checks, Monte Carlo oracles, and
reproducibility properties."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from trialmi import datagen
from trialmi._streams import substream
from trialmi.core import ScenarioLabel, VisitGrid, scenario_counts
from trialmi.datagen import (TRUTH_SUBJECTS, GenParams, _first_disc_visit, draw_baseline,
                             generate_trial, generate_truth, setting_preset)
from trialmi.errors import ConfigError

from .analytic_oracle import exact_truth, scenario_probabilities
from .helpers import reference_first_disc_visit, reference_truth

S = ScenarioLabel
BASELINE_MEAN = 7.0 + 3.0 * 1.5 / 3.5  # 8.2857...


def rng(*key):
    return substream(99, 7, *key)


#: A regime with no noise, no withdrawal, no extra missingness and (with
#: alpha0 = -60 and zero constants) no discontinuation; every baseline is the
#: population mean.
QUIET = dict(sigma_s2=0.0, sigma_e2=0.0, baseline_scale=0.0, baseline_loc=BASELINE_MEAN,
             mu_x=BASELINE_MEAN, alpha0=-60.0, alpha1=0.0, c_control=(0.0,) * 4,
             c_experimental=(0.0,) * 4, withdrawal_hazard=0.0, p_miss_completer=0.0,
             p_miss_retained_dropout=0.0)
#: A per-visit constant that, with alpha0 = -60, makes a stop all but certain.
CERTAIN = 1.0 - 1e-12

#: The discontinuation laws the truth kernel takes apart: response-dependent
#: (setting1), response-independent (setting2), no effect shift in either arm
#: and a single visit.
TRUTH_CASES = {
    "setting1": setting_preset("setting1"),
    "setting2": setting_preset("setting2"),
    "equal-effects": dataclasses.replace(setting_preset("setting1"), theta1=0.0),
    "one-visit": dataclasses.replace(setting_preset("setting1"), grid=VisitGrid((48.0,)),
                                     c_control=(0.2,), c_experimental=(0.06,)),
}


def trial(seed=1, replicate=0, **changes):
    """A small trial on setting1 with ``changes`` applied."""
    params = dataclasses.replace(setting_preset("setting1"), **{"n_per_arm": 40, **changes})
    return params, generate_trial(params, seed, replicate=replicate)


def arm_subjects(data, arm):
    return [s for s in data.subjects if s.arm == arm]


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
            GenParams(kappa=0.0)
        with pytest.raises(ConfigError):
            GenParams(c_control=(0.2, 0.2))
        with pytest.raises(ConfigError):
            GenParams(c_control=(1.0, 0.2, 0.2, 0.2))


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

    @pytest.mark.parametrize("a, b", [(1.5, 2.0), (0.5, 3.0), (2.7, 1.0), (1.3, 4.0)])
    def test_exponential_product_has_the_beta_law(self, a, b):
        # Shapes inside the product rule, the presets' first: a half-integer,
        # a fractional and a whole a, and one to four exponential terms.
        n = 200_000
        params = GenParams(baseline_beta_a=a, baseline_beta_b=b)
        u = (draw_baseline(rng(4), params, size=(500, 400)) - 7.0) / 3.0
        law = stats.beta(a, b)
        assert stats.kstest(u.ravel(), law.cdf).pvalue > 1e-3
        mean, var, kurt = law.stats(moments="mvk")
        assert abs(u.mean() - mean) < 4 * math.sqrt(var / n)
        # The sample variance's SE, from the fourth central moment (kurt + 3) var^2.
        assert abs(u.var(ddof=1) - var) < 4 * var * math.sqrt((kurt + 2) / n)

    @pytest.mark.parametrize("a, b", [(1.3, 2.5), (1.5, 5.0)])
    def test_shapes_outside_the_rule_draw_numpy_beta(self, a, b):
        # b is not whole, or b > 4.
        params = GenParams(baseline_beta_a=a, baseline_beta_b=b)
        expected = 7.0 + 3.0 * rng(5).beta(a, b, size=1000)
        assert np.array_equal(draw_baseline(rng(5), params, size=1000), expected)

    def test_peak_memory_stays_near_one_output(self):
        # The output alone, plus a small block; the first call keeps numpy's
        # one-time allocations out of the peak.
        draw_baseline(rng(6), GenParams(), size=(500, 200))
        tracemalloc.start()
        try:
            x = draw_baseline(rng(6), GenParams(), size=(500, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * x.nbytes

    @pytest.mark.parametrize("a, b", [(1.5, 2.0), (0.5, 3.0), (1.3, 2.5), (1.5, 5.0)])
    def test_out_holds_the_allocating_draw(self, a, b):
        # Inside and outside the product rule; ``out`` is a prefix view of a
        # larger, dirty buffer, as a truth workspace's last batch is.
        params = GenParams(baseline_beta_a=a, baseline_beta_b=b)
        buf = np.full(50_000, np.nan)
        out = buf[:30_000].reshape(100, 300)
        assert draw_baseline(rng(9), params, out=out) is out
        assert np.array_equal(out, draw_baseline(rng(9), params, size=(100, 300)))
        assert np.isnan(buf[30_000:]).all()

    def test_blocks_draw_the_stream_of_one_whole_draw(self):
        # E0 then E1 for (1.5, 2), each over the whole array in turn.
        g = rng(7)
        e0, e1 = g.standard_exponential(30_000), g.standard_exponential(30_000)
        expected = 7.0 + 3.0 * np.exp(-(e0 / 1.5 + e1 / 2.5))
        assert np.array_equal(draw_baseline(rng(7), GenParams(), size=(100, 300)), expected.reshape(100, 300))


class TestAdherentTrajectory:
    def test_saturates_to_ultimate_change(self):
        params, data = trial(**QUIET, kappa=1.0)
        for s in arm_subjects(data, 1):
            assert s.outcomes[-1] == pytest.approx(params.theta1, abs=1e-12)

    def test_baseline_slope_only(self):
        x = 10.0
        _, data = trial(**{**QUIET, "baseline_loc": x}, kappa=50.0, theta0=0.0)
        for s in arm_subjects(data, 0):
            assert s.baseline == x
            assert np.allclose(s.outcomes, -0.1 * (x - BASELINE_MEAN), atol=1e-12)

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
        # At the first visit the probability is expit(-3.5) + 0.2 = 0.229312;
        # a uniform just below it stops there, one just above never stops.
        params = GenParams(alpha1=0.0, c_control=(0.2,) * 4)
        u = np.array([[0.229312 - 5e-7, 0.229312 + 5e-7]] + [[1.0 - 1e-16] * 2] * 3)
        first = _first_disc_visit(u, np.zeros(2), np.zeros((4, 2)), np.ones(4), 0, params)
        assert first.tolist() == [0, 4]

    @pytest.mark.parametrize("case", ["setting1", "clip-edge", "alpha1-zero", "one-visit"])
    def test_visit_major_kernel_matches_reference(self, case):
        # The visit-major kernel picks the same visit as the subject-major
        # reference, for trial-shaped (n,) and truth-shaped (b, n) levels.
        params, centre = setting_preset("setting1"), -1.8
        if case == "clip-edge":
            # Levels near 6 put expit + c past 1 after the first visit, and
            # uniforms near 1 meet the clipped probability.
            centre = 6.0
        elif case == "alpha1-zero":
            params = setting_preset("setting2")
        elif case == "one-visit":
            params = dataclasses.replace(params, grid=VisitGrid((48.0,)), c_control=(0.2,),
                                         c_experimental=(0.06,))
        visits = params.grid.n_visits
        decay = 1.0 - np.exp(-params.kappa * np.asarray(params.grid.times))
        g = rng(8, visits)
        for shape in ((300,), (7, 60)):
            level = g.normal(centre, 1.0, size=shape)
            eps = g.normal(0.0, math.sqrt(params.sigma_e2), size=shape + (visits,))
            u = g.random((visits,) + shape)
            if case == "clip-edge":
                u = 0.9 + 0.1 * u
            for arm in (0, 1):
                fast = _first_disc_visit(u, level, np.moveaxis(eps, -1, 0), decay, arm, params)
                slow = reference_first_disc_visit(u, level, eps, decay, arm, params)
                assert fast.tolist() == slow.tolist()
                # Dirty scratch arrays give the same visits, in ``first`` itself.
                first, prob, mask = np.full(shape, -7, np.intp), np.full(shape, np.nan), np.ones(shape, bool)
                scratch = _first_disc_visit(u, level, np.moveaxis(eps, -1, 0), decay, arm, params,
                                            first=first, prob=prob, mask=mask)
                assert scratch is first and np.array_equal(scratch, fast)
                assert 0 < (fast < visits).sum() < fast.size

    def test_certain_at_first_visit(self):
        base = float(1.0 / (1.0 + math.exp(3.5)))
        for seed in range(20):
            _, data = trial(seed, alpha1=0.0, c_control=(1.0 - base - 1e-12,) * 4,
                            withdrawal_hazard=0.0)
            assert all(s.disc_time == 0.0 for s in arm_subjects(data, 0))

    def test_never_when_probability_zero(self):
        _, data = trial(alpha0=-60.0, alpha1=0.0, c_control=(0.0,) * 4, c_experimental=(0.0,) * 4)
        assert all(s.disc_time is None for s in data.subjects)

    def test_extreme_response_clipped(self):
        # A response of +50 puts expit past 1 - 0.06 after the first visit:
        # every treated subject still on treatment then stops, and the
        # clipped probability raises no warning.
        _, data = trial(theta1=50.0, kappa=1.0, withdrawal_hazard=0.0)
        assert {s.disc_time for s in arm_subjects(data, 1)} <= {0.0, 12.0}

    def test_per_visit_frequency_matches_closed_form(self):
        # setting2's control-arm law: response-independent stops.
        params, data = trial(n_per_arm=25_000, alpha1=0.0, withdrawal_hazard=0.0)
        weeks = np.array([np.inf if s.disc_time is None else s.disc_time for s in arm_subjects(data, 0)])
        at_risk = np.full(weeks.size, True)
        for k, week in enumerate((0.0,) + params.grid.times[:-1]):
            p = float(1.0 / (1.0 + math.exp(3.5))) + params.c_control[k]
            fail = at_risk & (weeks == week)
            frac = fail.sum() / at_risk.sum()
            se = math.sqrt(p * (1 - p) / at_risk.sum())
            assert abs(frac - p) < 3 * se
            at_risk &= ~fail


class TestWashout:
    def test_control_arm_unchanged(self):
        # Control subjects all stop at week 0 and keep the control curve.
        params, data = trial(**{**QUIET, "c_control": (CERTAIN,) * 4}, theta0=-0.5)
        decay = 1.0 - np.exp(-params.kappa * np.asarray(params.grid.times))
        for s in arm_subjects(data, 0):
            assert s.disc_time == 0.0
            assert np.allclose(s.outcomes, params.theta0 * decay, atol=1e-12)

    def test_no_discontinuation_identity(self):
        params, data = trial(**QUIET)
        decay = 1.0 - np.exp(-params.kappa * np.asarray(params.grid.times))
        for s in arm_subjects(data, 1):
            assert s.disc_time is None
            assert np.allclose(s.outcomes, params.theta1 * decay, atol=1e-12)

    def test_full_washout_reaches_control_level(self):
        params, data = trial(**{**QUIET, "c_experimental": (CERTAIN,) * 4})
        decay = 1.0 - np.exp(-params.kappa * np.asarray(params.grid.times))
        # 24 weeks past the week-0 discontinuation, the deterministic part is
        # the control mean.
        for s in arm_subjects(data, 1):
            assert s.disc_time == 0.0
            assert s.outcomes[1] == pytest.approx(params.theta0 * decay[1], abs=1e-12)
            assert s.outcomes[3] == pytest.approx(params.theta0 * decay[3], abs=1e-12)

    @given(st.floats(min_value=1.0, max_value=36.0), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_identity_before_discontinuation(self, washout, seed):
        # The washout length changes no draw: visits up to the recorded
        # discontinuation match a trial with another washout, later ones move.
        _, data = trial(seed, n_per_arm=8, washout_weeks=24.0)
        _, other = trial(seed, n_per_arm=8, washout_weeks=washout)
        times = setting_preset("setting1").grid.times
        for s, o in zip(data.subjects, other.subjects):
            disc = s.disc_time if s.disc_time is not None else math.inf
            for t, y, z in zip(times, s.outcomes, o.outcomes):
                if t <= disc or s.arm == 0 or y is None:
                    assert y == z
                elif washout != 24.0 and t - disc < max(washout, 24.0):
                    assert y != z


class TestWithdrawal:
    def test_zero_hazard(self):
        _, data = trial(withdrawal_hazard=0.0)
        assert all(s.withdraw_time is None for s in data.subjects)

    def test_monte_carlo_fraction(self):
        _, data = trial(n_per_arm=25_000, withdrawal_hazard=0.002)
        n = len(data.subjects)
        hits = sum(s.withdraw_time is not None for s in data.subjects)
        p = 1.0 - math.exp(-0.002 * 48.0)
        assert p == pytest.approx(0.09153598, abs=5e-8)
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)


class TestAssembly:
    def test_clean_completer(self):
        _, data = trial(**{**QUIET, "sigma_s2": 1.0, "sigma_e2": 0.5})
        for s in data.subjects:
            assert s.disc_time is None and s.withdraw_time is None
            assert not any(s.missing)

    def test_retained_dropout_masked(self):
        # Every treated subject stops right after week 24 and loses the endpoint.
        _, data = trial(**{**QUIET, "c_experimental": (0.0, 0.0, CERTAIN, 0.0),
                           "p_miss_retained_dropout": 1.0})
        for s in arm_subjects(data, 1):
            assert s.disc_time == 24.0
            assert s.missing == (False, False, False, True)
        assert not any(any(s.missing) for s in arm_subjects(data, 0))

    def test_withdrawal_masks_later_visits(self):
        # Completers lose the endpoint with probability 1; withdrawn subjects
        # lose exactly the visits after their withdrawal week.
        params, data = trial(**{**QUIET, "withdrawal_hazard": 0.03, "p_miss_completer": 1.0})
        withdrawn = [s for s in data.subjects if s.withdraw_time is not None]
        assert 0 < len(withdrawn) < len(data.subjects)
        for s in data.subjects:
            assert s.disc_time is None
            if s.withdraw_time is None:
                assert s.missing == (False, False, False, True)
            else:
                assert 0 <= s.withdraw_time < 48.0 and s.withdraw_type == 1
                assert s.missing == tuple(t > s.withdraw_time for t in params.grid.times)

    def test_disc_censored_by_earlier_withdrawal(self):
        # Every subject stops right after week 36 unless withdrawn before it.
        _, data = trial(**{**QUIET, "withdrawal_hazard": 0.03,
                           "c_control": (0.0, 0.0, 0.0, CERTAIN)})
        subjects = arm_subjects(data, 0)
        assert any(s.withdraw_time is not None and s.withdraw_time < 36.0 for s in subjects)
        for s in subjects:
            censored = s.withdraw_time is not None and s.withdraw_time <= 36.0
            assert s.disc_time == (None if censored else 36.0)


class TestGenerateTrial:
    def test_deterministic(self):
        a = generate_trial("setting1", seed=5)
        b = generate_trial("setting1", seed=5)
        assert a.subjects == b.subjects

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

    def test_one_visit_grid_and_one_subject_per_arm(self):
        _, data = trial(n_per_arm=1, grid=VisitGrid((48.0,)), c_control=(0.2,),
                        c_experimental=(0.06,), withdrawal_hazard=0.0)
        assert [(s.id, s.arm) for s in data.subjects] == [("S0001", 0), ("S0002", 1)]
        for s in data.subjects:
            assert len(s.outcomes) == 1 and s.disc_time in (None, 0.0)
        for rep in range(50):
            _, data = trial(replicate=rep, n_per_arm=3, grid=VisitGrid((48.0,)),
                            c_control=(0.2,), c_experimental=(0.06,))
            assert all(s.disc_time in (None, 0.0) for s in data.subjects)
            assert [s.id for s in data.subjects] == [f"S000{j}" for j in range(1, 7)]

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

    @pytest.mark.parametrize("name", sorted(TRUTH_CASES))
    def test_within_4_mcse_of_exact_truth(self, name):
        # 1,001 datasets cross a batch boundary (500 per batch at n = 200).
        assert_within_4_mcse(TRUTH_CASES[name], 1001, seed=7)

    @pytest.mark.parametrize("name", sorted(TRUTH_CASES))
    def test_dataset_means_have_the_exact_spread(self, name):
        # The 4-MCSE check above sees only the mean of the dataset means; a
        # kernel that drew them with the right mean but a wrong spread would
        # pass it. Each dataset mean averages n iid subjects, so its variance
        # is the subject variance over n; a sample variance of B near-normal
        # values has relative SD sqrt(2 / (B - 1)).
        params = TRUTH_CASES[name]
        n, batch, b = params.n_per_arm, TRUTH_SUBJECTS // params.n_per_arm, 4000
        draws = rng(11)
        means = [datagen._complete_endpoint_means(draws, params, batch) for _ in range(b // batch)]
        exact = exact_truth(params)
        for arm, key in enumerate(("control", "treatment")):
            ratio = np.concatenate([m[arm] for m in means]).var(ddof=1) / (exact[key][1] / n)
            assert abs(ratio - 1.0) <= 4 * math.sqrt(2 / (b - 1)), (key, ratio)

    @pytest.mark.parametrize("params, n_datasets, seed", [
        pytest.param("setting1", 1, 7, id="setting1-1"),
        pytest.param("setting1", 501, 8, id="setting1-501"),
        pytest.param("setting2", 1, 8, id="setting2-1"),
        pytest.param("setting2", 501, 7, id="setting2-501"),
        pytest.param("setting1", 1001, 9, id="setting1-1001"),
        pytest.param("setting2", 1001, 9, id="setting2-1001"),
    ])
    def test_bit_identical_to_reference_kernel(self, params, n_datasets, seed):
        # The reference keeps the kernel's draws and arithmetic order, finds
        # each first discontinuation visit its own way and allocates every
        # batch afresh, so every truth value is equal, not merely close. 501
        # datasets cross a batch boundary; 1,001 reuse the workspace in a
        # second full batch and view its prefix in a partial third.
        assert generate_truth(params, n_datasets, seed) == reference_truth(params, n_datasets, seed)

    def test_exact_truth_converges(self):
        for params in TRUTH_CASES.values():
            coarse, fine = exact_truth(params), exact_truth(params, nodes=80)
            for name in ("control", "treatment"):
                assert coarse[name] == pytest.approx(fine[name], abs=1e-10)

    def test_trial_size_above_the_batch_budget(self, monkeypatch):
        # One dataset per batch keeps each batch within its subject budget.
        kernel, sizes = datagen._complete_endpoint_means, []

        def recording(rng, params, n_datasets, work):
            sizes.append(n_datasets)
            return kernel(rng, params, n_datasets, work)
        monkeypatch.setattr(datagen, "_complete_endpoint_means", recording)
        params = dataclasses.replace(setting_preset("setting1"), n_per_arm=TRUTH_SUBJECTS + 20_000)
        assert_within_4_mcse(params, 3, seed=5)
        assert sizes == [1, 1, 1]

    def test_seed_batches_agree(self):
        a = generate_truth("setting2", 2000, seed=100)
        b = generate_truth("setting2", 2000, seed=200)
        for field in ("mean_control", "mean_treatment", "difference"):
            assert abs(getattr(a, field) - getattr(b, field)) < 0.01

    def test_matches_scalar_generation_path(self):
        # The truth oracle and the trial generator sample the same law:
        # compare complete-data endpoint means.
        check_trial_endpoints_match_truth("setting2")

    def test_matches_scalar_generation_path_setting1(self):
        # Response-dependent discontinuation: both read the previous adherent
        # change through the shared discontinuation kernel.
        check_trial_endpoints_match_truth("setting1")


def assert_within_4_mcse(params, n_datasets, seed):
    """``generate_truth`` lies within 4 Monte Carlo SE of ``exact_truth`` for
    each arm and their difference."""
    truth = generate_truth(params, n_datasets, seed)
    exact = exact_truth(params)
    (mean0, var0), (mean1, var1) = exact["control"], exact["treatment"]
    subjects = n_datasets * params.n_per_arm
    for value, target, var in ((truth.mean_control, mean0, var0), (truth.mean_treatment, mean1, var1),
                               (truth.difference, mean1 - mean0, var0 + var1)):
        assert abs(value - target) <= 4 * math.sqrt(var / subjects), (value, target)


def check_trial_endpoints_match_truth(preset, reps=60):
    """Per-arm complete-data endpoint means of ``reps`` trials lie within
    4 SE of ``generate_truth``. With no withdrawal and no masking every
    subject keeps the endpoint."""
    params = dataclasses.replace(setting_preset(preset), withdrawal_hazard=0.0,
                                 p_miss_completer=0.0, p_miss_retained_dropout=0.0)
    means = {0: [], 1: []}
    for rep in range(reps):
        data = generate_trial(params, seed=33, replicate=rep)
        for arm in (0, 1):
            means[arm].append(float(np.mean([s.outcomes[-1] for s in arm_subjects(data, arm)])))
    truth = generate_truth(params, 4000, seed=44)
    for arm, target in ((0, truth.mean_control), (1, truth.mean_treatment)):
        sample = np.array(means[arm])
        se = sample.std(ddof=1) / math.sqrt(reps)
        assert abs(sample.mean() - target) < 4 * se
