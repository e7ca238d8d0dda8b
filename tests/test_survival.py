"""Survival-estimation tests: product-limit arithmetic, partial-likelihood
maximization against a brute-force oracle, gradient checks, and the
conditional discontinuation probability."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialmi.core import ScenarioLabel, classify_scenario
from trialmi.datagen import generate_trial
from trialmi.errors import SurvivalError
from trialmi.survival import (KAPLAN_MEIER, PROPORTIONAL_HAZARDS, SurvivalSample, _breslow_parts,
                              build_sample, conditional_survival, fit_survival,
                              prob_disc_before_end)

from .helpers import completer, make_dataset, make_subject


def sample(time, event, x):
    return SurvivalSample(time=np.asarray(time, dtype=float),
                          event=np.asarray(event, dtype=bool),
                          covariates=np.asarray(x, dtype=float).reshape(len(time), -1))


def partial_loglik_parts(beta, s):
    """The package's (loglik, gradient, hessian) at ``beta``, on centred covariates."""
    x = s.covariates.reshape(len(s.time), -1)
    return _breslow_parts(np.asarray(beta, dtype=float), s.time, s.event, x - x.mean(axis=0))


def naive_breslow_cumhaz(time, event, x, beta):
    """Independent O(n^2) risk-set counting for the baseline cumulative hazard."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    xc = np.asarray(x, dtype=float).reshape(len(time), -1)
    xc = xc - xc.mean(axis=0)
    w = np.exp(xc @ beta)
    out = {}
    total = 0.0
    for te in sorted(set(time[event])):
        d = int(((time == te) & event).sum())
        denom = float(w[time >= te].sum())
        total += d / denom
        out[te] = total
    return out


def naive_partial_loglik(beta, time, event, x):
    """Hand-enumerated Breslow partial log-likelihood (independent of the package)."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    xc = np.asarray(x, dtype=float).reshape(len(time), -1)
    xc = xc - xc.mean(axis=0)
    eta = xc @ np.atleast_1d(beta)
    ll = 0.0
    for te in sorted(set(time[event])):
        tied = event & (time == te)
        at_risk = time >= te
        ll += float(eta[tied].sum()) - tied.sum() * math.log(float(np.exp(eta[at_risk]).sum()))
    return ll


def golden_section_max(f, lo, hi, tol=1e-10):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while abs(b - a) > tol:
        if f(c) >= f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return (a + b) / 2


class TestKaplanMeier:
    def test_three_subject_product_limit(self):
        model = fit_survival(sample([1, 2, 3], [1, 1, 1], [[0], [0], [0]]), KAPLAN_MEIER)
        assert conditional_survival(model, 1) == pytest.approx(2 / 3, abs=1e-12)
        assert conditional_survival(model, 2) == pytest.approx(1 / 3, abs=1e-12)
        assert conditional_survival(model, 3) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_product_limit(self):
        g = np.random.default_rng(5)
        for _ in range(10):
            n = int(g.integers(4, 30))
            time = np.round(g.exponential(20, n), 1) + 0.5
            event = g.random(n) < 0.7
            if not event.any():
                event[0] = True
            model = fit_survival(sample(time, event, np.zeros((n, 1))), KAPLAN_MEIER)
            surv = 1.0
            for te in sorted(set(time[event])):
                d = ((time == te) & event).sum()
                r = (time >= te).sum()
                surv *= 1 - d / r
                assert conditional_survival(model, float(te)) == pytest.approx(surv, abs=1e-10)

    def test_no_events_is_degenerate(self):
        with pytest.raises(SurvivalError, match="no events"):
            fit_survival(sample([1, 2], [0, 0], [[0], [0]]), KAPLAN_MEIER)


class TestCoxFit:
    def test_constant_covariate_pins_coefficient(self):
        # events sit in large risk sets so the exp(-H) and product-limit
        # transforms stay close; the counting underneath is identical
        time = [1, 2, 3, 4] + [10] * 12
        event = [1, 1, 1, 1] + [0] * 12
        x = [[3.0]] * 16
        model = fit_survival(sample(time, event, x))
        assert model.coefficients[0] == 0.0
        km = fit_survival(sample(time, event, x), KAPLAN_MEIER)
        for te in model.event_times:
            ph = conditional_survival(model, te, [3.0])
            pl = conditional_survival(km, te)
            assert ph == pytest.approx(pl, abs=0.02)

    def test_beta_zero_baseline_matches_naive_counting(self):
        time = [1.5, 2.5, 4.0, 5.5, 7.0, 9.0]
        event = [1, 0, 1, 1, 0, 1]
        x = [[3.0]] * 6
        model = fit_survival(sample(time, event, x))
        oracle = naive_breslow_cumhaz(time, event, x, np.zeros(1))
        for te, hz in oracle.items():
            assert conditional_survival(model, te, [3.0]) == pytest.approx(
                math.exp(-hz), abs=1e-10)

    def test_four_subject_binary_covariate_against_brute_force(self):
        time = [2.0, 5.0, 7.0, 9.0]
        event = [1, 1, 1, 1]
        x = [[1.0], [0.0], [1.0], [0.0]]
        model = fit_survival(sample(time, event, x))
        oracle = golden_section_max(
            lambda b: naive_partial_loglik(b, time, event, x), -10, 10)
        assert model.coefficients[0] == pytest.approx(oracle, abs=1e-6)

    def test_five_subject_with_ties_against_brute_force(self):
        time = [2.0, 2.0, 5.0, 7.0, 9.0]
        event = [1, 1, 1, 0, 1]
        x = [[0.5], [1.5], [0.0], [1.0], [0.2]]
        model = fit_survival(sample(time, event, x))
        oracle = golden_section_max(
            lambda b: naive_partial_loglik(b, time, event, x), -10, 10)
        assert model.coefficients[0] == pytest.approx(oracle, abs=1e-6)

    def test_loglik_matches_naive(self):
        g = np.random.default_rng(11)
        time = g.exponential(10, 12) + 0.1
        event = g.random(12) < 0.6
        event[:2] = True
        x = g.normal(size=(12, 1))
        for beta in ([0.0], [0.4], [-0.8]):
            ours, _, _ = partial_loglik_parts(np.array(beta), sample(time, event, x))
            assert ours == pytest.approx(naive_partial_loglik(np.array(beta), time, event, x),
                                         abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        g = np.random.default_rng(3)
        for trial in range(6):
            n = int(g.integers(5, 12))
            time = np.round(g.exponential(10, n), 0) + 1.0
            event = g.random(n) < 0.7
            if not event.any():
                event[0] = True
            x = g.normal(size=(n, 2))
            s = sample(time, event, x)
            beta = g.uniform(-1.2, 1.2, size=2)
            _, grad, _ = partial_loglik_parts(beta, s)
            h = 1e-5
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                up, _, _ = partial_loglik_parts(beta + e, s)
                dn, _, _ = partial_loglik_parts(beta - e, s)
                fd = (up - dn) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_gradient_small_at_optimum(self):
        data = generate_trial("setting2", seed=2)
        model = fit_survival(build_sample(data, 0))
        s = build_sample(data, 0)
        _, grad, _ = partial_loglik_parts(model.coefficients, s)
        assert np.max(np.abs(grad)) < 1e-6

    def test_separation_falls_back_to_product_limit(self):
        time = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        event = [1] * 6
        x = [[6.0], [5.0], [4.0], [3.0], [2.0], [1.0]]
        model = fit_survival(sample(time, event, x))
        assert model.kind == KAPLAN_MEIER
        assert model.separation_fallback


class TestConditionalSurvival:
    def test_time_zero_is_one(self):
        model = fit_survival(sample([1, 2, 3], [1, 1, 0], [[1], [2], [3]]))
        assert conditional_survival(model, 0.0, [2.0]) == 1.0

    def test_carried_forward_past_last_event(self):
        model = fit_survival(sample([1, 2, 3], [1, 1, 0], [[0]] * 3), KAPLAN_MEIER)
        assert conditional_survival(model, 2.5) == conditional_survival(model, 50.0)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25)
    def test_monotone_and_in_range(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(4, 25))
        time = g.exponential(15, n) + 0.2
        event = g.random(n) < 0.6
        if not event.any():
            event[0] = True
        x = g.normal(8, 1, size=(n, 1))
        for kind in (PROPORTIONAL_HAZARDS, KAPLAN_MEIER):
            model = fit_survival(sample(time, event, x), kind)
            grid_t = np.linspace(0, 60, 40)
            vals = [conditional_survival(model, t, [8.5]) for t in grid_t]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestWindowProbability:
    def test_formula_arithmetic(self):
        # S(20) = 0.8, S(48) = 0.6 by construction
        model = fit_survival(sample([5, 40, 48, 48, 48], [1, 1, 0, 0, 0], [[0]] * 5),
                             KAPLAN_MEIER)
        assert conditional_survival(model, 20.0) == pytest.approx(0.8, abs=1e-12)
        assert conditional_survival(model, 48.0) == pytest.approx(0.6, abs=1e-12)
        assert prob_disc_before_end(model, 20.0, 48.0) == pytest.approx(0.25, abs=1e-12)

    def test_no_events_in_window(self):
        model = fit_survival(sample([5, 48, 48], [1, 0, 0], [[0]] * 3), KAPLAN_MEIER)
        assert prob_disc_before_end(model, 10.0, 48.0) == 0.0

    def test_zero_survival_conditioning(self):
        model = fit_survival(sample([1, 2, 3], [1, 1, 1], [[0]] * 3), KAPLAN_MEIER)
        with pytest.raises(SurvivalError, match="zero-probability"):
            prob_disc_before_end(model, 10.0, 48.0)

    def test_invalid_window(self):
        model = fit_survival(sample([1, 2, 48], [1, 1, 0], [[0]] * 3), KAPLAN_MEIER)
        for v in (-1.0, 48.0, 50.0):
            with pytest.raises(SurvivalError):
                prob_disc_before_end(model, v, 48.0)

    def test_week_zero_conditions_on_nothing(self):
        model = fit_survival(sample([1, 2, 48], [1, 1, 0], [[0]] * 3), KAPLAN_MEIER)
        assert prob_disc_before_end(model, 0.0, 48.0) == pytest.approx(2 / 3, rel=1e-12)
        data = generate_trial("setting2", seed=8)
        ph = fit_survival(build_sample(data, 0))
        assert prob_disc_before_end(ph, 0.0, 48.0, [8.3]) == pytest.approx(
            1.0 - conditional_survival(ph, 48.0, [8.3]), rel=1e-12)

    def test_nonincreasing_in_withdrawal_week(self):
        data = generate_trial("setting2", seed=8)
        model = fit_survival(build_sample(data, 0))
        probs = [prob_disc_before_end(model, v, 48.0, [8.3]) for v in np.linspace(1, 47, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_matches_complete_data_frequency(self):
        # Simulate complete discontinuation times from known per-visit hazards,
        # censor half administratively, fit, and compare the fitted window
        # probability with the empirical frequency among complete records.
        g = np.random.default_rng(77)
        n = 40_000
        times = [12.0, 24.0, 36.0, 48.0]
        p = 0.12
        draws = g.random((n, 4))
        first = np.argmax(draws < p, axis=1)
        has = (draws < p).any(axis=1)
        full_disc = np.where(has, [([0.0] + times[:-1])[k] for k in first], np.inf)

        censor = np.where(g.random(n) < 0.5, g.uniform(1, 48, n), np.inf)
        obs_time = np.minimum(np.minimum(full_disc, censor), 48.0)
        obs_event = full_disc <= np.minimum(censor, 48.0)
        obs_time = np.maximum(obs_time, 1e-6)
        model = fit_survival(sample(obs_time, obs_event, np.zeros((n, 1))), KAPLAN_MEIER)

        v, d = 20.0, 48.0
        fitted = prob_disc_before_end(model, v, d)
        among = full_disc > v
        hits = (full_disc[among] < d).sum()
        emp = hits / among.sum()
        se = math.sqrt(emp * (1 - emp) / among.sum())
        assert abs(fitted - emp) < 3 * se + 1e-9


class TestBuildSample:
    def test_event_and_censor_assignment(self):
        data = make_dataset([
            completer(-1.0),                                              # censored at 48
            completer(-0.5, disc=24.0),                                   # event at 24
            make_subject([-0.2, None, None, None], disc=12.0),            # event at 12
            make_subject([-0.2, -0.3, None, None], withdraw=30.0),        # censored at 30
            make_subject([-0.2, None, None, None], withdraw=13.0, withdraw_type=0),  # event at 13
            completer(-0.1, disc=0.0),                                    # event at the floor
        ])
        s = build_sample(data, 0)
        by_time = sorted(zip(s.time, s.event))
        assert (1e-6, True) in by_time
        assert (12.0, True) in by_time and (24.0, True) in by_time
        assert (13.0, True) in by_time
        assert (30.0, False) in by_time and (48.0, False) in by_time

    def test_used_by_generated_data(self):
        data = generate_trial("setting2", seed=4)
        s = build_sample(data, 1)
        labels = [classify_scenario(subj, data.grid) for subj in data.subjects if subj.arm == 1]
        n_events = sum(1 for L in labels if L in (ScenarioLabel.S3, ScenarioLabel.S4_51))
        assert int(s.event.sum()) == n_events
