"""Survival-estimation tests: product-limit arithmetic against naive
counting, and the conditional discontinuation probability."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialmi.cli import read_dataset_csv
from trialmi.core import OTHER_WITHDRAWAL, ScenarioLabel, classify_scenario
from trialmi.datagen import generate_trial
from trialmi.errors import SurvivalError
from trialmi.survival import (SurvivalSample, build_sample, conditional_survival, fit_survival,
                              prob_disc_before_end)

from .helpers import completer, load_trialgen, make_dataset, make_subject, reference_build_sample


def sample(time, event):
    return SurvivalSample(time=np.asarray(time, dtype=float), event=np.asarray(event, dtype=bool))


class TestKaplanMeier:
    def test_three_subject_product_limit(self):
        model = fit_survival(sample([1, 2, 3], [1, 1, 1]))
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
            model = fit_survival(sample(time, event))
            surv = 1.0
            for te in sorted(set(time[event])):
                d = ((time == te) & event).sum()
                r = (time >= te).sum()
                surv *= 1 - d / r
                assert conditional_survival(model, float(te)) == pytest.approx(surv, abs=1e-10)

    def test_no_events_is_degenerate(self):
        with pytest.raises(SurvivalError, match="no events"):
            fit_survival(sample([1, 2], [0, 0]))


class TestConditionalSurvival:
    def test_time_zero_is_one(self):
        model = fit_survival(sample([1, 2, 3], [1, 1, 0]))
        assert conditional_survival(model, 0.0) == 1.0

    def test_carried_forward_past_last_event(self):
        model = fit_survival(sample([1, 2, 3], [1, 1, 0]))
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
        vals = conditional_survival(fit_survival(sample(time, event)), np.linspace(0, 60, 40))
        assert ((vals >= 0.0) & (vals <= 1.0)).all()
        assert (np.diff(vals) <= 1e-12).all()


class TestWindowProbability:
    def test_formula_arithmetic(self):
        # S(20) = 0.8, S(48) = 0.6 by construction
        model = fit_survival(sample([5, 40, 48, 48, 48], [1, 1, 0, 0, 0]))
        assert conditional_survival(model, 20.0) == pytest.approx(0.8, abs=1e-12)
        assert conditional_survival(model, 48.0) == pytest.approx(0.6, abs=1e-12)
        assert prob_disc_before_end(model, 20.0, 48.0) == pytest.approx(0.25, abs=1e-12)

    def test_no_events_in_window(self):
        model = fit_survival(sample([5, 48, 48], [1, 0, 0]))
        assert prob_disc_before_end(model, 10.0, 48.0) == 0.0

    def test_zero_survival_conditioning(self):
        model = fit_survival(sample([1, 2, 3], [1, 1, 1]))
        with pytest.raises(SurvivalError, match="zero-probability"):
            prob_disc_before_end(model, 10.0, 48.0)

    def test_invalid_window(self):
        model = fit_survival(sample([1, 2, 48], [1, 1, 0]))
        for v in (-1.0, 48.0, 50.0, np.array([10.0, 48.0])):
            with pytest.raises(SurvivalError):
                prob_disc_before_end(model, v, 48.0)

    def test_week_zero_conditions_on_nothing(self):
        model = fit_survival(sample([1, 2, 48], [1, 1, 0]))
        assert prob_disc_before_end(model, 0.0, 48.0) == pytest.approx(2 / 3, rel=1e-12)
        data = generate_trial("setting2", seed=8)
        model = fit_survival(build_sample(data, 0))
        assert prob_disc_before_end(model, 0.0, 48.0) == pytest.approx(
            1.0 - conditional_survival(model, 48.0), rel=1e-12)

    def test_nonincreasing_in_withdrawal_week(self):
        data = generate_trial("setting2", seed=8)
        model = fit_survival(build_sample(data, 0))
        weeks = np.linspace(1, 47, 30)
        probs = prob_disc_before_end(model, weeks, 48.0)
        assert (np.diff(probs) <= 1e-12).all()
        assert probs.tolist() == [prob_disc_before_end(model, float(v), 48.0) for v in weeks]

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
        model = fit_survival(sample(obs_time, obs_event))

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

    @pytest.mark.parametrize("source", ["setting1", "setting2", "trialgen"])
    def test_matches_per_subject_reference(self, source, tmp_path):
        if source == "trialgen":
            trialgen = load_trialgen()
            trialgen.write_csv(tmp_path / "trial.csv", trialgen.generate(seed=3, n_per_arm=150)[0])
            data = read_dataset_csv(tmp_path / "trial.csv")
            y = np.array([s.outcomes for s in data.subjects], dtype=float)
            assert (np.isnan(y[:, :-1]) & ~np.isnan(y[:, -1:])).any()  # visit gaps
            assert any(s.withdraw_type == OTHER_WITHDRAWAL and s.disc_time is None for s in data.subjects)
        else:
            data = generate_trial(source, seed=6)
        for arm in (0, 1):
            got, ref = build_sample(data, arm), reference_build_sample(data, arm)
            for name in ("time", "event"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert np.array_equal(a, b), name
