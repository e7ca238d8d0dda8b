"""Imputation-engine tests: donor-model posterior behavior, per-method
assignment rules, the gating laws, and stream discipline."""
import math

import numpy as np
import pytest

from trialmi._streams import IMPUTE_NS, PUR_NOISE, PUR_POOL_PARAMS, substream
from trialmi.cli import read_dataset_csv
from trialmi.core import ADMIN_WITHDRAWAL, ScenarioLabel, VisitGrid, classify_scenario, validate_dataset
from trialmi.datagen import generate_trial
from trialmi.errors import ConfigError, ImputationError
from trialmi import imputation
from trialmi.estimation import pool_rubin
from trialmi.imputation import (GATED_ADHERER, GATED_RD, MAR_ADHERER, OBSERVED,
                                RETRIEVED_DROPOUT, ImputationConfig, NormalImputationModel,
                                _extract, fit_donor_model, impute_matrix, posterior_draws)
from trialmi.survival import build_sample, fit_survival, prob_disc_before_end

from .helpers import (completer, load_trialgen, make_dataset, make_subject, reference_extract,
                      reference_predict)


def cfg(method="A", **kw):
    kw.setdefault("m", 40)
    kw.setdefault("seed", 9)
    kw.setdefault("min_donor_pool", 3)
    return ImputationConfig(method=method, **kw)


def wide_dataset(seed=7, setting="setting2"):
    return generate_trial(setting, seed=seed)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ImputationConfig(method="E")
        with pytest.raises(ConfigError):
            ImputationConfig(method="A", m=1)
        with pytest.raises(ConfigError):
            ImputationConfig(method="A", min_donor_pool=1)
        with pytest.raises(ConfigError):
            ImputationConfig(method="C", gate_probability_override=1.5)
        with pytest.raises(ConfigError):
            ImputationConfig(method="A", m=5.0)


class TestDonorModel:
    def test_exact_linear_relation(self):
        x = np.array([7.0, 8.0, 9.5])
        design = np.column_stack([np.ones(3), x])
        model = fit_donor_model(design, x.copy())
        assert model.beta[0] == pytest.approx(0.0, abs=1e-10)
        assert model.beta[1] == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_pool_hits_variance_floor(self):
        design = np.column_stack([np.ones(4), np.array([7.0, 8.0, 9.0, 10.0])])
        model = fit_donor_model(design, np.full(4, 1.25))
        assert model.sigma2 == 1e-8
        sigma, beta = posterior_draws(model, substream(1, 0), 200)
        preds = beta @ np.array([1.0, 8.5])
        assert np.allclose(preds + sigma * 0.5, 1.25, atol=1e-2)

    def test_pool_below_threshold(self):
        design = np.ones((2, 1))
        with pytest.raises(ImputationError, match="below threshold"):
            fit_donor_model(design, np.zeros(2), min_donor_pool=5)

    def test_posterior_draw_mean_tracks_fit(self):
        g = np.random.default_rng(12)
        x = g.normal(8, 1, 40)
        y = 0.5 * x + g.normal(0, 0.7, 40)
        model = fit_donor_model(np.column_stack([np.ones(40), x]), y)
        sigma, beta = posterior_draws(model, substream(2, 0), 10_000)
        for j in range(2):
            draws = beta[:, j]
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(draws.mean() - model.beta[j]) < 3 * se


    def test_per_round_fit_matches_separate_fits(self):
        g = np.random.default_rng(4)
        design = np.column_stack([np.ones(30), g.normal(8, 1, 30), g.normal(0, 1, 30)])
        rounds = g.normal(0, 1, (30, 5))
        model = fit_donor_model(design, rounds)
        assert model.beta.shape == (5, 3) and model.sigma2.shape == (5,)
        for r in range(5):
            single = fit_donor_model(design, rounds[:, r])
            assert np.allclose(model.beta[r], single.beta, rtol=0, atol=1e-12)
            assert model.sigma2[r] == pytest.approx(single.sigma2, rel=1e-12)
            assert np.array_equal(model.cov_factor, single.cov_factor)
        sigma, beta = posterior_draws(model, substream(3, 0), 5)
        assert sigma.shape == (5,) and beta.shape == (5, 3)


def column(data, subject_id):
    return next(j for j, s in enumerate(data.subjects) if s.id == subject_id)


def assert_extract_matches_reference(data):
    arr, ref = _extract(data), reference_extract(data)
    assert arr.n == len(data.subjects) and arr.duration == data.grid.duration
    for name, expected in ref.items():
        got = getattr(arr, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert np.array_equal(got, expected, equal_nan=True), name


class TestExtract:
    def test_matches_per_subject_reference_on_gapped_csv(self, tmp_path):
        trialgen = load_trialgen()
        path = tmp_path / "gapped.csv"
        trialgen.write_csv(path, trialgen.generate(seed=3, n_per_arm=150)[0])
        data = read_dataset_csv(path)
        y = np.array([s.outcomes for s in data.subjects], dtype=float)
        gaps = np.isnan(y[:, :-1]) & ~np.isnan(y[:, -1:])
        assert gaps.any()  # intermediate visits missing before an observed endpoint
        assert_extract_matches_reference(data)

    def test_one_visit_grid(self):
        grid = VisitGrid((48.0,))
        subjects = [make_subject([-0.1 * (j % 5)], arm=j % 2, baseline=7 + 0.3 * (j % 7), grid=grid)
                    for j in range(30)]
        subjects += [make_subject([-0.2 - 0.05 * j], arm=j % 2, disc=0.0, baseline=7 + 0.2 * j, grid=grid)
                     for j in range(10)]
        subjects += [make_subject([None], arm=0, subject_id="S2", grid=grid),
                     make_subject([None], arm=1, withdraw=20.0, subject_id="W", grid=grid)]
        data = make_dataset(subjects, grid=grid)
        assert_extract_matches_reference(data)
        for method in "ABCD":
            assert np.isfinite(impute_matrix(data, cfg(method, m=5)).endpoints).all()

    def test_one_visit_grid_without_donors_raises_typed_error(self):
        grid = VisitGrid((48.0,))
        data = make_dataset([make_subject([0.1 * j], baseline=7 + 0.2 * j, grid=grid) for j in range(8)]
                            + [make_subject([None], disc=0.0, grid=grid)], grid=grid)
        assert_extract_matches_reference(data)
        with pytest.raises(ImputationError, match="pooling arms"):
            impute_matrix(data, cfg("B", m=5))


class TestWrappers:
    def test_mar_targets_only_missing_endpoints(self):
        donors = [completer(-1.0 + 0.05 * j, baseline=7.5 + 0.1 * j) for j in range(8)]
        s2 = make_subject([-0.2, -0.4, -0.6, None], baseline=8.0, subject_id="S2A")
        data = make_dataset(donors + [s2])
        res = impute_matrix(data, cfg())
        imputed = np.flatnonzero((res.provenance_codes != OBSERVED).any(axis=0))
        assert [data.subjects[j].id for j in imputed] == ["S2A"]
        assert res.endpoints[:, imputed[0]].shape == (40,)
        observed = [s.endpoint for s in donors]
        assert np.array_equal(np.delete(res.endpoints, imputed, axis=1), np.tile(observed, (40, 1)))

    def test_mar_draws_center_on_donor_regression(self):
        g = np.random.default_rng(3)
        donors = []
        for j in range(60):
            x = g.normal(8, 1)
            y36 = -0.5 + 0.3 * (x - 8) + g.normal(0, 0.3)
            y48 = -1.0 + 0.8 * (x - 8) + 0.5 * y36 + g.normal(0, 0.3)
            donors.append(make_subject([0.0, -0.2, y36, y48], baseline=x))
        target = make_subject([0.0, -0.2, -0.5, None], baseline=8.0, subject_id="T")
        data = make_dataset(donors + [target])
        vals = impute_matrix(data, cfg(m=4000)).endpoints[:, column(data, "T")]

        obs = np.array([[s.baseline, s.outcomes[2], s.outcomes[3]] for s in donors])
        design = np.column_stack([np.ones(60), obs[:, 0], obs[:, 1]])
        beta = np.linalg.lstsq(design, obs[:, 2], rcond=None)[0]
        pred = beta @ np.array([1.0, 8.0, -0.5])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - pred) < 4 * se

    def test_rd_fallback_pools_arms(self):
        ctrl_rd = [completer(-0.3 - 0.02 * j, disc=24.0, baseline=8 + 0.05 * j) for j in range(6)]
        ctrl_s1 = [completer(-1.0, baseline=8.2)] * 0
        trt_s4 = make_subject([-0.1, None, None, None], disc=12.0, arm=1, subject_id="W")
        trt_s1 = [completer(-1.5 - 0.01 * j, arm=1, baseline=8 + 0.03 * j) for j in range(6)]
        data = make_dataset(ctrl_rd + ctrl_s1 + trt_s1 + [trt_s4])
        res = impute_matrix(data, cfg("B", m=10, min_donor_pool=4))
        assert any("pooled across arms" in e for e in res.fallback_events)

    def test_rd_exhausted_after_pooling(self):
        trt_s4 = make_subject([-0.1, None, None, None], disc=12.0, arm=1)
        s1 = [completer(-1.0, arm=1, baseline=8 + 0.1 * j) for j in range(6)]
        data = make_dataset(s1 + [trt_s4])
        with pytest.raises(ImputationError, match="pooling arms"):
            impute_matrix(data, cfg("B", m=5, min_donor_pool=4))

    def test_constant_donors_reproduce_constant(self):
        rd = [completer(0.75, disc=12.0, baseline=8 + 0.1 * j) for j in range(6)]
        s4 = make_subject([0.1, None, None, None], disc=12.0, subject_id="X")
        data = make_dataset(rd + [s4])
        vals = impute_matrix(data, cfg("B", m=300)).endpoints[:, column(data, "X")]
        assert np.allclose(vals, 0.75, atol=1e-2)


def trialgen_dataset(tmp_path, seed=3, n_per_arm=150):
    trialgen = load_trialgen()
    path = tmp_path / "trialgen.csv"
    trialgen.write_csv(path, trialgen.generate(seed=seed, n_per_arm=n_per_arm)[0])
    return read_dataset_csv(path)


class TestPrediction:
    @pytest.mark.parametrize("source", ["setting1", "setting2", "trialgen"])
    def test_matches_per_target_loop(self, source, tmp_path, monkeypatch):
        data = trialgen_dataset(tmp_path) if source == "trialgen" else generate_trial(source, seed=4)
        configs = [cfg(method, m=30, min_donor_pool=12) for method in "ABCD"]
        configs.append(cfg("A", m=30, min_donor_pool=12, mar_conditioning="baseline-only"))
        fast = [impute_matrix(data, c, replicate=2) for c in configs]
        groups = []

        def loop(sigma, beta, design, z):
            groups.append(design.shape[0])
            return reference_predict(sigma, beta, design, z)
        monkeypatch.setattr(imputation, "_predict", loop)
        for c, got in zip(configs, fast):
            expected = impute_matrix(data, c, replicate=2)
            assert np.array_equal(got.endpoints, expected.endpoints), c.method
        assert sum(groups) > len(data.subjects) and max(groups) > 1


def no_s52_dataset(seed=5):
    params = generate_trial("setting2", seed=seed).grid  # grid only
    import dataclasses

    from trialmi.datagen import setting_preset
    p = dataclasses.replace(setting_preset("setting2"), withdrawal_hazard=0.0)
    return generate_trial(p, seed=seed)


class TestMethodLaws:
    def test_methods_bit_identical_without_withdrawals(self):
        data = no_s52_dataset()
        results = {m: impute_matrix(data, cfg(m)) for m in "ABCD"}
        for m in "BCD":
            assert np.array_equal(results["A"].endpoints, results[m].endpoints)
            assert np.array_equal(results["A"].provenance_codes, results[m].provenance_codes)

    def test_gate_override_reproduces_a_and_b(self):
        data = wide_dataset()
        a = impute_matrix(data, cfg("A", min_donor_pool=12))
        b = impute_matrix(data, cfg("B", min_donor_pool=12))
        c0 = impute_matrix(data, cfg("C", min_donor_pool=12, gate_probability_override=0.0))
        c1 = impute_matrix(data, cfg("C", min_donor_pool=12, gate_probability_override=1.0))
        assert np.array_equal(c0.endpoints, a.endpoints)
        assert np.array_equal(c1.endpoints, b.endpoints)

    def test_observed_values_never_change(self):
        data = wide_dataset()
        endpoint = np.array([np.nan if s.endpoint is None else s.endpoint
                             for s in data.subjects])
        observed = ~np.isnan(endpoint)
        for m in "ABCD":
            res = impute_matrix(data, cfg(m, min_donor_pool=12))
            assert np.array_equal(res.endpoints[:, observed],
                                  np.tile(endpoint[observed], (res.m, 1)))
            assert (res.provenance_codes[:, observed] == 0).all()

    def test_gate_frequency_matches_fitted_probability(self):
        data = wide_dataset(seed=11)
        c = impute_matrix(data, cfg("C", m=10_000, min_donor_pool=12))
        labels = [classify_scenario(s, data.grid) for s in data.subjects]
        models = {arm: fit_survival(build_sample(data, arm)) for arm in (0, 1)}
        checked = 0
        for j, (s, L) in enumerate(zip(data.subjects, labels)):
            if L is not ScenarioLabel.S52:
                continue
            p_hat = prob_disc_before_end(models[s.arm], s.withdraw_time, 48.0, [s.baseline])
            freq = (c.provenance_codes[:, j] == GATED_RD).mean()
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / c.m)
            assert abs(freq - p_hat) < 3 * se + 1e-9
            checked += 1
        assert checked >= 10

    def test_between_imputation_variance_positive(self):
        data = wide_dataset()
        res = impute_matrix(data, cfg("A", m=60, min_donor_pool=12))
        arms = np.array([s.arm for s in data.subjects])
        points = res.endpoints[:, arms == 1].mean(axis=1)
        variances = res.endpoints[:, arms == 1].var(axis=1, ddof=1) / (arms == 1).sum()
        pooled = pool_rubin(list(zip(points, variances)))
        assert pooled.between > 0

    def test_pooled_donor_mean_between_adherer_and_rd(self):
        adherers = [completer(0.0 + 0.001 * j, baseline=8.0) for j in range(20)]
        rds = [completer(-2.0 - 0.001 * j, disc=12.0, baseline=8.0) for j in range(20)]
        s52 = [make_subject([0.0, None, None, None], withdraw=13.0, subject_id=f"W{j}")
               for j in range(5)]
        data = make_dataset(adherers + rds + s52)
        means = {}
        for m in "ABD":
            res = impute_matrix(data, cfg(m, m=800, min_donor_pool=5))
            cols = [j for j, s in enumerate(data.subjects) if s.id.startswith("W")]
            means[m] = float(res.endpoints[:, cols].mean())
        assert means["B"] < means["D"] < means["A"]

    def test_single_s52_tracks_adherer_prediction_under_a(self):
        adherers = [completer(-1.0 + 0.002 * j, baseline=8.0) for j in range(25)]
        s52 = make_subject([-0.2, None, None, None], withdraw=13.0, subject_id="W",
                           baseline=8.0)
        data = make_dataset(adherers + [s52])
        res = impute_matrix(data, cfg("A", m=3000, min_donor_pool=5))
        j = next(i for i, s in enumerate(data.subjects) if s.id == "W")
        draws = res.endpoints[:, j]
        design = np.array([[1.0, s.baseline, s.outcomes[0]] for s in adherers])
        beta = np.linalg.lstsq(design, np.array([s.endpoint for s in adherers]), rcond=None)[0]
        pred = float(beta @ np.array([1.0, 8.0, -0.2]))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - pred) < 4 * se + 1e-6

    def test_method_d_refits_per_round(self):
        data = wide_dataset()
        d = impute_matrix(data, cfg("D", m=30, min_donor_pool=12))
        labels = [classify_scenario(s, data.grid) for s in data.subjects]
        cols = [j for j, L in enumerate(labels) if L is ScenarioLabel.S52]
        draws = d.endpoints[:, cols]
        assert np.ptp(draws, axis=0).min() > 0  # varies across rounds

    def test_method_d_matches_direct_per_round_refit(self):
        data = wide_dataset()
        c = cfg("D", m=30, min_donor_pool=12)
        d = impute_matrix(data, c, replicate=2)
        labels = np.array([classify_scenario(s, data.grid) for s in data.subjects])
        arms = np.array([s.arm for s in data.subjects])
        x = np.array([s.baseline for s in data.subjects])
        z = substream(c.seed, IMPUTE_NS, 2, PUR_NOISE).standard_normal((c.m, len(arms)))
        for arm in (0, 1):
            donors = np.flatnonzero((labels != ScenarioLabel.S52) & (arms == arm))
            targets = np.flatnonzero((labels == ScenarioLabel.S52) & (arms == arm))
            assert donors.size >= 12 and targets.size
            w = np.column_stack([np.ones(donors.size), x[donors]])
            df = donors.size - 2
            beta_hat, sigma2_hat = [], []
            for r in range(c.m):
                b = np.linalg.lstsq(w, d.endpoints[r, donors], rcond=None)[0]
                resid = d.endpoints[r, donors] - w @ b
                beta_hat.append(b)
                sigma2_hat.append(float(resid @ resid) / df)
            model = NormalImputationModel(
                beta=np.array(beta_hat), sigma2=np.array(sigma2_hat), df=df, n_donors=donors.size,
                cov_factor=fit_donor_model(w, d.endpoints[0, donors]).cov_factor)
            rng = substream(c.seed, IMPUTE_NS, 2, PUR_POOL_PARAMS, arm)
            sigma, beta = posterior_draws(model, rng, c.m)
            rows = np.column_stack([np.ones(targets.size), x[targets]])
            expected = beta @ rows.T + sigma[:, None] * z[:, targets]
            assert np.allclose(d.endpoints[:, targets], expected, rtol=0, atol=1e-12)

    def test_week0_administrative_withdrawal_under_c(self):
        base = wide_dataset()
        w0 = make_subject([None] * 4, withdraw=0.0, withdraw_type=ADMIN_WITHDRAWAL,
                          subject_id="W0", arm=1)
        data = make_dataset(base.subjects + (w0,), grid=base.grid)
        assert validate_dataset(data) == []
        assert classify_scenario(w0, data.grid) is ScenarioLabel.S52
        res = impute_matrix(data, cfg("C", m=50, min_donor_pool=12))
        assert np.isfinite(res.endpoints).all()
        endpoint = np.array([np.nan if s.endpoint is None else s.endpoint for s in data.subjects])
        observed = ~np.isnan(endpoint)
        assert np.array_equal(res.endpoints[:, observed], np.tile(endpoint[observed], (res.m, 1)))


    def test_arm_without_observed_discontinuation_gates_to_adherer(self):
        # The treatment arm has administrative withdrawals but no observed
        # discontinuation, so its survival curve is flat and its gate is 0.
        subjects = [completer(-1.0 + 0.03 * j, arm=arm, baseline=7 + 0.2 * j)
                    for arm in (0, 1) for j in range(15)]
        subjects += [completer(-0.2 - 0.02 * j, disc=12.0 * (1 + j % 3), baseline=7.1 + 0.2 * j)
                     for j in range(15)]
        subjects += [make_subject([-0.4, None, None, None], arm=arm, withdraw=13.0,
                                  withdraw_type=ADMIN_WITHDRAWAL, subject_id=f"W{arm}")
                     for arm in (0, 1)]
        data = make_dataset(subjects)
        assert validate_dataset(data) == []
        assert not build_sample(data, 1).event.any()
        res = impute_matrix(data, cfg("C", m=50))
        assert np.isfinite(res.endpoints).all()
        endpoint = np.array([np.nan if s.endpoint is None else s.endpoint for s in data.subjects])
        observed = ~np.isnan(endpoint)
        assert np.array_equal(res.endpoints[:, observed], np.tile(endpoint[observed], (res.m, 1)))
        assert (res.provenance_codes[:, column(data, "W1")] == GATED_ADHERER).all()
        assert "no observed discontinuation in arm 1: gate probability 0" in res.fallback_events
        assert not any("arm 0" in e for e in res.fallback_events)


    def test_separation_fallback_is_a_fallback_event(self):
        # Each control discontinuation has the highest baseline of its risk
        # set, so the partial likelihood is monotone.
        subjects = [completer(-0.2 - 0.02 * j, disc=6.0 + 6 * j, baseline=9.5 - 0.1 * j) for j in range(6)]
        subjects += [completer(-1.0 + 0.03 * j, baseline=6.0 + 0.1 * j) for j in range(10)]
        subjects += [completer(-1.5 + 0.03 * j, arm=1, baseline=6.0 + 0.3 * j) for j in range(10)]
        subjects.append(make_subject([-0.4, None, None, None], withdraw=13.0,
                                     withdraw_type=ADMIN_WITHDRAWAL, baseline=6.5, subject_id="W"))
        data = make_dataset(subjects)
        assert validate_dataset(data) == []
        res = impute_matrix(data, cfg("C", m=20))
        assert res.fallback_events == ("monotone partial likelihood in arm 0: product-limit gate",)
        model = fit_survival(build_sample(data, 0))
        assert model.separation_fallback
        p_hat = prob_disc_before_end(model, 13.0, 48.0, [6.5])
        assert 0 < p_hat < 1
        rd = res.provenance_codes[:, column(data, "W")] == GATED_RD
        assert rd.any() and not rd.all()


class TestCompletedDatasets:
    def test_provenance_tags(self):
        data = no_s52_dataset()
        res = impute_matrix(data, cfg("A", m=3, min_donor_pool=12))
        assert res.provenance_codes.shape == (3, len(data.subjects))
        labels = [classify_scenario(s, data.grid) for s in data.subjects]
        for codes in res.provenance_codes:
            for code, L in zip(codes, labels):
                if L is ScenarioLabel.S2:
                    assert code == MAR_ADHERER
                elif L is ScenarioLabel.S4_51:
                    assert code == RETRIEVED_DROPOUT
                else:
                    assert code == OBSERVED


class TestDeterminism:
    def test_same_seed_same_result(self):
        data = wide_dataset()
        r1 = impute_matrix(data, cfg("C", min_donor_pool=12))
        r2 = impute_matrix(data, cfg("C", min_donor_pool=12))
        assert np.array_equal(r1.endpoints, r2.endpoints)

    def test_different_seed_differs(self):
        data = wide_dataset()
        r1 = impute_matrix(data, cfg("A", seed=1, min_donor_pool=12))
        r2 = impute_matrix(data, cfg("A", seed=2, min_donor_pool=12))
        assert not np.array_equal(r1.endpoints, r2.endpoints)

    def test_replicate_key_changes_draws(self):
        data = wide_dataset()
        r1 = impute_matrix(data, cfg("A", min_donor_pool=12), replicate=0)
        r2 = impute_matrix(data, cfg("A", min_donor_pool=12), replicate=1)
        assert not np.array_equal(r1.endpoints, r2.endpoints)
