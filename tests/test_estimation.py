"""Estimation and pooling arithmetic, invariance properties, and limits."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialmi.errors import EstimationError
from trialmi.estimation import ESTIMANDS, estimate_matrix, pool_rubin

from .helpers import reference_pool_rubin


def estimate(values0, values1):
    """estimate_matrix on one round: (point, variance, complete-data df) per estimand."""
    arms = np.array([0] * len(values0) + [1] * len(values1))
    endpoints = np.array([list(values0) + list(values1)], dtype=float)
    out = estimate_matrix(arms, endpoints)
    assert all(pairs.shape == (1, 2) for pairs, _ in out.values())
    return {k: (float(pairs[0, 0]), float(pairs[0, 1]), df) for k, (pairs, df) in out.items()}


class TestCompleteEstimate:
    def test_hand_arithmetic(self):
        est = estimate([1.0, 2.0, 3.0], [2.0, 2.0, 2.0, 2.0])
        assert list(est) == list(ESTIMANDS)
        assert est["control"][0] == pytest.approx(2.0, abs=1e-15)
        assert est["control"][1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert [df for *_, df in est.values()] == [2, 3, 5]

    def test_identical_constants(self):
        est = estimate([4.0] * 5, [4.0] * 5)
        assert est["difference"][:2] == (0.0, 0.0)

    def test_empty_arm_is_error(self):
        with pytest.raises(EstimationError):
            estimate([1.0, 2.0], [])

    def test_matches_streaming_oracle(self):
        g = np.random.default_rng(8)
        v0 = list(g.normal(0, 2, 37))
        v1 = list(g.normal(-1, 1, 43))
        est = estimate(v0, v1)

        def streaming(vals):
            mean = 0.0
            m2 = 0.0
            for i, v in enumerate(vals, start=1):
                delta = v - mean
                mean += delta / i
                m2 += delta * (v - mean)
            return mean, m2 / (len(vals) - 1) / len(vals)

        m0, var0 = streaming(v0)
        m1, var1 = streaming(v1)
        assert est["control"][0] == pytest.approx(m0, rel=1e-12)
        assert est["control"][1] == pytest.approx(var0, rel=1e-12)
        assert est["difference"][0] == pytest.approx(m1 - m0, rel=1e-12)
        assert est["difference"][1] == pytest.approx(var0 + var1, rel=1e-12)


class TestRubinPooling:
    def test_hand_arithmetic(self):
        pooled = pool_rubin([(1.0, 0.5), (2.0, 0.5)])
        assert pooled.point == 1.5
        assert pooled.within == 0.5
        assert pooled.between == 0.5
        assert pooled.total == pytest.approx(1.25, abs=1e-15)

    def test_identical_points_reduce_to_within(self):
        pooled = pool_rubin([(1.0, 0.4)] * 6)
        assert pooled.between == 0.0
        assert pooled.total == pytest.approx(0.4, abs=1e-15)

    def test_degenerate_between_gives_normal_theory_ci(self):
        pooled = pool_rubin([(2.0, 0.25)] * 10, level=0.95)
        half = 1.959963984540054 * math.sqrt(0.25)
        assert pooled.ci_low == pytest.approx(2.0 - half, abs=1e-9)
        assert pooled.ci_high == pytest.approx(2.0 + half, abs=1e-9)

    def test_needs_two(self):
        with pytest.raises(EstimationError):
            pool_rubin([(1.0, 0.5)])

    def test_rejects_estimates_that_are_not_pairs(self):
        with pytest.raises(EstimationError, match="pairs"):
            pool_rubin([(1.0, 0.5, 2.0), (2.0, 0.5, 3.0)])

    @pytest.mark.parametrize("com_df", [None, 4, 399, math.inf])
    def test_matches_reference_bit_for_bit(self, com_df):
        rng = np.random.default_rng(11)
        for m in (2, 3, 30, 100):
            points = rng.normal(0.0, 1.0, m)
            variances = rng.uniform(0.01, 2.0, m)
            for pts in (points, np.full(m, points[0])):  # between variance > 0, then 0
                stacked = np.column_stack([pts, variances])
                expected = reference_pool_rubin(list(zip(pts.tolist(), variances.tolist())), 0.9, com_df)
                for estimates in (stacked, stacked.tolist()):
                    p = pool_rubin(estimates, level=0.9, com_df=com_df)
                    assert (p.point, p.within, p.between, p.total, p.df, p.ci_low, p.ci_high) == expected

    def test_zero_within_variance_needs_large_sample_df(self):
        with pytest.raises(EstimationError, match="no observed-data df"):
            pool_rubin([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], com_df=10)
        assert pool_rubin([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]).df == 2.0

    def test_barnard_rubin_df_bounded_by_complete_data_df(self):
        pooled = pool_rubin([(0.1, 0.2), (0.4, 0.25), (-0.2, 0.22)], com_df=30)
        assert 0 < pooled.df < 30

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(0.01, 2.0)), min_size=2, max_size=12),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, estimates, rnd):
        a = pool_rubin(estimates)
        shuffled = list(estimates)
        rnd.shuffle(shuffled)
        b = pool_rubin(shuffled)
        assert a.point == pytest.approx(b.point, rel=1e-12, abs=1e-12)
        assert a.total == pytest.approx(b.total, rel=1e-9, abs=1e-12)

    @given(st.floats(0.0, 3.0), st.floats(0.1, 3.0))
    def test_total_nondecreasing_in_between(self, spread, w):
        lo = pool_rubin([(1.0 - spread, w), (1.0 + spread, w)])
        hi = pool_rubin([(1.0 - spread - 0.5, w), (1.0 + spread + 0.5, w)])
        assert hi.total >= lo.total - 1e-12
