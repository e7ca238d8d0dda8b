"""Oracles computed apart from the generator, from its documented model.

``scenario_probabilities`` walks the discrete visit grid analytically, and
``conditional_disc_rate`` gives a withdrawn subject's chance to discontinue
before the study end; both hold only when the response coefficient of the
dropout model is zero, so per-visit discontinuation probabilities are
constants. ``exact_truth`` integrates the complete-data endpoint by
quadrature under any dropout model.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, roots_hermitenorm, roots_jacobi

from trialmi.core import ScenarioLabel
from trialmi.datagen import GenParams


def _expit(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def _stop_probabilities(params: GenParams, arm: int) -> list[float]:
    """P(discontinue at visit k | on treatment before it), one constant per visit."""
    if params.alpha1 != 0:
        raise ValueError("closed form needs response-independent dropout (alpha1 = 0)")
    return [min(max(_expit(params.alpha0) + c, 0.0), 1.0) for c in params.c_visit(arm)]


def conditional_disc_rate(params: GenParams, arm: int, v: np.ndarray) -> np.ndarray:
    """P(discontinuation before the study end | none by week v), per week in ``v``.

    A discontinuation at visit k happens right after the previous visit
    week (week 0 for the first), so a subject on treatment at week v can
    still stop at every visit whose start week exceeds v:
    1 - prod over those visits of (1 - P(stop at k)).
    """
    starts = np.array([0.0, *params.grid.times[:-1]])[:, None]
    stay = 1.0 - np.array(_stop_probabilities(params, arm))[:, None]
    return 1.0 - np.where(starts > np.asarray(v, dtype=float), stay, 1.0).prod(axis=0)


def scenario_probabilities(params: GenParams, arm: int) -> dict[ScenarioLabel, float]:
    times = params.grid.times
    d = params.grid.duration
    lam = params.withdrawal_hazard
    probs = _stop_probabilities(params, arm)

    disc_at = []           # P(discontinue right after t_{k-1})
    survive = 1.0
    for p in probs:
        disc_at.append(survive * p)
        survive *= 1.0 - p
    never = survive
    t_prev = [0.0] + list(times[:-1])

    def stay_past(t: float) -> float:
        return math.exp(-lam * t)

    stay = stay_past(d)
    p_s2 = params.p_miss_completer
    p_s4 = params.p_miss_retained_dropout
    out = {
        ScenarioLabel.S1: never * stay * (1.0 - p_s2),
        ScenarioLabel.S2: never * stay * p_s2,
        ScenarioLabel.S3: sum(disc_at) * stay * (1.0 - p_s4),
        ScenarioLabel.S4_51: sum(a * ((stay_past(t) - stay) + stay * p_s4)
                                 for a, t in zip(disc_at, t_prev)),
        ScenarioLabel.S52: sum(a * (1.0 - stay_past(t)) for a, t in zip(disc_at, t_prev))
                           + never * (1.0 - stay),
    }
    assert abs(sum(out.values()) - 1.0) < 1e-12
    return out


def exact_truth(params: GenParams, nodes: int = 40) -> dict[str, tuple[float, float]]:
    """Complete-data endpoint (mean, subject-level variance) per arm, keyed
    ``control`` and ``treatment``.

    The endpoint is L d_K + e_K - dtheta d_K f(T): L = theta + slope (x - mu)
    + s is the subject's level, d_K the endpoint decay, e_K the endpoint
    noise and f(T) the washout fraction at the first discontinuation visit
    T. Given L, each visit's stop depends only on that visit's noise and
    uniform, so P(T = k | L) is a product of 1-d integrals over the visit
    noise. Gauss-Jacobi nodes integrate over the Beta baseline and
    Gauss-Hermite nodes over s and each visit's noise.
    """
    a, b = params.baseline_beta_a, params.baseline_beta_b
    t, w_x = roots_jacobi(nodes, b - 1.0, a - 1.0)  # weight (1 - t)^(b-1) (1 + t)^(a-1)
    z, w_z = roots_hermitenorm(nodes)               # weight exp(-z^2 / 2)
    w_x, w_z = w_x / w_x.sum(), w_z / w_z.sum()
    x = params.baseline_loc + params.baseline_scale * (1.0 + t) / 2.0
    weight = np.outer(w_x, w_z)
    times = np.asarray(params.grid.times, dtype=float)
    decay = 1.0 - np.exp(-params.kappa * times)
    starts = np.concatenate([[0.0], times[:-1]])
    frac = np.clip(times[-1] - starts, 0.0, params.washout_weeks) / params.washout_weeks
    sd_e = math.sqrt(params.sigma_e2)
    out = {}
    for arm, name in ((0, "control"), (1, "treatment")):
        slope = params.beta0 + arm * params.beta1
        s = math.sqrt(params.sigma_s2) * z
        level = params.theta(arm) + slope * (x[:, None] - params.baseline_mean) + s
        c = params.c_visit(arm)
        # P(stop at visit k | on treatment before it, level), one array per visit.
        stops = [np.full(level.shape, min(1.0, float(expit(params.alpha0)) + c[0]))]
        for k in range(1, len(times)):
            y_prev = level[..., None] * decay[k - 1] + sd_e * z
            stops.append(np.minimum(1.0, expit(params.alpha0 + params.alpha1 * y_prev) + c[k]) @ w_z)
        on, e_f, e_f2 = 1.0, 0.0, 0.0
        for q, f in zip(stops, frac):
            e_f = e_f + on * q * f
            e_f2 = e_f2 + on * q * f * f
            on = on * (1.0 - q)
        adherent = level * decay[-1]
        shift = (params.theta(arm) - params.theta0) * decay[-1]
        mean = float((weight * (adherent - shift * e_f)).sum())
        second = adherent ** 2 - 2.0 * adherent * shift * e_f + shift ** 2 * e_f2 + params.sigma_e2
        out[name] = (mean, float((weight * second).sum()) - mean ** 2)
    return out
