"""Time-to-discontinuation estimation.

Fits the conditional survival function for the week of real-world-like
treatment discontinuation, per arm, from possibly censored observations:
administrative withdrawal censors the discontinuation time, completion
censors it at the study end.  Two estimators are available: proportional
hazards on baseline covariates (Newton-Raphson on the Breslow partial
likelihood, Breslow baseline hazard) and the covariate-free product-limit
estimator.  An arm's follow-up sample is a selection from the dataset's
cached columns (``TrialDataset.columns``), so it classifies no subject again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ScenarioLabel, TrialDataset
from .errors import SurvivalError

PROPORTIONAL_HAZARDS = "proportional_hazards"
KAPLAN_MEIER = "kaplan_meier"
KINDS = (PROPORTIONAL_HAZARDS, KAPLAN_MEIER)

#: Follow-up times recorded at week 0 (discontinuations and withdrawals) are
#: shifted to this strictly positive time, so every event time is positive and
#: S(0) = 1 holds exactly. A week-0 withdrawal thus conditions on nothing, and
#: the shift cancels in any probability conditioned on surviving past a
#: positive withdrawal week.
TIME_FLOOR = 1e-6

MAX_ITER = 50
LL_TOL = 1e-10
GRAD_TOL = 1e-7
#: |coefficient| * sd(covariate) beyond this indicates monotone likelihood.
SEPARATION_SCALE = 15.0


@dataclass(frozen=True)
class SurvivalSample:
    """Per-subject follow-up for one arm: time, event flag, covariates."""

    time: np.ndarray
    event: np.ndarray
    covariates: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.time, dtype=float)
        if t.ndim != 1:
            raise SurvivalError("time must be one-dimensional")
        if np.any(t <= 0) or not np.all(np.isfinite(t)):
            raise SurvivalError("follow-up times must be finite and positive")
        x = np.asarray(self.covariates, dtype=float)
        if not np.all(np.isfinite(x)):
            raise SurvivalError("covariates must be finite")


@dataclass(frozen=True)
class SurvivalModel:
    """Fitted survival curve; step-constant between event times."""

    kind: str
    coefficients: np.ndarray
    covariate_center: np.ndarray
    event_times: np.ndarray
    cum_hazard: np.ndarray          # proportional hazards: baseline cumulative hazard steps
    survival_steps: np.ndarray      # product-limit: survival value at each event time
    log_likelihood: float
    iterations: int
    separation_fallback: bool = False


def build_sample(dataset: TrialDataset, arm: int) -> SurvivalSample:
    """Assemble (time, event, baseline) follow-up data for one arm.

    Observed discontinuations (retrieved dropouts and discontinuers with a
    missing endpoint) are events at their week; a non-administrative
    withdrawal with no prior discontinuation is an event at the withdrawal
    week.  Administrative withdrawals censor at the withdrawal week, everyone
    else is censored at the study end.  Rows are ``dataset.columns``' rows of
    the arm, in subject order.
    """
    cols = dataset.columns
    rows = cols.arm == arm
    scen = cols.scenario[rows]
    event = (scen == ScenarioLabel.S3) | (scen == ScenarioLabel.S4_51)
    disc, withdraw = cols.disc[rows], cols.withdraw[rows]
    # An event without a recorded discontinuation week is a non-administrative withdrawal.
    time = np.where(event, np.where(np.isnan(disc), withdraw, disc),
                    np.where(scen == ScenarioLabel.S52, withdraw, dataset.grid.duration))
    return SurvivalSample(time=np.maximum(time, TIME_FLOOR), event=event,
                          covariates=cols.baseline[rows][:, None])


def _breslow_parts(beta: np.ndarray, time: np.ndarray, event: np.ndarray, x: np.ndarray):
    """Breslow partial log-likelihood, gradient, and Hessian.

    ``x`` is assumed centered. Risk sets are everyone with time >= t; tied
    events at one time share a single denominator counted with multiplicity.
    """
    order = np.argsort(time, kind="stable")
    t, e, xs = time[order], event[order], x[order]
    eta = xs @ beta
    shift = eta.max() if eta.size else 0.0
    w = np.exp(eta - shift)
    wx = w[:, None] * xs
    wxx = wx[:, :, None] * xs[:, None, :]
    s0 = np.cumsum(w[::-1])[::-1]
    s1 = np.cumsum(wx[::-1], axis=0)[::-1]
    s2 = np.cumsum(wxx[::-1], axis=0)[::-1]

    ev_times = np.unique(t[e])
    starts = np.searchsorted(t, ev_times, side="left")
    p = xs.shape[1]
    ll = 0.0
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    for te, start in zip(ev_times, starts):
        in_tie = e & (t == te)
        d_te = int(in_tie.sum())
        ll += float((eta[in_tie] - shift).sum()) - d_te * math.log(s0[start])
        mean_risk = s1[start] / s0[start]
        grad += xs[in_tie].sum(axis=0) - d_te * mean_risk
        hess -= d_te * (s2[start] / s0[start] - np.outer(mean_risk, mean_risk))
    return ll, grad, hess


def _breslow_baseline(beta: np.ndarray, time: np.ndarray, event: np.ndarray, x: np.ndarray):
    """Event times with Breslow baseline cumulative-hazard steps."""
    order = np.argsort(time, kind="stable")
    t, e, xs = time[order], event[order], x[order]
    w = np.exp(xs @ beta)
    s0 = np.cumsum(w[::-1])[::-1]
    ev_times, ties = np.unique(t[e], return_counts=True)
    return ev_times, np.cumsum(ties / s0[np.searchsorted(t, ev_times, side="left")])


def _fit_km(time: np.ndarray, event: np.ndarray, *, fallback: bool = False) -> SurvivalModel:
    ev_times, d = np.unique(time[event], return_counts=True)
    at_risk = np.array([(time >= te).sum() for te in ev_times], dtype=float)
    surv = np.cumprod(1.0 - d / at_risk)
    return SurvivalModel(
        kind=KAPLAN_MEIER,
        coefficients=np.zeros(0),
        covariate_center=np.zeros(0),
        event_times=ev_times,
        cum_hazard=np.cumsum(d / at_risk),
        survival_steps=surv,
        log_likelihood=math.nan,
        iterations=0,
        separation_fallback=fallback,
    )


def fit_survival(sample: SurvivalSample, kind: str = PROPORTIONAL_HAZARDS) -> SurvivalModel:
    """Fit the requested estimator; falls back to the covariate-free one,
    flagged by ``separation_fallback``, when the partial likelihood is monotone."""
    if kind not in KINDS:
        raise SurvivalError(f"unknown survival model kind {kind!r}")
    time = np.asarray(sample.time, dtype=float)
    event = np.asarray(sample.event, dtype=bool)
    if not event.any():
        raise SurvivalError("degenerate survival fit: no events observed")
    if kind == KAPLAN_MEIER:
        return _fit_km(time, event)

    x_full = np.asarray(sample.covariates, dtype=float).reshape(time.size, -1)
    center = x_full.mean(axis=0)
    xc_full = x_full - center
    sd = xc_full.std(axis=0)
    keep = sd > 0
    xc = xc_full[:, keep]
    p = xc.shape[1]

    beta = np.zeros(p)
    ll, grad, hess = _breslow_parts(beta, time, event, xc)
    iterations = 0
    if p:
        for iterations in range(1, MAX_ITER + 1):
            try:
                delta = np.linalg.solve(-hess, grad)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(-hess, grad, rcond=None)[0]
            step = 1.0
            for _ in range(40):
                cand = beta + step * delta
                ll_new, grad_new, hess_new = _breslow_parts(cand, time, event, xc)
                if ll_new >= ll - 1e-13:
                    break
                step *= 0.5
            if np.any(np.abs(cand) * sd[keep] > SEPARATION_SCALE):
                return _fit_km(time, event, fallback=True)
            improved = ll_new - ll
            beta, ll, grad, hess = cand, ll_new, grad_new, hess_new
            if abs(improved) < LL_TOL and np.max(np.abs(grad)) < GRAD_TOL:
                break
        else:
            raise SurvivalError(
                "proportional-hazards fit did not converge: "
                f"iterations={MAX_ITER} loglik={ll:.6g} max_grad={np.max(np.abs(grad)):.3g} beta={beta}"
            )

    coefficients = np.zeros(x_full.shape[1])
    coefficients[keep] = beta
    ev_times, cumhaz = _breslow_baseline(coefficients, time, event, xc_full)
    return SurvivalModel(
        kind=PROPORTIONAL_HAZARDS,
        coefficients=coefficients,
        covariate_center=center,
        event_times=ev_times,
        cum_hazard=cumhaz,
        survival_steps=np.exp(-cumhaz),
        log_likelihood=ll,
        iterations=iterations,
    )


def conditional_survival(model: SurvivalModel, t: float, x: Sequence[float] | float = ()) -> float:
    """S(t | x): probability of no discontinuation through week t."""
    idx = int(np.searchsorted(model.event_times, t, side="right"))
    if idx == 0:
        return 1.0
    if model.kind == KAPLAN_MEIER:
        return float(model.survival_steps[idx - 1])
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    rel_risk = math.exp(float((xv - model.covariate_center) @ model.coefficients))
    return math.exp(-model.cum_hazard[idx - 1] * rel_risk)


def prob_disc_before_end(model: SurvivalModel, v: float, d: float, x: Sequence[float] | float = ()) -> float:
    """Probability of discontinuation in (v, d] given none by week v.

    Any 0 <= v < d is allowed; at v = 0 it is 1 - S(d), since S(0) = 1 (see
    TIME_FLOOR).
    """
    if not 0 <= v < d:
        raise SurvivalError(f"withdrawal week must lie in [0, {d}); got {v}")
    s_v = conditional_survival(model, v, x)
    if s_v <= 0.0:
        raise SurvivalError("conditioning on zero-probability survival")
    s_d = conditional_survival(model, d, x)
    return float(min(max((s_v - s_d) / s_v, 0.0), 1.0))
