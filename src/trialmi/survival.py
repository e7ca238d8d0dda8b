"""Time-to-discontinuation estimation for method C's gate.

Fits the survival function of the week of real-world-like treatment
discontinuation, per arm, from possibly censored observations:
administrative withdrawal censors the discontinuation time, completion
censors it at the study end.  The estimator is the covariate-free
product-limit (Kaplan-Meier) curve, which on the trial's discrete visit grid
is calibrated against the latent discontinuation rate.  An arm's follow-up
sample is a selection from the dataset's arrays by its cached scenario codes
(``TrialDataset.columns``), so it classifies no subject again.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScenarioLabel, TrialDataset
from .errors import SurvivalError

#: Follow-up times recorded at week 0 (discontinuations and withdrawals) are
#: shifted to this strictly positive time, so every event time is positive and
#: S(0) = 1 holds exactly. A week-0 withdrawal thus conditions on nothing, and
#: the shift cancels in any probability conditioned on surviving past a
#: positive withdrawal week.
TIME_FLOOR = 1e-6


@dataclass(frozen=True)
class SurvivalSample:
    """Per-subject follow-up for one arm: time and event flag."""

    time: np.ndarray
    event: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.time, dtype=float)
        if t.ndim != 1:
            raise SurvivalError("time must be one-dimensional")
        if np.any(t <= 0) or not np.all(np.isfinite(t)):
            raise SurvivalError("follow-up times must be finite and positive")


@dataclass(frozen=True)
class SurvivalModel:
    """Product-limit survival curve; step-constant between event times."""

    event_times: np.ndarray
    survival_steps: np.ndarray      # survival value at each event time
    # Always 0 and False: perfbench's tracer and tests/test_perfbench_contract.py read them.
    iterations: int = 0
    separation_fallback: bool = False


def build_sample(dataset: TrialDataset, arm: int) -> SurvivalSample:
    """Assemble (time, event) follow-up data for one arm.

    Observed discontinuations (retrieved dropouts and discontinuers with a
    missing endpoint) are events at their week; a non-administrative
    withdrawal with no prior discontinuation is an event at the withdrawal
    week.  Administrative withdrawals censor at the withdrawal week, everyone
    else is censored at the study end.  Rows are the dataset's rows of the
    arm, in subject order.
    """
    rows = dataset.arm == arm
    scen = dataset.columns.scenario[rows]
    event = (scen == ScenarioLabel.S3) | (scen == ScenarioLabel.S4_51)
    disc, withdraw = dataset.disc[rows], dataset.withdraw[rows]
    # An event without a recorded discontinuation week is a non-administrative withdrawal.
    time = np.where(event, np.where(np.isnan(disc), withdraw, disc),
                    np.where(scen == ScenarioLabel.S52, withdraw, dataset.grid.duration))
    return SurvivalSample(time=np.maximum(time, TIME_FLOOR), event=event)


def fit_survival(sample: SurvivalSample) -> SurvivalModel:
    """The product-limit estimate S(t) = prod over event times t_i <= t of
    (1 - d_i / r_i): d_i events at t_i among the r_i subjects with time >= t_i."""
    time = np.asarray(sample.time, dtype=float)
    event = np.asarray(sample.event, dtype=bool)
    if not event.any():
        raise SurvivalError("degenerate survival fit: no events observed")
    ev_times, d = np.unique(time[event], return_counts=True)
    at_risk = time.size - np.searchsorted(np.sort(time), ev_times, side="left")
    return SurvivalModel(event_times=ev_times, survival_steps=np.cumprod(1.0 - d / at_risk))


def conditional_survival(model: SurvivalModel, t: float | np.ndarray) -> float | np.ndarray:
    """S(t): probability of no discontinuation through week t, for a week or
    an array of weeks."""
    steps = np.concatenate([[1.0], model.survival_steps])
    return steps[np.searchsorted(model.event_times, t, side="right")]


def prob_disc_before_end(model: SurvivalModel, v: float | np.ndarray, d: float) -> float | np.ndarray:
    """Probability of discontinuation in (v, d] given none by week v, for a
    withdrawal week or an array of them.

    Any 0 <= v < d is allowed; at v = 0 it is 1 - S(d), since S(0) = 1 (see
    TIME_FLOOR).
    """
    v = np.asarray(v, dtype=float)
    if not np.all((v >= 0) & (v < d)):
        raise SurvivalError(f"withdrawal week must lie in [0, {d}); got {v}")
    s_v = conditional_survival(model, v)
    if np.any(s_v <= 0.0):
        raise SurvivalError("conditioning on zero-probability survival")
    return np.clip((s_v - conditional_survival(model, d)) / s_v, 0.0, 1.0)
