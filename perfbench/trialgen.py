"""Subject-level trial CSV for the analyze-csv workload.

The benchmark makes this input with its own generator, not trialmi's, so the
input stays fixed when trialmi's random-stream layout changes, and so it has
properties trialmi's simulator never produces:

* treatment discontinuation is response-independent: a constant per-visit
  probability per arm, so the treatment-policy truth has a closed form;
* after a discontinuation the treatment effect washes out linearly within
  ``WASHOUT`` weeks, which is no longer than the visit spacing, so every
  discontinuer's endpoint returns to the control level;
* some discontinuers leave the study at the same week (a non-administrative
  withdrawal, recorded without a discontinuation week);
* about a fifth of subjects are administratively withdrawn: individually at
  a constant hazard, and by site closures that withdraw every remaining
  subject of a site at one shared week (tied censoring times);
* intermediate visits are sometimes missed.

Run ``python3 perfbench/trialgen.py --seed 1 --out analyze.csv`` to write the
input that ``--seed 1`` gives the analyze-csv workload.
"""
from __future__ import annotations

import argparse
import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WEEKS = (12.0, 24.0, 36.0, 48.0)
N_PER_ARM = 500
THETA = (-0.3, -1.5)          # long-run change from baseline under adherence, per arm
KAPPA = 0.06                  # approach rate of the adherent mean curve, per week
BETA_X = 0.2                  # slope on the centred baseline
X_MEAN, X_SD = 8.0, 1.0       # baseline level
SIGMA_S, SIGMA_E = 1.0, math.sqrt(0.5)
DISC_PROB = (0.08, 0.12)      # per-visit discontinuation probability, per arm
WASHOUT = 12.0                # weeks for the treatment effect to wash out
P_LEAVE_AT_DISC = 0.3         # discontinuers after week 0 who also leave the study
ADMIN_HAZARD = 0.0022         # individual administrative withdrawal, per week
SITE_SIZE = 50
CLOSED_SITES = 2              # sites closed at one shared week each
CLOSURE_WINDOW = (6.0, 42.0)
P_MISS_COMPLETER = 0.05       # endpoint missed by subjects on treatment to the end
P_MISS_DROPOUT = 0.5          # endpoint missed by discontinuers who stay in the study
P_GAP = 0.05                  # each intermediate visit missed

HEADER = ["id", "arm", "baseline"] + [f"y{w:g}" for w in WEEKS] + [
    "disc_week", "withdraw_week", "withdraw_type"]


@dataclass(frozen=True)
class Truth:
    """Treatment-policy endpoint mean and subject-level variance per arm."""

    mean: tuple[float, float]
    var: tuple[float, float]

    @property
    def difference(self) -> float:
        return self.mean[1] - self.mean[0]


def _decay(t):
    return 1.0 - np.exp(-KAPPA * np.asarray(t, dtype=float))


def closed_form_truth() -> Truth:
    """Endpoint mean and variance per arm, from the generator's constants.

    Every discontinuation happens at week 36 or earlier, so with
    WASHOUT <= 12 the endpoint of every discontinuer sits at the control
    level: E[y | arm] = D * (theta_arm - (theta_arm - theta_0) * P(disc)).
    """
    d = float(_decay(WEEKS[-1]))
    means, variances = [], []
    for arm in (0, 1):
        p_disc = 1.0 - (1.0 - DISC_PROB[arm]) ** len(WEEKS)
        shift = THETA[arm] - THETA[0]
        means.append(d * (THETA[arm] - shift * p_disc))
        variances.append(d * d * (BETA_X ** 2 * X_SD ** 2 + SIGMA_S ** 2) + SIGMA_E ** 2
                         + (shift * d) ** 2 * p_disc * (1.0 - p_disc))
    return Truth(mean=(means[0], means[1]), var=(variances[0], variances[1]))


def generate(seed: int, n_per_arm: int = N_PER_ARM) -> tuple[list[list[str]], np.ndarray, np.ndarray]:
    """CSV rows (header first), the arm of each subject, and every subject's
    complete treatment-policy endpoint before any masking."""
    rng = np.random.default_rng([seed, 0x7E57])
    n = 2 * n_per_arm
    times = np.asarray(WEEKS)
    k = times.size
    arm = np.repeat([0, 1], n_per_arm)
    rng.shuffle(arm)
    theta = np.asarray(THETA)[arm]
    x = rng.normal(X_MEAN, X_SD, n)
    s = rng.normal(0.0, SIGMA_S, n)
    eps = rng.normal(0.0, SIGMA_E, (n, k))
    y = (theta + BETA_X * (x - X_MEAN) + s)[:, None] * _decay(times) + eps

    # Discontinuation right after visit k-1 (week 0 for k = 0), or never (inf).
    disc_starts = np.concatenate([[0.0], times[:-1]])
    stops = rng.random((n, k)) < np.asarray(DISC_PROB)[arm][:, None]
    first = np.where(stops.any(axis=1), stops.argmax(axis=1), k)
    u = np.append(disc_starts, np.inf)[first]
    frac = np.clip((times - u[:, None]) / WASHOUT, 0.0, 1.0)
    y -= (theta - THETA[0])[:, None] * frac * _decay(times)
    complete_endpoint = y[:, -1].copy()

    leaves = np.isfinite(u) & (u > 0) & (rng.random(n) < P_LEAVE_AT_DISC)
    admin = rng.exponential(1.0 / ADMIN_HAZARD, n)
    sites = np.arange(n) // SITE_SIZE
    closed = rng.choice(sites.max() + 1, size=CLOSED_SITES, replace=False)
    closure_weeks = rng.uniform(*CLOSURE_WINDOW, size=CLOSED_SITES)
    for site, week in zip(closed, closure_weeks):
        admin[sites == site] = np.minimum(admin[sites == site], week)
    admin[admin >= times[-1]] = np.inf
    leaves &= u < admin  # nobody leaves after an administrative withdrawal

    withdraw = np.where(leaves, u, admin)
    wtype = np.where(leaves, "other", np.where(np.isfinite(withdraw), "admin", ""))
    # A discontinuation after an administrative withdrawal is never seen.
    disc_week = np.where(leaves | (u >= withdraw), np.inf, u)

    observed = times[None, :] <= withdraw[:, None]
    stays = ~np.isfinite(withdraw)
    p_miss = np.where(np.isfinite(u), P_MISS_DROPOUT, P_MISS_COMPLETER)
    observed[:, -1] &= ~(stays & (rng.random(n) < p_miss))
    observed[:, :-1] &= rng.random((n, k - 1)) >= P_GAP

    def cell(v: float) -> str:
        return repr(float(v)) if math.isfinite(v) else ""

    rows = [list(HEADER)]
    for j in range(n):
        rows.append([f"P{j + 1:04d}", str(arm[j]), repr(float(x[j]))]
                    + [repr(float(y[j, i])) if observed[j, i] else "" for i in range(k)]
                    + [cell(disc_week[j]), cell(withdraw[j]), str(wtype[j])])
    return rows, arm, complete_endpoint


def write_csv(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_csv(args.out, generate(args.seed)[0])


if __name__ == "__main__":
    main()
