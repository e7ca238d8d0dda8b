"""Domain model: visit grids, subject records, and the five-way scenario
classification consumed by generation, imputation, and reporting.

A subject's journey is summarized by three coordinates: the week of treatment
discontinuation (if ever observed), the week and type of study withdrawal (if
any), and which visit outcomes are missing.  Classification keys on the
endpoint visit only; intermediate gaps are tolerated in ingested data.

``TrialDataset.columns`` is the subjects' one array form, which imputation,
survival samples and scenario counts read; it classifies each subject once.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

#: Withdrawal-type codes. Administrative withdrawals (site closure, pandemic
#: measures, relocation) censor the subject's real-world-like treatment
#: discontinuation; other withdrawals are treated as discontinuation events.
ADMIN_WITHDRAWAL = 1
OTHER_WITHDRAWAL = 0


@dataclass(frozen=True)
class VisitGrid:
    """Post-baseline assessment weeks; the last entry is the study duration."""

    times: tuple[float, ...] = (12.0, 24.0, 36.0, 48.0)

    def __post_init__(self) -> None:
        if not self.times:
            raise ValidationError("visit grid is empty")
        if bad := [t for t in self.times if not 0 < t < math.inf]:
            raise ValidationError(f"visit week {bad[0]} must be positive and finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValidationError("visit weeks must be strictly increasing")

    @property
    def duration(self) -> float:
        return self.times[-1]

    @property
    def n_visits(self) -> int:
        return len(self.times)


DEFAULT_GRID = VisitGrid()


class ScenarioLabel(enum.IntEnum):
    """Partition of subjects by discontinuation, withdrawal, and endpoint
    missingness. The integer value is the scenario code in array form."""

    S1 = 0      # completed on treatment, endpoint observed
    S2 = 1      # completed on treatment, endpoint missing for logistic reasons
    S3 = 2      # discontinued treatment early, endpoint observed (retrieved dropout)
    S4_51 = 3   # discontinuation (or non-administrative withdrawal), endpoint missing
    S52 = 4     # administrative withdrawal censoring treatment discontinuation


@dataclass(frozen=True)
class SubjectRecord:
    """One subject's observed trial data.

    ``outcomes[k]`` is the change from baseline at ``grid.times[k]`` or None
    when missing, the one record of which visits are missing.  ``disc_time``
    is the week the subject was observed to stop treatment (None if never
    observed), ``withdraw_time``/``withdraw_type`` describe study withdrawal,
    with type defined only when a withdrawal week is present.
    """

    id: str
    arm: int
    baseline: float
    outcomes: tuple[Optional[float], ...]
    disc_time: Optional[float] = None
    withdraw_time: Optional[float] = None
    withdraw_type: Optional[int] = None

    @property
    def endpoint(self) -> Optional[float]:
        return self.outcomes[-1]

    @property
    def missing(self) -> tuple[bool, ...]:
        return tuple(y is None for y in self.outcomes)


@dataclass(frozen=True)
class TrialColumns:
    """Read-only arrays over a dataset's subjects, in subject order."""

    arm: np.ndarray         # (n,) 0 or 1
    baseline: np.ndarray    # (n,)
    y: np.ndarray           # (n, K), nan where missing
    disc: np.ndarray        # discontinuation week, nan where absent
    withdraw: np.ndarray    # withdrawal week, nan where absent
    scenario: np.ndarray    # ScenarioLabel codes
    last_obs: np.ndarray    # last observed pre-endpoint visit index, -1 if none


@dataclass(frozen=True)
class TrialDataset:
    """All subjects of one trial on a shared visit grid."""

    grid: VisitGrid
    subjects: tuple[SubjectRecord, ...]

    @functools.cached_property
    def columns(self) -> TrialColumns:
        """The subjects as arrays, built on first use: an invalid dataset
        raises ValidationError here, not when it is constructed."""
        grid, subjects = self.grid, self.subjects
        n, k = len(subjects), grid.n_visits
        # Classifying first validates every record, so the arrays below are well formed.
        scenario = np.array([classify_scenario(s, grid) for s in subjects], dtype=int)
        y = np.array([s.outcomes for s in subjects], dtype=float).reshape(n, k)  # None -> nan
        cols = TrialColumns(
            arm=np.array([s.arm for s in subjects], dtype=int),
            baseline=np.array([s.baseline for s in subjects], dtype=float),
            y=y,
            disc=np.array([s.disc_time for s in subjects], dtype=float),
            withdraw=np.array([s.withdraw_time for s in subjects], dtype=float),
            scenario=scenario,
            last_obs=np.where(~np.isnan(y[:, :-1]), np.arange(k - 1), -1).max(axis=1, initial=-1))
        for a in vars(cols).values():
            a.flags.writeable = False
        return cols


@dataclass(frozen=True)
class Violation:
    subject_id: str
    message: str


def record_violations(subject: SubjectRecord, grid: VisitGrid) -> list[str]:
    """Structural violations of one record against its grid (empty = valid)."""
    out: list[str] = []
    k = grid.n_visits
    d = grid.duration
    if subject.arm not in (0, 1):
        out.append(f"arm must be 0 or 1, got {subject.arm!r}")
    if not math.isfinite(subject.baseline):
        out.append("baseline is not finite")
    if len(subject.outcomes) != k:
        out.append(f"expected {k} visit entries, got {len(subject.outcomes)}")
        return out
    for j, y in enumerate(subject.outcomes):
        if y is not None and not math.isfinite(y):
            out.append(f"visit {j}: outcome is not finite")
    u, v, w_type = subject.disc_time, subject.withdraw_time, subject.withdraw_type
    if w_type is not None and v is None:
        out.append("withdrawal type recorded without a withdrawal week")
    if v is not None and w_type not in (ADMIN_WITHDRAWAL, OTHER_WITHDRAWAL):
        out.append(f"withdrawal week requires type admin/other, got {w_type!r}")
    for name, t in (("disc_time", u), ("withdraw_time", v)):
        if t is not None and not (0 <= t <= d and math.isfinite(t)):
            out.append(f"{name} {t!r} outside [0, {d}]")
    if u is not None and v is not None and u > v:
        out.append("treatment discontinuation recorded after study withdrawal")
    if v is not None:
        for j, t in enumerate(grid.times):
            if t > v and subject.outcomes[j] is not None:
                out.append(f"visit {j} (week {t:g}) observed after withdrawal at week {v:g}")
    return out


def classify_scenario(subject: SubjectRecord, grid: VisitGrid) -> ScenarioLabel:
    """Assign the subject to exactly one scenario.

    The rules key on treatment discontinuation before the study end, whether
    the endpoint is missing, and whether a recorded withdrawal could have caused
    the missing endpoint (withdrawal strictly before the endpoint week).  A
    non-administrative withdrawal with no prior discontinuation counts as a
    discontinuation at the withdrawal week; an administrative one censors it.

    Raises ValidationError on structurally inconsistent records.
    """
    problems = record_violations(subject, grid)
    if problems:
        raise ValidationError(f"subject {subject.id}: " + "; ".join(problems))
    d = grid.duration
    u, v = subject.disc_time, subject.withdraw_time
    disc_before_end = u is not None and u < d
    if subject.endpoint is not None:
        return ScenarioLabel.S3 if disc_before_end else ScenarioLabel.S1
    if disc_before_end:
        # A discontinuation recorded at the very week of an administrative
        # withdrawal is the withdrawal itself; the real-world one is censored.
        if v is not None and u == v and subject.withdraw_type == ADMIN_WITHDRAWAL:
            return ScenarioLabel.S52
        return ScenarioLabel.S4_51
    if v is not None and v < d:
        if subject.withdraw_type == ADMIN_WITHDRAWAL:
            return ScenarioLabel.S52
        return ScenarioLabel.S4_51
    # No discontinuation and no withdrawal that could have hidden the
    # endpoint (a withdrawal at or after the endpoint week cannot): logistics.
    return ScenarioLabel.S2


def validate_dataset(data: TrialDataset) -> list[Violation]:
    """All structural violations in the dataset; empty list means valid. A valid
    dataset is checked once, by building the columns view an analysis reuses."""
    try:
        data.columns  # classifying the subjects checks every record
    except ValidationError:
        pass
    else:
        if len({s.id for s in data.subjects}) == len(data.subjects):
            return []
    report: list[Violation] = []
    seen: set[str] = set()
    for subject in data.subjects:
        if subject.id in seen:
            report.append(Violation(subject.id, "duplicate subject id"))
        seen.add(subject.id)
        for msg in record_violations(subject, data.grid):
            report.append(Violation(subject.id, msg))
    return report


def scenario_counts(data: TrialDataset) -> dict[int, dict[ScenarioLabel, int]]:
    """Subject counts per arm and scenario."""
    cols = data.columns
    table = np.zeros((2, len(ScenarioLabel)), dtype=int)
    np.add.at(table, (cols.arm, cols.scenario), 1)
    return {arm: {label: int(table[arm, label]) for label in ScenarioLabel} for arm in (0, 1)}
