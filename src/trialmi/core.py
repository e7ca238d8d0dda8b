"""Domain model: visit grids, subject records, and the five-way scenario
classification consumed by generation, imputation, and reporting.

A subject's journey is summarized by three coordinates: the week of treatment
discontinuation (if ever observed), the week and type of study withdrawal (if
any), and which visit outcomes are missing.  Classification keys on the
endpoint visit only; intermediate gaps are tolerated in ingested data.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

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
        if any(t <= 0 for t in self.times):
            raise ValidationError("visit weeks must be positive")
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

    @property
    def endpoint_missing(self) -> bool:
        return self.outcomes[-1] is None


@dataclass(frozen=True)
class TrialDataset:
    """All subjects of one trial on a shared visit grid."""

    grid: VisitGrid
    subjects: tuple[SubjectRecord, ...]


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
    if not subject.endpoint_missing:
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
    """All structural violations in the dataset; empty list means valid."""
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
    counts = {arm: {label: 0 for label in ScenarioLabel} for arm in (0, 1)}
    for subject in data.subjects:
        counts[subject.arm][classify_scenario(subject, data.grid)] += 1
    return counts
