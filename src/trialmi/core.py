"""Domain model: visit grids, trial datasets, and the five-way scenario
classification consumed by generation, imputation, and reporting.

A subject's journey is summarized by three coordinates: the week of treatment
discontinuation (if ever observed), the week and type of study withdrawal (if
any), and which visit outcomes are missing.  Classification keys on the
endpoint visit only; intermediate gaps are tolerated in ingested data.

A ``TrialDataset`` stores each field once, as an array over its subjects.
``TrialDataset.columns`` applies the one scenario rule to those arrays, after
the vectorised structural check that ``validate_dataset`` reports in full;
``classify_scenario`` is the same rule on one record.
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
#: The withdrawal-type code where no withdrawal is recorded.
NO_TYPE = -1


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
    """One subject's observed trial data, read from a dataset's arrays
    (``TrialDataset.subjects``).

    ``outcomes[k]`` is the change from baseline at ``grid.times[k]`` or None
    when missing.  ``disc_time`` is the week the subject was observed to stop
    treatment (None if never observed), ``withdraw_time``/``withdraw_type``
    describe study withdrawal, with type defined only when a withdrawal week
    is present.
    """

    id: str
    arm: int
    baseline: float
    outcomes: tuple[Optional[float], ...]
    disc_time: Optional[float] = None
    withdraw_time: Optional[float] = None
    withdraw_type: Optional[int] = None

    @property
    def missing(self) -> tuple[bool, ...]:
        return tuple(y is None for y in self.outcomes)


@dataclass(frozen=True)
class TrialColumns:
    """The arrays the scenario rule derives from a valid dataset."""

    scenario: np.ndarray    # ScenarioLabel codes
    last_obs: np.ndarray    # last observed pre-endpoint visit index, -1 if none


@dataclass(frozen=True, eq=False)
class TrialDataset:
    """One trial's subjects on a shared visit grid, as read-only arrays in
    subject order: NaN marks a missing outcome or an absent week, and
    ``NO_TYPE`` an absent withdrawal type. ``columns`` checks and classifies
    the subjects on first use, raising ValidationError for an invalid
    dataset (``validate_dataset`` reports it in full); ``subjects`` gives
    them as records, also on first use.
    """

    grid: VisitGrid
    ids: tuple[str, ...]
    arm: np.ndarray             # (n,) int, 0 control or 1 treatment
    baseline: np.ndarray        # (n,)
    y: np.ndarray               # (n, K) change from baseline per visit
    disc: np.ndarray            # (n,) observed treatment-discontinuation week
    withdraw: np.ndarray        # (n,) study-withdrawal week
    withdraw_type: np.ndarray   # (n,) int withdrawal-type code

    def __post_init__(self) -> None:
        n, arrays = len(self.ids), (self.arm, self.baseline, self.disc, self.withdraw, self.withdraw_type)
        if self.y.shape != (n, self.grid.n_visits) or any(a.shape != (n,) for a in arrays):
            raise ValidationError(f"arrays disagree with {n} subjects on {self.grid.n_visits} visits")
        if bad := [k for k in ("arm", "withdraw_type") if getattr(self, k).dtype.kind not in "iu"]:
            raise ValidationError(f"{bad[0]} must hold integer codes, got dtype {getattr(self, bad[0]).dtype}")
        for a in (self.y, *arrays):
            a.flags.writeable = False

    @functools.cached_property
    def columns(self) -> TrialColumns:
        """Scenario codes and last observed visits by the one scenario rule.

        The rules key on treatment discontinuation before the study end,
        whether the endpoint is missing, and whether a recorded withdrawal
        could have caused the missing endpoint (withdrawal strictly before
        the endpoint week).  A non-administrative withdrawal with no prior
        discontinuation counts as a discontinuation at the withdrawal week;
        an administrative one censors it.
        """
        if problems := _violations(self):
            j = problems[0][0]
            raise ValidationError(f"subject {self.ids[j]}: "
                                  + "; ".join(msg for i, msg in problems if i == j))
        d, observed = self.grid.duration, ~np.isnan(self.y)
        end, disc_before_end = observed[:, -1], self.disc < d
        admin = self.withdraw_type == ADMIN_WITHDRAWAL
        scenario = np.select(
            [end & disc_before_end, end,
             # A discontinuation recorded at the very week of an administrative
             # withdrawal is the withdrawal itself; the real-world one is censored.
             disc_before_end & (self.disc == self.withdraw) & admin, disc_before_end,
             (self.withdraw < d) & admin, self.withdraw < d],
            [ScenarioLabel.S3, ScenarioLabel.S1, ScenarioLabel.S52, ScenarioLabel.S4_51,
             ScenarioLabel.S52, ScenarioLabel.S4_51],
            ScenarioLabel.S2)  # nothing before the endpoint week could hide it: logistics
        last_obs = np.where(observed[:, :-1], np.arange(observed.shape[1] - 1), -1).max(axis=1, initial=-1)
        for a in (scenario, last_obs):
            a.flags.writeable = False
        return TrialColumns(scenario=scenario, last_obs=last_obs)

    @functools.cached_property
    def subjects(self) -> tuple[SubjectRecord, ...]:
        """The subjects as records (NaN and ``NO_TYPE`` become None)."""
        y, disc, withdraw = (np.where(np.isnan(a), None, a).tolist()
                             for a in (self.y, self.disc, self.withdraw))
        kinds = [None if t == NO_TYPE else t for t in self.withdraw_type.tolist()]
        return tuple(SubjectRecord(*fields) for fields in zip(
            self.ids, self.arm.tolist(), self.baseline.tolist(), map(tuple, y), disc, withdraw, kinds))


@dataclass(frozen=True)
class Violation:
    subject_id: str
    message: str


def _violations(data: TrialDataset) -> list[tuple[int, str]]:
    """(subject index, message) for each structural violation of the
    subjects' data against the grid, ordered by subject, then rule, then
    visit; empty means valid."""
    d, times = data.grid.duration, data.grid.times
    u, v = data.disc.tolist(), data.withdraw.tolist()
    kind = [None if t == NO_TYPE else t for t in data.withdraw_type.tolist()]
    rules = [  # (mask over subjects, or subjects x visits; message for subject j at visit k)
        (~np.isin(data.arm, (0, 1)), lambda j, k: f"arm must be 0 or 1, got {data.arm[j].item()!r}"),
        (~np.isfinite(data.baseline), lambda j, k: "baseline is not finite"),
        (np.isinf(data.y), lambda j, k: f"visit {k}: outcome is not finite"),
        ((data.withdraw_type != NO_TYPE) & np.isnan(data.withdraw),
         lambda j, k: "withdrawal type recorded without a withdrawal week"),
        (~np.isnan(data.withdraw) & ~np.isin(data.withdraw_type, (ADMIN_WITHDRAWAL, OTHER_WITHDRAWAL)),
         lambda j, k: f"withdrawal week requires type admin/other, got {kind[j]!r}"),
        ((data.disc < 0) | (data.disc > d), lambda j, k: f"disc_time {u[j]!r} outside [0, {d}]"),
        ((data.withdraw < 0) | (data.withdraw > d), lambda j, k: f"withdraw_time {v[j]!r} outside [0, {d}]"),
        (data.disc > data.withdraw, lambda j, k: "treatment discontinuation recorded after study withdrawal"),
        ((np.asarray(times) > data.withdraw[:, None]) & ~np.isnan(data.y),
         lambda j, k: f"visit {k} (week {times[k]:g}) observed after withdrawal at week {v[j]:g}"),
    ]
    found = sorted((at[0], r, at[-1]) for r, (mask, _) in enumerate(rules)
                   for at in np.argwhere(mask).tolist())
    return [(j, rules[r][1](j, k)) for j, r, k in found]


def classify_scenario(subject: SubjectRecord, grid: VisitGrid) -> ScenarioLabel:
    """One record's scenario, by the dataset rule (``TrialDataset.columns``);
    a NaN value counts as missing, as in the arrays. Raises ValidationError on
    a structurally inconsistent record."""
    if len(subject.outcomes) != grid.n_visits:
        raise ValidationError(f"subject {subject.id}: expected {grid.n_visits} visit entries, "
                              f"got {len(subject.outcomes)}")
    floats = (subject.baseline, subject.outcomes, subject.disc_time, subject.withdraw_time)
    kind = NO_TYPE if subject.withdraw_type is None else subject.withdraw_type
    one = TrialDataset(grid, (subject.id,), np.array([subject.arm]),
                       *(np.array([v], dtype=float) for v in floats), np.array([kind]))
    return ScenarioLabel(one.columns.scenario[0])


def validate_dataset(data: TrialDataset) -> list[Violation]:
    """All structural violations in the dataset, a duplicate id first among
    its subject's; empty list means valid. Valid subjects are checked once,
    by building the columns an analysis reuses."""
    first: dict[str, int] = {}
    report = [(j, -1, "duplicate subject id") for j, s in enumerate(data.ids) if first.setdefault(s, j) != j]
    try:
        data.columns
    except ValidationError:
        report += [(j, 0, msg) for j, msg in _violations(data)]
    return [Violation(data.ids[j], msg) for j, _, msg in sorted(report, key=lambda r: r[:2])]


def scenario_counts(data: TrialDataset) -> dict[int, dict[ScenarioLabel, int]]:
    """Subject counts per arm and scenario."""
    table = np.zeros((2, len(ScenarioLabel)), dtype=int)
    np.add.at(table, (data.arm, data.columns.scenario), 1)
    return {arm: {label: int(table[arm, label]) for label in ScenarioLabel} for arm in (0, 1)}
