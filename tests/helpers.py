"""Hand-construction helpers for subject records, small datasets and their CSVs."""
from __future__ import annotations

import csv
from typing import Optional, Sequence

from trialmi.core import (ADMIN_WITHDRAWAL, DEFAULT_GRID, OTHER_WITHDRAWAL, SubjectRecord,
                          TrialDataset, VisitGrid)

_COUNTER = [0]


def make_subject(outcomes: Sequence[Optional[float]], *, arm: int = 0, baseline: float = 8.0,
                 disc: Optional[float] = None, withdraw: Optional[float] = None,
                 withdraw_type: Optional[int] = None, subject_id: Optional[str] = None,
                 grid: VisitGrid = DEFAULT_GRID) -> SubjectRecord:
    if subject_id is None:
        _COUNTER[0] += 1
        subject_id = f"T{_COUNTER[0]:05d}"
    outcomes = tuple(outcomes)
    assert len(outcomes) == grid.n_visits
    if withdraw is not None and withdraw_type is None:
        withdraw_type = 1
    return SubjectRecord(id=subject_id, arm=arm, baseline=baseline, outcomes=outcomes,
                         missing=tuple(o is None for o in outcomes), disc_time=disc,
                         withdraw_time=withdraw, withdraw_type=withdraw_type)


def make_dataset(subjects: Sequence[SubjectRecord], grid: VisitGrid = DEFAULT_GRID) -> TrialDataset:
    return TrialDataset(grid=grid, subjects=tuple(subjects), provenance="hand-built")


def completer(value: float, **kw) -> SubjectRecord:
    """A subject observed at every visit with endpoint `value`."""
    base = kw.pop("trajectory", None)
    grid = kw.get("grid", DEFAULT_GRID)
    if base is None:
        base = [value * t / grid.duration for t in grid.times[:-1]] + [value]
    return make_subject(base, **kw)


def write_csv(dataset: TrialDataset, path) -> None:
    """Subject-level CSV in the schema `trialmi analyze` reads."""
    kind = {ADMIN_WITHDRAWAL: "admin", OTHER_WITHDRAWAL: "other", None: ""}

    def cell(v) -> str:
        return "" if v is None else repr(float(v))

    rows = [["id", "arm", "baseline"] + [f"y{t:g}" for t in dataset.grid.times]
            + ["disc_week", "withdraw_week", "withdraw_type"]]
    for s in dataset.subjects:
        rows.append([s.id, s.arm, cell(s.baseline), *map(cell, s.outcomes),
                     cell(s.disc_time), cell(s.withdraw_time), kind[s.withdraw_type]])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
