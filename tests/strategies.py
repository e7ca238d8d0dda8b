"""Hypothesis strategies for structurally valid and invalid subject records."""
from __future__ import annotations

import dataclasses
import math

from hypothesis import strategies as st

from trialmi.core import DEFAULT_GRID, SubjectRecord

_IDS = st.uuids().map(lambda u: f"H{u.hex[:10]}")
_VALUES = st.floats(min_value=-6, max_value=6, allow_nan=False)
# Built once here, not per record: building strategies dominated the draw time.
_FRACTIONS = st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0))
_ZERO_ONE = st.sampled_from([0, 1])
_BOOLS = st.booleans()


@st.composite
def valid_records(draw, grid=DEFAULT_GRID):
    """Records satisfying every structural invariant.

    Withdrawal masks everything after its week; extra missingness (including
    the endpoint) can occur anywhere else; an observed discontinuation never
    postdates a withdrawal.
    """
    d = grid.duration
    # A fraction u in [0, 1] scales to a week u * cap in [0, cap], both ends included.
    u = draw(_FRACTIONS)
    withdraw = None if u is None else u * d
    withdraw_type = draw(_ZERO_ONE) if withdraw is not None else None
    cap = withdraw if withdraw is not None else d
    u = draw(_FRACTIONS)
    disc = None if u is None else u * cap
    missing = []
    for t in grid.times:
        if withdraw is not None and t > withdraw:
            missing.append(True)
        else:
            missing.append(draw(_BOOLS))
    outcomes = tuple(None if m else draw(_VALUES) for m in missing)
    return SubjectRecord(
        id=draw(_IDS), arm=draw(_ZERO_ONE), baseline=draw(_VALUES),
        outcomes=outcomes, disc_time=disc,
        withdraw_time=withdraw, withdraw_type=withdraw_type)


#: The structural faults ``invalid_records`` can apply.
FAULTS = ("arm", "baseline", "outcome", "type-without-week", "disc-after-withdrawal",
          "observed-after-withdrawal", "week-out-of-range")


@st.composite
def invalid_records(draw, grid=DEFAULT_GRID):
    """Valid records with one to three faults applied in turn.

    Each fault breaks an invariant whatever the record held before it, so
    the last one leaves the record invalid. Non-finite outcomes and weeks are
    infinite, as a NaN in a dataset marks a missing value or an absent week.
    """
    record = draw(valid_records(grid))
    d, times = grid.duration, grid.times
    for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3, unique=True)):
        change = {}
        if fault == "arm":
            change["arm"] = draw(st.sampled_from([-1, 2, 7]))
        elif fault == "baseline":
            change["baseline"] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif fault == "outcome":
            outcomes = list(record.outcomes)
            outcomes[draw(st.integers(0, len(times) - 1))] = draw(st.sampled_from([math.inf, -math.inf]))
            change["outcomes"] = tuple(outcomes)
        elif fault == "type-without-week":
            change = {"withdraw_time": None, "withdraw_type": draw(_ZERO_ONE)}
        elif fault == "disc-after-withdrawal":
            v = draw(st.floats(min_value=0.0, max_value=d, exclude_max=True))
            change = {"withdraw_time": v, "withdraw_type": draw(_ZERO_ONE),
                      "disc_time": draw(st.floats(min_value=v, max_value=d, exclude_min=True))}
        elif fault == "observed-after-withdrawal":
            k = draw(st.integers(0, len(times) - 1))
            outcomes = list(record.outcomes)
            outcomes[k] = draw(_VALUES)
            change = {"outcomes": tuple(outcomes), "withdraw_type": draw(_ZERO_ONE),
                      "withdraw_time": draw(st.floats(min_value=0.0, max_value=times[k], exclude_max=True))}
        else:
            bad = draw(st.sampled_from([-1.0, -1e-9, d + 1e-9, 2 * d, math.inf, -math.inf]))
            change[draw(st.sampled_from(["disc_time", "withdraw_time"]))] = bad
        record = dataclasses.replace(record, **change)
    return record
