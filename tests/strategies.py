"""Hypothesis strategies for structurally valid (and invalid) subject records."""
from __future__ import annotations

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
