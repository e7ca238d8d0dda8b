"""Classification and validation of subject records."""
import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialmi.core import (DEFAULT_GRID, ScenarioLabel, VisitGrid, classify_scenario,
                          scenario_counts, validate_dataset)
from trialmi.errors import ValidationError

from .helpers import completer, make_dataset, make_subject
from .strategies import valid_records

S = ScenarioLabel


class TestVisitGrid:
    def test_default(self):
        assert DEFAULT_GRID.times == (12.0, 24.0, 36.0, 48.0)
        assert DEFAULT_GRID.duration == 48.0
        assert DEFAULT_GRID.n_visits == 4

    @pytest.mark.parametrize("times", [(), (0.0, 12.0), (12.0, 12.0), (24.0, 12.0), (-3.0, 5.0)])
    def test_rejects_bad_grids(self, times):
        with pytest.raises(ValidationError):
            VisitGrid(times=times)


class TestClassification:
    def test_completer_with_endpoint(self):
        assert classify_scenario(completer(-1.2), DEFAULT_GRID) is S.S1

    def test_retrieved_dropout(self):
        subject = completer(-0.5, disc=24.0)
        assert classify_scenario(subject, DEFAULT_GRID) is S.S3

    def test_admin_withdrawal_censors(self):
        subject = make_subject([-0.3, -0.5, None, None], withdraw=24.0, withdraw_type=1)
        assert classify_scenario(subject, DEFAULT_GRID) is S.S52

    def test_other_withdrawal_is_simultaneous_discontinuation(self):
        subject = make_subject([-0.3, -0.5, None, None], withdraw=24.0, withdraw_type=0)
        assert classify_scenario(subject, DEFAULT_GRID) is S.S4_51

    def test_completer_missing_endpoint(self):
        subject = make_subject([-0.3, -0.5, -0.6, None])
        assert classify_scenario(subject, DEFAULT_GRID) is S.S2

    def test_disc_then_missing_endpoint(self):
        subject = make_subject([-0.3, None, -0.4, None], disc=12.0)
        assert classify_scenario(subject, DEFAULT_GRID) is S.S4_51

    def test_disc_then_withdrawal(self):
        subject = make_subject([-0.3, -0.4, None, None], disc=12.0, withdraw=30.0, withdraw_type=1)
        assert classify_scenario(subject, DEFAULT_GRID) is S.S4_51

    def test_disc_recorded_at_admin_withdrawal_week(self):
        subject = make_subject([-0.3, None, None, None], disc=20.0, withdraw=20.0, withdraw_type=1)
        assert classify_scenario(subject, DEFAULT_GRID) is S.S52

    def test_disc_at_other_withdrawal_week(self):
        subject = make_subject([-0.3, None, None, None], disc=20.0, withdraw=20.0, withdraw_type=0)
        assert classify_scenario(subject, DEFAULT_GRID) is S.S4_51

    def test_withdrawal_at_endpoint_week_cannot_hide_endpoint(self):
        # Recorded withdrawal at (or after) the final visit week with a missing
        # endpoint and no discontinuation: logistics, not withdrawal-caused.
        subject = make_subject([-0.3, -0.4, -0.5, None], withdraw=48.0, withdraw_type=1)
        assert classify_scenario(subject, DEFAULT_GRID) is S.S2

    def test_inconsistent_record_rejected(self):
        subject = dataclasses.replace(completer(-1.0), withdraw_type=1)
        with pytest.raises(ValidationError):
            classify_scenario(subject, DEFAULT_GRID)

    @given(valid_records())
    def test_total_over_valid_records(self, subject):
        assert classify_scenario(subject, DEFAULT_GRID) in S

    @given(valid_records(), st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_depends_only_on_missingness_pattern(self, subject, shift):
        label = classify_scenario(subject, DEFAULT_GRID)
        shifted = dataclasses.replace(
            subject,
            baseline=subject.baseline + shift,
            outcomes=tuple(None if y is None else y + shift for y in subject.outcomes))
        assert classify_scenario(shifted, DEFAULT_GRID) is label


class TestValidation:
    def test_clean_dataset(self):
        data = make_dataset([completer(-1.0), completer(0.5, disc=12.0, arm=1)])
        assert validate_dataset(data) == []

    def test_type_without_week(self):
        bad = dataclasses.replace(completer(-1.0), withdraw_type=1)
        report = validate_dataset(make_dataset([bad]))
        assert len(report) == 1
        assert "withdrawal type" in report[0].message

    def test_wrong_visit_count(self):
        bad = dataclasses.replace(completer(-1.0), outcomes=(-0.2, -0.5, -1.0))
        report = validate_dataset(make_dataset([bad]))
        assert [v.message for v in report] == ["expected 4 visit entries, got 3"]
        with pytest.raises(ValidationError, match="visit entries"):
            classify_scenario(bad, DEFAULT_GRID)

    def test_observed_after_withdrawal(self):
        bad = make_subject([-0.1, -0.2, -0.3, None], withdraw=20.0)
        report = validate_dataset(make_dataset([bad]))
        assert any("after withdrawal" in v.message for v in report)

    def test_disc_after_withdrawal(self):
        bad = make_subject([-0.1, None, None, None], disc=30.0, withdraw=20.0)
        report = validate_dataset(make_dataset([bad]))
        assert any("after study withdrawal" in v.message for v in report)

    def test_duplicate_ids(self):
        a = completer(-1.0, subject_id="X1")
        b = completer(-2.0, subject_id="X1")
        report = validate_dataset(make_dataset([a, b]))
        assert any("duplicate" in v.message for v in report)

    def test_out_of_range_times(self):
        bad = make_subject([None, None, None, None], withdraw=60.0)
        report = validate_dataset(make_dataset([bad]))
        assert any("outside" in v.message for v in report)

    @given(st.lists(valid_records(), max_size=8, unique_by=lambda s: s.id))
    def test_valid_records_produce_empty_report(self, subjects):
        assert validate_dataset(make_dataset(subjects)) == []


def test_scenario_counts_partition():
    data = make_dataset([
        completer(-1.0),
        completer(-0.5, disc=12.0),
        make_subject([-0.3, None, None, None], withdraw=13.0, arm=1),
        make_subject([-0.3, -0.4, -0.5, None], arm=1),
    ])
    counts = scenario_counts(data)
    assert sum(counts[0].values()) == 2
    assert sum(counts[1].values()) == 2
    assert counts[1][S.S52] == 1


def test_scenario_codes_and_names():
    # The code is the label's array form; the name is its text in scenarios.csv.
    assert [(int(label), label.name) for label in S] == [
        (0, "S1"), (1, "S2"), (2, "S3"), (3, "S4_51"), (4, "S52")]
    assert make_subject([-0.3, None, -0.4, None]).missing == (False, True, False, True)
