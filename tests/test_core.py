"""Classification and validation of subject records."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialmi.cli import read_dataset_csv
from trialmi.core import (DEFAULT_GRID, NO_TYPE, ScenarioLabel, TrialDataset, VisitGrid,
                          classify_scenario, scenario_counts, validate_dataset)
from trialmi.datagen import generate_trial
from trialmi.errors import ValidationError

from .helpers import (completer, make_dataset, make_subject, reference_classify,
                      reference_violations, write_csv)
from .strategies import invalid_records, valid_records

S = ScenarioLabel


class TestVisitGrid:
    def test_default(self):
        assert DEFAULT_GRID.times == (12.0, 24.0, 36.0, 48.0)
        assert DEFAULT_GRID.duration == 48.0
        assert DEFAULT_GRID.n_visits == 4

    @pytest.mark.parametrize("times", [(), (0.0, 12.0), (12.0, 12.0), (24.0, 12.0), (-3.0, 5.0),
                                       (12.0, math.nan), (12.0, math.inf)])
    def test_rejects_bad_grids(self, times, tmp_path):
        # Also as the y<week> columns of a dataset CSV header.
        header = ["id", "arm", "baseline", *(f"y{t:g}" for t in times), "disc_week", "withdraw_week",
                  "withdraw_type"]
        (tmp_path / "grid.csv").write_text(",".join(header) + "\n")
        finite = all(map(math.isfinite, times))
        named = None if finite else f"visit week {times[-1]} must be positive and finite"
        for build in (lambda: VisitGrid(times=times), lambda: read_dataset_csv(tmp_path / "grid.csv")):
            with pytest.raises(ValidationError, match=named):
                build()


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
        # A record with too few visits cannot be classified; as arrays it
        # cannot form a dataset at all.
        bad = dataclasses.replace(completer(-1.0), outcomes=(-0.2, -0.5, -1.0))
        with pytest.raises(ValidationError, match="visit entries"):
            classify_scenario(bad, DEFAULT_GRID)
        nan = np.array([np.nan])
        with pytest.raises(ValidationError, match="1 subjects on 4 visits"):
            TrialDataset(DEFAULT_GRID, ("X",), np.array([0]), np.array([8.0]), np.array([bad.outcomes]),
                         nan, nan, np.array([NO_TYPE]))

    @pytest.mark.parametrize("field", ["arm", "withdraw_type"])
    @pytest.mark.parametrize("dtype", [float, bool])
    def test_codes_that_are_not_integers_are_rejected(self, field, dtype):
        # 0.0/1.0 arms would pass every value rule, then fail inside the
        # analysis; the dataset refuses them, naming the field.
        data = generate_trial("setting1", 1)
        codes = getattr(data, field).astype(dtype)
        with pytest.raises(ValidationError, match=f"^{field} must hold integer codes, got dtype {codes.dtype}$"):
            dataclasses.replace(data, **{field: codes})

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

    @given(st.lists(st.tuples(st.sampled_from("ABCDEF"), st.one_of(valid_records(), invalid_records())),
                    max_size=8))
    def test_vectorised_rule_matches_the_per_record_reference(self, pairs):
        # Ids from a small set, so duplicates occur; the report is ordered by
        # subject, then rule, then visit, with a duplicate id first.
        records = [dataclasses.replace(r, id=i) for i, r in pairs]
        expected, seen = [], set()
        for r in records:
            if r.id in seen:
                expected.append((r.id, "duplicate subject id"))
            seen.add(r.id)
            expected += [(r.id, msg) for msg in reference_violations(r, DEFAULT_GRID)]
        assert [(v.subject_id, v.message) for v in validate_dataset(make_dataset(records))] == expected
        for r in records:
            try:
                label = reference_classify(r, DEFAULT_GRID)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as got:
                    classify_scenario(r, DEFAULT_GRID)
                assert str(got.value) == str(exc)
            else:
                assert classify_scenario(r, DEFAULT_GRID) is label
        valid = [r for r in records if not reference_violations(r, DEFAULT_GRID)]
        assert make_dataset(valid).columns.scenario.tolist() == [reference_classify(r, DEFAULT_GRID)
                                                                 for r in valid]

    @given(invalid_records())
    def test_invalid_records_are_invalid(self, record):
        assert reference_violations(record, DEFAULT_GRID)


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


class TestColumns:
    def test_built_on_first_use_then_cached_and_read_only(self):
        records = [completer(-1.0), make_subject([-0.3, None, None, None], withdraw=13.0, arm=1)]
        data = make_dataset(records)
        assert "columns" not in vars(data) and "subjects" not in vars(data)
        cols = data.columns
        assert data.columns is cols
        assert cols.scenario.tolist() == [S.S1, S.S52] and cols.last_obs.tolist() == [2, 0]
        assert data.arm.tolist() == [0, 1] and "subjects" not in vars(data)
        for array in (data.y, data.arm, data.withdraw_type, cols.scenario):
            with pytest.raises(ValueError):
                array[0] = 0
        # The records read back from the arrays are the ones they were built from.
        assert data.subjects == tuple(records) and data.subjects is data.subjects

    def test_invalid_dataset_is_reported_in_full_not_raised_on_construction(self, tmp_path):
        bad = make_dataset([
            completer(-1.0, subject_id="X1"),
            make_subject([None, None, None, None], withdraw=60.0, subject_id="X2"),
            make_subject([-0.1, -0.2, -0.3, -0.4], withdraw=13.0, subject_id="X3"),
        ])
        write_csv(bad, tmp_path / "bad.csv")
        for data in (bad, read_dataset_csv(tmp_path / "bad.csv")):
            report = validate_dataset(data)
            assert {v.subject_id for v in report} == {"X2", "X3"} and len(report) == 4
            with pytest.raises(ValidationError, match="subject X2"):
                data.columns
