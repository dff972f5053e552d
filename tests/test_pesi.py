import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from survfuse.dataset import BINARY_FIELDS, ClinicalVariables, Dataset, PatientRecord, SurvivalLabel
from survfuse.errors import NonPositiveAgeError, UnimputedRecordError
from survfuse.pesi import PESI_WEIGHTS, pesi_score, pesi_scores, risk_class_for

from strategies import outcome, same_bits


def clin(age, male=False, **flags):
    values = {f: False for f in BINARY_FIELDS}
    values["male"] = male
    for name, v in flags.items():
        values[name] = v
    return ClinicalVariables(age_years=age, **values)


# Hand-scored oracle built from the published point table before any code
# ran: age + 10 male + 30 cancer + 10 heart failure + 10 chronic lung
# + 20 HR>=110 + 30 SBP<100 + 20 RR>=30 + 20 T<36 + 60 AMS + 20 SpO2<90.
ORACLE = [
    (clin(64.0), 64, "I"),
    (clin(66.0), 66, "II"),
    (clin(86.0), 86, "III"),
    (clin(106.0), 106, "IV"),
    (clin(126.0), 126, "V"),
    (clin(70.0, male=True, cancer=True, sbp_lt_100=True), 140, "V"),
    (clin(80.0, male=True, cancer=True, heart_failure=True, chronic_lung_disease=True,
          hr_ge_110=True, sbp_lt_100=True, rr_ge_30=True, temp_lt_36c=True,
          altered_mental_status=True, o2_sat_lt_90=True), 310, "V"),
    (clin(60.0, male=True, hr_ge_110=True, rr_ge_30=True), 110, "IV"),
    (clin(90.0, male=True, hr_ge_110=True), 120, "IV"),
    (clin(55.0, o2_sat_lt_90=True), 75, "II"),
    (clin(45.0, male=True, heart_failure=True, chronic_lung_disease=True), 75, "II"),
    (clin(40.0, altered_mental_status=True), 100, "III"),
    (clin(25.0, temp_lt_36c=True), 45, "I"),
    (clin(65.0), 65, "I"),
    (clin(85.0), 85, "II"),
    (clin(105.0), 105, "III"),
    (clin(125.0), 125, "IV"),
    (clin(1.0), 1, "I"),
    (clin(30.0, male=True), 40, "I"),
    (clin(50.0, male=True, cancer=True), 90, "III"),
]


class TestPesiScore:
    @pytest.mark.parametrize("variables,score,risk_class", ORACLE)
    def test_oracle_table(self, variables, score, risk_class):
        result = pesi_score(variables)
        assert result.score == score
        assert result.risk_class == risk_class

    def test_weights_sum_matches_exhaustive_case(self):
        # everything positive: age plus every weight in the table
        total = 80 + sum(PESI_WEIGHTS.values())
        assert total == 310

    def test_age_is_rounded(self):
        assert pesi_score(clin(64.4)).score == 64
        assert pesi_score(clin(64.6)).score == 65
        # round-half-even, matching the builtin
        assert pesi_score(clin(64.5)).score == 64
        assert pesi_score(clin(65.5)).score == 66

    def test_missing_field_raises(self):
        values = {f: False for f in BINARY_FIELDS}
        values["cancer"] = None
        with pytest.raises(UnimputedRecordError, match="cancer"):
            pesi_score(ClinicalVariables(age_years=50.0, **values))

    def test_nonpositive_age_raises(self):
        with pytest.raises(NonPositiveAgeError):
            pesi_score(clin(-1.0))


class TestRiskClassBands:
    @pytest.mark.parametrize("score,label", [
        (1, "I"), (65, "I"), (66, "II"), (85, "II"), (86, "III"),
        (105, "III"), (106, "IV"), (125, "IV"), (126, "V"), (400, "V"),
    ])
    def test_band_boundaries(self, score, label):
        assert risk_class_for(score) == label


class TestDatasetHelpers:
    def build(self):
        records = tuple(
            PatientRecord(
                patient_id=f"P{i}",
                clinical=variables,
                label=SurvivalLabel(event=True, time_days=float(i + 1)),
            )
            for i, (variables, _, _) in enumerate(ORACLE[:5])
        )
        return Dataset(records=records)

    def test_predictor_matches_per_record_scores(self):
        ds = self.build()
        expected = [pesi_score(r.clinical).score for r in ds.records]
        assert_array_equal(pesi_scores(ds), np.array(expected, dtype=float))
        assert pesi_scores(ds).dtype == float


def oracle_pesi_scores(ds):
    """The per-record loop: one ``pesi_score`` call per record."""
    return np.array([pesi_score(r.clinical).score for r in ds.records], dtype=float)


@st.composite
def pesi_datasets(draw):
    """Records with ages on and off the .5 rounding ties, some missing fields,
    and now and then an age that ``pesi_score`` rejects."""
    n = draw(st.integers(0, 15))
    missing_pct = draw(st.sampled_from([0, 0, 5, 30]))
    ages = st.one_of(
        st.integers(1, 130),
        st.integers(1, 130).map(lambda a: a + 0.5),
        st.floats(1e-3, 300.0),
        st.sampled_from([0.0, -1.0, 0.4, float("nan"), float("inf"), float("-inf"), 1e300]),
    )
    records = []
    for i in range(n):
        values = {f: draw(st.booleans()) for f in BINARY_FIELDS}
        values["age_years"] = draw(ages)
        for field in values:
            if draw(st.integers(0, 99)) < missing_pct:
                values[field] = None
        records.append(PatientRecord(
            patient_id=f"P{i}", clinical=ClinicalVariables(**values),
            label=SurvivalLabel(event=True, time_days=1.0)))
    return Dataset(records=tuple(records))


class TestVectorScores:
    @settings(max_examples=100)
    @given(pesi_datasets())
    def test_matches_per_record_loop(self, ds):
        # the same scores bit for bit, or the first bad record's error
        want, want_error = outcome(oracle_pesi_scores, ds)
        got, error = outcome(pesi_scores, ds)
        assert error == want_error
        assert error is not None or same_bits(got, want)

    def test_first_bad_record_raises(self):
        good, no_age, negative = clin(70.0), clin(None), clin(-2.0)
        ds = Dataset(records=tuple(
            PatientRecord(patient_id=f"P{i}", clinical=c, label=SurvivalLabel(True, 1.0))
            for i, c in enumerate([good, negative, no_age])))
        with pytest.raises(NonPositiveAgeError, match="got -2.0"):
            pesi_scores(ds)
