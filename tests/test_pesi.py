import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from survfuse.dataset import BINARY_FIELDS
from survfuse.errors import NonPositiveAgeError, UnimputedRecordError
from survfuse.pesi import PESI_WEIGHTS, pesi_points, pesi_scores, risk_class_for

import records
from strategies import make_dataset, outcome, same_bits, values_row


def clin(age, male=False, **flags):
    """One patient's values row."""
    return values_row(age, male=male, **flags)


def pesi_score(row):
    """``(score, class)`` of one values row, by ``pesi_points``."""
    score = int(pesi_points(np.array([row]))[0])
    return score, risk_class_for(score)


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
        assert pesi_score(variables) == (score, risk_class)

    def test_weights_sum_matches_exhaustive_case(self):
        # everything positive: age plus every weight in the table
        total = 80 + sum(PESI_WEIGHTS.values())
        assert total == 310

    def test_age_is_rounded(self):
        assert pesi_score(clin(64.4))[0] == 64
        assert pesi_score(clin(64.6))[0] == 65
        # round-half-even, matching the builtin
        assert pesi_score(clin(64.5))[0] == 64
        assert pesi_score(clin(65.5))[0] == 66

    def test_missing_field_raises(self):
        with pytest.raises(UnimputedRecordError, match="^cannot score with missing fields: cancer$"):
            pesi_score(clin(50.0, cancer=None))

    def test_nonpositive_age_raises(self):
        with pytest.raises(NonPositiveAgeError, match="^age must be positive, got -1.0$"):
            pesi_score(clin(-1.0))


class TestRiskClassBands:
    @pytest.mark.parametrize("score,label", [
        (1, "I"), (65, "I"), (66, "II"), (85, "II"), (86, "III"),
        (105, "III"), (106, "IV"), (125, "IV"), (126, "V"), (400, "V"),
    ])
    def test_band_boundaries(self, score, label):
        assert risk_class_for(score) == label


class TestDatasetHelpers:
    def test_predictor_matches_per_record_scores(self):
        ds = make_dataset([variables for variables, _, _ in ORACLE[:5]])
        expected = [score for _, score, _ in ORACLE[:5]]
        assert_array_equal(pesi_scores(ds), np.array(expected, dtype=float))
        assert pesi_scores(ds).dtype == float


def oracle_pesi_scores(ds):
    """The per-record loop: one ``pesi_score`` call per record."""
    return records.pesi_scores(records.record_dataset(ds))


@st.composite
def pesi_datasets(draw):
    """Patients with ages on and off the .5 rounding ties, some missing
    fields, and now and then an age that the per-record score rejects."""
    n = draw(st.integers(0, 15))
    missing_pct = draw(st.sampled_from([0, 0, 5, 30]))
    ages = st.one_of(
        st.integers(1, 130),
        st.integers(1, 130).map(lambda a: a + 0.5),
        st.floats(1e-3, 300.0),
        st.sampled_from([0.0, -1.0, 0.4, float("nan"), float("inf"), float("-inf"), 1e300]),
    )
    rows = []
    for _ in range(n):
        row = [draw(ages), *(draw(st.booleans()) for _ in BINARY_FIELDS)]
        rows.append([np.nan if draw(st.integers(0, 99)) < missing_pct else float(v) for v in row])
    return make_dataset(rows)


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
        ds = make_dataset([good, negative, no_age])
        with pytest.raises(NonPositiveAgeError, match="got -2.0"):
            pesi_scores(ds)
