import csv
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from survfuse import dataset, feature_csv
from survfuse.dataset import (
    BINARY_FIELDS,
    CLINICAL_COLUMNS,
    EventTable,
    ImputationStats,
    Labels,
    apply_imputation,
    attach_imaging,
    clinical_matrix,
    compute_imputation_stats,
    imaging_matrix,
    impute_missing,
    ingest_clinical,
    ingest_features,
    median,
    percentiles,
    sorted_unique,
    split_dataset,
    truncate_30day,
)
from survfuse.errors import (
    AllMissingColumnError,
    DatasetTooSmallError,
    DuplicatePatientIdError,
    MalformedRowError,
    MismatchedLengthsError,
    MissingColumnError,
    MissingModalityError,
    SurvfuseError,
    UnimputedRecordError,
)
from survfuse.pesi import pesi_scores

import records
from defaults import DEFAULTS
from strategies import make_dataset, outcome, same_bits, survival_arrays, values_row

HEADER = list(CLINICAL_COLUMNS)


def write_clinical(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header if header is not None else HEADER)
        writer.writerows(rows)
    return path


def base_row(pid="P1", **overrides):
    row = {
        "patient_id": pid,
        "age": "60",
        "sex": "M",
        "heart_rate": "80",
        "systolic_bp": "120",
        "respiratory_rate": "18",
        "temperature_c": "36.8",
        "altered_mental_status": "0",
        "cancer": "0",
        "heart_failure": "0",
        "chronic_lung_disease": "0",
        "o2_sat": "96",
        "event": "0",
        "time_days": "100",
        "rv_dysfunction": "0",
    }
    row.update(overrides)
    return [row[c] for c in HEADER]


FIELDS = ("age_years",) + BINARY_FIELDS


def column(ds, name):
    """The values column of a field of ``FIELDS``."""
    return ds.values[:, FIELDS.index(name)]


class TestIngestClinical:
    def test_happy_path(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", event="1", time_days="12.5"),
            base_row("P2", sex="F", age="71.2", cancer="1"),
        ])
        ds = ingest_clinical(path)
        assert ds.patient_ids == ("P1", "P2")
        assert (ds.labels.times[0], ds.labels.events[0]) == (12.5, True)
        assert column(ds, "male").tolist() == [1.0, 0.0]
        assert column(ds, "cancer")[1] == 1.0
        assert column(ds, "age_years")[1] == 71.2
        assert ds.imaging is None

    def test_vitals_thresholded_at_ingest(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", heart_rate="110", systolic_bp="100",
                     respiratory_rate="30", temperature_c="36.0", o2_sat="90"),
            base_row("P2", heart_rate="109.9", systolic_bp="99.9",
                     respiratory_rate="29.9", temperature_c="35.99", o2_sat="89.9"),
        ])
        ds = ingest_clinical(path)
        vitals = ("hr_ge_110", "sbp_lt_100", "rr_ge_30", "temp_lt_36c", "o2_sat_lt_90")
        c1, c2 = (dict(zip(vitals, (column(ds, v)[k] for v in vitals))) for k in (0, 1))
        # boundary values: hr >= 110, sbp < 100, rr >= 30, temp < 36, o2 < 90
        assert list(c1.values()) == [1.0, 0.0, 1.0, 0.0, 0.0]
        assert list(c2.values()) == [0.0, 1.0, 0.0, 1.0, 1.0]

    def test_missing_cells_become_missing_values(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", age="", sex="", cancer="", heart_rate=""),
        ])
        ds = ingest_clinical(path)
        missing = [f for f in FIELDS if np.isnan(column(ds, f)[0])]
        assert missing == ["age_years", "male", "cancer", "hr_ge_110"]

    def test_unparseable_covariate_is_missing_not_fatal(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", cancer="maybe", heart_rate="fast"),
        ])
        ds = ingest_clinical(path)
        assert np.isnan(column(ds, "cancer")[0])
        assert np.isnan(column(ds, "hr_ge_110")[0])

    def test_missing_required_column(self, tmp_path):
        header = [c for c in HEADER if c != "event"]
        rows = [[v for c, v in zip(HEADER, base_row("P1")) if c != "event"]]
        path = write_clinical(tmp_path / "c.csv", rows, header=header)
        with pytest.raises(MissingColumnError, match="event"):
            ingest_clinical(path)

    def test_rv_column_is_optional(self, tmp_path):
        header = [c for c in HEADER if c != "rv_dysfunction"]
        rows = [[v for c, v in zip(HEADER, base_row("P1")) if c != "rv_dysfunction"]]
        path = write_clinical(tmp_path / "c.csv", rows, header=header)
        ds = ingest_clinical(path)
        assert np.isnan(ds.rv_dysfunction).all()

    def test_duplicate_patient_id(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [base_row("P1"), base_row("P1")])
        with pytest.raises(DuplicatePatientIdError):
            ingest_clinical(path)

    @pytest.mark.parametrize("overrides", [
        {"event": ""},
        {"event": "perhaps"},
        {"time_days": ""},
        {"time_days": "-1"},
        {"time_days": "nan"},
        {"age": "-3"},
        {"age": "0"},
    ])
    def test_malformed_rows(self, tmp_path, overrides):
        path = write_clinical(tmp_path / "c.csv", [base_row("P1", **overrides)])
        with pytest.raises(MalformedRowError):
            ingest_clinical(path)

    @pytest.mark.parametrize("column", ["age", "heart_rate", "systolic_bp", "respiratory_rate",
                                        "temperature_c", "o2_sat"])
    @pytest.mark.parametrize("token", ["nan", " NaN", "inf", "-inf", "1e999"])
    def test_non_finite_measure_names_its_column(self, tmp_path, column, token):
        rows = [base_row("P1"), base_row("P2", **{column: token})]
        path = write_clinical(tmp_path / "c.csv", rows)
        with pytest.raises(MalformedRowError) as info:
            ingest_clinical(path)
        assert info.value.row_index == 1
        assert info.value.reason == f"{column} must be a finite number, got {token.strip()!r}"

    def test_sex_tokens(self, tmp_path):
        rows = [base_row(f"P{i}", sex=s) for i, s in enumerate(
            ["M", "male", "F", "female", "1", "0"])]
        path = write_clinical(tmp_path / "c.csv", rows)
        males = column(ingest_clinical(path), "male").tolist()
        assert males == [1.0, 1.0, 0.0, 0.0, 1.0, 0.0]


# --- the per-row read path (records.ingest_clinical) is the oracle ------


_FLAG_TOKENS = ["1", "0", "", "TRUE", " false", "Yes ", "n", "T", "f", "y", "maybe", "2",
                " ", "-1", "yes,no", '"1"']
_SEX_TOKENS = ["M", "F", "male", " Female", "1", "0", "", "x", "MALE ", "t", "n"]
_MEASURE_TOKENS = ["60", " 72.5", "110", "109.9", "100", "99.9", "30", "29.9", "36", "35.99",
                   "90", "89.9", "1e-3", "+3", "1_0", "1e308", "", " ", "fast", "1\n2", '"7"',
                   "-3", "0", "-0"]
_NON_FINITE_TOKENS = ["nan", " NaN", "inf", "-inf", "1e999", "-Infinity"]
# per column: tokens a row may hold, and tokens that make it faulty
_CLINICAL_TOKENS = {
    "patient_id": ([" {k} ", "{k},x", '{k}"q', "{k}\n"], ["P1", "P2", "", "  "]),
    "event": (["1", "0", " TRUE ", "no", "Y", "t", "F"], ["", " ", "perhaps", "2"]),
    "time_days": (["12.5", "0", "-0", " 3 ", "1e5", "1_0", "+3"],
                  ["", "-1", "nan", "inf", "abc", "-1e-300"]),
    "age": ([t for t in _MEASURE_TOKENS if t not in ("-3", "0", "-0")],
            ["-3", "0", "-0", *_NON_FINITE_TOKENS]),
    "sex": (_SEX_TOKENS, []),
}
_CLINICAL_TOKENS.update(dict.fromkeys(
    ("heart_rate", "systolic_bp", "respiratory_rate", "temperature_c", "o2_sat"),
    (_MEASURE_TOKENS, _NON_FINITE_TOKENS)))


@st.composite
def clinical_csvs(draw):
    """``(header, rows)`` of a clinical CSV.

    The canonical columns, shuffled, with extra columns or a repeated name;
    now and then ``rv_dysfunction`` or a required column is absent. 0-25
    rows whose cells are those of ``base_row`` but, at two rates drawn per
    file, hold a token a row may hold (padded, mixed case, quoted, empty,
    unparseable) or one that makes the row faulty (an empty or repeated id, a bad event or time, a NaN,
    infinite or non-positive age, a non-finite vital sign). Rows may also
    be cells short or a cell long, and blank lines come between them.
    """
    # a plain generator: hypothesis's own randoms lean to their smallest draws
    rnd = random.Random(draw(st.integers(0, 2**32)))
    columns = list(CLINICAL_COLUMNS)
    if rnd.random() < 0.5:
        columns.remove("rv_dysfunction")
    if rnd.random() < 0.05:
        columns.remove(rnd.choice(columns))
    extras = rnd.sample(["note", "age", "cancer", "patient_id", "event"], rnd.randint(0, 2))
    header = columns + extras
    rnd.shuffle(header)
    odd_rate = rnd.choice([0.0, 0.1, 0.3, 0.7])
    fault_rate = rnd.choice([0.0, 0.0, 0.003, 0.01, 0.05])

    def cell(name, k):
        if name is None:  # an extra column
            return rnd.choice(_FLAG_TOKENS + _MEASURE_TOKENS)
        odd, faulty = _CLINICAL_TOKENS.get(name, (_FLAG_TOKENS, []))
        if name == "patient_id" and k and rnd.random() < 0.03:
            return f" Q{rnd.randrange(k)}"  # an earlier row's id
        if faulty and rnd.random() < fault_rate:
            return rnd.choice(faulty)
        if rnd.random() < odd_rate:
            return rnd.choice(odd).format(k=f"Q{k}")
        return base_row(f"Q{k}")[HEADER.index(name)]

    def row(k):
        cells = [cell(h if h in columns else None, k) for h in header]
        if rnd.random() < odd_rate / 10:
            cells = cells[:rnd.randrange(len(cells))]
        elif rnd.random() < odd_rate / 10:
            cells.append("extra")
        return cells

    rows = [row(k) for k in range(rnd.randint(0, 25))]
    for _ in range(rnd.randint(0, 2)):
        rows.insert(rnd.randint(0, len(rows)), [])  # a blank line
    return header, rows


# each clinical property reads every file with these blocks, the default included
CLINICAL_BLOCKS = (1, 3, 7, dataset._CLINICAL_BLOCK_ROWS)


class TestReadClinical:
    @settings(max_examples=300)
    @given(clinical_csvs())
    def test_matches_the_per_row_reader(self, case):
        # equal records and DEBUG logs, or the same error for the same row
        header, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_rows(Path(tmp) / "c.csv", header, rows)
            want_logs = []
            want, want_error = outcome(
                lambda: records.ingest_clinical(path, lambda *a: want_logs.append(a)))
            for block in CLINICAL_BLOCKS:
                with mock.patch.object(dataset, "_CLINICAL_BLOCK_ROWS", block), \
                        mock.patch.object(dataset.log, "debug") as debug:
                    got, error = outcome(ingest_clinical, path)
                assert error == want_error
                assert [c.args for c in debug.call_args_list] == want_logs
                if error is None:
                    assert len(got) == len(want.records)
                    assert got.imaging is None
                    for a, b in zip(records.record_dataset(got).records, want.records):
                        assert a.patient_id == b.patient_id
                        assert repr(a.clinical) == repr(b.clinical)
                        assert repr(a.label) == repr(b.label)
                        assert repr(a.rv_dysfunction) == repr(b.rv_dysfunction)

    def test_columns(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", event="1", time_days="12.5", heart_rate="120", o2_sat=""),
            base_row("P2", sex="F", age="", cancer="yes", rv_dysfunction="x"),
        ])
        ds = ingest_clinical(path)
        assert ds.patient_ids == ("P1", "P2")
        nan = np.nan
        assert_array_equal(ds.values, [
            [60.0, 1, 0, 0, 0, 1, 0, 0, 0, 0, nan],
            [nan, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        ])
        assert ds.labels.events.dtype == bool and ds.labels.events.tolist() == [True, False]
        assert ds.labels.times.tolist() == [12.5, 100.0]
        assert_array_equal(ds.rv_dysfunction, [0.0, nan])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("")
        with pytest.raises(MissingColumnError, match="patient_id"):
            ingest_clinical(path)
        path.write_text(",".join(HEADER) + "\r\n")
        ds = ingest_clinical(path)
        assert ds.patient_ids == () and ds.values.shape == (0, 11) and len(ds.labels) == 0

    @pytest.mark.parametrize("fault", ["field_limit", "encoding"])
    def test_reader_failure_after_a_bad_row(self, tmp_path, fault):
        # the reader fails on the last line; a bad row before it in the same
        # block is still reported first, as by the per-row reader
        good = [base_row(f"P{i}") for i in range(300)]
        last = "P9999,60," + ("9" * 200_000 if fault == "field_limit" else "\udcff")
        for rows in ([good[0], base_row("P1", time_days="-1"), *good[2:]], good):
            path = write_clinical(tmp_path / "c.csv", rows)
            with open(path, "a", encoding="utf-8", errors="surrogateescape", newline="") as fh:
                fh.write(last + "\r\n")
            want = outcome(records.ingest_clinical, path)[1]
            assert want is not None
            for block in CLINICAL_BLOCKS:
                with mock.patch.object(dataset, "_CLINICAL_BLOCK_ROWS", block):
                    assert outcome(ingest_clinical, path)[1] == want

    def test_read_memory_is_bounded_by_blocks(self, tmp_path):
        # 4000 patients: the columns take about 0.5 MB; the cell strings of
        # the whole file, held at once, would take several times that
        rows = [base_row(f"P{i:05d}", age=repr(40 + i / 100), time_days=repr(i / 7))
                for i in range(4000)]
        path = write_clinical(tmp_path / "c.csv", rows)
        tracemalloc.start()
        try:
            ds = ingest_clinical(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, peak
        assert ds.values.shape == (4000, 11)


def oracle_ingest_features(path):
    """One ``float`` per cell and one array per row: ``(windows, d)``, each
    patient's acquisitions in file order as ``(pe_probability, vector)``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        d = sum(1 for h in header if h.startswith("f") and h[1:].isdigit())
        expected = [f"f{k}" for k in range(d)]
        idx = {name: header.index(name) for name in header}
        windows = {}
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise MalformedRowError(i, f"expected {len(header)} cells, got {len(row)}")
            pid = row[idx["patient_id"]].strip()
            if not pid:
                raise MalformedRowError(i, "empty patient_id")
            prob = records.parse_float(row[idx["pe_probability"]])
            if prob is None or not 0.0 <= prob <= 1.0:
                raise MalformedRowError(i, "pe_probability must be a number in [0, 1]")
            try:
                vec = np.array([float(row[idx[c]]) for c in expected], dtype=float)
            except ValueError:
                raise MalformedRowError(i, "feature cells must all be numeric") from None
            if not np.isfinite(vec).all():
                raise MalformedRowError(i, "feature cells must all be finite")
            windows.setdefault(pid, []).append((prob, vec))
    return windows, d


def oracle_aggregate_acquisitions(windows):
    """The highest-probability window, the first of them on ties."""
    probs = np.array([p for p, _ in windows], dtype=float)
    best = int(np.argmax(probs))  # argmax returns the first maximum
    return float(probs[best]), windows[best][1]


def oracle_attach_imaging(ds, path):
    """``(each patient's features or None, d, sorted ids absent from ds)``."""
    windows, d = oracle_ingest_features(path)
    unknown = sorted(set(windows) - set(ds.patient_ids))
    chosen = [oracle_aggregate_acquisitions(windows[pid])[1] if pid in windows else None
              for pid in ds.patient_ids]
    return chosen, d, unknown


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# each property reads every file with these blocks, the default included
FEATURE_BLOCKS = (1, 3, 7, feature_csv._FEATURE_BLOCK_ROWS)

_PROB_TOKENS = ["0", "-0", "0.5", " 0.5", "0.50", "5e-1", "0.9", "1", "1.0", "0.25 "]
_CELL_TOKENS = [" 1.5", "2 ", "-0", "1e-3", "1_0", "+3", "1e308"]
_BAD_PROB_TOKENS = ["", " ", "abc", "1.5", "nan", "-0.1", "inf"]
_BAD_CELL_TOKENS = ["", "x", "1,5", "0x1", "--1", "1\n2",
                    "nan", " NaN", "inf", "-inf", "-Infinity", "1e999"]


@st.composite
def feature_csvs(draw, min_bad=0, max_bad=0):
    """``(header, rows, cohort ids)`` of a feature CSV.

    1-40 cohort patients with 0-4 acquisitions each, up to three patients
    absent from the cohort, ids holding commas (so written quoted) or
    spaces, padded cells, tied probabilities, and shuffled columns and rows.
    Then ``min_bad``-``max_bad`` broken rows go in at random places: a cell
    too few or too many, a blank line, an empty id, a bad probability or a
    non-numeric, NaN or infinite feature cell.
    """
    d = draw(st.integers(1, 4))
    cohort = [draw(st.sampled_from([f"P{k}", f"P,{k}", f"P {k}"]))
              for k in range(draw(st.integers(1, 40)))]
    absent = [f"X{k}" for k in range(draw(st.integers(0, 3)))]
    header = draw(st.permutations(
        ["patient_id", "acquisition_id", "pe_probability", *(f"f{k}" for k in range(d))]))
    cells = st.one_of(st.floats(width=64, allow_nan=False, allow_infinity=False).map(repr),
                      st.sampled_from(_CELL_TOKENS))

    def row(pid, a):
        pad = draw(st.sampled_from(["", " "]))
        values = {"patient_id": pad + pid + pad, "acquisition_id": f"A{a}",
                  "pe_probability": draw(st.sampled_from(_PROB_TOKENS))}
        values.update({f"f{k}": draw(cells) for k in range(d)})
        return [values[h] for h in header]

    rows = [row(pid, a) for pid in cohort + absent for a in range(draw(st.integers(0, 4)))]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(min_bad, max_bad))):
        broken = row(draw(st.sampled_from(cohort)), 9)
        fault = draw(st.sampled_from(["short", "long", "blank", "id", "prob", "cell"]))
        if fault == "short":
            broken = broken[:-1]
        elif fault == "long":
            broken = broken + ["1"]
        elif fault == "blank":
            broken = []
        elif fault == "id":
            broken[header.index("patient_id")] = draw(st.sampled_from(["", "  "]))
        elif fault == "prob":
            broken[header.index("pe_probability")] = draw(st.sampled_from(_BAD_PROB_TOKENS))
        else:
            column = header.index(f"f{draw(st.integers(0, d - 1))}")
            broken[column] = draw(st.sampled_from(_BAD_CELL_TOKENS))
        rows.insert(draw(st.integers(0, len(rows))), broken)
    return header, rows, cohort


class TestFeaturesAndAggregation:
    def write_features(self, path, rows, d=3):
        header = ["patient_id", "acquisition_id", "pe_probability", *(f"f{k}" for k in range(d))]
        return write_rows(path, header, rows)

    def attach_windows(self, tmp_path, windows):
        """The features that ``attach_imaging`` gives one patient with these
        ``(pe_probability, vector)`` acquisitions, in file order."""
        rows = [["P1", f"A{a}", repr(p), *map(repr, vec)] for a, (p, vec) in enumerate(windows)]
        path = self.write_features(tmp_path / "f.csv", rows, d=len(windows[0][1]))
        ds = make_dataset([values_row()], pids=["P1"])
        return imaging_matrix(attach_imaging(ds, path))[0]

    def test_ingest_features(self, tmp_path):
        path = self.write_features(tmp_path / "f.csv", [
            ["P1", "A0", "0.5", "1", "2", "3"],
            ["P1", "A1", "0.9", "4", "5", "6"],
            ["P2", "A0", "0.7", "7", "8", "9"],
        ])
        patient_ids, probs, features = ingest_features(path)
        assert patient_ids.tolist() == ["P1", "P1", "P2"]
        assert_array_equal(probs, [0.5, 0.9, 0.7])
        assert features.shape == (3, 3)
        assert_array_equal(features[1], [4.0, 5.0, 6.0])
        assert not features.flags.writeable

    def test_feature_columns_must_be_contiguous(self, tmp_path):
        with open(tmp_path / "f.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["patient_id", "acquisition_id", "pe_probability", "f0", "f2"])
            writer.writerow(["P1", "A0", "0.5", "1", "2"])
        with pytest.raises(MissingColumnError):
            ingest_features(tmp_path / "f.csv")

    def test_bad_probability(self, tmp_path):
        path = self.write_features(tmp_path / "f.csv", [["P1", "A0", "1.5", "1", "2", "3"]])
        with pytest.raises(MalformedRowError):
            ingest_features(path)

    def test_aggregate_picks_max_probability(self, tmp_path):
        windows = [(0.4, [1.0, 1.0]), (0.9, [2.0, 2.0]), (0.6, [3.0, 3.0])]
        assert_array_equal(self.attach_windows(tmp_path, windows), [2.0, 2.0])

    def test_aggregate_tie_keeps_first(self, tmp_path):
        windows = [(0.8, [1.0]), (0.8, [2.0])]
        assert_array_equal(self.attach_windows(tmp_path, windows), [1.0])

    def test_aggregate_probability_dominates_inputs(self, tmp_path):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = rng.integers(1, 6)
            probs = rng.random(k)
            # the first feature names the acquisition that was kept
            windows = [(float(p), [float(a), *rng.standard_normal(3).tolist()])
                       for a, p in enumerate(probs)]
            kept = int(self.attach_windows(tmp_path, windows)[0])
            assert all(probs[kept] >= probs)

    def test_attach_imaging(self, tmp_path, caplog):
        cpath = write_clinical(tmp_path / "c.csv", [base_row("P1"), base_row("P2")])
        fpath = self.write_features(tmp_path / "f.csv", [
            ["P1", "A0", "0.5", "1", "2", "3"],
            ["P1", "A1", "0.9", "4", "5", "6"],
            ["PX", "A0", "0.7", "7", "8", "9"],
        ])
        ds = ingest_clinical(cpath)
        with caplog.at_level("WARNING", logger="survfuse.dataset"):
            ds = attach_imaging(ds, fpath)
        assert "PX" in caplog.text
        rows, kept = ds.imaging
        assert kept.shape[1] == 3
        assert_array_equal(kept[rows[0]], [4.0, 5.0, 6.0])
        assert not kept.flags.writeable
        assert rows[1] == -1
        with pytest.raises(MissingModalityError,
                           match=r"^1 patient\(s\) lack imaging features \(e.g. 'P2'\) to score$"):
            imaging_matrix(ds, " to score")

    @settings(max_examples=60)
    @given(feature_csvs(max_bad=1))
    def test_ingest_matches_per_row_reader(self, case):
        header, rows, _ = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_rows(Path(tmp) / "f.csv", header, rows)
            want, want_error = outcome(oracle_ingest_features, path)
            for block in FEATURE_BLOCKS:
                with mock.patch.object(feature_csv, "_FEATURE_BLOCK_ROWS", block):
                    got, error = outcome(ingest_features, path)
                assert error == want_error
                if error is not None:
                    continue
                patient_ids, probs, features = got
                windows, d = want
                assert patient_ids.dtype == object and features.dtype == float
                assert features.shape == (patient_ids.size, d) and probs.shape == patient_ids.shape
                assert not features.flags.writeable
                regrouped = {}
                for pid, prob, vec in zip(patient_ids.tolist(), probs, features):
                    regrouped.setdefault(pid, []).append((prob, vec))
                assert list(regrouped) == list(windows)
                for pid, acquisitions in windows.items():
                    assert len(regrouped[pid]) == len(acquisitions)
                    for (p, v), (q, w) in zip(regrouped[pid], acquisitions):
                        assert same_bits(p, q) and same_bits(v, w)

    @settings(max_examples=60)
    @given(feature_csvs(min_bad=1, max_bad=4))
    def test_bad_rows_raise_the_per_row_error(self, case):
        # the earliest faulty row is reported, whatever block it falls in
        header, rows, _ = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_rows(Path(tmp) / "f.csv", header, rows)
            _, want = outcome(oracle_ingest_features, path)
            assert want is not None and want[0] is MalformedRowError
            for block in FEATURE_BLOCKS:
                with mock.patch.object(feature_csv, "_FEATURE_BLOCK_ROWS", block):
                    assert outcome(ingest_features, path)[1] == want

    @settings(max_examples=60)
    @given(feature_csvs(), st.randoms(use_true_random=False))
    def test_attach_matches_per_row_choice(self, case, random):
        header, rows, cohort = case
        random.shuffle(cohort)
        ds = make_dataset([values_row()] * len(cohort), pids=cohort)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_rows(Path(tmp) / "f.csv", header, rows)
            chosen, d, unknown = oracle_attach_imaging(ds, path)
            for block in FEATURE_BLOCKS:
                with mock.patch.object(feature_csv, "_FEATURE_BLOCK_ROWS", block), \
                        mock.patch.object(dataset.log, "warning") as warn:
                    out = attach_imaging(ds, path)
                patient_rows, kept = out.imaging
                assert kept.shape[1] == d
                assert not kept.flags.writeable
                assert out.patient_ids == ds.patient_ids
                assert out.values is ds.values and out.labels is ds.labels
                for row, want in zip(patient_rows.tolist(), chosen):
                    if want is None:
                        assert row == -1
                    else:
                        assert same_bits(kept[row], want)
                if unknown:
                    warn.assert_called_once_with(
                        "feature CSV has %d patient(s) not in the cohort: %s",
                        len(unknown), ", ".join(unknown[:5]))
                else:
                    warn.assert_not_called()

    @pytest.mark.parametrize("fault", ["field_limit", "encoding"])
    def test_reader_failure_after_a_bad_row(self, tmp_path, fault):
        # the reader fails on the last line; the bad cell of row 1 is still
        # reported first, as by the per-row reader, and without it the
        # reader's own error comes through unchanged
        good = [["P1", "A0", "0.5", *map(repr, np.linspace(0, 1, 3))]] * 300
        last = "P2,A0,0.5,1,2," + ("9" * 200_000 if fault == "field_limit" else "\udcff")
        for rows in ([good[0], ["P1", "A1", "0.5", "1", "x", "3"], *good], good):
            path = self.write_features(tmp_path / "f.csv", rows)
            with open(path, "a", encoding="utf-8", errors="surrogateescape", newline="") as fh:
                fh.write(last + "\r\n")
            want = outcome(oracle_ingest_features, path)[1]
            assert want is not None
            for block in FEATURE_BLOCKS:
                with mock.patch.object(feature_csv, "_FEATURE_BLOCK_ROWS", block):
                    assert outcome(ingest_features, path)[1] == want

    def test_read_memory_is_bounded_by_blocks(self, tmp_path):
        # 4000 rows of 32 features: the matrix takes 1.0 MB, the cell strings
        # of the whole file would take about 10 MB if held at once
        rng = np.random.default_rng(9)
        rows = [[f"P{i // 2:05d}", f"A{i % 2}", "0.5", *map(repr, rng.standard_normal(32).tolist())]
                for i in range(4000)]
        path = self.write_features(tmp_path / "f.csv", rows, d=32)
        tracemalloc.start()
        try:
            _, _, features = ingest_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * features.nbytes, (peak, features.nbytes)


@st.composite
def imputation_cases(draw):
    """A cohort with random missing values, and reference rows, in any
    order, that hold one complete patient, so that every column has an
    observed reference value."""
    n = draw(st.integers(1, 12))
    ref = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    missing_pct = draw(st.sampled_from([0, 20, 60, 95]))
    ages = st.one_of(st.integers(18, 95).map(float), st.floats(18.0, 100.0))
    rows = []
    for i in range(n):
        row = [draw(ages), *(draw(st.booleans()) for _ in BINARY_FIELDS)]
        rows.append([None if i != ref[0] and draw(st.integers(0, 99)) < missing_pct else v
                     for v in row])
    ds = make_dataset([values_row(*row[:1], **dict(zip(BINARY_FIELDS, row[1:]))) for row in rows])
    return ds, np.array(ref)


class TestImputation:
    def build(self, ages, cancers):
        return make_dataset([values_row(age, cancer=cancer) for age, cancer in zip(ages, cancers)])

    def test_binary_strict_majority(self):
        ds = self.build([50.0] * 4, [True, True, False, None])
        stats = compute_imputation_stats(ds, np.arange(4))
        assert stats.binary_medians["cancer"] is True

    def test_binary_tie_imputes_false(self):
        ds = self.build([50.0] * 4, [True, False, None, None])
        stats = compute_imputation_stats(ds, np.arange(4))
        assert stats.binary_medians["cancer"] is False

    def test_age_median_and_post_imputation_moments(self):
        # observed ages 40, 60 -> median 50; the missing one fills to 50,
        # so normalization sees (40, 60, 50): mean 50, std sqrt(200/3)
        ds = self.build([40.0, 60.0, None], [False, False, False])
        stats = compute_imputation_stats(ds, [0, 1, 2])
        assert stats.age_median == 50.0
        assert stats.age_mean == 50.0
        assert_allclose(stats.age_std, np.sqrt(200.0 / 3.0), rtol=1e-15)

    def test_apply_only_touches_missing(self):
        ds = self.build([40.0, 60.0, None], [True, None, False])
        out = impute_missing(ds, [0, 1, 2])
        assert column(out, "age_years").tolist() == [40.0, 60.0, 50.0]
        assert column(out, "cancer").tolist() == [1.0, 0.0, 0.0]  # a tie among (True, False)
        assert out.imputation == compute_imputation_stats(ds, [0, 1, 2])
        assert np.isnan(ds.values).sum() == 2  # the input is left as it was

    @settings(max_examples=80)
    @given(imputation_cases())
    def test_idempotent(self, case):
        ds, rows = case
        once = impute_missing(ds, rows)
        twice = impute_missing(once, rows)
        assert not np.isnan(once.values).any()
        assert once.imputation == twice.imputation
        assert once.patient_ids == twice.patient_ids
        assert same_bits(once.values, twice.values)

    def test_all_missing_column(self):
        ds = self.build([50.0, 52.0], [None, None])
        with pytest.raises(AllMissingColumnError, match="cancer"):
            compute_imputation_stats(ds, [0, 1])

    def test_reference_set_restricts_stats(self):
        ds = self.build([40.0, 60.0, 90.0, 90.0], [False] * 4)
        stats = compute_imputation_stats(ds, [0, 1])
        assert stats.age_median == 50.0

    def test_empty_reference(self):
        ds = self.build([50.0], [False])
        with pytest.raises(DatasetTooSmallError):
            compute_imputation_stats(ds, [])


def clinical_feature_vector(row, age_norm_params, pid="P0"):
    """11-element model input of one patient's values row: normalized age
    then the ten binary flags, by ``clinical_matrix``."""
    mean, std = age_norm_params
    stats = ImputationStats(binary_medians={}, age_median=0.0, age_mean=mean, age_std=std)
    return clinical_matrix(make_dataset([row], pids=[pid], imputation=stats))[0]


@st.composite
def clinical_matrix_cases(draw):
    """An imputed-looking dataset (some patients may still lack a value) with
    arbitrary normalization constants."""
    n = draw(st.integers(0, 15))
    missing_pct = draw(st.sampled_from([0, 0, 5, 30]))
    ages = st.one_of(st.integers(1, 110), st.floats(0.5, 120.0), st.just(float("nan")))
    rows = []
    for _ in range(n):
        row = [draw(ages), *(draw(st.booleans()) for _ in BINARY_FIELDS)]
        rows.append([np.nan if draw(st.integers(0, 99)) < missing_pct else float(v) for v in row])
    stats = ImputationStats(
        binary_medians={f: False for f in BINARY_FIELDS}, age_median=60.0,
        age_mean=draw(st.floats(-200.0, 200.0)), age_std=draw(st.floats(1e-3, 1e3)))
    return make_dataset(rows, imputation=stats)


class TestClinicalMatrix:
    @settings(max_examples=100)
    @given(clinical_matrix_cases())
    def test_matches_per_record_vectors(self, ds):
        got, error = outcome(clinical_matrix, ds)
        want, want_error = outcome(records.clinical_matrix, records.record_dataset(ds))
        assert error == want_error
        if error is None:
            assert same_bits(got, want)
        params = (ds.imputation.age_mean, ds.imputation.age_std)
        for pid, row, record in zip(ds.patient_ids, ds.values.tolist(),
                                    records.record_dataset(ds).records):
            got, error = outcome(clinical_feature_vector, row, params, pid)
            want, want_error = outcome(records.clinical_vector, record, ds.imputation)
            assert error == want_error
            assert error is not None or same_bits(got, want)

    def test_feature_vector_layout(self):
        vec = clinical_feature_vector(values_row(70.0, cancer=True, hr_ge_110=True), (60.0, 10.0))
        assert vec.shape == (11,)
        assert vec[0] == 1.0  # (70 - 60) / 10
        by_name = dict(zip(BINARY_FIELDS, vec[1:]))
        assert by_name["cancer"] == 1.0
        assert by_name["hr_ge_110"] == 1.0
        assert by_name["male"] == 0.0

    def test_incomplete_record_raises(self):
        with pytest.raises(UnimputedRecordError, match="^patient P1: missing cancer; impute first$"):
            clinical_feature_vector(values_row(50.0, cancer=None), (0.0, 1.0), "P1")

    def test_training_age_column_is_centered(self):
        rng = np.random.default_rng(11)
        rows = []
        for _ in range(40):
            age = None if rng.random() < 0.25 else float(rng.uniform(30, 90))
            rows.append(values_row(age, **{f: bool(rng.random() < 0.3) for f in BINARY_FIELDS}))
        ds = impute_missing(make_dataset(rows), np.arange(28))
        mat = clinical_matrix(ds)[:28]
        assert mat.shape == (28, 11)
        assert abs(mat[:, 0].mean()) < 1e-9
        assert set(np.unique(mat[:, 1:])) <= {0.0, 1.0}

    def test_matrix_requires_imputation(self):
        with pytest.raises(UnimputedRecordError):
            clinical_matrix(make_dataset([values_row()]))


# the study's train and validation fractions
FRACTIONS = DEFAULTS["split"][:2]


class TestSplitDataset:
    def build(self, n):
        return make_dataset([values_row()] * n)

    def test_sizes_n10(self):
        assert [len(rows) for rows in split_dataset(self.build(10), 0, *FRACTIONS)] == [7, 1, 2]

    def test_sizes_n485(self):
        assert ([len(rows) for rows in split_dataset(self.build(485), 3, *FRACTIONS)]
                == [339, 48, 98])

    @given(st.integers(10, 300), st.integers(0, 2**32 - 1),
           st.floats(0.05, 0.9), st.floats(0.0, 0.9))
    def test_partition_property(self, n, seed, train_frac, val_frac):
        assume(train_frac + val_frac < 1.0)
        parts = split_dataset(self.build(n), seed, train_frac, val_frac)
        assert len(parts) == 3
        for rows in parts:
            assert rows.dtype.kind == "i"
            assert (np.diff(rows) > 0).all()
        assert sorted(np.concatenate(parts).tolist()) == list(range(n))
        assert len(parts[0]) == int(np.floor(train_frac * n))
        assert len(parts[1]) == int(np.floor(val_frac * n))

    def test_deterministic(self):
        ds = self.build(50)
        same = zip(split_dataset(ds, 7, *FRACTIONS), split_dataset(ds, 7, *FRACTIONS))
        assert all(np.array_equal(a, b) for a, b in same)
        other = zip(split_dataset(ds, 7, *FRACTIONS), split_dataset(ds, 8, *FRACTIONS))
        assert not all(np.array_equal(a, b) for a, b in other)

    def test_too_small(self):
        with pytest.raises(DatasetTooSmallError):
            split_dataset(self.build(9), 0, *FRACTIONS)


class TestTruncate30Day:
    def test_examples(self):
        after = truncate_30day(Labels([10.0, 30.0, 31.0, 400.0], [True, True, True, False]))
        assert after.times.tolist() == [10.0, 30.0, 30.0, 30.0]
        assert after.events.tolist() == [True, True, False, False]  # a day-30 death stays

    def test_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            event, time = bool(rng.random() < 0.5), float(rng.uniform(0, 120))
            out = truncate_30day(Labels([time], [event]))
            out_time, out_event = out.times[0], out.events[0]
            assert out_time <= time
            assert out_time <= 30.0
            if not event:
                assert not out_event  # censoring is never upgraded to an event
            if time <= 30.0:
                assert (out_time, out_event) == (time, event)


class TestLabelArrays:
    def test_round_trip(self):
        labels = Labels([3.0, 7.5], [True, False])
        assert_array_equal(labels.times, [3.0, 7.5])
        assert_array_equal(labels.events, [True, False])
        assert labels.events.dtype == bool and labels.times.dtype == float
        assert len(labels) == 2

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_times_a_label_could_not_hold(self, bad):
        with pytest.raises(ValueError, match=f"^time_days must be finite and >= 0, got {bad}$"):
            Labels([1.0, bad], [True, False])
        with pytest.raises(MismatchedLengthsError):
            Labels([1.0, 2.0], [True])

    def test_arrays_are_read_only_copies(self):
        times, events = np.array([2.0, 1.0]), np.array([True, False])
        labels = Labels(times, events)
        times[0], events[0] = 9.0, False
        assert labels.times.tolist() == [2.0, 1.0] and labels.events.tolist() == [True, False]
        with pytest.raises(ValueError):
            labels.times[0] = 0.0

    def test_take_and_the_shared_table(self):
        labels = Labels([5.0, 1.0, 3.0], [True, False, True])
        part = labels.take(np.array([2, 0]))
        assert part.times.tolist() == [3.0, 5.0] and part.events.tolist() == [True, True]
        assert labels.take(np.array([True, False, True])).times.tolist() == [5.0, 3.0]
        assert labels.table is labels.table  # built once
        assert_array_equal(labels.table.event_times, [3.0, 5.0])


# --- the column path against the record path ---------------------------------


@st.composite
def cohort_csvs(draw):
    """Rows of a clinical CSV with missing cells (at a rate drawn per file),
    times tied on a few levels or 0, and, now and then, no events at all,
    so that a split may hold no events."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(10, 40))
    missing = rnd.choice([0.0, 0.1, 0.3, 0.6])
    event_rate = rnd.choice([0.0, 0.05, 0.4, 1.0])
    levels = rnd.choice([[0.0], [0.0, 1.0, 30.0], [5.0, 30.0, 31.0, 60.0], None])
    measures = {"age": (18.0, 95.0), "heart_rate": (60.0, 140.0), "systolic_bp": (80.0, 160.0),
                "respiratory_rate": (10.0, 40.0), "temperature_c": (35.0, 38.0),
                "o2_sat": (80.0, 100.0)}

    def row(k):
        cells = {"patient_id": f"Q{k}",
                 "event": "1" if rnd.random() < event_rate else "0",
                 "time_days": repr(rnd.choice(levels) if levels else rnd.uniform(0.0, 90.0)),
                 "sex": rnd.choice(["M", "F"]),
                 "rv_dysfunction": rnd.choice(["0", "1"])}
        for name, (lo, hi) in measures.items():
            cells[name] = repr(round(rnd.uniform(lo, hi), rnd.choice([0, 1, 2])))
        for name in ("altered_mental_status", "cancer", "heart_failure", "chronic_lung_disease"):
            cells[name] = "1" if rnd.random() < 0.3 else "0"
        for name in CLINICAL_COLUMNS[1:12]:
            if rnd.random() < missing:
                cells[name] = ""
        return [cells[c] for c in HEADER]

    return [row(k) for k in range(n)], draw(st.integers(0, 2**32))


class TestColumnsMatchRecords:
    @settings(max_examples=120)
    @given(cohort_csvs())
    def test_study_inputs_equal_the_record_path(self, case):
        # split, imputation constants, filled values, model inputs, PESI and
        # labels, full and truncated, are the record path's exactly
        rows, seed = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_clinical(Path(tmp) / "c.csv", rows)
            ds = ingest_clinical(path)
            rec = records.ingest_clinical(path)
        split = split_dataset(ds, seed, *FRACTIONS)
        want_split = records.split_dataset(rec, seed, *FRACTIONS)
        want_ids = (want_split.train_ids, want_split.val_ids, want_split.test_ids)
        # each split's rows are the record path's patients, in dataset order
        for rows, ids in zip(split, want_ids):
            members = set(ids)
            assert [ds.patient_ids[i] for i in rows] == [r.patient_id for r in rec.records
                                                         if r.patient_id in members]

        stats, error = outcome(compute_imputation_stats, ds, split[0])
        want_stats, want_error = outcome(records.compute_imputation_stats, rec,
                                         want_split.train_ids)
        assert error == want_error
        if error is not None:
            return
        assert stats == want_stats
        for k, v in want_stats.binary_medians.items():
            assert type(stats.binary_medians[k]) is type(v)
        filled = apply_imputation(ds, stats)
        rec = records.apply_imputation(rec, want_stats)
        assert filled.imputation is stats
        assert same_bits(filled.values, np.array([records.values_row(r.clinical)
                                                  for r in rec.records]))
        assert same_bits(clinical_matrix(filled), records.clinical_matrix(rec))
        assert same_bits(pesi_scores(filled), records.pesi_scores(rec))
        assert same_bits(impute_missing(ds, split[0]).values, filled.values)

        for split_rows, ids in zip(split, want_ids):
            members = set(ids)
            want = [r.label for r in rec.records if r.patient_id in members]
            for labels, want_labels in ((ds.labels.take(split_rows), want),
                                        (truncate_30day(ds.labels.take(split_rows)),
                                         records.truncate_30day(want))):
                assert records.label_list(labels) == want_labels
                assert same_bits(labels.times, np.array([lab.time_days for lab in want_labels],
                                                        dtype=float))


class TestEventTable:
    def test_hand_cohort(self):
        # sorted: (1,d) (2,c) (2,d) (2,d) (4,c) (5,d)
        table = EventTable([2, 5, 1, 2, 4, 2], [True, True, True, False, False, True])
        assert_array_equal(table.order, [2, 0, 3, 5, 4, 1])
        assert_array_equal(table.event_times, [1.0, 2.0, 5.0])
        assert_array_equal(table.risk_start, [0, 1, 5])
        assert_array_equal(table.at_risk, [6, 5, 1])
        assert_array_equal(table.deaths, [1, 2, 1])
        assert [(groups.tolist(), deaths.tolist()) for groups, deaths in table.tie_blocks] == [
            ([0, 2], [[0], [5]]),  # one death at times 1 and 5
            ([1], [[1, 3]]),       # two at time 2
        ]
        at_risk, deaths = table.subgroup_counts([True, False, False, True, True, False])
        assert_array_equal(at_risk, [3, 3, 0])  # subjects 0, 3, 4: times 2, 2, 4
        assert_array_equal(deaths, [0, 1, 0])

    def test_all_censored_has_no_event_times(self):
        table = EventTable([3.0, 1.0], [False, False])
        assert table.event_times.size == table.deaths.size == table.at_risk.size == 0
        assert table.tie_blocks == ()
        at_risk, deaths = table.subgroup_counts([True, False])
        assert at_risk.size == deaths.size == 0

    @settings(max_examples=200)
    @given(survival_arrays(max_n=30), st.lists(st.booleans(), min_size=30, max_size=30))
    def test_matches_definition_at_every_event_time(self, data, flags):
        times, events = data
        member = np.array(flags[: times.size])
        table = EventTable(times, events)
        assert_array_equal(table.order, np.argsort(times, kind="stable"))
        t, e = table.times, table.events
        assert_array_equal(table.event_times, np.unique(times[events]))
        rows = {}  # event time index -> its row of death positions
        for groups, deaths in table.tie_blocks:
            assert deaths.flags.c_contiguous
            assert deaths.shape[0] == groups.size
            rows.update(zip(groups.tolist(), deaths))
        assert sum(groups.size for groups, _ in table.tie_blocks) == len(rows)
        assert sorted(rows) == list(range(table.event_times.size))
        sizes = [deaths.shape[1] for _, deaths in table.tie_blocks]
        assert sizes == sorted(set(sizes))
        sub_at_risk, sub_deaths = table.subgroup_counts(member)
        m = member[table.order]
        for g, v in enumerate(table.event_times):
            risk_set = np.flatnonzero(t >= v)
            dead = np.flatnonzero((t == v) & e)
            assert table.risk_start[g] == risk_set[0]
            assert table.at_risk[g] == risk_set.size
            assert table.deaths[g] == dead.size
            assert_array_equal(rows[g], dead)  # so each death is in exactly one row
            assert sub_at_risk[g] == m[risk_set].sum()
            assert sub_deaths[g] == m[dead].sum()

    @settings(max_examples=200)
    @given(survival_arrays(max_n=40))
    def test_run_lengths_match_unique_oracle(self, data):
        # the table reads its event times as runs of the sorted death times;
        # np.unique, which sorts them again, gives the same arrays
        times, events = data
        table = EventTable(times, events)
        order = np.argsort(times, kind="stable")
        event_times, death_start, deaths = np.unique(times[order][events[order]],
                                                     return_index=True, return_counts=True)
        risk_start = np.searchsorted(times[order], event_times, side="left")
        want = dict(event_times=event_times, death_start=death_start, deaths=deaths,
                    risk_start=risk_start, at_risk=times.size - risk_start)
        for name, expected in want.items():
            got = getattr(table, name)
            assert got.dtype == expected.dtype, name
            assert np.array_equal(got, expected), name


# few distinct values, so that ties are common, with 0.0 and -0.0 (equal,
# with different bits), the infinities and NaN
TIED = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e308, -1e308, np.inf, -np.inf, np.nan])
SAMPLES = st.lists(TIED | st.floats(-1e6, 1e6), min_size=1, max_size=41)


class TestOrderStatistics:
    """``median``, ``percentiles`` and ``sorted_unique`` give numpy's
    floats bit for bit without importing ``numpy.ma``."""

    @settings(max_examples=400, deadline=None)
    @given(SAMPLES)
    def test_median_is_numpys(self, values):
        # the values and all but the last: one odd length and one even
        for a in (np.array(values), np.array(values[:-1])):
            if a.size:
                with np.errstate(over="ignore", invalid="ignore"):
                    assert same_bits(np.float64(median(a)), np.float64(np.median(a)))

    @settings(max_examples=400, deadline=None)
    @given(SAMPLES, st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4))
    # numpy's 50th percentile here is -0.0; one read off the sorted values is 0.0
    @example([0.0, -0.0, -0.0, -1.0], [50.0])
    def test_percentiles_are_numpys(self, values, q):
        a = np.array(values)
        for qs in ([2.5, 97.5], q):
            with np.errstate(over="ignore", invalid="ignore"):
                assert same_bits(percentiles(a, qs), np.percentile(a, qs))
        assert same_bits(a, np.array(values))  # the input is not reordered

    @settings(max_examples=400, deadline=None)
    @given(SAMPLES | st.lists(st.integers(-3, 3), max_size=40))
    def test_sorted_unique_is_numpys(self, values):
        a = np.array(values)
        assert same_bits(sorted_unique(a), np.unique(a))
