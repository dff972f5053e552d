import csv
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from survfuse import dataset, feature_csv
from survfuse.dataset import (
    BINARY_FIELDS,
    CLINICAL_COLUMNS,
    ClinicalVariables,
    Dataset,
    EventTable,
    ImputationStats,
    PatientRecord,
    SurvivalLabel,
    apply_imputation,
    attach_imaging,
    clinical_matrix,
    compute_imputation_stats,
    impute_missing,
    ingest_clinical,
    ingest_features,
    label_arrays,
    split_dataset,
    truncate_30day,
)
from survfuse.errors import (
    AllMissingColumnError,
    DatasetTooSmallError,
    DuplicatePatientIdError,
    MalformedRowError,
    MissingColumnError,
    SurvfuseError,
    UnimputedRecordError,
)

from strategies import outcome, same_bits, survival_arrays

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


def make_record(pid, event, time, age=60.0, **flags):
    values = {f: flags.get(f, False) for f in BINARY_FIELDS}
    return PatientRecord(
        patient_id=pid,
        clinical=ClinicalVariables(age_years=age, **values),
        label=SurvivalLabel(event=event, time_days=time),
    )


class TestIngestClinical:
    def test_happy_path(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", event="1", time_days="12.5"),
            base_row("P2", sex="F", age="71.2", cancer="1"),
        ])
        ds = ingest_clinical(path)
        assert ds.patient_ids == ("P1", "P2")
        assert ds.records[0].label == SurvivalLabel(event=True, time_days=12.5)
        assert ds.records[0].clinical.male is True
        assert ds.records[1].clinical.male is False
        assert ds.records[1].clinical.cancer is True
        assert ds.records[1].clinical.age_years == 71.2
        assert ds.feature_dim is None

    def test_vitals_thresholded_at_ingest(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", heart_rate="110", systolic_bp="100",
                     respiratory_rate="30", temperature_c="36.0", o2_sat="90"),
            base_row("P2", heart_rate="109.9", systolic_bp="99.9",
                     respiratory_rate="29.9", temperature_c="35.99", o2_sat="89.9"),
        ])
        ds = ingest_clinical(path)
        c1, c2 = ds.records[0].clinical, ds.records[1].clinical
        # boundary values: hr >= 110, sbp < 100, rr >= 30, temp < 36, o2 < 90
        assert (c1.hr_ge_110, c1.sbp_lt_100, c1.rr_ge_30, c1.temp_lt_36c, c1.o2_sat_lt_90) == \
            (True, False, True, False, False)
        assert (c2.hr_ge_110, c2.sbp_lt_100, c2.rr_ge_30, c2.temp_lt_36c, c2.o2_sat_lt_90) == \
            (False, True, False, True, True)

    def test_missing_cells_become_missing_values(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", age="", sex="", cancer="", heart_rate=""),
        ])
        c = ingest_clinical(path).records[0].clinical
        assert c.age_years is None
        assert c.male is None
        assert c.cancer is None
        assert c.hr_ge_110 is None
        assert not c.complete
        assert c.missing_mask["cancer"] is True
        assert c.missing_mask["heart_failure"] is False

    def test_unparseable_covariate_is_missing_not_fatal(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", cancer="maybe", heart_rate="fast"),
        ])
        c = ingest_clinical(path).records[0].clinical
        assert c.cancer is None
        assert c.hr_ge_110 is None

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
        assert ds.records[0].rv_dysfunction is None

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
        # under a renamed header the message names the column in the file
        header = [f"{h}_x" if h == column else h for h in HEADER]
        path = write_clinical(tmp_path / "r.csv", rows, header=header)
        with pytest.raises(MalformedRowError) as info:
            ingest_clinical(path, schema={column: f"{column}_x"})
        assert info.value.reason.startswith(f"{column}_x must be a finite number")

    def test_schema_remap(self, tmp_path):
        header = ["id" if c == "patient_id" else c for c in HEADER]
        path = write_clinical(tmp_path / "c.csv", [base_row("P9")], header=header)
        ds = ingest_clinical(path, schema={"patient_id": "id"})
        assert ds.patient_ids == ("P9",)

    def test_sex_tokens(self, tmp_path):
        rows = [base_row(f"P{i}", sex=s) for i, s in enumerate(
            ["M", "male", "F", "female", "1", "0"])]
        path = write_clinical(tmp_path / "c.csv", rows)
        males = [r.clinical.male for r in ingest_clinical(path).records]
        assert males == [True, True, False, False, True, False]


# --- the per-row read path, kept as the oracle of the array path ---------


_TRUE = frozenset({"1", "true", "t", "yes", "y"})
_FALSE = frozenset({"0", "false", "f", "no", "n"})


def oracle_ingest_clinical(path, schema=None, debug=lambda *args: None):
    """One ``DictReader`` row and three dataclasses per patient; ``debug``
    takes the arguments of each DEBUG log call."""

    def parse_bool(token, row_index, column):
        token = token.strip().lower()
        if not token:
            return None
        if token in _TRUE:
            return True
        if token in _FALSE:
            return False
        debug("row %d: unparseable boolean %r in %s, marked missing", row_index, token, column)
        return None

    def parse_measure(token, row_index, column):
        value = _oracle_parse_float(token)
        if value is not None and not np.isfinite(value):
            raise MalformedRowError(row_index,
                                    f"{column} must be a finite number, got {token.strip()!r}")
        return value

    def parse_sex(token):
        token = token.strip().lower()
        if token in {"m", "male"} | _TRUE:
            return True
        if token in {"f", "female"} | _FALSE:
            return False
        return None

    schema = schema or {}
    col = {name: schema.get(name, name) for name in CLINICAL_COLUMNS}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in CLINICAL_COLUMNS[:-1]:
            if col[name] not in header:
                raise MissingColumnError(f"clinical CSV is missing column {col[name]!r}")
        has_rv = col["rv_dysfunction"] in header
        records, seen = [], set()
        for i, row in enumerate(reader):
            def cell(name):
                return row.get(col[name]) or ""

            pid = cell("patient_id").strip()
            if not pid:
                raise MalformedRowError(i, "empty patient_id")
            if pid in seen:
                raise DuplicatePatientIdError(f"patient id {pid!r} appears more than once")
            seen.add(pid)
            event = parse_bool(cell("event"), i, "event")
            if event is None:
                raise MalformedRowError(i, "event must be a boolean")
            time_days = _oracle_parse_float(cell("time_days"))
            if time_days is None or not np.isfinite(time_days) or time_days < 0:
                raise MalformedRowError(i, "time_days must be a finite non-negative number")
            age = parse_measure(cell("age"), i, col["age"])
            if age is not None and age <= 0:
                raise MalformedRowError(i, f"age must be positive, got {age}")
            hr, sbp, rr, temp, o2 = (parse_measure(cell(name), i, col[name]) for name in (
                "heart_rate", "systolic_bp", "respiratory_rate", "temperature_c", "o2_sat"))
            clin = ClinicalVariables(
                age_years=age,
                male=parse_sex(cell("sex")),
                cancer=parse_bool(cell("cancer"), i, "cancer"),
                heart_failure=parse_bool(cell("heart_failure"), i, "heart_failure"),
                chronic_lung_disease=parse_bool(cell("chronic_lung_disease"), i,
                                                "chronic_lung_disease"),
                hr_ge_110=None if hr is None else hr >= 110.0,
                sbp_lt_100=None if sbp is None else sbp < 100.0,
                rr_ge_30=None if rr is None else rr >= 30.0,
                temp_lt_36c=None if temp is None else temp < 36.0,
                altered_mental_status=parse_bool(cell("altered_mental_status"), i,
                                                 "altered_mental_status"),
                o2_sat_lt_90=None if o2 is None else o2 < 90.0,
            )
            rv = parse_bool(cell("rv_dysfunction"), i, "rv_dysfunction") if has_rv else None
            records.append(PatientRecord(patient_id=pid, clinical=clin,
                                         label=SurvivalLabel(event=event, time_days=time_days),
                                         rv_dysfunction=rv))
    return Dataset(records=tuple(records))


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
    """``(header, rows, schema)`` of a clinical CSV.

    The canonical columns, some renamed through ``schema``, shuffled, with
    extra columns or a repeated name; now and then ``rv_dysfunction`` or a
    required column is absent. 0-25 rows whose cells are those of
    ``base_row`` but, at two rates drawn per file, hold a token a row may
    hold (padded, mixed case, quoted, empty, unparseable) or one that makes
    the row faulty (an empty or repeated id, a bad event or time, a NaN,
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
    schema = {name: f"{name}_v2" for name in rnd.sample(columns, rnd.randint(0, 3))}
    extras = rnd.sample(["note", "age", "cancer", "patient_id", "event"], rnd.randint(0, 2))
    header = [schema.get(c, c) for c in columns] + extras
    rnd.shuffle(header)
    canonical = {schema.get(c, c): c for c in columns}
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
        cells = [cell(canonical.get(h), k) for h in header]
        if rnd.random() < odd_rate / 10:
            cells = cells[:rnd.randrange(len(cells))]
        elif rnd.random() < odd_rate / 10:
            cells.append("extra")
        return cells

    rows = [row(k) for k in range(rnd.randint(0, 25))]
    for _ in range(rnd.randint(0, 2)):
        rows.insert(rnd.randint(0, len(rows)), [])  # a blank line
    return header, rows, schema


# each clinical property reads every file with these blocks, the default included
CLINICAL_BLOCKS = (1, 3, 7, dataset._CLINICAL_BLOCK_ROWS)


class TestReadClinical:
    @settings(max_examples=300)
    @given(clinical_csvs())
    def test_matches_the_per_row_reader(self, case):
        # equal records and DEBUG logs, or the same error for the same row
        header, rows, schema = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write_rows(Path(tmp) / "c.csv", header, rows)
            want_logs = []
            want, want_error = outcome(
                lambda: oracle_ingest_clinical(path, schema, lambda *a: want_logs.append(a)))
            for block in CLINICAL_BLOCKS:
                with mock.patch.object(dataset, "_CLINICAL_BLOCK_ROWS", block), \
                        mock.patch.object(dataset.log, "debug") as debug:
                    got, error = outcome(ingest_clinical, path, schema)
                assert error == want_error
                assert [c.args for c in debug.call_args_list] == want_logs
                if error is None:
                    assert len(got) == len(want)
                    for a, b in zip(got.records, want.records):
                        assert a.patient_id == b.patient_id
                        assert repr(a.clinical) == repr(b.clinical)
                        assert repr(a.label) == repr(b.label)
                        assert repr(a.rv_dysfunction) == repr(b.rv_dysfunction)
                        assert a.imaging_features is None

    def test_columns(self, tmp_path):
        path = write_clinical(tmp_path / "c.csv", [
            base_row("P1", event="1", time_days="12.5", heart_rate="120", o2_sat=""),
            base_row("P2", sex="F", age="", cancer="yes", rv_dysfunction="x"),
        ])
        cols = dataset.read_clinical(path)
        assert cols.patient_ids == ["P1", "P2"]
        nan = np.nan
        assert_array_equal(cols.values, [
            [60.0, 1, 0, 0, 0, 1, 0, 0, 0, 0, nan],
            [nan, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        ])
        assert cols.events.dtype == bool and cols.events.tolist() == [True, False]
        assert cols.times.tolist() == [12.5, 100.0]
        assert_array_equal(cols.rv_dysfunction, [0.0, nan])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("")
        with pytest.raises(MissingColumnError, match="patient_id"):
            dataset.read_clinical(path)
        path.write_text(",".join(HEADER) + "\r\n")
        cols = dataset.read_clinical(path)
        assert cols.patient_ids == [] and cols.values.shape == (0, 11)

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
            want = outcome(oracle_ingest_clinical, path)[1]
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
            cols = dataset.read_clinical(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, peak
        assert cols.values.shape == (4000, 11)


def _oracle_parse_float(token):
    token = token.strip()
    if not token:
        return None
    try:
        return float(token)
    except ValueError:
        return None


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
            prob = _oracle_parse_float(row[idx["pe_probability"]])
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
    """``(each record's features or None, d, sorted ids absent from ds)``."""
    windows, d = oracle_ingest_features(path)
    unknown = sorted(set(windows) - set(ds.patient_ids))
    chosen = [oracle_aggregate_acquisitions(windows[r.patient_id])[1]
              if r.patient_id in windows else None for r in ds.records]
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
        ds = Dataset(records=(make_record("P1", True, 1.0),))
        return attach_imaging(ds, path).records[0].imaging_features

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
        assert ds.feature_dim == 3
        assert_array_equal(ds.records[0].imaging_features, [4.0, 5.0, 6.0])
        assert not ds.records[0].imaging_features.flags.writeable
        assert ds.records[1].imaging_features is None

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
        ds = Dataset(records=tuple(make_record(pid, True, 1.0) for pid in cohort))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_rows(Path(tmp) / "f.csv", header, rows)
            chosen, d, unknown = oracle_attach_imaging(ds, path)
            for block in FEATURE_BLOCKS:
                with mock.patch.object(feature_csv, "_FEATURE_BLOCK_ROWS", block), \
                        mock.patch.object(dataset.log, "warning") as warn:
                    out = attach_imaging(ds, path)
                assert out.feature_dim == d
                assert out.patient_ids == ds.patient_ids
                for rec, before, want in zip(out.records, ds.records, chosen):
                    assert rec.clinical is before.clinical and rec.label is before.label
                    if want is None:
                        assert rec.imaging_features is None
                    else:
                        assert same_bits(rec.imaging_features, want)
                        assert not rec.imaging_features.flags.writeable
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
    """A cohort with random missing values, and a reference id set that may
    name absent patients and holds one complete record, so that every
    column has an observed reference value."""
    n = draw(st.integers(1, 12))
    ref = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    missing_pct = draw(st.sampled_from([0, 20, 60, 95]))
    ages = st.one_of(st.integers(18, 95).map(float), st.floats(18.0, 100.0))
    records = []
    for i in range(n):
        values = {f: draw(st.booleans()) for f in BINARY_FIELDS}
        values["age_years"] = draw(ages)
        for field in values:
            if i != ref[0] and draw(st.integers(0, 99)) < missing_pct:
                values[field] = None
        records.append(PatientRecord(
            patient_id=f"P{i}",
            clinical=ClinicalVariables(**values),
            label=SurvivalLabel(event=bool(i % 2), time_days=10.0 + i),
        ))
    absent = draw(st.lists(st.sampled_from(["X0", "X1"]), max_size=2, unique=True))
    return Dataset(records=tuple(records)), [f"P{i}" for i in ref] + absent


class TestImputation:
    def build(self, ages, cancers):
        records = []
        for i, (age, cancer) in enumerate(zip(ages, cancers)):
            values = {f: False for f in BINARY_FIELDS}
            values["cancer"] = cancer
            records.append(PatientRecord(
                patient_id=f"P{i}",
                clinical=ClinicalVariables(age_years=age, **values),
                label=SurvivalLabel(event=bool(i % 2), time_days=10.0 + i),
            ))
        return Dataset(records=tuple(records))

    def test_binary_strict_majority(self):
        ds = self.build([50.0] * 4, [True, True, False, None])
        stats = compute_imputation_stats(ds, [f"P{i}" for i in range(4)])
        assert stats.binary_medians["cancer"] is True

    def test_binary_tie_imputes_false(self):
        ds = self.build([50.0] * 4, [True, False, None, None])
        stats = compute_imputation_stats(ds, [f"P{i}" for i in range(4)])
        assert stats.binary_medians["cancer"] is False

    def test_age_median_and_post_imputation_moments(self):
        # observed ages 40, 60 -> median 50; the missing one fills to 50,
        # so normalization sees (40, 60, 50): mean 50, std sqrt(200/3)
        ds = self.build([40.0, 60.0, None], [False, False, False])
        stats = compute_imputation_stats(ds, ["P0", "P1", "P2"])
        assert stats.age_median == 50.0
        assert stats.age_mean == 50.0
        assert_allclose(stats.age_std, np.sqrt(200.0 / 3.0), rtol=1e-15)

    def test_apply_only_touches_missing(self):
        ds = self.build([40.0, 60.0, None], [True, None, False])
        out = impute_missing(ds, ["P0", "P1", "P2"])
        assert out.records[0].clinical.age_years == 40.0
        assert out.records[2].clinical.age_years == 50.0
        assert out.records[1].clinical.cancer is False  # tie among (True, False)
        assert out.records[0].clinical.cancer is True

    @settings(max_examples=80)
    @given(imputation_cases())
    def test_idempotent(self, case):
        ds, ids = case
        once = impute_missing(ds, ids)
        twice = impute_missing(once, ids)
        assert all(r.clinical.complete for r in once.records)
        assert once.imputation == twice.imputation
        assert once.patient_ids == twice.patient_ids
        for a, b in zip(once.records, twice.records):
            assert a.clinical == b.clinical

    def test_all_missing_column(self):
        ds = self.build([50.0, 52.0], [None, None])
        with pytest.raises(AllMissingColumnError, match="cancer"):
            compute_imputation_stats(ds, ["P0", "P1"])

    def test_reference_set_restricts_stats(self):
        ds = self.build([40.0, 60.0, 90.0, 90.0], [False] * 4)
        stats = compute_imputation_stats(ds, ["P0", "P1"])
        assert stats.age_median == 50.0

    def test_empty_reference(self):
        ds = self.build([50.0], [False])
        with pytest.raises(DatasetTooSmallError):
            compute_imputation_stats(ds, ["NOPE"])


def oracle_clinical_feature_vector(record, age_norm_params):
    """One record's model input, one field at a time."""
    c = record.clinical
    if not c.complete:
        missing = [f for f, m in c.missing_mask.items() if m]
        raise UnimputedRecordError(
            f"patient {record.patient_id}: missing {', '.join(missing)}; impute first"
        )
    mean, std = age_norm_params
    vec = np.empty(1 + len(BINARY_FIELDS), dtype=float)
    vec[0] = (c.age_years - mean) / std
    for k, field in enumerate(BINARY_FIELDS, start=1):
        vec[k] = 1.0 if getattr(c, field) else 0.0
    return vec


def clinical_feature_vector(record, age_norm_params):
    """11-element model input of one record: normalized age then the ten
    binary flags, by ``clinical_matrix``."""
    mean, std = age_norm_params
    stats = ImputationStats(binary_medians={}, age_median=0.0, age_mean=mean, age_std=std)
    return clinical_matrix(Dataset(records=(record,), imputation=stats))[0]


def oracle_clinical_matrix(ds, ids=None):
    wanted = None if ids is None else set(ids)
    records = [r for r in ds.records if wanted is None or r.patient_id in wanted]
    return np.array([oracle_clinical_feature_vector(r, ds.age_norm_params) for r in records])


@st.composite
def clinical_matrix_cases(draw):
    """An imputed-looking dataset (some records may still lack a value) with
    arbitrary normalization constants, and an id subset or None."""
    n = draw(st.integers(0, 15))
    missing_pct = draw(st.sampled_from([0, 0, 5, 30]))
    ages = st.one_of(st.integers(1, 110), st.floats(0.5, 120.0), st.just(float("nan")))
    records = []
    for i in range(n):
        values = {f: draw(st.booleans()) for f in BINARY_FIELDS}
        values["age_years"] = draw(ages)
        for field in values:
            if draw(st.integers(0, 99)) < missing_pct:
                values[field] = None
        records.append(PatientRecord(
            patient_id=f"P{i}",
            clinical=ClinicalVariables(**values),
            label=SurvivalLabel(event=True, time_days=1.0),
        ))
    stats = ImputationStats(
        binary_medians={f: False for f in BINARY_FIELDS}, age_median=60.0,
        age_mean=draw(st.floats(-200.0, 200.0)), age_std=draw(st.floats(1e-3, 1e3)))
    ids = draw(st.none() | st.lists(st.sampled_from([f"P{i}" for i in range(n)] + ["X0"]),
                                    max_size=n + 1))
    return Dataset(records=tuple(records), imputation=stats), ids


class TestClinicalMatrix:
    @settings(max_examples=100)
    @given(clinical_matrix_cases())
    def test_matches_per_record_vectors(self, case):
        ds, ids = case
        got, error = outcome(clinical_matrix, ds, ids)
        want, want_error = outcome(oracle_clinical_matrix, ds, ids)
        assert error == want_error
        if error is None:
            assert same_bits(got, want)
        for record in ds.records:
            got, error = outcome(clinical_feature_vector, record, ds.age_norm_params)
            want, want_error = outcome(oracle_clinical_feature_vector, record, ds.age_norm_params)
            assert error == want_error
            assert error is not None or same_bits(got, want)

    def test_feature_vector_layout(self):
        rec = make_record("P1", True, 5.0, age=70.0, cancer=True, hr_ge_110=True)
        vec = clinical_feature_vector(rec, (60.0, 10.0))
        assert vec.shape == (11,)
        assert vec[0] == 1.0  # (70 - 60) / 10
        by_name = dict(zip(BINARY_FIELDS, vec[1:]))
        assert by_name["cancer"] == 1.0
        assert by_name["hr_ge_110"] == 1.0
        assert by_name["male"] == 0.0

    def test_incomplete_record_raises(self):
        values = {f: False for f in BINARY_FIELDS}
        values["cancer"] = None
        rec = PatientRecord(
            patient_id="P1",
            clinical=ClinicalVariables(age_years=50.0, **values),
            label=SurvivalLabel(event=False, time_days=1.0),
        )
        with pytest.raises(UnimputedRecordError, match="cancer"):
            clinical_feature_vector(rec, (0.0, 1.0))

    def test_training_age_column_is_centered(self):
        rng = np.random.default_rng(11)
        records = []
        for i in range(40):
            age = None if rng.random() < 0.25 else float(rng.uniform(30, 90))
            values = {f: bool(rng.random() < 0.3) for f in BINARY_FIELDS}
            records.append(PatientRecord(
                patient_id=f"P{i}",
                clinical=ClinicalVariables(age_years=age, **values),
                label=SurvivalLabel(event=True, time_days=float(i + 1)),
            ))
        ds = Dataset(records=tuple(records))
        train_ids = [f"P{i}" for i in range(28)]
        ds = impute_missing(ds, train_ids)
        mat = clinical_matrix(ds, train_ids)
        assert mat.shape == (28, 11)
        assert abs(mat[:, 0].mean()) < 1e-9
        assert set(np.unique(mat[:, 1:])) <= {0.0, 1.0}

    def test_matrix_requires_imputation(self):
        ds = Dataset(records=(make_record("P1", True, 1.0),))
        with pytest.raises(UnimputedRecordError):
            clinical_matrix(ds)


class TestSplitDataset:
    def build(self, n):
        return Dataset(records=tuple(make_record(f"P{i}", True, float(i + 1)) for i in range(n)))

    def test_sizes_n10(self):
        s = split_dataset(self.build(10), seed=0)
        assert (len(s.train_ids), len(s.val_ids), len(s.test_ids)) == (7, 1, 2)

    def test_sizes_n485(self):
        s = split_dataset(self.build(485), seed=3)
        assert (len(s.train_ids), len(s.val_ids), len(s.test_ids)) == (339, 48, 98)

    def test_partition_property(self):
        for n in (10, 23, 100):
            ds = self.build(n)
            for seed in range(5):
                s = split_dataset(ds, seed)
                groups = [set(s.train_ids), set(s.val_ids), set(s.test_ids)]
                assert groups[0] | groups[1] | groups[2] == set(ds.patient_ids)
                assert not (groups[0] & groups[1])
                assert not (groups[0] & groups[2])
                assert not (groups[1] & groups[2])

    def test_deterministic(self):
        ds = self.build(50)
        assert split_dataset(ds, 7) == split_dataset(ds, 7)
        assert split_dataset(ds, 7) != split_dataset(ds, 8)

    def test_too_small(self):
        with pytest.raises(DatasetTooSmallError):
            split_dataset(self.build(9), seed=0)


class TestTruncate30Day:
    def test_examples(self):
        before = [SurvivalLabel(True, 10.0), SurvivalLabel(True, 30.0),
                  SurvivalLabel(True, 31.0), SurvivalLabel(False, 400.0)]
        after = truncate_30day(before)
        assert after[0] == SurvivalLabel(True, 10.0)
        assert after[1] == SurvivalLabel(True, 30.0)  # a day-30 death stays a death
        assert after[2] == SurvivalLabel(False, 30.0)
        assert after[3] == SurvivalLabel(False, 30.0)

    def test_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            lab = SurvivalLabel(event=bool(rng.random() < 0.5),
                                time_days=float(rng.uniform(0, 120)))
            out = truncate_30day([lab])[0]
            assert out.time_days <= lab.time_days
            assert out.time_days <= 30.0
            if not lab.event:
                assert not out.event  # censoring is never upgraded to an event
            if lab.time_days <= 30.0:
                assert out == lab


class TestLabelArrays:
    def test_round_trip(self):
        labels = [SurvivalLabel(True, 3.0), SurvivalLabel(False, 7.5)]
        times, events = label_arrays(labels)
        assert_array_equal(times, [3.0, 7.5])
        assert_array_equal(events, [True, False])
        assert events.dtype == bool


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
