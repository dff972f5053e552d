import numpy as np
import pytest
from numpy.testing import assert_array_equal

from survfuse.dataset import (
    attach_imaging,
    imaging_matrix,
    impute_missing,
    ingest_clinical,
    ingest_features,
)
from survfuse.errors import InvalidSpecError
from survfuse.metrics import c_index
from survfuse.synthetic import write_study_csvs

from defaults import cohort_plan
from generators import GeneratorSpec, ModalityPlan, gen_cox_linear, gen_multimodal


class TestGenCoxLinear:
    def test_deterministic(self):
        spec = GeneratorSpec(n=50, beta_true=(1.0, -0.5), seed=7)
        x1, l1, r1 = gen_cox_linear(spec)
        x2, l2, r2 = gen_cox_linear(spec)
        assert_array_equal(x1, x2)
        assert_array_equal(r1, r2)
        assert_array_equal(l1.times, l2.times)
        assert_array_equal(l1.events, l2.events)
        x3, _, _ = gen_cox_linear(GeneratorSpec(n=50, beta_true=(1.0, -0.5), seed=8))
        assert not np.array_equal(x1, x3)

    def test_shapes_and_risk(self):
        spec = GeneratorSpec(n=30, beta_true=(0.5, -1.0, 2.0), seed=1)
        x, labels, risk = gen_cox_linear(spec)
        assert x.shape == (30, 3)
        assert len(labels) == 30
        assert_array_equal(risk, x @ np.array([0.5, -1.0, 2.0]))

    def test_times_positive(self):
        _, labels, _ = gen_cox_linear(GeneratorSpec(n=500, beta_true=(1.0,), seed=2))
        assert (labels.times > 0).all()

    def test_zero_censor_rate_means_all_events(self):
        _, labels, _ = gen_cox_linear(
            GeneratorSpec(n=200, beta_true=(1.0,), censor_rate=0.0, seed=3))
        assert labels.events.all()

    def test_censor_rate_controls_censoring_fraction(self):
        # matched exponential clocks censor about half the cohort
        spec = GeneratorSpec(n=4000, beta_true=(0.0,), baseline_rate=0.1,
                             censor_rate=0.1, seed=4)
        _, labels, _ = gen_cox_linear(spec)
        frac = np.mean(labels.events)
        assert 0.45 < frac < 0.55

    def test_doubling_rate_halves_median_time(self):
        kw = dict(n=5000, beta_true=(0.0,), censor_rate=0.0, seed=5)
        _, slow, _ = gen_cox_linear(GeneratorSpec(baseline_rate=0.05, **kw))
        _, fast, _ = gen_cox_linear(GeneratorSpec(baseline_rate=0.10, **kw))
        med_slow = np.median(slow.times)
        med_fast = np.median(fast.times)
        assert abs(med_slow / med_fast - 2.0) < 0.2

    def test_high_risk_dies_sooner(self):
        x, labels, risk = gen_cox_linear(
            GeneratorSpec(n=2000, beta_true=(1.5,), censor_rate=0.0, seed=6))
        assert c_index(risk, labels) > 0.7

    def test_requires_beta(self):
        spec = GeneratorSpec(n=10, beta_true=None, modality_plan=ModalityPlan())
        with pytest.raises(InvalidSpecError):
            gen_cox_linear(spec)


class TestGeneratorSpecValidation:
    def test_both_beta_and_plan(self):
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(beta_true=(1.0,), modality_plan=ModalityPlan())

    def test_neither_beta_nor_plan(self):
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(beta_true=None, modality_plan=None)

    @pytest.mark.parametrize("kw", [
        dict(n=0, beta_true=(1.0,)),
        dict(beta_true=()),
        dict(baseline_rate=0.0, beta_true=(1.0,)),
        dict(censor_rate=-0.1, beta_true=(1.0,)),
        dict(beta_true=None, modality_plan=ModalityPlan(clin_dim=0)),
        dict(beta_true=None, modality_plan=ModalityPlan(noise_scale=-1.0)),
    ])
    def test_bad_parameters(self, kw):
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(**kw)


class TestGenMultimodal:
    def test_deterministic(self):
        spec = GeneratorSpec(n=40, beta_true=None, modality_plan=ModalityPlan(), seed=9)
        a = gen_multimodal(spec)
        b = gen_multimodal(spec)
        assert_array_equal(a.x_clin, b.x_clin)
        assert_array_equal(a.x_img, b.x_img)
        assert_array_equal(a.labels.times, b.labels.times)
        assert_array_equal(a.labels.events, b.labels.events)

    def test_shapes(self):
        plan = ModalityPlan(clin_dim=3, img_dim=6)
        data = gen_multimodal(GeneratorSpec(n=25, beta_true=None, modality_plan=plan, seed=1))
        assert data.x_clin.shape == (25, 3)
        assert data.x_img.shape == (25, 6)
        assert data.clin_view.shape == (25,)
        assert len(data.labels) == 25

    def test_requires_plan(self):
        with pytest.raises(InvalidSpecError):
            gen_multimodal(GeneratorSpec(n=10, beta_true=(1.0,)))

    def test_dead_modality_carries_no_signal(self):
        # hazard driven only by the clinical latent: the imaging view
        # should rank survival no better than a coin flip
        plan = ModalityPlan(latent_weights=(1.0, 0.0), noise_scale=0.3)
        data = gen_multimodal(GeneratorSpec(n=2000, beta_true=None,
                                            modality_plan=plan, seed=12))
        c_img = c_index(data.img_view, data.labels)
        c_clin = c_index(data.clin_view, data.labels)
        assert abs(c_img - 0.5) < 0.05
        assert c_clin > 0.65

    def test_views_are_complementary(self):
        # with equal loadings the sum of views beats either alone
        plan = ModalityPlan(latent_weights=(1.0, 1.0), noise_scale=0.3)
        data = gen_multimodal(GeneratorSpec(n=2000, beta_true=None,
                                            modality_plan=plan, seed=13))
        c_clin = c_index(data.clin_view, data.labels)
        c_img = c_index(data.img_view, data.labels)
        c_both = c_index(data.clin_view + data.img_view, data.labels)
        assert c_both >= c_clin + 0.03
        assert c_both >= c_img + 0.03

    def test_true_risk_is_ceiling(self):
        plan = ModalityPlan(noise_scale=0.5)
        data = gen_multimodal(GeneratorSpec(n=1500, beta_true=None,
                                            modality_plan=plan, seed=14))
        c_true = c_index(data.true_risk, data.labels)
        c_sum = c_index(data.clin_view + data.img_view, data.labels)
        assert c_true >= c_sum


class TestWriteStudyCsvs:
    def test_row_counts_and_rerun_identical(self, tmp_path):
        plan = cohort_plan(n=100, seed=3)
        clin = tmp_path / "clinical.csv"
        feat = tmp_path / "features.csv"
        n = write_study_csvs(plan, clin, feat)
        assert n == 100
        assert len(clin.read_text().splitlines()) == 101  # header + one row each
        first_clin = clin.read_bytes()
        first_feat = feat.read_bytes()
        write_study_csvs(plan, clin, feat)
        assert clin.read_bytes() == first_clin
        assert feat.read_bytes() == first_feat

    def test_ingests_through_standard_path(self, tmp_path):
        plan = cohort_plan(n=60, seed=4, img_dim=8, max_acquisitions=3)
        clin = tmp_path / "clinical.csv"
        feat = tmp_path / "features.csv"
        write_study_csvs(plan, clin, feat)
        ds = ingest_clinical(clin)
        assert len(ds) == 60
        patient_ids, _, features = ingest_features(feat)
        assert features.shape == (patient_ids.size, 8)
        _, acquisitions = np.unique(patient_ids, return_counts=True)
        assert all(1 <= k <= 3 for k in acquisitions)
        ds = attach_imaging(ds, feat)
        assert imaging_matrix(ds).shape == (60, 8)  # every patient has features
        assert not np.isnan(ds.rv_dysfunction).any()

    def test_missing_cells_flow_through_imputation(self, tmp_path):
        plan = cohort_plan(n=80, seed=5, missing_rate=0.15)
        clin = tmp_path / "clinical.csv"
        feat = tmp_path / "features.csv"
        write_study_csvs(plan, clin, feat)
        ds = ingest_clinical(clin)
        # age, cancer, hr_ge_110 and o2_sat_lt_90
        holes = int(np.isnan(ds.values[:, [0, 2, 5, 10]]).sum())
        assert holes > 0
        full = impute_missing(ds, np.arange(len(ds)))
        assert not np.isnan(full.values).any()

    def test_seed_changes_cohort(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        fa = tmp_path / "fa.csv"
        fb = tmp_path / "fb.csv"
        write_study_csvs(cohort_plan(n=30, seed=1), a, fa)
        write_study_csvs(cohort_plan(n=30, seed=2), b, fb)
        assert a.read_bytes() != b.read_bytes()

    def test_deaths_exist_inside_30_days(self, tmp_path):
        # the default rates put some deaths before day 30, which the
        # short-horizon analysis depends on
        clin = tmp_path / "clinical.csv"
        feat = tmp_path / "features.csv"
        write_study_csvs(cohort_plan(n=400, seed=6), clin, feat)
        ds = ingest_clinical(clin)
        early = int((ds.labels.events & (ds.labels.times <= 30.0)).sum())
        assert early >= 10

    @pytest.mark.parametrize("kw", [
        dict(n=5),
        dict(img_dim=0),
        dict(baseline_rate=0.0),
        dict(missing_rate=1.0),
        dict(max_acquisitions=0),
    ])
    def test_plan_validation(self, kw):
        with pytest.raises(InvalidSpecError):
            cohort_plan(**kw)
