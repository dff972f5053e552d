import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from survfuse.cox_linear import FitOptions
from survfuse.dataset import Labels
from survfuse.errors import (
    ExtraModalityError,
    MismatchedLengthsError,
    MissingModalityError,
    SchemaMismatchError,
)
from survfuse.deep_survival import forward, init_mlp
from survfuse.fusion import (
    CANONICAL_ORDER,
    FusionModel,
    fit_fusion,
    predict_fused,
    score_component,
)
from survfuse.kinds import TAGS
from survfuse.metrics import c_index
from survfuse.rsf import fit_forest, predict_risk

from defaults import FUSION_OPTIONS, rsf_options


def two_source_cohort(rng, n=150):
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    risk = a + 0.7 * b
    times = rng.exponential(np.exp(-risk))
    events = rng.random(n) < 0.85
    if not events.any():
        events[0] = True
    return a, b, Labels(times, events)


class TestScoreComponent:
    def test_canonical_order_is_the_tag_table(self):
        assert CANONICAL_ORDER == tuple(TAGS) == ("clin", "img", "pesi", "rsf_clin", "rsf_img")

    def test_scores_by_the_tag_type(self):
        rng = np.random.default_rng(86)
        X = rng.standard_normal((40, 3))
        _, _, labels = two_source_cohort(rng, n=40)
        net = init_mlp(3, (4,), seed=1, modality_tag="img")
        forest = fit_forest(X, labels, rsf_options(n_trees=3, min_leaf_size=5, seed=2))
        assert_array_equal(score_component("img", net, X), forward(net, X))
        assert_array_equal(score_component("rsf_img", forest, X), predict_risk(forest, X))

    @pytest.mark.parametrize("tag", ["clin", "rsf_img"])
    def test_width_mismatch_names_both_widths(self, tag):
        rng = np.random.default_rng(87)
        X = rng.standard_normal((40, 3))
        _, _, labels = two_source_cohort(rng, n=40)
        model = (init_mlp(3, (4,), seed=1, modality_tag=tag) if TAGS[tag][0] == "mlp"
                 else fit_forest(X, labels, rsf_options(n_trees=2, min_leaf_size=5, seed=2)))
        width = "expects 3 inputs" if TAGS[tag][0] == "mlp" else "has 3 features"
        with pytest.raises(SchemaMismatchError,
                           match=re.escape(f"the {tag} component does not fit the input: "
                                           f"model {width}, X has shape (40, 5)")):
            score_component(tag, model, rng.standard_normal((40, 5)))


class TestFitFusion:
    def test_sources_claim_canonical_order(self):
        rng = np.random.default_rng(80)
        a, b, labels = two_source_cohort(rng)
        model = fit_fusion({"img": b, "clin": a}, labels, FUSION_OPTIONS)
        assert model.sources == ("clin", "img")

    def test_insertion_order_is_irrelevant(self):
        rng = np.random.default_rng(81)
        a, b, labels = two_source_cohort(rng)
        m1 = fit_fusion({"clin": a, "img": b}, labels, FUSION_OPTIONS)
        m2 = fit_fusion({"img": b, "clin": a}, labels, FUSION_OPTIONS)
        assert_array_equal(m1.cox.beta, m2.cox.beta)
        assert_array_equal(m1.means, m2.means)
        q = {"clin": np.array([0.3]), "img": np.array([-0.2])}
        assert_array_equal(predict_fused(m1, q), predict_fused(m2, q))

    def test_unknown_tag(self):
        rng = np.random.default_rng(82)
        a, _, labels = two_source_cohort(rng)
        with pytest.raises(ValueError, match="unknown modality"):
            fit_fusion({"audio": a}, labels, FUSION_OPTIONS)

    def test_modality_count_bounds(self):
        rng = np.random.default_rng(83)
        a, b, labels = two_source_cohort(rng)
        with pytest.raises(ValueError, match="1-3"):
            fit_fusion({}, labels, FUSION_OPTIONS)
        four = dict(zip(CANONICAL_ORDER[:4], [a, b, a, b]))
        with pytest.raises(ValueError, match="1-3"):
            fit_fusion(four, labels, FUSION_OPTIONS)

    def test_length_mismatch(self):
        rng = np.random.default_rng(84)
        a, b, labels = two_source_cohort(rng)
        with pytest.raises(MismatchedLengthsError, match="img"):
            fit_fusion({"clin": a, "img": b[:-3]}, labels, FUSION_OPTIONS)

    def test_constant_modality_degrades_gracefully(self):
        rng = np.random.default_rng(85)
        a, _, labels = two_source_cohort(rng)
        model = fit_fusion({"clin": a, "pesi": np.full(len(labels), 42.0)}, labels,
                           FUSION_OPTIONS)
        assert model.stds[model.sources.index("pesi")] == 1.0
        k = model.sources.index("pesi")
        assert abs(model.cox.beta[k]) < 1e-6
        # and the informative column still carries the signal
        assert model.cox.beta[model.sources.index("clin")] > 0.1

    def test_deterministic(self):
        rng = np.random.default_rng(86)
        a, b, labels = two_source_cohort(rng)
        m1 = fit_fusion({"clin": a, "img": b}, labels, FUSION_OPTIONS)
        m2 = fit_fusion({"clin": a.copy(), "img": b.copy()}, labels, FUSION_OPTIONS)
        assert_array_equal(m1.cox.beta, m2.cox.beta)


class TestPredictFused:
    def test_one_row_and_batch_agree(self):
        rng = np.random.default_rng(87)
        a, b, labels = two_source_cohort(rng)
        model = fit_fusion({"clin": a, "img": b}, labels, FUSION_OPTIONS)
        out = predict_fused(model, {"clin": a[:5], "img": b[:5]})
        assert out.shape == (5,)
        for k in range(5):
            single = predict_fused(model, {"clin": a[k:k + 1], "img": b[k:k + 1]})
            assert single.shape == (1,)
            # batch and one-row matmul may round differently in the last ulp
            assert_allclose(single, out[k:k + 1], rtol=1e-14)

    def test_equals_cox_on_standardized_columns(self):
        rng = np.random.default_rng(88)
        a, b, labels = two_source_cohort(rng)
        model = fit_fusion({"clin": a, "img": b}, labels, FUSION_OPTIONS)
        z = np.column_stack([a, b])
        z = (z - model.means) / model.stds
        assert_allclose(predict_fused(model, {"clin": a, "img": b}),
                        z @ model.cox.beta, rtol=1e-12)

    def test_missing_modality(self):
        rng = np.random.default_rng(89)
        a, b, labels = two_source_cohort(rng)
        model = fit_fusion({"clin": a, "img": b}, labels, FUSION_OPTIONS)
        with pytest.raises(MissingModalityError, match="img"):
            predict_fused(model, {"clin": a[:1]})

    def test_extra_modality(self):
        rng = np.random.default_rng(90)
        a, b, labels = two_source_cohort(rng)
        model = fit_fusion({"clin": a}, labels, FUSION_OPTIONS)
        with pytest.raises(ExtraModalityError, match="img"):
            predict_fused(model, {"clin": a[:1], "img": b[:1]})

    def test_vector_length_mismatch(self):
        rng = np.random.default_rng(91)
        a, b, labels = two_source_cohort(rng)
        model = fit_fusion({"clin": a, "img": b}, labels, FUSION_OPTIONS)
        with pytest.raises(MismatchedLengthsError):
            predict_fused(model, {"clin": a[:4], "img": b[:5]})

    def test_monotone_in_positive_coefficient_source(self):
        rng = np.random.default_rng(92)
        a, b, labels = two_source_cohort(rng)
        model = fit_fusion({"clin": a, "img": b}, labels, FUSION_OPTIONS)
        assert model.cox.beta[0] > 0
        lo, hi = predict_fused(model, {"clin": np.array([-1.0, 1.0]), "img": np.zeros(2)})
        assert hi > lo


class TestFusionImproves:
    def test_combining_complementary_scores_beats_either(self):
        # two noisy views of disjoint risk components: the fused predictor
        # should rank held-out subjects better than either view alone
        rng = np.random.default_rng(93)
        n = 600
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        risk = z1 + z2
        times = rng.exponential(np.exp(-risk))
        events = rng.random(n) < 0.9
        labels = Labels(times, events)
        view_a = z1 + 0.4 * rng.standard_normal(n)
        view_b = z2 + 0.4 * rng.standard_normal(n)
        fit, hold = slice(0, 400), slice(400, None)
        model = fit_fusion({"clin": view_a[fit], "img": view_b[fit]}, labels.take(fit),
                           FUSION_OPTIONS)
        fused = predict_fused(model, {"clin": view_a[hold], "img": view_b[hold]})
        c_fused = c_index(fused, labels.take(hold))
        c_a = c_index(view_a[hold], labels.take(hold))
        c_b = c_index(view_b[hold], labels.take(hold))
        assert c_fused > max(c_a, c_b) + 0.02
