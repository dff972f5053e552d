import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from survfuse.artifacts import (
    MODEL_KINDS,
    SCHEMA_VERSION,
    FusionBundle,
    ModelArtifact,
    file_fingerprint,
    load_model,
    save_model,
)
from survfuse.cox_linear import CoxModel
from survfuse.dataset import (
    BINARY_FIELDS,
    Dataset,
    ImputationStats,
    Labels,
    clinical_matrix,
    compute_imputation_stats,
    imaging_matrix,
    impute_missing,
)
from survfuse.deep_survival import MlpSurvModel, forward, init_mlp, train
from survfuse.errors import IoError, SchemaMismatchError, UnknownModelKindError
from survfuse.fusion import FusionModel, fit_fusion, predict_fused
from survfuse.kinds import ARTIFACTS
from survfuse import cli, rsf
from survfuse.pesi import pesi_scores
from survfuse.rsf import fit_forest, predict_risk

from defaults import FUSION_OPTIONS, rsf_options, train_options
from strategies import assert_same_trees, make_dataset, same_bits, survival_arrays, values_row


def surv_data(rng, n, d, beta):
    X = rng.standard_normal((n, d))
    risk = X @ np.asarray(beta)
    times = rng.exponential(np.exp(-risk))
    events = rng.random(n) < 0.8
    if not events.any():
        events[0] = True
    return X, Labels(times, events)


@pytest.fixture(scope="module")
def fitted():
    """One of each component, trained once and reused across round trips."""
    rng = np.random.default_rng(140)
    Xc, labels = surv_data(rng, 90, 3, (1.5, -1.0, 0.0))
    Xi = rng.standard_normal((90, 5))
    mlp_c, _ = train(init_mlp(3, (4,), seed=1, modality_tag="clin"), Xc, labels,
                     options=train_options(learning_rate=0.05, epochs=40))
    mlp_i, _ = train(init_mlp(5, (4,), seed=2, modality_tag="img"), Xi, labels,
                     options=train_options(learning_rate=0.05, epochs=40))
    forest_c = fit_forest(Xc, labels, rsf_options(n_trees=4, min_leaf_size=8, seed=3))
    forest_i = fit_forest(Xi, labels, rsf_options(n_trees=4, min_leaf_size=8, seed=4))
    sc, si = forward(mlp_c, Xc), forward(mlp_i, Xi)
    fusion_mm = fit_fusion({"clin": sc, "img": si}, labels, FUSION_OPTIONS)
    pesi_scores = rng.integers(40, 140, size=90).astype(float)
    fusion_pesi = fit_fusion({"clin": sc, "img": si, "pesi": pesi_scores}, labels,
                             FUSION_OPTIONS)
    fusion_rsf = fit_fusion(
        {"rsf_clin": predict_risk(forest_c, Xc), "rsf_img": predict_risk(forest_i, Xi)},
        labels, FUSION_OPTIONS)
    return dict(Xc=Xc, Xi=Xi, labels=labels, pesi=pesi_scores,
                mlp_c=mlp_c, mlp_i=mlp_i, forest_c=forest_c, forest_i=forest_i,
                fusion_mm=fusion_mm, fusion_pesi=fusion_pesi, fusion_rsf=fusion_rsf)


class TestRoundTrips:
    @pytest.mark.parametrize("kind,key,xkey", [
        ("deep_clinical", "mlp_c", "Xc"),
        ("deep_imaging", "mlp_i", "Xi"),
    ])
    def test_mlp_predictions_bit_exact(self, fitted, tmp_path, kind, key, xkey):
        path = tmp_path / f"{kind}.json"
        save_model(path, kind, fitted[key], seed=9, data_fingerprint="abc")
        art = load_model(path)
        assert art.kind == kind
        assert art.metadata == {"seed": 9, "data_fingerprint": "abc"}
        assert_array_equal(forward(art.model, fitted[xkey]),
                           forward(fitted[key], fitted[xkey]))
        assert art.model.modality_tag == fitted[key].modality_tag

    @pytest.mark.parametrize("kind,key,xkey", [
        ("rsf_clinical", "forest_c", "Xc"),
        ("rsf_imaging", "forest_i", "Xi"),
    ])
    def test_forest_predictions_bit_exact(self, fitted, tmp_path, kind, key, xkey):
        path = tmp_path / f"{kind}.json"
        save_model(path, kind, fitted[key])
        art = load_model(path)
        assert_array_equal(predict_risk(art.model, fitted[xkey]),
                           predict_risk(fitted[key], fitted[xkey]))
        # leaf markers come back as NaN thresholds
        tree = art.model.trees[0]
        assert np.isnan(tree.threshold[tree.feature < 0]).all()

    @settings(max_examples=25)
    @given(survival_arrays(min_n=4, max_n=40), st.sampled_from(["continuous", "tied"]),
           st.integers(1, 5), st.integers(2, 3), st.integers(0, 2**16))
    def test_pooled_forest_survives_save_load(self, data, features, n_trees, cpus, seed):
        # trees grown in worker processes come back through pickle; a dtype
        # or layout it changed would show in the artifact or its predictions
        t, e = data
        assume(e.any())
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((t.size, 3))
        if features == "tied":
            X = np.round(X)
        opts = rsf_options(n_trees=n_trees, min_leaf_size=int(rng.integers(1, t.size // 2 + 1)),
                           seed=seed)
        with mock.patch.object(rsf, "_usable_cpus", return_value=cpus):
            model = fit_forest(X, Labels(t, e), opts)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rsf_clinical.json"
            save_model(path, "rsf_clinical", model)
            loaded = load_model(path).model
        assert np.array_equal(loaded.event_time_grid, model.event_time_grid)
        assert (loaded.n_features, loaded.options) == (model.n_features, model.options)
        assert_same_trees(loaded.trees, model.trees)
        Q = np.vstack([X, rng.standard_normal((10, 3))])
        assert np.array_equal(predict_risk(loaded, Q), predict_risk(model, Q))

    def test_fusion_multimodal_bit_exact(self, fitted, tmp_path):
        path = tmp_path / "mm.json"
        bundle = FusionBundle(fusion=fitted["fusion_mm"],
                              components={"clin": fitted["mlp_c"], "img": fitted["mlp_i"]})
        save_model(path, "fusion_multimodal", bundle)
        art = load_model(path)
        sc = forward(art.model.components["clin"], fitted["Xc"])
        si = forward(art.model.components["img"], fitted["Xi"])
        want = predict_fused(fitted["fusion_mm"],
                             {"clin": forward(fitted["mlp_c"], fitted["Xc"]),
                              "img": forward(fitted["mlp_i"], fitted["Xi"])})
        assert_array_equal(predict_fused(art.model.fusion, {"clin": sc, "img": si}), want)

    def test_fusion_pesi_keeps_three_sources(self, fitted, tmp_path):
        path = tmp_path / "pf.json"
        bundle = FusionBundle(fusion=fitted["fusion_pesi"],
                              components={"clin": fitted["mlp_c"], "img": fitted["mlp_i"]})
        save_model(path, "fusion_pesi_fused", bundle)
        art = load_model(path)
        assert art.model.fusion.sources == ("clin", "img", "pesi")
        got = predict_fused(art.model.fusion, {
            "clin": forward(art.model.components["clin"], fitted["Xc"]),
            "img": forward(art.model.components["img"], fitted["Xi"]),
            "pesi": fitted["pesi"],
        })
        want = predict_fused(fitted["fusion_pesi"], {
            "clin": forward(fitted["mlp_c"], fitted["Xc"]),
            "img": forward(fitted["mlp_i"], fitted["Xi"]),
            "pesi": fitted["pesi"],
        })
        assert_array_equal(got, want)

    def test_fusion_rsf_mixed_components(self, fitted, tmp_path):
        path = tmp_path / "fr.json"
        bundle = FusionBundle(fusion=fitted["fusion_rsf"],
                              components={"rsf_clin": fitted["forest_c"],
                                          "rsf_img": fitted["forest_i"]})
        save_model(path, "fusion_rsf", bundle)
        art = load_model(path)
        got = predict_fused(art.model.fusion, {
            "rsf_clin": predict_risk(art.model.components["rsf_clin"], fitted["Xc"]),
            "rsf_img": predict_risk(art.model.components["rsf_img"], fitted["Xi"]),
        })
        want = predict_fused(fitted["fusion_rsf"], {
            "rsf_clin": predict_risk(fitted["forest_c"], fitted["Xc"]),
            "rsf_img": predict_risk(fitted["forest_i"], fitted["Xi"]),
        })
        assert_array_equal(got, want)

    def test_imputation_stats_round_trip(self, fitted, tmp_path):
        ds = make_dataset([values_row(60.0 + i, male=i % 2 == 0, o2_sat_lt_90=i % 3 == 0)
                           for i in range(5)])
        stats = compute_imputation_stats(ds, np.arange(len(ds)))
        path = tmp_path / "with_imp.json"
        save_model(path, "deep_clinical", fitted["mlp_c"], imputation=stats)
        art = load_model(path)
        assert art.imputation == stats

    def test_save_is_deterministic(self, fitted, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(p1, "deep_clinical", fitted["mlp_c"], seed=1)
        save_model(p2, "deep_clinical", fitted["mlp_c"], seed=1)
        assert p1.read_bytes() == p2.read_bytes()


def scoring_cohort(rng, n, d):
    """``n`` imputed patients, each with ``d`` imaging features."""
    rows, events, times, features = [], [], [], []
    for _ in range(n):
        rows.append([float(rng.uniform(20, 95)), *(rng.random(len(BINARY_FIELDS)) < 0.3)])
        events.append(rng.random() < 0.7)
        times.append(float(rng.integers(1, 60)))
        features.append(rng.standard_normal(d))
    ds = Dataset(patient_ids=tuple(f"P{i}" for i in range(n)),
                 values=np.array(rows, dtype=float), labels=Labels(times, events),
                 rv_dysfunction=np.full(n, np.nan),
                 imaging=(np.arange(n), np.array(features)))
    return impute_missing(ds, np.arange(len(ds)))


def random_mlp(rng, input_dim, hidden, tag, scale):
    """Weights and biases drawn at ``scale``; biases are not left at zero."""
    dims = (input_dim, *hidden, 1)
    return MlpSurvModel(
        layer_dims=dims,
        weights=[scale * rng.standard_normal((a, b)) for a, b in zip(dims[:-1], dims[1:])],
        biases=[scale * rng.standard_normal(b) for b in dims[1:]],
        seed=int(rng.integers(2**31)), modality_tag=tag)


def random_fusion(rng, sources):
    k = len(sources)
    cox = CoxModel(beta=rng.standard_normal(k), covariate_names=sources,
                   baseline_times=np.sort(rng.uniform(0.0, 60.0, 4)),
                   baseline_cumhaz=np.cumsum(rng.random(4)),
                   log_likelihood=float(-rng.exponential()), converged=bool(rng.random() < 0.5),
                   n_iterations=int(rng.integers(1, 30)), tie_method="efron")
    return FusionModel(cox=cox, sources=sources, means=rng.standard_normal(k),
                       stds=rng.uniform(0.1, 3.0, k))


def assert_scores_survive(kind, model, ds):
    """Saved and loaded, the artifact scores ``ds`` exactly as the model did,
    and saved again it is the same bytes: one line of compact JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        save_model(first, kind, model, imputation=ds.imputation, seed=3,
                   data_fingerprint="ab" * 32)
        loaded = load_model(first)
        save_model(second, kind, loaded.model, imputation=loaded.imputation, **loaded.metadata)
        data = first.read_bytes()
        assert second.read_bytes() == data
    assert data.endswith(b"}\n") and data.count(b"\n") == 1
    assert data == (json.dumps(json.loads(data), sort_keys=True) + "\n").encode()
    assert loaded.kind == kind and loaded.imputation == ds.imputation
    points = pesi_scores(ds)
    want = cli._score_records(ModelArtifact(kind, model, ds.imputation, {}), ds, points)
    assert same_bits(cli._score_records(loaded, ds, points), want)
    return loaded.model


def random_model(rng, kind, ds, hidden, scale, n_trees):
    """A model of ``kind`` that scores ``ds``: random MLP weights and fusion
    heads, forests fitted to ``ds`` with ``n_trees`` trees."""
    d = ds.imaging[1].shape[1]
    if kind in ("deep_clinical", "deep_imaging"):
        tag, width = ("clin", 1 + len(BINARY_FIELDS)) if kind == "deep_clinical" else ("img", d)
        return random_mlp(rng, width, hidden, tag, scale)
    if kind in ("rsf_clinical", "rsf_imaging", "fusion_rsf"):
        labels = ds.labels
        opts = rsf_options(n_trees=n_trees,
                           min_leaf_size=int(rng.integers(1, len(labels) // 2 + 1)),
                           seed=int(rng.integers(2**16)))
        X_img = imaging_matrix(ds)
        with mock.patch.object(rsf, "_usable_cpus", return_value=1):
            if kind != "fusion_rsf":
                return fit_forest(clinical_matrix(ds) if kind == "rsf_clinical" else X_img,
                                  labels, opts)
            components = {"rsf_clin": fit_forest(clinical_matrix(ds), labels, opts),
                          "rsf_img": fit_forest(X_img, labels, opts)}
    else:
        components = {"clin": random_mlp(rng, 1 + len(BINARY_FIELDS), hidden, "clin", scale),
                      "img": random_mlp(rng, d, hidden, "img", scale)}
    sources = (*components, "pesi") if kind == "fusion_pesi_fused" else tuple(components)
    return FusionBundle(fusion=random_fusion(rng, sources), components=components)


_HIDDEN = st.lists(st.integers(1, 6), max_size=2)
_SCALES = st.sampled_from([1e-3, 1.0, 30.0])


class TestScoreRoundTrips:
    @settings(max_examples=30)
    @given(st.sampled_from(["deep_clinical", "deep_imaging"]), st.integers(1, 30),
           st.integers(1, 5), _HIDDEN, _SCALES, st.integers(0, 2**16))
    def test_mlp_artifact_scores_survive_save_load(self, kind, n, d, hidden, scale, seed):
        rng = np.random.default_rng(seed)
        ds = scoring_cohort(rng, n, d)
        model = random_model(rng, kind, ds, hidden, scale, 1)
        loaded = assert_scores_survive(kind, model, ds)
        assert (loaded.layer_dims, loaded.seed, loaded.modality_tag) == \
            (model.layer_dims, model.seed, model.modality_tag)
        for got, want in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert same_bits(got, want)

    @settings(max_examples=30)
    @given(st.sampled_from(["fusion_multimodal", "fusion_pesi_fused", "fusion_rsf"]),
           st.integers(4, 30), st.integers(1, 5), _HIDDEN, _SCALES, st.integers(1, 3),
           st.integers(0, 2**16))
    def test_fusion_bundle_scores_survive_save_load(self, kind, n, d, hidden, scale,
                                                    n_trees, seed):
        # the Cox fusion head and every embedded component come back exactly
        rng = np.random.default_rng(seed)
        ds = scoring_cohort(rng, n, d)
        assume(kind != "fusion_rsf" or ds.labels.events.any())
        bundle = random_model(rng, kind, ds, hidden, scale, n_trees)
        loaded = assert_scores_survive(kind, bundle, ds)
        fusion, want = loaded.fusion, bundle.fusion
        assert fusion.sources == want.sources and list(loaded.components) == list(bundle.components)
        assert same_bits(fusion.means, want.means) and same_bits(fusion.stds, want.stds)
        for name in ("beta", "baseline_times", "baseline_cumhaz"):
            assert same_bits(getattr(fusion.cox, name), getattr(want.cox, name))
        for name in ("covariate_names", "log_likelihood", "converged", "n_iterations",
                     "tie_method"):
            assert getattr(fusion.cox, name) == getattr(want.cox, name)


class TestResave:
    @settings(max_examples=40)
    @given(st.sampled_from(MODEL_KINDS), st.integers(4, 30), st.integers(1, 5), _HIDDEN,
           _SCALES, st.integers(1, 3), st.integers(0, 2**16))
    def test_save_load_save_gives_the_same_bytes(self, kind, n, d, hidden, scale, n_trees,
                                                 seed):
        rng = np.random.default_rng(seed)
        ds = scoring_cohort(rng, n, d)
        assume("rsf" not in kind or ds.labels.events.any())
        assert_scores_survive(kind, random_model(rng, kind, ds, hidden, scale, n_trees), ds)


# a schema-1 fusion_rsf artifact (3 trees per forest) written before the
# forests dropped their leaf curves, fitted with `run --models rsf_fused` and
# config {"rsf": {"n_trees": 3}} on `generate --n 60 --seed 1`, and the score
# CSV that code wrote for that cohort
V1_ARTIFACT = Path(__file__).parent / "data" / "fusion_rsf_v1.json"
V1_SCORES = Path(__file__).parent / "data" / "fusion_rsf_v1_scores.csv"


class TestSchemaVersions:
    def test_v1_artifact_scores_as_it_did(self, tmp_path):
        assert json.loads(V1_ARTIFACT.read_text())["schema_version"] == 1
        cohort, out = tmp_path / "cohort", tmp_path / "scores.csv"
        assert cli.main(["generate", "--n", "60", "--seed", "1", "--out", str(cohort)]) == 0
        assert cli.main(["score", "--model", str(V1_ARTIFACT),
                         "--clinical", str(cohort / "clinical.csv"),
                         "--features", str(cohort / "features.csv"), "--out", str(out)]) == 0
        assert out.read_bytes() == V1_SCORES.read_bytes()

    def test_v1_resaves_as_v2_without_leaf_curves(self, tmp_path):
        v1 = load_model(V1_ARTIFACT)
        path = tmp_path / "v2.json"
        save_model(path, v1.kind, v1.model, imputation=v1.imputation, **v1.metadata)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION == 2
        for entry in doc["model"]["components"].values():
            for tree in entry["model"]["trees"]:
                assert sorted(tree) == ["feature", "leaf_mortality", "leaf_slot", "left",
                                        "right", "threshold"]
        v2 = load_model(path)
        assert (v2.kind, v2.imputation, v2.metadata) == (v1.kind, v1.imputation, v1.metadata)
        for tag, forest in v1.model.components.items():
            again = v2.model.components[tag]
            assert same_bits(again.event_time_grid, forest.event_time_grid)
            assert (again.n_features, again.options) == (forest.n_features, forest.options)
            assert_same_trees(again.trees, forest.trees)
        for name in ("means", "stds"):
            assert same_bits(getattr(v2.model.fusion, name), getattr(v1.model.fusion, name))

    @pytest.mark.parametrize("version", [0, 3, "2", True, None])
    def test_unsupported_versions_are_rejected(self, tmp_path, version):
        doc = json.loads(V1_ARTIFACT.read_text())
        doc["schema_version"] = version
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match=r"schema_version .*\(supported: 1, 2\)"):
            load_model(path)


class TestValidation:
    def test_unknown_kind_on_save(self, fitted, tmp_path):
        with pytest.raises(UnknownModelKindError):
            save_model(tmp_path / "x.json", "xgboost", fitted["mlp_c"])

    def test_wrong_model_type_for_kind(self, fitted, tmp_path):
        with pytest.raises(SchemaMismatchError, match="MlpSurvModel"):
            save_model(tmp_path / "x.json", "deep_clinical", fitted["forest_c"])
        with pytest.raises(SchemaMismatchError, match="ForestModel"):
            save_model(tmp_path / "x.json", "rsf_clinical", fitted["mlp_c"])
        with pytest.raises(SchemaMismatchError, match="FusionBundle"):
            save_model(tmp_path / "x.json", "fusion_rsf", fitted["mlp_c"])

    @pytest.mark.parametrize("components, message", [
        ({"clin": "mlp_c", "img": "forest_i"},
         "component 'img' must be a MlpSurvModel, got ForestModel"),
        ({"clin": "mlp_c"}, r"components \['clin'\] are not the fusion's fitted sources"),
        ({"clin": "mlp_c", "img": "mlp_i", "rsf_clin": "forest_c"},
         r"components \['clin', 'img', 'rsf_clin'\] are not the fusion's fitted sources"),
        ({"clin": "mlp_c", "img": "mlp_i", "pesi": "mlp_c"},
         r"components \['clin', 'img', 'pesi'\] are not the fusion's fitted sources"),
        ({"clin": "mlp_i", "img": "mlp_c"},
         "the network held under 'clin' has modality_tag 'img'"),
    ])
    def test_fusion_components_are_its_fitted_sources(self, fitted, tmp_path, components,
                                                      message):
        # each component is encoded by its tag's type, and a fusion saves the
        # models of its fitted sources, no more and no fewer
        bundle = FusionBundle(fusion=fitted["fusion_mm"],
                              components={tag: fitted[key] for tag, key in components.items()})
        with pytest.raises(SchemaMismatchError, match=message):
            save_model(tmp_path / "x.json", "fusion_multimodal", bundle)
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("kind, key, other", [("deep_clinical", "mlp_i", "deep_imaging"),
                                                  ("deep_imaging", "mlp_c", "deep_clinical")])
    def test_network_under_another_tag_is_refused(self, fitted, tmp_path, kind, key, other):
        # a network artifact's model stores the tag the artifact holds
        message = (f"the network held under {ARTIFACTS[kind]!r} has modality_tag "
                   f"{fitted[key].modality_tag!r}")
        with pytest.raises(SchemaMismatchError, match=message):
            save_model(tmp_path / "x.json", kind, fitted[key])
        assert not (tmp_path / "x.json").exists()
        path = tmp_path / "relabeled.json"
        save_model(path, other, fitted[key])
        doc = json.loads(path.read_text())
        doc["kind"] = kind
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match=f"malformed {kind} body: {message}"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_model(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaMismatchError, match="not valid JSON"):
            load_model(path)

    def test_schema_version_mismatch(self, fitted, tmp_path):
        path = tmp_path / "old.json"
        save_model(path, "deep_clinical", fitted["mlp_c"])
        doc = json.loads(path.read_text())
        doc["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match="schema_version"):
            load_model(path)

    def test_unknown_kind_on_load(self, fitted, tmp_path):
        path = tmp_path / "odd.json"
        save_model(path, "deep_clinical", fitted["mlp_c"])
        doc = json.loads(path.read_text())
        doc["kind"] = "perceptron"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnknownModelKindError):
            load_model(path)

    def test_missing_model_field(self, fitted, tmp_path):
        path = tmp_path / "gut.json"
        save_model(path, "deep_clinical", fitted["mlp_c"])
        doc = json.loads(path.read_text())
        del doc["model"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match="model"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("age_std", 0.0), ("age_std", -2.5), ("age_std", float("nan")), ("age_std", float("inf")),
        ("age_median", float("nan")), ("age_median", float("-inf")), ("age_median", -5.0),
        ("age_median", 0.0), ("age_mean", float("inf")),
    ])
    def test_rejects_age_constants_imputation_never_writes(self, fitted, tmp_path, field, value):
        # scoring with a zero std wrote NaN risks and exited 0 before this check
        path = tmp_path / "imp.json"
        stats = ImputationStats({f: False for f in BINARY_FIELDS}, 60.0, 61.0, 12.0)
        save_model(path, "deep_clinical", fitted["mlp_c"], imputation=stats)
        assert load_model(path).imputation == stats
        doc = json.loads(path.read_text())
        doc["imputation"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError,
                           match=f"has malformed imputation constants: {field} must be"):
            load_model(path)

    @pytest.mark.parametrize("change", ["extra", "missing", "renamed", "string", "number"])
    def test_rejects_binary_medians_imputation_never_writes(self, fitted, tmp_path, change):
        path = tmp_path / "imp.json"
        stats = ImputationStats({f: True for f in BINARY_FIELDS}, 60.0, 61.0, 12.0)
        save_model(path, "deep_clinical", fitted["mlp_c"], imputation=stats)
        doc = json.loads(path.read_text())
        medians = doc["imputation"]["binary_medians"]
        if change in ("string", "number"):
            medians["cancer"] = "false" if change == "string" else 0
            message = "binary_medians must be true or false"
        else:
            message = "binary_medians must have the keys male, "
            if change != "extra":
                del medians["cancer"]
            if change != "missing":
                medians["smoker"] = False
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match=message):
            load_model(path)

    def test_malformed_body(self, fitted, tmp_path):
        path = tmp_path / "body.json"
        save_model(path, "deep_clinical", fitted["mlp_c"])
        doc = json.loads(path.read_text())
        del doc["model"]["weights"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match="malformed"):
            load_model(path)

    def test_kinds_tuple_is_stable(self):
        assert MODEL_KINDS == (
            "deep_clinical", "deep_imaging", "rsf_clinical", "rsf_imaging",
            "fusion_multimodal", "fusion_pesi_fused", "fusion_rsf",
        )


class TestFileFingerprint:
    def test_depends_on_content_and_order(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("alpha")
        b.write_text("beta")
        assert file_fingerprint(a) != file_fingerprint(b)
        assert file_fingerprint(a, b) != file_fingerprint(b, a)
        assert file_fingerprint(a, b) == file_fingerprint(a, b)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            file_fingerprint(tmp_path / "nope.csv")
