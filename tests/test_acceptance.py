"""End-to-end acceptance checks.

Each test verifies one numbered criterion and reports a PASS/FAIL line in
the terminal summary (see conftest). The oracles here are deliberately
independent re-derivations: direct summation for the partial likelihood,
pairwise loops for concordance, full-enumeration Wilcoxon, and explicit
hypergeometric arithmetic for the log-rank test.
"""

import json
import math
import time

import numpy as np
import pytest

from survfuse.analysis import rv_factor_analysis
from survfuse.cli import main
from survfuse.cox_linear import fit_cox
from survfuse.dataset import Labels, truncate_30day
from survfuse.deep_survival import _loss_and_gradients, init_mlp, sigmoid
from survfuse.errors import NoComparablePairsError
from survfuse.fusion import fit_fusion, predict_fused
from survfuse.metrics import (
    c_index,
    km_curve,
    logrank_test,
    nri,
    wilcoxon_signed_rank,
)
from survfuse.pesi import pesi_points, risk_class_for
from survfuse.rsf import fit_forest, predict_risk

from defaults import DEFAULTS, FUSION_OPTIONS, rsf_options
from generators import GeneratorSpec, ModalityPlan, gen_cox_linear, gen_multimodal
from strategies import partial_loglik_eta


# --- independent oracles -----------------------------------------------------


def direct_loglik(beta, X, times, events, tie_method):
    """Textbook risk-set summation: no shift trick, no vectorization."""
    eta = [float(np.dot(X[i], beta)) for i in range(len(times))]
    ll = 0.0
    for t in sorted({times[i] for i in range(len(times)) if events[i]}):
        dead = [i for i in range(len(times)) if times[i] == t and events[i]]
        risk = [i for i in range(len(times)) if times[i] >= t]
        sum_risk = sum(math.exp(eta[i]) for i in risk)
        sum_dead = sum(math.exp(eta[i]) for i in dead)
        ll += sum(eta[i] for i in dead)
        d = len(dead)
        if tie_method == "breslow":
            ll -= d * math.log(sum_risk)
        else:
            for j in range(d):
                ll -= math.log(sum_risk - (j / d) * sum_dead)
    return ll


def brute_c_index(scores, labels):
    conc = ties = pairs = 0
    times, events = labels.times.tolist(), labels.events.tolist()
    for i, (ti, ei) in enumerate(zip(times, events)):
        for j, tj in enumerate(times):
            if i == j or not ei or not (ti < tj):
                continue
            pairs += 1
            if scores[i] > scores[j]:
                conc += 1
            elif scores[i] == scores[j]:
                ties += 1
    if pairs == 0:
        raise NoComparablePairsError("none")
    return (conc + 0.5 * ties) / pairs


def midranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    v = np.asarray(values, dtype=float)[order]
    i = 0
    while i < len(v):
        j = i
        while j < len(v) and v[j] == v[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    return ranks


def enumerate_wilcoxon(diffs):
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = len(d)
    ranks2 = np.rint(2.0 * midranks(np.abs(d))).astype(int)
    w_obs = int(ranks2[d > 0].sum())
    geq = leq = 0
    for mask in range(2 ** n):
        w = sum(ranks2[i] for i in range(n) if (mask >> i) & 1)
        geq += w >= w_obs
        leq += w <= w_obs
    return min(1.0, 2.0 * min(geq / 2 ** n, leq / 2 ** n))


# --- criteria ----------------------------------------------------------------


class TestAcceptance:
    def test_01_cox_partial_likelihood_oracle(self, acceptance):
        rng = np.random.default_rng(900)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(4, 11))
            p = int(rng.integers(1, 4))
            X = rng.standard_normal((n, p))
            times = rng.integers(1, 5, size=n).astype(float)  # integer times force ties
            events = rng.random(n) < 0.7
            if not events.any():
                events[rng.integers(0, n)] = True
            beta = rng.standard_normal(p)
            labels = Labels(times, events)
            for tie_method in ("efron", "breslow"):
                got = partial_loglik_eta(X @ beta, labels, tie_method)[0]
                want = direct_loglik(beta, X, times, events, tie_method)
                worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
        elapsed = time.perf_counter() - start
        acceptance(1, worst < 1e-10 and elapsed < 1.0,
                   f"max rel err {worst:.2e} over 50 instances x 2 tie methods "
                   f"in {elapsed:.2f}s")

    def test_02_cox_coefficient_recovery(self, acceptance):
        start = time.perf_counter()
        spec = GeneratorSpec(n=2000, beta_true=(1.0, -0.5), baseline_rate=0.1,
                             censor_rate=0.05, seed=7)
        X, labels, _ = gen_cox_linear(spec)
        model = fit_cox(X, labels)
        elapsed = time.perf_counter() - start
        err = np.abs(model.beta - np.array([1.0, -0.5]))
        acceptance(2, bool(err.max() <= 0.1) and elapsed < 5.0,
                   f"beta_hat {model.beta.round(4).tolist()} vs (1.0, -0.5), "
                   f"max dev {err.max():.4f} in {elapsed:.2f}s")

    def test_03_gradient_integrity(self, acceptance):
        rng = np.random.default_rng(901)
        start = time.perf_counter()
        X = rng.standard_normal((12, 4))
        risk = X @ np.array([1.0, -0.5, 0.0, 0.3])
        times = rng.exponential(np.exp(-risk))
        events = rng.random(12) < 0.8
        events[0] = True
        labels = Labels(times, events)
        model = init_mlp(4, (3,), seed=5)
        for k in range(len(model.biases)):
            model.biases[k] = model.biases[k] + 0.1 * rng.standard_normal(model.biases[k].shape)

        _, wg, bg = _loss_and_gradients(model, X, labels.table, 0.01, "efron")
        h = 1e-4
        worst = 0.0

        def check(params, grads):
            nonlocal worst
            for k in range(len(params)):
                for idx in np.ndindex(*params[k].shape):
                    orig = params[k][idx]
                    params[k][idx] = orig + h
                    up = _loss_and_gradients(model, X, labels.table, 0.01, "efron")[0]
                    params[k][idx] = orig - h
                    dn = _loss_and_gradients(model, X, labels.table, 0.01, "efron")[0]
                    params[k][idx] = orig
                    numeric = (up - dn) / (2 * h)
                    denom = max(abs(numeric), abs(grads[k][idx]), 1e-8)
                    worst = max(worst, abs(grads[k][idx] - numeric) / denom)

        check(model.weights, wg)
        check(model.biases, bg)
        elapsed = time.perf_counter() - start
        acceptance(3, worst < 1e-5 and elapsed < 1.0,
                   f"max rel grad err {worst:.2e} on 4x3 one-hidden-layer net "
                   f"in {elapsed:.2f}s")

    def test_04_c_index_equivalence(self, acceptance):
        rng = np.random.default_rng(902)
        checked = 0
        exact = True
        for _ in range(100):
            scores = rng.integers(0, 6, size=20).astype(float)
            times = rng.integers(1, 8, size=20).astype(float)
            events = rng.random(20) < 0.6
            if not events.any():
                events[0] = True
            labels = Labels(times, events)
            try:
                want = brute_c_index(scores, labels)
            except NoComparablePairsError:
                continue
            got = c_index(scores, labels)
            exact = exact and got == want
            exact = exact and c_index(3.0 * scores + 10.0, labels) == got
            exact = exact and c_index(np.exp(scores / 6.0), labels) == got
            checked += 1
        acceptance(4, exact and checked >= 90,
                   f"{checked} random n=20 instances match brute force exactly, "
                   "monotone transforms invariant")

    def test_05_km_and_logrank_oracles(self, acceptance):
        curve = km_curve(Labels([1, 2, 3], [1, 0, 1]))
        km_ok = (
            len(curve.points) == 2
            and curve.points[0].survival == 1.0 - 1.0 / 3.0
            and curve.points[1].survival == 0.0
        )

        group = Labels([1, 2, 3, 4], [1, 1, 0, 1])
        ident = logrank_test(group, group)
        ident_ok = ident.statistic == 0.0 and ident.p_value == 1.0

        a = Labels([1, 2, 3, 4, 5, 6], [1] * 6)
        b = Labels([11, 12, 13, 14, 15, 16], [1] * 6)
        e_total = 1 / 2 + 5 / 11 + 4 / 10 + 3 / 9 + 2 / 8 + 1 / 7
        v_total = 1 / 4 + 30 / 121 + 24 / 100 + 2 / 9 + 12 / 64 + 6 / 49
        want_chi2 = (6.0 - e_total) ** 2 / v_total
        got = logrank_test(a, b)
        sep_ok = abs(got.statistic - want_chi2) < 1e-9 * want_chi2

        acceptance(5, km_ok and ident_ok and sep_ok,
                   f"product-limit steps exact, identical groups (0, 1), "
                   f"12-subject chi2 {got.statistic:.4f} vs hand {want_chi2:.4f}")

    def test_06_wilcoxon_exactness(self, acceptance):
        rng = np.random.default_rng(903)
        done = 0
        worst = 0.0
        while done < 50:
            n = int(rng.integers(5, 11))
            diffs = rng.integers(-5, 6, size=n).astype(float)
            if np.count_nonzero(diffs) < 5:
                continue
            want = enumerate_wilcoxon(diffs)
            got = wilcoxon_signed_rank(diffs)
            ok_method = got.method == "wilcoxon-signed-rank-exact"
            worst = max(worst, abs(got.p_value - want))
            if not ok_method:
                worst = 1.0
            done += 1
        acceptance(6, worst < 1e-12,
                   f"50 enumerated instances (n<=10), max p deviation {worst:.2e}")

    def test_07_nri_ledger(self, acceptance):
        cut = DEFAULTS["nri_threshold"]
        labels = Labels(list(range(1, 11)) + list(range(100, 110)), [1] * 10 + [0] * 10)
        scores = np.linspace(0.1, 0.9, 20)
        identity_ok = nri(scores, scores, labels, cut).nri == 0.0

        old = np.full(20, 0.5)
        new = old.copy()
        new[0] = 0.8
        one_up = nri(old, new, labels, cut)
        one_up_ok = one_up.nri == 0.1 and one_up.event_up == 1

        rng = np.random.default_rng(904)
        anti_ok = True
        for _ in range(25):
            o, n2 = rng.random(20), rng.random(20)
            anti_ok = anti_ok and (nri(o, n2, labels, cut).nri
                                   == -nri(n2, o, labels, cut).nri)

        # the threshold acts on the sigmoid scale: a linear score whose
        # sigmoid crosses 0.7 reclassifies, one that stays below does not
        lin_old = np.array([0.5, -2.0])  # sigmoid 0.62, 0.12
        lin_up = np.array([1.0, -2.0])   # sigmoid 0.73, 0.12
        lin_flat = np.array([0.8, -2.0])  # sigmoid 0.69, 0.12
        pair = Labels([1, 100], [1, 0])
        scale_ok = (
            nri(sigmoid(lin_old), sigmoid(lin_up), pair, cut).event_up == 1
            and nri(sigmoid(lin_old), sigmoid(lin_flat), pair, cut).event_up == 0
            and nri(sigmoid(lin_old), sigmoid(lin_up), pair, cut).threshold == 0.7
        )
        acceptance(7, identity_ok and one_up_ok and anti_ok and scale_ok,
                   "identity 0, 1-of-10 exactly +0.1, antisymmetric on 25 random "
                   "inputs, 0.7 cut on the sigmoid scale")

    def test_08_pesi_oracle_table(self, acceptance):
        # twenty hand-scored cases spanning classes I-V, scored from the
        # published point table before the implementation existed
        def clin(age, male=False, cancer=False, hf=False, cld=False, hr=False,
                 sbp=False, rr=False, temp=False, ams=False, o2=False):
            # a values row: age, then the flags in dataset.BINARY_FIELDS order
            return [float(age), *map(float, (male, cancer, hf, cld, hr, sbp, rr, temp, ams, o2))]

        oracle = [
            (clin(64), 64, "I"),
            (clin(66), 66, "II"),
            (clin(86), 86, "III"),
            (clin(106), 106, "IV"),
            (clin(126), 126, "V"),
            (clin(70, male=True, cancer=True, sbp=True), 140, "V"),
            (clin(80, male=True, cancer=True, hf=True, cld=True, hr=True,
                  sbp=True, rr=True, temp=True, ams=True, o2=True), 310, "V"),
            (clin(60, male=True, hr=True, rr=True), 110, "IV"),
            (clin(90, male=True, hr=True), 120, "IV"),
            (clin(55, o2=True), 75, "II"),
            (clin(45, male=True, hf=True, cld=True), 75, "II"),
            (clin(40, ams=True), 100, "III"),
            (clin(25, temp=True), 45, "I"),
            (clin(65), 65, "I"),
            (clin(85), 85, "II"),
            (clin(105), 105, "III"),
            (clin(125), 125, "IV"),
            (clin(1), 1, "I"),
            (clin(30, male=True), 40, "I"),
            (clin(50, male=True, cancer=True), 90, "III"),
        ]
        failures = []
        for k, (c, want_score, want_class) in enumerate(oracle):
            score = int(pesi_points(np.array([c]))[0])
            risk_class = risk_class_for(score)
            if score != want_score or risk_class != want_class:
                failures.append(f"case {k}: got {score}/{risk_class}, "
                                f"want {want_score}/{want_class}")
        acceptance(8, not failures,
                   "; ".join(failures) if failures
                   else "20/20 hand-scored cases match, incl. 64/female -> 64/I")

    def test_09_fusion_benefit(self, acceptance):
        start = time.perf_counter()
        details = []
        ok = True
        for seed in range(5):
            plan = ModalityPlan(clin_dim=4, img_dim=4, latent_weights=(1.0, 1.0),
                                noise_scale=0.5)
            data = gen_multimodal(GeneratorSpec(n=2000, beta_true=None,
                                                modality_plan=plan, seed=seed))
            cut = 1600  # 20% held out
            tr, te = slice(0, cut), slice(cut, None)
            lab_tr, lab_te = data.labels.take(tr), data.labels.take(te)

            cox_c = fit_cox(data.x_clin[tr], lab_tr)
            cox_i = fit_cox(data.x_img[tr], lab_tr)
            s_c_tr = data.x_clin[tr] @ cox_c.beta
            s_i_tr = data.x_img[tr] @ cox_i.beta
            s_c_te = data.x_clin[te] @ cox_c.beta
            s_i_te = data.x_img[te] @ cox_i.beta

            fused = fit_fusion({"clin": s_c_tr, "img": s_i_tr}, lab_tr, FUSION_OPTIONS)
            s_f_te = predict_fused(fused, {"clin": s_c_te, "img": s_i_te})

            c_c = c_index(s_c_te, lab_te)
            c_i = c_index(s_i_te, lab_te)
            c_f = c_index(s_f_te, lab_te)
            seed_ok = (c_f >= max(c_c, c_i) - 0.01) and (c_f >= min(c_c, c_i) + 0.02)
            ok = ok and seed_ok
            details.append(f"seed {seed}: clin {c_c:.3f} img {c_i:.3f} fused {c_f:.3f}")
        elapsed = time.perf_counter() - start
        acceptance(9, ok and elapsed < 30.0,
                   "; ".join(details) + f" in {elapsed:.1f}s")

    def test_10_rv_analysis_arithmetic(self, acceptance):
        # 16 RV patients with 11 stratified high, 65 deaths with 55 high
        # patients 0-69 are high risk, 70-99 low
        high = np.arange(100) < 70
        rv = np.zeros(100, dtype=bool)
        rv[:11] = rv[70:75] = True
        dead = np.zeros(100, dtype=bool)
        dead[:55] = dead[70:80] = True
        report = rv_factor_analysis(high, rv, dead)
        rv_text = f"{report.rv_high_pct:.1f}"
        death_text = f"{report.death_capture_pct:.1f}"
        acceptance(
            10,
            (report.n_rv, report.rv_high_count) == (16, 11)
            and (report.n_deaths, report.deaths_high_count) == (65, 55)
            and rv_text == "68.8" and death_text == "84.6",
            f"11/16 RV -> {rv_text}%, 55/65 deaths -> {death_text}%",
        )

    def test_11_short_term_workflow(self, acceptance, tmp_path):
        rng = np.random.default_rng(905)
        prop_ok = True
        for _ in range(200):
            n = int(rng.integers(1, 30))
            labels = Labels(rng.exponential(40, n) + 0.1, rng.random(n) < 0.6)
            cut = truncate_30day(labels)
            for before, after in zip(zip(labels.times, labels.events),
                                     zip(cut.times, cut.events)):
                prop_ok = prop_ok and after[0] <= before[0]
                prop_ok = prop_ok and after[0] <= 30.0
                # censoring may be introduced at the horizon, never removed
                prop_ok = prop_ok and not (after[1] and not before[1])
                if before[0] <= 30.0:
                    prop_ok = prop_ok and after == before

        out = tmp_path / "run"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "bootstrap_resamples": 100,
            "deep_clinical": {"hidden_dims": [4], "epochs": 25, "learning_rate": 0.05},
            "deep_imaging": {"hidden_dims": [4], "epochs": 25, "learning_rate": 0.05},
            "rsf": {"n_trees": 8, "min_leaf_size": 10},
            "generate": {"n": 150, "img_dim": 6, "baseline_rate": 0.02},
        }))
        gen_code = main(["generate", "--config", str(cfg_path), "--seed", "31",
                         "--out", str(tmp_path / "data")])
        run_code = main(["run", "--config", str(cfg_path), "--seed", "31",
                         "--clinical", str(tmp_path / "data" / "clinical.csv"),
                         "--features", str(tmp_path / "data" / "features.csv"),
                         "--out", str(out)])
        doc = json.loads((out / "report.json").read_text())
        table = doc["short_term"]
        kinds = {"pesi", "deep_imaging", "deep_clinical", "deep_multimodal",
                 "deep_pesi_fused"}
        shape_ok = (
            set(table.keys()) == {"train", "val", "test"}
            and all(set(split.keys()) == kinds for split in table.values())
            and all(set(cell.keys()) == {"c_index", "ci_low", "ci_high"}
                    for split in table.values() for cell in split.values())
        )
        filled = all(cell["c_index"] is not None for cell in table["test"].values())
        acceptance(11, prop_ok and gen_code == 0 and run_code == 0
                   and shape_ok and filled,
                   "truncation properties hold on 200 random cohorts; 30-day table "
                   "has all 3 splits x 5 models with populated test cells")

    @pytest.mark.slow
    def test_12_end_to_end_determinism_and_scale(self, acceptance, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "bootstrap_resamples": 100,
            "deep_clinical": {"hidden_dims": [4], "epochs": 25, "learning_rate": 0.05},
            "deep_imaging": {"hidden_dims": [4], "epochs": 25, "learning_rate": 0.05},
            "rsf": {"n_trees": 8, "min_leaf_size": 10},
            "generate": {"n": 150, "img_dim": 6, "baseline_rate": 0.02},
        }))
        main(["generate", "--config", str(cfg_path), "--seed", "13",
              "--out", str(tmp_path / "data")])
        clinical = str(tmp_path / "data" / "clinical.csv")
        features = str(tmp_path / "data" / "features.csv")
        main(["run", "--config", str(cfg_path), "--seed", "13", "--clinical", clinical,
              "--features", features, "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg_path), "--seed", "13", "--clinical", clinical,
              "--features", features, "--out", str(tmp_path / "b")])
        identical = (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

        start = time.perf_counter()
        gen_code = main(["generate", "--n", "1000", "--seed", "42",
                         "--out", str(tmp_path / "big")])
        run_code = main(["run", "--seed", "42",
                         "--clinical", str(tmp_path / "big" / "clinical.csv"),
                         "--features", str(tmp_path / "big" / "features.csv"),
                         "--out", str(tmp_path / "bigout")])
        elapsed = time.perf_counter() - start
        doc = json.loads((tmp_path / "bigout" / "report.json").read_text())
        full_ok = (gen_code == 0 and run_code == 0
                   and len(doc["overall"]["test"]) == 6)
        acceptance(12, identical and full_ok and elapsed < 300.0,
                   f"byte-identical reruns; full n=1000 study with 6 models and "
                   f"1000-resample bootstrap in {elapsed:.0f}s")

    def test_13_rsf_sanity(self, acceptance):
        spec_tr = GeneratorSpec(n=400, beta_true=(2.0, -1.5), baseline_rate=0.1,
                                censor_rate=0.02, seed=19)
        spec_te = GeneratorSpec(n=200, beta_true=(2.0, -1.5), baseline_rate=0.1,
                                censor_rate=0.02, seed=20)
        Xtr, ltr, _ = gen_cox_linear(spec_tr)
        Xte, lte, _ = gen_cox_linear(spec_te)
        model = fit_forest(Xtr, ltr, rsf_options(n_trees=60, min_leaf_size=10, seed=3))
        c_signal = c_index(predict_risk(model, Xte), lte)

        perm = np.random.default_rng(21).permutation(len(ltr))
        shuffled = ltr.take(perm)
        model_null = fit_forest(Xtr, shuffled,
                                rsf_options(n_trees=60, min_leaf_size=10, seed=3))
        c_null = c_index(predict_risk(model_null, Xte), lte)
        acceptance(13, c_signal >= 0.75 and 0.40 <= c_null <= 0.60,
                   f"held-out c {c_signal:.3f} on signal, {c_null:.3f} on "
                   "permuted labels")
