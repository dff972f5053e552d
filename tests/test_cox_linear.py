import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from survfuse.cox_linear import (
    CoxModel,
    FitOptions,
    _beta_derivatives,
    _breslow_baseline,
    _event_table,
    fit_cox,
)
from survfuse.dataset import EventTable, Labels
from survfuse.errors import (
    DimensionMismatchError,
    NoEventsError,
    NonFiniteInputError,
    SingularInformationError,
)

from generators import GeneratorSpec, gen_cox_linear
from strategies import partial_loglik_eta, survival_arrays


def loglik(beta, X, labels, tie_method="efron"):
    """Cox partial log-likelihood at ``beta``."""
    return partial_loglik_eta(X @ beta, labels, tie_method)[0]


def derivatives(beta, X, labels, tie_method="efron"):
    """Unpenalized ``(loglik, gradient, Hessian)`` at ``beta``, as ``fit_cox``
    forms them."""
    return _beta_derivatives(beta, X, _event_table(labels), tie_method)


def direct_loglik(eta, times, events, tie_method):
    """Textbook risk-set summation, no shift trick, no vectorization."""
    eta = np.asarray(eta, float)
    times = np.asarray(times, float)
    events = np.asarray(events, bool)
    ll = 0.0
    for t in sorted(set(times[events])):
        dead = np.where((times == t) & events)[0]
        at_risk = np.where(times >= t)[0]
        d = len(dead)
        ll += eta[dead].sum()
        sum_risk = np.exp(eta[at_risk]).sum()
        if tie_method == "breslow":
            ll -= d * math.log(sum_risk)
        else:
            sum_dead = np.exp(eta[dead]).sum()
            for j in range(d):
                ll -= math.log(sum_risk - (j / d) * sum_dead)
    return ll


def random_instance(rng, n_max=10, p_max=3):
    n = int(rng.integers(3, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    X = rng.standard_normal((n, p))
    # integer times force ties
    times = rng.integers(1, 5, size=n).astype(float)
    events = rng.random(n) < 0.7
    if not events.any():
        events[int(rng.integers(0, n))] = True
    return X, times, events


class LoopRiskStructure:
    """The risk structure the event-time table replaced: a Python loop over
    the distinct event times collects each one's tied deaths."""

    def __init__(self, times, events):
        self.order = np.argsort(times, kind="stable")
        self.t = times[self.order]
        self.e = events[self.order]
        self.event_times = np.unique(self.t[self.e])
        if self.event_times.size == 0:
            raise NoEventsError("at least one observed event is required")
        self.risk_start = np.searchsorted(self.t, self.event_times, side="left")
        self.death_slices = []
        for v in self.event_times:
            lo = np.searchsorted(self.t, v, side="left")
            hi = np.searchsorted(self.t, v, side="right")
            self.death_slices.append(np.arange(lo, hi)[self.e[lo:hi]])


def loop_partial_loglik_eta(eta, times, events, tie_method):
    """``partial_loglik_eta`` as it was on ``LoopRiskStructure``, kept as its oracle."""
    struct = LoopRiskStructure(np.asarray(times, float), np.asarray(events, bool))
    eta_s = np.asarray(eta, float)[struct.order]
    m = float(eta_s.max())
    w = np.exp(eta_s - m)
    s0_suffix = np.cumsum(w[::-1])[::-1]
    n_groups = struct.event_times.size
    ll = 0.0
    coef_a = np.zeros(n_groups)
    coef_b = np.zeros(n_groups)
    own_b = np.zeros(eta_s.size)
    for g in range(n_groups):
        deaths = struct.death_slices[g]
        d = deaths.size
        s0r = s0_suffix[struct.risk_start[g]]
        sum_eta = float((eta_s[deaths] - m).sum())
        if tie_method == "efron" and d > 1:
            frac = np.arange(d) / d
            psi = s0r - frac * w[deaths].sum()
            ll += sum_eta - float(np.log(psi).sum())
            coef_a[g] = float((1.0 / psi).sum())
            coef_b[g] = float((frac / psi).sum())
        else:
            ll += sum_eta - d * float(np.log(s0r))
            coef_a[g] = d / s0r
        own_b[deaths] = coef_b[g]
    cum_a = np.cumsum(coef_a)
    gidx = np.searchsorted(struct.event_times, struct.t, side="right") - 1
    coef = np.where(gidx >= 0, cum_a[np.maximum(gidx, 0)], 0.0)
    grad_s = struct.e.astype(float) - w * coef + w * own_b
    grad = np.empty_like(grad_s)
    grad[struct.order] = grad_s
    return ll, grad


def loop_grad_hess(beta, X, times, events, tie_method):
    """``derivatives`` as it was on ``LoopRiskStructure``, kept as its oracle."""
    struct = LoopRiskStructure(np.asarray(times, float), np.asarray(events, bool))
    p = X.shape[1]
    Xs = X[struct.order]
    eta_s = Xs @ beta
    m = float(eta_s.max())
    w = np.exp(eta_s - m)
    wx = w[:, None] * Xs
    wxx = wx[:, :, None] * Xs[:, None, :]
    s0_suffix = np.cumsum(w[::-1])[::-1]
    s1_suffix = np.cumsum(wx[::-1], axis=0)[::-1]
    s2_suffix = np.cumsum(wxx[::-1], axis=0)[::-1]
    ll = 0.0
    grad = np.zeros(p)
    hess = np.zeros((p, p))
    for g in range(struct.event_times.size):
        deaths = struct.death_slices[g]
        d = deaths.size
        r = struct.risk_start[g]
        s0r, s1r, s2r = s0_suffix[r], s1_suffix[r], s2_suffix[r]
        ll += float((eta_s[deaths] - m).sum())
        grad += Xs[deaths].sum(axis=0)
        if tie_method == "efron" and d > 1:
            frac = np.arange(d) / d
            s0d = w[deaths].sum()
            s1d = wx[deaths].sum(axis=0)
            s2d = wxx[deaths].sum(axis=0)
            psi = s0r - frac * s0d
            mu = (s1r[None, :] - frac[:, None] * s1d) / psi[:, None]
            ll -= float(np.log(psi).sum())
            grad -= mu.sum(axis=0)
            inv = (1.0 / psi).sum()
            finv = (frac / psi).sum()
            hess -= s2r * inv - s2d * finv - np.einsum("lp,lq->pq", mu, mu)
        else:
            mu = s1r / s0r
            ll -= d * float(np.log(s0r))
            grad -= d * mu
            hess -= d * (s2r / s0r - np.outer(mu, mu))
    return float(ll), grad, hess


def loop_breslow_baseline(beta, X, times, events):
    """``_breslow_baseline`` as it was on ``LoopRiskStructure``, kept as its oracle."""
    struct = LoopRiskStructure(np.asarray(times, float), np.asarray(events, bool))
    eta_s = (X @ beta)[struct.order]
    m = float(eta_s.max())
    w = np.exp(eta_s - m)
    s0_suffix = np.cumsum(w[::-1])[::-1]
    increments = np.array(
        [struct.death_slices[g].size / s0_suffix[struct.risk_start[g]]
         for g in range(struct.event_times.size)]
    ) * np.exp(-m)
    return struct.event_times.copy(), np.cumsum(increments)


@st.composite
def cox_instances(draw, max_p=3):
    """(X, times, events): heavy time ties, heavy censoring, n from 1; or up to
    80 subjects on 1-4 time levels, so that tie groups of tens of deaths, and
    several tie sizes in one cohort, occur."""
    if draw(st.booleans()):
        times, events = draw(survival_arrays(max_n=20))
    else:
        times, events = draw(survival_arrays(min_n=21, max_n=80, time_levels=(1, 2, 3, 4)))
    n, p = times.size, draw(st.integers(1, max_p))
    X = np.array(draw(st.lists(st.floats(-3, 3), min_size=n * p, max_size=n * p))).reshape(n, p)
    return X, times, events


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except NoEventsError as exc:
        return str(exc)


class TestPartialLoglik:
    @pytest.mark.parametrize("tie_method", ["efron", "breslow"])
    def test_matches_direct_summation(self, tie_method):
        rng = np.random.default_rng(42)
        for _ in range(50):
            X, times, events = random_instance(rng)
            beta = rng.standard_normal(X.shape[1])
            got = loglik(beta, X, Labels(times, events), tie_method)
            want = direct_loglik(X @ beta, times, events, tie_method)
            assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("tie_method", ["efron", "breslow"])
    def test_shift_invariance(self, tie_method):
        rng = np.random.default_rng(1)
        eta = rng.standard_normal(8)
        times = np.array([1, 1, 2, 2, 2, 3, 4, 5], dtype=float)
        events = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=bool)
        base, _ = partial_loglik_eta(eta, Labels(times, events), tie_method)
        for shift in (-200.0, -3.0, 7.5, 500.0):
            shifted, _ = partial_loglik_eta(eta + shift, Labels(times, events), tie_method)
            assert_allclose(shifted, base, rtol=1e-12)

    @settings(max_examples=150)
    @given(cox_instances(), st.floats(-500, 500), st.sampled_from(["efron", "breslow"]))
    def test_shift_invariance_property(self, instance, shift, tie_method):
        X, times, events = instance
        assume(events.any())
        # on a grid of 2**-30, eta + shift is exact: the test sees the
        # likelihood's invariance, not the rounding of its shifted input
        step = 2.0 ** -30
        eta = np.round(X.sum(axis=1) / step) * step
        shift = round(shift / step) * step
        base, base_grad = partial_loglik_eta(eta, Labels(times, events), tie_method)
        shifted, shifted_grad = partial_loglik_eta(eta + shift, Labels(times, events), tie_method)
        assert_allclose(shifted, base, rtol=1e-12)
        assert_allclose(shifted_grad, base_grad, rtol=1e-12)

    @pytest.mark.parametrize("tie_method", ["efron", "breslow"])
    def test_eta_gradient_matches_finite_differences(self, tie_method):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X, times, events = random_instance(rng, n_max=8)
            eta = X @ rng.standard_normal(X.shape[1])
            _, grad = partial_loglik_eta(eta, Labels(times, events), tie_method)
            h = 1e-6
            for i in range(len(eta)):
                up, dn = eta.copy(), eta.copy()
                up[i] += h
                dn[i] -= h
                fd = (direct_loglik(up, times, events, tie_method)
                      - direct_loglik(dn, times, events, tie_method)) / (2 * h)
                assert_allclose(grad[i], fd, rtol=2e-6, atol=2e-7)

    def test_tie_methods_differ_only_with_ties(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([True, True, True, False])
        eta = np.array([0.3, -0.2, 0.9, 0.1])
        le, _ = partial_loglik_eta(eta, Labels(times, events), "efron")
        lb, _ = partial_loglik_eta(eta, Labels(times, events), "breslow")
        assert le == lb  # no tied deaths: identical by definition
        tied_times = np.array([1.0, 1.0, 3.0, 4.0])
        le, _ = partial_loglik_eta(eta, Labels(tied_times, events), "efron")
        lb, _ = partial_loglik_eta(eta, Labels(tied_times, events), "breslow")
        assert le > lb  # Efron's denominators are never larger

    def test_no_events(self):
        with pytest.raises(NoEventsError):
            partial_loglik_eta(np.zeros(3), Labels(np.arange(1.0, 4.0), np.zeros(3, dtype=bool)))

    @settings(max_examples=150)
    @given(cox_instances(), st.sampled_from(["efron", "breslow"]))
    def test_matches_event_time_loop_exactly(self, instance, tie_method):
        X, times, events = instance
        eta = X.sum(axis=1)
        got = result_or_error(partial_loglik_eta, eta, Labels(times, events), tie_method)
        want = result_or_error(loop_partial_loglik_eta, eta, times, events, tie_method)
        if isinstance(want, str):
            assert got == want
            return
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    def test_nonfinite_eta(self):
        with pytest.raises(NonFiniteInputError):
            partial_loglik_eta(np.array([0.0, np.nan]), Labels([1.0, 2.0], [True, True]))


class TestGradHess:
    @pytest.mark.parametrize("tie_method", ["efron", "breslow"])
    def test_beta_gradient_matches_finite_differences(self, tie_method):
        rng = np.random.default_rng(13)
        for _ in range(20):
            X, times, events = random_instance(rng)
            labels = Labels(times, events)
            beta = 0.5 * rng.standard_normal(X.shape[1])
            _, grad, _ = derivatives(beta, X, labels, tie_method)
            h = 1e-6
            for j in range(len(beta)):
                up, dn = beta.copy(), beta.copy()
                up[j] += h
                dn[j] -= h
                fd = (loglik(up, X, labels, tie_method)
                      - loglik(dn, X, labels, tie_method)) / (2 * h)
                assert_allclose(grad[j], fd, rtol=5e-6, atol=5e-7)

    @pytest.mark.parametrize("tie_method", ["efron", "breslow"])
    def test_hessian_matches_gradient_differences(self, tie_method):
        rng = np.random.default_rng(29)
        for _ in range(10):
            X, times, events = random_instance(rng, n_max=8)
            labels = Labels(times, events)
            beta = 0.3 * rng.standard_normal(X.shape[1])
            _, _, hess = derivatives(beta, X, labels, tie_method)
            assert_allclose(hess, hess.T, atol=1e-12)
            h = 1e-5
            for j in range(len(beta)):
                up, dn = beta.copy(), beta.copy()
                up[j] += h
                dn[j] -= h
                _, gu, _ = derivatives(up, X, labels, tie_method)
                _, gd, _ = derivatives(dn, X, labels, tie_method)
                assert_allclose(hess[:, j], (gu - gd) / (2 * h), rtol=2e-4, atol=2e-5)

    @settings(max_examples=100)
    @given(cox_instances(), st.sampled_from(["efron", "breslow"]))
    def test_matches_event_time_loop_exactly(self, instance, tie_method):
        X, times, events = instance
        beta = np.linspace(-1.0, 1.0, X.shape[1])
        got = result_or_error(derivatives, beta, X, Labels(times, events), tie_method)
        want = result_or_error(loop_grad_hess, beta, X, times, events, tie_method)
        if isinstance(want, str):
            assert got == want
            return
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    def test_loglik_consistent_across_entry_points(self):
        rng = np.random.default_rng(3)
        X, times, events = random_instance(rng)
        labels = Labels(times, events)
        beta = rng.standard_normal(X.shape[1])
        ll1, _ = partial_loglik_eta(X @ beta, labels)
        ll2, _, _ = _beta_derivatives(beta, X, labels.table, "efron")
        assert_allclose(ll1, ll2, rtol=1e-14)


class TestFitCox:
    def test_one_dimensional_grid_search_oracle(self):
        # four subjects, all events, x = (0, 1, 0, 1) at times 1..4:
        # ll(b) = b - log(2 + 2e^b) - log(1 + 2e^b) - log(1 + e^b)
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        labels = Labels([1, 2, 3, 4], [1, 1, 1, 1])

        def ll(b):
            return b - math.log(2 + 2 * math.exp(b)) - math.log(1 + 2 * math.exp(b)) \
                - math.log(1 + math.exp(b))

        grid = np.arange(-5.0, 5.0, 1e-4)
        best = grid[np.argmax([ll(b) for b in grid])]
        model = fit_cox(X, labels)
        assert model.converged
        assert abs(model.beta[0] - best) < 1e-3
        assert model.log_likelihood >= ll(best) - 1e-10
        assert_allclose(model.log_likelihood, ll(model.beta[0]), rtol=1e-12)

    def test_recovers_generating_coefficients(self):
        X, labels, _ = gen_cox_linear(GeneratorSpec(
            n=800, beta_true=(1.0, -0.5), baseline_rate=0.1, censor_rate=0.05, seed=4))
        model = fit_cox(X, labels)
        assert model.converged
        assert abs(model.beta[0] - 1.0) < 0.15
        assert abs(model.beta[1] + 0.5) < 0.15

    def test_identical_rows_give_null_fit(self):
        X = np.ones((6, 2))
        labels = Labels([1, 2, 3, 4, 5, 6], [1, 1, 0, 1, 0, 1])
        model = fit_cox(X, labels)
        assert model.converged
        assert_allclose(model.beta, [0.0, 0.0])
        assert_allclose(model.log_likelihood, loglik(np.zeros(2), X, labels))

    def test_collinear_needs_ridge(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(30)
        X = np.column_stack([x, x])
        times = rng.exponential(1.0, size=30)
        labels = Labels(times, np.ones(30))
        with pytest.raises(SingularInformationError, match="ridge"):
            fit_cox(X, labels)
        model = fit_cox(X, labels, FitOptions(ridge_penalty=1e-4))
        assert model.converged
        assert_allclose(model.beta[0], model.beta[1], rtol=1e-6)

    def test_needs_more_rows_than_columns(self):
        X = np.eye(3)
        labels = Labels([1, 2, 3], [1, 1, 1])
        with pytest.raises(DimensionMismatchError):
            fit_cox(X, labels)

    def test_nonfinite_raises(self):
        X = np.array([[0.0], [np.inf], [1.0]])
        with pytest.raises(NonFiniteInputError):
            fit_cox(X, Labels([1, 2, 3], [1, 1, 1]))

    def test_no_events_raises(self):
        X = np.arange(4.0)[:, None]
        with pytest.raises(NoEventsError):
            fit_cox(X, Labels([1, 2, 3, 4], [0, 0, 0, 0]))

    def test_covariate_names_recorded(self):
        X = np.array([[0.0], [1.0], [0.5], [0.2]])
        model = fit_cox(X, Labels([1, 2, 3, 4], [1, 1, 1, 0]), covariate_names=("dose",))
        assert model.covariate_names == ("dose",)

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            FitOptions(tie_method="exact")
        with pytest.raises(ValueError):
            FitOptions(ridge_penalty=-1.0)


class TestBaselineAndSurvival:
    def null_model(self):
        # one constant covariate forces beta = 0, so the baseline is the
        # plain Breslow estimate: H(1) = 1/3, H(2) = 1/3 + 1/2, H(3) = 11/6
        X = np.zeros((3, 1))
        return fit_cox(X, Labels([1, 2, 3], [1, 1, 1]))

    def test_baseline_values(self):
        model = self.null_model()
        assert_allclose(model.baseline_times, [1.0, 2.0, 3.0])
        assert_allclose(model.baseline_cumhaz, [1 / 3, 1 / 3 + 1 / 2, 11 / 6], rtol=1e-14)

    @settings(max_examples=100)
    @given(cox_instances())
    def test_baseline_matches_event_time_loop_exactly(self, instance):
        X, times, events = instance
        assume(events.any())
        beta = np.linspace(-1.0, 1.0, X.shape[1])
        got = _breslow_baseline(beta, X, EventTable(times, events))
        want = loop_breslow_baseline(beta, X, times, events)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
