import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from survfuse import metrics
from survfuse.dataset import Labels
from survfuse.errors import (
    DegenerateResamplingError,
    SurvfuseError,
    EmptyGroupError,
    MismatchedLengthsError,
    NoComparablePairsError,
    NoEventsError,
    NoNoneventsError,
    TooFewPairsError,
    TooFewResamplesError,
)
from survfuse.metrics import (
    KmCurve,
    KmPoint,
    bootstrap_ci,
    c_index,
    km_curve,
    logrank_test,
    nri,
    resample_weights,
    weighted_c_index,
    wilcoxon_signed_rank,
)

from defaults import DEFAULTS


def brute_c_index(scores, labels):
    """Pairwise loops straight from the definition."""
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


@st.composite
def cohorts(draw, min_n=3, max_n=30):
    """(scores, labels) with optional heavy score ties, time ties and censoring."""
    n = draw(st.integers(min_n, max_n))
    score_levels = draw(st.sampled_from([1, 2, 3, 10**6]))
    time_levels = draw(st.sampled_from([1, 2, 4, 10**6]))
    event_pct = draw(st.sampled_from([0, 5, 30, 90]))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    scores = np.array(column(st.integers(0, score_levels - 1)), dtype=float)
    times = column(st.integers(1, time_levels))
    events = [u < event_pct for u in column(st.integers(0, 99))]
    return scores, Labels(times, events)


_MAX_REDRAWS_PER_RESAMPLE = 100


def loop_bootstrap_ci(metric_fn, scores, labels, n_resamples=1000, seed=0):
    """The per-resample loop that ``bootstrap_ci`` replaced, kept as its oracle."""
    if n_resamples < 100:
        raise TooFewResamplesError(f"need at least 100 resamples, got {n_resamples}")
    s = np.asarray(scores, dtype=float)
    if s.size != len(labels):
        raise MismatchedLengthsError(f"{s.size} scores for {len(labels)} labels")
    rng = np.random.default_rng(seed)
    n = s.size
    values = np.empty(n_resamples)
    for r in range(n_resamples):
        for _ in range(_MAX_REDRAWS_PER_RESAMPLE):
            idx = rng.integers(0, n, size=n)
            try:
                values[r] = metric_fn(s[idx], labels.take(idx))
                break
            except NoComparablePairsError:
                continue
        else:
            raise DegenerateResamplingError(
                f"resample {r}: no valid draw in {_MAX_REDRAWS_PER_RESAMPLE} attempts"
            )
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(lo), float(hi)


def outcome(fn, *args):
    """A result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except SurvfuseError as exc:
        return (type(exc).__name__, str(exc))


class ScriptedRng:
    """Stands in for a Generator: ``integers`` hands out scripted draws in order."""

    def __init__(self, rows):
        self.rows = list(rows)

    def integers(self, low, high, size):
        k = size[0]
        out, self.rows = self.rows[:k], self.rows[k:]
        return np.array(out)


class TestCIndex:
    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = 20
            scores = rng.integers(0, 6, size=n).astype(float)  # integer scores force ties
            times = rng.integers(1, 8, size=n).astype(float)
            events = rng.random(n) < 0.6
            if not events.any():
                events[0] = True
            labels = Labels(times, events)
            try:
                want = brute_c_index(scores, labels)
            except NoComparablePairsError:
                with pytest.raises(NoComparablePairsError):
                    c_index(scores, labels)
                continue
            assert c_index(scores, labels) == want

    @settings(max_examples=150)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5, -1.0]), min_size=n, max_size=n),
        st.lists(st.integers(1, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 99), min_size=n, max_size=n),
        st.sampled_from([5, 30, 70, 100]))))
    def test_equals_pair_count_under_heavy_ties(self, case):
        # few score values and few time levels tie most pairs; the event
        # share runs down to 5%, so most subjects are censored
        scores, times, draws, event_pct = case
        labels = Labels(times, [u < event_pct for u in draws])
        try:
            want = brute_c_index(scores, labels)
        except NoComparablePairsError:
            with pytest.raises(NoComparablePairsError):
                c_index(np.array(scores), labels)
            return
        assert c_index(np.array(scores), labels) == want

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(30)
        labels = Labels(rng.exponential(5, 30), rng.random(30) < 0.7)
        base = c_index(scores, labels)
        assert c_index(3.0 * scores + 10.0, labels) == base
        assert c_index(np.exp(scores), labels) == base

    def test_perfect_and_reversed(self):
        labels = Labels([1, 2, 3, 4], [1, 1, 1, 1])
        assert c_index([4, 3, 2, 1], labels) == 1.0
        assert c_index([1, 2, 3, 4], labels) == 0.0
        assert c_index([1, 1, 1, 1], labels) == 0.5

    def test_censored_before_event_not_comparable(self):
        # the censored subject at t=1 tells us nothing about later ranking
        labels = Labels([1, 2, 3], [0, 1, 1])
        assert c_index([9.0, 5.0, 1.0], labels) == 1.0

    def test_no_comparable_pairs(self):
        with pytest.raises(NoComparablePairsError):
            c_index([1.0, 2.0], Labels([5, 5], [1, 1]))  # simultaneous events
        with pytest.raises(NoComparablePairsError):
            c_index([1.0, 2.0], Labels([1, 2], [0, 0]))  # no events at all

    def test_length_mismatch(self):
        with pytest.raises(MismatchedLengthsError):
            c_index([1.0], Labels([1, 2], [1, 1]))

    @settings(max_examples=60)
    @given(cohorts())
    def test_unit_weights_give_c_index(self, cohort):
        scores, labels = cohort
        ones = np.ones((1, len(labels)))
        try:
            want = c_index(scores, labels)
        except NoComparablePairsError:
            with pytest.raises(NoComparablePairsError):
                weighted_c_index(scores, labels, ones)
            return
        assert weighted_c_index(scores, labels, ones)[0] == want


class TestBootstrapCi:
    def labels(self, rng, n=120):
        risk = rng.standard_normal(n)
        times = rng.exponential(np.exp(-risk))
        return risk, Labels(times, rng.random(n) < 0.9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        scores, labels = self.labels(rng)
        a = bootstrap_ci(scores, labels, n_resamples=200, seed=9)
        b = bootstrap_ci(scores, labels, n_resamples=200, seed=9)
        assert a == b
        c = bootstrap_ci(scores, labels, n_resamples=200, seed=10)
        assert a != c

    def test_interval_brackets_point_estimate(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            scores, labels = self.labels(rng)
            point = c_index(scores, labels)
            lo, hi = bootstrap_ci(scores, labels, n_resamples=200, seed=seed)
            assert lo <= point <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_interval_shrinks_with_sample_size(self):
        rng = np.random.default_rng(3)
        small_scores, small_labels = self.labels(rng, n=40)
        big_scores, big_labels = self.labels(rng, n=400)
        lo_s, hi_s = bootstrap_ci(small_scores, small_labels, 300, seed=1)
        lo_b, hi_b = bootstrap_ci(big_scores, big_labels, 300, seed=1)
        assert (hi_b - lo_b) < (hi_s - lo_s)

    def test_too_few_resamples(self):
        rng = np.random.default_rng(4)
        scores, labels = self.labels(rng)
        with pytest.raises(TooFewResamplesError):
            bootstrap_ci(scores, labels, n_resamples=99)

    def test_redraws_skip_degenerate_resamples(self):
        # one event among many censored: most resamples have no comparable
        # pair and must be redrawn, but the interval is still produced
        labels = Labels([1, 2, 3, 4, 5], [1, 0, 0, 0, 0])
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        lo, hi = bootstrap_ci(scores, labels, n_resamples=100, seed=0)
        assert 0.0 <= lo <= hi <= 1.0

    def test_hopeless_data_raises_degenerate(self):
        labels = Labels([1, 2, 3, 4], [0, 0, 0, 0])  # no events: no resample works
        with pytest.raises(DegenerateResamplingError):
            bootstrap_ci(np.arange(4.0), labels, n_resamples=100, seed=0)

    @settings(max_examples=80)
    @given(cohorts(), st.integers(0, 2**32 - 1), st.sampled_from([metrics._BLOCK_ROWS, 1, 3]))
    def test_matches_per_resample_loop_bit_for_bit(self, cohort, seed, block_rows):
        # blocks of 1 and 3 rows take the multi-block paths of the resampler
        # and of weighted_c_index for event rows too on these small cohorts
        scores, labels = cohort
        want = outcome(loop_bootstrap_ci, c_index, scores, labels, 100, seed)
        with mock.patch.object(metrics, "_BLOCK_ROWS", block_rows):
            assert outcome(bootstrap_ci, scores, labels, 100, seed) == want

    @pytest.mark.parametrize("times, events", [
        ([1, 2, 3, 4], [0, 0, 0, 0]),  # all censored: every draw is invalid
        ([1, 2, 3], [1, 0, 0]),        # n = 3, one early event: many redraws
        ([1, 1, 2], [1, 1, 0]),
    ])
    def test_edge_cohorts_match_per_resample_loop(self, times, events):
        labels = Labels(times, events)
        scores = np.arange(float(len(labels)))
        for seed in range(5):
            want = outcome(loop_bootstrap_ci, c_index, scores, labels, 100, seed)
            assert outcome(bootstrap_ci, scores, labels, 100, seed) == want

    @pytest.mark.parametrize("block_rows", [7, 256])
    def test_redraw_limit_counts_invalid_draws_in_a_row(self, block_rows):
        # with 7-row blocks the runs of invalid draws cross block edges; with
        # 256 the run that raises shares its block with earlier valid draws
        labels = Labels([1, 2], [1, 0])
        valid, invalid = [0, 1], [1, 1]  # only [0, 1] has an event before t=2
        rows = [valid] + [invalid] * 99 + [valid] * 2 + [invalid] * 100 + [valid]
        with mock.patch.object(metrics, "_BLOCK_ROWS", block_rows):
            weights = resample_weights(ScriptedRng(rows), labels, 3)
            assert weights.tolist() == [[1, 1]] * 3
            with pytest.raises(DegenerateResamplingError,
                               match="resample 3: no valid draw in 100 attempts"):
                resample_weights(ScriptedRng(rows), labels, 300)

    @settings(max_examples=60)
    @given(st.integers(0, 2**63), st.integers(1, 2000), st.integers(1, 70))
    def test_block_draw_consumes_the_stream_like_row_draws(self, seed, n, k):
        # resample_weights draws k attempts in one call; this holds only if
        # numpy's integers() yields the same values and leaves the generator
        # in the same state as k separate calls of size n
        block_rng = np.random.default_rng(seed)
        row_rng = np.random.default_rng(seed)
        block = block_rng.integers(0, n, size=(k, n))
        rows = np.stack([row_rng.integers(0, n, size=n) for _ in range(k)])
        assert np.array_equal(block, rows)
        assert block_rng.bit_generator.state == row_rng.bit_generator.state


class TestKmCurve:
    def test_hand_product_limit(self):
        # events at 1 and 3, censoring at 2:
        # S(1) = 1 - 1/3 = 2/3, S(3) = (2/3) * (1 - 1/1) = 0
        curve = km_curve(Labels([1, 2, 3], [1, 0, 1]))
        assert len(curve.points) == 2
        p1, p3 = curve.points
        assert (p1.time, p1.at_risk, p1.events) == (1.0, 3, 1)
        assert p1.survival == 1.0 - 1.0 / 3.0
        assert (p3.time, p3.at_risk, p3.events) == (3.0, 1, 1)
        assert p3.survival == 0.0

    def test_tied_deaths_single_step(self):
        curve = km_curve(Labels([2, 2, 5], [1, 1, 0]))
        assert len(curve.points) == 1
        assert curve.points[0].events == 2
        assert_allclose(curve.points[0].survival, 1.0 / 3.0)

    def test_all_censored_has_no_steps(self):
        curve = km_curve(Labels([1, 2], [0, 0]))
        assert curve.points == ()

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            km_curve(Labels([], []))

    @settings(max_examples=150)
    @given(cohorts(min_n=1))
    def test_matches_event_time_loop_exactly(self, cohort):
        _, labels = cohort
        assert km_curve(labels) == loop_km_curve(labels)


def loop_km_curve(labels):
    """The per-event-time loop that ``km_curve`` replaced, kept as its oracle."""
    t, e = labels.times, labels.events
    points = []
    s = 1.0
    for v in np.unique(t[e]):
        at_risk = int((t >= v).sum())
        deaths = int(((t == v) & e).sum())
        s *= 1.0 - deaths / at_risk
        points.append(KmPoint(time=float(v), survival=s, at_risk=at_risk, events=deaths))
    return KmCurve(points=tuple(points))


def loop_logrank_test(labels_a, labels_b):
    """The per-event-time loop that ``logrank_test`` replaced, kept as its oracle."""
    if not labels_a or not labels_b:
        raise EmptyGroupError("both groups need at least one subject")
    t = np.concatenate([labels_a.times, labels_b.times])
    e = np.concatenate([labels_a.events, labels_b.events])
    in_a = np.arange(t.size) < len(labels_a)
    if not e.any():
        raise NoEventsError("log-rank test needs at least one event")
    observed_minus_expected = 0.0
    variance = 0.0
    for v in np.unique(t[e]):
        at_risk = t >= v
        n = int(at_risk.sum())
        n_a = int((at_risk & in_a).sum())
        deaths = int(((t == v) & e).sum())
        deaths_a = int(((t == v) & e & in_a).sum())
        observed_minus_expected += deaths_a - deaths * n_a / n
        if n > 1:
            variance += deaths * (n_a / n) * (1.0 - n_a / n) * (n - deaths) / (n - 1)
    if variance <= 0.0:
        return metrics.TestResult(statistic=0.0, p_value=1.0, method="logrank")
    chi2 = observed_minus_expected ** 2 / variance
    return metrics.TestResult(statistic=float(chi2), p_value=float(math.erfc(math.sqrt(chi2 / 2.0))),
                      method="logrank")


def hand_logrank(labels_a, labels_b):
    """Hypergeometric mean/variance accumulation written out longhand."""
    ta, tb = labels_a.times.tolist(), labels_b.times.tolist()
    ea, eb = labels_a.events.tolist(), labels_b.events.tolist()
    death_times = sorted({t for t, e in zip(ta + tb, ea + eb) if e})
    observed = expected = variance = 0.0
    for t in death_times:
        n_a = sum(1 for v in ta if v >= t)
        n_b = sum(1 for v in tb if v >= t)
        n = n_a + n_b
        d = sum(1 for v, e in zip(ta, ea) if v == t and e) \
            + sum(1 for v, e in zip(tb, eb) if v == t and e)
        d_a = sum(1 for v, e in zip(ta, ea) if v == t and e)
        observed += d_a
        expected += d * n_a / n
        if n > 1:
            variance += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)
    if variance == 0:
        return 0.0, 1.0
    chi2 = (observed - expected) ** 2 / variance
    return chi2, math.erfc(math.sqrt(chi2 / 2.0))


class TestLogrank:
    def test_identical_groups(self):
        group = Labels([1, 2, 3, 4], [1, 1, 0, 1])
        result = logrank_test(group, group)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_twelve_subject_separated_case(self):
        # six early deaths vs six late deaths; at group A's death times the
        # full group B is still at risk, so E_A = 1/2 + 5/11 + 2/5 + 1/3 +
        # 1/4 + 1/7 and V = 1/4 + 30/121 + 6/25 + 2/9 + 3/16 + 6/49
        a = Labels([1, 2, 3, 4, 5, 6], [1] * 6)
        b = Labels([11, 12, 13, 14, 15, 16], [1] * 6)
        expected_e = 1 / 2 + 5 / 11 + 2 / 5 + 1 / 3 + 1 / 4 + 1 / 7
        expected_v = 1 / 4 + 30 / 121 + 6 / 25 + 2 / 9 + 3 / 16 + 6 / 49
        want_chi2 = (6.0 - expected_e) ** 2 / expected_v
        result = logrank_test(a, b)
        assert_allclose(result.statistic, want_chi2, rtol=1e-9)
        assert 12.09 < result.statistic < 12.10
        assert_allclose(result.p_value, math.erfc(math.sqrt(want_chi2 / 2)), rtol=1e-9)
        chi2, p = hand_logrank(a, b)
        assert_allclose(result.statistic, chi2, rtol=1e-12)
        assert_allclose(result.p_value, p, rtol=1e-12)

    def test_matches_hand_computation_on_random_inputs(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            na, nb = rng.integers(3, 10, size=2)
            a = Labels(rng.integers(1, 8, na), rng.random(na) < 0.7)
            b = Labels(rng.integers(1, 8, nb), rng.random(nb) < 0.7)
            if not (a.events.any() or b.events.any()):
                continue
            chi2, p = hand_logrank(a, b)
            result = logrank_test(a, b)
            assert_allclose(result.statistic, chi2, atol=1e-12)
            assert_allclose(result.p_value, p, atol=1e-12)

    def test_symmetric_in_group_order(self):
        # O-E flips sign under a swap so chi-square agrees, up to the
        # accumulation order of the variance terms
        a = Labels([1, 3, 5, 9], [1, 1, 0, 1])
        b = Labels([2, 4, 8, 16], [1, 0, 1, 1])
        assert_allclose(logrank_test(a, b).statistic,
                        logrank_test(b, a).statistic, rtol=1e-12)

    def test_six_subject_hand_value(self):
        # a: deaths at 1, 2 and censoring at 3; b: deaths at 4, 5 and
        # censoring at 6. Walking the four death times:
        #   t=1: n=6, n_a=3: O-E adds 1 - 3/6 = 1/2, V adds (3/6)(3/6)(5/5) = 1/4
        #   t=2: n=5, n_a=2: O-E adds 1 - 2/5 = 3/5, V adds (2/5)(3/5)(4/4) = 6/25
        #   t=4, t=5: group a has nobody left at risk (its last subject
        #   censored at 3), so n_a = 0 and both terms vanish
        # O - E = 11/10, V = 49/100, chi-square = (121/100)/(49/100) = 121/49
        a = Labels([1, 2, 3], [1, 1, 0])
        b = Labels([4, 5, 6], [1, 1, 0])
        result = logrank_test(a, b)
        assert_allclose(result.statistic, 121.0 / 49.0, rtol=1e-12)
        assert_allclose(result.statistic, hand_logrank(a, b)[0], rtol=1e-12)

    def test_zero_variance_gives_zero_statistic(self):
        # the only death (t=5) has both subjects still at risk in group a,
        # so each hypergeometric variance term vanishes
        result = logrank_test(Labels([5, 6], [1, 0]), Labels([1, 2], [0, 0]))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_no_events(self):
        with pytest.raises(NoEventsError):
            logrank_test(Labels([1], [0]), Labels([2], [0]))

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            logrank_test(Labels([], []), Labels([1], [1]))

    @settings(max_examples=150)
    @given(cohorts(min_n=1, max_n=40), cohorts(min_n=1, max_n=40))
    def test_matches_event_time_loop_exactly(self, cohort_a, cohort_b):
        a, b = cohort_a[1], cohort_b[1]
        assert outcome(logrank_test, a, b) == outcome(loop_logrank_test, a, b)


class TestNri:
    cut = DEFAULTS["nri_threshold"]  # the study's threshold

    def test_identity_is_zero(self):
        labels = Labels([1, 2, 3, 4], [1, 1, 0, 0])
        scores = np.array([0.9, 0.3, 0.8, 0.1])
        result = nri(scores, scores, labels, self.cut)
        assert result.nri == 0.0
        assert (result.event_up, result.event_down) == (0, 0)

    def test_single_event_reclassified_up(self):
        # 10 events, 10 nonevents; the new model moves exactly one event
        # across the 0.7 line and touches nothing else: NRI = 1/10 = +0.1
        labels = Labels(list(range(1, 11)) + list(range(100, 110)),
                      [1] * 10 + [0] * 10)
        old = np.full(20, 0.5)
        new = old.copy()
        new[0] = 0.8
        result = nri(old, new, labels, self.cut)
        assert result.nri == 0.1
        assert result.event_up == 1
        assert result.n_events == 10 and result.n_nonevents == 10

    def test_antisymmetry(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            n = 14
            labels = Labels(rng.integers(1, 9, n), [1] * 7 + [0] * 7)
            old = rng.random(n)
            new = rng.random(n)
            assert nri(old, new, labels, self.cut).nri == -nri(new, old, labels, self.cut).nri

    def test_threshold_boundary_counts_as_high(self):
        labels = Labels([1, 2], [1, 0])
        # score exactly at the threshold is already high risk, so moving
        # from 0.7 to 0.9 is not a reclassification
        result = nri(np.array([0.7, 0.1]), np.array([0.9, 0.1]), labels, self.cut)
        assert result.nri == 0.0
        # but moving from just under to exactly the threshold is
        result = nri(np.array([0.69, 0.1]), np.array([0.7, 0.1]), labels, self.cut)
        assert result.event_up == 1

    def test_custom_threshold(self):
        labels = Labels([1, 2], [1, 0])
        result = nri(np.array([0.2, 0.1]), np.array([0.4, 0.1]), labels, threshold=0.3)
        assert result.event_up == 1
        assert result.threshold == 0.3

    def test_requires_both_outcomes(self):
        with pytest.raises(NoEventsError):
            nri(np.zeros(2), np.zeros(2), Labels([1, 2], [0, 0]), self.cut)
        with pytest.raises(NoNoneventsError):
            nri(np.zeros(2), np.zeros(2), Labels([1, 2], [1, 1]), self.cut)

    def test_length_mismatch(self):
        with pytest.raises(MismatchedLengthsError):
            nri(np.zeros(3), np.zeros(2), Labels([1, 2], [1, 0]), self.cut)


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
    """Full 2^n enumeration of the signed-rank null; doubled ranks stay integral."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = len(d)
    ranks2 = np.rint(2.0 * midranks(np.abs(d))).astype(int)
    w_obs = int(ranks2[d > 0].sum())
    total = 2 ** n
    geq = leq = 0
    for mask in range(total):
        w = 0
        for i in range(n):
            if (mask >> i) & 1:
                w += ranks2[i]
        if w >= w_obs:
            geq += 1
        if w <= w_obs:
            leq += 1
    return min(1.0, 2.0 * min(geq / total, leq / total))


class TestWilcoxon:
    def test_all_positive_small_sample(self):
        # n=6, all positive, distinct: W = 21, one-sided 1/64, two-sided 1/32
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert result.statistic == 21.0
        assert result.p_value == 2.0 / 64.0
        assert result.method == "wilcoxon-signed-rank-exact"

    def test_balanced_differences_are_insignificant(self):
        result = wilcoxon_signed_rank([3.0, -3.0, 5.0, -5.0, 7.0, -7.0])
        assert result.p_value > 0.9

    def test_exact_matches_enumeration(self):
        rng = np.random.default_rng(202)
        done = 0
        while done < 50:
            n = int(rng.integers(5, 11))
            diffs = rng.integers(-5, 6, size=n).astype(float)
            if np.count_nonzero(diffs) < 5:
                continue
            want = enumerate_wilcoxon(diffs)
            got = wilcoxon_signed_rank(diffs)
            assert got.method == "wilcoxon-signed-rank-exact"
            assert_allclose(got.p_value, want, rtol=1e-12)
            done += 1

    def test_zeros_are_dropped(self):
        with_zeros = wilcoxon_signed_rank([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0])
        without = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0])
        assert with_zeros.p_value == without.p_value

    @settings(max_examples=200)
    @given(st.sampled_from([1, 2, 3, 10**6]).flatmap(
        lambda levels: st.lists(st.integers(0, levels - 1), min_size=1, max_size=40)))
    def test_midranks_match_the_loop_under_heavy_ties(self, values):
        ranks, tie_counts = metrics._midranks(np.array(values, dtype=float))
        assert ranks.tolist() == midranks(values).tolist()
        assert tie_counts.tolist() == [values.count(v) for v in sorted(set(values))]

    def test_too_few_nonzero(self):
        with pytest.raises(TooFewPairsError):
            wilcoxon_signed_rank([0.0, 0.0, 1.0, -2.0, 3.0, 0.0])

    def test_large_sample_uses_normal_approximation(self):
        rng = np.random.default_rng(11)
        diffs = rng.standard_normal(60) + 1.5
        result = wilcoxon_signed_rank(diffs)
        assert result.method == "wilcoxon-signed-rank-normal"
        assert result.p_value < 1e-6

    def test_normal_approximation_close_to_exact_at_cutover(self):
        rng = np.random.default_rng(8)
        diffs = rng.standard_normal(20) + 0.3
        exact = wilcoxon_signed_rank(diffs, exact_threshold=20)
        approx = wilcoxon_signed_rank(diffs, exact_threshold=10)
        assert exact.method == "wilcoxon-signed-rank-exact"
        assert approx.method == "wilcoxon-signed-rank-normal"
        assert abs(exact.p_value - approx.p_value) < 0.02

