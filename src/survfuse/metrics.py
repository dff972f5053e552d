"""Evaluation statistics for censored survival predictions.

Everything here is implemented from the definitions: Harrell's concordance
over comparable pairs, percentile bootstrap intervals, the Kaplan-Meier
product-limit curve, the two-sample log-rank test, the net reclassification
improvement, and the Wilcoxon signed-rank test with an exact small-sample
null distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import EventTable, Labels, percentiles
from .errors import (
    DegenerateResamplingError,
    EmptyGroupError,
    MismatchedLengthsError,
    NoComparablePairsError,
    NoEventsError,
    NoNoneventsError,
    TooFewPairsError,
    TooFewResamplesError,
)

# give up on a bootstrap after this many invalid draws in a row
_MAX_REDRAWS = 100

# resamples, or event rows, per working block of the batched bootstrap: its
# temporary memory is then O(block x subjects), whatever the resample and
# event counts
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str


@dataclass(frozen=True)
class KmPoint:
    time: float
    survival: float
    at_risk: int
    events: int


@dataclass(frozen=True)
class KmCurve:
    points: tuple[KmPoint, ...]


@dataclass(frozen=True)
class NriResult:
    nri: float
    event_up: int
    event_down: int
    nonevent_up: int
    nonevent_down: int
    n_events: int
    n_nonevents: int
    threshold: float


def c_index(scores, labels: Labels) -> float:
    """Harrell's concordance index.

    A pair (i, j) is comparable when subject i has an observed event strictly
    before j's time. Concordant pairs (higher score for the earlier event)
    count 1, score ties count 1/2. The value is ``weighted_c_index`` under
    one all-ones row of weights, which raises ``NoComparablePairsError``
    when no pair is comparable.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size != len(labels):
        raise MismatchedLengthsError(f"{s.size} scores for {len(labels)} labels")
    return float(weighted_c_index(s, labels, np.ones((1, s.size), dtype=np.uint8))[0])


def resample_weights(rng: np.random.Generator, labels: Labels,
                     n_resamples: int) -> np.ndarray:
    """Multiplicity matrix, shape ``(n_resamples, n)``, of bootstrap resamples.

    Row r counts how often each subject is drawn in resample r, in the
    smallest unsigned integer type that holds n. Every attempt
    is one ``rng.integers(0, n, size=n)`` draw. An attempt without a
    comparable pair (no drawn event before the largest drawn time) is skipped
    and the next attempt takes its place; ``_MAX_REDRAWS`` invalid attempts
    in a row raise. Attempts are drawn a block at a time with one
    ``integers`` call of shape ``(k, n)``, which consumes the generator
    exactly as k calls of size n do.
    """
    t, e = labels.times, labels.events
    n = t.size
    weights = np.empty((n_resamples, n), dtype=np.min_scalar_type(n))
    filled = invalid_run = 0
    while filled < n_resamples:
        idx = rng.integers(0, n, size=(min(_BLOCK_ROWS, n_resamples - filled), n))
        drawn = t[idx]
        valid = (e[idx] & (drawn < drawn.max(axis=1, keepdims=True))).any(axis=1)
        # length of the run of invalid attempts ending at each attempt
        pos = np.arange(valid.size)
        last_valid = np.maximum.accumulate(np.where(valid, pos, -1))
        run = np.where(last_valid >= 0, pos - last_valid, pos + 1 + invalid_run)
        hopeless = np.flatnonzero(run >= _MAX_REDRAWS)
        if hopeless.size:
            r = filled + int(valid[: hopeless[0]].sum())
            raise DegenerateResamplingError(
                f"resample {r}: no valid draw in {_MAX_REDRAWS} attempts"
            )
        kept = idx[valid]
        offsets = n * np.arange(kept.shape[0])[:, None]
        counts = np.bincount((kept + offsets).ravel(), minlength=kept.size)
        weights[filled : filled + kept.shape[0]] = counts.reshape(kept.shape)
        filled += kept.shape[0]
        invalid_run = int(run[-1])
    return weights


def weighted_c_index(scores, labels: Labels, weights) -> np.ndarray:
    """Harrell's concordance of ``scores`` under each row of subject weights.

    Row r of ``weights`` holds each subject's multiplicity, as from
    ``resample_weights``; an all-ones row gives ``c_index``. Over event rows
    i, ``later[i, j] = t_i < t_j`` marks the comparable pairs and
    ``credit = later * ([s_i > s_j] + 0.5 [s_i = s_j])`` their concordance,
    so for weights w with event part w_E the value is
    ``sum(w_E * (w @ credit.T)) / sum(w_E * (w @ later.T))``. With the
    multiplicities of a resample every sum is an integer or half-integer
    below n**2, far below 2**53, so the value equals ``c_index`` on the
    expanded resample bit for bit.
    Resamples and event rows are taken in blocks of ``_BLOCK_ROWS``, one
    matmul per pair of blocks.
    """
    s = np.asarray(scores, dtype=float)
    w = np.asarray(weights)
    if s.ndim != 1 or s.size != len(labels) or w.ndim != 2 or w.shape[1] != s.size:
        raise MismatchedLengthsError(
            f"{s.size} scores, {len(labels)} labels and weights of shape {w.shape}"
        )
    t = labels.times
    events = np.flatnonzero(labels.events)
    totals = np.zeros((w.shape[0], 2))  # weighted comparable pairs, concordance credit
    for a in range(0, events.size, _BLOCK_ROWS):
        ev = events[a : a + _BLOCK_ROWS]
        later = t[ev, None] < t
        credit = later * ((s[ev, None] > s) + 0.5 * (s[ev, None] == s))
        both = np.concatenate([later, credit]).T
        for b in range(0, w.shape[0], _BLOCK_ROWS):
            block = w[b : b + _BLOCK_ROWS].astype(float)
            sums = (block @ both).reshape(block.shape[0], 2, ev.size)
            totals[b : b + _BLOCK_ROWS] += (sums * block[:, None, ev]).sum(axis=2)
    if not (totals[:, 0] > 0).all():
        raise NoComparablePairsError("a weighting has no (event, later-time) pair")
    return totals[:, 1] / totals[:, 0]


def bootstrap_ci(scores, labels: Labels, n_resamples: int,
                 seed: int = 0) -> tuple[float, float]:
    """Percentile 95% interval (2.5th/97.5th) of ``c_index`` under resampling.

    Patients are drawn with replacement by ``resample_weights`` (a resample
    without comparable pairs is redrawn, up to a bounded number of attempts)
    and all resamples are scored at once by ``weighted_c_index``.
    """
    if n_resamples < 100:
        raise TooFewResamplesError(f"need at least 100 resamples, got {n_resamples}")
    s = np.asarray(scores, dtype=float)
    if s.size != len(labels):
        raise MismatchedLengthsError(f"{s.size} scores for {len(labels)} labels")
    weights = resample_weights(np.random.default_rng(seed), labels, n_resamples)
    lo, hi = percentiles(weighted_c_index(s, labels, weights), [2.5, 97.5])
    return float(lo), float(hi)


def km_curve(labels: Labels) -> KmCurve:
    """Kaplan-Meier product-limit estimate, one point per distinct event time."""
    if not labels:
        raise EmptyGroupError("cannot estimate a survival curve for an empty group")
    table = labels.table
    survival = np.cumprod(1.0 - table.deaths / table.at_risk)
    return KmCurve(points=tuple(
        KmPoint(time=v, survival=s, at_risk=n, events=d)
        for v, s, n, d in zip(table.event_times.tolist(), survival.tolist(),
                              table.at_risk.tolist(), table.deaths.tolist())))


def logrank_test(labels_a: Labels, labels_b: Labels) -> TestResult:
    """Two-sample log-rank test (chi-square statistic, 1 degree of freedom).

    Observed-minus-expected deaths of group a and the hypergeometric
    variance are summed over the pooled event times in time order.
    """
    if not labels_a or not labels_b:
        raise EmptyGroupError("both groups need at least one subject")
    if not (labels_a.events.any() or labels_b.events.any()):
        raise NoEventsError("log-rank test needs at least one event")
    table = EventTable(np.concatenate([labels_a.times, labels_b.times]),
                       np.concatenate([labels_a.events, labels_b.events]))
    n, deaths = table.at_risk, table.deaths
    n_a, deaths_a = table.subgroup_counts(np.arange(table.times.size) < len(labels_a))
    share_a = n_a / n
    variance_terms = np.where(
        n > 1, deaths * share_a * (1.0 - share_a) * (n - deaths) / np.maximum(n - 1, 1), 0.0
    )
    # running sums, so the rounding is that of adding event time by event time
    observed_minus_expected = float(np.cumsum(deaths_a - deaths * n_a / n)[-1])
    variance = float(np.cumsum(variance_terms)[-1])
    if variance <= 0.0:
        return TestResult(statistic=0.0, p_value=1.0, method="logrank")
    chi2 = observed_minus_expected ** 2 / variance
    # chi-square(1) upper tail via the complementary error function
    p = math.erfc(math.sqrt(chi2 / 2.0))
    return TestResult(statistic=float(chi2), p_value=float(p), method="logrank")


def nri(old_scores, new_scores, labels: Labels, threshold: float) -> NriResult:
    """Net reclassification improvement at a fixed risk threshold.

    Scores at or above the threshold are "high risk". Events moving up and
    non-events moving down count in favor of the new model. Scores must
    already live on the scale the threshold refers to; callers fusing models
    with unbounded linear predictors should map them through
    ``deep_survival.sigmoid`` first so a single threshold serves every model.
    """
    old = np.asarray(old_scores, dtype=float)
    new = np.asarray(new_scores, dtype=float)
    if old.size != new.size or old.size != len(labels):
        raise MismatchedLengthsError(
            f"old ({old.size}), new ({new.size}) and labels ({len(labels)}) must align"
        )
    e = labels.events
    n_events = int(e.sum())
    n_nonevents = int((~e).sum())
    if n_events == 0:
        raise NoEventsError("NRI needs at least one event")
    if n_nonevents == 0:
        raise NoNoneventsError("NRI needs at least one non-event")

    up = (old < threshold) & (new >= threshold)
    down = (old >= threshold) & (new < threshold)
    event_up = int((up & e).sum())
    event_down = int((down & e).sum())
    nonevent_up = int((up & ~e).sum())
    nonevent_down = int((down & ~e).sum())
    value = (event_up - event_down) / n_events + (nonevent_down - nonevent_up) / n_nonevents
    return NriResult(
        nri=float(value),
        event_up=event_up,
        event_down=event_down,
        nonevent_up=nonevent_up,
        nonevent_down=nonevent_down,
        n_events=n_events,
        n_nonevents=n_nonevents,
        threshold=threshold,
    )


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n with ties sharing the average of their positions, and the
    size of each group of tied values."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    first = last - (counts - 1)
    return ((first + last) / 2.0 + 1.0)[group], counts


def _exact_signed_rank_p(ranks: np.ndarray, w_positive: float) -> float:
    """Two-sided exact p by counting sign assignments.

    Doubling the midranks makes them integers, so the full 2^n sign-flip
    distribution of the positive-rank sum is a subset-sum count, built here
    by dynamic programming. Counts stay below 2^n <= 2^20, exact in float64.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts += shifted
    n_patterns = 2.0 ** ranks.size
    w2 = int(np.rint(2.0 * w_positive))
    p_geq = counts[w2:].sum() / n_patterns
    p_leq = counts[: w2 + 1].sum() / n_patterns
    return min(1.0, 2.0 * min(p_geq, p_leq))


def wilcoxon_signed_rank(diffs, exact_threshold: int = 20) -> TestResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped; absolute values are mid-ranked. With at
    most ``exact_threshold`` nonzero pairs the p-value is exact (full sign
    enumeration); beyond that a tie-corrected normal approximation with
    continuity correction is used. Fewer than 5 nonzero pairs raises.
    """
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    n = d.size
    if n < 5:
        raise TooFewPairsError(f"need at least 5 nonzero differences, got {n}")
    ranks, tie_counts = _midranks(np.abs(d))
    w_positive = float(ranks[d > 0].sum())
    if n <= exact_threshold:
        p = _exact_signed_rank_p(ranks, w_positive)
        method = "wilcoxon-signed-rank-exact"
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        var -= float((tie_counts.astype(float) ** 3 - tie_counts).sum()) / 48.0
        if var <= 0:
            return TestResult(statistic=w_positive, p_value=1.0,
                              method="wilcoxon-signed-rank-normal")
        centered = w_positive - mean
        z = (centered - 0.5 * np.sign(centered)) / math.sqrt(var)
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
        method = "wilcoxon-signed-rank-normal"
    return TestResult(statistic=w_positive, p_value=float(p), method=method)
