"""Hypothesis strategies, cohort builders, comparisons and the partial
likelihood of per-subject scores, shared by the tests."""

import numpy as np
from hypothesis import strategies as st

from survfuse.cox_linear import _check_finite, _event_table, _loglik_and_eta_grad
from survfuse.dataset import BINARY_FIELDS, Dataset, Labels
from survfuse.rsf import SurvivalTree


@st.composite
def survival_arrays(draw, min_n=1, max_n=25, time_levels=(1, 2, 4, 10**6)):
    """(times, events) arrays with optional heavy time ties and heavy censoring;
    the times are drawn from 1..L for one L of ``time_levels``."""
    n = draw(st.integers(min_n, max_n))
    time_levels = draw(st.sampled_from(time_levels))
    event_pct = draw(st.sampled_from([0, 5, 30, 90, 100]))
    times = draw(st.lists(st.integers(1, time_levels), min_size=n, max_size=n))
    events = [u < event_pct for u in draw(st.lists(st.integers(0, 99), min_size=n, max_size=n))]
    return np.array(times, dtype=float), np.array(events, dtype=bool)


TREE_ARRAYS = ("feature", "threshold", "left", "right", "leaf_slot", "leaf_mortality")


def assert_same_trees(got, want):
    """Every array of every tree equal, dtype included; NaN equals NaN."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in TREE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype
            assert np.array_equal(x, y, equal_nan=True), name


def route_levelwise(tree, X):
    """The node each row of ``X`` ends at, every row stepped down one level
    at a time: the prediction oracle for ``rsf._leaves``, which routes the
    rows by node partition."""
    pos = np.zeros(X.shape[0], dtype=int)
    while True:
        feats = tree.feature[pos]
        active = np.nonzero(feats >= 0)[0]
        if active.size == 0:
            return pos
        node = pos[active]
        vals = X[active, tree.feature[node]]
        pos[active] = np.where(vals <= tree.threshold[node],
                               tree.left[node], tree.right[node])


@st.composite
def preorder_trees(draw, n_features, thresholds, mortalities, max_depth=5):
    """A ``SurvivalTree`` laid out in preorder as ``rsf._grow_tree`` lays
    it out, with thresholds and leaf mortalities drawn from the given
    strategies."""
    feature, threshold, left, right, leaf_slot, mortality = [], [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        leaf_slot.append(-1)
        if depth < max_depth and draw(st.booleans()):
            feature[node] = draw(st.integers(0, n_features - 1))
            threshold[node] = draw(thresholds)
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        else:
            leaf_slot[node] = len(mortality)
            mortality.append(draw(mortalities))
        return node

    grow(0)
    return SurvivalTree(feature=np.array(feature, dtype=int),
                        threshold=np.array(threshold, dtype=float),
                        left=np.array(left, dtype=int), right=np.array(right, dtype=int),
                        leaf_slot=np.array(leaf_slot, dtype=int),
                        leaf_mortality=np.array(mortality, dtype=float))


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, NaN equals NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """``(result, None)``, or ``(None, (class, message, row index))`` if it raised."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc), getattr(exc, "row_index", None))


def values_row(age=60.0, **flags):
    """A values-matrix row; ``None`` is missing, and flags not given are 0."""
    row = [age, *(flags.get(f, False) for f in BINARY_FIELDS)]
    return [np.nan if v is None else float(v) for v in row]


def make_dataset(rows, times=None, events=None, pids=None, imputation=None):
    """A dataset of values rows, by default patients P0, P1, ... with an
    event at days 1, 2, ... and unknown RV status."""
    n = len(rows)
    return Dataset(
        patient_ids=tuple(pids if pids is not None else (f"P{i}" for i in range(n))),
        values=np.array(rows, dtype=float).reshape(n, 1 + len(BINARY_FIELDS)),
        labels=Labels(np.arange(1.0, n + 1) if times is None else times,
                      np.ones(n, dtype=bool) if events is None else events),
        rv_dysfunction=np.full(n, np.nan),
        imputation=imputation,
    )


def partial_loglik_eta(eta, labels: Labels, tie_method: str = "efron"):
    """``(loglik, d loglik / d eta)`` of the per-subject scores ``eta``, in
    subject order; non-finite scores and a cohort without events raise."""
    eta = np.asarray(eta, dtype=float)
    _check_finite(eta, "eta")
    return _loglik_and_eta_grad(eta, _event_table(labels), tie_method)
