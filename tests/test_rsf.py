import math
import os
import signal
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from survfuse import forks as fork_module, rsf
from survfuse.dataset import EventTable, Labels
from survfuse.errors import (
    DegenerateDataError,
    DimensionMismatchError,
    EmptyGroupError,
    NoEventsError,
    NonFiniteInputError,
)
from survfuse.metrics import c_index, logrank_test
from survfuse.rsf import (
    ForestModel,
    _best_split,
    _grow_tree,
    _leaf_mortality,
    _node_counts,
    _node_statistics,
    _prefix_split_scores,
    _score_bounds,
    _sparse_split_scores,
    _survivors,
    _variance_bounds,
    fit_forest,
    predict_risk,
)

from conftest import assert_no_child
from defaults import rsf_options
from strategies import (
    assert_same_trees,
    preorder_trees,
    route_levelwise,
    same_bits,
    survival_arrays,
)

# block sizes of the split search's at-risk counts and of its variance
# sweep under test: the small ones put candidate positions on, before and
# after block edges
SPLIT_BLOCKS = (1, 3, 7, rsf._SPLIT_BLOCK)
SWEEP_BLOCKS = (1, 3, 7, rsf._SWEEP_BLOCK)


def surv_data(rng, n, d, beta, censor=0.2):
    X = rng.standard_normal((n, d))
    risk = X @ np.asarray(beta)
    times = rng.exponential(np.exp(-risk))
    events = rng.random(n) > censor
    if not events.any():
        events[0] = True
    return X, Labels(times, events)


def loop_nelson_aalen(t, e):
    """The leaf hazard as ``rsf`` computed it before the event-time table,
    kept as its oracle: dense (event time x subject) comparisons."""
    grid = np.unique(t[e])
    if grid.size == 0:
        return grid, np.zeros(0)
    at_risk = (t[None, :] >= grid[:, None]).sum(axis=1).astype(float)
    deaths = ((t[None, :] == grid[:, None]) & e[None, :]).sum(axis=1).astype(float)
    return grid, np.cumsum(deaths / at_risk)


def chf_at(times: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """A step function given at ``times`` read at each ``query`` time, 0.0
    before the first; the leaf hazard's read on the forest grid before the
    grid ranks, kept as an oracle."""
    idx = np.searchsorted(times, query, side="right") - 1
    out = np.zeros(query.size)
    hit = idx >= 0
    out[hit] = values[idx[hit]]
    return out


def table_node_statistics(t, e, forest_grid):
    """A node's ``(n_e, k_e, resid, ranks)`` and leaf mortality from the
    node's own ``EventTable``, as ``rsf`` computed them before the forest-grid
    ranks; kept as their oracle. The split search, and so the statistics,
    only ever met nodes with an event: without one they are ``None``."""
    table = EventTable(t, e)
    chf = np.cumsum(table.deaths / table.at_risk)
    mortality = float(chf_at(table.event_times, chf, forest_grid).sum())
    if not e.any():
        return None, mortality
    n_e = table.at_risk.astype(float)
    d_e = table.deaths.astype(float)
    k_e = np.where(n_e > 1, d_e * (n_e - d_e) / (n_e ** 2 * np.maximum(n_e - 1, 1.0)), 0.0)
    na = np.cumsum(d_e / n_e)
    ranks = np.searchsorted(table.event_times, t, side="right")
    resid = e.astype(float) - np.where(ranks > 0, na[np.maximum(ranks - 1, 0)], 0.0)
    return (n_e, k_e, resid, ranks), mortality


def node_statistics(t, e, forest_grid=None):
    """``rsf._node_statistics`` of a node of subjects ``t``, ``e``, on the
    grid of its own event times unless a forest grid holding them is given."""
    grid = np.unique(t[e]) if forest_grid is None else forest_grid
    grid_ranks = np.searchsorted(grid, t, side="right")
    return _node_statistics(grid_ranks, e, _node_counts(grid_ranks, e, grid.size))


def best_split(X, t, e, candidates, min_leaf):
    """``rsf._best_split`` of a node of subjects ``X``, ``t``, ``e``, called as
    ``_grow_tree`` calls it."""
    return _best_split(X[:, candidates], candidates, node_statistics(t, e), min_leaf)


def loop_node_statistics(t, e):
    """``rsf._node_statistics`` before the event-time table, with the dense
    float (event times x node size) at-risk matrix the split search read;
    kept as the oracle of the node statistics and of the split search."""
    grid = np.unique(t[e])
    at_risk = t[None, :] >= grid[:, None]
    n_e = at_risk.sum(axis=1).astype(float)
    d_e = ((t[None, :] == grid[:, None]) & e[None, :]).sum(axis=1).astype(float)
    k_e = np.where(n_e > 1, d_e * (n_e - d_e) / (n_e ** 2 * np.maximum(n_e - 1, 1.0)), 0.0)
    na = np.cumsum(d_e / n_e)
    gidx = np.searchsorted(grid, t, side="right") - 1
    resid = e.astype(float) - np.where(gidx >= 0, na[np.maximum(gidx, 0)], 0.0)
    return at_risk.astype(float), n_e, k_e, resid


def dense_prefix_split_scores(at_risk, n_e, k_e, resid, order, cand):
    """``rsf._prefix_split_scores`` on the dense at-risk matrix, kept as its oracle."""
    prefix_resid = np.cumsum(resid[order])
    n_left = np.cumsum(at_risk[:, order], axis=1)
    var = (k_e[:, None] * n_left * (n_e[:, None] - n_left)).sum(axis=0)
    var_c = var[cand]
    scores = np.zeros(cand.size)
    ok = var_c > 0
    scores[ok] = np.abs(prefix_resid[cand[ok]]) / np.sqrt(var_c[ok])
    return scores


def sorted_node(t, e, order):
    """Node statistics with the grid ranks and prefix residual sums of the
    subjects in ``order``, as rows of one feature."""
    n_e, k_e, resid, ranks = node_statistics(t, e)
    return ranks[order][None], np.cumsum(resid[order])[None], n_e, k_e


def split_candidates(v, min_leaf):
    """Stable order of a feature and the admissible split positions in it."""
    order = np.argsort(v, kind="stable")
    vs = v[order]
    positions = np.arange(min_leaf - 1, v.size - min_leaf)
    return order, vs, positions[vs[positions] < vs[positions + 1]]


def dense_best_split(X_node, t_node, e_node, candidates, min_leaf):
    """``rsf._best_split`` on the dense at-risk matrix, kept as its oracle."""
    m = t_node.size
    if not e_node.any():
        return None
    stats = loop_node_statistics(t_node, e_node)
    if m - min_leaf - 1 < min_leaf - 1:
        return None
    best_score = 0.0
    best = None
    for f in candidates:
        order, vs, cand = split_candidates(X_node[:, f], min_leaf)
        if cand.size == 0:
            continue
        scores = dense_prefix_split_scores(*stats, order, cand)
        j = int(np.argmax(scores))
        if scores[j] > best_score:
            best_score = float(scores[j])
            best = (int(f), float((vs[cand[j]] + vs[cand[j] + 1]) / 2.0))
    return best


def prefix_split_scores_from_zero(ranks, prefix_resid, n_e, k_e, stop):
    """``rsf._prefix_split_scores`` as it was before it started at the first
    admissible position: every position ``c < stop``, from int32 counts
    carried from position 0; kept as its oracle."""
    grid_index = np.arange(n_e.size)
    var = np.empty((ranks.shape[0], stop))
    block = max(1, rsf._SPLIT_BLOCK // ranks.shape[0])
    carry = 0
    for lo in range(0, stop, block):
        n_left = (ranks[:, lo:min(lo + block, stop), None] > grid_index).astype(np.int32)
        n_left[:, 0] += carry
        np.cumsum(n_left, axis=1, out=n_left)
        carry = n_left[:, -1]
        var[:, lo:lo + n_left.shape[1]] = (k_e * n_left * (n_e - n_left)).sum(axis=2)
    scores = np.zeros(var.shape)
    ok = var > 0
    scores[ok] = np.abs(prefix_resid[:, :stop][ok]) / np.sqrt(var[ok])
    return scores


def loop_best_split(X_cand, candidates, stats, min_leaf):
    """``rsf._best_split`` as it was before the masked argmax: a Python loop
    over the features that keeps a strictly greater score, a node below
    ``_BOUND_MIN`` reading every position's dense score from position 0;
    kept as its oracle."""
    n_e, k_e, resid, node_ranks = stats
    m = node_ranks.size
    if n_e.size == 0:
        return None
    lo, hi = min_leaf - 1, m - min_leaf - 1
    if hi < lo:
        return None
    values = X_cand.T
    orders = np.argsort(values, axis=1, kind="stable")
    vs = np.take_along_axis(values, orders, axis=1)
    ranks = node_ranks[orders]
    prefix_resid = np.cumsum(resid[orders], axis=1)
    positions = np.arange(lo, hi + 1)
    admissible = vs[:, lo:hi + 1] < vs[:, lo + 1:hi + 2]
    few = admissible.sum(axis=1) <= rsf._FEW_CANDIDATES
    if not few.all():
        row = np.cumsum(~few) - 1
        if m < rsf._BOUND_MIN:
            dense = prefix_split_scores_from_zero(ranks[~few], prefix_resid[~few], n_e, k_e,
                                                  hi + 1)
        else:
            bound_lo, bound_hi = _score_bounds(ranks[~few], prefix_resid[~few], n_e, k_e)
    best_score = 0.0
    best = None
    for j, f in enumerate(candidates):
        cand = positions[admissible[j]]
        if few[j]:
            if cand.size == 0:
                continue
            scores = _sparse_split_scores(ranks[j], prefix_resid[j], n_e, k_e, cand)
        elif m < rsf._BOUND_MIN:
            scores = dense[row[j], cand]
        else:
            cand = _survivors(cand, bound_lo[row[j], cand], bound_hi[row[j], cand], best_score)
            if cand.size == 0:
                continue
            scores = _sparse_split_scores(ranks[j], prefix_resid[j], n_e, k_e, cand)
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best = (int(f), float((vs[j, cand[k]] + vs[j, cand[k] + 1]) / 2.0))
    return best


@st.composite
def small_nodes(draw):
    """(X, t, e, min_leaf) of a node below ``_BOUND_MIN`` subjects: tied
    times and feature values, binary, few-valued, constant and copied
    features, nodes without events or whose every score is zero (one time,
    all dead), and min_leaf at both ends of its range. The drawn seed picks
    the sizes, so that shrinking does not pull every node to one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(2, rsf._BOUND_MIN))
    levels = rng.choice([1, 3, 40, m])
    t = rng.integers(1, levels + 1, m).astype(float)
    e = rng.random(m) < rng.choice([0.0, 0.05, 0.3, 0.9, 1.0])
    columns = []
    for kind in rng.choice(["continuous", "binary", "levels", "constant", "copy"],
                           size=rng.integers(1, 8)):
        if kind == "copy" and columns:
            columns.append(columns[-1])
        elif kind == "binary":
            columns.append(rng.integers(0, 2, m).astype(float))
        elif kind == "levels":
            columns.append(rng.integers(0, 5, m).astype(float))
        elif kind == "constant":
            columns.append(np.full(m, rng.standard_normal()))
        else:
            columns.append(rng.standard_normal(m) + rng.choice([0.0, 1.0]) * t / levels)
    min_leaf = rng.choice([1, m // 2, rng.integers(1, m // 2 + 1)])
    return np.column_stack(columns), t, e, max(1, int(min_leaf))


@st.composite
def split_nodes(draw):
    """(X, t, e, min_leaf) of one node: heavy time ties and censoring, and
    continuous, binary and constant features."""
    t, e = draw(survival_arrays(min_n=2, max_n=80))
    m = t.size
    columns = []
    for kind in draw(st.lists(st.sampled_from(["continuous", "binary", "constant"]),
                              min_size=1, max_size=4)):
        if kind == "continuous":
            columns.append(draw(st.lists(st.floats(-5, 5), min_size=m, max_size=m)))
        elif kind == "binary":
            columns.append(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
        else:
            columns.append([draw(st.floats(-5, 5))] * m)
    X = np.array(columns, dtype=float).T
    return X, t, e, draw(st.integers(1, m // 2))


@st.composite
def large_nodes(draw):
    """(X, t, e, min_leaf) of a node of 200-1500 subjects: all times tied,
    a few time levels or none tied, any share of events, and continuous,
    binary, few-valued, duplicated and mirrored features. The drawn seed
    picks the sizes, so that shrinking does not pull every node to one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(200, 1501))
    levels = rng.choice([1, 3, 40, m])
    t = rng.integers(1, levels + 1, m).astype(float)
    e = rng.random(m) < rng.choice([0.05, 0.3, 0.9, 1.0])
    e[rng.integers(m)] = True
    columns = []
    for kind in rng.choice(["continuous", "binary", "levels", "copy", "mirror"],
                           size=rng.integers(1, 5)):
        if kind in ("copy", "mirror") and columns:
            columns.append(columns[-1] if kind == "copy" else -columns[-1])
        elif kind == "binary":
            columns.append(rng.integers(0, 2, m).astype(float))
        elif kind == "levels":
            columns.append(rng.integers(0, 12, m).astype(float))
        else:
            # some features follow the times, so that scores are large
            columns.append(rng.standard_normal(m) + rng.choice([0.0, 1.0]) * t / levels)
    return np.column_stack(columns), t, e, int(rng.choice([1, 15, m // 4]))


def brute_split_scores(X, t, e, candidates, min_leaf):
    """sqrt of the log-rank chi-square at every admissible midpoint split."""
    scores = {}
    for f in candidates:
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = float((lo + hi) / 2.0)
            left = X[:, f] <= thr
            if min(left.sum(), (~left).sum()) < min_leaf:
                continue
            result = logrank_test(Labels(t[left], e[left]), Labels(t[~left], e[~left]))
            scores[(int(f), thr)] = math.sqrt(result.statistic)
    return scores


def serial_fit_forest(X, labels, opts):
    """The event-time grid and trees of ``fit_forest`` as grown before the
    process pool, one stream after another in this process; kept as its oracle."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    times, events = labels.times, labels.events
    order = np.lexsort((events, times))
    Xc, tc, ec = X[order], times[order], events[order]
    grid = np.unique(tc[ec])
    mtry = opts.mtry if opts.mtry is not None else int(np.ceil(np.sqrt(p)))
    trees = []
    for ss in np.random.SeedSequence(opts.seed).spawn(opts.n_trees):
        rng = np.random.default_rng(ss)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(Xc[boot], tc[boot], ec[boot], rng, mtry,
                                opts.min_leaf_size, grid))
    return grid, trees


_grow_trees = rsf._grow_trees
TEST_PID = os.getpid()


def grow_trees_tagged(*share):
    """``rsf._grow_trees`` marking each tree with the id of the process that
    grew it; a forked pool worker inherits it with the patched module."""
    trees = _grow_trees(*share)
    for tree in trees:
        tree.grown_by = os.getpid()
    return trees


def grow_trees_slowly_in_workers(*share):
    """``grow_trees_tagged``, 0.3 s slower in a pool worker, so that the
    caller takes back every chunk a worker has not claimed yet."""
    if os.getpid() != TEST_PID:
        time.sleep(0.3)
    return grow_trees_tagged(*share)


def grow_trees_stuck_in_workers(*share):
    """``rsf._grow_trees``, 10 s slower in a pool worker."""
    if os.getpid() != TEST_PID:
        time.sleep(10.0)
    return _grow_trees(*share)


def idle_worker(fn, n, counter):
    """A pool worker that claims no chunk."""
    return {}


def log_claims(monkeypatch, log, grow):
    """Patch ``rsf._grow_trees`` with ``grow``, and have a pool worker write
    a line to ``log`` for each chunk it claims, before growing it."""
    def grow_and_log(*share):
        if os.getpid() != TEST_PID:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return grow(*share)

    monkeypatch.setattr(rsf, "_grow_trees", grow_and_log)


def wait_for_claims(log, count, timeout=30.0):
    """Wait until the pool's workers have claimed ``count`` chunks, as
    ``log_claims`` logs them."""
    deadline = time.monotonic() + timeout
    while (claimed := len(log.read_text().split()) if log.exists() else 0) < count:
        assert time.monotonic() < deadline, f"workers claimed {claimed} of {count}"
        time.sleep(0.001)


def chunk_growers(model, chunks, f):
    """The process that grew each chunk of forest ``f``; each chunk has one."""
    growers = []
    for g, lo, hi in chunks:
        if g == f:
            by = {tree.grown_by for tree in model.trees[lo:hi]}
            assert len(by) == 1
            growers += list(by)
    return growers


def naive_split_score(left, right):
    """Event-time loop straight from the |O - E| / sqrt(V) definition."""
    t = left.times.tolist() + right.times.tolist()
    e = left.events.tolist() + right.events.tolist()
    n_left_flags = [True] * len(left) + [False] * len(right)
    num = var = 0.0
    for v in sorted({tv for tv, ev in zip(t, e) if ev}):
        n = sum(1 for tv in t if tv >= v)
        n_l = sum(1 for tv, fl in zip(t, n_left_flags) if tv >= v and fl)
        d = sum(1 for tv, ev in zip(t, e) if tv == v and ev)
        d_l = sum(1 for tv, ev, fl in zip(t, e, n_left_flags) if tv == v and ev and fl)
        num += d_l - d * n_l / n
        if n > 1:
            var += d * (n_l / n) * (1 - n_l / n) * (n - d) / (n - 1)
    if var <= 0:
        return 0.0
    return abs(num) / math.sqrt(var)


def split_score(left, right):
    """The split score by its definition: sqrt of the log-rank chi-square."""
    return math.sqrt(logrank_test(left, right).statistic)


def prefix_split_score(left, right):
    """The split score as ``_best_split`` computes it for left | right, by
    both of its exact paths."""
    t = np.concatenate([left.times, right.times])
    e = np.concatenate([left.events, right.events])
    ranks, prefix_resid, n_e, k_e = sorted_node(t, e, np.arange(t.size))
    dense = _prefix_split_scores(ranks, prefix_resid, n_e, k_e, 0, len(left))[0, -1]
    sparse = _sparse_split_scores(ranks[0], prefix_resid[0], n_e, k_e, np.array([len(left) - 1]))
    assert sparse[0] == dense
    return float(dense)


class TestSplitScore:
    def test_symmetric_under_child_swap(self):
        left = Labels([1, 3, 7], [1, 0, 1])
        right = Labels([2, 5, 9], [1, 1, 0])
        assert_allclose(split_score(left, right), split_score(right, left), rtol=1e-12)
        assert_allclose(prefix_split_score(left, right),
                        prefix_split_score(right, left), rtol=1e-12)

    def test_matches_naive_loop_on_random_nodes(self):
        rng = np.random.default_rng(60)
        for _ in range(40):
            nl, nr = rng.integers(2, 9, size=2)
            left = Labels(rng.integers(1, 7, nl), rng.random(nl) < 0.7)
            right = Labels(rng.integers(1, 7, nr), rng.random(nr) < 0.7)
            if not (left.events.any() or right.events.any()):
                continue
            want = naive_split_score(left, right)
            assert_allclose(split_score(left, right), want, atol=1e-12)
            assert_allclose(prefix_split_score(left, right), want, atol=1e-12)

    def test_identical_children_score_zero(self):
        group = Labels([1, 2, 3], [1, 1, 0])
        assert split_score(group, group) == 0.0

    def test_empty_child(self):
        with pytest.raises(EmptyGroupError):
            split_score(Labels([], []), Labels([1], [1]))
        # the split search never proposes an empty child: a constant feature
        # admits no split, and a two-subject node splits one | one
        t = np.array([1.0, 2.0])
        e = np.array([True, False])
        assert best_split(np.zeros((2, 1)), t, e, [0], 1) is None
        assert best_split(np.array([[0.0], [1.0]]), t, e, [0], 1) == (0, 0.5)


class TestNodeStatistics:
    @settings(max_examples=150)
    @given(survival_arrays())
    def test_nelson_aalen_leaf_matches_dense_walk_exactly(self, data):
        # min_leaf_size = n makes the root a leaf holding the whole node
        t, e = data
        # more than 8 grid points, so numpy's pairwise sum is not a plain
        # running sum and a leaf summed in another order would show
        # a forest grid holds every event time of its trees
        grid = np.union1d(t[e], np.append(np.arange(0.5, 12.0, 0.25), 1e6))
        tree = _grow_tree(np.zeros((t.size, 1)), t, e, np.random.default_rng(0), 1, t.size, grid)
        want_times, want_chf = loop_nelson_aalen(t, e)
        assert tree.feature.tolist() == [-1]
        assert tree.leaf_mortality.dtype == np.float64
        assert tree.leaf_mortality.tolist() == [float(chf_at(want_times, want_chf, grid).sum())]

    @settings(max_examples=200)
    @given(survival_arrays(max_n=40), st.lists(st.integers(0, 24), max_size=12))
    def test_grid_rank_counts_match_the_nodes_event_table(self, data, other_times):
        # a node's event times are some of its forest grid's, which holds
        # others too, below, between and above them
        t, e = data
        grid = np.union1d(t[e], np.array(other_times) / 2.0)
        grid_ranks = np.searchsorted(grid, t, side="right")
        counts = _node_counts(grid_ranks, e, grid.size)
        want, want_mortality = table_node_statistics(t, e, grid)
        if want is not None:
            got = _node_statistics(grid_ranks, e, counts)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert same_bits(a, b)
        assert same_bits(_leaf_mortality(counts), want_mortality)

    @settings(max_examples=150)
    @given(survival_arrays())
    def test_node_statistics_match_dense_walk_exactly(self, data):
        t, e = data
        assume(e.any())  # split search only visits nodes with an event
        grid = np.unique(t[e])
        *stats, ranks = node_statistics(t, e)
        at_risk, *want = loop_node_statistics(t, e)
        assert np.array_equal(grid, np.unique(t[e]))
        assert np.array_equal(t[None, :] >= grid[:, None], at_risk)
        assert np.array_equal(ranks[None, :] > np.arange(grid.size)[:, None], at_risk)
        assert len(stats) == len(want)
        for got, expected in zip(stats, want):
            assert np.array_equal(got, expected)


class TestBestSplit:
    def test_picks_the_split_maximizing_logrank_statistic(self):
        rng = np.random.default_rng(59)
        splits = 0
        for _ in range(150):
            m = int(rng.integers(4, 25))
            min_leaf = int(rng.integers(1, m // 2 + 1))
            p = int(rng.integers(1, 4))
            X = rng.integers(0, int(rng.integers(2, 8)), size=(m, p)).astype(float)
            t = rng.integers(1, 6, size=m).astype(float)
            e = rng.random(m) < 0.6
            if not e.any():
                continue
            candidates = rng.permutation(p)
            scores = brute_split_scores(X, t, e, candidates, min_leaf)
            best = max(scores.values(), default=0.0)
            split = best_split(X, t, e, candidates, min_leaf)
            if split is None:
                assert best < 1e-9
                continue
            splits += 1
            # the chosen split is admissible and within rounding of the best
            assert split in scores
            assert scores[split] >= best - 1e-9
        assert splits > 50


    @settings(max_examples=200)
    @given(split_nodes())
    def test_prefix_scores_match_dense_matrix_exactly(self, node):
        # both exact paths: every position at once, and the candidates alone
        X, t, e, min_leaf = node
        assume(e.any())  # split search only scores nodes with an event
        dense_stats = loop_node_statistics(t, e)
        for f in range(X.shape[1]):
            order, _, cand = split_candidates(X[:, f], min_leaf)
            want = dense_prefix_split_scores(*dense_stats, order, cand)
            ranks, prefix_resid, n_e, k_e = sorted_node(t, e, order)
            # a feature with no admissible split scores no position
            stop = cand[-1] + 1 if cand.size else 0
            for block in SPLIT_BLOCKS:
                with mock.patch.object(rsf, "_SPLIT_BLOCK", block):
                    every = _prefix_split_scores(ranks, prefix_resid, n_e, k_e, 0, stop)
                    sparse = _sparse_split_scores(ranks[0], prefix_resid[0], n_e, k_e, cand)
                assert np.array_equal(every[0, cand], want)
                assert np.array_equal(sparse, want)

    @settings(max_examples=200)
    @given(split_nodes(), st.randoms(use_true_random=False))
    def test_matches_dense_matrix_search_exactly(self, node, random):
        # _BOUND_MIN = 0 bounds every node's candidates before scoring them;
        # _FEW_CANDIDATES = 0 sends even a binary feature through the bounds
        X, t, e, min_leaf = node
        candidates = np.array(random.sample(range(X.shape[1]), X.shape[1]))
        want = dense_best_split(X, t, e, candidates, min_leaf)
        for split_block, sweep_block in zip(SPLIT_BLOCKS, SWEEP_BLOCKS):
            for bound_min, few in ((rsf._BOUND_MIN, rsf._FEW_CANDIDATES),
                                   (0, rsf._FEW_CANDIDATES), (0, 0)):
                with mock.patch.multiple(rsf, _SPLIT_BLOCK=split_block,
                                         _SWEEP_BLOCK=sweep_block, _BOUND_MIN=bound_min,
                                         _FEW_CANDIDATES=few):
                    assert best_split(X, t, e, candidates, min_leaf) == want

    @settings(max_examples=300, deadline=None)
    @given(small_nodes(), st.randoms(use_true_random=False))
    def test_small_node_search_is_the_feature_loop(self, node, random):
        # the masked argmax over the dense features picks the split that the
        # per-feature loop's strictly greater rule picked, ties included
        X, t, e, min_leaf = node
        candidates = np.array(random.sample(range(X.shape[1]), X.shape[1]))
        stats = node_statistics(t, e)
        want = loop_best_split(X[:, candidates], candidates, stats, min_leaf)
        for block in SPLIT_BLOCKS:
            with mock.patch.object(rsf, "_SPLIT_BLOCK", block):
                assert _best_split(X[:, candidates], candidates, stats, min_leaf) == want

    @settings(max_examples=150, deadline=None)
    @given(small_nodes())
    def test_prefix_scores_from_lo_are_those_from_zero(self, node):
        X, t, e, min_leaf = node
        assume(e.any())  # split search only scores nodes with an event
        n_e, k_e, resid, node_ranks = node_statistics(t, e)
        orders = np.argsort(X.T, axis=1, kind="stable")
        ranks = node_ranks[orders]
        prefix_resid = np.cumsum(resid[orders], axis=1)
        m = t.size
        for block in SPLIT_BLOCKS:
            with mock.patch.object(rsf, "_SPLIT_BLOCK", block):
                want = prefix_split_scores_from_zero(ranks, prefix_resid, n_e, k_e, m)
                for lo in sorted({0, min_leaf - 1, m // 2, m - 1}):
                    for stop in sorted({lo + 1, m - min_leaf, m}):
                        if stop > lo:
                            got = _prefix_split_scores(ranks, prefix_resid, n_e, k_e, lo, stop)
                            assert same_bits(got, want[:, lo:stop])

    @settings(max_examples=60)
    @given(large_nodes())
    def test_large_nodes_match_dense_matrix_search_exactly(self, node):
        # several sweep blocks, and exact score ties between features
        X, t, e, min_leaf = node
        want = dense_best_split(X, t, e, np.arange(X.shape[1]), min_leaf)
        assert best_split(X, t, e, np.arange(X.shape[1]), min_leaf) == want
        with mock.patch.multiple(rsf, _SWEEP_BLOCK=7, _SPLIT_BLOCK=5):
            assert best_split(X, t, e, np.arange(X.shape[1]), min_leaf) == want

    @settings(max_examples=40)
    @given(large_nodes(), st.sampled_from(SWEEP_BLOCKS))
    def test_sweep_variance_is_within_its_bound(self, node, sweep_block):
        X, t, e, _ = node
        at_risk, n_e, k_e, _ = loop_node_statistics(t, e)
        m, g = t.size, n_e.size
        orders = np.argsort(X.T, axis=1, kind="stable")
        ranks = np.searchsorted(np.unique(t[e]), t, side="right")[orders]
        with mock.patch.object(rsf, "_SWEEP_BLOCK", sweep_block):
            var, err, slack = _variance_bounds(ranks, n_e, k_e)
        for f, order in enumerate(orders):
            # one contiguous row a position, summed as the exact path sums it
            n_left = np.cumsum(at_risk[:, order], axis=1).T.copy()
            exact = (k_e * n_left * (n_e - n_left)).sum(axis=1)
            assert np.all(np.abs(var[f] - exact) <= err[f])
            # the stated bound: _BOUND_SAFETY times the rounding count of
            # the sweep and of the exact path, times A + S
            a = (k_e * n_e * n_left).sum(axis=1)
            s = (k_e * n_left ** 2).sum(axis=1)
            count = (m + 2 * g + sweep_block + 8) * 2.0 ** -53
            assert slack == rsf._BOUND_SAFETY * count
            assert np.all(err[f] >= (1 - 1e-9) * slack * (a + s))

    def test_bounds_leave_few_candidates_to_score(self):
        # E / V stays near the rounding count, so the intervals of distinct
        # scores do not overlap and about one candidate a feature survives
        rng = np.random.default_rng(81)
        survivors, widths = [], []
        for m in (200, 400, 840, 1500):
            t = rng.exponential(1.0, m).round(2)
            e = rng.random(m) < 0.6
            X = rng.standard_normal((m, 4))
            n_e, k_e, resid, node_ranks = node_statistics(t, e)
            orders = np.argsort(X.T, axis=1, kind="stable")
            ranks = node_ranks[orders]
            var, err, _ = _variance_bounds(ranks, n_e, k_e)
            lo, hi = _score_bounds(ranks, np.cumsum(resid[orders], axis=1), n_e, k_e)
            cand = np.arange(14, m - 15)
            for f in range(4):
                widths.append(np.median(err[f, cand] / var[f, cand]))
                survivors.append(_survivors(cand, lo[f, cand], hi[f, cand], 0.0).size)
        assert max(widths) < 1e-9
        assert np.median(survivors) == 1
        assert max(survivors) <= 3

    def test_survivors_reach_the_best_lower_bound_and_best_score(self):
        cand = np.array([3, 4, 5, 6])
        lo = np.array([1.0, 2.0, 1.5, 0.0])
        hi = np.array([2.0, 3.0, 1.9, 2.5])
        # an interval that just reaches the best lower bound may hold the max
        assert _survivors(cand, lo, hi, 0.0).tolist() == [3, 4, 6]
        assert _survivors(cand, lo, hi, 2.5).tolist() == [4, 6]
        # one that cannot beat the best score so far is never scored
        assert _survivors(cand, lo, hi, 2.6).tolist() == [4]
        assert _survivors(cand, lo, hi, 3.5).tolist() == []

    def test_features_that_cannot_win_are_not_scored(self):
        # the first feature orders the times, so no split of the noise
        # feature can reach its score, and only the first is scored exactly
        rng = np.random.default_rng(82)
        m = 600
        t = np.sort(rng.exponential(1.0, m))
        e = rng.random(m) < 0.7
        X = np.column_stack([np.arange(m, dtype=float), rng.standard_normal(m)])
        with mock.patch.object(rsf, "_sparse_split_scores",
                               wraps=rsf._sparse_split_scores) as scored:
            split = best_split(X, t, e, np.array([0, 1]), 15)
        assert split == dense_best_split(X, t, e, np.array([0, 1]), 15)
        assert split[0] == 0
        assert scored.call_count == 1

    def test_temporary_memory_is_linear_in_node_size(self):
        # the at-risk counts of 3000 sorted subjects at their 875 event times
        # take 10.5 MB as one int32 matrix, more than the whole search may use
        rng = np.random.default_rng(74)
        m = 3000
        X = rng.standard_normal((m, 2))
        t = rng.exponential(1.0, m)
        e = rng.random(m) < 0.3
        tracemalloc.start()
        try:
            split = best_split(X, t, e, [0, 1], 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert split is not None
        assert peak < 8e6


class TestFitForest:
    def test_deterministic(self):
        rng = np.random.default_rng(61)
        X, labels = surv_data(rng, 80, 3, (1.0, -0.5, 0.0))
        opts = rsf_options(n_trees=10, min_leaf_size=5, seed=3)
        a = fit_forest(X, labels, opts)
        b = fit_forest(X, labels, opts)
        q = rng.standard_normal((25, 3))
        assert_array_equal(predict_risk(a, q), predict_risk(b, q))
        c = fit_forest(X, labels, rsf_options(n_trees=10, min_leaf_size=5, seed=4))
        assert not np.array_equal(predict_risk(a, q), predict_risk(c, q))

    def test_record_order_invariance(self):
        rng = np.random.default_rng(62)
        X, labels = surv_data(rng, 70, 3, (1.5, 0.0, -1.0))
        # distinct times guarantee the canonical sort is a true inverse
        labels = Labels(labels.times + np.arange(len(labels)) * 1e-9, labels.events)
        perm = rng.permutation(len(labels))
        opts = rsf_options(n_trees=8, min_leaf_size=5, seed=5)
        a = fit_forest(X, labels, opts)
        b = fit_forest(X[perm], labels.take(perm), opts)
        q = rng.standard_normal((20, 3))
        assert_array_equal(predict_risk(a, q), predict_risk(b, q))

    @settings(max_examples=40)
    @given(survival_arrays(min_n=8, max_n=30), st.randoms(use_true_random=False))
    def test_record_order_invariance_under_ties(self, data, random):
        # records sharing (time, event) share features too: the canonical
        # (time, event) sort cannot tell them apart, and needs not
        t, e = data
        rng = np.random.default_rng(random.getrandbits(32))
        _, first, group = np.unique(np.column_stack([t, e]), axis=0,
                                    return_index=True, return_inverse=True)
        X = rng.integers(0, 3, size=(t.size, 2)).astype(float)[first[group.ravel()]]
        perm = np.array(random.sample(range(t.size), t.size))
        opts = rsf_options(n_trees=3, min_leaf_size=2, seed=random.getrandbits(16))
        try:
            a = fit_forest(X, Labels(t, e), opts)
        except NoEventsError:
            return
        b = fit_forest(X[perm], Labels(t[perm], e[perm]), opts)
        assert np.array_equal(a.event_time_grid, b.event_time_grid)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.leaf_mortality, tb.leaf_mortality)
        assert np.array_equal(predict_risk(a, X), predict_risk(b, X))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_trees", [1, 2, 5])
    def test_pool_grows_the_serial_forest(self, monkeypatch, cpus, n_trees):
        monkeypatch.setattr(fork_module, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(rsf, "_CHUNK_WORK", 180)  # two trees per chunk
        monkeypatch.setattr(rsf, "_grow_trees", grow_trees_tagged)
        rng = np.random.default_rng(73)
        X, labels = surv_data(rng, 90, 4, (1.5, -1.0, 0.0, 0.5))
        opts = rsf_options(n_trees=n_trees, min_leaf_size=6, seed=8)
        model = fit_forest(X, labels, opts)
        grid, trees = serial_fit_forest(X, labels, opts)
        assert np.array_equal(model.event_time_grid, grid)
        assert_same_trees(model.trees, trees)
        # each chunk of two trees was grown by one process: this one, which
        # takes back the chunks no worker has claimed, or one of the
        # cpus - 1 workers
        chunks = [(0, lo, min(lo + 2, n_trees)) for lo in range(0, n_trees, 2)]
        workers = set(chunk_growers(model, chunks, 0)) - {os.getpid()}
        assert len(workers) <= min(cpus - 1, len(chunks))
        assert_no_child()

    @pytest.mark.parametrize("cpus,take_back", [
        (1, "all"), (2, "none"), (2, "some"), (2, "all"), (3, "none"), (3, "some"), (3, "all"),
    ])
    def test_caller_takes_back_unclaimed_chunks(self, monkeypatch, tmp_path, cpus, take_back):
        # two forests of uneven chunks in one batch: (0, 2), (2, 4), (4, 5)
        # of the 90-subject forest and (0, 3), (3, 5) of the 60-subject one
        monkeypatch.setattr(fork_module, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(rsf, "_CHUNK_WORK", 180)
        log = tmp_path / "claims.log"
        log_claims(monkeypatch, log, grow_trees_slowly_in_workers
                   if take_back == "some" else grow_trees_tagged)
        if take_back == "all":
            monkeypatch.setattr(fork_module, "_take_tasks", idle_worker)
        rng = np.random.default_rng(75)
        fits = [(*surv_data(rng, 90, 4, (1.5, -1.0, 0.0, 0.5)),
                 rsf_options(n_trees=5, min_leaf_size=6, seed=8)),
                (*surv_data(rng, 60, 3, (1.0, 0.0, -0.5)),
                 rsf_options(n_trees=5, mtry=2, min_leaf_size=5, seed=9))]
        with rsf.start_forests(fits) as pending:
            chunks = list(pending._chunks)
            assert chunks == [(0, 0, 2), (0, 2, 4), (0, 4, 5), (1, 0, 3), (1, 3, 5)]
            assert len(pending._children) == cpus - 1
            if take_back == "none":
                wait_for_claims(log, len(chunks))
            elif take_back == "some":
                wait_for_claims(log, 1)
            models = pending.finish()
        growers = []
        for f, (model, (X, labels, opts)) in enumerate(zip(models, fits)):
            grid, trees = serial_fit_forest(X, labels, opts)
            assert np.array_equal(model.event_time_grid, grid)
            assert_same_trees(model.trees, trees)
            assert (model.n_features, model.options) == (X.shape[1], opts)
            growers += chunk_growers(model, chunks, f)
        by_caller = sum(g == os.getpid() for g in growers)
        expected = {"none": by_caller == 0, "some": 0 < by_caller < len(chunks),
                    "all": by_caller == len(chunks)}
        assert expected[take_back], growers
        assert len(set(growers) - {os.getpid()}) <= cpus - 1
        assert_no_child()

    def test_closing_before_finish_stops_the_workers(self, monkeypatch, forks):
        # the workers are stopped, not waited for: each would take 10 s
        monkeypatch.setattr(fork_module, "usable_cpus", lambda: 3)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(rsf, "_grow_trees", grow_trees_stuck_in_workers)
        X, labels = surv_data(np.random.default_rng(76), 90, 3, (1.0, -1.0, 0.0))
        with pytest.raises(KeyError):
            with rsf.start_forests([(X, labels, rsf_options(n_trees=40, min_leaf_size=10))]):
                assert len(forks) == 2
                assert all(os.waitpid(pid, os.WNOHANG) == (0, 0) for pid in forks)  # running
                failed_at = time.monotonic()
                raise KeyError("failure while the forests grow")
        assert time.monotonic() - failed_at < 5.0
        assert_no_child()

    @pytest.mark.parametrize("fault", ["raises", "killed"])
    def test_failed_worker_costs_only_time(self, monkeypatch, tmp_path, fault):
        # the one worker fails in the first chunk it claims; this process
        # grows that chunk again, with all the others, so the forest is the
        # serial one bit for bit
        def fail_in_workers(*share):
            if os.getpid() != TEST_PID:
                if fault == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise FloatingPointError("raised in a worker")
            return grow_trees_tagged(*share)

        monkeypatch.setattr(fork_module, "usable_cpus", lambda: 2)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(rsf, "_CHUNK_WORK", 180)  # two trees per chunk
        log = tmp_path / "claims.log"
        log_claims(monkeypatch, log, fail_in_workers)
        X, labels = surv_data(np.random.default_rng(79), 90, 3, (1.0, -1.0, 0.0))
        opts = rsf_options(n_trees=9, min_leaf_size=10, seed=4)
        with rsf.start_forests([(X, labels, opts)]) as pending:
            assert len(pending._children) == 1
            wait_for_claims(log, 1)
            model, = pending.finish()
        assert_same_trees(model.trees, serial_fit_forest(X, labels, opts)[1])
        assert {tree.grown_by for tree in model.trees} == {os.getpid()}
        assert len(log.read_text().split()) == 1  # the worker failed in its first chunk
        assert_no_child()

    def test_error_raised_in_every_process_is_raised_here(self, monkeypatch, tmp_path):
        # the worker fails, and so does this process, which raises its own
        # error with its own traceback; nothing crosses the pipe
        def fail(*share):
            raise FloatingPointError(f"raised in process {os.getpid()}")

        monkeypatch.setattr(fork_module, "usable_cpus", lambda: 2)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 0)
        log = tmp_path / "claims.log"
        log_claims(monkeypatch, log, fail)
        X, labels = surv_data(np.random.default_rng(79), 90, 3, (1.0, -1.0, 0.0))
        with rsf.start_forests([(X, labels, rsf_options(n_trees=40, min_leaf_size=10))]) as pending:
            wait_for_claims(log, 1)
            with pytest.raises(FloatingPointError,
                               match=f"^raised in process {os.getpid()}$") as raised:
                pending.finish()
        assert raised.value.__cause__ is None and raised.value.__context__ is None
        assert [entry.name for entry in raised.traceback][-5:] == [
            "finish", "_run", "_grow_chunk", "grow_and_log", "fail"]
        assert_no_child()

    def test_every_chunk_is_grown_once_under_contention(self, monkeypatch, tmp_path):
        # five workers on the machine's CPUs and this process take 60
        # one-tree chunks from the shared counter; a lost update would grow
        # a chunk twice or leave one out
        log = tmp_path / "grown.log"

        def grow_and_log(*share):
            trees = _grow_trees(*share)
            with open(log, "a") as fh:
                fh.write("".join(f"{ss.spawn_key[-1]}\n" for ss in share[4]))
            return trees

        monkeypatch.setattr(fork_module, "usable_cpus", lambda: 6)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 0)
        monkeypatch.setattr(rsf, "_CHUNK_WORK", 1)
        monkeypatch.setattr(rsf, "_grow_trees", grow_and_log)
        X, labels = surv_data(np.random.default_rng(80), 40, 2, (1.0, -1.0))
        opts = rsf_options(n_trees=60, min_leaf_size=5, seed=3)
        started = time.monotonic()
        with rsf.start_forests([(X, labels, opts)]) as pending:
            assert len(pending._children) == 5
            model, = pending.finish()
        assert time.monotonic() - started < 60.0
        assert sorted(int(line) for line in log.read_text().split()) == list(range(60))
        assert_same_trees(model.trees, serial_fit_forest(X, labels, opts)[1])
        assert_no_child()

    def test_inputs_are_checked_at_start(self, monkeypatch):
        monkeypatch.setattr(fork_module, "usable_cpus", lambda: 2)
        X, labels = surv_data(np.random.default_rng(77), 40, 2, (1.0, 0.0))
        good = (X, labels, rsf_options(n_trees=2, min_leaf_size=5))
        with pytest.raises(NoEventsError):
            rsf.start_forests([good, (X, Labels(range(1, 41), [0] * 40), good[2])])
        assert_no_child()

    @pytest.mark.parametrize("n_trees", [2, 27])
    def test_small_forest_grows_in_this_process(self, monkeypatch, n_trees):
        # 90 subjects x 27 trees is the least work that still starts the pool
        monkeypatch.setattr(fork_module, "usable_cpus", lambda: 3)
        monkeypatch.setattr(rsf, "_grow_trees", grow_trees_tagged)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 90 * 27)
        X, labels = surv_data(np.random.default_rng(74), 90, 3, (1.0, -1.0, 0.0))
        opts = rsf_options(n_trees=n_trees, min_leaf_size=10, seed=9)
        with rsf.start_forests([(X, labels, opts)]) as pending:
            started = len(pending._children)
            model, = pending.finish()
        assert_same_trees(model.trees, serial_fit_forest(X, labels, opts)[1])
        assert started == (0 if n_trees == 2 else 2)
        if n_trees == 2:
            assert {tree.grown_by for tree in model.trees} == {os.getpid()}
        assert_no_child()

    def test_batch_work_is_summed_for_the_pool_threshold(self, monkeypatch):
        # two forests of 90 x 14 trees: each alone is below 90 x 27, together
        # they are above it
        monkeypatch.setattr(fork_module, "usable_cpus", lambda: 2)
        monkeypatch.setattr(rsf, "_POOL_MIN_WORK", 90 * 27)
        X, labels = surv_data(np.random.default_rng(78), 90, 3, (1.0, -1.0, 0.0))
        fit = (X, labels, rsf_options(n_trees=14, min_leaf_size=10))
        with rsf.start_forests([fit]) as alone, rsf.start_forests([fit, fit]) as batch:
            assert (len(alone._children), len(batch._children)) == (0, 1)
        assert_no_child()

    def test_mtry_defaults_to_sqrt_features(self):
        rng = np.random.default_rng(63)
        X, labels = surv_data(rng, 40, 10, np.zeros(10))
        model = fit_forest(X, labels, rsf_options(n_trees=2, min_leaf_size=5))
        assert model.options.mtry is None
        assert model.n_features == 10
        # ceil(sqrt(10)) = 4; resolved at fit time, not stored on options

    def test_grid_is_unique_event_times(self):
        X = np.zeros((40, 2))
        X[:, 0] = np.arange(40)
        times = [1, 2, 2, 3] * 10
        events = [1, 1, 0, 1] * 10
        model = fit_forest(X, Labels(times, events), rsf_options(n_trees=2, min_leaf_size=5))
        assert_array_equal(model.event_time_grid, [1.0, 2.0, 3.0])

    def test_too_few_subjects(self):
        rng = np.random.default_rng(64)
        X, labels = surv_data(rng, 29, 2, (1.0, 0.0))
        with pytest.raises(DegenerateDataError):
            fit_forest(X, labels, rsf_options(min_leaf_size=15))

    def test_no_events(self):
        X = np.random.default_rng(65).standard_normal((40, 2))
        with pytest.raises(NoEventsError):
            fit_forest(X, Labels(range(1, 41), [0] * 40), rsf_options(min_leaf_size=5))

    def test_non_finite_features(self):
        rng = np.random.default_rng(66)
        X, labels = surv_data(rng, 40, 2, (1.0, 0.0))
        X[3, 1] = np.nan
        with pytest.raises(NonFiniteInputError):
            fit_forest(X, labels, rsf_options(min_leaf_size=5))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fit_forest(np.zeros((5, 2)), Labels([1, 2, 3], [1, 1, 1]), rsf_options())

    @pytest.mark.parametrize("kw", [
        dict(n_trees=0), dict(mtry=0), dict(min_leaf_size=0),
    ])
    def test_options_validation(self, kw):
        with pytest.raises(ValueError):
            rsf_options(**kw)


def route_by_hand(tree, x):
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return node


class TestPredictRisk:
    def test_single_leaf_tree_equals_nelson_aalen_sum(self):
        # a constant feature admits no split, so the tree is one leaf
        # holding the Nelson-Aalen hazard of its bootstrap sample; with one
        # tree we can replay the bootstrap draw and sum the hazard by hand
        times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        events = [1, 0, 1, 1, 0, 1]
        labels = Labels(times, events)
        X = np.zeros((6, 1))
        opts = rsf_options(n_trees=1, min_leaf_size=3, seed=11)
        model = fit_forest(X, labels, opts)
        assert model.trees[0].feature.tolist() == [-1]

        order = np.lexsort((np.array(events, dtype=bool), np.array(times)))
        tc = np.array(times)[order]
        ec = np.array(events, dtype=bool)[order]
        ss = np.random.SeedSequence(11).spawn(1)[0]
        boot = np.random.default_rng(ss).integers(0, 6, size=6)
        tb, eb = tc[boot], ec[boot]

        # evaluate the bootstrap sample's Nelson-Aalen step function at
        # every point of the training event-time grid and sum
        want = 0.0
        for g in model.event_time_grid:
            h = 0.0
            for v in sorted(set(tb[eb])):
                if v <= g:
                    h += ((tb == v) & eb).sum() / (tb >= v).sum()
            want += h
        assert_allclose(predict_risk(model, np.zeros((1, 1))), [want], rtol=1e-12)

    def test_routing_matches_scalar_walk(self):
        rng = np.random.default_rng(67)
        X, labels = surv_data(rng, 120, 4, (2.0, -1.0, 0.0, 0.5))
        model = fit_forest(X, labels, rsf_options(n_trees=6, min_leaf_size=8, seed=7))
        assert any(t.feature.max() >= 0 for t in model.trees)  # real splits happened
        Q = rng.standard_normal((30, 4))
        for tree in model.trees:
            want = np.array([route_by_hand(tree, q) for q in Q])
            assert_array_equal(route_levelwise(tree, Q), want)
            assert_array_equal(rsf._leaves(tree, Q), tree.leaf_slot[want])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_partition_prediction_is_the_levelwise_oracle_bit_for_bit(self, data):
        # rows exactly at a threshold (cells drawn from the thresholds), at
        # -0.0 against a 0.0 threshold and at +-1e308, on 0, 1 or more rows
        edges = st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.0, -1.0])
        values = st.one_of(edges, st.floats(-10.0, 10.0))
        n_features = data.draw(st.integers(1, 4))
        trees = data.draw(st.lists(
            preorder_trees(n_features, values, st.one_of(edges, st.floats(0.0, 50.0))),
            min_size=1, max_size=3))
        cuts = [v for t in trees for v in t.threshold[t.feature >= 0].tolist()]
        cell = st.one_of(values, st.sampled_from(cuts)) if cuts else values
        n = data.draw(st.sampled_from([0, 1]) | st.integers(2, 30))
        X = np.array(data.draw(st.lists(st.lists(cell, min_size=n_features,
                                                 max_size=n_features),
                                        min_size=n, max_size=n)),
                     dtype=float).reshape(n, n_features)
        model = ForestModel(trees=trees, event_time_grid=np.array([1.0]),
                            n_features=n_features, options=rsf_options(n_trees=len(trees)))
        want = np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for tree in trees:
                slots = tree.leaf_slot[route_levelwise(tree, X)]
                assert same_bits(rsf._leaves(tree, X), slots.astype(np.intp))
                want += tree.leaf_mortality[slots]
            assert same_bits(predict_risk(model, X), want / len(trees))

    def test_prediction_is_mean_of_leaf_mortalities(self):
        rng = np.random.default_rng(68)
        X, labels = surv_data(rng, 90, 3, (1.5, -1.0, 0.0))
        model = fit_forest(X, labels, rsf_options(n_trees=5, min_leaf_size=10, seed=9))
        q = rng.standard_normal(3)
        want = np.mean([
            t.leaf_mortality[t.leaf_slot[route_by_hand(t, q)]] for t in model.trees
        ])
        assert_allclose(predict_risk(model, q[None]), [want], rtol=1e-12)

    def test_single_vs_batch(self):
        rng = np.random.default_rng(69)
        X, labels = surv_data(rng, 60, 2, (1.0, -1.0))
        model = fit_forest(X, labels, rsf_options(n_trees=4, min_leaf_size=6, seed=2))
        Q = rng.standard_normal((5, 2))
        batch = predict_risk(model, Q)
        assert batch.shape == (5,)
        for k in range(5):
            # a one-row batch scores its patient bit for bit as the batch does
            assert predict_risk(model, Q[k:k + 1]).tobytes() == batch[k:k + 1].tobytes()

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(70)
        X, labels = surv_data(rng, 60, 3, (1.0, 0.0, 0.0))
        model = fit_forest(X, labels, rsf_options(n_trees=2, min_leaf_size=6))
        with pytest.raises(DimensionMismatchError):
            predict_risk(model, np.zeros((1, 4)))
        with pytest.raises(DimensionMismatchError):
            predict_risk(model, np.zeros(3))  # one patient is a one-row matrix

    def test_leaf_nodes_have_nan_threshold(self):
        rng = np.random.default_rng(71)
        X, labels = surv_data(rng, 80, 2, (2.0, 0.0))
        model = fit_forest(X, labels, rsf_options(n_trees=3, min_leaf_size=8, seed=1))
        for tree in model.trees:
            leaves = tree.feature < 0
            assert np.all(np.isnan(tree.threshold[leaves]))
            assert np.all(~np.isnan(tree.threshold[~leaves]))

    def test_recovers_signal(self):
        rng = np.random.default_rng(72)
        X, labels = surv_data(rng, 400, 3, (2.0, -1.5, 0.0), censor=0.1)
        model = fit_forest(X, labels, rsf_options(n_trees=60, min_leaf_size=10, seed=0))
        Xt, lt = surv_data(rng, 200, 3, (2.0, -1.5, 0.0), censor=0.1)
        assert c_index(predict_risk(model, Xt), lt) > 0.7
