"""Random survival forest.

Trees are grown on bootstrap resamples, splitting on the standardized
absolute two-sample log-rank statistic evaluated exhaustively over midpoint
thresholds of ``mtry`` randomly chosen features per node. A subject's
ensemble mortality is the mean over trees of its leaf's Nelson-Aalen
cumulative hazard (of the leaf's in-bag subjects) summed across the
training event-time grid, so higher values mean higher predicted risk on
the training time scale. Each leaf keeps only that sum, its ensemble
mortality term; the hazard curve is formed to compute it and dropped.

Determinism: per-tree generators are spawned from the master seed before
any tree is grown, node recursion is depth-first left-to-right, and fitting
canonicalizes the sample order by a stable (time, event) sort so a
permutation of the input records cannot change the forest (up to exact
(time, event) ties between records with different features).

Forests are grown in two steps, so that the caller can work while they
grow. ``start_forests`` checks a batch of forests and cuts their trees into
chunks of about ``_CHUNK_WORK`` (1500) subjects x trees, the tasks of a
``forks.Tasks`` pool (see ``forks``). ``finish`` takes their results and
puts the trees in stream order, so a forest is the same bit for bit
whichever process grew which chunk. ``fit_forest`` is one forest started
and finished at once.

Each tree finds its subjects' ranks in the forest's event-time grid once;
a node's at-risk and death counts, and a leaf's hazard, are ``bincount``s
of its subjects' ranks (``_node_counts``), integers that give the floats
an ``EventTable`` of the node would. The split score is ``sqrt`` of
``metrics.logrank_test``'s chi-square for the two children: |O - E| /
sqrt(V) for the left child at each admissible split position c of a
feature's sorted subjects. O - E is the prefix sum of the subjects'
martingale residuals (event flag minus node Nelson-Aalen at the subject's
time). V is sum_g k_g n_left[g] (n_g - n_left[g]) over the node's G event
times, n_left[g] counting the left child's subjects at risk, which each
subject's grid rank r (it is at risk at grid[g] exactly when g < r) gives.

The exact score, which decides every split, forms the exact integer n_left
rows and sums each contiguous row pairwise, always with the same float
operations. A feature with at most ``_FEW_CANDIDATES`` (1) candidate, as a
binary one has, is scored at its candidates alone from a rank histogram,
which costs O(node + candidates x G). Below ``_BOUND_MIN`` (150) subjects a
node scores its other features at once from cumulative counts, at every
position from the first admissible one, min_leaf - 1, on (the subjects
before it are carried in as counts), and one masked argmax takes each
feature's first best candidate. From ``_BOUND_MIN`` subjects up, every
candidate of the other features is bounded first, all features in one sweep
of O(m (G / B + B)) for B = ``_SWEEP_BLOCK``: V(c) = sum_{i<=c} KN[r_i] -
sum_{i,j<=c} K[min(r_i, r_j)] = A(c) - S(c), with K and KN the prefix sums
of k and k n over the event times (LeBlanc and Crowley's updating sweep).
Every term of A and S is non-negative, so the computed V(c) lies within
gamma (A + S) of the exact-path variance, gamma being ``_BOUND_SAFETY`` (4)
times (m + 2G + B + 8) units of 2^-53, a count of the roundings on the way
into either; the interval of each score is widened by gamma more for the
exact path's sqrt and divide, and is [0, inf] where V may be zero. Only a
candidate whose interval reaches both the feature's best lower bound and
the best score so far is scored exactly, so the chosen splits, and with
them the forests, are the same bit for bit as scoring every candidate. All
temporaries are linear in the node size: the dense scores for small nodes
take O(_SPLIT_BLOCK x G) at a time, the sweep O(features x (m + G + B^2)).

Prediction sends each tree's rows down by node partition (``_leaves``):
an internal node compares only the rows that reached it with its
threshold (``x <= threshold`` goes left) and splits them between its
children, and a subtree that no row reaches is not visited. A node reads
its feature's values through the view ``X.T``, so no copy of ``X`` is
made. The trees' leaf mortalities are added in tree order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .dataset import Labels, sorted_unique
from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    NoEventsError,
    NonFiniteInputError,
)
from .forks import Tasks


# candidate splits per block of the exact at-risk counts
_SPLIT_BLOCK = 128
# sorted subjects per block of the variance-bound sweep
_SWEEP_BLOCK = 48
# pairs (i, j) with j < i within one sweep block; any smaller block slices it
_BELOW_DIAGONAL = np.tri(_SWEEP_BLOCK, k=-1, dtype=bool)
# smallest node whose candidates are bounded before any is scored exactly
_BOUND_MIN = 150
# features with at most this many candidate splits are scored exactly
# without the dense scores or the bounds
_FEW_CANDIDATES = 1
# multiple of the rounding-error count that the variance bound widens by
_BOUND_SAFETY = 4.0
# subjects x trees below which a batch of forests grows without workers: on
# a 2-CPU machine a worker took about 20 ms to start, as long as growing
# that much forest here
_POOL_MIN_WORK = 2500
# subjects x trees per chunk of trees that the pool hands out
_CHUNK_WORK = 1500


@dataclass(frozen=True)
class RsfOptions:
    n_trees: int
    mtry: int | None                 # None: ceil(sqrt(n_features))
    min_leaf_size: int
    seed: int

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ValueError("mtry must be >= 1")
        if self.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be >= 1")


@dataclass(eq=False)
class SurvivalTree:
    """Flat node arrays: feature < 0 marks a leaf, whose index into the leaf
    tables is stored in ``leaf_slot``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_slot: np.ndarray
    leaf_mortality: np.ndarray        # sum of the leaf CHF over the forest grid


@dataclass(eq=False)
class ForestModel:
    trees: list[SurvivalTree]
    event_time_grid: np.ndarray
    n_features: int
    options: RsfOptions


class _NodeCounts(NamedTuple):
    at_risk: np.ndarray  # at each of the node's own event times
    deaths: np.ndarray
    below: np.ndarray    # the node's event times below each forest-grid rank


def _node_counts(grid_ranks, e, n_grid) -> _NodeCounts:
    """A node's counts from its subjects' forest-grid ranks and event flags.
    A subject is at risk at the forest grid's q-th time exactly when q is
    below its rank, and a death's time is the grid time just below its
    rank, so two ``bincount``s give the counts at every forest-grid time;
    the node's own event times are those with a death."""
    deaths = np.bincount(grid_ranks[e] - 1, minlength=n_grid)
    at_risk = grid_ranks.size - np.cumsum(np.bincount(grid_ranks, minlength=n_grid + 1))[:-1]
    own = deaths > 0
    return _NodeCounts(at_risk[own], deaths[own], np.concatenate(([0], np.cumsum(own))))


def _node_statistics(grid_ranks, e, counts: _NodeCounts):
    """At-risk counts, variance weights, martingale residuals and grid ranks
    of a node; a subject is at risk at the node's g-th event time exactly
    when g is below its grid rank."""
    n_e = counts.at_risk.astype(float)
    d_e = counts.deaths.astype(float)
    k_e = np.where(n_e > 1, d_e * (n_e - d_e) / (n_e ** 2 * np.maximum(n_e - 1, 1.0)), 0.0)
    ranks = counts.below[grid_ranks]
    resid = e.astype(float) - _hazard(counts)[ranks]
    return n_e, k_e, resid, ranks


def _hazard(counts: _NodeCounts):
    """A node's Nelson-Aalen cumulative hazard after each of its first g
    event times, g = 0, 1, ...; 0.0 before the first."""
    return np.concatenate(([0.0], np.cumsum(counts.deaths / counts.at_risk)))


def _leaf_mortality(counts: _NodeCounts) -> float:
    """A leaf's cumulative hazard summed over the forest grid: at the q-th
    grid time, the hazard after the node's event times up to it."""
    return float(_hazard(counts)[counts.below[1:]].sum())


def _prefix_split_scores(ranks, prefix_resid, n_e, k_e, lo, stop):
    """Split score |O - E| / sqrt(V) of the left child ``[:c + 1]`` of a
    node's subjects in feature order, at every position ``lo <= c < stop``
    of each row (features x subjects), as columns ``c - lo``; zero where
    the variance vanishes. ``ranks`` are the sorted subjects' grid ranks
    and ``prefix_resid`` the prefix sums of their martingale residuals."""
    grid_index = np.arange(n_e.size)
    var = np.empty((ranks.shape[0], stop - lo))
    # n_left[f, c, g]: subjects of the left child at c at risk at grid[g], as
    # exact counts in floats, built for _SPLIT_BLOCK (feature, subject) rows
    # at a time with the counts of the first lo subjects and of the earlier
    # blocks carried in, so temporaries stay O(_SPLIT_BLOCK x event times).
    # Each row is contiguous, so numpy sums it over the event times
    # pairwise; a sequential sum would move split scores in the last bit.
    block = max(1, _SPLIT_BLOCK // ranks.shape[0])
    carry = np.count_nonzero(ranks[:, :lo, None] > grid_index, axis=1)
    for at in range(lo, stop, block):
        n_left = (ranks[:, at:min(at + block, stop), None] > grid_index).astype(float)
        n_left[:, 0] += carry
        np.cumsum(n_left, axis=1, out=n_left)
        carry = n_left[:, -1].copy()  # a copy: the products below overwrite n_left
        right = n_e - n_left
        n_left *= k_e
        n_left *= right
        var[:, at - lo:at - lo + n_left.shape[1]] = n_left.sum(axis=2)
    return _scores(var, prefix_resid[:, lo:stop])


def _sparse_split_scores(ranks, prefix_resid, n_e, k_e, cand):
    """``_prefix_split_scores`` at the positions ``cand`` (ascending) of one
    feature alone, each left child's at-risk counts taken from a rank
    histogram carried from one candidate to the next: O(node size +
    candidates x event times), for the few candidates that need scoring."""
    g = n_e.size
    var_c = np.empty(cand.size)
    hist = np.zeros(g + 1, dtype=np.int64)
    start = 0
    for k, c in enumerate(cand.tolist()):
        hist += np.bincount(ranks[start:c + 1], minlength=g + 1)
        start = c + 1
        # the same integers as _prefix_split_scores' counts, summed over the
        # event times in the same pairwise order, so the same float
        n_left = start - np.cumsum(hist[:g])
        var_c[k] = (k_e * n_left * (n_e - n_left)).sum()
    return _scores(var_c, prefix_resid[cand])


def _scores(var, num):
    """|num| / sqrt(var), zero where the variance vanishes."""
    return np.divide(np.abs(num), np.sqrt(var), out=np.zeros(var.shape), where=var > 0)


def _variance_bounds(ranks, n_e, k_e):
    """Log-rank variance V(c) of the left child ``[:c + 1]`` at every
    position c of each row of sorted grid ranks (features x subjects), a
    bound E(c) on its distance from the variance ``_sparse_split_scores``
    computes, and the relative width of that bound.

    V(c) = sum_{i<=c} KN[r_i] - sum_{i,j<=c} K[min(r_i, r_j)], with KN[r]
    and K[r] the sums of k_e * n_e and of k_e over the first r event times.
    The pair sum is taken _SWEEP_BLOCK subjects at a time: within a block
    from its min-rank matrix, and across blocks as sum_{q < r_i} k_e[q]
    N[q], N being the earlier blocks' subjects at risk, carried as a rank
    histogram. That costs O(m (G / B + B)) per feature, and the temporaries
    are linear in the node size."""
    f, m = ranks.shape
    g = k_e.size
    big_k = np.concatenate(([0.0], np.cumsum(k_e)))
    a = np.cumsum(np.concatenate(([0.0], np.cumsum(k_e * n_e)))[ranks], axis=1)
    k_own = big_k[ranks]
    pairs = np.empty((f, m))  # sum over j < i of K[min(r_i, r_j)]
    # histogram of the earlier blocks by g - rank, whose cumulative sum
    # counts the subjects at risk at each event time from the last one back
    flat = ranks + (g + 1) * np.arange(f)[:, None]
    flat_back = flat + g - 2 * ranks
    hist = np.zeros((f, g + 1))
    at_risk = np.empty((f, g + 1))
    across = np.zeros((f, g + 1))  # [:, q]: sum of k_e[p] N[p] over p < q
    for lo in range(0, m, _SWEEP_BLOCK):
        hi = min(lo + _SWEEP_BLOCK, m)
        # K is non-decreasing, so K[min(r_i, r_j)] = min(K[r_i], K[r_j])
        k_block = k_own[:, lo:hi]
        pair_k = np.minimum(k_block[:, :, None], k_block[:, None, :])
        pair_k *= _BELOW_DIAGONAL[:hi - lo, :hi - lo]
        pairs[:, lo:hi] = pair_k.sum(axis=2)
        if lo:
            hist += np.bincount(flat_back[:, lo - _SWEEP_BLOCK:lo].ravel(),
                                minlength=f * (g + 1)).reshape(f, g + 1)
            np.cumsum(hist, axis=1, out=at_risk)
            np.cumsum(k_e * at_risk[:, g - 1::-1], axis=1, out=across[:, 1:])
            pairs[:, lo:hi] += across.ravel()[flat[:, lo:hi]]
    s = np.cumsum(k_own + 2.0 * pairs, axis=1)
    # Every term above is non-negative, so each computed sum is within
    # N u / (1 - N u) of its exact value, relative to itself, N being the
    # longest chain of roundings into it (u = 2^-53): m + G + 1 for A and
    # m + G + B + 2 for S (B = _SWEEP_BLOCK). The exact path's products and
    # pairwise row sum put its variance within (G + 1) u of the exact one,
    # which is at most A, and A - S is rounded once more: the two computed
    # variances differ by at most (m + 2G + B + 3) u (A + S) to first order.
    # _BOUND_SAFETY times (m + 2G + B + 8) u covers that with room, and the
    # same relative width covers the exact path's sqrt and divide.
    slack = _BOUND_SAFETY * (m + 2 * g + _SWEEP_BLOCK + 8) * 2.0 ** -53
    return a - s, slack * (a + s), slack


def _score_bounds(ranks, prefix_resid, n_e, k_e):
    """Interval [lo, hi] holding the score that ``_sparse_split_scores``
    computes at every position of each row of sorted subjects: the variance
    bound widened by the rounding of the exact path's sqrt and divide. An
    interval whose variance may be zero is [0, inf]."""
    var, err, slack = _variance_bounds(ranks, n_e, k_e)
    num = np.abs(prefix_resid)
    floor = var - err
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(floor > 0, num / np.sqrt(var + err) * (1.0 - slack), 0.0)
        hi = np.where(floor > 0, num / np.sqrt(floor) * (1.0 + slack), np.inf)
    return lo, hi


def _survivors(cand, lo, hi, best_score):
    """Candidates whose score interval [lo, hi] reaches both the best lower
    bound among them and the best score so far: every candidate that can
    be the feature's first maximum and beat ``best_score``."""
    return cand[hi >= max(lo.max(), best_score)]


def _best_split(X_cand, candidates, stats, min_leaf):
    """The best split ``(feature, threshold)`` of a node, or ``None``:
    ``X_cand`` holds its subjects' values of the ``candidates`` features,
    column by column, and ``stats`` its ``_node_statistics``."""
    n_e, k_e, resid, node_ranks = stats
    m = node_ranks.size
    if n_e.size == 0:  # no event
        return None
    lo, hi = min_leaf - 1, m - min_leaf - 1
    if hi < lo:
        return None
    values = X_cand.T
    orders = np.argsort(values, axis=1, kind="stable")
    vs = values[np.arange(values.shape[0])[:, None], orders]
    ranks = node_ranks[orders]
    prefix_resid = np.cumsum(resid[orders], axis=1)
    positions = np.arange(lo, hi + 1)
    admissible = vs[:, lo:hi + 1] < vs[:, lo + 1:hi + 2]
    # A feature with at most _FEW_CANDIDATES candidates, as a binary one
    # has, has each scored from a histogram. The others are taken together:
    # in a node of fewer than _BOUND_MIN subjects every position is scored
    # and a masked argmax finds each feature's first best candidate; in a
    # larger node every candidate's score is bounded, and only those that
    # can win are scored.
    few = admissible.sum(axis=1) <= _FEW_CANDIDATES
    # each feature's best score (0 if none) and its position, less lo
    best, at = np.zeros(len(candidates)), np.zeros(len(candidates), dtype=np.intp)
    if m < _BOUND_MIN and not few.all():
        dense = _prefix_split_scores(ranks[~few], prefix_resid[~few], n_e, k_e, lo, hi + 1)
        dense[~admissible[~few]] = -1.0
        at[~few] = dense.argmax(axis=1)
        best[~few] = dense[np.arange(dense.shape[0]), at[~few]]
    elif not few.all():
        bound_lo, bound_hi = _score_bounds(ranks[~few], prefix_resid[~few], n_e, k_e)
        row = np.cumsum(~few) - 1
    for j in np.flatnonzero(few | (m >= _BOUND_MIN)).tolist():
        cand = positions[admissible[j]]
        if not few[j]:
            cand = _survivors(cand, bound_lo[row[j], cand], bound_hi[row[j], cand], best.max())
        if cand.size:
            scores = _sparse_split_scores(ranks[j], prefix_resid[j], n_e, k_e, cand)
            k = int(np.argmax(scores))
            best[j], at[j] = scores[k], cand[k] - lo
    # the first feature whose best is the largest, as a sequential search
    # keeping only a strictly greater score finds it
    j = int(np.argmax(best))
    if best[j] <= 0.0:
        return None
    c = lo + at[j]
    return int(candidates[j]), float((vs[j, c] + vs[j, c + 1]) / 2.0)


def _grow_tree(X, t, e, rng, mtry, min_leaf, forest_grid):
    """One tree on the subjects ``X``, ``t``, ``e``, whose event times are
    all in ``forest_grid``. Each subject's forest-grid rank is found once,
    and every node's counts are read from its subjects' ranks."""
    feature, threshold, left, right, leaf_slot = [], [], [], [], []
    leaf_mort = []
    n_features = X.shape[1]
    grid_ranks = np.searchsorted(forest_grid, t, side="right")

    def build(idx):
        ranks, events = grid_ranks[idx], e[idx]
        counts = _node_counts(ranks, events, forest_grid.size)
        split = None
        if idx.size >= 2 * min_leaf and counts.deaths.size:
            candidates = rng.choice(n_features, size=min(mtry, n_features), replace=False)
            split = _best_split(X[idx[:, None], candidates], candidates,
                                _node_statistics(ranks, events, counts), min_leaf)
        node = len(feature)
        left.append(-1)
        right.append(-1)
        if split is None:
            feature.append(-1)
            threshold.append(np.nan)
            leaf_slot.append(len(leaf_mort))
            leaf_mort.append(_leaf_mortality(counts))
            return node
        f, thr = split
        go_left = X[idx, f] <= thr
        feature.append(f)
        threshold.append(thr)
        leaf_slot.append(-1)
        left[node] = build(idx[go_left])
        right[node] = build(idx[~go_left])
        return node

    build(np.arange(t.size))
    return SurvivalTree(
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        leaf_slot=np.array(leaf_slot, dtype=int),
        leaf_mortality=np.array(leaf_mort, dtype=float),
    )


def _grow_trees(Xc, tc, ec, grid, streams, mtry, min_leaf):
    """One tree per seed stream, each on its bootstrap resample of the
    canonical sample; runs in this process or in a pool worker."""
    n = tc.size
    trees = []
    for ss in streams:
        rng = np.random.default_rng(ss)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(Xc[boot], tc[boot], ec[boot], rng, mtry, min_leaf, grid))
    return trees


@dataclass(frozen=True, eq=False)
class _Sample:
    """One forest to grow: its canonical sample, event-time grid and
    per-tree seed streams."""

    X: np.ndarray
    t: np.ndarray
    e: np.ndarray
    grid: np.ndarray
    streams: list
    mtry: int
    options: RsfOptions


def _canonical_sample(X, labels, opts: RsfOptions) -> _Sample:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(labels):
        raise DimensionMismatchError(f"X shape {X.shape} does not match {len(labels)} labels")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInputError("X contains non-finite values")
    n, p = X.shape
    if n < 2 * opts.min_leaf_size:
        raise DegenerateDataError(
            f"need at least 2 * min_leaf_size = {2 * opts.min_leaf_size} subjects, got {n}"
        )
    times, events = labels.times, labels.events
    if not events.any():
        raise NoEventsError("forest fitting needs at least one event")

    # canonical sample order: stable sort by (time, event) so fitting is
    # independent of the caller's record order
    order = np.lexsort((events, times))
    tc, ec = times[order], events[order]
    return _Sample(X=X[order], t=tc, e=ec, grid=sorted_unique(tc[ec]),
                   streams=np.random.SeedSequence(opts.seed).spawn(opts.n_trees),
                   mtry=opts.mtry if opts.mtry is not None else int(np.ceil(np.sqrt(p))),
                   options=opts)


def _grow_chunk(samples, chunks, k):
    """The trees of chunk ``k``, a ``(forest, first tree, end tree)``."""
    f, lo, hi = chunks[k]
    s = samples[f]
    return _grow_trees(s.X, s.t, s.e, s.grid, s.streams[lo:hi], s.mtry, s.options.min_leaf_size)


class PendingForests(Tasks):
    """Forests whose trees are being grown, made by ``start_forests``: a
    ``forks.Tasks`` pool of their chunks. ``finish`` returns the fitted
    forests; use the object as a context manager, so that an exception
    before ``finish`` stops the workers."""

    def __init__(self, samples: list[_Sample], fork: bool):
        self._samples = samples
        self._chunks = []
        for f, s in enumerate(samples):
            # about _CHUNK_WORK subjects x trees per chunk
            step = max(1, round(_CHUNK_WORK / s.t.size))
            n_trees = s.options.n_trees
            self._chunks += [(f, lo, min(lo + step, n_trees)) for lo in range(0, n_trees, step)]
        super().__init__(partial(_grow_chunk, samples, self._chunks), len(self._chunks), fork)

    def finish(self) -> list[ForestModel]:
        """The forests, their chunks' trees in stream order (see ``results``)."""
        forests = [[] for _ in self._samples]
        for chunk, trees in zip(self._chunks, self.results()):
            if isinstance(trees, Exception):
                raise trees
            forests[chunk[0]] += trees
        return [ForestModel(trees=trees, event_time_grid=s.grid, n_features=s.X.shape[1],
                            options=s.options)
                for s, trees in zip(self._samples, forests)]


def start_forests(fits) -> PendingForests:
    """Start growing one forest per ``(X, labels, options)`` in ``fits``, on
    forked workers while this process goes on if they pay for themselves;
    the inputs are checked here, before any tree is grown."""
    samples = [_canonical_sample(X, labels, options) for X, labels, options in fits]
    work = sum(s.t.size * s.options.n_trees for s in samples)
    return PendingForests(samples, work >= _POOL_MIN_WORK)


def fit_forest(X: np.ndarray, labels: Labels, options: RsfOptions) -> ForestModel:
    """One forest, started and finished at once."""
    with start_forests([(X, labels, options)]) as pending:
        return pending.finish()[0]


def _leaves(tree: SurvivalTree, X: np.ndarray) -> np.ndarray:
    """The leaf slot each row of ``X`` reaches. The rows go down by node
    partition: an internal node takes the rows that reached it, compares
    only their values of its feature with its threshold, and hands those
    at or below it to its left child and the others to its right; a
    subtree that no row reaches is not visited."""
    feature, threshold, left, right, slot = (
        a.tolist() for a in (tree.feature, tree.threshold, tree.left, tree.right,
                             tree.leaf_slot))
    columns = X.T  # a view: each node gathers its rows' values from X itself
    leaves = np.empty(X.shape[0], dtype=np.intp)
    pending = [(0, np.arange(X.shape[0]))]
    while pending:
        node, rows = pending.pop()
        f = feature[node]
        if f < 0:
            leaves[rows] = slot[node]
            continue
        go_left = columns[f][rows] <= threshold[node]
        for child, part in ((right[node], rows.compress(~go_left)),
                            (left[node], rows.compress(go_left))):
            if part.size:
                pending.append((child, part))
    return leaves


def predict_risk(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Ensemble mortality, one per row of X: each row's leaf mortality,
    summed over the trees in order and divided by their number."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"model has {model.n_features} features, X has shape {X.shape}"
        )
    total = np.zeros(X.shape[0])
    for tree in model.trees:
        total += tree.leaf_mortality[_leaves(tree, X)]
    return total / len(model.trees)
