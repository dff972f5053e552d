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
chunks of about ``_CHUNK_WORK`` (1500) subjects x trees. One forked worker
(a ``forks.Child``) per usable CPU but one grows the chunks it takes from a
``forks.Counter`` and sends them back by index once none is left.
``finish`` grows here the chunks it takes from the same counter, then any
chunk that a failed worker did not return, and puts the trees in stream
order, so a forest is the same bit for bit whichever process grew which
chunk. ``fit_forest`` is one forest started and finished at once.

Node event counts and leaf hazards are read from the node's
``dataset.EventTable``. The split score is ``sqrt`` of
``metrics.logrank_test``'s chi-square for the two children: |O - E| /
sqrt(V) for the left child at each admissible split position c of a
feature's sorted subjects. O - E is the prefix sum of the subjects'
martingale residuals (event flag minus node Nelson-Aalen at the subject's
time). V is sum_g k_g n_left[g] (n_g - n_left[g]) over the node's G event
times, n_left[g] counting the left child's subjects at risk, which each
subject's grid rank r (it is at risk at grid[g] exactly when g < r) gives.

The exact score, which decides every split, forms the exact integer
n_left rows and sums each contiguous row pairwise, always with the same
float operations. A feature with at most ``_FEW_CANDIDATES`` (1)
candidate, as a binary one has, is scored at its candidates alone from a
rank histogram, which costs O(node + candidates x G). Below ``_BOUND_MIN``
(150) subjects a node scores every position of its other features at once
from cumulative counts. From ``_BOUND_MIN`` subjects up, every candidate of
the other features is bounded first, all features in one sweep of O(m (G /
B + B)) for B = ``_SWEEP_BLOCK``: V(c) = sum_{i<=c} KN[r_i] - sum_{i,j<=c}
K[min(r_i, r_j)] = A(c) - S(c), with K and KN the prefix sums of k and k n
over the event times (LeBlanc and Crowley's updating sweep). Every term of
A and S is non-negative, so the computed V(c) lies within gamma (A + S) of
the exact-path variance, gamma being ``_BOUND_SAFETY`` (4) times (m + 2G + B +
8) units of 2^-53, a count of the roundings on the way into either; the
interval of each score is widened by gamma more for the exact path's sqrt
and divide, and is [0, inf] where V may be zero. Only a candidate whose
interval reaches both the feature's best lower bound and the best score so
far is scored exactly, so the chosen splits, and with them the forests, are
the same bit for bit as scoring every candidate. All temporaries are
linear in the node size: the dense scores for small nodes take
O(_SPLIT_BLOCK x G) at a time, the sweep O(features x (m + G + B^2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EventTable, Labels
from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    NoEventsError,
    NonFiniteInputError,
)
from .forks import Child, Counter, usable_cpus as _usable_cpus


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


def _node_statistics(t: np.ndarray, e: np.ndarray):
    """Event grid, at-risk counts, variance weights, residuals and grid
    ranks for a node; a subject is at risk at grid[g] exactly when g is
    below its rank."""
    table = EventTable(t, e)
    grid = table.event_times
    n_e = table.at_risk.astype(float)
    d_e = table.deaths.astype(float)
    k_e = np.where(n_e > 1, d_e * (n_e - d_e) / (n_e ** 2 * np.maximum(n_e - 1, 1.0)), 0.0)
    na = np.cumsum(d_e / n_e)
    ranks = np.searchsorted(grid, t, side="right")
    resid = e.astype(float) - np.where(ranks > 0, na[np.maximum(ranks - 1, 0)], 0.0)
    return grid, n_e, k_e, resid, ranks


def _prefix_split_scores(ranks, prefix_resid, n_e, k_e, stop):
    """Split score |O - E| / sqrt(V) of the left child ``[:c + 1]`` of a
    node's subjects in feature order, at every position ``c < stop`` of each
    row (features x subjects); zero where the variance vanishes. ``ranks``
    are the sorted subjects' grid ranks and ``prefix_resid`` the prefix sums
    of their martingale residuals."""
    grid_index = np.arange(n_e.size)
    var = np.empty((ranks.shape[0], stop))
    # n_left[f, c, g]: subjects of the left child at c at risk at grid[g], as
    # exact counts, built for _SPLIT_BLOCK (feature, subject) rows at a time
    # with the counts of the earlier blocks carried in, so temporaries stay
    # O(_SPLIT_BLOCK x event times). Each row is contiguous, so numpy sums
    # it over the event times pairwise; a sequential sum would move split
    # scores in the last bit.
    block = max(1, _SPLIT_BLOCK // ranks.shape[0])
    carry = 0
    for lo in range(0, stop, block):
        n_left = (ranks[:, lo:min(lo + block, stop), None] > grid_index).astype(np.int32)
        n_left[:, 0] += carry
        np.cumsum(n_left, axis=1, out=n_left)
        carry = n_left[:, -1]
        var[:, lo:lo + n_left.shape[1]] = (k_e * n_left * (n_e - n_left)).sum(axis=2)
    return _scores(var, prefix_resid[:, :stop])


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
    scores = np.zeros(var.shape)
    ok = var > 0
    scores[ok] = np.abs(num[ok]) / np.sqrt(var[ok])
    return scores


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


def _best_split(X_node, t_node, e_node, candidates, min_leaf):
    m = t_node.size
    if not e_node.any():
        return None
    lo, hi = min_leaf - 1, m - min_leaf - 1
    if hi < lo:
        return None
    _, n_e, k_e, resid, node_ranks = _node_statistics(t_node, e_node)
    values = X_node[:, candidates].T
    orders = np.argsort(values, axis=1, kind="stable")
    vs = np.take_along_axis(values, orders, axis=1)
    ranks = node_ranks[orders]
    prefix_resid = np.cumsum(resid[orders], axis=1)
    positions = np.arange(lo, hi + 1)
    admissible = vs[:, lo:hi + 1] < vs[:, lo + 1:hi + 2]
    # A feature with at most _FEW_CANDIDATES candidates, as a binary one
    # has, has each scored from a histogram. The others are taken together:
    # in a node of fewer than _BOUND_MIN subjects every position is scored;
    # in a larger node every candidate's score is bounded, and only those
    # that can win are scored.
    few = admissible.sum(axis=1) <= _FEW_CANDIDATES
    if not few.all():
        row = np.cumsum(~few) - 1
        if m < _BOUND_MIN:
            dense = _prefix_split_scores(ranks[~few], prefix_resid[~few], n_e, k_e, hi + 1)
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
        elif m < _BOUND_MIN:
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


def _chf_at(times: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(times, query, side="right") - 1
    out = np.zeros(query.size)
    hit = idx >= 0
    out[hit] = values[idx[hit]]
    return out


def _grow_tree(X, t, e, rng, mtry, min_leaf, forest_grid):
    feature, threshold, left, right, leaf_slot = [], [], [], [], []
    leaf_mort = []
    n_features = X.shape[1]

    def make_leaf(idx):
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        leaf_slot.append(len(leaf_mort))
        table = EventTable(t[idx], e[idx])
        chf = np.cumsum(table.deaths / table.at_risk)  # Nelson-Aalen
        leaf_mort.append(float(_chf_at(table.event_times, chf, forest_grid).sum()))
        return node

    def build(idx):
        if idx.size < 2 * min_leaf or not e[idx].any():
            return make_leaf(idx)
        candidates = rng.choice(n_features, size=min(mtry, n_features), replace=False)
        split = _best_split(X[idx], t[idx], e[idx], candidates, min_leaf)
        if split is None:
            return make_leaf(idx)
        f, thr = split
        go_left = X[idx, f] <= thr
        node = len(feature)
        feature.append(f)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
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
    return _Sample(X=X[order], t=tc, e=ec, grid=np.unique(tc[ec]),
                   streams=np.random.SeedSequence(opts.seed).spawn(opts.n_trees),
                   mtry=opts.mtry if opts.mtry is not None else int(np.ceil(np.sqrt(p))),
                   options=opts)


def _grow_chunk(samples, chunk):
    """The trees of one chunk ``(forest, first tree, end tree)``."""
    f, lo, hi = chunk
    s = samples[f]
    return _grow_trees(s.X, s.t, s.e, s.grid, s.streams[lo:hi], s.mtry, s.options.min_leaf_size)


def _pool_worker(samples, chunks, counter):
    """The chunks this worker grew, by index: it grows chunks until none is
    left to claim, so it never waits on the pipe while there is work."""
    grown = {}
    while (k := counter.take()) < len(chunks):
        grown[k] = _grow_chunk(samples, chunks[k])
    return grown


class PendingForests:
    """Forests whose trees are being grown, made by ``start_forests``.

    ``finish`` returns the fitted forests; use the object as a context
    manager, so that an exception before ``finish`` stops the workers."""

    def __init__(self, samples: list[_Sample], workers: int):
        self._samples = samples
        self._chunks = []
        for f, s in enumerate(samples):
            # about _CHUNK_WORK subjects x trees per chunk
            step = max(1, round(_CHUNK_WORK / s.t.size))
            n_trees = s.options.n_trees
            self._chunks += [(f, lo, min(lo + step, n_trees)) for lo in range(0, n_trees, step)]
        self._counter = Counter()
        self._workers = [Child(_pool_worker, samples, self._chunks, self._counter)
                         for _ in range(min(workers, len(self._chunks)))]

    def finish(self) -> list[ForestModel]:
        """Grow in this process every chunk no worker has claimed, take the
        workers' chunks, grow here any chunk a worker did not return, and
        put the trees in stream order."""
        grown = [None] * len(self._chunks)
        while (k := self._counter.take()) < len(self._chunks):
            grown[k] = _grow_chunk(self._samples, self._chunks[k])
        for worker in self._workers:
            for k, trees in (worker.result() or {}).items():
                grown[k] = trees
        self.close()
        forests = [[] for _ in self._samples]
        for chunk, trees in zip(self._chunks, grown):
            if trees is None:  # claimed by a worker that failed
                trees = _grow_chunk(self._samples, chunk)
            forests[chunk[0]] += trees
        return [ForestModel(trees=trees, event_time_grid=s.grid, n_features=s.X.shape[1],
                            options=s.options)
                for s, trees in zip(self._samples, forests)]

    def close(self) -> None:
        """Kill and reap the workers; the forests can no longer be finished."""
        for worker in self._workers:
            worker.close()
        self._workers = []
        self._counter.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def start_forests(fits) -> PendingForests:
    """Start growing one forest per ``(X, labels, options)`` in ``fits``.

    The trees go out in chunks to ``_usable_cpus() - 1`` forked workers,
    while this process goes on; ``finish`` on the result grows in this
    process every chunk no worker has claimed or returned and collects the
    rest. The inputs are checked here, before any tree is grown."""
    samples = [_canonical_sample(X, labels, options) for X, labels, options in fits]
    work = sum(s.t.size * s.options.n_trees for s in samples)
    workers = _usable_cpus() - 1 if work >= _POOL_MIN_WORK else 0
    return PendingForests(samples, workers)


def fit_forest(X: np.ndarray, labels: Labels, options: RsfOptions) -> ForestModel:
    """One forest, started and finished at once."""
    with start_forests([(X, labels, options)]) as pending:
        return pending.finish()[0]


def _route(tree: SurvivalTree, X: np.ndarray) -> np.ndarray:
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


def predict_risk(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Ensemble mortality, one per row of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"model has {model.n_features} features, X has shape {X.shape}"
        )
    total = np.zeros(X.shape[0])
    for tree in model.trees:
        leaves = tree.leaf_slot[_route(tree, X)]
        total += tree.leaf_mortality[leaves]
    return total / len(model.trees)
