"""Random survival forest.

Trees are grown on bootstrap resamples, splitting on the standardized
absolute two-sample log-rank statistic evaluated exhaustively over midpoint
thresholds of ``mtry`` randomly chosen features per node. Leaves store the
Nelson-Aalen cumulative hazard of their in-bag subjects. A subject's
ensemble mortality is the mean over trees of the leaf cumulative hazard
summed across the training event-time grid, so higher values mean higher
predicted risk on the training time scale.

Determinism: per-tree generators are spawned from the master seed before
any tree is grown, node recursion is depth-first left-to-right, and fitting
canonicalizes the sample order by a stable (time, event) sort so a
permutation of the input records cannot change the forest (up to exact
(time, event) ties between records with different features).

Trees are grown on up to one process per CPU the process may run on: this
process and forked workers each grow an interleaved share of the per-tree
streams, and the trees are put back in stream order, so the forest is the
same bit for bit for any worker count. Where there is one CPU or one tree,
or the platform cannot fork or report the usable CPUs, every tree is grown
in this process. Forking copies only the calling thread, so ``fit_forest``
should not be called while other threads of the process hold locks.

Node event counts and leaf hazards are read from the node's
``dataset.EventTable``. The split-search inner loop exploits two identities
to stay vectorized: the log-rank numerator for a left prefix equals the
prefix sum of the per-subject martingale residuals (event flag minus node
Nelson-Aalen at the subject's time), and the hypergeometric variance is a
weighted sum of ``n_left * (n_at_risk - n_left)`` terms over event times.
The prefix at-risk counts are exact int32 counts from a cumulative sum
over the node's subjects per candidate feature, taken a fixed block of
subjects at a time with the counts carried between blocks, and the variance
is formed only at the admissible split positions, so the search's memory is
linear in the node size. The split score is ``sqrt`` of
``metrics.logrank_test``'s chi-square for the two children.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dataset import EventTable, SurvivalLabel, label_arrays
from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    NoEventsError,
    NonFiniteInputError,
)


# sorted subjects per block of the split search's at-risk counts
_SPLIT_BLOCK = 128


@dataclass(frozen=True)
class RsfOptions:
    n_trees: int = 100
    mtry: int | None = None          # default: ceil(sqrt(n_features))
    min_leaf_size: int = 15
    seed: int = 0

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
    leaf_times: list[np.ndarray]      # distinct event times in the leaf
    leaf_chf: list[np.ndarray]        # Nelson-Aalen values at leaf_times
    leaf_mortality: np.ndarray        # sum of the leaf CHF over the forest grid


@dataclass(eq=False)
class ForestModel:
    trees: list[SurvivalTree]
    event_time_grid: np.ndarray
    n_features: int
    options: RsfOptions


def _node_statistics(t: np.ndarray, e: np.ndarray):
    """Event grid, at-risk counts, variance weights and residuals for a node."""
    table = EventTable(t, e)
    grid = table.event_times
    n_e = table.at_risk.astype(float)
    d_e = table.deaths.astype(float)
    k_e = np.where(n_e > 1, d_e * (n_e - d_e) / (n_e ** 2 * np.maximum(n_e - 1, 1.0)), 0.0)
    na = np.cumsum(d_e / n_e)
    gidx = np.searchsorted(grid, t, side="right") - 1
    resid = e.astype(float) - np.where(gidx >= 0, na[np.maximum(gidx, 0)], 0.0)
    return grid, n_e, k_e, resid


def _prefix_split_scores(t, grid, n_e, k_e, resid, order, cand):
    """Split score |O - E| / sqrt(V) of the left child ``order[:c + 1]`` for
    each position ``c`` in ``cand`` (ascending); zero where the variance
    vanishes."""
    prefix_resid = np.cumsum(resid[order])
    t_sorted = t[order]
    var_c = np.empty(cand.size)
    # n_left[k, g]: subjects of the left child of cand[k] at risk at grid[g],
    # as exact counts, built _SPLIT_BLOCK sorted subjects at a time with the
    # counts of the earlier blocks carried in, so temporaries stay
    # O(_SPLIT_BLOCK x event times). Each row is contiguous, so numpy sums it
    # over the event times pairwise; a sequential sum would move split scores
    # in the last bit.
    carry = np.zeros(grid.size, dtype=np.int32)
    done = 0
    for lo in range(0, int(cand.max(initial=-1)) + 1, _SPLIT_BLOCK):
        counts = (t_sorted[lo:lo + _SPLIT_BLOCK, None] >= grid).astype(np.int32)
        counts[0] += carry
        np.cumsum(counts, axis=0, out=counts)
        carry = counts[-1]
        stop = np.searchsorted(cand, lo + counts.shape[0], side="left")
        n_left = counts[cand[done:stop] - lo]
        var_c[done:stop] = (k_e * n_left * (n_e - n_left)).sum(axis=1)
        done = stop
    scores = np.zeros(cand.size)
    ok = var_c > 0
    scores[ok] = np.abs(prefix_resid[cand[ok]]) / np.sqrt(var_c[ok])
    return scores


def _best_split(X_node, t_node, e_node, candidates, min_leaf):
    m = t_node.size
    if not e_node.any():
        return None
    stats = _node_statistics(t_node, e_node)
    lo, hi = min_leaf - 1, m - min_leaf - 1
    if hi < lo:
        return None
    positions = np.arange(lo, hi + 1)
    best_score = 0.0
    best = None
    for f in candidates:
        v = X_node[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cand = positions[vs[positions] < vs[positions + 1]]
        if cand.size == 0:
            continue
        scores = _prefix_split_scores(t_node, *stats, order, cand)
        j = int(np.argmax(scores))
        if scores[j] > best_score:
            best_score = float(scores[j])
            best = (int(f), float((vs[cand[j]] + vs[cand[j] + 1]) / 2.0))
    return best


def _chf_at(times: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(times, query, side="right") - 1
    out = np.zeros(query.size)
    hit = idx >= 0
    out[hit] = values[idx[hit]]
    return out


def _grow_tree(X, t, e, rng, mtry, min_leaf, forest_grid):
    feature, threshold, left, right, leaf_slot = [], [], [], [], []
    leaf_times, leaf_chf, leaf_mort = [], [], []
    n_features = X.shape[1]

    def make_leaf(idx):
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        slot = len(leaf_times)
        leaf_slot.append(slot)
        table = EventTable(t[idx], e[idx])
        chf = np.cumsum(table.deaths / table.at_risk)  # Nelson-Aalen
        leaf_times.append(table.event_times)
        leaf_chf.append(chf)
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
        leaf_times=leaf_times,
        leaf_chf=leaf_chf,
        leaf_mortality=np.array(leaf_mort, dtype=float),
    )


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, as on macOS
        return 1


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


def _grow_shares(shares):
    """``_grow_trees`` of each share: the first in this process and the others
    in forked worker processes, or all in this process where fork is missing."""
    if len(shares) > 1:
        # imported here, so that scoring, which fits no forest, skips the
        # ~25 ms of imports
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            # fork, asked for by name, so no default start method (which
            # Python 3.14 changes) is relied on: a forked worker starts in
            # ~10 ms, while a spawned one imports numpy and this package
            # again, ~0.4 s, as long as a 10-tree forest on 840 subjects takes
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(len(shares) - 1, mp_context=context) as pool:
                pending = [pool.submit(_grow_trees, *share) for share in shares[1:]]
                return [_grow_trees(*shares[0])] + [job.result() for job in pending]
    return [_grow_trees(*share) for share in shares]


def fit_forest(X: np.ndarray, labels: list[SurvivalLabel],
               options: RsfOptions | None = None) -> ForestModel:
    opts = options or RsfOptions()
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
    times, events = label_arrays(labels)
    if not events.any():
        raise NoEventsError("forest fitting needs at least one event")

    # canonical sample order: stable sort by (time, event) so fitting is
    # independent of the caller's record order
    order = np.lexsort((events, times))
    Xc, tc, ec = X[order], times[order], events[order]

    grid = np.unique(tc[ec])
    mtry = opts.mtry if opts.mtry is not None else int(np.ceil(np.sqrt(p)))
    streams = np.random.SeedSequence(opts.seed).spawn(opts.n_trees)
    workers = min(_usable_cpus(), opts.n_trees)
    # share k holds trees k, k + workers, ...
    grown = _grow_shares([(Xc, tc, ec, grid, streams[k::workers], mtry, opts.min_leaf_size)
                          for k in range(workers)])
    trees = [grown[i % workers][i // workers] for i in range(opts.n_trees)]
    return ForestModel(trees=trees, event_time_grid=grid, n_features=p, options=opts)


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


def predict_risk(model: ForestModel, x: np.ndarray):
    """Ensemble mortality for one record (1-D) or a batch (2-D)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"model has {model.n_features} features, input has {X.shape[1]}"
        )
    total = np.zeros(X.shape[0])
    for tree in model.trees:
        leaves = tree.leaf_slot[_route(tree, X)]
        total += tree.leaf_mortality[leaves]
    risk = total / len(model.trees)
    return float(risk[0]) if single else risk
