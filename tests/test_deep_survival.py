import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

try:
    import resource
except ImportError:
    resource = None

from survfuse import dataset, deep_survival
from survfuse.dataset import EventTable, Labels
from survfuse.deep_survival import (
    MlpSurvModel,
    forward,
    init_mlp,
    linear_scores,
    sigmoid,
    train,
)
from survfuse.errors import (
    DimensionMismatchError,
    DivergedLossError,
    InvalidDimensionError,
    MismatchedLengthsError,
    NoEventsError,
)

from defaults import train_options
from strategies import partial_loglik_eta, same_bits


def per_event_loss(scores, labels, tie_method="efron"):
    """Negative partial log-likelihood of the scores, per event."""
    return deep_survival._cox_loss_grad(scores, labels.table, tie_method, with_grad=False)


def objective(model, X, labels, weight_decay=0.0):
    """``(loss, weight_grads, bias_grads)`` of the training objective."""
    return deep_survival._loss_and_gradients(model, X, labels.table, weight_decay, "efron")


def forward_pass(model, X):
    """``(activations incl. the input, hidden pre-activations, logits)`` of
    ``deep_survival._forward_pass`` over X's rows, in a new workspace."""
    ws = deep_survival._Workspace(model.layer_dims, X.shape[0], backward=False)
    z = deep_survival._forward_pass(model, X, ws)
    return [X] + ws.hs, ws.pre[:-1], z


def surv_data(rng, n, d, beta):
    X = rng.standard_normal((n, d))
    risk = X @ np.asarray(beta)
    times = rng.exponential(np.exp(-risk))
    events = rng.random(n) < 0.8
    if not events.any():
        events[0] = True
    return X, Labels(times, events)


class TestInit:
    def test_layer_dims_and_shapes(self):
        m = init_mlp(5, (8, 4), seed=0)
        assert m.layer_dims == (5, 8, 4, 1)
        assert [w.shape for w in m.weights] == [(5, 8), (8, 4), (4, 1)]
        assert [b.shape for b in m.biases] == [(8,), (4,), (1,)]

    def test_fan_in_bounds_and_zero_biases(self):
        m = init_mlp(16, (9,), seed=3)
        assert np.abs(m.weights[0]).max() <= 1.0 / 4.0
        assert np.abs(m.weights[1]).max() <= 1.0 / 3.0
        for b in m.biases:
            assert_array_equal(b, np.zeros_like(b))

    def test_deterministic_by_seed(self):
        a = init_mlp(4, (6,), seed=11)
        b = init_mlp(4, (6,), seed=11)
        c = init_mlp(4, (6,), seed=12)
        for wa, wb in zip(a.weights, b.weights):
            assert_array_equal(wa, wb)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimensionError):
            init_mlp(0, (4,), seed=0)
        with pytest.raises(InvalidDimensionError):
            init_mlp(3, (4, 0), seed=0)

    def test_modality_tag(self):
        assert init_mlp(2, (), seed=0, modality_tag="img").modality_tag == "img"
        # a network is fitted only under a network's component tag
        for tag in ("audio", "pesi", "rsf_clin"):
            with pytest.raises(ValueError, match="network's component tag"):
                init_mlp(2, (), seed=0, modality_tag=tag)


class TestForward:
    def test_scores_in_unit_interval(self):
        m = init_mlp(3, (5,), seed=1)
        X = np.random.default_rng(0).standard_normal((20, 3))
        s = forward(m, X)
        assert s.shape == (20,)
        assert np.all((s > 0) & (s < 1))

    def test_matches_hand_relu_arithmetic(self):
        # 2 -> 2 -> 1 net evaluated longhand for one row
        m = MlpSurvModel(
            layer_dims=(2, 2, 1),
            weights=[np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[2.0], [-1.0]])],
            biases=[np.array([0.1, -0.2]), np.array([0.3])],
            seed=0,
        )
        x = np.array([[1.0, 2.0]])
        h1 = max(1.0 * 1.0 + 2.0 * 0.5 + 0.1, 0.0)          # 2.1
        h2 = max(1.0 * -1.0 + 2.0 * 2.0 - 0.2, 0.0)         # 2.8
        z = h1 * 2.0 + h2 * -1.0 + 0.3                      # 1.7
        assert_allclose(linear_scores(m, x), [z], rtol=1e-15)
        assert_allclose(forward(m, x), [sigmoid(z)], rtol=1e-15)

    def test_relu_clamps_negative_preactivations(self):
        m = MlpSurvModel(
            layer_dims=(1, 1, 1),
            weights=[np.array([[-5.0]]), np.array([[3.0]])],
            biases=[np.array([0.0]), np.array([0.25])],
            seed=0,
        )
        # hidden preactivation is -5, clamped to 0, so the output is the bias
        assert_allclose(linear_scores(m, np.array([[1.0]])), [0.25])

    def test_dimension_mismatch(self):
        m = init_mlp(3, (4,), seed=0)
        with pytest.raises(DimensionMismatchError):
            forward(m, np.zeros((5, 2)))
        with pytest.raises(DimensionMismatchError):
            forward(m, np.zeros(3))


class TestCoxLoss:
    @pytest.mark.parametrize("tie_method", ["efron", "breslow"])
    def test_value_only_path_is_the_same_float(self, tie_method):
        # up to hundreds of event times, so that any other summation order
        # of the per-time terms would show in the last bits
        rng = np.random.default_rng(50)
        for _ in range(30):
            n = int(rng.integers(2, 400))
            times = rng.exponential(1.0, n).round(int(rng.integers(0, 4)))
            table = EventTable(times, rng.random(n) < 0.7)
            if table.death_pos.size == 0:
                continue
            scores = rng.random(n)
            loss = deep_survival._cox_loss_grad(scores, table, tie_method)[0]
            assert deep_survival._cox_loss_grad(scores, table, tie_method, with_grad=False) == loss

    def test_equals_per_event_negative_loglik(self):
        rng = np.random.default_rng(21)
        X, labels = surv_data(rng, 25, 2, (1.0, -0.5))
        scores = sigmoid(X[:, 0])
        ll, _ = partial_loglik_eta(scores, labels, "efron")
        want = -ll / labels.events.sum()
        assert_allclose(per_event_loss(scores, labels), want, rtol=1e-14)

    def test_no_events(self):
        with pytest.raises(NoEventsError):
            per_event_loss([0.5, 0.5], Labels([1, 2], [0, 0]))

    def test_length_mismatch(self):
        with pytest.raises(MismatchedLengthsError):
            per_event_loss([0.5], Labels([1, 2], [1, 1]))


class TestGradients:
    def numeric_grads(self, model, X, labels, wd):
        h = 1e-4
        wgs, bgs = [], []
        for k in range(len(model.weights)):
            g = np.zeros_like(model.weights[k])
            for idx in np.ndindex(*model.weights[k].shape):
                orig = model.weights[k][idx]
                model.weights[k][idx] = orig + h
                up = objective(model, X, labels, wd)[0]
                model.weights[k][idx] = orig - h
                dn = objective(model, X, labels, wd)[0]
                model.weights[k][idx] = orig
                g[idx] = (up - dn) / (2 * h)
            wgs.append(g)
            g = np.zeros_like(model.biases[k])
            for idx in np.ndindex(*model.biases[k].shape):
                orig = model.biases[k][idx]
                model.biases[k][idx] = orig + h
                up = objective(model, X, labels, wd)[0]
                model.biases[k][idx] = orig - h
                dn = objective(model, X, labels, wd)[0]
                model.biases[k][idx] = orig
                g[idx] = (up - dn) / (2 * h)
            bgs.append(g)
        return wgs, bgs

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_backprop_matches_central_differences(self, wd):
        rng = np.random.default_rng(33)
        X, labels = surv_data(rng, 12, 4, (1.0, -0.5, 0.0, 0.3))
        model = init_mlp(4, (3,), seed=5)
        # move off the zero-bias init so ReLU boundaries are not at kinks
        for k in range(len(model.biases)):
            model.biases[k] = model.biases[k] + 0.1 * rng.standard_normal(model.biases[k].shape)
        _, wg, bg = objective(model, X, labels, wd)
        nwg, nbg = self.numeric_grads(model, X, labels, wd)
        for a, n in zip(wg, nwg):
            assert_allclose(a, n, rtol=1e-5, atol=1e-8)
        for a, n in zip(bg, nbg):
            assert_allclose(a, n, rtol=1e-5, atol=1e-8)

    def test_weight_decay_moves_weight_grads_only(self):
        rng = np.random.default_rng(34)
        X, labels = surv_data(rng, 15, 3, (1.0, 0.0, -1.0))
        model = init_mlp(3, (4,), seed=6)
        _, wg0, bg0 = objective(model, X, labels, 0.0)
        _, wg1, bg1 = objective(model, X, labels, 0.5)
        for a, b, W in zip(wg0, wg1, model.weights):
            assert_allclose(b - a, 0.5 * W, rtol=1e-10, atol=1e-12)
        for a, b in zip(bg0, bg1):
            assert_array_equal(a, b)

    def test_loss_includes_penalty_term(self):
        rng = np.random.default_rng(35)
        X, labels = surv_data(rng, 10, 2, (1.0, 1.0))
        model = init_mlp(2, (3,), seed=7)
        base = objective(model, X, labels, 0.0)[0]
        with_wd = objective(model, X, labels, 0.2)[0]
        penalty = 0.5 * 0.2 * sum(float((W ** 2).sum()) for W in model.weights)
        assert_allclose(with_wd, base + penalty, rtol=1e-12)


def stacking_by_subjects(a, b, reduce=False):
    """``deep_survival._by_subjects`` as it was before it wrote into a given
    array: the block products stacked by ``np.concatenate``."""
    blocks = block_bounds(b.shape[0] if reduce else a.shape[0], BLOCK)
    if len(blocks) == 1:
        return a @ b
    if reduce:
        lo, hi = blocks[0]
        out = a[:, lo:hi] @ b[lo:hi]
        for lo, hi in blocks[1:]:
            out += a[:, lo:hi] @ b[lo:hi]
        return out
    return np.concatenate([a[lo:hi] @ b for lo, hi in blocks])


def allocating_forward_pass(model, X):
    """``deep_survival._forward_pass`` as it was before the workspace: new
    layer arrays on every call, each block written into its rows."""
    n = X.shape[0]
    pre = [np.empty((n, W.shape[1])) for W in model.weights]
    hs = [X] + [np.empty_like(a) for a in pre[:-1]]
    for lo, hi in block_bounds(n, BLOCK):
        h = X[lo:hi]
        for W, b, a, relu in zip(model.weights, model.biases, pre, hs[1:] + [None]):
            a = np.matmul(h, W, out=a[lo:hi])
            a += b
            if relu is not None:
                h = np.maximum(a, 0.0, out=relu[lo:hi])
    return hs, pre[:-1], pre[-1].ravel()


def allocating_loss_and_gradients(model, X, table, weight_decay, tie_method):
    """``deep_survival._loss_and_gradients`` as it was before the workspace:
    every subjects x width array of the step a new one; kept as its oracle."""
    hs, pre, z = allocating_forward_pass(model, X)
    s = sigmoid(z)
    loss, dloss_ds = deep_survival._cox_loss_grad(s, table, tie_method)
    if weight_decay > 0:
        loss += 0.5 * weight_decay * sum(float((W ** 2).sum()) for W in model.weights)
    delta = (dloss_ds * s * (1.0 - s))[:, None]
    wg = [None] * len(model.weights)
    bg = [None] * len(model.biases)
    wg[-1] = stacking_by_subjects(hs[-1].T, delta, reduce=True)
    bg[-1] = delta.sum(axis=0)
    dh = delta * model.weights[-1].T
    for k in range(len(model.weights) - 2, -1, -1):
        da = dh * (pre[k] > 0.0)
        wg[k] = stacking_by_subjects(hs[k].T, da, reduce=True)
        bg[k] = da.sum(axis=0)
        if k > 0:
            dh = stacking_by_subjects(da, model.weights[k].T)
    if weight_decay > 0:
        wg = [g + weight_decay * W for g, W in zip(wg, model.weights)]
    return loss, wg, bg


def oracle_train(model, X, labels, val, opts):
    """``train`` as an allocating loop, kept as its oracle: every step from
    ``allocating_loss_and_gradients``, the validation logits one block at a
    time from ``allocating_forward_pass``, and the validation loss from the
    loss-and-gradient path, as before the value-only path. Returns the
    ``(weights, biases)`` that ``train`` should return, and the history."""
    table = EventTable(labels.times, labels.events)
    val_table = None if val is None else EventTable(val[1].times, val[1].events)
    weights = [W.copy() for W in model.weights]
    biases = [b.copy() for b in model.biases]
    work = MlpSurvModel(model.layer_dims, weights, biases, model.seed, model.modality_tag)
    best_val, best, stale, history = np.inf, None, 0, []
    for _ in range(opts.epochs):
        loss, wg, bg = allocating_loss_and_gradients(work, X, table, opts.weight_decay,
                                                     opts.tie_method)
        history.append(float(loss))
        for k in range(len(weights)):
            weights[k] -= opts.learning_rate * wg[k]
            biases[k] -= opts.learning_rate * bg[k]
        if val is None:
            continue
        z = np.concatenate([allocating_forward_pass(work, val[0][lo:hi])[2]
                            for lo, hi in block_bounds(val[0].shape[0], BLOCK)])
        val_loss = deep_survival._cox_loss_grad(sigmoid(z), val_table, opts.tie_method)[0]
        if val_loss < best_val:
            best_val, best, stale = val_loss, ([W.copy() for W in weights],
                                               [b.copy() for b in biases]), 0
        else:
            stale += 1
            if stale >= opts.patience:
                break
    return best or (weights, biases), history


class TestTrain:
    @pytest.mark.parametrize("tie_method", ["efron", "breslow"])
    @pytest.mark.parametrize("patience", [3, 60])
    def test_matches_loop_with_gradient_validation_loss(self, tie_method, patience):
        rng = np.random.default_rng(49)
        X, labels = surv_data(rng, 60, 3, (1.0, -0.5, 0.2))
        Xv, lv = surv_data(rng, 30, 3, (1.0, -0.5, 0.2))
        # tied times put the Efron correction on both losses
        labels = Labels(np.round(labels.times, 1), labels.events)
        lv = Labels(np.round(lv.times, 1), lv.events)
        opts = train_options(learning_rate=0.3, epochs=60, patience=patience, weight_decay=1e-3,
                             tie_method=tie_method)
        model = init_mlp(3, (5,), seed=16)
        trained, history = train(model, X, labels, val=(Xv, lv), options=opts)
        (weights, biases), want = oracle_train(model, X, labels, (Xv, lv), opts)
        assert history == want
        for got, expected in zip(trained.weights + trained.biases, weights + biases):
            assert_array_equal(got, expected)

    def test_zero_learning_rate_constant_history(self):
        rng = np.random.default_rng(41)
        X, labels = surv_data(rng, 30, 3, (1.0, -0.5, 0.2))
        Xv, lv = surv_data(rng, 15, 3, (1.0, -0.5, 0.2))
        model = init_mlp(3, (4,), seed=8)
        opts = train_options(learning_rate=0.0, epochs=40, patience=10, weight_decay=0.0)
        trained, history = train(model, X, labels, val=(Xv, lv), options=opts)
        # no update ever improves, so early stopping fires after patience
        assert len(history) == 11
        assert all(h == history[0] for h in history)
        for w0, w1 in zip(model.weights, trained.weights):
            assert_array_equal(w0, w1)

    def test_loss_decreases_on_signal(self):
        rng = np.random.default_rng(42)
        X, labels = surv_data(rng, 80, 3, (1.5, -1.0, 0.0))
        model = init_mlp(3, (6,), seed=9)
        opts = train_options(learning_rate=0.05, epochs=150, weight_decay=0.0)
        _, history = train(model, X, labels, options=opts)
        assert len(history) == 150
        assert history[-1] < history[0] - 0.01

    def test_input_model_never_mutated(self):
        rng = np.random.default_rng(43)
        X, labels = surv_data(rng, 40, 2, (1.0, -1.0))
        model = init_mlp(2, (4,), seed=10)
        before = [w.copy() for w in model.weights]
        train(model, X, labels, options=train_options(learning_rate=0.1, epochs=30))
        for w0, w1 in zip(before, model.weights):
            assert_array_equal(w0, w1)

    def test_best_validation_weights_returned(self):
        rng = np.random.default_rng(44)
        X, labels = surv_data(rng, 60, 3, (1.0, -0.5, 0.0))
        Xv, lv = surv_data(rng, 30, 3, (1.0, -0.5, 0.0))
        opts = train_options(learning_rate=0.2, epochs=120, patience=120, weight_decay=0.0)
        model = init_mlp(3, (8,), seed=11)
        with_val, _ = train(model, X, labels, val=(Xv, lv), options=opts)
        final, _ = train(model, X, labels, options=opts)
        loss_snapshot = per_event_loss(forward(with_val, Xv), lv)
        loss_final = per_event_loss(forward(final, Xv), lv)
        assert loss_snapshot <= loss_final + 1e-12

    def test_early_stopping_shortens_history(self):
        rng = np.random.default_rng(45)
        X, labels = surv_data(rng, 50, 2, (0.0, 0.0))
        Xv, lv = surv_data(rng, 25, 2, (0.0, 0.0))
        opts = train_options(learning_rate=0.0, epochs=500, patience=5)
        _, history = train(init_mlp(2, (3,), seed=12), X, labels, val=(Xv, lv), options=opts)
        assert len(history) == 6

    def test_builds_each_event_table_once(self):
        # the risk sets depend only on the labels, so the train and
        # validation tables are built once per set of labels, not once per
        # epoch or per call
        rng = np.random.default_rng(47)
        X, labels = surv_data(rng, 40, 2, (1.0, -1.0))
        Xv, lv = surv_data(rng, 20, 2, (1.0, -1.0))
        opts = train_options(learning_rate=0.05, epochs=25, patience=25)
        with mock.patch.object(dataset, "EventTable", wraps=EventTable) as built:
            _, history = train(init_mlp(2, (4,), seed=14), X, labels, val=(Xv, lv), options=opts)
            train(init_mlp(2, (3,), seed=15), X, labels, val=(Xv, lv), options=opts)
        assert len(history) == 25
        assert built.call_count == 2

    def test_history_matches_epoch_by_epoch_replay(self):
        rng = np.random.default_rng(48)
        X, labels = surv_data(rng, 40, 3, (1.0, -1.0, 0.5))
        opts = train_options(learning_rate=0.05, epochs=30, weight_decay=1e-3)
        model = init_mlp(3, (5,), seed=15)
        trained, history = train(model, X, labels, options=opts)
        weights = [W.copy() for W in model.weights]
        biases = [b.copy() for b in model.biases]
        replay = []
        for _ in range(opts.epochs):
            work = MlpSurvModel(model.layer_dims, weights, biases, model.seed)
            loss, wg, bg = objective(work, X, labels, opts.weight_decay)
            replay.append(loss)
            for k in range(len(weights)):
                weights[k] -= opts.learning_rate * wg[k]
                biases[k] -= opts.learning_rate * bg[k]
        assert history == replay
        for got, want in zip(trained.weights, weights):
            assert_array_equal(got, want)

    def test_diverged_loss_raises(self):
        # the sigmoid bounds the data term, so divergence has to come from
        # the penalty: a huge rate makes each decay step multiply the
        # weights, and their squared norm overflows within a few epochs
        rng = np.random.default_rng(46)
        X, labels = surv_data(rng, 40, 2, (2.0, -2.0))
        opts = train_options(learning_rate=1e12, epochs=50, weight_decay=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedLossError):
                train(init_mlp(2, (4,), seed=13), X, labels, options=opts)


def block_bounds(n, block):
    """Blocks of ``block`` subjects, the last one longer by one subject
    rather than a block of one."""
    bounds = list(range(0, n, block)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds.pop(-2)
    return list(zip(bounds[:-1], bounds[1:]))


def reference_loss_and_gradients(model, X, labels, weight_decay, block=None):
    """The objective and gradients with every product over the subjects as
    one call, as before the subject blocks; with ``block``, a loop over
    blocks of that many subjects, stacking the row products and adding each
    weight gradient's block products in block order."""
    def rows(a, b):
        if block is None:
            return a @ b
        return np.concatenate([a[lo:hi] @ b for lo, hi in block_bounds(a.shape[0], block)])

    def over_subjects(a, b):
        if block is None:
            return a @ b
        parts = [a[:, lo:hi] @ b[lo:hi] for lo, hi in block_bounds(b.shape[0], block)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total

    hs, pre, h = [X], [], X
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        a = rows(h, W) + b
        pre.append(a)
        h = np.maximum(a, 0.0)
        hs.append(h)
    z = (rows(h, model.weights[-1]) + model.biases[-1]).ravel()
    s = sigmoid(z)
    table = EventTable(labels.times, labels.events)
    loss, dloss_ds = deep_survival._cox_loss_grad(s, table)
    if weight_decay > 0:
        loss += 0.5 * weight_decay * sum(float((W ** 2).sum()) for W in model.weights)
    delta = (dloss_ds * s * (1.0 - s))[:, None]
    wg = [None] * len(model.weights)
    bg = [None] * len(model.biases)
    wg[-1] = over_subjects(hs[-1].T, delta)
    bg[-1] = delta.sum(axis=0)
    dh = rows(delta, model.weights[-1].T)
    for k in range(len(model.weights) - 2, -1, -1):
        da = dh * (pre[k] > 0.0)
        wg[k] = over_subjects(hs[k].T, da)
        bg[k] = da.sum(axis=0)
        if k > 0:
            dh = rows(da, model.weights[k].T)
    if weight_decay > 0:
        wg = [g + weight_decay * W for g, W in zip(wg, model.weights)]
    return z, loss, wg, bg


@st.composite
def networks(draw, min_n, max_n, shapes=None):
    """A random network, inputs and labels with ``min_n`` to ``max_n``
    subjects; ``shapes`` lists the (inputs, hidden widths) to draw from."""
    n = draw(st.integers(min_n, max_n))
    if shapes is None:
        d = draw(st.integers(1, 40))
        hidden = tuple(draw(st.lists(st.integers(1, 70), min_size=0, max_size=2)))
    else:
        d, hidden = draw(st.sampled_from(shapes))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    model = init_mlp(d, hidden, seed=seed)
    model.biases = [b + 0.1 * rng.standard_normal(b.shape) for b in model.biases]
    X, labels = surv_data(rng, n, d, rng.standard_normal(d))
    return model, X * draw(st.sampled_from([1e-3, 1.0, 30.0])), labels


# the study's networks at the default config: 11 clinical inputs and 32
# hidden units, 32 imaging features and 64 hidden units
STUDY_SHAPES = ((11, (32,)), (32, (64,)))


BLOCK = deep_survival._SUBJECT_BLOCK


@st.composite
def scoring_networks(draw):
    """A network at the study's shapes or of random widths up to 64, on a
    cohort of one, two or three blocks, either side of their bounds."""
    n = draw(st.sampled_from((1, 2, 240, 241, 242, 480, 481, 482, 1000)))
    widths = st.integers(1, 64)
    shape = draw(st.sampled_from(STUDY_SHAPES)
                 | st.tuples(widths, st.lists(widths, max_size=2).map(tuple)))
    return draw(networks(n, n, [shape]))


class TestSubjectBlocks:
    @pytest.mark.parametrize("n,bounds", [
        (1, [(0, 1)]), (240, [(0, 240)]), (241, [(0, 241)]), (242, [(0, 240), (240, 242)]),
        (481, [(0, 240), (240, 481)]), (600, [(0, 240), (240, 480), (480, 600)]),
    ])
    def test_no_block_of_one_subject(self, n, bounds):
        assert BLOCK == 240
        assert list(deep_survival._subject_blocks(n)) == bounds == block_bounds(n, BLOCK)

    @settings(max_examples=60, deadline=None)
    @given(networks(1, 3 * BLOCK + 2, STUDY_SHAPES) | networks(3990, 4010, STUDY_SHAPES))
    def test_blocked_forward_is_the_one_product(self, net):
        # scoring with an artifact the one-product forward trained gives the
        # scores it gave then. Shown at the study's shapes only: at some
        # other widths this OpenBLAS rounds a block of rows differently
        # from the whole matrix (see CHANGES.md)
        model, X, _ = net
        hs, pre, z = forward_pass(model, X)
        h = X
        for k, (W, b) in enumerate(zip(model.weights[:-1], model.biases[:-1])):
            a = h @ W + b
            assert same_bits(pre[k], a)
            h = np.maximum(a, 0.0)
            assert same_bits(hs[k + 1], h)
        assert same_bits(z, (h @ model.weights[-1] + model.biases[-1]).ravel())

    @settings(max_examples=60, deadline=None)
    @given(scoring_networks())
    def test_scoring_walks_the_blocks_training_stacks(self, net):
        # scoring takes each block through every layer, training each layer
        # through every block: the same products, so the same logits
        model, X, _ = net
        z = linear_scores(model, X)
        assert same_bits(z, forward_pass(model, X)[2])
        assert same_bits(forward(model, X), sigmoid(z))

    def test_scoring_holds_one_block_of_activations(self):
        # 20000 subjects through a 64-unit layer are 10 MB per layer at once;
        # a block's are 120 kB
        model = init_mlp(32, (64,), seed=0)
        X = np.random.default_rng(0).standard_normal((20000, 32))
        tracemalloc.start()
        try:
            linear_scores(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=40, deadline=None)
    @given(networks(2, BLOCK + 1), st.sampled_from([0.0, 1e-2]))
    def test_one_block_is_the_one_call_formulas(self, net, wd):
        model, X, labels = net
        loss, wg, bg = objective(model, X, labels, wd)
        z, ref_loss, ref_wg, ref_bg = reference_loss_and_gradients(model, X, labels, wd)
        assert loss == ref_loss
        for got, want in zip(wg + bg, ref_wg + ref_bg):
            assert same_bits(got, want)

    @settings(max_examples=25, deadline=None)
    @given(networks(BLOCK + 2, 3 * BLOCK + 2), st.sampled_from([0.0, 1e-2]))
    def test_weight_gradients_are_block_sums_in_order(self, net, wd):
        model, X, labels = net
        loss, wg, bg = objective(model, X, labels, wd)
        _, ref_loss, ref_wg, ref_bg = reference_loss_and_gradients(model, X, labels, wd,
                                                                   block=BLOCK)
        assert loss == ref_loss
        for got, want in zip(wg + bg, ref_wg + ref_bg):
            assert same_bits(got, want)


def recomputing_forward_pass(model, X):
    """``deep_survival._forward_pass`` as it was before it wrote each block
    into the layer arrays: each block's pre-activations, stacked by
    ``np.concatenate``, and every hidden layer's ReLU formed again from the
    stacked pre-activations; kept as its oracle."""
    def block_pass(x):
        pre = [x @ model.weights[0] + model.biases[0]]
        for W, b in zip(model.weights[1:], model.biases[1:]):
            pre.append(np.maximum(pre[-1], 0.0) @ W + b)
        return pre

    blocks = [block_pass(X[lo:hi]) for lo, hi in block_bounds(X.shape[0], BLOCK)]
    pre = [np.concatenate(layer) for layer in zip(*blocks)]
    hs = [X] + [np.maximum(a, 0.0) for a in pre[:-1]]
    return hs, pre[:-1], pre[-1].ravel()


def blas_loss_and_gradients(model, X, table, weight_decay, tie_method="efron"):
    """``deep_survival._loss_and_gradients`` as it was: the recomputing
    forward pass, and the output layer's backward product ``delta @ W.T``
    through ``_by_subjects``; kept as its oracle."""
    hs, pre, z = recomputing_forward_pass(model, X)
    s = sigmoid(z)
    loss, dloss_ds = deep_survival._cox_loss_grad(s, table, tie_method)
    if weight_decay > 0:
        loss += 0.5 * weight_decay * sum(float((W ** 2).sum()) for W in model.weights)
    delta = (dloss_ds * s * (1.0 - s))[:, None]
    wg = [None] * len(model.weights)
    bg = [None] * len(model.biases)
    wg[-1] = deep_survival._by_subjects(hs[-1].T, delta, reduce=True)
    bg[-1] = delta.sum(axis=0)
    dh = deep_survival._by_subjects(delta, model.weights[-1].T)
    for k in range(len(model.weights) - 2, -1, -1):
        da = dh * (pre[k] > 0.0)
        wg[k] = deep_survival._by_subjects(hs[k].T, da, reduce=True)
        bg[k] = da.sum(axis=0)
        if k > 0:
            dh = deep_survival._by_subjects(da, model.weights[k].T)
    if weight_decay > 0:
        wg = [g + weight_decay * W for g, W in zip(wg, model.weights)]
    return loss, wg, bg


@st.composite
def pass_networks(draw):
    """A network of one or two hidden layers of widths up to 64 on a cohort
    of one, two or three blocks, either side of their bounds."""
    n = draw(st.sampled_from((1, 2, 140, 240, 241, 242, 480, 481, 482, 700))
             | st.integers(1, 3 * BLOCK + 1))
    widths = st.integers(1, 64)
    shape = draw(st.sampled_from(STUDY_SHAPES)
                 | st.tuples(widths, st.lists(widths, min_size=1, max_size=2).map(tuple)))
    return draw(networks(n, n, [shape]))


def zero_sign_free(a):
    """``a`` with each -0.0 made +0.0, every other float as it is."""
    return np.asarray(a) + 0.0


class TestOnePassPerStep:
    @settings(max_examples=80, deadline=None)
    @given(pass_networks())
    def test_forward_pass_is_the_recomputing_pass(self, net):
        model, X, _ = net
        hs, pre, z = forward_pass(model, X)
        want_hs, want_pre, want_z = recomputing_forward_pass(model, X)
        assert len(hs) == len(want_hs) and len(pre) == len(want_pre)
        assert hs[0] is X
        for got, want in zip(hs + pre + [z], want_hs + want_pre + [want_z]):
            assert same_bits(got, want)

    @settings(max_examples=60, deadline=None)
    @given(pass_networks(), st.sampled_from([0.0, 1e-2]))
    def test_loss_and_gradients_are_the_blas_backward(self, net, wd):
        # bit for bit, a hidden layer's bias gradient up to the sign of an
        # exact zero: the output product's zeros keep their sign (see
        # test_output_product_is_the_blas_product), and how a sum of signed
        # zeros comes out is numpy's choice
        model, X, labels = net
        loss, wg, bg = objective(model, X, labels, wd)
        want_loss, want_wg, want_bg = blas_loss_and_gradients(model, X, labels.table, wd)
        assert same_bits(loss, want_loss)
        for got, want in zip(wg + bg[-1:], want_wg + want_bg[-1:]):
            assert same_bits(got, want)
        for got, want in zip(bg[:-1], want_bg[:-1]):
            assert same_bits(zero_sign_free(got), zero_sign_free(want))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 140, 240, 241, 242, 481, 723)), st.integers(1, 64),
           st.integers(0, 2**16))
    def test_output_product_is_the_blas_product(self, n, width, seed):
        # an inner dimension of 1 sums nothing: each float is the one
        # product, which BLAS rounds the same; only an exact zero may
        # differ, in its sign (OpenBLAS adds the product to +0, so it gives
        # +0 where the broadcast keeps the product's sign)
        rng = np.random.default_rng(seed)
        delta = rng.standard_normal((n, 1)) * rng.choice([1e-300, 1.0, 1e300], (n, 1))
        delta[rng.random(n) < 0.2] = 0.0
        delta[rng.random(n) < 0.2] = -0.0
        W = rng.standard_normal((width, 1))
        W[rng.random(width) < 0.2] = 0.0
        with np.errstate(over="ignore", under="ignore"):
            got = delta * W.T
            want = deep_survival._by_subjects(delta, W.T)
        nonzero = got != 0.0
        assert same_bits(got[nonzero], want[nonzero])
        assert np.array_equal(got, want)

    def test_exact_zero_gradient_trains_as_the_blas_backward(self):
        # one subject, who dies: the loss's gradient is an exact -0, so the
        # broadcast output product holds -0 where OpenBLAS's holds +0; the
        # gradients, the history and the trained parameters are the same
        X = np.array([[0.5, -1.0, 2.0]])
        labels = Labels([3.0], [True])
        model = init_mlp(3, (4, 5), seed=2)
        s = sigmoid(forward_pass(model, X)[2])
        delta = (deep_survival._cox_loss_grad(s, labels.table)[1] * s * (1.0 - s))[:, None]
        assert delta[0, 0] == 0.0 and np.signbit(delta[0, 0])
        W = model.weights[-1].T
        assert np.signbit(delta * W).any()
        loss, wg, bg = objective(model, X, labels, 1e-3)
        want_loss, want_wg, want_bg = blas_loss_and_gradients(model, X, labels.table, 1e-3)
        assert same_bits(loss, want_loss)
        for got, want in zip(wg + bg, want_wg + want_bg):
            assert same_bits(zero_sign_free(got), zero_sign_free(want))
        opts = train_options(learning_rate=0.1, epochs=5, patience=5, weight_decay=1e-3)
        got, got_history = train(model, X, labels, opts, val=(X, labels))

        def blas_step(model, X, table, weight_decay, tie_method, ws):
            return blas_loss_and_gradients(model, X, table, weight_decay, tie_method)

        with mock.patch.object(deep_survival, "_loss_and_gradients", blas_step):
            want, want_history = train(model, X, labels, opts, val=(X, labels))
        assert got_history == want_history
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert same_bits(a, b)


@st.composite
def training_runs(draw):
    """A network of one or two hidden layers, of widths up to 64 or of 70
    (whose 241-subject blocks are over 128 KiB per layer), with training
    and validation cohorts of one, two or three blocks drawn independently
    (so the validation cohort may be the larger), and options under which
    patience may fire or not."""
    sizes = st.sampled_from((1, 2, 140, 240, 241, 242, 481, 723, 840))
    n, n_val = draw(sizes), draw(sizes | st.none())
    widths = st.integers(1, 64) | st.just(70)
    d = draw(widths)
    hidden = tuple(draw(st.lists(widths, min_size=1, max_size=2)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(d)
    X, labels = surv_data(rng, n, d, beta)
    val = None if n_val is None else surv_data(rng, n_val, d, beta)
    epochs = 8
    opts = train_options(learning_rate=draw(st.sampled_from([0.1, 2.0])), epochs=epochs,
                         weight_decay=draw(st.sampled_from([0.0, 1e-2])),
                         patience=draw(st.sampled_from([1, epochs])))
    return init_mlp(d, hidden, seed=seed), X, labels, val, opts


class TestWorkspace:
    @settings(max_examples=60, deadline=None)
    @given(training_runs())
    def test_train_is_the_allocating_loop(self, run):
        # the workspace moves where each float is written, not what it is:
        # weights, biases and history bit for bit, signed zeros included
        model, X, labels, val, opts = run
        trained, history = train(model, X, labels, opts, val=val)
        (weights, biases), want = oracle_train(model, X, labels, val, opts)
        assert history == want
        for got, expected in zip(trained.weights + trained.biases, weights + biases):
            assert same_bits(got, expected)

    def test_early_stop_and_full_run_are_the_allocating_loop(self):
        # both ways out of the epoch loop, whatever the property draws
        rng = np.random.default_rng(3)
        X, labels = surv_data(rng, 140, 8, rng.standard_normal(8))
        val = surv_data(rng, 242, 8, rng.standard_normal(8))
        model = init_mlp(8, (70, 5), seed=4)
        lengths = []
        for patience in (2, 8):
            opts = train_options(learning_rate=2.0, epochs=8, weight_decay=1e-2,
                                 patience=patience)
            trained, history = train(model, X, labels, opts, val=val)
            (weights, biases), want = oracle_train(model, X, labels, val, opts)
            assert history == want
            for got, expected in zip(trained.weights + trained.biases, weights + biases):
                assert same_bits(got, expected)
            lengths.append(len(history))
        assert lengths[0] < 8 == lengths[1]

    @pytest.mark.parametrize("which", ["training", "validation"])
    def test_labels_without_a_death_are_refused_before_any_step(self, which):
        rng = np.random.default_rng(5)
        X, labels = surv_data(rng, 30, 3, (1.0, -0.5, 0.2))
        Xv, lv = surv_data(rng, 12, 3, (1.0, -0.5, 0.2))
        if which == "training":
            labels = Labels(labels.times, np.zeros(30, dtype=bool))
        else:
            lv = Labels(lv.times, np.zeros(12, dtype=bool))
        opts = train_options(learning_rate=0.1, epochs=5, patience=5)
        with mock.patch.object(deep_survival, "_loss_and_gradients") as step:
            with pytest.raises(NoEventsError, match=f"^{which} labels have no event$"):
                train(init_mlp(3, (4,), seed=1), X, labels, opts, val=(Xv, lv))
        step.assert_not_called()

    @pytest.mark.skipif(resource is None, reason="needs getrusage")
    def test_epochs_fault_no_arrays_back_in(self):
        # a fresh process, so that no earlier test has moved glibc's mmap
        # threshold: an 840-subject 32 -> 64 -> 1 network trained for 120
        # epochs with validation. Allocating each epoch's 840 x 64 arrays
        # anew took about 45k minor faults; the workspace's first touch
        # takes a few hundred
        code = (
            "import resource, numpy as np\n"
            "from survfuse.dataset import Labels\n"
            "from survfuse.deep_survival import TrainOptions, init_mlp, train\n"
            "rng = np.random.default_rng(0)\n"
            "def cohort(n):\n"
            "    X = rng.standard_normal((n, 32))\n"
            "    return X, Labels(rng.exponential(1.0, n), rng.random(n) < 0.8)\n"
            "(X, y), val = cohort(840), cohort(180)\n"
            "opts = TrainOptions(learning_rate=1e-3, epochs=120, weight_decay=1e-4,"
            " patience=120)\n"
            "model = init_mlp(32, (64,), seed=0, modality_tag='img')\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "_, history = train(model, X, y, opts, val=val)\n"
            "print(len(history), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(deep_survival.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        epochs, faults = map(int, done.stdout.split())
        assert epochs == 120
        assert faults < 5000


class TestSigmoid:
    def test_values(self):
        assert sigmoid(0.0) == 0.5
        assert_allclose(sigmoid(np.log(3.0)), 0.75, rtol=1e-15)

    def test_stable_at_extremes(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0
        out = sigmoid(np.array([-750.0, 0.0, 750.0]))
        assert np.all(np.isfinite(out))

    def test_symmetry(self):
        x = np.linspace(-20, 20, 41)
        assert_allclose(sigmoid(x) + sigmoid(-x), np.ones_like(x), rtol=1e-12)
