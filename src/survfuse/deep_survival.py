"""Feed-forward survival networks trained on the Cox partial likelihood.

The architecture is deliberately small: ReLU hidden layers, one linear
output neuron, and a sigmoid squashing the risk score into (0, 1). The
training loss is the negative partial log-likelihood of the sigmoid scores
(treated as log-hazard ratios) divided by the number of events; gradients
are computed analytically by backpropagation, full batch, plain gradient
descent with weight decay on the weight matrices.

Score scale note: the sigmoid is a strictly increasing map, so ranking
metrics (c-index) are identical whether computed on the squashed score or
the pre-sigmoid logit. ``sigmoid`` lives here, with the scoring code that
applies it; the study also maps fused linear scores through it.

Subject blocks: every matrix product over the subjects is formed
``_SUBJECT_BLOCK`` (240) subjects at a time (``_subject_blocks``, cached per
count), so that it rounds the same whatever number of threads BLAS runs.
``_forward_pass`` takes each block through every layer, one ReLU per
hidden layer, into the block's rows of each layer's array, which
backpropagation reads whole. Scoring (``linear_scores``, ``forward``) runs
it a block at a time and keeps only the logits, so a call holds its inputs
plus O(240 x width) floats. The backward products go through
``_by_subjects``; a weight gradient sums over the subjects, and is the sum
of its block products added in block order. A block is the same operands
either way, so scoring and training compute the same floats. Up to
``_SUBJECT_BLOCK`` + 1 subjects a product is one call, and no block is of
one subject (BLAS would take its matrix-vector route, which rounds
differently). The output layer's backward product sums nothing (its inner
dimension is 1): it is the broadcast ``delta * W.T``, without blocks. Its
floats are BLAS's but for the sign of an exact zero (BLAS gives +0); the
gradients' sums do not keep that sign here, and a parameter minus either
zero is the same float unless it is -0, which none from ``init_mlp`` is.

Workspace: ``train`` makes one ``_Workspace`` per call, holding every
subjects x width array of a step: each layer's pre-activations and each
hidden layer's activations, which ``_forward_pass`` writes block by
block, and each hidden layer's ReLU mask and backpropagated product,
which the backward pass forms with ``out=`` (the masked product in place,
the stacked ``da @ W.T`` of the layer above through ``_by_subjects``). Every
epoch writes the same arrays again, so it allocates nothing of n x width
floats; what it still allocates scales with n alone, or with the widths.
The validation pass writes each of its blocks into one block-sized
workspace, made once per call too. Scoring still holds one block: a
``linear_scores`` call makes a block-sized workspace and passes every
block through it. The workspace changes where the floats are written,
not the operations or their operands, so the floats are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dataset import EventTable, Labels
from .errors import (
    DimensionMismatchError,
    DivergedLossError,
    InvalidDimensionError,
    MismatchedLengthsError,
    NoEventsError,
    NonFiniteInputError,
)
from .kinds import TAGS

# subjects per block of the matrix products
_SUBJECT_BLOCK = 240


@dataclass
class MlpSurvModel:
    """Weights/biases per layer; treat instances as immutable after creation."""

    layer_dims: tuple[int, ...]          # input, hidden..., 1
    weights: list[np.ndarray]            # weights[k]: (layer_dims[k], layer_dims[k+1])
    biases: list[np.ndarray]
    seed: int
    modality_tag: str = "clin"


@dataclass(frozen=True)
class TrainOptions:
    learning_rate: float
    epochs: int
    weight_decay: float
    patience: int
    tie_method: str = "efron"


def init_mlp(input_dim: int, hidden_dims: tuple[int, ...], seed: int,
             modality_tag: str = "clin") -> MlpSurvModel:
    """Deterministic fan-in-scaled uniform init: W ~ U(+-1/sqrt(fan_in)), b = 0."""
    if input_dim < 1:
        raise InvalidDimensionError(f"input_dim must be >= 1, got {input_dim}")
    if any(h < 1 for h in hidden_dims):
        raise InvalidDimensionError(f"hidden dims must all be >= 1, got {hidden_dims}")
    if TAGS.get(modality_tag, (None,))[0] != "mlp":
        raise ValueError(f"modality_tag must be a network's component tag, got {modality_tag!r}")
    dims = (input_dim, *hidden_dims, 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpSurvModel(layer_dims=dims, weights=weights, biases=biases,
                        seed=seed, modality_tag=modality_tag)


@lru_cache(maxsize=16)
def _subject_blocks(n: int) -> tuple[tuple[int, int], ...]:
    """Bounds of the blocks of ``_SUBJECT_BLOCK`` subjects, the last block
    taking one more subject rather than leaving a block of one: a one-row
    product goes through BLAS's matrix-vector routine, which rounds
    differently from the matrix product of the whole."""
    bounds = list(range(0, n, _SUBJECT_BLOCK)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return tuple(zip(bounds[:-1], bounds[1:]))


def _by_subjects(a: np.ndarray, b: np.ndarray, reduce: bool = False,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` taken a block of subjects at a time (see the module
    docstring). Subjects are the rows of ``a``, and the block products are
    stacked into ``out`` (a new array if none); or, with ``reduce``, the
    columns of ``a`` and rows of ``b``, and the block products are added
    in block order. Up to ``_SUBJECT_BLOCK`` + 1 subjects it is the one
    product ``a @ b``."""
    blocks = _subject_blocks(b.shape[0] if reduce else a.shape[0])
    if len(blocks) == 1:
        return np.matmul(a, b, out=out)
    if reduce:
        lo, hi = blocks[0]
        total = a[:, lo:hi] @ b[lo:hi]
        for lo, hi in blocks[1:]:
            total += a[:, lo:hi] @ b[lo:hi]
        return total
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    for lo, hi in blocks:
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


class _Workspace:
    """The subjects x width arrays of a pass over up to ``rows`` subjects,
    made once and written again by each pass: every layer's pre-activations
    and every hidden layer's activations, and, for the backward pass
    (``backward``), every hidden layer's ReLU mask and backpropagated
    product (``delta * W.T`` or the layer above's stacked ``da @ W.T``,
    then masked in place)."""

    def __init__(self, dims: tuple[int, ...], rows: int, backward: bool = True):
        hidden = dims[1:-1]
        self.pre = [np.empty((rows, width)) for width in dims[1:]]
        self.hs = [np.empty((rows, width)) for width in hidden]
        if backward:
            self.mask = [np.empty((rows, width), dtype=bool) for width in hidden]
            self.dh = [np.empty((rows, width)) for width in hidden]


def _block_workspace(model: MlpSurvModel, n: int) -> _Workspace:
    """A forward workspace for the largest of ``n`` subjects' blocks."""
    return _Workspace(model.layer_dims, min(n, _SUBJECT_BLOCK + 1), backward=False)


def _forward_pass(model: MlpSurvModel, X: np.ndarray, ws: _Workspace) -> np.ndarray:
    """The logits of X's rows. Each subject block goes through every layer,
    one ReLU per hidden layer, written into the block's rows of each
    layer's arrays in ``ws``, which has at least X's rows."""
    for lo, hi in _subject_blocks(X.shape[0]):
        h = X[lo:hi]
        for W, b, a, relu in zip(model.weights, model.biases, ws.pre, ws.hs + [None]):
            a = np.matmul(h, W, out=a[lo:hi])
            a += b
            if relu is not None:
                h = np.maximum(a, 0.0, out=relu[lo:hi])
    return ws.pre[-1][:X.shape[0], 0]


def _check_input(model: MlpSurvModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.layer_dims[0]:
        raise DimensionMismatchError(
            f"model expects {model.layer_dims[0]} inputs, X has shape {X.shape}"
        )
    return X


def linear_scores(model: MlpSurvModel, X: np.ndarray) -> np.ndarray:
    """Pre-sigmoid output logits, one subject block at a time through every
    layer, so no more than one block's activations are held at once."""
    X = _check_input(model, X)
    return _blockwise_logits(model, X, _block_workspace(model, X.shape[0]))


def _blockwise_logits(model: MlpSurvModel, X: np.ndarray, ws: _Workspace) -> np.ndarray:
    """``linear_scores`` of checked inputs, each block's pass written into
    the one-block workspace ``ws``."""
    z = np.empty(X.shape[0])
    for lo, hi in _subject_blocks(X.shape[0]):
        z[lo:hi] = _forward_pass(model, X[lo:hi], ws)
    return z


def sigmoid(x):
    """The logistic function, formed from ``exp(-|x|)`` so that it never
    overflows: ``1 / (1 + e)`` where x >= 0 and ``e / (1 + e)`` below."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    return out if out.ndim else float(out)


def forward(model: MlpSurvModel, X: np.ndarray) -> np.ndarray:
    """Risk scores in (0, 1), one per row of X."""
    return sigmoid(linear_scores(model, X))


def _cox_loss_grad(scores, table: EventTable, tie_method="efron", with_grad=True):
    """``(loss, d loss / d scores)``, the negative partial log-likelihood of
    the scores per event, or the loss alone when ``with_grad`` is false; the
    loss is the same float either way."""
    # imported here, so that scoring a network loads no fitting code
    from .cox_linear import _check_finite, _loglik_and_eta_grad

    s = np.asarray(scores, dtype=float)
    if s.size != table.times.size:
        raise MismatchedLengthsError(f"{s.size} scores for {table.times.size} labels")
    n_events = table.death_pos.size
    if n_events == 0:
        raise NoEventsError("cox loss needs at least one event")
    _check_finite(s, "eta")
    if not with_grad:
        return -_loglik_and_eta_grad(s, table, tie_method, with_grad=False) / n_events
    ll, grad_eta = _loglik_and_eta_grad(s, table, tie_method)
    return -ll / n_events, -grad_eta / n_events


def _loss_and_gradients(model, X, table: EventTable, weight_decay, tie_method,
                        ws: _Workspace | None = None):
    """Training objective and analytic gradients for every parameter, every
    subjects x width array of the step written into ``ws`` (X's rows; a
    new one if none).

    The objective is the per-event negative partial log-likelihood of the
    sigmoid scores plus an L2 penalty on the weight matrices (biases are not
    penalized). Returns ``(loss, weight_grads, bias_grads)``.
    """
    if ws is None:
        ws = _Workspace(model.layer_dims, X.shape[0])
    z = _forward_pass(model, X, ws)
    hs = [X] + ws.hs
    s = sigmoid(z)
    loss, dloss_ds = _cox_loss_grad(s, table, tie_method)
    if weight_decay > 0:
        loss += 0.5 * weight_decay * sum(float((W ** 2).sum()) for W in model.weights)

    dz = dloss_ds * s * (1.0 - s)
    weight_grads = [None] * len(model.weights)
    bias_grads = [None] * len(model.biases)

    delta = dz[:, None]
    weight_grads[-1] = _by_subjects(hs[-1].T, delta, reduce=True)
    bias_grads[-1] = delta.sum(axis=0)
    if len(model.weights) > 1:
        dh = np.multiply(delta, model.weights[-1].T, out=ws.dh[-1])
    for k in range(len(model.weights) - 2, -1, -1):
        da = np.multiply(dh, np.greater(ws.pre[k], 0.0, out=ws.mask[k]), out=dh)
        weight_grads[k] = _by_subjects(hs[k].T, da, reduce=True)
        bias_grads[k] = da.sum(axis=0)
        if k > 0:
            dh = _by_subjects(da, model.weights[k].T, out=ws.dh[k - 1])
    if weight_decay > 0:
        for k, W in enumerate(model.weights):
            weight_grads[k] = weight_grads[k] + weight_decay * W
    return loss, weight_grads, bias_grads


def train(model: MlpSurvModel, X: np.ndarray, labels: Labels, options: TrainOptions,
          val: tuple[np.ndarray, Labels] | None = None):
    """Full-batch gradient descent; returns ``(trained model, loss history)``.

    When validation data is supplied the validation loss is tracked after
    every update and the weights from the best validation epoch are
    returned; training stops early after ``patience`` epochs without
    improvement. Without validation the final weights are returned. The
    input model is not modified. history[k] is the training loss evaluated
    at the start of epoch k, so ``learning_rate=0`` yields a constant
    history and unchanged weights. Training or validation labels with no
    death are refused before the first step.
    """
    X = _check_input(model, X)
    table = labels.table
    if table.death_pos.size == 0:
        raise NoEventsError("training labels have no event")
    if val is not None:
        X_val, val_table = _check_input(model, val[0]), val[1].table
        if val_table.death_pos.size == 0:
            raise NoEventsError("validation labels have no event")
        val_ws = _block_workspace(model, X_val.shape[0])
    ws = _Workspace(model.layer_dims, X.shape[0])
    # a step makes new parameter arrays, so no array is ever changed in place
    work = replace(model, weights=list(model.weights), biases=list(model.biases))
    best_val = np.inf
    best_weights = None
    stale = 0
    history: list[float] = []
    for _ in range(options.epochs):
        # overflowed parameters surface as non-finite scores inside the
        # likelihood before the loss value itself can be inspected
        try:
            loss, wg, bg = _loss_and_gradients(work, X, table, options.weight_decay,
                                               options.tie_method, ws)
            if not math.isfinite(loss):
                raise DivergedLossError(f"training loss became {loss}")
            history.append(float(loss))
            for k in range(len(work.weights)):
                work.weights[k] = work.weights[k] - options.learning_rate * wg[k]
                work.biases[k] = work.biases[k] - options.learning_rate * bg[k]
            if val is None:
                continue
            val_loss = _cox_loss_grad(sigmoid(_blockwise_logits(work, X_val, val_ws)),
                                      val_table, options.tie_method, with_grad=False)
        except NonFiniteInputError as exc:
            raise DivergedLossError(f"parameters overflowed during training: {exc}") from exc
        if not math.isfinite(val_loss):
            raise DivergedLossError(f"validation loss became {val_loss}")
        if val_loss < best_val:
            best_val = val_loss
            best_weights = (list(work.weights), list(work.biases))
            stale = 0
        else:
            stale += 1
            if stale >= options.patience:
                break
    if val is not None and best_weights is not None:
        work.weights, work.biases = best_weights
    return work, history
