"""Linear Cox proportional hazards fitting.

Implements the partial log-likelihood with Efron and Breslow tie handling,
its analytic gradient and Hessian, a damped Newton-Raphson solver with
optional ridge penalty, and the Breslow baseline cumulative hazard.

All of it walks the cohort's ``dataset.EventTable``: risk-set sums are
suffix sums in its time order, read at ``risk_start`` of each event time.
The per-event-time terms are computed for all event times with the same
number of tied deaths at once (the table's ``tie_blocks``) and then added
up by a cumulative sum in event-time order, so the totals round exactly
as a loop over the event times would.
All likelihood code subtracts the max linear predictor before
exponentiating; the partial likelihood is invariant to that shift, so the
reported values are exact while the intermediate sums stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EventTable, Labels
from .errors import (
    DimensionMismatchError,
    NoEventsError,
    NonFiniteInputError,
    SingularInformationError,
)


@dataclass(frozen=True)
class FitOptions:
    tie_method: str = "efron"
    max_iter: int = 100
    tolerance: float = 1e-9
    ridge_penalty: float = 0.0

    def __post_init__(self):
        if self.tie_method not in ("efron", "breslow"):
            raise ValueError(f"tie_method must be 'efron' or 'breslow', got {self.tie_method!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.ridge_penalty < 0:
            raise ValueError("ridge_penalty must be >= 0")


@dataclass(frozen=True, eq=False)
class CoxModel:
    beta: np.ndarray
    covariate_names: tuple[str, ...]
    baseline_times: np.ndarray
    baseline_cumhaz: np.ndarray
    log_likelihood: float
    converged: bool
    n_iterations: int
    tie_method: str


def _check_finite(arr: np.ndarray, name: str):
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"{name} contains non-finite values")


def _event_table(labels: Labels) -> EventTable:
    table = labels.table
    if table.event_times.size == 0:
        raise NoEventsError("at least one observed event is required")
    return table


def _loglik_and_eta_grad(eta: np.ndarray, table: EventTable, tie_method: str,
                         with_grad: bool = True):
    """Partial log-likelihood of the per-subject scores ``eta`` and its
    gradient w.r.t. them, in the original subject order: ``(loglik, d loglik
    / d eta)``, or the log-likelihood alone, from the same operations, when
    ``with_grad`` is false. This is the piece shared by the linear model
    (scores = X @ beta) and the network loss (scores = forward output)."""
    eta_s = eta[table.order]
    m = float(eta_s.max())
    w = np.exp(eta_s - m)
    s0_suffix = np.cumsum(w[::-1])[::-1]

    n_groups = table.event_times.size
    term = np.zeros(n_groups + 1)  # leading 0.0: ll is summed from 0.0, group by group
    coef_a = np.zeros(n_groups)  # sum_l 1/psi_l per group
    # the Efron terms, formed only where an event time has tied deaths
    efron = tie_method == "efron" and any(d.shape[1] > 1 for _, d in table.tie_blocks)
    coef_b = np.zeros(n_groups) if efron else None  # sum_l (l/d)/psi_l per group
    own_b = np.zeros(eta_s.size) if efron else None
    for groups, deaths in table.tie_blocks:
        d = deaths.shape[1]
        s0r = s0_suffix[table.risk_start[groups]]
        sum_eta = (eta_s[deaths] - m).sum(axis=1)
        if tie_method == "efron" and d > 1:
            frac = np.arange(d) / d
            psi = s0r[:, None] - frac * w[deaths].sum(axis=1)[:, None]
            term[groups + 1] = sum_eta - np.log(psi).sum(axis=1)
            if with_grad:
                coef_a[groups] = (1.0 / psi).sum(axis=1)
                coef_b[groups] = (frac / psi).sum(axis=1)
                own_b[deaths] = coef_b[groups][:, None]
        else:
            term[groups + 1] = sum_eta - d * np.log(s0r)
            if with_grad:
                coef_a[groups] = d / s0r
    ll = float(np.cumsum(term)[-1])
    if not with_grad:
        return ll

    last, has_last = table.last_event_time
    coef = np.where(has_last, np.cumsum(coef_a)[last], 0.0)
    grad_s = table.event_flags - w * coef
    if efron:
        grad_s += w * own_b

    grad = np.empty_like(grad_s)
    grad[table.order] = grad_s
    return ll, grad


def _beta_derivatives(beta, X, table: EventTable, tie_method: str):
    p = X.shape[1]
    Xs = X[table.order]
    eta_s = Xs @ beta
    m = float(eta_s.max())
    w = np.exp(eta_s - m)

    wx = w[:, None] * Xs
    wxx = wx[:, :, None] * Xs[:, None, :]
    s0_suffix = np.cumsum(w[::-1])[::-1]
    s1_suffix = np.cumsum(wx[::-1], axis=0)[::-1]
    s2_suffix = np.cumsum(wxx[::-1], axis=0)[::-1]

    # each event time adds its deaths' terms, then subtracts its risk-set
    # terms; the totals are running sums over rows (0, +g0, -g0, +g1, -g1, ...)
    rows = 2 * table.event_times.size + 1
    ll = np.zeros(rows)
    grad = np.zeros((rows, p))
    hess = np.zeros((rows, p, p))
    for groups, deaths in table.tie_blocks:
        d = deaths.shape[1]
        r = table.risk_start[groups]
        s0r, s1r, s2r = s0_suffix[r], s1_suffix[r], s2_suffix[r]
        add, sub = 2 * groups + 1, 2 * groups + 2
        ll[add] = (eta_s[deaths] - m).sum(axis=1)
        grad[add] = Xs[deaths].sum(axis=1)
        if tie_method == "efron" and d > 1:
            frac = np.arange(d) / d
            s0d = w[deaths].sum(axis=1)
            s1d = wx[deaths].sum(axis=1)
            s2d = wxx[deaths].sum(axis=1)
            psi = s0r[:, None] - frac * s0d[:, None]                       # (groups, d)
            mu = (s1r[:, None, :] - frac[:, None] * s1d[:, None, :]) / psi[:, :, None]
            ll[sub] = -np.log(psi).sum(axis=1)
            grad[sub] = -mu.sum(axis=1)
            inv = (1.0 / psi).sum(axis=1)[:, None, None]
            finv = (frac / psi).sum(axis=1)[:, None, None]
            hess[sub] = -(s2r * inv - s2d * finv - np.einsum("klp,klq->kpq", mu, mu))
        else:
            mu = s1r / s0r[:, None]
            ll[sub] = -(d * np.log(s0r))
            grad[sub] = -(d * mu)
            hess[sub] = -(d * (s2r / s0r[:, None, None] - mu[:, :, None] * mu[:, None, :]))
    return float(np.cumsum(ll)[-1]), np.cumsum(grad, axis=0)[-1], np.cumsum(hess, axis=0)[-1]


def fit_cox(X: np.ndarray, labels: Labels, options: FitOptions | None = None,
            covariate_names: tuple[str, ...] | None = None) -> CoxModel:
    """Maximize the partial likelihood by damped Newton-Raphson.

    Each iteration solves the Newton system and halves the step until the
    (ridge-penalized) objective does not decrease. Convergence is declared
    when the max-norm of the penalized gradient drops below the tolerance;
    hitting ``max_iter`` first returns the best iterate with
    ``converged=False`` rather than raising.
    """
    opts = options or FitOptions()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"X must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if n != len(labels):
        raise DimensionMismatchError(f"{n} rows of X but {len(labels)} labels")
    if n < p + 1:
        raise DimensionMismatchError(f"need at least p+1={p + 1} subjects, got {n}")
    _check_finite(X, "X")
    table = _event_table(labels)
    if covariate_names is None:
        covariate_names = tuple(f"x{j}" for j in range(p))
    if len(covariate_names) != p:
        raise DimensionMismatchError("covariate_names length must match X columns")

    ridge = opts.ridge_penalty
    eye = np.eye(p)
    beta = np.zeros(p)
    converged = False
    iterations = 0
    ll, grad, hess = _beta_derivatives(beta, X, table, opts.tie_method)
    for iterations in range(1, opts.max_iter + 1):
        grad_pen = grad - ridge * beta
        if float(np.max(np.abs(grad_pen))) < opts.tolerance:
            converged = True
            iterations -= 1
            break
        hess_pen = hess - ridge * eye
        try:
            delta = np.linalg.solve(-hess_pen, grad_pen)
        except np.linalg.LinAlgError:
            raise SingularInformationError(
                "information matrix is singular (constant or collinear covariate?); "
                "a small ridge_penalty makes the fit well-posed"
            ) from None
        if not np.all(np.isfinite(delta)):
            raise SingularInformationError("Newton step is non-finite; try a ridge_penalty")

        pen_ll = ll - 0.5 * ridge * float(beta @ beta)
        step = 1.0
        accepted = False
        while step >= 2.0 ** -30:
            cand = beta + step * delta
            cand_ll, cand_grad, cand_hess = _beta_derivatives(cand, X, table, opts.tie_method)
            cand_pen = cand_ll - 0.5 * ridge * float(cand @ cand)
            if np.isfinite(cand_pen) and cand_pen >= pen_ll - 1e-12 * (1.0 + abs(pen_ll)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # flat to machine precision in every direction tried
        beta, ll, grad, hess = cand, cand_ll, cand_grad, cand_hess
    if not converged:
        grad_pen = grad - ridge * beta
        converged = float(np.max(np.abs(grad_pen))) < opts.tolerance

    base_t, base_h = _breslow_baseline(beta, X, table)
    return CoxModel(
        beta=beta,
        covariate_names=tuple(covariate_names),
        baseline_times=base_t,
        baseline_cumhaz=base_h,
        log_likelihood=float(ll),
        converged=converged,
        n_iterations=iterations,
        tie_method=opts.tie_method,
    )


def _breslow_baseline(beta, X, table: EventTable):
    """Breslow estimate of the cumulative baseline hazard at event times."""
    eta_s = (X @ beta)[table.order]
    m = float(eta_s.max())
    w = np.exp(eta_s - m)
    s0_suffix = np.cumsum(w[::-1])[::-1]
    increments = table.deaths / s0_suffix[table.risk_start] * np.exp(-m)
    return table.event_times.copy(), np.cumsum(increments)
