"""Levenberg-Marquardt nonlinear least squares and the Q-model refitter.

:func:`levenberg_marquardt` is a classic damped Gauss-Newton minimizer of
``0.5 * ||r(theta)||^2`` with forward finite-difference Jacobians.  Its
residual takes a stack of parameter vectors and returns one residual row
per vector, so each Jacobian is a single call on the n bumped vectors.
Its iteration cap, tolerances and damping schedule are the module
constants below; no caller changes them.  It exists so that the
4-exponential noise model can be refit for shape parameters without
embedded constants (:func:`fit_q_approx`), reproducing the procedure
behind the built-in rows.

Exponential-sum fitting is multimodal, so the refitter is multi-start:
the nearest embedded row (origin-rescaled) seeds the first run and seven
jittered copies seed the rest; the best sum of squared residuals wins,
with ties broken by the lexicographically smallest sorted decay vector.
Results are canonicalized by sorting the (p, q) pairs by ascending q, and
the whole procedure is deterministic (fixed jitter seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gfaber import noise
from gfaber.errors import FitConvergenceError, NonFiniteResidualError
# max_abs_deviation is re-exported: the refit's callers score fits with it.
from gfaber.noise import default_fit_grid, max_abs_deviation  # noqa: F401

STATUS_GRADIENT = "gradient"
STATUS_STEP = "step"
STATUS_MAX_ITER = "max-iter"

MAX_ITER = 200
GRAD_TOL = 1e-10
STEP_TOL = 1e-12
DAMPING_INIT = 1e-3
DAMPING_SCALE = 10.0
N_RESTARTS = 8

_JITTER_SEED = 20240917
_DAMPING_MAX = 1e14


@dataclass(frozen=True)
class LmResult:
    """Outcome of one Levenberg-Marquardt run."""

    params: np.ndarray
    ssr: float
    iterations: int
    status: str = field(default=STATUS_MAX_ITER)


def _residual_rows(fun, stack, width=None):
    """``fun(stack)`` for a ``(k, n)`` stack, checked finite and (k, width)."""
    rows = np.asarray(fun(stack), dtype=float)
    if rows.ndim != 2 or rows.shape != (len(stack), width or rows.shape[1]):
        raise ValueError(
            f"residual returned shape {rows.shape} for a parameter stack of "
            f"shape {stack.shape}"
        )
    if not np.isfinite(rows).all():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        raise NonFiniteResidualError(stack[bad])
    return rows


def _jacobian_fd(fun, params, r0):
    """Forward finite-difference Jacobian, step 1e-7 * max(1, |theta_j|).

    Row j of the stack is ``params`` with ``steps[j]`` added to entry j;
    one residual call evaluates all n of them.  The result is a C-ordered
    (m, n) array: an F-ordered one sends ``jac.T @ r`` down another BLAS
    path, whose last-bit differences steer LM to other minima and so
    change the refit's output.
    """
    n = params.size
    steps = 1e-7 * np.maximum(1.0, np.abs(params))
    stack = np.tile(params, (n, 1))
    stack[np.diag_indices(n)] += steps
    rows = _residual_rows(fun, stack, r0.size)
    return np.ascontiguousarray(((rows - r0) / steps[:, None]).T)


def levenberg_marquardt(residual, x0):
    """Minimize ``0.5 * ||residual(theta)||^2`` starting from ``x0``.

    ``residual`` maps a ``(k, n)`` stack of parameter vectors to the
    ``(k, m)`` stack of their residual vectors, m >= n.  A single point is
    evaluated as ``residual(theta[None])[0]`` and the forward-difference
    Jacobian as one call on the n bumped vectors.  Every result's shape is
    checked, so a residual written for one 1-D vector fails at the first
    call (a :class:`ValueError` where it returns the wrong shape).

    The damping factor starts at :data:`DAMPING_INIT`, is multiplied by
    :data:`DAMPING_SCALE` on every rejected step and divided by it on every
    accepted one (Marquardt diagonal scaling keeps the step well
    conditioned across parameter magnitudes).  Terminates when the
    gradient's max norm drops below :data:`GRAD_TOL` (status
    ``gradient``), when the relative step drops below :data:`STEP_TOL` or
    damping saturates (status ``step``), or after :data:`MAX_ITER`
    iterations (``max-iter``).  Accepted steps never increase the
    objective.

    Raises :class:`~gfaber.errors.NonFiniteResidualError` if the residual
    becomes non-finite at any evaluated point, including the initial one.
    """
    params = np.array(x0, dtype=float)
    r = _residual_rows(residual, params[None])[0]
    if r.size < params.size:
        raise ValueError(
            f"residual dimension {r.size} is smaller than parameter "
            f"dimension {params.size}"
        )
    ssr = float(r @ r)
    lam = DAMPING_INIT
    status = STATUS_MAX_ITER
    iterations = 0
    for _ in range(MAX_ITER):
        iterations += 1
        jac = _jacobian_fd(residual, params, r)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < GRAD_TOL:
            status = STATUS_GRADIENT
            break
        jtj = jac.T @ jac
        scaling = np.diag(np.maximum(np.diag(jtj), 1e-12))
        accepted = False
        while lam <= _DAMPING_MAX:
            damped = jtj + lam * scaling
            try:
                delta = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(damped, -grad, rcond=None)[0]
            trial = params + delta
            r_trial = _residual_rows(residual, trial[None], r.size)[0]
            ssr_trial = float(r_trial @ r_trial)
            if ssr_trial < ssr:
                params = trial
                r = r_trial
                ssr = ssr_trial
                lam = max(lam / DAMPING_SCALE, 1e-14)
                accepted = True
                break
            lam *= DAMPING_SCALE
        if not accepted:
            status = STATUS_STEP
            break
        rel_step = np.linalg.norm(delta) / max(np.linalg.norm(params), 1.0)
        if rel_step < STEP_TOL:
            status = STATUS_STEP
            break
    return LmResult(params=params, ssr=ssr, iterations=iterations, status=status)


def _nearest_builtin(a):
    """Embedded row closest to ``a`` in shape parameter."""
    best = min(noise.TABULATED_A, key=lambda t: (abs(t - a), t))
    return noise.BUILTIN_FITS[best]


def fit_q_approx(a):
    """Refit the 4-exponential model for an arbitrary supported shape.

    Minimizes ``sum_x (sum_i p_i e^(-q_i x) - Q_a(sqrt(x)))^2`` over the
    eight parameters on :func:`~gfaber.noise.default_fit_grid`, with
    positivity of the decay rates enforced by optimizing ``log q_i``.

    Returns a canonicalized :class:`~gfaber.noise.QApprox` (pairs sorted
    by ascending q, source ``"refit"``) from the best of
    :data:`N_RESTARTS` runs.  Raises
    :class:`~gfaber.errors.FitConvergenceError` if no restart produces a
    finite minimizer.
    """
    model = noise.make_noise_model(a)
    grid = np.asarray(default_fit_grid(), dtype=float)
    target = np.array([noise.q_exact(model, np.sqrt(x)) for x in grid])

    def residual(theta):
        # One row per parameter vector in the (k, 8) stack.
        p = theta[..., None, :4]
        q = np.exp(theta[..., None, 4:])
        return (p * np.exp(-(grid[:, None] * q))).sum(axis=-1) - target

    p_seed, q_seed = _nearest_builtin(a)
    p_seed = np.asarray(p_seed, dtype=float)
    q_seed = np.asarray(q_seed, dtype=float)
    # Rescale the seed weights so the model starts origin-consistent with
    # the requested shape (sum p = Q_a(0)).
    p_seed = p_seed * (noise.q_exact(model, 0.0) / p_seed.sum())

    rng = np.random.default_rng(_JITTER_SEED)
    candidates = []
    for restart in range(N_RESTARTS):
        p0, q0 = p_seed, q_seed
        if restart > 0:
            factors = np.clip(np.exp(rng.normal(0.0, 0.25, size=8)), 0.5, 2.0)
            p0 = p_seed * factors[:4]
            q0 = q_seed * factors[4:]
        theta0 = np.concatenate([p0, np.log(q0)])
        try:
            # Wild trial steps can overflow exp.  The solver then raises
            # NonFiniteResidualError and this whole restart is dropped, so
            # numpy's warnings about it are noise.
            with np.errstate(over="ignore", invalid="ignore"):
                result = levenberg_marquardt(residual, theta0)
        except NonFiniteResidualError:
            continue
        if not np.isfinite(result.ssr):
            continue
        p = result.params[:4]
        q = np.exp(result.params[4:])
        order = np.argsort(q)
        candidates.append(
            (result.ssr, tuple(q[order]), tuple(p[order]))
        )
    if not candidates:
        raise FitConvergenceError(
            f"no restart converged while refitting a={a}"
        )
    _, q_best, p_best = min(candidates)
    return noise.QApprox(a=float(a), p=p_best, q=q_best, source=noise.SOURCE_REFIT)
