"""Small Levenberg-Marquardt core for weighted least squares.

The residual function returns the already-weighted residual vector r(x)
(each entry divided by its sigma), and the optimizer minimizes sum(r**2).
The Jacobian is numerical: central differences with a relative step, so
models only need to be evaluable, not differentiable in closed form.

Parameter uncertainties are taken from inv(J^T J) at the optimum without
rescaling by the reduced chi-square.  With correctly scaled residuals this
is the standard curve-fit covariance; calibration of the resulting
intervals is checked by Monte Carlo in the test suite rather than patched
up here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LMResult", "levenberg_marquardt"]

_REL_STEP = 1e-6
_LAMBDA0 = 1e-3
_LAMBDA_MAX = 1e15
_STEP_TOL = 1e-10
_COST_TOL = 1e-12


@dataclass
class LMResult:
    x: np.ndarray
    cov: np.ndarray
    cost: float          # sum of squared weighted residuals at x
    converged: bool
    n_iterations: int


def _jacobian(residual, x, floor):
    """Central-difference Jacobian, one column per parameter."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = _REL_STEP * max(abs(x[j]), floor[j])
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((residual(xp) - residual(xm)) / (2.0 * h))
    return np.column_stack(cols)


def levenberg_marquardt(residual, x0, max_iter=200, floor=None):
    """Minimize sum(residual(x)**2) from x0; returns an LMResult.

    floor sets the absolute parameter scale used for finite-difference steps
    and the convergence test (defaults to 1 per parameter), which keeps the
    steps sensible for parameters passing through zero.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("x0 must be one-dimensional")
    floor = np.ones_like(x) if floor is None else np.asarray(floor, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    cost = float(r @ r)
    lam = _LAMBDA0
    converged = False
    n_done = 0

    for it in range(max_iter):
        n_done = it + 1
        jac = _jacobian(residual, x, floor)
        grad = jac.T @ r
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag = np.maximum(diag, 1e-12 * max(diag.max(), 1e-300))

        improved = False
        for _ in range(40):
            try:
                dx = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam = min(lam * 10.0, _LAMBDA_MAX)
                continue
            x_try = x + dx
            r_try = np.asarray(residual(x_try), dtype=float)
            cost_try = float(r_try @ r_try)
            if np.isfinite(cost_try) and cost_try < cost:
                improved = True
                break
            if lam >= _LAMBDA_MAX:
                break
            lam = min(lam * 10.0, _LAMBDA_MAX)
        if not improved:
            # Cannot descend: converged if the gradient has actually died.
            converged = float(np.abs(grad).max()) <= 1e-8 * (1.0 + cost)
            break

        step_small = np.max(np.abs(dx) / (np.abs(x_try) + floor)) < _STEP_TOL
        cost_drop_small = (cost - cost_try) <= _COST_TOL * max(cost_try, 1e-300)
        x, r, cost = x_try, r_try, cost_try
        lam = max(lam / 8.0, 1e-14)
        if step_small or cost_drop_small or cost == 0.0:
            converged = True
            break

    jac = _jacobian(residual, x, floor)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    return LMResult(x=x, cov=cov, cost=cost, converged=converged, n_iterations=n_done)
