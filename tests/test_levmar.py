"""The Levenberg-Marquardt core."""
import numpy as np
import pytest

from linecancel.levmar import levenberg_marquardt


def test_linear_problem_recovered_exactly():
    x = np.linspace(0.0, 10.0, 20)
    y = 2.0 + 3.0 * x
    sigma = np.full_like(x, 0.5)

    def residual(p):
        return (y - (p[0] + p[1] * x)) / sigma

    res = levenberg_marquardt(residual, np.array([0.0, 0.0]))
    assert res.converged
    np.testing.assert_allclose(res.x, [2.0, 3.0], rtol=0, atol=1e-8)
    assert res.cost <= 1e-16

    # Covariance of a linear model is exact: inv(J^T J) with J the weighted
    # design matrix, identical to np.polyfit's unscaled covariance (which
    # orders the parameters slope first).
    _, cov_ref = np.polyfit(x, y, 1, w=1.0 / sigma, cov="unscaled")
    np.testing.assert_allclose(res.cov, cov_ref[::-1, ::-1], rtol=1e-4)


def test_nonlinear_decay_recovered():
    t = np.linspace(0.0, 6.0, 30)
    y = np.exp(-t / 2.0)

    def residual(p):
        return y - np.exp(-t / p[0])

    res = levenberg_marquardt(residual, np.array([0.5]))
    assert res.converged
    assert res.x[0] == pytest.approx(2.0, abs=1e-7)


def test_floor_enables_start_at_zero():
    # A parameter starting exactly at 0 still gets a finite difference step.
    x = np.linspace(0.0, 5.0, 12)
    y = 3.0 * x

    def residual(p):
        return y - p[0] * x

    res = levenberg_marquardt(residual, np.array([0.0]), floor=np.array([1.0]))
    assert res.converged
    assert res.x[0] == pytest.approx(3.0, abs=1e-8)


def test_degenerate_jacobian_survives():
    # Redundant parameters make J^T J singular; the fit must still return,
    # with the covariance falling back to a pseudo-inverse.
    x = np.linspace(0.0, 5.0, 12)
    y = 3.0 * x

    def residual(p):
        return y - (p[0] + p[1]) * x

    res = levenberg_marquardt(residual, np.array([1.0, 1.0]))
    assert np.all(np.isfinite(res.cov))
    assert res.x[0] + res.x[1] == pytest.approx(3.0, abs=1e-6)


def test_iteration_budget_reported():
    def residual(p):
        return np.array([p[0] - 1.0])

    res = levenberg_marquardt(residual, np.array([50.0]), max_iter=200)
    assert res.converged
    assert 1 <= res.n_iterations <= 200


def test_rejects_bad_start_shape():
    with pytest.raises(ValueError):
        levenberg_marquardt(lambda p: p, np.zeros((2, 2)))

