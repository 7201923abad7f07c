"""Levenberg-Marquardt solver and the 4-exponential refitting driver."""

import math

import numpy as np
import pytest

from gfaber import nlfit, noise
from gfaber.errors import NonFiniteResidualError


def test_linear_least_squares_exact_recovery():
    """A linear residual has a single basin; LM must land on (1, 2)."""
    t = np.linspace(0.0, 1.0, 20)
    target = 1.0 + 2.0 * t

    def residual(theta):
        return theta[:, :1] + theta[:, 1:] * t - target

    result = nlfit.levenberg_marquardt(residual, (0.0, 0.0))
    assert abs(result.params[0] - 1.0) < 1e-8
    assert abs(result.params[1] - 2.0) < 1e-8
    assert result.ssr < 1e-16


def test_exponential_recovery():
    """Fit p e^{-q t} to noiseless data generated with (0.5, 2.0)."""
    t = np.linspace(0.0, 3.0, 40)
    target = 0.5 * np.exp(-2.0 * t)

    def residual(theta):
        return theta[:, :1] * np.exp(-theta[:, 1:] * t) - target

    result = nlfit.levenberg_marquardt(residual, (1.0, 1.0))
    assert abs(result.params[0] - 0.5) < 1e-6
    assert abs(result.params[1] - 2.0) < 1e-6


def test_rosenbrock_valley():
    """Classic curved-valley problem from the standard starting point."""

    def residual(theta):
        x, y = theta[:, 0], theta[:, 1]
        return np.stack([10.0 * (y - x**2), 1.0 - x], axis=1)

    result = nlfit.levenberg_marquardt(residual, (-1.2, 1.0))
    assert abs(result.params[0] - 1.0) < 1e-6
    assert abs(result.params[1] - 1.0) < 1e-6


def test_never_increases_ssr():
    t = np.linspace(0.0, 2.0, 25)
    target = np.sin(t)

    def residual(theta):
        return theta[:, :1] * t + theta[:, 1:] * t**2 - target

    x0 = (3.0, -2.0)
    initial = float(np.sum(residual(np.asarray([x0])) ** 2))
    result = nlfit.levenberg_marquardt(residual, x0)
    assert result.ssr <= initial
    assert result.iterations >= 1
    assert result.status in (
        nlfit.STATUS_GRADIENT, nlfit.STATUS_STEP, nlfit.STATUS_MAX_ITER
    )


def test_non_finite_residual_raises():
    def residual(theta):
        return np.stack([np.full(len(theta), math.nan), theta[:, 0]], axis=1)

    with pytest.raises(NonFiniteResidualError):
        nlfit.levenberg_marquardt(residual, (1.0,))


def test_wrong_shaped_residual_raises():
    """A residual that drops the stack axis, or returns a single row for
    the Jacobian's stack, is rejected instead of silently misread."""
    t = np.linspace(0.0, 1.0, 20)

    def flat(theta):
        return (theta[:, :1] + theta[:, 1:] * t).ravel()

    def one_row(theta):
        return theta[:1, :1] + theta[:1, 1:] * t

    for residual in (flat, one_row):
        with pytest.raises(ValueError, match="residual returned shape"):
            nlfit.levenberg_marquardt(residual, (0.0, 0.0))


def _captured_refit_residual(monkeypatch, a):
    """``fit_q_approx(a)``'s residual, taken from its first LM call."""
    captured = []

    class Captured(Exception):
        pass

    def capture(residual, x0):
        captured.append(residual)
        raise Captured

    monkeypatch.setattr(nlfit, "levenberg_marquardt", capture)
    with pytest.raises(Captured):
        nlfit.fit_q_approx(a)
    return captured[0]


def test_stacked_jacobian_equals_column_loop(monkeypatch):
    """One call on the stack of bumped vectors gives, element for element,
    the Jacobian of n single-vector calls, in C order."""
    residual = _captured_refit_residual(monkeypatch, 2.784)
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = np.concatenate(
            [rng.uniform(0.0, 0.5, 4), rng.uniform(-3.0, 3.0, 4)]
        )
        r0 = residual(params)
        oracle = np.empty((r0.size, params.size))
        for j in range(params.size):
            step = 1e-7 * max(1.0, abs(params[j]))
            bumped = params.copy()
            bumped[j] += step
            oracle[:, j] = (residual(bumped) - r0) / step
        jac = nlfit._jacobian_fd(residual, params, r0)
        assert np.array_equal(jac, oracle)
        assert jac.flags.c_contiguous


def test_default_fit_grid_shape():
    grid = nlfit.default_fit_grid()
    assert grid[0] == 0.0
    assert len(grid) == 33
    assert all(u < v for u, v in zip(grid, grid[1:]))
    assert math.isclose(grid[-1], 0.0625 * 32**2, rel_tol=1e-15)


def test_refit_tabulated_shape_beats_builtin_margin():
    """A fresh fit at a = 2 must be at least as good as 1.5x the table row."""
    fit = nlfit.fit_q_approx(2.0)
    builtin_dev = nlfit.max_abs_deviation(noise.builtin_fit(2.0))
    assert nlfit.max_abs_deviation(fit) <= 1.5 * builtin_dev
    assert fit.source == "refit"


def test_refit_origin_value_and_sorted_rates():
    fit = nlfit.fit_q_approx(2.0)
    assert abs(sum(fit.p) - 0.5) < 5e-3
    assert all(u < v for u, v in zip(fit.q, fit.q[1:]))


def test_refit_is_deterministic():
    first = nlfit.fit_q_approx(1.5)
    second = nlfit.fit_q_approx(1.5)
    assert first.p == second.p
    assert first.q == second.q


def test_refit_untabulated_shape():
    """Shapes without a table row must still fit to a usable deviation."""
    fit = nlfit.fit_q_approx(0.75)
    model = noise.make_noise_model(0.75)
    scale = noise.q_exact(model, 0.0)
    assert fit.source == "refit"
    assert nlfit.max_abs_deviation(fit) < 0.05 * scale
