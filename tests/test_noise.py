"""Generalized Q-function and its 4-exponential approximation.

Frozen constants computed with mpmath (50 digits) from the definition
Q_a(x) = Lam0^(2/a - 1) Gamma(1/a, (Lam0 x)^a) / (2 Gamma(1/a)) with
Lam0 = sqrt(Gamma(3/a) / Gamma(1/a)).
"""

import math

import pytest

from gfaber import noise
from gfaber.errors import NotTabulatedError

# a -> (Q_a(0), Q_a(1)), mpmath 50 dps
Q_REFS = {
    0.5: (657.26706900619933615, 103.46357569849872461),
    1.0: (0.7071067811865475244, 0.17190949153836189182),
    1.5: (0.47536505826135552016, 0.13712301780454019255),
    2.0: (0.5, 0.15865525393145705141),
    2.5: (0.54610610545102112829, 0.1843057779685812758),
}

FIDELITY_GRID = [float(x) for x in range(17)]


def test_lambda0_closed_forms():
    """Lam0 = sqrt(G(3/a)/G(1/a)): sqrt(120), sqrt(2), 1/sqrt(2)."""
    assert math.isclose(noise.make_noise_model(0.5).lambda0, math.sqrt(120.0),
                        rel_tol=1e-14)
    assert math.isclose(noise.make_noise_model(1.0).lambda0, math.sqrt(2.0),
                        rel_tol=1e-14)
    assert math.isclose(noise.make_noise_model(2.0).lambda0,
                        1.0 / math.sqrt(2.0), rel_tol=1e-14)


def test_q_exact_gaussian_matches_erfc():
    model = noise.make_noise_model(2.0)
    for x in (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
        want = 0.5 * math.erfc(x / math.sqrt(2.0))
        assert math.isclose(noise.q_exact(model, x), want,
                            rel_tol=1e-12, abs_tol=1e-300)


def test_q_exact_laplacian_closed_form():
    """a = 1: Q_1(x) = (sqrt(2)/2) exp(-sqrt(2) x)."""
    model = noise.make_noise_model(1.0)
    for x in (0.0, 0.3, 1.0, 4.0, 20.0):
        want = 0.5 * math.sqrt(2.0) * math.exp(-math.sqrt(2.0) * x)
        assert math.isclose(noise.q_exact(model, x), want, rel_tol=1e-12)


def test_q_exact_frozen_references():
    for a, (q0, q1) in Q_REFS.items():
        model = noise.make_noise_model(a)
        assert math.isclose(noise.q_exact(model, 0.0), q0, rel_tol=1e-12), a
        assert math.isclose(noise.q_exact(model, 1.0), q1, rel_tol=1e-12), a


def test_q_exact_monotone_decreasing():
    for a in (0.5, 1.0, 2.0, 3.5):
        model = noise.make_noise_model(a)
        values = [noise.q_exact(model, 0.1 * k) for k in range(60)]
        assert all(u > v for u, v in zip(values, values[1:])), a


def test_q_exact_tail_is_tiny():
    for a in (1.0, 1.5, 2.0, 2.5, 4.0):
        model = noise.make_noise_model(a)
        assert noise.q_exact(model, 50.0) < 1e-10, a


def test_noise_model_shape_range():
    for bad in (0.2, 4.2, 0.0, -1.0):
        with pytest.raises(ValueError):
            noise.make_noise_model(bad)
    with pytest.raises(ValueError):
        noise.q_exact(noise.make_noise_model(1.0), -0.5)


def test_builtin_rows_verbatim():
    """Tabulated coefficients must survive storage untouched."""
    fit = noise.builtin_fit(2.0)
    assert fit.p == (0.099, 0.157, 0.124, 0.119)
    assert fit.q == (1.981, 0.534, 0.852, 10.268)
    assert fit.source == "builtin-table"
    fit = noise.builtin_fit(0.5)
    assert fit.p == (44.920, 126.460, 389.400, 96.540)
    assert fit.q == (0.130, 2.311, 12.52, 0.629)
    fit = noise.builtin_fit(2.5)
    assert fit.p == (0.126, 1.104, -1.125, 0.442)
    assert fit.q == (9.395, 0.833, 0.994, 1.292)
    assert set(noise.TABULATED_A) == {0.5, 1.0, 1.5, 2.0, 2.5}


def test_builtin_untabulated_raises():
    with pytest.raises(NotTabulatedError):
        noise.builtin_fit(0.75)


def test_q_approx_tracks_q_exact_on_integer_grid():
    """Squared-argument convention: q_approx(fit, x) targets Q_a(sqrt x).

    The tabulated fits hold 4-term exponential sums to within a small
    fraction of the origin value on the grid they were designed for.
    """
    for a in noise.TABULATED_A:
        fit = noise.builtin_fit(a)
        model = noise.make_noise_model(a)
        scale = noise.q_exact(model, 0.0)
        for x in FIDELITY_GRID:
            dev = abs(noise.q_approx(fit, x) - noise.q_exact(model, math.sqrt(x)))
            assert dev <= 6e-3 * scale, (a, x, dev / scale)


def test_q_approx_gaussian_point():
    fit = noise.builtin_fit(2.0)
    assert abs(noise.q_approx(fit, 1.0) - 0.15865525393145705) < 5e-3


def test_origin_consistency_gap_is_small_and_scale_aware():
    """sum(p) reproduces Q_a(0) to ~2e-3 relative to max(1, Q_a(0))."""
    for a in noise.TABULATED_A:
        fit = noise.builtin_fit(a)
        model = noise.make_noise_model(a)
        target = noise.q_exact(model, 0.0)
        gap = abs(sum(fit.p) - target)
        assert gap <= 2e-3 * max(1.0, abs(target)), (a, gap)
        assert math.isclose(noise.origin_consistency_gap(fit), gap,
                            rel_tol=1e-12, abs_tol=1e-15)


def test_qapprox_validation():
    with pytest.raises(ValueError):
        noise.QApprox(a=2.0, p=(0.1, 0.2, 0.3), q=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        noise.QApprox(a=2.0, p=(0.1,) * 4, q=(1.0, 2.0, -3.0, 4.0))
    with pytest.raises(ValueError):
        noise.QApprox(a=2.0, p=(0.1, math.nan, 0.3, 0.2), q=(1.0,) * 4)


def test_qapprox_to_dict_round_trip():
    fit = noise.builtin_fit(1.5)
    d = fit.to_dict()
    assert d["a"] == 1.5
    assert tuple(d["p"]) == fit.p
    assert tuple(d["q"]) == fit.q
    assert d["source"] == "builtin-table"


def test_max_abs_deviation_agrees_with_manual_scan():
    fit = noise.builtin_fit(2.0)
    model = noise.make_noise_model(2.0)
    grid = noise.default_fit_grid()
    manual = max(
        abs(noise.q_approx(fit, x) - noise.q_exact(model, math.sqrt(x)))
        for x in grid
    )
    assert math.isclose(noise.max_abs_deviation(fit), manual, rel_tol=1e-12)
