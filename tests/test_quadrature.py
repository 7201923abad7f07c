"""Adaptive Gauss-Kronrod quadrature on the half line, and the ABER oracle."""

import math

import pytest

from gfaber import fading, modulation, noise, quadrature
from gfaber.errors import QuadratureError


def test_exponential_integral():
    got = quadrature.integrate_semi_infinite(lambda g: math.exp(-g), 1e-12)
    assert math.isclose(got, 1.0, rel_tol=1e-11)


def test_gamma_weighted_integral():
    got = quadrature.integrate_semi_infinite(
        lambda g: g * math.exp(-g), 1e-12)
    assert math.isclose(got, 1.0, rel_tol=1e-11)


def test_gaussian_integral():
    got = quadrature.integrate_semi_infinite(
        lambda g: math.exp(-g * g), 1e-12)
    assert math.isclose(got, math.sqrt(math.pi) / 2.0, rel_tol=1e-11)


def test_tolerance_is_honored():
    """A looser tolerance may not beat a tighter one, but both must hold."""
    exact = math.sqrt(math.pi) / 2.0
    for rel_tol in (1e-6, 1e-9, 1e-12):
        got = quadrature.integrate_semi_infinite(
            lambda g: math.exp(-g * g), rel_tol)
        assert abs(got - exact) <= 10.0 * rel_tol * exact


def test_rejects_overtight_tolerance():
    with pytest.raises(ValueError):
        quadrature.integrate_semi_infinite(lambda g: math.exp(-g), 1e-13)


def test_rejects_non_finite_tolerance():
    for rel_tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            quadrature.integrate_semi_infinite(lambda g: math.exp(-g), rel_tol)


def test_interval_budget_error_carries_partial_result(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 3)
    with pytest.raises(QuadratureError) as err:
        quadrature.integrate_semi_infinite(lambda g: math.exp(-g), 1e-12)
    assert err.value.intervals >= 3
    assert math.isclose(err.value.partial, 1.0, rel_tol=1e-3)
    assert err.value.error_estimate > 0.0


def test_oracle_matches_rayleigh_bpsk_closed_form():
    """Exact-weight oracle against the textbook Rayleigh-BPSK result."""
    gbar = 10.0
    params = fading.special_case_params("rayleigh", mean_power=gbar)
    mimo = fading.MimoConfig(nt=1, nr=1)
    model = noise.make_noise_model(2.0)
    a_const, b_const = modulation.mod_constants(
        modulation.parse_modulation("bpsk"))
    got = quadrature.aber_oracle(
        lambda g: fading.pdf(params, mimo, g),
        model, a_const, b_const, rel_tol=1e-11)
    want = 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))
    assert math.isclose(got, want, rel_tol=1e-8)


def test_oracle_approx_weight_uses_fit():
    """With a QApprox weight the oracle integrates sum p_i e^{-q_i B g}."""
    fit = noise.builtin_fit(2.0)
    params = fading.special_case_params("rayleigh", mean_power=1.0)
    mimo = fading.MimoConfig(nt=1, nr=1)
    got = quadrature.aber_oracle(
        lambda g: fading.pdf(params, mimo, g), fit, 1.0, 2.0,
        rel_tol=1e-11)
    # Rayleigh mean 1: integral of e^{-g} e^{-2 q g} dg = 1/(1 + 2q).
    want = sum(p / (1.0 + 2.0 * q) for p, q in zip(fit.p, fit.q))
    assert math.isclose(got, want, rel_tol=1e-10)


def test_oracle_zero_amplitude_short_circuits():
    fit = noise.builtin_fit(2.0)
    params = fading.special_case_params("rayleigh")
    mimo = fading.MimoConfig(nt=1, nr=1)
    got = quadrature.aber_oracle(
        lambda g: fading.pdf(params, mimo, g), fit, 0.0, 2.0)
    assert got == 0.0


def test_oracle_heavy_fading_concentration():
    """Nakagami m = 2000 concentrates near gbar: ABER -> Q(sqrt(2 gbar)).

    The residual Jensen correction decays like 1/m (~0.5% here), so a 1%
    bound leaves a factor-of-two margin.
    """
    params = fading.special_case_params("nakagami-m", m=2000.0,
                                        mean_power=4.0)
    mimo = fading.MimoConfig(nt=1, nr=1)
    model = noise.make_noise_model(2.0)
    got = quadrature.aber_oracle(
        lambda g: fading.pdf(params, mimo, g), model, 1.0, 2.0,
        rel_tol=1e-11)
    want = 0.5 * math.erfc(math.sqrt(8.0) / math.sqrt(2.0))
    assert abs(got - want) / want < 1e-2


def test_oracle_bounded_by_origin_value():
    """ABER can never exceed A Q_a(0) (the zero-SNR error floor)."""
    for a in (0.5, 2.0):
        model = noise.make_noise_model(a)
        fit = noise.builtin_fit(a)
        params = fading.KappaMuShadowedParams(kappa=1.0, mu=1.0, m=1.0,
                                              mean_power=0.1)
        mimo = fading.MimoConfig(nt=1, nr=1)
        for weight in (model, fit):
            got = quadrature.aber_oracle(
                lambda g: fading.pdf(params, mimo, g), weight, 2.0, 1.0)
            ceiling = 2.0 * noise.q_exact(model, 0.0)
            assert got <= ceiling * (1.0 + 5e-3), (a, type(weight).__name__)
