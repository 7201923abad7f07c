"""Fading families, antenna aggregation, special cases, JSON parsing.

Frozen density values were computed with mpmath at 50-digit precision
directly from the textbook density definitions (gamma / Bessel / Kummer
forms), independent of the package's log-space evaluation.
"""

import math

import pytest
import scipy.special as sps

from gfaber import fading, quadrature

MIMO1 = fading.MimoConfig(nt=1, nr=1)
MIMO2 = fading.MimoConfig(nt=2, nr=1)
MIMO4 = fading.MimoConfig(nt=2, nr=2)

# gamma -> pdf for EtaMuParams(shape=0.5, mu=1), two branches, unit
# per-branch power (aggregate mean 2); mpmath 50 dps.
ETA_PDF_REFS = {
    0.01: 3.2999289875609435837e-6,
    0.1: 0.0026965084760188120204,
    1.0: 0.37613795527985331577,
    10.0: 2.386039054391783971e-5,
}

# gamma -> pdf for KappaMuShadowedParams(kappa=2, mu=1.5, m=2), two
# branches, per-branch power 1.5 (aggregate mean 3); mpmath 50 dps.
KMS_PDF_REFS = {
    0.01: 3.4352644946887369383e-5,
    0.1: 0.0032491088510521661561,
    1.0: 0.16654835141897127136,
    10.0: 0.0014864078525171605048,
}


def test_eta_mu_hH_values():
    """Format 1: h = (1+eta)^2/(4 eta), H = (1-eta^2)/(4 eta)."""
    assert fading.eta_mu_hH(
        fading.EtaMuParams(shape=1.0, mu=1.0)) == (1.0, 0.0)
    h, H = fading.eta_mu_hH(fading.EtaMuParams(shape=0.5, mu=1.0))
    assert math.isclose(h, 1.125, rel_tol=1e-15)
    assert math.isclose(H, 0.375, rel_tol=1e-15)
    # Format 2: h = 1/(1 - lambda^2), H = lambda/(1 - lambda^2).
    assert fading.eta_mu_hH(
        fading.EtaMuParams(shape=0.0, mu=1.0, fmt=fading.FORMAT2)
    ) == (1.0, 0.0)
    h, H = fading.eta_mu_hH(
        fading.EtaMuParams(shape=0.6, mu=1.0, fmt=fading.FORMAT2))
    assert math.isclose(h, 1.0 / 0.64, rel_tol=1e-15)
    assert math.isclose(H, 0.6 / 0.64, rel_tol=1e-15)


def test_eta_mu_format1_symmetry():
    """eta and 1/eta describe the same channel in format 1."""
    for g in (0.2, 1.0, 4.0):
        p_lo = fading.EtaMuParams(shape=0.25, mu=1.3)
        p_hi = fading.EtaMuParams(shape=4.0, mu=1.3)
        assert math.isclose(
            fading.pdf(p_lo, MIMO1, g),
            fading.pdf(p_hi, MIMO1, g),
            rel_tol=1e-13,
        )


def test_compact_eta_mu_parameters():
    params = fading.EtaMuParams(shape=0.5, mu=1.0, mean_power=1.0)
    compact = fading.compact_eta_mu(params, MIMO1)
    # beta = 2 mu_branch h / gbar_branch, xi = 2 mu_branch H / gbar_branch
    assert math.isclose(compact.beta, 2.25, rel_tol=1e-15)
    assert math.isclose(compact.xi, 0.75, rel_tol=1e-15)
    assert math.isclose(compact.m, 1.5, rel_tol=1e-15)   # mu N + 1/2
    assert math.isclose(compact.nu, 0.5, rel_tol=1e-15)  # m - 1
    assert not compact.degenerate
    compact4 = fading.compact_eta_mu(params, MIMO4)
    assert math.isclose(compact4.m, 4.5, rel_tol=1e-15)
    assert math.isclose(compact4.nu, 3.5, rel_tol=1e-15)


def test_compact_eta_mu_degenerate_flags():
    assert fading.compact_eta_mu(
        fading.EtaMuParams(shape=1.0, mu=0.5), MIMO1
    ).degenerate
    assert fading.compact_eta_mu(
        fading.EtaMuParams(shape=0.0, mu=0.5, fmt=fading.FORMAT2), MIMO1
    ).degenerate


def test_eta_mu_degenerate_is_exponential():
    """eta = 1, mu = 1/2, one branch: the density is Exp(1/gbar)."""
    params = fading.EtaMuParams(shape=1.0, mu=0.5, mean_power=1.0)
    for g in (0.1, 1.0, 3.0):
        assert math.isclose(
            fading.pdf(params, MIMO1, g), math.exp(-g), rel_tol=1e-13
        )


def test_eta_mu_pdf_frozen_references():
    params = fading.EtaMuParams(shape=0.5, mu=1.0, mean_power=1.0)
    for g, want in ETA_PDF_REFS.items():
        got = fading.pdf(params, MIMO2, g)
        assert math.isclose(got, want, rel_tol=1e-12), (g, got, want)


def test_kms_pdf_frozen_references():
    params = fading.KappaMuShadowedParams(kappa=2.0, mu=1.5, m=2.0,
                                          mean_power=1.5)
    for g, want in KMS_PDF_REFS.items():
        got = fading.pdf(params, MIMO2, g)
        assert math.isclose(got, want, rel_tol=1e-12), (g, got, want)


def test_kms_kappa_zero_is_gamma_density():
    """kappa = 0 collapses to a gamma density with shape mu N."""
    params = fading.KappaMuShadowedParams(kappa=0.0, mu=2.0, m=1.0,
                                          mean_power=1.0)
    for g in (0.01, 0.5, 1.0, 6.0):
        want = 4.0 * g * math.exp(-2.0 * g)  # shape 2, rate 2
        assert math.isclose(fading.pdf(params, MIMO1, g), want,
                            rel_tol=1e-13)


def test_pdf_at_zero_limits():
    # aggregate shape > 1 -> 0; == 1 -> positive; < 1 -> +inf
    assert fading.pdf(
        fading.EtaMuParams(shape=0.5, mu=1.0), MIMO1, 0.0) == 0.0
    assert fading.pdf(
        fading.KappaMuShadowedParams(kappa=0.0, mu=2.0, m=1.0), MIMO1, 0.0
    ) == 0.0
    exp_at_zero = fading.pdf(
        fading.KappaMuShadowedParams(kappa=0.0, mu=1.0, m=1.0), MIMO1, 0.0)
    assert math.isclose(exp_at_zero, 1.0, rel_tol=1e-13)
    assert fading.pdf(
        fading.KappaMuShadowedParams(kappa=1.0, mu=0.5, m=1.0), MIMO1, 0.0
    ) == math.inf


def test_family_dispatch_rejects_other_types():
    with pytest.raises(ValueError, match="got object"):
        fading.compact(object(), MIMO1)
    with pytest.raises(ValueError, match="got object"):
        fading.log_pdf(object(), 1.0)
    with pytest.raises(ValueError, match="got object"):
        fading.pdf(object(), MIMO1, 1.0)


def test_pdf_mean_matches_aggregate_power():
    """integral of g f(g) equals branches x per-branch mean power."""
    params = fading.EtaMuParams(shape=0.3, mu=1.5, mean_power=2.0)
    mean = quadrature.integrate_semi_infinite(
        lambda g: g * fading.pdf(params, MIMO2, g), 1e-11)
    assert math.isclose(mean, 4.0, rel_tol=1e-9)
    params = fading.KappaMuShadowedParams(kappa=3.0, mu=1.0, m=2.0,
                                          mean_power=0.5)
    mean = quadrature.integrate_semi_infinite(
        lambda g: g * fading.pdf(params, MIMO4, g), 1e-11)
    assert math.isclose(mean, 2.0, rel_tol=1e-9)


def test_special_case_rayleigh_exact():
    params = fading.special_case_params("rayleigh", mean_power=2.0)
    assert isinstance(params, fading.KappaMuShadowedParams)
    assert params.kappa == 0.0
    for g in (0.1, 1.0, 5.0):
        want = math.exp(-g / 2.0) / 2.0
        assert math.isclose(fading.pdf(params, MIMO1, g), want,
                            rel_tol=1e-12)


def test_special_case_nakagami_exact():
    params = fading.special_case_params("nakagami-m", m=2.0)
    for g in (0.2, 1.3, 4.0):
        want = 4.0 * g * math.exp(-2.0 * g)
        assert math.isclose(fading.pdf(params, MIMO1, g), want,
                            rel_tol=1e-12)


def test_special_case_one_sided_gaussian_exact():
    params = fading.special_case_params("one-sided-gaussian")
    for g in (0.2, 1.0, 3.0):
        want = math.exp(-0.5 * g) / math.sqrt(2.0 * math.pi * g)
        assert math.isclose(fading.pdf(params, MIMO1, g), want,
                            rel_tol=1e-12)


def test_special_case_hoyt_exact():
    """Hoyt(q) folds into the shadowed family with m = 1/2, no surrogate."""
    q = 0.5
    params = fading.special_case_params("hoyt", q=q)
    assert isinstance(params, fading.KappaMuShadowedParams)
    assert params.m == 0.5
    for g in (0.05, 0.6, 2.5):
        # Classical Hoyt power density.
        q2 = q * q
        want = ((1.0 + q2) / (2.0 * q)
                * math.exp(-((1.0 + q2) ** 2) * g / (4.0 * q2))
                * sps.i0((1.0 - q2 * q2) * g / (4.0 * q2)))
        got = fading.pdf(params, MIMO1, g)
        assert math.isclose(got, want, rel_tol=1e-11), (g, got, want)


def test_special_case_rician_surrogate():
    """Rician needs the large-m surrogate: agreement to ~1e-4."""
    K = 2.0
    params = fading.special_case_params("rician", K=K)
    for g in (0.1, 1.3, 4.0):
        want = ((1.0 + K) * math.exp(-K - (1.0 + K) * g)
                * sps.i0(2.0 * math.sqrt(K * (1.0 + K) * g)))
        got = fading.pdf(params, MIMO1, g)
        assert math.isclose(got, want, rel_tol=1e-4), (g, got, want)


def test_special_case_kappa_mu_surrogate():
    """Unshadowed kappa-mu via large m, against the classical density."""
    kappa, mu = 1.5, 2.0
    params = fading.special_case_params("kappa-mu", kappa=kappa, mu=mu)
    for g in (0.2, 1.0, 3.0):
        # Classical kappa-mu power density.
        want = (mu * (1.0 + kappa) ** ((mu + 1.0) / 2.0)
                / (kappa ** ((mu - 1.0) / 2.0) * math.exp(mu * kappa))
                * g ** ((mu - 1.0) / 2.0)
                * math.exp(-mu * (1.0 + kappa) * g)
                * sps.iv(mu - 1.0,
                         2.0 * mu * math.sqrt(kappa * (1.0 + kappa) * g)))
        got = fading.pdf(params, MIMO1, g)
        assert math.isclose(got, want, rel_tol=1e-3), (g, got, want)


def test_special_case_rician_shadowed_is_native():
    params = fading.special_case_params("rician-shadowed", K=2.0, m=1.0)
    assert isinstance(params, fading.KappaMuShadowedParams)
    assert params.kappa == 2.0
    assert params.mu == 1.0
    assert params.m == 1.0


def test_special_case_eta_mu_mapping_matches_native():
    """The unified-family image of eta-mu is an exact reparametrization."""
    eta, mu = 0.3, 1.25
    native = fading.EtaMuParams(shape=eta, mu=mu)
    mapped = fading.special_case_params("eta-mu", eta=eta, mu=mu)
    assert isinstance(mapped, fading.KappaMuShadowedParams)
    for g in (0.05, 0.5, 2.0, 8.0):
        a = fading.pdf(native, MIMO1, g)
        b = fading.pdf(mapped, MIMO1, g)
        assert math.isclose(a, b, rel_tol=1e-9), (g, a, b)


def test_special_case_eta_above_one_folds():
    lo = fading.special_case_params("eta-mu", eta=0.5, mu=1.0)
    hi = fading.special_case_params("eta-mu", eta=2.0, mu=1.0)
    assert lo == hi


def test_special_case_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fading.special_case_params("rician")          # missing K
    with pytest.raises(ValueError):
        fading.special_case_params("hoyt", q=0.0)
    with pytest.raises(ValueError):
        fading.special_case_params("rayleigh", K=1.0)  # stray argument
    with pytest.raises(ValueError):
        fading.special_case_params("no-such-model")
    with pytest.raises(ValueError, match="eta"):
        fading.special_case_params("eta-mu", eta=math.inf, mu=1.0)


def test_param_validation():
    with pytest.raises(ValueError):
        fading.EtaMuParams(shape=-0.1, mu=1.0)
    with pytest.raises(ValueError):
        fading.EtaMuParams(shape=1.5, mu=1.0, fmt=fading.FORMAT2)
    with pytest.raises(ValueError):
        fading.EtaMuParams(shape=0.5, mu=0.0)
    with pytest.raises(ValueError):
        fading.KappaMuShadowedParams(kappa=-1.0, mu=1.0, m=1.0)
    with pytest.raises(ValueError):
        fading.KappaMuShadowedParams(kappa=1.0, mu=1.0, m=0.0)
    with pytest.raises(ValueError):
        fading.EtaMuParams(shape=0.5, mu=1.0, mean_power=0.0)
    with pytest.raises(ValueError):
        fading.MimoConfig(nt=0, nr=1)


def test_mimo_config_takes_integral_counts_only():
    mimo = fading.MimoConfig(nt=2.0, nr=3)
    assert (mimo.nt, mimo.nr) == (2, 3)
    assert isinstance(mimo.nt, int)  # so a JSON echo reads 2, not 2.0
    for bad in (2.5, "2", True, None, math.inf, math.nan):
        with pytest.raises(ValueError):
            fading.MimoConfig(nt=bad, nr=1)


def test_param_validation_rejects_non_finite_values():
    cases = (
        (lambda v: fading.EtaMuParams(shape=v, mu=1.0), "eta"),
        (lambda v: fading.EtaMuParams(shape=0.5, mu=v), "mu"),
        (lambda v: fading.EtaMuParams(shape=0.5, mu=1.0, mean_power=v),
         "mean_power"),
        (lambda v: fading.KappaMuShadowedParams(kappa=v, mu=1.0, m=1.0),
         "kappa"),
        (lambda v: fading.KappaMuShadowedParams(kappa=1.0, mu=v, m=1.0),
         "mu"),
        (lambda v: fading.KappaMuShadowedParams(kappa=1.0, mu=1.0, m=v),
         "m"),
        (lambda v: fading.KappaMuShadowedParams(
            kappa=1.0, mu=1.0, m=1.0, mean_power=v), "mean_power"),
    )
    for build, field in cases:
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                build(value)
    with pytest.raises(ValueError, match="M_LARGE"):
        fading.KappaMuShadowedParams(kappa=1.0, mu=1.0, m=math.inf)


def test_mimo_branches():
    assert MIMO1.branches == 1
    assert MIMO2.branches == 2
    assert MIMO4.branches == 4
    assert fading.MimoConfig(nt=4, nr=1).branches == 4


def test_parse_fading_json_eta_mu():
    p = fading.parse_fading_json({"model": "eta-mu", "eta": 0.4, "mu": 2.0})
    assert isinstance(p, fading.EtaMuParams)
    assert p.shape == 0.4
    assert p.fmt == fading.FORMAT1
    p = fading.parse_fading_json(
        {"model": "eta-mu", "lambda": -0.3, "mu": 1.0})
    assert p.fmt == fading.FORMAT2
    assert p.shape == -0.3
    for fmt_num, key, fmt in ((1, "eta", fading.FORMAT1),
                              (2, "lambda", fading.FORMAT2)):
        p = fading.parse_fading_json(
            {"model": "eta-mu", "format": fmt_num, key: 0.5, "mu": 1.0})
        assert p.fmt == fmt


@pytest.mark.parametrize("fmt", [1.5, True, False, 1.0, "1", 3])
def test_parse_fading_json_rejects_format_other_than_1_or_2(fmt):
    with pytest.raises(ValueError, match="format must be 1 or 2"):
        fading.parse_fading_json(
            {"model": "eta-mu", "format": fmt, "eta": 0.5, "mu": 1.0})


@pytest.mark.parametrize("shape", [{"eta": 0.5}, {"lambda": 0.5}])
def test_parse_fading_json_names_missing_eta_mu_mu(shape):
    with pytest.raises(ValueError, match="eta-mu requires field 'mu'"):
        fading.parse_fading_json({"model": "eta-mu", **shape})


def test_parse_fading_json_kms_and_special():
    p = fading.parse_fading_json(
        {"model": "kappa-mu-shadowed", "kappa": 1.0, "mu": 2.0, "m": 3.0})
    assert isinstance(p, fading.KappaMuShadowedParams)
    p = fading.parse_fading_json({"model": "hoyt", "q": 0.5})
    assert isinstance(p, fading.KappaMuShadowedParams)
    assert p.m == 0.5


def test_parse_fading_json_mean_power():
    p = fading.parse_fading_json(
        {"model": "rayleigh", "mean_power_db": 10.0})
    assert math.isclose(p.mean_power, 10.0, rel_tol=1e-12)
    p = fading.parse_fading_json({"model": "rayleigh", "mean_power": 3.0})
    assert p.mean_power == 3.0
    with pytest.raises(ValueError):
        fading.parse_fading_json(
            {"model": "rayleigh", "mean_power": 1.0, "mean_power_db": 0.0})


def test_parse_fading_json_errors():
    with pytest.raises(ValueError):
        fading.parse_fading_json({"eta": 0.5, "mu": 1.0})  # no model
    with pytest.raises(ValueError):
        fading.parse_fading_json({"model": "eta-mu", "mu": 1.0})
    with pytest.raises(ValueError):
        fading.parse_fading_json({"model": "warp-drive"})
