"""Closed-form ABER expressions and the sweep driver.

The first two frozen anchors were produced by 50-digit mpmath quadrature
of A * sum_i p_i e^{-q_i B g} against densities written directly from the
textbook definitions — no package code involved.  The third is the same
average taken through the eta-mu moment generating function.
"""

import math
from dataclasses import replace
from functools import partial

import pytest

from conftest import (fail_gauss_2f1_near_one, mgf_aber, record_direct_series,
                      scenario_batch)

from gfaber import aber, cli, fading, modulation, noise, quadrature, specfun

BPSK = modulation.parse_modulation("bpsk")
FIT2 = noise.builtin_fit(2.0)
MIMO1 = fading.MimoConfig(nt=1, nr=1)
MIMO2 = fading.MimoConfig(nt=2, nr=1)
MIMO4 = fading.MimoConfig(nt=2, nr=2)

# EtaMuParams(0.5, 1), 2x2, per-branch power 10, BPSK, a=2 table fit.
ETA_ABER_REF = 8.6197586862094818e-8
# KappaMuShadowedParams(2, 2, 1), same setup.
KMS_ABER_REF = 2.8434591040615501e-7
# EtaMuParams(1e-5, 1), 1x1, per-branch power 1, BPSK, a=2 table fit:
# A * sum_i p_i M(q_i B) at 40 digits, with the eta-mu MGF (format 1)
# M(s) = (4 mu^2 h / ((2 mu (h - H) + s) (2 mu (h + H) + s)))^mu.
ETA_IMBALANCED_ABER_REF = 0.14725139005409102


def test_eta_mu_frozen_anchor():
    params = fading.EtaMuParams(shape=0.5, mu=1.0, mean_power=10.0)
    got = aber.aber_closed(params, MIMO4, FIT2, 1.0, 2.0)
    assert math.isclose(got, ETA_ABER_REF, rel_tol=1e-10)


def test_kms_frozen_anchor():
    params = fading.KappaMuShadowedParams(kappa=2.0, mu=2.0, m=1.0,
                                          mean_power=10.0)
    got = aber.aber_closed(params, MIMO4, FIT2, 1.0, 2.0)
    assert math.isclose(got, KMS_ABER_REF, rel_tol=1e-10)


def test_strong_imbalance_at_low_snr_resolves():
    """Every term's 2F1 argument exceeds 0.999 here; the Gauss series used
    to give up at this point."""
    params = fading.EtaMuParams(shape=1e-5, mu=1.0)
    got = aber.aber_closed(params, MIMO1, FIT2, 1.0, 2.0)
    assert math.isclose(got, ETA_IMBALANCED_ABER_REF, rel_tol=1e-11)


def test_preset_curves_take_the_elementary_2f1_path(monkeypatch):
    """Every closed-form 2F1 factor has b == c, so the kernel returns
    (1 - z)^-a and never sums a Gauss series."""
    real_2f1 = specfun.gauss_2f1
    calls = []

    def gauss_2f1(a, b, c, z):
        calls.append((a, b, c, z))
        return real_2f1(a, b, c, z)

    monkeypatch.setattr(specfun, "gauss_2f1", gauss_2f1)
    series_runs = record_direct_series(monkeypatch)
    for name in cli.PRESETS:
        scenarios, _ = cli._scenarios_from_preset(name)
        for _, sc in scenarios:
            aber.sweep(sc)
    assert calls
    assert [args for args in calls if args[1] != args[2]] == []
    assert series_runs == []


def test_closed_equals_reduced_across_batch():
    """The closed form and the elementary MGF sum are the same function."""
    for family in ("eta-mu", "kappa-mu-shadowed"):
        for case in scenario_batch(family, 10, seed=20240211):
            got = aber.aber_closed(*case)
            assert math.isclose(got, mgf_aber(*case), rel_tol=1e-12,
                                abs_tol=1e-300), (family, case[0])


def test_closed_equals_reduced_on_boundaries():
    """Degenerate eta = 1 and kappa = 0 keep the identity intact."""
    for params in (
            fading.EtaMuParams(shape=1.0, mu=1.5, mean_power=5.0),
            fading.KappaMuShadowedParams(kappa=0.0, mu=1.5, m=2.0,
                                         mean_power=5.0)):
        terms = fading.mgf_terms(params, MIMO2)
        assert terms[3] == 0.0 and terms[7] == 0.0, params
        case = (params, MIMO2, FIT2, 1.0, 2.0)
        got = aber.aber_closed(*case)
        assert math.isclose(got, mgf_aber(*case), rel_tol=1e-12), params


def test_closed_matches_mgf_sum_on_preset_curves():
    """Every preset-curve point equals the 40-digit MGF sum to 1e-12."""
    cases = []
    for name in cli.PRESETS:
        scenarios, _ = cli._scenarios_from_preset(name)
        for _, sc in scenarios:
            a_const, b_const = modulation.mod_constants(sc.modulation)
            for snr_db in sc.snr_grid:
                params = replace(
                    sc.fading, mean_power=fading.db_to_power(snr_db, "snr"))
                cases.append((params, sc.mimo, sc.noise, a_const, b_const))
    assert len(cases) == 464
    for case in cases:
        got = aber.aber_closed(*case)
        assert math.isclose(got, mgf_aber(*case), rel_tol=1e-12), case


def test_kappa_zero_matches_gamma_mgf():
    """kappa = 0 collapses to a gamma MGF: A sum p_i (b/(b+q_i B))^muN."""
    mu, m, gbar = 1.5, 3.0, 4.0
    params = fading.KappaMuShadowedParams(kappa=0.0, mu=mu, m=m,
                                          mean_power=gbar)
    for mimo in (MIMO1, MIMO4):
        n = mimo.branches
        shape = mu * n
        beta = shape / (n * gbar)
        for a_const, b_const in ((1.0, 2.0), (2.0, 1.0)):
            want = a_const * sum(
                p * (beta / (beta + q * b_const)) ** shape
                for p, q in zip(FIT2.p, FIT2.q))
            got = aber.aber_closed(params, mimo, FIT2, a_const, b_const)
            assert math.isclose(got, want, rel_tol=1e-12), (n, a_const)


def test_eta_one_matches_gamma_mgf():
    """eta = 1 (h=1, H=0) collapses to a gamma MGF with shape 2 mu N."""
    mu, gbar = 1.25, 3.0
    params = fading.EtaMuParams(shape=1.0, mu=mu, mean_power=gbar)
    for mimo in (MIMO1, MIMO2):
        n = mimo.branches
        shape = 2.0 * mu * n
        beta = 2.0 * mu / gbar
        want = sum(
            p * (beta / (beta + q * 2.0)) ** shape
            for p, q in zip(FIT2.p, FIT2.q))
        got = aber.aber_closed(params, mimo, FIT2, 1.0, 2.0)
        assert math.isclose(got, want, rel_tol=1e-12), n


def test_family_mapping_agrees():
    """Native eta-mu and its unified-family image give one answer."""
    for eta, mu in ((0.1, 0.5), (0.5, 1.0), (0.9, 2.0)):
        native = fading.EtaMuParams(shape=eta, mu=mu, mean_power=10.0)
        mapped = fading.special_case_params("eta-mu", eta=eta, mu=mu,
                                            mean_power=10.0)
        a = aber.aber_closed(native, MIMO1, FIT2, 1.0, 2.0)
        b = aber.aber_closed(mapped, MIMO1, FIT2, 1.0, 2.0)
        assert math.isclose(a, b, rel_tol=1e-9), (eta, mu)


def test_more_branches_lower_aber():
    eta_params = fading.EtaMuParams(shape=0.5, mu=1.0, mean_power=10.0)
    values = [
        aber.aber_closed(eta_params, mimo, FIT2, 1.0, 2.0)
        for mimo in (MIMO1, MIMO2, MIMO4)
    ]
    assert values[0] > values[1] > values[2]


def test_zero_amplitude_returns_zero():
    params = fading.EtaMuParams(shape=0.5, mu=1.0)
    assert aber.aber_closed(params, MIMO1, FIT2, 0.0, 2.0) == 0.0
    kparams = fading.KappaMuShadowedParams(kappa=1.0, mu=1.0, m=1.0)
    assert aber.aber_closed(kparams, MIMO1, FIT2, 0.0, 2.0) == 0.0


def test_negative_weight_row_stays_accurate():
    """The a = 2.5 table row carries a negative weight; the signed
    log-space assembly must still match the quadrature oracle."""
    fit = noise.builtin_fit(2.5)
    params = fading.KappaMuShadowedParams(kappa=1.0, mu=2.0, m=2.0,
                                          mean_power=10.0)
    closed = aber.aber_closed(params, MIMO2, fit, 2.0, 1.0)
    oracle = quadrature.aber_oracle(
        partial(fading.pdf, params, MIMO2), fit, 2.0, 1.0, rel_tol=1e-11)
    assert math.isclose(closed, oracle, rel_tol=1e-10)


def test_aber_closed_dispatches_by_family():
    """``fading.mgf_terms`` hands ``aber_closed`` each family's constants:
    (base, k, beta, pole, power, a', c', shift).  Balanced eta = 1 and
    kappa = 0 have no pole and no shift, so every 2F1 factor is 1."""
    eta_params = fading.EtaMuParams(shape=0.5, mu=1.0, mean_power=10.0)
    compact = fading.compact_eta_mu(eta_params, MIMO4)
    k = compact.m + compact.nu
    assert fading.mgf_terms(eta_params, MIMO4)[1:7] == (
        k, compact.beta, compact.xi, 2, 0.5 * k, 1.0 + compact.nu)
    assert math.isclose(
        aber.aber_closed(eta_params, MIMO4, FIT2, 1.0, 2.0),
        mgf_aber(eta_params, MIMO4, FIT2, 1.0, 2.0), rel_tol=1e-12)
    kms_params = fading.KappaMuShadowedParams(kappa=2.0, mu=2.0, m=1.0,
                                              mean_power=10.0)
    compact = fading.compact_kms(kms_params, MIMO4)
    assert fading.mgf_terms(kms_params, MIMO4)[1:] == (
        compact.mu_tilde, compact.beta, compact.zeta, 1, compact.m_tilde,
        compact.mu_tilde, 0.0)
    assert math.isclose(
        aber.aber_closed(kms_params, MIMO4, FIT2, 1.0, 2.0),
        mgf_aber(kms_params, MIMO4, FIT2, 1.0, 2.0), rel_tol=1e-12)
    for balanced in (
        fading.EtaMuParams(shape=1.0, mu=1.5, mean_power=5.0),
        fading.KappaMuShadowedParams(kappa=0.0, mu=1.5, m=2.0,
                                     mean_power=5.0),
    ):
        terms = fading.mgf_terms(balanced, MIMO2)
        assert (terms[3], terms[7]) == (0.0, 0.0), balanced
    with pytest.raises(ValueError, match="got object"):
        aber.aber_closed(object(), MIMO4, FIT2, 1.0, 2.0)


def scenario(params, snr_grid=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0)):
    return aber.AberScenario(
        fading=params, mimo=MIMO2, noise=FIT2, modulation=BPSK,
        snr_grid=snr_grid)


def test_sweep_closed_matches_pointwise_calls():
    sc = scenario(fading.EtaMuParams(shape=0.4, mu=1.0))
    curve = aber.sweep(sc)
    assert curve.method == aber.METHOD_CLOSED
    assert [snr for snr, _ in curve.points] == list(sc.snr_grid)
    for snr_db, value in curve.points:
        assert value == aber.aber_point(sc, snr_db, aber.METHOD_CLOSED)
    assert curve.monotone
    assert curve.values() == tuple(v for _, v in curve.points)


def test_sweep_oracle_methods_agree_with_closed():
    sc = scenario(fading.KappaMuShadowedParams(kappa=1.0, mu=1.0, m=2.0),
                  snr_grid=(0.0, 10.0, 20.0))
    closed = aber.sweep(sc, aber.METHOD_CLOSED)
    approx = aber.sweep(sc, aber.METHOD_ORACLE_APPROX, rel_tol=1e-11)
    exact = aber.sweep(sc, aber.METHOD_ORACLE_EXACT, rel_tol=1e-11)
    for (_, c), (_, ap), (_, ex) in zip(closed.points, approx.points,
                                        exact.points):
        assert math.isclose(c, ap, rel_tol=1e-8)
        # The fit itself is only ~percent accurate against the true
        # Q-function, so exact-weight values differ at that scale.
        assert math.isclose(c, ex, rel_tol=0.05)


def test_sweep_empty_grid():
    sc = scenario(fading.EtaMuParams(shape=0.4, mu=1.0), snr_grid=())
    curve = aber.sweep(sc)
    assert curve.points == ()
    assert curve.monotone


def test_sweep_records_gap_and_diagnostic_for_failing_point(monkeypatch):
    """A kernel failure at one SNR point must degrade the sweep
    point-wise, not abort it."""
    fail_gauss_2f1_near_one(monkeypatch)
    sc = scenario(fading.EtaMuParams(shape=1e-5, mu=1.0),
                  snr_grid=(0.0, 30.0))
    curve = aber.sweep(sc)
    assert curve.points[0][1] is None
    assert curve.points[1][1] is not None
    assert len(curve.diagnostics) == 1
    assert curve.diagnostics[0].startswith("snr_db=0")


def test_overflowing_kms_points_are_gaps_without_a_series_run(monkeypatch):
    """Strong LoS with light shadowing and a = 1 (closed_many seed 0,
    drawn/419-kms): (1 - z)^-a overflows a double from -20 to 20 dB.
    Those points are SeriesError gaps, raised without summing the Gauss
    series.  The 0.0 values from 25 dB up are the known silent zeros of
    the default evaluator (ROADMAP item 1) and are not pinned here."""
    series_runs = record_direct_series(monkeypatch)
    sc = aber.AberScenario(
        fading=fading.KappaMuShadowedParams(kappa=110.34657799189027,
                                            mu=3.336902179931333,
                                            m=634.1492728966058),
        mimo=fading.MimoConfig(nt=3, nr=1),
        noise=noise.builtin_fit(1.0),
        modulation=modulation.parse_modulation("qpsk"),
        snr_grid=tuple(range(-20, 61, 5)),
    )
    curve = aber.sweep(sc)
    gaps = [snr for snr, value in curve.points if value is None]
    assert gaps == [float(snr) for snr in range(-20, 21, 5)]
    assert len(curve.diagnostics) == len(gaps)
    for snr, diagnostic in zip(gaps, curve.diagnostics):
        assert diagnostic.startswith(f"snr_db={snr:g}: ")
        assert "hyp2f1 did not converge within the term cap" in diagnostic
    assert series_runs == []


def test_scenario_validation():
    params = fading.EtaMuParams(shape=0.4, mu=1.0)
    with pytest.raises(ValueError):
        aber.AberScenario(fading=params, mimo=MIMO1, noise=FIT2,
                          modulation=BPSK, snr_grid=(0.0, 0.0, 5.0))
    with pytest.raises(ValueError):
        aber.AberScenario(fading="rayleigh", mimo=MIMO1, noise=FIT2,
                          modulation=BPSK, snr_grid=(0.0,))
    with pytest.raises(ValueError):
        aber.aber_point(scenario(params), 0.0, method="guesswork")


def test_scenario_rejects_non_finite_snr():
    params = fading.EtaMuParams(shape=0.4, mu=1.0)
    # 4000 dB is finite but 10^(dB/10) is not; -4000 dB underflows to 0.
    for grid in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan),
                 (0.0, 4000.0), (-4000.0, 0.0)):
        with pytest.raises(ValueError, match="snr_grid"):
            aber.AberScenario(fading=params, mimo=MIMO1, noise=FIT2,
                              modulation=BPSK, snr_grid=grid)
