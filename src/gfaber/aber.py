"""Closed-form average error rates and SNR sweeps.

For a fading family with aggregated density ``pdf`` and a modulation with
constants ``(A, B)``, the average error rate under the 4-exponential noise
model is

    ABER = A * integral_0^inf pdf(g) * sum_i p_i exp(-q_i B g) dg,

which both families admit in closed form:

* eta-mu: each term is a gamma-times-Bessel Laplace transform, yielding a
  Gauss hypergeometric factor ``2F1((m+nu)/2, (m+nu+1)/2; 1+nu; xi^2 /
  beta_i^2)`` with ``beta_i = beta + q_i B``; because the 2F1's second
  upper parameter equals its lower parameter the factor collapses to
  ``(1 - xi^2/beta_i^2)^-(nu+1/2)`` (:func:`aber_eta_mu_closed`);

* kappa-mu shadowed: each term is the Laplace transform of a
  gamma-times-1F1 density, yielding ``Gamma(mu~) s_i^-mu~ 2F1(m~, mu~;
  mu~; zeta/s_i)`` with ``s_i = beta + q_i B``, collapsing to ``(1 -
  zeta/s_i)^-m~`` (:func:`aber_kms_closed`).

Each family has one evaluator; its ``reduced`` flag selects the
elementary factor instead of the 2F1 one, and only that factor differs.
:func:`aber_point` uses the 2F1 form; the test suite cross-checks the
two.  Both evaluators pass the 2F1 its lower parameter as the second
upper one, so :func:`~gfaber.specfun.gauss_2f1` returns ``(1 - z)^-a``
without summing a series wherever that value fits in a double.  The
forms still differ in where the factor enters: the 2F1 form multiplies
it into the exponentiated term, the elementary form adds its log.  Terms
are assembled in log space (weights may be negative, so signs are
carried separately); the SNR-free constants of a call are computed once.

:func:`sweep` evaluates a scenario over an SNR grid by the closed form or
by either quadrature oracle, recording per-point failures as gaps with
diagnostics instead of silent NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import exp, log, log1p

from gfaber import fading as fading_mod
from gfaber import modulation as modulation_mod
from gfaber import noise as noise_mod
from gfaber import quadrature, specfun
from gfaber.errors import GfaberError

METHOD_CLOSED = "closed-form"
METHOD_ORACLE_EXACT = "oracle-exact"
METHOD_ORACLE_APPROX = "oracle-approx"
METHODS = (METHOD_CLOSED, METHOD_ORACLE_EXACT, METHOD_ORACLE_APPROX)

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class AberScenario:
    """A fading/noise/modulation configuration over an SNR grid (dB).

    ``fading`` is an :class:`~gfaber.fading.EtaMuParams` or
    :class:`~gfaber.fading.KappaMuShadowedParams` instance (its
    ``mean_power`` is replaced point-by-point during sweeps); ``noise``
    carries the 4-exponential fit together with its shape parameter.
    """

    fading: object
    mimo: fading_mod.MimoConfig
    noise: noise_mod.QApprox
    modulation: modulation_mod.ModulationSpec
    snr_grid: tuple

    def __post_init__(self):
        if not isinstance(
            self.fading,
            (fading_mod.EtaMuParams, fading_mod.KappaMuShadowedParams),
        ):
            raise ValueError(
                "fading must be EtaMuParams or KappaMuShadowedParams, "
                f"got {type(self.fading).__name__}"
            )
        object.__setattr__(
            self, "snr_grid", tuple(float(v) for v in self.snr_grid)
        )
        for snr_db in self.snr_grid:
            fading_mod.db_to_power(snr_db, "snr_grid")
        if any(b <= a for a, b in zip(self.snr_grid, self.snr_grid[1:])):
            raise ValueError("snr_grid must be strictly increasing")


@dataclass(frozen=True)
class AberCurve:
    """Result of a sweep: (snr_db, aber) pairs plus diagnostics.

    Failed points appear with value ``None`` (a gap) and a corresponding
    entry in ``diagnostics``.  ``monotone`` reports whether the non-gap
    values are non-increasing in SNR; violations are diagnosed rather
    than raised.
    """

    scenario: AberScenario
    points: tuple
    method: str
    monotone: bool = True
    diagnostics: tuple = ()

    def values(self):
        """The aber values only (may contain None gaps)."""
        return tuple(v for _, v in self.points)


def _signed_exp_sum(terms):
    """Sum of ``sign * exp(log_mag)`` pairs."""
    total = 0.0
    for sign, log_mag in terms:
        total += sign * exp(log_mag)
    return total


def aber_eta_mu_closed(compact, fit, a_const, b_const, reduced=False):
    """Closed-form average error rate for aggregated eta-mu fading.

    Sums ``Psi_i * 2F1((m+nu)/2, (m+nu+1)/2; 1+nu; xi^2/beta_i^2)`` over
    the four fit terms, ``beta_i = beta + q_i * B`` and ``Psi_i = A psi
    p_i xi^nu Gamma(m+nu) / (2^nu beta_i^(m+nu) Gamma(nu+1))``, with each
    term's magnitude assembled in log space.  The degenerate (balanced,
    ``xi = 0``) bundle averages the underlying gamma density instead:
    term ``A p_i psi Gamma(m+nu) / beta_i^(m+nu)``.

    With ``reduced=True`` the elementary form replaces the 2F1 factor:
    its lower parameter ``1 + nu`` equals the second upper parameter, so
    ``2F1(a, b; b; z) = (1-z)^-a`` leaves ``(1 - xi^2/beta_i^2)^-(nu +
    1/2)``.  The 2F1 form multiplies the factor into ``exp(log_mag)``
    after exponentiation, so at high diversity and strong imbalance a
    huge factor times a subnormal ``exp`` loses precision where the
    elementary form, which stays in log space, does not.  The 2F1 form
    passes ``1 + nu`` as both ``b`` and ``c``: ``(m+nu+1)/2`` equals it on
    paper but not always in floating point, and the kernel takes its
    closed form only when the two are equal.
    """
    if a_const == 0.0:
        return 0.0
    shape_sum = compact.m + compact.nu
    ln_gamma_sum = specfun.ln_gamma(shape_sum)
    log_a = log(a_const)
    if not compact.degenerate:
        shift = (
            compact.nu * log(compact.xi)
            - compact.nu * _LOG2
            - specfun.ln_gamma(compact.nu + 1.0)
        )
        lower = 1.0 + compact.nu
    terms = []
    for p_i, q_i in zip(fit.p, fit.q):
        if p_i == 0.0:
            continue
        beta_i = compact.beta + q_i * b_const
        if beta_i <= compact.xi:
            raise ValueError(
                f"shifted decay rate {beta_i} must exceed xi={compact.xi}"
            )
        log_mag = (
            compact.log_psi
            + ln_gamma_sum
            - shape_sum * log(beta_i)
            + log(abs(p_i))
            + log_a
        )
        hyp = 1.0
        if not compact.degenerate:
            z = (compact.xi / beta_i) ** 2
            if reduced:
                log_mag += shift - (compact.nu + 0.5) * log1p(-z)
            else:
                log_mag += shift
                hyp = specfun.gauss_2f1(0.5 * shape_sum, lower, lower, z)
        terms.append((math.copysign(hyp, p_i), log_mag))
    return _signed_exp_sum(terms)


def aber_kms_closed(compact, fit, a_const, b_const, reduced=False):
    """Closed-form average error rate for kappa-mu shadowed fading.

    Sums ``A psi p_i Gamma(mu~) s_i^-mu~ 2F1(m~, mu~; mu~; zeta/s_i)``
    with ``s_i = beta + q_i * B``.  When ``zeta = 0`` (no dominant
    component, kappa = 0) the hypergeometric factor is exactly 1 and the
    term is a plain gamma-density average.

    With ``reduced=True`` the factor, whose second upper and lower
    parameters are equal, is the elementary ``(1 - zeta/s_i)^-m~``,
    evaluated through ``log1p`` so that the heavy-shadowing surrogate
    (``m~ ~ 1e5`` with ``zeta/s_i ~ 1e-5``) keeps full precision.
    """
    if a_const == 0.0:
        return 0.0
    ln_gamma_mu = specfun.ln_gamma(compact.mu_tilde)
    log_a = log(a_const)
    terms = []
    for p_i, q_i in zip(fit.p, fit.q):
        if p_i == 0.0:
            continue
        s_i = compact.beta + q_i * b_const
        if s_i <= compact.zeta:
            raise ValueError(
                f"shifted decay rate {s_i} must exceed zeta={compact.zeta}"
            )
        log_mag = (
            compact.log_psi
            + ln_gamma_mu
            - compact.mu_tilde * log(s_i)
            + log(abs(p_i))
            + log_a
        )
        hyp = 1.0
        if compact.zeta != 0.0:
            if reduced:
                log_mag -= compact.m_tilde * log1p(-compact.zeta / s_i)
            else:
                hyp = specfun.gauss_2f1(
                    compact.m_tilde,
                    compact.mu_tilde,
                    compact.mu_tilde,
                    compact.zeta / s_i,
                )
        terms.append((math.copysign(hyp, p_i), log_mag))
    return _signed_exp_sum(terms)


def aber_closed(params, mimo, fit, a_const, b_const, reduced=False):
    """Closed-form ABER for either fading family at fixed mean power."""
    compact = fading_mod.compact(params, mimo)
    if isinstance(compact, fading_mod.CompactEtaMu):
        return aber_eta_mu_closed(compact, fit, a_const, b_const, reduced)
    return aber_kms_closed(compact, fit, a_const, b_const, reduced)


def aber_point(scenario, snr_db, method=METHOD_CLOSED, rel_tol=1e-10):
    """Evaluate one SNR point of a scenario by the selected method."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected {METHODS}")
    params = replace(
        scenario.fading, mean_power=fading_mod.db_to_power(snr_db, "snr_db")
    )
    a_const, b_const = modulation_mod.mod_constants(scenario.modulation)
    if method == METHOD_CLOSED:
        return aber_closed(params, scenario.mimo, scenario.noise, a_const, b_const)
    compact = fading_mod.compact(params, scenario.mimo)

    def pdf(g):
        lv = fading_mod.log_pdf(compact, g)
        return exp(lv) if lv < 709.0 else math.inf

    if method == METHOD_ORACLE_APPROX:
        weight = scenario.noise
    else:
        weight = noise_mod.make_noise_model(scenario.noise.a)
    return quadrature.aber_oracle(pdf, weight, a_const, b_const, rel_tol)


def sweep(scenario, method=METHOD_CLOSED, rel_tol=1e-10):
    """Evaluate a scenario across its SNR grid, one point after another.

    Per-point numerical failures become gaps (value ``None``) with a
    diagnostic message instead of aborting the sweep.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected {METHODS}")

    def evaluate(snr_db):
        try:
            return aber_point(scenario, snr_db, method, rel_tol), None
        except GfaberError as exc:
            return None, f"snr_db={snr_db:g}: {exc}"

    grid = scenario.snr_grid
    outcomes = [evaluate(snr_db) for snr_db in grid]

    points = tuple(
        (snr_db, value) for snr_db, (value, _) in zip(grid, outcomes)
    )
    diagnostics = [msg for _, msg in outcomes if msg is not None]
    monotone = True
    solid = [(snr_db, v) for snr_db, v in points if v is not None]
    for (db_lo, lo), (db_hi, hi) in zip(solid, solid[1:]):
        if hi > lo:
            monotone = False
            diagnostics.append(
                f"aber increased from {lo:.6e} at {db_lo:g} dB to "
                f"{hi:.6e} at {db_hi:g} dB"
            )
    return AberCurve(
        scenario=scenario,
        points=points,
        method=method,
        monotone=monotone,
        diagnostics=tuple(diagnostics),
    )
