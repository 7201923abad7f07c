"""Closed-form average error rates and SNR sweeps.

For a fading family with aggregated density ``pdf`` and a modulation with
constants ``(A, B)``, the average error rate under the 4-exponential noise
model is

    ABER = A * integral_0^inf pdf(g) * sum_i p_i exp(-q_i B g) dg
         = A * sum_i p_i M(q_i B),

with ``M`` the fading MGF (Simon & Alouini, *Digital Communication over
Fading Channels*, 2nd ed., 2005, ch. 5).  Both families give each term
as ``exp(base - k log(beta_i) + shift) 2F1(a', c'; c'; (pole/beta_i)^power)``
with ``beta_i = beta + q_i B``: a Bessel (eta-mu) or 1F1 (kappa-mu
shadowed) Laplace transform.  :func:`~gfaber.fading.mgf_terms` supplies
the family constants, so :func:`aber_closed` is one evaluator with no
family branch.  Because the 2F1's second upper parameter equals its lower
one, :func:`~gfaber.specfun.gauss_2f1` returns ``(1 - z)^-a'`` without
summing a series wherever that value fits in a double.  Term magnitudes
are assembled in log space (weights may be negative, so signs are carried
separately); the SNR-free constants of a call are computed once.

:func:`sweep` evaluates a scenario over an SNR grid by the closed form or
by either quadrature oracle, recording per-point failures as gaps with
diagnostics instead of silent NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from math import exp, log

from gfaber import fading as fading_mod
from gfaber import modulation as modulation_mod
from gfaber import noise as noise_mod
from gfaber import quadrature, specfun
from gfaber.errors import GfaberError

METHOD_CLOSED = "closed-form"
METHOD_ORACLE_EXACT = "oracle-exact"
METHOD_ORACLE_APPROX = "oracle-approx"
METHODS = (METHOD_CLOSED, METHOD_ORACLE_EXACT, METHOD_ORACLE_APPROX)


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


def aber_closed(params, mimo, fit, a_const, b_const):
    """Closed-form ABER for either fading family at fixed mean power.

    Sums ``A p_i exp(base - k log(beta_i) + shift) 2F1(a', c'; c';
    (pole/beta_i)^power)`` over the fit terms, ``beta_i = beta + q_i B``,
    with the family constants of :func:`~gfaber.fading.mgf_terms`.  Each
    term's magnitude is assembled in log space and the 2F1 factor, which
    carries the weight's sign, is multiplied in after exponentiation, so
    at high diversity and strong imbalance a huge factor times a
    subnormal ``exp`` loses precision.  Every term is built before any is
    summed.
    """
    base, k, beta, pole, power, a_hyp, c_hyp, shift = fading_mod.mgf_terms(
        params, mimo
    )
    if a_const == 0.0:
        return 0.0
    log_a = log(a_const)
    terms = []
    for p_i, q_i in zip(fit.p, fit.q):
        if p_i == 0.0:
            continue
        beta_i = beta + q_i * b_const
        log_mag = base - k * log(beta_i) + log(abs(p_i)) + log_a + shift
        hyp = specfun.gauss_2f1(a_hyp, c_hyp, c_hyp, (pole / beta_i) ** power)
        terms.append((math.copysign(hyp, p_i), log_mag))
    total = 0.0
    for sign, log_mag in terms:
        total += sign * exp(log_mag)
    return total


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
    bundle = fading_mod.compact(params, scenario.mimo)
    pdf = partial(fading_mod.bundle_pdf, bundle)
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
