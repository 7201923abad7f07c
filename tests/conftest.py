"""Shared helpers for the test suite.

Scenario generation is deterministic (seeded ``random.Random``) so every
run exercises the identical parameter sets.  The helpers return plain
tuples rather than fixtures where that keeps call sites explicit.
"""

from __future__ import annotations

import random

import mpmath

from gfaber import fading, modulation, noise, specfun
from gfaber.errors import SeriesError

# Round-robin coverage: every scheme family and every tabulated noise
# shape appears several times across a 35-scenario batch.
SCHEMES = ("bpsk", "qpsk", "bfsk", "8psk", "16qam", "4pam", "64qam")
NOISE_SHAPES = (0.5, 1.0, 1.5, 2.0, 2.5)
MIMO_CHOICES = ((1, 1), (2, 1), (2, 2))


def make_scenario(family, scheme, a, rng):
    """One random-but-reproducible scenario for ``family``.

    Returns ``(params, mimo, fit, a_const, b_const)`` with the fading mean
    power already set from a uniform draw over 0..30 dB.
    """
    mean_power = 10.0 ** (rng.uniform(0.0, 30.0) / 10.0)
    if family == "eta-mu":
        params = fading.EtaMuParams(
            shape=rng.uniform(0.05, 0.95),
            mu=rng.uniform(0.5, 4.0),
            mean_power=mean_power,
        )
    elif family == "kappa-mu-shadowed":
        # Include kappa == 0 occasionally: it is a supported boundary.
        kappa = 0.0 if rng.random() < 0.15 else rng.uniform(0.1, 10.0)
        params = fading.KappaMuShadowedParams(
            kappa=kappa,
            mu=rng.uniform(0.5, 4.0),
            m=rng.uniform(0.5, 10.0),
            mean_power=mean_power,
        )
    else:
        raise ValueError(f"unknown family {family!r}")
    nt, nr = MIMO_CHOICES[rng.randrange(len(MIMO_CHOICES))]
    mimo = fading.MimoConfig(nt=nt, nr=nr)
    fit = noise.builtin_fit(a)
    a_const, b_const = modulation.mod_constants(modulation.parse_modulation(scheme))
    return params, mimo, fit, a_const, b_const


def scenario_batch(family, count, seed):
    """``count`` scenarios cycling through schemes and noise shapes."""
    rng = random.Random(seed)
    batch = []
    for i in range(count):
        scheme = SCHEMES[i % len(SCHEMES)]
        a = NOISE_SHAPES[i % len(NOISE_SHAPES)]
        batch.append(make_scenario(family, scheme, a, rng))
    return batch


def mgf_aber(params, mimo, fit, a_const, b_const):
    """``A * sum_i p_i M(q_i B)`` in 40-digit mpmath, independent of gfaber.

    ``M`` is the MGF of the SNR aggregated over ``N = nt * nr`` branches,
    written as two elementary factors from the per-branch parameters:

    * eta-mu: ``M(s) = (1 + s/b1)^-(mu N) (1 + s/b2)^-(mu N)`` with
      ``b1,2 = 2 mu (h -+ |H|) / gbar``;
    * kappa-mu shadowed: ``M(s) = (1 + s/beta)^-mu~ (1 + mu~ kappa s /
      (m~ (beta + s)))^-m~`` with ``beta = mu~ (1 + kappa) / (N gbar)``.
    """
    with mpmath.workdps(40):
        n = mimo.branches
        gbar = mpmath.mpf(params.mean_power)
        mu = mpmath.mpf(params.mu)
        if isinstance(params, fading.EtaMuParams):
            s = mpmath.mpf(params.shape)
            if params.fmt == fading.FORMAT1:
                h, big_h = (1 + s) ** 2 / (4 * s), (1 - s * s) / (4 * s)
            else:
                h, big_h = 1 / (1 - s * s), s / (1 - s * s)
            b1 = 2 * mu * (h - abs(big_h)) / gbar
            b2 = 2 * mu * (h + abs(big_h)) / gbar

            def mgf(x):
                return ((1 + x / b1) * (1 + x / b2)) ** (-mu * n)
        else:
            mu_t, m_t = n * mu, n * mpmath.mpf(params.m)
            kappa = mpmath.mpf(params.kappa)
            beta = mu_t * (1 + kappa) / (n * gbar)

            def mgf(x):
                return (1 + x / beta) ** -mu_t * (
                    1 + mu_t * kappa * x / (m_t * (beta + x))
                ) ** -m_t
        total = mpmath.mpf(a_const) * mpmath.fsum(
            mpmath.mpf(p) * mgf(mpmath.mpf(q) * b_const)
            for p, q in zip(fit.p, fit.q)
        )
        return float(total)


def fail_gauss_2f1_near_one(monkeypatch):
    """Make ``specfun.gauss_2f1`` raise ``SeriesError`` whenever ``z > 0.99``.

    Injects a per-point kernel failure into closed-form sweeps.  With
    eta = 1e-5 and mu = 1 every term's argument exceeds 0.999 at 0 dB and
    stays below 0.96 at 30 dB, so only the 0 dB point fails.
    """
    real = specfun.gauss_2f1

    def gauss_2f1(a, b, c, z):
        if z > 0.99:
            raise SeriesError("hyp2f1", (a, b, c, z))
        return real(a, b, c, z)

    monkeypatch.setattr(specfun, "gauss_2f1", gauss_2f1)


def record_direct_series(monkeypatch):
    """Record every run of the Gauss series ``specfun._hyp2f1_direct``.

    Returns the list that each call's arguments are appended to; the
    series itself still runs.
    """
    real = specfun._hyp2f1_direct
    runs = []

    def hyp2f1_direct(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(specfun, "_hyp2f1_direct", hyp2f1_direct)
    return runs
