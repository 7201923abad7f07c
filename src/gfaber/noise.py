"""Generalized Gaussian noise: the Q_a weight function and its
4-exponential approximation.

The additive noise family is parameterized by a shape parameter ``a``
(``a = 1`` Laplacian, ``a = 2`` Gaussian; small ``a`` impulsive, large
``a`` approaching uniform).  Conditional error probabilities are expressed
through the generalized Q-function

    Q_a(x) = Lambda0^(2/a - 1) * Gamma(1/a, Lambda0^a |x|^a) / (2 Gamma(1/a))

with ``Lambda0 = sqrt(Gamma(3/a) / Gamma(1/a))``.  Note that with this
convention ``Q_a(0) = Lambda0^(2/a - 1) / 2`` differs from 1/2 for
``a != 2`` (dramatically so for small ``a``), i.e. Q_a is not a tail
probability away from the Gaussian case.  The built-in 4-exponential fits
are consistent with exactly this convention, so it is the one implemented.

The closed-form error-rate expressions consume the 4-exponential model

    Q_a(sqrt(x)) ~= sum_i p_i exp(-q_i x)

whose per-``a`` constants are embedded for a in {0.5, 1, 1.5, 2, 2.5}
(:func:`builtin_fit`); other shapes can be refit with
:func:`gfaber.nlfit.fit_q_approx`.

All types here are immutable and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from gfaber import specfun
from gfaber.errors import NotTabulatedError

A_MIN = 0.25
A_MAX = 4.0

#: Built-in 4-exponential fit constants, keyed by shape parameter a.
#: Each entry is (p1..p4, q1..q4) for Q_a(sqrt(x)) ~= sum p_i exp(-q_i x).
BUILTIN_FITS = {
    0.5: ((44.920, 126.460, 389.400, 96.540), (0.130, 2.311, 12.52, 0.629)),
    1.0: ((0.068, 0.202, 0.182, 0.255), (0.217, 2.185, 0.657, 12.640)),
    1.5: ((0.065, 0.149, 0.136, 0.125), (0.341, 0.712, 10.57, 1.945)),
    2.0: ((0.099, 0.157, 0.124, 0.119), (1.981, 0.534, 0.852, 10.268)),
    2.5: ((0.126, 1.104, -1.125, 0.442), (9.395, 0.833, 0.994, 1.292)),
}

#: Tabulated shape parameters, ascending.
TABULATED_A = tuple(sorted(BUILTIN_FITS))

SOURCE_BUILTIN = "builtin-table"
SOURCE_REFIT = "refit"


@dataclass(frozen=True)
class NoiseModel:
    """Shape parameter ``a`` with its derived scale constant ``Lambda0``.

    ``a`` must lie in [0.25, 4]: the limits outside that range (impulsive
    ``a -> 0``, uniform ``a -> inf``) are ill-conditioned or degenerate
    and are not supported.
    """

    a: float
    lambda0: float = field(init=False)

    def __post_init__(self):
        a = self.a
        if not A_MIN <= a <= A_MAX:
            raise ValueError(
                f"noise shape a must lie in [{A_MIN}, {A_MAX}], got {a}"
            )
        lambda0 = math.sqrt(
            math.exp(specfun.ln_gamma(3.0 / a) - specfun.ln_gamma(1.0 / a))
        )
        object.__setattr__(self, "lambda0", lambda0)


@dataclass(frozen=True)
class QApprox:
    """A 4-exponential approximation ``Q_a(sqrt(x)) ~= sum p_i e^(-q_i x)``.

    ``source`` records provenance: :data:`SOURCE_BUILTIN` for the embedded
    constants, :data:`SOURCE_REFIT` for freshly fitted ones.  Weights may
    be negative (one embedded row has a negative weight); decay rates must
    be positive.  Well-formed fits satisfy ``sum(p) ~= q_exact(a, 0)``
    (see :func:`origin_consistency_gap`); that property is checked by the
    test suite rather than enforced at construction so that deliberately
    perturbed fits remain representable for fault-injection checks.
    """

    a: float
    p: tuple
    q: tuple
    source: str = SOURCE_REFIT

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        if len(self.p) != 4 or len(self.q) != 4:
            raise ValueError("QApprox needs exactly four (p, q) pairs")
        if not all(math.isfinite(v) for v in self.p + self.q):
            raise ValueError("QApprox constants must be finite")
        if not all(qi > 0.0 for qi in self.q):
            raise ValueError(f"decay rates must be positive, got {self.q}")

    def to_dict(self):
        """Plain-dict form used by the CLI's JSON output."""
        return {
            "a": self.a,
            "p": list(self.p),
            "q": list(self.q),
            "source": self.source,
        }


def make_noise_model(a):
    """Build a :class:`NoiseModel` for shape ``a`` in [0.25, 4]."""
    return NoiseModel(float(a))


def q_exact(model, x):
    """Evaluate the generalized Q-function ``Q_a(x)`` for ``x >= 0``."""
    if x < 0.0:
        raise ValueError(f"q_exact requires x >= 0, got {x}")
    a = model.a
    inv_a = 1.0 / a
    log_pref = (
        -math.log(2.0)
        - specfun.ln_gamma(inv_a)
        + (2.0 * inv_a - 1.0) * math.log(model.lambda0)
    )
    arg = (model.lambda0 * x) ** a
    return math.exp(log_pref) * specfun.upper_incomplete_gamma(inv_a, arg)


def q_approx(fit, x):
    """Evaluate the 4-exponential model ``sum p_i exp(-q_i x)``.

    Note the argument convention: the model approximates ``Q_a`` of the
    *square root* of its argument, so ``x`` here corresponds to ``gamma``
    in error-rate integrands of the form ``Q_a(sqrt(B gamma))`` (with the
    decay rates pre-scaled by ``B``).
    """
    if x < 0.0:
        raise ValueError(f"q_approx requires x >= 0, got {x}")
    total = 0.0
    for p_i, q_i in zip(fit.p, fit.q):
        total += p_i * math.exp(-q_i * x)
    return total


def builtin_fit(a):
    """Return the embedded fit row for a tabulated shape parameter.

    Raises :class:`~gfaber.errors.NotTabulatedError` for shapes without an
    embedded row; callers can refit via :func:`gfaber.nlfit.fit_q_approx`.
    """
    key = float(a)
    if key not in BUILTIN_FITS:
        raise NotTabulatedError(
            f"no built-in fit for a={a}; tabulated shapes are "
            f"{list(TABULATED_A)} (use gfaber.nlfit.fit_q_approx to refit)"
        )
    p, q = BUILTIN_FITS[key]
    return QApprox(a=key, p=p, q=q, source=SOURCE_BUILTIN)


def default_fit_grid():
    """The fitting grid: {0} + {0.0625 k^2 : k = 1..32}.

    The grid lives in the squared-argument variable of the 4-exponential
    model; quadratic spacing concentrates points at small arguments where
    the target curves fastest, while still reaching 64.
    """
    return [0.0] + [0.0625 * k * k for k in range(1, 33)]


def max_abs_deviation(fit):
    """Max absolute deviation of a fit from the exact Q over the fitting
    grid :func:`default_fit_grid`.

    The grid is in the squared-argument variable (the fit's ``x``); each
    point compares ``sum p_i e^(-q_i x)`` with ``Q_a(sqrt(x))``.
    """
    model = make_noise_model(fit.a)
    worst = 0.0
    for x in default_fit_grid():
        dev = abs(q_approx(fit, x) - q_exact(model, math.sqrt(x)))
        worst = max(worst, dev)
    return worst


def origin_consistency_gap(fit):
    """Absolute gap ``|sum(p) - Q_a(0)|`` between a fit and the exact
    function at the origin.

    Well-formed fits keep this below ``2e-3 * max(1, Q_a(0))`` (the scale
    factor matters for small ``a``, where Q_a(0) is in the hundreds and
    the embedded constants carry only three decimals).
    """
    model = make_noise_model(fit.a)
    return abs(sum(fit.p) - q_exact(model, 0.0))
