"""Fading-power distributions and MIMO aggregation.

Two generalized fading families are covered, each as the distribution of
the post-combining SNR of an orthogonal space-time block code over
``nt * nr`` independent branches:

* the eta-mu family (format 1: power-imbalance parameter ``eta > 0``;
  format 2: correlation parameter ``|lambda| < 1``), whose aggregated
  power PDF is ``psi * g^(m-1) * exp(-beta g) * I_nu(xi g)`` with
  ``m = mu N + 1/2`` and ``nu = m - 1`` (``N = nt * nr``);

* the kappa-mu shadowed family (``kappa >= 0`` dominant-to-scattered
  power ratio, ``mu > 0`` clusters, ``m > 0`` shadowing severity), whose
  aggregated PDF is ``psi * g^(mu~-1) * exp(-beta g) * 1F1(m~; mu~;
  zeta g)`` with ``mu~ = N mu``, ``m~ = N m`` and aggregate mean power
  ``N * mean_power``.

This is the one module that tells the two families apart: :func:`compact`,
:func:`log_pdf` and :func:`pdf` take either family and dispatch on its
type, and reject any other type with a :class:`ValueError`.

Normalizing coefficients are carried as logs (``log_psi``) because they
overflow doubles for moderate antenna counts or heavy shadowing.  Both
families have mean ``N * mean_power``; the aggregation is taken exactly
as stated above, with no per-antenna transmit-power split or code-rate
factor.

The kappa-mu shadowed family embeds many classical models;
:func:`special_case_params` provides the standard parameter mappings,
realizing ``m -> inf`` entries with the finite surrogate ``M_LARGE``
(``kappa -> 0`` entries are exact, since ``kappa = 0`` is representable).

All types are immutable and all functions pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from math import exp, inf, log, log1p

from gfaber import specfun

FORMAT1 = "format1-eta"
FORMAT2 = "format2-lambda"

#: Finite surrogate for "m -> infinity" special-case mappings.  The bias
#: it introduces is below 1e-4 relative on the PDFs and error rates of the
#: affected mappings (Rician/Nakagami-style cases); mappings with
#: ``kappa = 0`` do not depend on m at all and are exact.
M_LARGE = 5e4

_SPECIAL_CASES = (
    "rayleigh",
    "hoyt",
    "eta-mu",
    "kappa-mu",
    "rician",
    "rician-shadowed",
    "nakagami-m",
    "one-sided-gaussian",
)

_LOG2 = log(2.0)


@dataclass(frozen=True)
class MimoConfig:
    """Antenna counts of the orthogonal STBC link."""

    nt: int = 1
    nr: int = 1

    def __post_init__(self):
        for name in ("nt", "nr"):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) or (
                isinstance(value, float) and value.is_integer()
            )
            if isinstance(value, bool) or not integral or value < 1:
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
            # Integral floats are stored as int, so 2.0 echoes as 2.
            object.__setattr__(self, name, int(value))

    @property
    def branches(self):
        """Number of independent diversity branches, ``nt * nr``."""
        return self.nt * self.nr


@dataclass(frozen=True)
class EtaMuParams:
    """Eta-mu (format 1) or lambda-mu (format 2) fading parameters.

    ``shape`` is ``eta`` in format 1 (positive; values above 1 are
    equivalent to their reciprocal) or ``lambda`` in format 2 (inside
    (-1, 1)).  ``mu`` is the per-branch multipath cluster count and
    ``mean_power`` the per-branch mean SNR in linear units.
    """

    shape: float
    mu: float
    mean_power: float = 1.0
    fmt: str = FORMAT1

    def __post_init__(self):
        if self.fmt not in (FORMAT1, FORMAT2):
            raise ValueError(
                f"format must be {FORMAT1!r} or {FORMAT2!r}, got {self.fmt!r}"
            )
        if self.fmt == FORMAT1 and not 0.0 < self.shape < inf:
            raise ValueError(
                f"format-1 eta must be finite and > 0, got {self.shape}"
            )
        if self.fmt == FORMAT2 and not -1.0 < self.shape < 1.0:
            raise ValueError(
                f"format-2 lambda must lie in (-1, 1), got {self.shape}"
            )
        if not 0.0 < self.mu < inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 0.0 < self.mean_power < inf:
            raise ValueError(
                f"mean_power must be finite and > 0, got {self.mean_power}"
            )


@dataclass(frozen=True)
class KappaMuShadowedParams:
    """Kappa-mu shadowed fading parameters (per branch)."""

    kappa: float
    mu: float
    m: float
    mean_power: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.kappa < inf:
            raise ValueError(
                f"kappa must be finite and >= 0, got {self.kappa}"
            )
        if not 0.0 < self.mu < inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 0.0 < self.m < inf:
            hint = (
                f"; use M_LARGE = {M_LARGE:g} as the finite surrogate for "
                "m -> inf" if self.m == inf else ""
            )
            raise ValueError(f"m must be finite and > 0, got {self.m}{hint}")
        if not 0.0 < self.mean_power < inf:
            raise ValueError(
                f"mean_power must be finite and > 0, got {self.mean_power}"
            )


@dataclass(frozen=True)
class CompactEtaMu:
    """Coefficient bundle of the aggregated eta-mu power PDF.

    Non-degenerate form: ``pdf(g) = psi * g^(m-1) e^(-beta g) I_nu(xi g)``
    with ``psi = exp(log_psi)``.

    ``degenerate`` marks the removable ``H = 0`` singularity (``eta = 1``
    or ``lambda = 0``, balanced branches).  There ``xi = 0`` and the
    Bessel factor's small-argument limit is absorbed into ``log_psi``, so
    ``pdf(g) = exp(log_psi) * g^(m+nu-1) e^(-beta g)`` — a gamma density
    with shape ``m + nu = 2 mu N``.
    """

    log_psi: float
    m: float
    beta: float
    xi: float
    nu: float
    degenerate: bool = False

    def __post_init__(self):
        if not (self.beta > self.xi >= 0.0):
            raise ValueError(
                f"need beta > xi >= 0, got beta={self.beta}, xi={self.xi}"
            )


@dataclass(frozen=True)
class CompactKms:
    """Coefficient bundle of the aggregated kappa-mu shadowed power PDF:
    ``pdf(g) = psi * g^(mu_tilde-1) e^(-beta g) 1F1(m_tilde; mu_tilde;
    zeta g)`` with ``psi = exp(log_psi)``; ``zeta = 0`` iff ``kappa = 0``
    (gamma-density case).
    """

    log_psi: float
    mu_tilde: float
    m_tilde: float
    beta: float
    zeta: float

    def __post_init__(self):
        if not (self.beta > self.zeta >= 0.0):
            raise ValueError(
                f"need beta > zeta >= 0, got beta={self.beta}, "
                f"zeta={self.zeta}"
            )


def eta_mu_hH(params):
    """The (h, H) shape constants of the eta-mu/lambda-mu family.

    Format 1: ``h = (1+eta)^2/(4 eta)``, ``H = (1-eta^2)/(4 eta)``;
    format 2: ``h = 1/(1-lambda^2)``, ``H = lambda/(1-lambda^2)``.
    ``H`` may come out negative (format 1 with eta > 1, format 2 with
    negative lambda); downstream code uses ``|H|``, under which the two
    parameterizations are symmetric.
    """
    s = params.shape
    if params.fmt == FORMAT1:
        return (1.0 + s) ** 2 / (4.0 * s), (1.0 - s * s) / (4.0 * s)
    return 1.0 / (1.0 - s * s), s / (1.0 - s * s)


def compact_eta_mu(params, mimo=MimoConfig()):
    """Aggregate eta-mu parameters into a :class:`CompactEtaMu` bundle.

    The decay rate and Bessel argument keep the per-branch ``mu`` while
    the power exponent and Bessel order aggregate to ``mu * nt * nr``;
    this is exactly the distribution of a sum of ``nt * nr`` independent
    branches.  Balanced branches (``H = 0``) produce the degenerate
    (gamma) variant rather than a division by zero.
    """
    h, big_h = eta_mu_hH(params)
    big_h = abs(big_h)
    n = mimo.branches
    mu, gbar = params.mu, params.mean_power
    m = mu * n + 0.5
    nu = m - 1.0
    beta = 2.0 * mu * h / gbar
    if big_h == 0.0:
        shape = 2.0 * mu * n
        log_psi = shape * log(beta) - specfun.ln_gamma(shape)
        return CompactEtaMu(
            log_psi=log_psi, m=m, beta=beta, xi=0.0, nu=nu, degenerate=True
        )
    xi = 2.0 * mu * big_h / gbar
    log_psi = (
        log(2.0)
        + 0.5 * log(math.pi)
        + mu * n * log(h)
        - specfun.ln_gamma(mu * n)
        - (m - 1.0) * log(big_h)
        + m * log(mu / gbar)
    )
    return CompactEtaMu(log_psi=log_psi, m=m, beta=beta, xi=xi, nu=nu)


def log_pdf_eta_mu(compact, g):
    """Natural log of the aggregated eta-mu power PDF at ``g > 0``."""
    if compact.degenerate:
        return (
            compact.log_psi
            + (compact.m + compact.nu - 1.0) * log(g)
            - compact.beta * g
        )
    return (
        compact.log_psi
        + (compact.m - 1.0) * log(g)
        - compact.beta * g
        + specfun.log_bessel_i(compact.nu, compact.xi * g)
    )


def pdf_eta_mu(params, mimo, g):
    """Aggregated eta-mu power PDF at ``g >= 0``: :func:`pdf` under the
    name that the benchmark's output checker calls."""
    return pdf(params, mimo, g)


def compact_kms(params, mimo=MimoConfig()):
    """Aggregate kappa-mu shadowed parameters into :class:`CompactKms`.

    Aggregation over ``N = nt * nr`` branches multiplies ``mu``, ``m``
    and the mean power by ``N`` while ``kappa`` is unchanged.  The
    log-space normalizer groups the two ``m~``-scaled logs through
    ``log1p`` so that heavy shadowing surrogates (``m~ ~ 1e5``) lose no
    precision.
    """
    n = mimo.branches
    mu_t = n * params.mu
    m_t = n * params.m
    g_agg = n * params.mean_power
    kappa = params.kappa
    beta = mu_t * (1.0 + kappa) / g_agg
    zeta = mu_t * mu_t * kappa * (1.0 + kappa) / ((mu_t * kappa + m_t) * g_agg)
    log_psi = (
        mu_t * log(mu_t)
        + mu_t * log1p(kappa)
        - specfun.ln_gamma(mu_t)
        - m_t * log1p(mu_t * kappa / m_t)
        - mu_t * log(g_agg)
    )
    return CompactKms(
        log_psi=log_psi, mu_tilde=mu_t, m_tilde=m_t, beta=beta, zeta=zeta
    )


def log_pdf_kms(compact, g):
    """Natural log of the aggregated kappa-mu shadowed PDF at ``g > 0``."""
    lf = 0.0
    if compact.zeta != 0.0:
        lf = specfun.log_kummer_1f1(
            compact.m_tilde, compact.mu_tilde, compact.zeta * g
        )
    return (
        compact.log_psi
        + (compact.mu_tilde - 1.0) * log(g)
        - compact.beta * g
        + lf
    )


def compact(params, mimo):
    """The :class:`CompactEtaMu` or :class:`CompactKms` bundle of
    ``params``, whichever family they belong to."""
    if isinstance(params, EtaMuParams):
        return compact_eta_mu(params, mimo)
    if isinstance(params, KappaMuShadowedParams):
        return compact_kms(params, mimo)
    raise ValueError(
        "fading parameters must be EtaMuParams or KappaMuShadowedParams, "
        f"got {type(params).__name__}"
    )


def mgf_terms(params, mimo):
    """SNR-dependent constants of the closed-form error-rate terms.

    For either family the average of ``exp(-s g)`` over the aggregated
    density, at decay rate ``beta_i = beta + s``, is ``exp(base - k
    log(beta_i) + shift) * 2F1(a', c'; c'; (pole / beta_i)^power)``.
    Returns the plain tuple ``(base, k, beta, pole, power, a', c',
    shift)``:

    * eta-mu: ``k = m + nu``, pole ``xi``, power 2, ``a' = k/2``, ``c' =
      1 + nu`` and ``shift = nu log(xi/2) - ln Gamma(1 + nu)``.  The
      factor is ``2F1(k/2, (k+1)/2; 1 + nu; z)``; ``(k+1)/2`` equals ``1 +
      nu`` on paper but not always in floating point, and the kernel
      takes its closed form only when ``b == c``, so ``c'`` is both;
    * kappa-mu shadowed: ``k = mu~``, pole ``zeta``, power 1, ``a' =
      m~``, ``c' = mu~`` and ``shift = 0``.

    ``base = log_psi + ln Gamma(k)``.  In the balanced eta-mu case and
    at ``kappa = 0`` the pole is 0 and ``shift`` is 0, so the factor is
    exactly 1.
    """
    bundle = compact(params, mimo)
    shift = 0.0
    if isinstance(bundle, CompactKms):
        k = bundle.mu_tilde
        pole, power, a_hyp, c_hyp = bundle.zeta, 1, bundle.m_tilde, k
    else:
        k = bundle.m + bundle.nu
        pole, power, a_hyp, c_hyp = bundle.xi, 2, 0.5 * k, 1.0 + bundle.nu
        if not bundle.degenerate:
            shift = (
                bundle.nu * log(bundle.xi)
                - bundle.nu * _LOG2
                - specfun.ln_gamma(bundle.nu + 1.0)
            )
    base = bundle.log_psi + specfun.ln_gamma(k)
    return base, k, bundle.beta, pole, power, a_hyp, c_hyp, shift


def log_pdf(bundle, g):
    """Natural log of the aggregated power PDF of a :func:`compact`
    bundle at ``g > 0``."""
    if isinstance(bundle, CompactEtaMu):
        return log_pdf_eta_mu(bundle, g)
    if isinstance(bundle, CompactKms):
        return log_pdf_kms(bundle, g)
    raise ValueError(
        "density bundle must be CompactEtaMu or CompactKms, "
        f"got {type(bundle).__name__}"
    )


def pdf(params, mimo, g):
    """Aggregated power PDF of either family at ``g >= 0``: the
    :func:`bundle_pdf` of ``compact(params, mimo)``."""
    return bundle_pdf(compact(params, mimo), g)


def bundle_pdf(bundle, g):
    """Aggregated power PDF of a :func:`compact` bundle at ``g >= 0``.

    Near zero the density behaves like ``g^(k-1)``, with ``k = m + nu =
    2 mu nt nr`` for eta-mu (the Bessel factor contributes ``g^nu``
    through its leading term) and ``k = mu~ = mu nt nr`` for kappa-mu
    shadowed.  The value at ``g = 0`` is that limit: 0 for ``k > 1``,
    the normalizing constant ``psi = exp(log_psi)`` for ``k = 1`` (the
    exponential, Bessel and Kummer factors are all 1 there), and ``inf``
    (an integrable singularity) for ``k < 1``.  Values that overflow a
    double are returned as ``inf``.
    """
    if g < 0.0:
        raise ValueError(f"power must be >= 0, got {g}")
    if g == 0.0:
        if isinstance(bundle, CompactEtaMu):
            power = bundle.m + bundle.nu - 1.0
        else:
            power = bundle.mu_tilde - 1.0
        if power > 0.0:
            return 0.0
        if power < 0.0:
            return inf
        try:
            return exp(bundle.log_psi)
        except OverflowError:
            return inf
    lv = log_pdf(bundle, g)
    return exp(lv) if lv < 709.0 else inf


def db_to_power(db, name):
    """The linear power ``10^(db/10)`` of ``db`` decibels.

    Raises :class:`ValueError` naming the input ``name`` unless the power
    is a positive finite double (so a non-finite ``db`` is rejected too).
    """
    try:
        power = 10.0 ** (db / 10.0)
    except OverflowError:
        power = inf
    if not 0.0 < power < inf:
        raise ValueError(
            f"{name}: {db} dB is not a positive finite linear power "
            f"(10^(dB/10) = {power})"
        )
    return power


def special_case_params(name, mean_power=1.0, **native):
    """Map a classical fading model onto kappa-mu shadowed parameters.

    Supported names and native parameters:

    * ``"rayleigh"`` — none
    * ``"hoyt"`` — ``q`` in (0, 1]
    * ``"eta-mu"`` — ``eta`` in (0, inf) (folded to (0, 1]), ``mu`` > 0
    * ``"kappa-mu"`` — ``kappa`` >= 0, ``mu`` > 0
    * ``"rician"`` — ``K`` >= 0
    * ``"rician-shadowed"`` — ``K`` >= 0, ``m`` > 0
    * ``"nakagami-m"`` — ``m`` >= 0.5
    * ``"one-sided-gaussian"`` — none

    Unbounded-``m`` rows use the :data:`M_LARGE` surrogate; rows that set
    ``kappa = 0`` are exact (the shadowing parameter is then inert).
    """

    def _take(key, validate, describe):
        if key not in native:
            raise ValueError(f"{name} requires parameter {key!r}")
        value = float(native.pop(key))
        if not validate(value):
            raise ValueError(f"{name} parameter {key}={value} must be {describe}")
        return value

    name = name.lower()
    if name == "rayleigh":
        mapped = dict(kappa=0.0, mu=1.0, m=M_LARGE)
    elif name == "hoyt":
        q = _take("q", lambda v: 0.0 < v <= 1.0, "in (0, 1]")
        mapped = dict(kappa=(1.0 - q * q) / (2.0 * q * q), mu=1.0, m=0.5)
    elif name == "eta-mu":
        eta = _take("eta", lambda v: 0.0 < v < inf, "in (0, inf)")
        mu = _take("mu", lambda v: v > 0.0, "> 0")
        if eta > 1.0:
            eta = 1.0 / eta  # the family is symmetric under eta <-> 1/eta
        mapped = dict(kappa=(1.0 - eta) / (2.0 * eta), mu=2.0 * mu, m=mu)
    elif name == "kappa-mu":
        kappa = _take("kappa", lambda v: v >= 0.0, ">= 0")
        mu = _take("mu", lambda v: v > 0.0, "> 0")
        mapped = dict(kappa=kappa, mu=mu, m=M_LARGE)
    elif name == "rician":
        k_fac = _take("K", lambda v: v >= 0.0, ">= 0")
        mapped = dict(kappa=k_fac, mu=1.0, m=M_LARGE)
    elif name == "rician-shadowed":
        k_fac = _take("K", lambda v: v >= 0.0, ">= 0")
        m = _take("m", lambda v: v > 0.0, "> 0")
        mapped = dict(kappa=k_fac, mu=1.0, m=m)
    elif name == "nakagami-m":
        m = _take("m", lambda v: v >= 0.5, ">= 0.5")
        mapped = dict(kappa=0.0, mu=m, m=M_LARGE)
    elif name == "one-sided-gaussian":
        mapped = dict(kappa=0.0, mu=0.5, m=M_LARGE)
    else:
        raise ValueError(
            f"unknown special case {name!r}; expected one of "
            f"{', '.join(_SPECIAL_CASES)}"
        )
    if native:
        raise ValueError(
            f"unexpected parameters for {name}: {sorted(native)}"
        )
    return KappaMuShadowedParams(mean_power=mean_power, **mapped)


def parse_fading_json(obj):
    """Build fading parameters from a JSON-style mapping.

    Two first-class forms::

        {"model": "eta-mu", "format": 1, "eta": 0.5, "mu": 2,
         "mean_power_db": 10}
        {"model": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2, "m": 1,
         "mean_power_db": 10}

    (format 2 uses ``"lambda"`` instead of ``"eta"``; ``"format"`` must be
    the integer 1 or 2 and defaults to the one whose shape is given),
    plus the named special cases of :func:`special_case_params` with
    their native parameters (e.g. ``{"model": "hoyt", "q": 0.5}``).  Mean
    power can be given as ``mean_power_db`` or linear ``mean_power`` (not
    both) and defaults to 1.0 — sweeps replace it per SNR point anyway.
    """
    if "model" not in obj:
        raise ValueError("fading config requires a 'model' field")
    obj = dict(obj)
    model = str(obj.pop("model")).lower()
    if "mean_power_db" in obj and "mean_power" in obj:
        raise ValueError(
            "specify mean_power_db or mean_power, not both"
        )
    if "mean_power_db" in obj:
        mean_power = db_to_power(
            float(obj.pop("mean_power_db")), "mean_power_db"
        )
    else:
        mean_power = float(obj.pop("mean_power", 1.0))
    if model == "eta-mu" and ("eta" in obj or "lambda" in obj):
        fmt_num = obj.pop("format", 1 if "eta" in obj else 2)
        if type(fmt_num) is not int or fmt_num not in (1, 2):
            raise ValueError(f"format must be 1 or 2, got {fmt_num!r}")
        key, fmt = ("eta", FORMAT1) if fmt_num == 1 else ("lambda", FORMAT2)
        if key not in obj:
            raise ValueError(f"eta-mu format {fmt_num} requires {key!r}")
        shape = float(obj.pop(key))
        if "mu" not in obj:
            raise ValueError("eta-mu requires field 'mu'")
        mu = float(obj.pop("mu"))
        if obj:
            raise ValueError(f"unexpected fading fields: {sorted(obj)}")
        return EtaMuParams(shape=shape, mu=mu, mean_power=mean_power, fmt=fmt)
    if model == "kappa-mu-shadowed":
        try:
            kappa = float(obj.pop("kappa"))
            mu = float(obj.pop("mu"))
            m = float(obj.pop("m"))
        except KeyError as exc:
            raise ValueError(
                f"kappa-mu-shadowed requires field {exc.args[0]!r}"
            ) from None
        if obj:
            raise ValueError(f"unexpected fading fields: {sorted(obj)}")
        return KappaMuShadowedParams(
            kappa=kappa, mu=mu, m=m, mean_power=mean_power
        )
    return special_case_params(model, mean_power=mean_power, **obj)
