"""Real-valued special functions used by every analytical expression.

The upper incomplete gamma function, the modified Bessel function of the
first kind and Kummer's confluent hypergeometric function (both on a log
scale), and the Gauss hypergeometric function on [0, 1).  Each function
validates its domain and then evaluates in place.

All series share one policy: terms are accumulated until the current term
falls below ``_SERIES_TOL`` of the running sum, with a hard cap of
``_SERIES_CAP`` terms, beyond which a :class:`~gfaber.errors.SeriesError`
is raised.  Products of gammas and powers are assembled in log space so
that large shape parameters (high antenna counts, heavy shadowing) never
overflow intermediate values.

All operations are pure functions of their arguments.
"""

from __future__ import annotations

import math
import sys
from math import exp, inf, lgamma, log, log1p, pi, sin

from gfaber.errors import OverflowLogValue, SeriesError

_SERIES_TOL = 1e-16
_SERIES_CAP = 10000
# Rescaling threshold for log-scaled series: keeps partial sums inside the
# double range while the scale is carried separately.
_RESCALE = 1e280
_LOG_RESCALE = 280.0 * math.log(10.0)
# Above this argument the ascending series of I_v / 1F1 needs too many
# terms; the standard large-argument asymptotic expansions take over.
_ASYMPTOTIC_CUTOFF = 4000.0
# Largest finite exp() argument, ln(DBL_MAX) = 709.78.
_LOG_DBL_MAX = math.log(sys.float_info.max)


def backend():
    """Name of the kernel implementation; always ``"python"``."""
    return "python"


def ln_gamma(x):
    """Natural log of the gamma function for ``x > 0``."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def upper_incomplete_gamma(s, x):
    """Upper incomplete gamma function ``Gamma(s, x)`` for s > 0, x >= 0.

    Lower series for ``x < s + 1``, Lentz's continued fraction otherwise;
    relative error <= 1e-10 for ``s`` in [0.1, 50].  The prefactor
    ``x^s e^-x`` is formed in log space so very large ``x`` underflows
    cleanly to zero instead of tripping intermediate overflow.
    """
    if s <= 0.0:
        raise ValueError(f"upper_incomplete_gamma requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"upper_incomplete_gamma requires x >= 0, got {x}")
    if x == 0.0:
        lg = lgamma(s)
        if lg > 709.0:
            raise OverflowLogValue("upper_gamma", lg)
        return exp(lg)
    lg = lgamma(s)
    if x < s + 1.0:
        # Lower regularized series P(s, x); return Gamma(s) (1 - P).
        ap = s
        term = 1.0 / s
        total = term
        for _ in range(_SERIES_CAP):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _SERIES_TOL:
                break
        else:
            raise SeriesError("upper_gamma", (s, x))
        p_reg = exp(s * log(x) - x - lg + log(total))
        if lg > 709.0:
            raise OverflowLogValue("upper_gamma", lg + log1p(-p_reg))
        return exp(lg) * (1.0 - p_reg)
    # Lentz continued fraction for Gamma(s, x) / (x^s e^-x).
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _SERIES_CAP):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise SeriesError("upper_gamma", (s, x))
    log_val = s * log(x) - x + log(h)
    if log_val > 709.0:
        raise OverflowLogValue("upper_gamma", log_val)
    return exp(log_val)


def log_bessel_i(v, x):
    """``ln I_v(x)`` — log-scale modified Bessel function, first kind.

    Order ``v >= -0.5``, argument ``x >= 0``.  The fading PDFs need the
    log value directly to avoid overflow inside their own log-space
    assembly.  Ascending power series with periodic rescaling; for large
    ``x`` (where the series would exceed the term cap) the standard
    large-argument asymptotic expansion ``I_v(x) ~ e^x / sqrt(2 pi x) *
    sum`` takes over.  Limits at ``x == 0``: 0.0 for v == 0, -inf for
    v > 0 (I_v(0) = 0) and +inf for v < 0 (the function diverges like
    ``(x/2)^v``).
    """
    if v < -0.5:
        raise ValueError(f"log_bessel_i requires order v >= -0.5, got {v}")
    if x < 0.0:
        raise ValueError(f"log_bessel_i requires x >= 0, got {x}")
    if x == 0.0:
        if v == 0.0:
            return 0.0
        return -inf if v > 0.0 else inf
    if x < _ASYMPTOTIC_CUTOFF or 2.0 * v * v > x:
        t = 1.0
        s = 1.0
        offset = 0.0
        x24 = 0.25 * x * x
        for k in range(_SERIES_CAP):
            t *= x24 / ((k + 1.0) * (v + k + 1.0))
            s += t
            if t < s * _SERIES_TOL:
                break
            if s > _RESCALE:
                s /= _RESCALE
                t /= _RESCALE
                offset += _LOG_RESCALE
        else:
            raise SeriesError("log_bessel_i", (v, x))
        return v * log(0.5 * x) - lgamma(v + 1.0) + log(s) + offset
    # I_v(x) ~ e^x / sqrt(2 pi x) * sum_k (-1)^k a_k(v) / x^k, truncated at
    # the smallest term (the expansion is asymptotic, not convergent).
    mu4 = 4.0 * v * v
    term = 1.0
    s = 1.0
    prev = 1.0
    for k in range(1, 40):
        term *= -(mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if abs(term) > prev:
            break
        prev = abs(term)
        s += term
        if abs(term) < 1e-18 * abs(s):
            break
    return x - 0.5 * log(2.0 * pi * x) + log(s)


def log_kummer_1f1(a, b, z):
    """``ln 1F1(a; b; z)`` for ``a > 0``, ``b > 0``, ``z >= 0``.

    Log-scale variant for positive parameters; used by the shadowed-fading
    PDF where the linear value overflows long before the densities stop
    mattering.  All series terms are positive, so the log-scaled ascending
    series is perfectly conditioned; for large ``z`` relative to the
    parameters the large-argument asymptotic
    ``1F1 ~ Gamma(b)/Gamma(a) e^z z^(a-b)`` is used with optimal
    truncation.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(
            f"log_kummer_1f1 requires a > 0 and b > 0, got a={a}, b={b}"
        )
    if z < 0.0:
        raise ValueError(f"log_kummer_1f1 requires z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    if z < _ASYMPTOTIC_CUTOFF or 50.0 * (abs(a) + abs(b) + 1.0) > z:
        t = 1.0
        s = 1.0
        offset = 0.0
        for k in range(_SERIES_CAP):
            t *= (a + k) * z / ((b + k) * (k + 1.0))
            s += t
            if t < s * _SERIES_TOL:
                break
            if s > _RESCALE:
                s /= _RESCALE
                t /= _RESCALE
                offset += _LOG_RESCALE
        else:
            raise SeriesError("log_hyp1f1", (a, b, z))
        return log(s) + offset
    # 1F1(a;b;z) ~ Gamma(b)/Gamma(a) e^z z^(a-b)
    #              * sum_k (b-a)_k (1-a)_k / (k! z^k)
    term = 1.0
    s = 1.0
    prev = 1.0
    for k in range(200):
        term *= (b - a + k) * (1.0 - a + k) / ((k + 1.0) * z)
        if abs(term) > prev:
            break
        prev = abs(term)
        s += term
        if abs(term) < 1e-18 * abs(s):
            break
    return z + (a - b) * log(z) + lgamma(b) - lgamma(a) + log(s)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric function ``2F1(a, b; c; z)`` on ``0 <= z < 1``.

    When ``b == c`` the function is elementary, ``2F1(a, b; b; z) = (1 -
    z)^-a`` (DLMF 15.4.6); every closed-form caller has ``b == c``.  With
    ``log_val = -a log1p(-z)`` there are three regimes:

    * ``log_val < 709``: the identity, ``exp(log_val)``.
    * ``709 <= log_val <= ln(DBL_MAX)``: the series code below, which
      converges there to the finite value.
    * ``log_val > ln(DBL_MAX)``: the value overflows a double.  Where the
      direct series would run (see below), a
      :class:`~gfaber.errors.SeriesError` is raised at once (a per-point
      gap in a sweep): the series' terms are all positive, so it could
      only run to its term cap and raise the same error.  Otherwise the
      transformation runs and may raise a bare ``OverflowError``, which
      aborts the sweep.  Raising a package error there instead would
      turn those aborts into gaps, and the sweep would go on to later
      points where the closed form's ``hyp * exp(log_mag)`` silently
      underflows to zero.

    Series code: direct series for ``z <= 0.5``.  For ``z > 0.5`` the linear
    transformation to argument ``1 - z`` converges quickly, except when
    ``c - a - b`` is within 0.05 of an integer (its gamma prefactors then
    sit on or near poles); that case falls back to the compensated direct
    series, which remains accurate because all our use sites keep ``z``
    bounded away from 1.  Relative error <= 1e-10 on the supported domain.
    """
    if c <= 0.0:
        raise ValueError(f"gauss_2f1 requires c > 0, got {c}")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"gauss_2f1 requires 0 <= z < 1, got {z}")
    if z == 0.0:
        return 1.0
    if b == c:
        log_val = -a * log1p(-z)
        if log_val < 709.0:
            return exp(log_val)
    t = c - a - b
    if z <= 0.5 or abs(t - round(t)) < 0.05:
        if b == c and log_val > _LOG_DBL_MAX:
            # Every term is positive and the sum exceeds DBL_MAX, so the
            # series could only run to its cap (or to inf/nan) and fail.
            raise SeriesError("hyp2f1", (a, b, c, z))
        return _hyp2f1_direct(a, b, c, z)
    w = 1.0 - z
    lg_c, sg_c = _lgamma_signed(c)
    lg_t, sg_t = _lgamma_signed(t)
    lg_ca, sg_ca = _lgamma_signed(c - a)
    lg_cb, sg_cb = _lgamma_signed(c - b)
    lg_mt, sg_mt = _lgamma_signed(-t)
    lg_a, sg_a = _lgamma_signed(a)
    lg_b, sg_b = _lgamma_signed(b)
    term1 = 0.0
    e1 = lg_c + lg_t - lg_ca - lg_cb
    if e1 != -inf:
        term1 = (sg_c * sg_t * sg_ca * sg_cb) * exp(e1) * _hyp2f1_direct(
            a, b, 1.0 - t, w
        )
    term2 = 0.0
    e2 = lg_c + lg_mt - lg_a - lg_b + t * log(w)
    if e2 != -inf:
        term2 = (sg_c * sg_mt * sg_a * sg_b) * exp(e2) * _hyp2f1_direct(
            c - a, c - b, 1.0 + t, w
        )
    return term1 + term2


# --------------------------------------------------------------------------
# gauss_2f1 helpers


def _lgamma_signed(x):
    """Return ``(log |Gamma(x)|, sign(Gamma(x)))`` for real ``x``.

    Poles (``x`` a non-positive integer) report ``(inf, 1.0)``, which makes
    reciprocal-gamma factors vanish naturally when exponentiated.
    """
    if x > 0.0:
        return lgamma(x), 1.0
    if x == math.floor(x):
        return inf, 1.0
    # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x), and Gamma(1-x) > 0
    # for x < 0, so the sign of Gamma(x) is the sign of sin(pi x).
    s = sin(pi * x)
    return lgamma(x), (1.0 if s > 0.0 else -1.0)


def _hyp2f1_direct(a, b, c, z):
    """Gauss series with Kahan compensation; |z| must be < 1."""
    t = 1.0
    s = 1.0
    comp = 0.0
    small_streak = 0
    for k in range(_SERIES_CAP):
        t *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        y = t - comp
        tt = s + y
        comp = (tt - s) - y
        s = tt
        if abs(t) <= abs(s) * _SERIES_TOL:
            small_streak += 1
            if small_streak >= 2 or t == 0.0:
                return s
        else:
            small_streak = 0
    raise SeriesError("hyp2f1", (a, b, c, z))
