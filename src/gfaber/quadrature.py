"""Adaptive numerical integration over the SNR half-line.

This module is the independent oracle against which the closed-form
error-rate expressions are validated: it computes

    A * integral_0^inf pdf(g) * weight(g) dg

by direct quadrature, with the weight either the exact generalized
Q-function (``Q_a(sqrt(B g))``) or its 4-exponential approximation (the
approximation variant isolates quadrature error from fit error when
checking closed forms that are themselves built on the fitted model).

The half-line is mapped to (0, 1) through ``g = t / (1 - t)`` and
integrated by adaptive 15-point Gauss-Kronrod subdivision, always
splitting the subinterval with the largest error estimate.  The single
transform handles every parameter regime in the test matrix, including
the integrable endpoint singularity of densities with aggregate shape
below one (Gauss-Kronrod nodes never touch the endpoints, and the
subdivision concentrates there on its own).
"""

from __future__ import annotations

import heapq
import math

from gfaber import noise as noise_mod
from gfaber.errors import QuadratureError

MAX_INTERVALS = 10000

# 15-point Gauss-Kronrod rule on [-1, 1]: Kronrod nodes (positive half),
# Kronrod weights, and the embedded 7-point Gauss weights.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f, a, b):
    """One 15-point Gauss-Kronrod panel on [a, b]: (estimate, error)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    res_k = _WGK[7] * fc
    res_g = _WG[3] * fc
    for j in range(7):
        x = half * _XGK[j]
        f1 = f(center - x)
        f2 = f(center + x)
        res_k += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            res_g += _WG[j // 2] * (f1 + f2)
    return res_k * half, abs((res_k - res_g) * half)


def integrate_semi_infinite(f, rel_tol):
    """Integrate ``f`` over [0, inf) to a relative tolerance.

    ``f`` must be integrable and decaying; ``rel_tol`` must be finite
    and at least 1e-12.  Subdivision stops once the accumulated error estimate falls
    below ``rel_tol`` times the running total (or below an absolute floor
    that keeps identically-tiny integrals from looping).  Exceeding
    :data:`MAX_INTERVALS` subintervals raises
    :class:`~gfaber.errors.QuadratureError` carrying the partial result.
    """
    if not 1e-12 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and >= 1e-12, got {rel_tol}")

    def transformed(t):
        u = 1.0 - t
        return f(t / u) / (u * u)

    value, err = _gk15(transformed, 0.0, 1.0)
    heap = [(-err, 0.0, 1.0, value, err)]
    total = value
    total_err = err
    count = 1
    while total_err > rel_tol * abs(total) and total_err > 1e-305:
        if count >= MAX_INTERVALS:
            raise QuadratureError(total, total_err, count)
        neg_err, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gk15(transformed, a, mid)
        v2, e2 = _gk15(transformed, mid, b)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))
        count += 2
    return total


def aber_oracle(pdf, noise, a_const, b_const, rel_tol=1e-10):
    """Average error rate by quadrature: ``A * int pdf(g) w(g) dg``.

    ``noise`` selects the weight ``w``: a :class:`~gfaber.noise.NoiseModel`
    uses the exact generalized Q-function ``Q_a(sqrt(B g))`` ("exact
    oracle"); a :class:`~gfaber.noise.QApprox` uses the 4-exponential sum
    ``sum p_i exp(-q_i B g)`` ("approximation oracle").  ``pdf`` is any
    callable returning the fading density at ``g > 0``.
    """
    if a_const == 0.0:
        return 0.0
    if isinstance(noise, noise_mod.QApprox):
        p, q = noise.p, noise.q

        def weight(g):
            return sum(
                p_i * math.exp(-q_i * b_const * g) for p_i, q_i in zip(p, q)
            )

    else:

        def weight(g):
            return noise_mod.q_exact(noise, math.sqrt(b_const * g))

    def integrand(g):
        if g <= 0.0:
            return 0.0
        density = pdf(g)
        if density == 0.0:
            return 0.0
        return density * weight(g)

    return a_const * integrate_semi_infinite(integrand, rel_tol)
