"""Special-function layer: identities, frozen references, domain checks.

Frozen constants were computed with mpmath at 50-digit precision from the
standard definitions (``mp.gammainc``, ``mp.hyp1f1``, ``mp.hyp2f1``,
``mp.besseli``); they are independent of every code path under test.
"""

import math
import random
import sys

import mpmath
import pytest
import scipy.special as sps

from conftest import record_direct_series

from gfaber import specfun
from gfaber.errors import SeriesError

_LOG_DBL_MAX = math.log(sys.float_info.max)

# (s, x) -> Gamma(s, x), mpmath 50 dps
UPPER_GAMMA_REFS = {
    (0.5, 1.0): 0.2788055852806619765,
    (3.0, 0.2): 1.9977030375102757352,
    (12.5, 40.0): 15.614665107707346505,
}

# (a, b, z) -> 1F1(a; b; z), mpmath 50 dps
KUMMER_REFS = {
    (0.5, 1.5, 2.0): 2.3644538928052092846,
    (3.0, 4.0, 100.0): 7.9046772672245278996e41,
}

# (a, b, c, z) -> 2F1(a, b; c; z), mpmath 50 dps
GAUSS_REFS = {
    (0.3, 0.7, 1.1, 0.9): 1.4476030090756321186,
    (1.25, 1.75, 1.5, 0.85): 16.446694187053239998,
    (5.0, 1.0, 3.3, 0.97): 2395.2843799625971307,
}


def test_backend_reports_a_known_flavor():
    assert specfun.backend() == "python"


def test_ln_gamma_matches_factorials():
    for n in range(1, 15):
        assert math.isclose(
            specfun.ln_gamma(float(n)),
            math.log(math.factorial(n - 1)),
            rel_tol=1e-14,
            abs_tol=1e-14,
        )


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        specfun.ln_gamma(0.0)
    with pytest.raises(ValueError):
        specfun.ln_gamma(-2.5)


def test_upper_gamma_at_zero_is_complete_gamma():
    for s in (0.3, 1.0, 2.5, 7.0, 30.0):
        assert math.isclose(
            specfun.upper_incomplete_gamma(s, 0.0),
            math.gamma(s),
            rel_tol=1e-14,
        )


def test_upper_gamma_frozen_references():
    for (s, x), want in UPPER_GAMMA_REFS.items():
        got = specfun.upper_incomplete_gamma(s, x)
        assert math.isclose(got, want, rel_tol=1e-12), (s, x, got, want)


def test_upper_gamma_recurrence():
    """Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x."""
    for s in (0.4, 1.7, 9.5):
        for x in (0.01, 0.5, 3.0, 25.0):
            lhs = specfun.upper_incomplete_gamma(s + 1.0, x)
            rhs = s * specfun.upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
            assert math.isclose(lhs, rhs, rel_tol=1e-12), (s, x)


def test_upper_gamma_against_scipy():
    for s in (0.25, 0.8, 2.0, 6.5, 20.0, 45.0):
        for x in (0.0, 0.1, 1.0, 4.0, 15.0, 60.0):
            want = sps.gammaincc(s, x) * math.gamma(s)
            got = specfun.upper_incomplete_gamma(s, x)
            assert math.isclose(got, want, rel_tol=5e-12, abs_tol=1e-300)


def test_upper_gamma_domain_errors():
    with pytest.raises(ValueError):
        specfun.upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.upper_incomplete_gamma(1.0, -0.5)


def bessel_i(v, x):
    return math.exp(specfun.log_bessel_i(v, x))


def kummer_1f1(a, b, z):
    return math.exp(specfun.log_kummer_1f1(a, b, z))


def test_bessel_half_order_closed_form():
    """I_{1/2}(x) = sqrt(2 / (pi x)) sinh x, and I_{-1/2} with cosh."""
    for x in (0.05, 0.7, 3.0, 12.0, 80.0):
        want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert math.isclose(bessel_i(0.5, x), want, rel_tol=1e-12)
        want = math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)
        assert math.isclose(bessel_i(-0.5, x), want, rel_tol=1e-12)


def test_bessel_against_scipy():
    for v in (0.0, 0.3, 1.0, 2.5, 7.0):
        for x in (0.01, 0.4, 2.0, 9.0, 40.0, 300.0):
            got = bessel_i(v, x)
            want = sps.iv(v, x)
            assert math.isclose(got, want, rel_tol=1e-11), (v, x)


def test_bessel_frozen_reference():
    assert math.isclose(
        bessel_i(2.5, 0.3), 0.002639014893590273704, rel_tol=1e-12
    )


def test_log_bessel_large_argument():
    """ln I_10(5000) crosses into the asymptotic branch; mpmath reference."""
    got = specfun.log_bessel_i(10.0, 5000.0)
    assert math.isclose(got, 4994.8124888767063233, rel_tol=1e-13)


def test_bessel_at_zero_limits():
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(2.0, 0.0) == 0.0
    assert specfun.log_bessel_i(1.0, 0.0) == -math.inf
    assert specfun.log_bessel_i(-0.5, 0.0) == math.inf


def test_bessel_overflow_reports_log_value():
    """I_0(1e5) overflows a double; its log stays representable."""
    x = 1e5
    expected_log = x - 0.5 * math.log(2.0 * math.pi * x)
    assert math.isclose(
        specfun.log_bessel_i(0.0, x), expected_log, rel_tol=1e-10
    )


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        specfun.log_bessel_i(-0.75, 1.0)
    with pytest.raises(ValueError):
        specfun.log_bessel_i(1.0, -1.0)


def test_kummer_identity_exponential():
    """1F1(a; a; z) = e^z."""
    for a in (0.5, 1.0, 3.7):
        for z in (0.0, 0.3, 2.0, 30.0, 500.0):
            assert math.isclose(
                kummer_1f1(a, a, z), math.exp(z), rel_tol=1e-12
            )


def test_kummer_frozen_references():
    for (a, b, z), want in KUMMER_REFS.items():
        got = kummer_1f1(a, b, z)
        assert math.isclose(got, want, rel_tol=1e-12), (a, b, z, got, want)


def test_kummer_against_scipy():
    for a in (0.5, 1.5, 4.0):
        for b in (0.7, 2.0, 6.0):
            for z in (0.0, 0.2, 3.0, 40.0, 200.0):
                got = kummer_1f1(a, b, z)
                want = float(sps.hyp1f1(a, b, z))
                assert math.isclose(got, want, rel_tol=1e-10), (a, b, z)


def test_log_kummer_matches_linear_value():
    for a, b, z in ((2.0, 3.0, 10.0), (0.5, 1.5, 80.0)):
        assert math.isclose(
            specfun.log_kummer_1f1(a, b, z),
            math.log(float(sps.hyp1f1(a, b, z))),
            rel_tol=1e-12,
        )


def test_log_kummer_large_argument_asymptotic():
    """Large z: ln 1F1(a;b;z) -> z + (a-b) ln z + ln G(b) - ln G(a)."""
    a, b, z = 2.0, 5.0, 9000.0
    got = specfun.log_kummer_1f1(a, b, z)
    lead = z + (a - b) * math.log(z) + math.lgamma(b) - math.lgamma(a)
    # The correction series contributes O(1/z) to the exponent, so the
    # leading term pins the result to well under 1% in log space.
    assert abs(got - lead) < 0.01


def test_kummer_domain_errors():
    with pytest.raises(ValueError):
        specfun.log_kummer_1f1(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        specfun.log_kummer_1f1(1.0, 2.0, -1.0)
    with pytest.raises(ValueError):
        specfun.log_kummer_1f1(-1.0, 2.0, 1.0)


def test_gauss_2f1_binomial_identity():
    """2F1(a, b; b; z) = (1 - z)^-a, returned in closed form, and its
    mirror 2F1(b, a; b; z), which the direct series (z <= 0.5) and the
    1 - z transformation (z > 0.5) evaluate."""
    for a in (0.75, 1.5, 4.25):
        for b in (1.3, 2.6):
            for z in (0.0, 0.01, 0.3, 0.5, 0.7, 0.9, 0.97):
                want = (1.0 - z) ** (-a)
                got = specfun.gauss_2f1(a, b, b, z)
                assert math.isclose(got, want, rel_tol=1e-11), (a, b, z)
                got = specfun.gauss_2f1(b, a, b, z)
                assert math.isclose(got, want, rel_tol=1e-11), (b, a, z)


def test_gauss_2f1_equal_parameters_against_mpmath():
    """b == c over the closed form's range of a, up to z = 1 - 1e-6.

    Where (1 - z)^-a exceeds the double range the kernel must raise, not
    return inf or a wrong finite value.
    """
    for a in (0.3, 1.0, 4.0, 17.5, 250.0, 5e3):
        for b in (0.8, 6.18):
            for z in (1e-6, 0.05, 0.35, 0.5, 0.65, 0.9, 0.97, 0.999,
                      1.0 - 1e-6):
                with mpmath.workdps(40):
                    want = mpmath.hyp2f1(a, b, b, z)
                if want > mpmath.mpf(1.7e308):
                    with pytest.raises((SeriesError, OverflowError)):
                        specfun.gauss_2f1(a, b, b, z)
                    continue
                got = specfun.gauss_2f1(a, b, b, z)
                assert math.isclose(got, want, rel_tol=1e-13), (a, b, z)


def test_gauss_2f1_overflowing_identity_keeps_failure_types():
    """Where (1 - z)^-a overflows, the kernel fails as it did before the
    closed form existed: a SeriesError (a per-point gap in a sweep) below
    z = 0.5, raised without summing the series, and a bare OverflowError
    from the transformation above it (the 8x8 64-QAM corner of the
    benchmark)."""
    with pytest.raises(SeriesError):
        specfun.gauss_2f1(2278.0, 6.18, 6.18, 0.35022130472534746)
    with pytest.raises(OverflowError) as info:
        specfun.gauss_2f1(156.608, 157.108, 157.108, 0.9999853012836502)
    assert type(info.value) is OverflowError


# (a, b, z) with b == c where (1 - z)^-a overflows a double and the direct
# series would run: z <= 0.5, or c - a - b = -a within 0.05 of an integer.
OVERFLOWING_DIRECT = (
    (2278.0, 6.18, 0.35022130472534746),     # closed_many-like, z < 0.5
    (1100.0, 0.8, 0.5),                      # z on the switch-over
    (_LOG_DBL_MAX * (1.0 + 1e-12) / math.log(4.0 / 3.0), 2.5, 0.25),
    (1000.02, 3.0, 0.9),                     # near-integer a, z > 0.5
    (3000.0, 157.108, 0.6),                  # integer a, z > 0.5
)


def _overflowing_direct_sample(count, seed):
    """Seeded ``(a, b, z)`` with b == c whose log value exceeds
    ln(DBL_MAX) by 1e-9 to 1e7 and that the direct series would take."""
    rng = random.Random(seed)
    sample = []
    while len(sample) < count:
        log_val = _LOG_DBL_MAX + 10.0 ** rng.uniform(-9.0, 7.0)
        if len(sample) % 2:
            a = rng.randint(1, 10**7) + rng.uniform(-0.049, 0.049)
            z = -math.expm1(-log_val / a)
            if not 0.5 < z < 1.0:
                continue
        else:
            z = rng.uniform(1e-3, 0.5)
            a = log_val / -math.log1p(-z)
        if -a * math.log1p(-z) > _LOG_DBL_MAX:
            sample.append((a, rng.uniform(0.5, 200.0), z))
    return sample


def _series_message(args):
    return f"hyp2f1 did not converge within the term cap for arguments {args}"


def test_gauss_2f1_overflowing_direct_path_raises_without_series(
        monkeypatch):
    """The series' own SeriesError, raised before any term is summed."""
    runs = record_direct_series(monkeypatch)
    for a, b, z in OVERFLOWING_DIRECT:
        assert -a * math.log1p(-z) > _LOG_DBL_MAX
        with pytest.raises(SeriesError) as info:
            specfun.gauss_2f1(a, b, b, z)
        assert info.value.name == "hyp2f1"
        assert info.value.args_used == (a, b, b, z)
        assert str(info.value) == _series_message((a, b, b, z))
    assert runs == []


def test_direct_series_fails_wherever_the_kernel_skips_it():
    """The shortcut's premise: on such arguments the series itself runs to
    its term cap (or to inf/nan) and raises the same error."""
    sample = OVERFLOWING_DIRECT + tuple(_overflowing_direct_sample(40, 17))
    for a, b, z in sample:
        with pytest.raises(SeriesError) as info:
            specfun._hyp2f1_direct(a, b, b, z)
        assert str(info.value) == _series_message((a, b, b, z))


def test_gauss_2f1_sums_the_series_where_the_value_still_fits(monkeypatch):
    """709 <= -a log1p(-z) <= ln(DBL_MAX): no shortcut, and the series
    converges to the finite value."""
    runs = record_direct_series(monkeypatch)
    for log_val in (709.2, 709.5, 709.7):
        a = log_val / math.log(2.0)
        got = specfun.gauss_2f1(a, 6.18, 6.18, 0.5)
        with mpmath.workdps(40):
            want = mpmath.power(2, a)
        assert math.isclose(got, want, rel_tol=1e-12), (log_val, got)
    assert len(runs) == 3


def test_gauss_2f1_frozen_references():
    for (a, b, c, z), want in GAUSS_REFS.items():
        got = specfun.gauss_2f1(a, b, c, z)
        assert math.isclose(got, want, rel_tol=1e-11), (a, b, c, z, got)


def test_gauss_2f1_against_scipy():
    for a in (0.4, 1.0, 2.25):
        for b in (0.9, 3.5):
            for c in (1.1, 4.2):
                for z in (0.0, 0.2, 0.55, 0.8, 0.95):
                    got = specfun.gauss_2f1(a, b, c, z)
                    want = float(sps.hyp2f1(a, b, c, z))
                    assert math.isclose(got, want, rel_tol=1e-9), (a, b, c, z)


def test_gauss_2f1_near_integer_exponent_path():
    """c - a - b exactly/nearly integer must avoid the singular transform."""
    cases = [
        (1.0, 1.0, 3.0, 0.94),     # t = 1, integer
        (0.5, 1.52, 2.0, 0.88),    # t = -0.02, near zero
        (2.0, 2.0, 3.0, 0.9),      # t = -1, negative integer
    ]
    for a, b, c, z in cases:
        got = specfun.gauss_2f1(a, b, c, z)
        want = float(sps.hyp2f1(a, b, c, z))
        assert math.isclose(got, want, rel_tol=1e-9), (a, b, c, z)


def test_gauss_2f1_domain_errors():
    with pytest.raises(ValueError):
        specfun.gauss_2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        specfun.gauss_2f1(1.0, 1.0, 2.0, -0.1)
    with pytest.raises(ValueError):
        specfun.gauss_2f1(1.0, 1.0, 0.0, 0.5)

