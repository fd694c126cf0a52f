"""Tests for the gamma-family special functions behind the ExpN family.

The ExpN CDF (``ExpNParams(s, n).cdf`` and the fit's kernel ``_expn_cdf``) at
u = x^n / (2 s^n) is P(1/n, u) = ``scipy.special.gammainc`` below u = 1/n + 1
and 1 - Q(1/n, u) = 1 - ``scipy.special.gammaincc`` from there up;
the upper incomplete gamma function is Gamma(a, x) = Q(a, x) * Gamma(a).
The normaliser of ``ExpNParams(s, n).pdf`` takes log Gamma from ``math.lgamma``.

Reference values were frozen from a 40-digit mpmath evaluation and,
where marked, cross-checked against adaptive quadrature of the
defining integral at 1e-14 tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

import mpmath

from thintail.dist import ExpNParams, _expn_cdf

# mpmath, 40 digits
GAMMA_QUARTER = 3.625609908221908311931
LN_GAMMA_QUARTER = 1.288022524698077457371
UIG_QUARTER_HALF = 0.5565804140094271343879  # Gamma(1/4, 1/2), quadrature-checked
Q_QUARTER_FIVE = 0.0004920251244463400829434  # Q(1/4, 5)


def upper_inc_gamma(a, x):
    """Gamma(a, x) = Q(a, x) * Gamma(a)."""
    return gammaincc(a, x) * math.gamma(a)


class TestLogGamma:
    """``math.lgamma``, the log Gamma of the ExpN density's normaliser."""

    def test_at_one_and_two(self):
        assert math.lgamma(1.0) == 0.0
        assert math.lgamma(2.0) == 0.0

    def test_quarter(self):
        assert math.lgamma(0.25) == pytest.approx(LN_GAMMA_QUARTER, rel=1e-14)

    @pytest.mark.parametrize("a", [1e-3, 0.1, 1.5, 100.0, 1e6])
    def test_wide_range_against_math(self, a):
        # relative error target 1e-13 across [1e-3, 1e6], against 50-digit mpmath
        with mpmath.workdps(50):
            oracle = float(mpmath.loggamma(mpmath.mpf(a)))
        assert math.lgamma(a) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_domain_errors(self, a):
        with pytest.raises(ValueError):
            math.lgamma(a)


class TestUpperIncGamma:
    def test_exponential_identity(self):
        assert upper_inc_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_at_zero_is_complete_gamma(self):
        assert upper_inc_gamma(0.25, 0.0) == pytest.approx(GAMMA_QUARTER, rel=1e-14)

    def test_quarter_half_frozen(self):
        assert upper_inc_gamma(0.25, 0.5) == pytest.approx(UIG_QUARTER_HALF, rel=1e-12)

    def test_quarter_half_quadrature_oracle(self):
        oracle, err = quad(lambda t: t ** (-0.75) * math.exp(-t), 0.5, np.inf, epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-12
        assert upper_inc_gamma(0.25, 0.5) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "a,x",
        [(0.25, 5.0), (0.5, 2.0), (2.0, 3.0), (0.01, 1.0), (10.0, 25.0), (0.05, 0.2)],
    )
    def test_grid_against_quadrature(self, a, x):
        oracle, err = quad(lambda t: t ** (a - 1.0) * math.exp(-t), x, np.inf, epsabs=1e-15, epsrel=1e-13)
        assert upper_inc_gamma(a, x) == pytest.approx(oracle, rel=1e-12)

    def test_strictly_decreasing_in_x(self):
        xs = np.linspace(0.0, 30.0, 400)
        vals = upper_inc_gamma(0.25, xs)
        assert (np.diff(vals) < 0.0).all()

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0])
    def test_recurrence(self, a, x):
        # Gamma(a+1, x) = a*Gamma(a, x) + x^a * exp(-x)
        lhs = upper_inc_gamma(a + 1.0, x)
        rhs = a * upper_inc_gamma(a, x) + x**a * math.exp(-x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_analytic_identity_a_one(self):
        xs = np.linspace(0.0, 50.0, 101)
        assert upper_inc_gamma(1.0, xs) == pytest.approx(np.exp(-xs), rel=1e-12)

    @pytest.mark.parametrize("a,x", [(-1.0, 1.0), (0.0, 1.0), (1.0, -0.5), (float("nan"), 1.0)])
    def test_domain_errors(self, a, x):
        # scipy's Q does not raise outside a > 0, x >= 0 (it returns NaN, or
        # 0 at a = 0).  Its only caller, the ExpN CDF, evaluates Q(1/n, (x/s)^n / 2)
        # and must reject every n and x that would take it there.
        n = math.inf if a == 0.0 else 1.0 / a
        if float(n).is_integer():
            n = int(n)
        with pytest.raises(ValueError):
            ExpNParams(1.0, n).cdf(x)

    def test_no_convergence_failure_on_required_region(self):
        for a in (0.01, 0.1, 1.0, 5.0, 10.0):
            xs = np.array([0.0, 1e-8, 0.5, 1.0, 10.0, 100.0, 700.0])
            vals = upper_inc_gamma(a, xs)
            assert np.isfinite(vals).all()


class TestRegularizedUpper:
    def test_at_zero_is_one(self):
        assert gammaincc(0.25, 0.0) == 1.0

    def test_half_at_log_two(self):
        assert gammaincc(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_quarter_five_frozen(self):
        assert gammaincc(0.25, 5.0) == pytest.approx(Q_QUARTER_FIVE, rel=1e-12)

    def test_bounds_everywhere(self):
        xs = np.concatenate((np.geomspace(1e-12, 700.0, 80), [0.0, np.inf]))
        for a in (0.01, 0.25, 1.0, 3.0, 10.0):
            q = gammaincc(a, xs)
            assert ((q >= 0.0) & (q <= 1.0)).all()

    def test_underflow_flushes_to_zero(self):
        assert gammaincc(0.25, 750.0) == 0.0
        assert gammaincc(0.25, np.inf) == 0.0

    def test_scalar_and_array_shapes(self):
        scalar = gammaincc(0.5, 1.0)
        assert isinstance(scalar, float)
        arr = gammaincc(0.5, np.array([[0.5, 1.0], [2.0, 3.0]]))
        assert arr.shape == (2, 2)

    @given(
        a=st.floats(min_value=0.02, max_value=10.0),
        x1=st.floats(min_value=0.0, max_value=50.0),
        dx=st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_decreasing_property(self, a, x1, dx):
        q1 = gammaincc(a, x1)
        q2 = gammaincc(a, x1 + dx)
        assert q2 <= q1
        # strict where the decrease is representable in float64
        if 1e-12 < q1 < 1.0 - 1e-12:
            assert q2 < q1


def mpmath_lower(n, u):
    """P(1/n, u) to 40 digits; ``u`` is taken exactly from its double."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(mpmath.mpf(1) / n, 0, mpmath.mpf(u), regularized=True))


def mpmath_cdf(x, n):
    """The ExpN(1, n) CDF at x to 40 digits, from the exact x^n / 2."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(mpmath.mpf(1) / n, 0, mpmath.mpf(x) ** n / 2, regularized=True))


class TestLowerRegularized:
    """P = ``gammainc``, which the ExpN CDF takes below u = 1/n + 1."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 20, 50, 100])
    def test_against_mpmath_below_the_switch(self, n):
        a = 1.0 / n
        us = np.r_[np.geomspace(1e-12, a + 1.0, 40, endpoint=False), np.nextafter(a + 1.0, 0.0)]
        got = gammainc(a, us)
        want = np.array([mpmath_lower(n, u) for u in us])
        assert (np.abs(got - want) <= 1e-14 * want).all()

    @pytest.mark.parametrize("n", [2, 4])
    def test_cdf_lower_tail_relative_accuracy(self, n):
        # 1 - Q cancels here: on this grid it is off by up to 6.0e-11 (n = 2) and 3.2e-11 (n = 4)
        xs = np.geomspace(1e-6, 1.0, 61)
        got = ExpNParams(1.0, n).cdf(xs)
        want = np.array([mpmath_cdf(x, n) for x in xs])
        assert (np.abs(got - want) <= 1e-14 * want).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 20, 100])
    def test_cdf_absolute_accuracy_across_the_switch(self, n):
        xs = np.linspace(0.0, 3.0, 121)[1:]
        got = ExpNParams(1.0, n).cdf(xs)
        want = np.array([mpmath_cdf(x, n) for x in xs])
        assert np.abs(got - want).max() <= 5e-15

    @given(
        n=st.integers(1, 120),
        s=st.floats(min_value=0.05, max_value=10.0),
        stretch=st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_cdf_is_one_minus_q_at_and_above_the_switch(self, n, s, stretch):
        x = s * stretch * (2.0 * (1.0 / n + 1.0)) ** (1.0 / n)
        u = 0.5 * np.power(np.float64(x) / s, n)
        assume(u >= 1.0 / n + 1.0)
        assert ExpNParams(s, n).cdf(x) == 1.0 - gammaincc(1.0 / n, u)

    def test_array_straddling_the_switch_equals_scalar_calls(self):
        # the fit's kernel, on the arrays of scales and powers its search passes
        ns = np.array([1, 2, 4, 9, 100])
        ss = np.array([0.3, 1.0, 2.5])
        # x / s at u = 1/n + 1, and just below, just above and well away on either side
        edge = (2.0 * (1.0 / ns + 1.0)) ** (1.0 / ns)
        ratios = edge[:, None] * np.array([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5])
        xs = ss[:, None, None] * ratios
        got = _expn_cdf(xs, ss[:, None, None], ns[:, None])
        assert got.shape == (3, 5, 5)
        want = [[[ExpNParams(float(s), int(n)).cdf(float(x)) for x in row] for n, row in zip(ns, block)]
                for s, block in zip(ss, xs)]
        assert got.tolist() == want
        u = 0.5 * (xs / ss[:, None, None]) ** ns[:, None]
        assert (u < 1.0 / ns[:, None] + 1.0).any() and (u >= 1.0 / ns[:, None] + 1.0).any()
