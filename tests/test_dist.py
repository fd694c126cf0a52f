"""Tests for the severity distribution family.

Frozen constants come from a 40-digit mpmath evaluation of the defining
formulas (densities, CDFs via the incomplete gamma integral, quantiles
by high-precision bisection, moments by quadrature) done before this
module was written; quadrature oracles below integrate the closed-form
densities directly with scipy.integrate.quad and never call the code
under test.
"""

import hashlib
import math
import re
from datetime import date

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

import thintail as tt
from thintail.dist import (_LAYERS, _chunk_rng, _expn_cdf, _expn_quantile, _expn_ziggurat, _run_chunks,
                           check_even_power, check_power)

# mpmath, 40 digits
EXP4_PDF_AT_ZERO = 0.9277296085790008440027
EXP4_PDF_02_02 = 2.813482257631822813074
EXP4_CDF_1_1 = 0.8464864041916775367871
EXP4_MEDIAN = 0.5436416851509247561108
EXP4_MEAN = 0.5813683170191185818416
EXP4_SD = 0.3741653076548955398438

# 99.9th percentiles of ExpN(1, n), mpmath bisection
Q999_BY_N = {
    4: 1.72003723783554993,
    6: 1.40783636939320942,
    8: 1.27925077730422926,
    10: 1.20999737536901621,
    12: 1.16700446171074484,
    14: 1.13784627088763316,
    16: 1.1168381377517567,
    18: 1.10102104326769258,
    20: 1.08870682098100425,
}


def mpmath_unit_quantile(n, lower=None, upper=None):
    """ExpN(1, n) quantile (2 g)^(1/n) at 50 digits, where P(1/n, g) = lower
    or Q(1/n, g) = upper; the lower branch is solved for log g."""
    with mpmath.workdps(50):
        a = mpmath.mpf(1) / n
        if upper is not None:
            f = lambda g: mpmath.log(mpmath.gammainc(a, g, mpmath.inf, regularized=True) / upper)
            g = mpmath.findroot(f, (mpmath.mpf("1e-3"), mpmath.mpf(60)), solver="anderson")
        else:
            f = lambda t: mpmath.log(mpmath.gammainc(a, 0, mpmath.exp(t), regularized=True) / lower)
            g = mpmath.exp(mpmath.findroot(f, (mpmath.mpf(-3000), mpmath.mpf(5)), solver="anderson"))
        return float((2 * g) ** a)


def unit_density(n):
    """Closed-form density, independent of the package internals."""
    norm = 2.0 ** (1.0 / n) * math.gamma(1.0 + 1.0 / n)
    return lambda t: math.exp(-0.5 * t**n) / norm


class StrayRecord:
    """Has the four distribution methods but is no family record."""

    def __init__(self, s):
        self.inner = tt.Exp4Params(s)
        self.pdf, self.cdf = self.inner.pdf, self.inner.cdf
        self.quantile, self.sample = self.inner.quantile, self.inner.sample


class TestExp4Pdf:
    def test_at_zero(self):
        assert tt.Exp4Params(1.0).pdf(0.0) == pytest.approx(EXP4_PDF_AT_ZERO, rel=1e-14)

    def test_peak_region_example(self):
        assert tt.Exp4Params(0.2).pdf(0.2) == pytest.approx(EXP4_PDF_02_02, rel=1e-13)
        # the paper abstract's form exp(-x^4 / (2 s^2)) holds with its s = 0.2^2 (see the dist docstring)
        params = tt.Exp4Params(0.2)
        for x in (0.05, 0.1, 0.2, 0.25):
            shape = math.exp(-(x**4) / (2 * (0.2 * 0.2) ** 2))
            assert params.pdf(x) / params.pdf(0.0) == pytest.approx(shape, rel=1e-15)

    def test_decays_to_zero(self):
        assert tt.Exp4Params(1.0).pdf(50.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tt.Exp4Params(1.0).pdf(-0.1)
        with pytest.raises(ValueError):
            tt.Exp4Params(0.0).pdf(1.0)


class TestExp4Cdf:
    def test_at_zero(self):
        assert tt.Exp4Params(1.0).cdf(0.0) == 0.0

    @pytest.mark.parametrize("s", [0.2, 1.0, 5.0])
    def test_bracket_end_saturates(self, s):
        assert tt.Exp4Params(s).cdf(20.0 * s) >= 1.0 - 1e-12

    def test_value_against_quadrature(self):
        oracle, _ = quad(unit_density(4), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert tt.Exp4Params(1.0).cdf(1.0) == pytest.approx(oracle, abs=1e-12)
        assert tt.Exp4Params(1.0).cdf(1.0) == pytest.approx(EXP4_CDF_1_1, rel=1e-13)

    @pytest.mark.parametrize("x", [-0.1, float("nan"), np.array([0.5, -1e-300]), np.array([1.0, np.nan])])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            tt.Exp4Params(1.0).cdf(x)


class TestExp4Quantile:
    def test_at_zero(self):
        assert tt.Exp4Params(1.0).quantile(0.0) == 0.0

    def test_median(self):
        assert tt.Exp4Params(1.0).quantile(0.5) == pytest.approx(EXP4_MEDIAN, abs=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5])
    def test_round_trip(self, x):
        assert tt.Exp4Params(1.0).quantile(tt.Exp4Params(1.0).cdf(x)) == pytest.approx(x, abs=1e-6)

    def test_cdf_distance_contract(self):
        for p in (0.01, 0.5, 0.99, 0.999, 1.0 - 1e-12):
            x = tt.Exp4Params(1.0).quantile(p)
            assert abs(tt.Exp4Params(1.0).cdf(x) - p) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tt.Exp4Params(1.0).quantile(1.0)
        with pytest.raises(ValueError):
            tt.Exp4Params(1.0).quantile(-0.1)

    def test_vectorized_matches_scalar(self):
        ps = np.array([0.1, 0.5, 0.9, 0.999])
        vec = tt.Exp4Params(2.0).quantile(ps)
        scalars = [tt.Exp4Params(2.0).quantile(float(p)) for p in ps]
        assert vec == pytest.approx(scalars, abs=1e-10)


class TestExp4Sampling:
    def test_scale_family_exact_gamma(self):
        a = tt.Exp4Params(1.0).sample(100, np.random.default_rng(5))
        b = tt.Exp4Params(2.0).sample(100, np.random.default_rng(5))
        assert np.array_equal(2.0 * a, b)

    def test_scale_family_exact_inverse(self):
        a = tt.Exp4Params(1.0).quantile(np.random.default_rng(5).random(50))
        b = tt.Exp4Params(2.0).quantile(np.random.default_rng(5).random(50))
        assert np.array_equal(2.0 * a, b)

    def test_gamma_sampler_ks(self):
        n = 20_000
        draws = np.sort(tt.Exp4Params(1.0).sample(n, np.random.default_rng(11)))
        cdf_vals = tt.Exp4Params(1.0).cdf(draws)
        d_plus = (np.arange(1, n + 1) / n - cdf_vals).max()
        d_minus = (cdf_vals - np.arange(0, n) / n).max()
        assert max(d_plus, d_minus) < 1.63 / math.sqrt(n)  # 1% asymptotic KS

    def test_two_samplers_agree_ks(self):
        n = 10_000
        a = np.sort(tt.Exp4Params(1.0).sample(n, np.random.default_rng(1)))
        b = np.sort(tt.Exp4Params(1.0).quantile(np.random.default_rng(2).random(n)))
        grid = np.sort(np.concatenate((a, b)))
        fa = np.searchsorted(a, grid, side="right") / n
        fb = np.searchsorted(b, grid, side="right") / n
        d = np.abs(fa - fb).max()
        assert d < 1.628 * math.sqrt(2.0 / n)

    def test_zero_count_is_an_empty_sample(self):
        rng = np.random.default_rng(0)
        draws = tt.Exp4Params(1.0).sample(0, rng)
        assert draws.shape == (0,) and draws.dtype == np.float64
        assert rng.random() == np.random.default_rng(0).random()  # no draw was made


class TestExpN:
    def test_reduces_to_exp4(self):
        xs = np.linspace(0.0, 10.0, 501)
        for s in (0.2, 1.0, 5.0):
            diff = np.abs(tt.ExpNParams(s, 4).cdf(xs) - tt.Exp4Params(s).cdf(xs)).max()
            assert diff < 1e-12

    def test_checked_power_is_stored_as_int(self):
        params = tt.ExpNParams(1.0, np.int64(4))
        assert type(params.n) is int and params == tt.ExpNParams(1.0, 4)

    def test_n1_density_at_zero(self):
        assert tt.ExpNParams(1.0, 1).pdf(0.0) == pytest.approx(0.5, rel=1e-14)

    def test_q999_strictly_decreasing_with_shrinking_decrements(self):
        qs = [tt.ExpNParams(1.0, n).quantile(0.999) for n in range(4, 21, 2)]
        for computed, n in zip(qs, range(4, 21, 2)):
            assert computed == pytest.approx(Q999_BY_N[n], abs=1e-9)
        decs = [a - b for a, b in zip(qs, qs[1:])]
        assert all(d > 0 for d in decs)
        assert all(d1 > d2 for d1, d2 in zip(decs, decs[1:]))

    @pytest.mark.parametrize("n", [1, 2, 12, 100])
    def test_quantile_round_trip(self, n):
        for x in (0.1, 0.5, 0.9):
            p = tt.ExpNParams(1.0, n).cdf(x)
            if p >= 1.0:  # saturated tail has no finite inverse
                continue
            assert tt.ExpNParams(1.0, n).quantile(p) == pytest.approx(x, abs=1e-6)

    def test_n1_bracket_expansion(self):
        # Exp(1)-like tail: q(1 - 1e-12) lies past 20*s
        p = 1.0 - 1e-12
        x = tt.ExpNParams(1.0, 1).quantile(p)
        assert x > 20.0
        assert abs(tt.ExpNParams(1.0, 1).cdf(x) - p) <= 1e-10

    @pytest.mark.parametrize("tail", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("n", [2, 4, 8, 20, 100])
    def test_far_tail_quantile_against_mpmath(self, n, tail):
        p = 1.0 - tail
        oracle = mpmath_unit_quantile(n, upper=1 - mpmath.mpf(p))  # exact 1 - p of the float p
        assert tt.ExpNParams(1.0, n).quantile(p) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    # n = 100 below p ~ 8e-4 takes the linear lower-tail branch: test_lower_tail_linear_branch_against_mpmath.
    @pytest.mark.parametrize("p", [1e-12, 1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 20])
    def test_lower_quantile_against_mpmath(self, n, p):
        oracle = mpmath_unit_quantile(n, lower=mpmath.mpf(p))
        assert tt.ExpNParams(1.0, n).quantile(p) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [1e-6, 1e-4])
    def test_lower_tail_quantile_linear_branch_against_mpmath(self, p):
        # At n = 100, P^-1(1/100, p) underflows float64 below p ~ 6e-4.
        oracle = 2.5 * mpmath_unit_quantile(100, lower=mpmath.mpf(p))
        assert tt.ExpNParams(2.5, 100).quantile(p) == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("r", [1e-5, 1e-4])
    def test_lower_tail_cdf_linear_branch_against_mpmath(self, r):
        # At n = 100, (x/s)^n / 2 underflows float64 below x ~ 8e-4 s.
        with mpmath.workdps(50):
            oracle = float(mpmath.gammainc(mpmath.mpf(1) / 100, 0, mpmath.mpf(r) ** 100 / 2, regularized=True))
        assert tt.ExpNParams(2.5, 100).cdf(r * 2.5) == pytest.approx(oracle, rel=1e-14, abs=0.0)
        assert tt.ExpNParams(2.5, 100).cdf(np.array([r * 2.5]))[0] == tt.ExpNParams(2.5, 100).cdf(r * 2.5)

    def test_scalar_and_array_quantiles_identical(self):
        ps = np.array([0.0, 1e-9, 0.25, 0.5, 0.5 + 1e-16, 0.75, 0.999, 1.0 - 1e-12])
        for n in (1, 4, 100):
            vec = tt.ExpNParams(3.0, n).quantile(ps)
            assert vec.shape == ps.shape
            assert [tt.ExpNParams(3.0, n).quantile(float(p)) for p in ps] == list(vec)
        # the quantile kernel over broadcast scales and powers; p down to the linear lower-tail branch
        # at n = 100, and a grid on which numpy's pow differs in the last bit from the sqrt of n = 2
        ps = np.r_[0.0, 1e-300, 0.5, 0.5 + 1e-16, 1.0 - 1e-12, np.linspace(0.01, 0.99, 50)]
        ss = np.array([0.05, 0.9, 10.0])
        ns = np.array([1, 2, 3, 4, 12, 100])
        got = _expn_quantile(ps, ss[:, None, None], ns[:, None])
        assert got.shape == (3, 6, 55)
        want = [[[tt.ExpNParams(float(s), int(n)).quantile(float(p)) for p in ps] for n in ns] for s in ss]
        assert got.tolist() == want
        assert _expn_quantile(0.999, ss, ns[:, None]).tolist() == [
            [tt.ExpNParams(float(s), int(n)).quantile(0.999) for s in ss] for n in ns]

    def test_cdf_broadcasts_scales_and_powers_like_scalar_calls(self):
        # the fit's kernel; x down to the linear lower-tail branch at n = 100 (below about 8e-4 s)
        xs = np.r_[0.0, 1e-6, 4e-4, np.linspace(0.01, 3.0, 150), 40.0]
        ss = np.array([0.05, 0.9, 1.7, 10.0])
        ns = np.array([1, 2, 3, 4, 12, 100])
        got = _expn_cdf(xs, ss[:, None, None], ns[:, None])
        assert got.shape == (4, 6, 154)
        want = [[[tt.ExpNParams(float(s), int(n)).cdf(float(x)) for x in xs] for n in ns] for s in ss]
        assert got.tolist() == want
        assert (got[:, -1, 1:3] > 0.0).all()  # the lower-tail branch was taken
        assert _expn_cdf(np.float64(0.7), ss, 4).tolist() == [tt.ExpNParams(float(s), 4).cdf(0.7) for s in ss]

    @pytest.mark.parametrize("name, s, n", [
        ("s", np.array([1.0, 2.0]), 4),
        ("n", 1.0, np.array([4, 6])),
        ("s", [1.0], 4),
    ], ids=["s-array", "n-array", "s-list"])
    def test_pdf_with_array_scale_or_power_raises_naming_it(self, name, s, n):
        with pytest.raises(ValueError, match=f"^{name} must be a scalar"):
            tt.ExpNParams(s, n).pdf(0.5)

    @pytest.mark.parametrize("method", ["cdf", "quantile"], ids=["expn_record.cdf", "expn_record.quantile"])
    @pytest.mark.parametrize("name, s, n", [
        ("s", np.array([1.0, 2.0]), 4),
        ("n", 1.0, np.array([4, 6])),
        ("s", np.array([1.0]), np.array([4])),
    ], ids=["s-array", "n-array", "both"])
    def test_cdf_and_quantile_with_array_scale_or_power_raise_naming_it(self, method, name, s, n):
        with pytest.raises(ValueError, match=f"^{name} must be a scalar, got shape"):
            getattr(tt.ExpNParams(s, n), method)(0.5)

    def test_gamma_draws_follow_cdf_in_far_lower_tail(self):
        # At n = 100, X < 8.4e-4 s for about 8e-4 of draws, where G ~ Gamma(1/100) would
        # fall below the smallest normal double (a direct Gamma(1/100) draw returns many
        # of them as 0).  The ziggurat draws them as a fraction of a layer's width, in
        # steps of 2^-45 of it.
        s, k = 2.0, 2_000_000
        draws = tt.ExpNParams(s, 100).sample(k, np.random.default_rng(20))
        assert (draws > 0.0).all()
        for r in (2e-4, 5e-4, 1e-3):
            p = tt.ExpNParams(s, 100).cdf(r * s)
            band = 5.0 * math.sqrt(k * p * (1.0 - p))
            assert abs(np.count_nonzero(draws < r * s) - k * p) < band

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 20, 100, 1000, 10**6])
    def test_gamma_sampler_ks(self, n):
        k, s = 200_000, 1.7
        draws = np.sort(tt.ExpNParams(s, n).sample(k, np.random.default_rng(n)))
        assert draws[0] > 0.0
        cdf_vals = tt.ExpNParams(s, n).cdf(draws)
        d_plus = (np.arange(1, k + 1) / k - cdf_vals).max()
        d_minus = (cdf_vals - np.arange(0, k) / k).max()
        assert max(d_plus, d_minus) < 1.63 / math.sqrt(k)  # 1% asymptotic KS

    def test_gamma_sampler_scale_family_exact(self):
        a = tt.ExpNParams(1.0, 100).sample(1000, np.random.default_rng(9))
        b = tt.ExpNParams(2.0, 100).sample(1000, np.random.default_rng(9))
        assert np.array_equal(2.0 * a, b)

    def test_scale_family_exact(self):
        xs = np.linspace(0.0, 8.0, 100)
        for n in (1, 4, 12):
            assert np.array_equal(tt.ExpNParams(2.0, n).cdf(2.0 * xs), tt.ExpNParams(1.0, n).cdf(xs))

    def test_cdf_pdf_consistency(self):
        h = 1e-6
        for n in (1, 4, 12):
            for x in (0.3, 0.8, 1.2):
                deriv = (tt.ExpNParams(1.0, n).cdf(x + h) - tt.ExpNParams(1.0, n).cdf(x - h)) / (2 * h)
                assert deriv == pytest.approx(tt.ExpNParams(1.0, n).pdf(x), rel=1e-6)

    def test_bad_power(self):
        with pytest.raises(ValueError):
            tt.ExpNParams(1.0, 0).pdf(1.0)
        with pytest.raises(ValueError):
            tt.ExpNParams(1.0, 2.5).cdf(1.0)


class TestNormalization:
    @pytest.mark.parametrize("s", [0.2, 1.0, 5.0])
    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_expn_integrates_to_one(self, s, n):
        total, _ = quad(lambda t: tt.ExpNParams(s, n).pdf(t), 0.0, np.inf, points=None, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_expn_100_integrates_to_one(self):
        s = 1.0
        total, _ = quad(lambda t: tt.ExpNParams(s, 100).pdf(t), 0.0, 1.3 * s, points=[s], limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestThinTailOrdering:
    def test_survival_below_moment_matched_normal(self):
        # Normal matched to the quadrature moments of Exp4(1); survivals are
        # taken in their direct (non-cancelling) forms so the ordering stays
        # verifiable deep into the tail.
        from scipy.special import ndtr

        for x in np.linspace(2.0, 6.0, 9):
            exp4_surv = gammaincc(0.25, x**4 / 2.0)
            norm_surv = float(ndtr(-(x - EXP4_MEAN) / EXP4_SD))
            assert exp4_surv < norm_surv

    def test_moment_constants_match_quadrature(self):
        m1, _ = quad(lambda t: t * unit_density(4)(t), 0.0, np.inf)
        m2, _ = quad(lambda t: t * t * unit_density(4)(t), 0.0, np.inf)
        assert m1 == pytest.approx(EXP4_MEAN, rel=1e-10)
        assert math.sqrt(m2 - m1 * m1) == pytest.approx(EXP4_SD, rel=1e-10)


class TestBaselines:
    def test_pareto_cdf_at_theta(self):
        params = tt.ParetoParams(theta=2.0, alpha=1.0)
        assert params.cdf(2.0) == pytest.approx(0.5, rel=1e-14)

    def test_lognormal_median(self):
        params = tt.LogNormalParams(mu=0.7, sigma=1.1)
        assert params.cdf(math.exp(0.7)) == pytest.approx(0.5, rel=1e-14)

    def test_weibull_scale_point(self):
        params = tt.WeibullParams(tau=0.6, theta=3.0)
        assert params.cdf(3.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize(
        "params",
        [
            tt.NormalParams(mu=1.0, sigma=0.4),
            tt.LogNormalParams(mu=0.0, sigma=0.8),
            tt.WeibullParams(tau=0.7, theta=2.0),
            tt.ParetoParams(theta=1.5, alpha=3.0),
        ],
    )
    def test_quantile_round_trip(self, params):
        for p in (0.05, 0.5, 0.95):
            x = params.quantile(p)
            assert params.cdf(x) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            tt.LogNormalParams(mu=0.0, sigma=0.8),
            tt.WeibullParams(tau=0.7, theta=2.0),
            tt.ParetoParams(theta=1.5, alpha=3.0),
        ],
    )
    def test_pdf_integrates_to_one(self, params):
        total, _ = quad(lambda t: params.pdf(t), 0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_pareto_quantile_closed_form(self):
        params = tt.ParetoParams(theta=2.0, alpha=1.5)
        p = 0.9
        assert params.quantile(p) == pytest.approx(
            (1.0 - p) ** (-1.0 / 1.5) * 2.0 - 2.0, rel=1e-14
        )

    def test_normal_sampling_truncated(self):
        params = tt.NormalParams(mu=0.3, sigma=1.0)
        draws = params.sample(10_000, np.random.default_rng(7))
        assert (draws >= 0.0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, 4096, 100_000])
    def test_normal_redraw_matches_full_mask_loop(self, k, seed):
        # about 46% of first draws are negative at mu = 0.1, so the redraw runs many rounds
        params = tt.NormalParams(mu=0.1, sigma=1.0)
        rng = np.random.default_rng(seed)
        expected = rng.normal(params.mu, params.sigma, size=k)
        while (neg := expected < 0.0).any():
            expected[neg] = rng.normal(params.mu, params.sigma, size=int(neg.sum()))
        draws = params.sample(k, np.random.default_rng(seed))
        assert draws.tobytes() == expected.tobytes()

    def test_normal_sampling_far_below_zero_raises(self):
        with pytest.raises(RuntimeError, match="mu is far below 0"):
            tt.NormalParams(mu=-50.0, sigma=1.0).sample(1, np.random.default_rng(0))

    def test_exponential_weibull_density_at_zero(self):
        assert tt.WeibullParams(tau=1.0, theta=2.5).pdf(0.0) == 1.0 / 2.5

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            tt.NormalParams(mu=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            tt.WeibullParams(tau=1.5, theta=1.0)
        with pytest.raises(ValueError):
            tt.ParetoParams(theta=1.0, alpha=-2.0)


class TestSeverityModel:
    def test_descaling_consistency(self):
        model = tt.SeverityModel(tt.Exp4Params(1.4), scaling_mean=50.0)
        x = 60.0
        assert model.cdf(x) == tt.Exp4Params(1.4).cdf(x / 50.0)
        assert model.quantile(0.9) == pytest.approx(50.0 * tt.Exp4Params(1.4).quantile(0.9), rel=1e-14)
        assert model.pdf(x) == pytest.approx(tt.Exp4Params(1.4).pdf(x / 50.0) / 50.0, rel=1e-14)

    def test_sample_descaling(self):
        a = tt.SeverityModel(tt.Exp4Params(1.0), scaling_mean=1.0).sample(20, np.random.default_rng(9))
        b = tt.SeverityModel(tt.Exp4Params(1.0), scaling_mean=4.0).sample(20, np.random.default_rng(9))
        assert np.array_equal(4.0 * a, b)

    def test_zero_count_sample(self):
        model = tt.SeverityModel(tt.Exp4Params(1.0))
        assert model.sample(0, np.random.default_rng(0)).size == 0

    def test_point_mass(self):
        model = tt.SeverityModel(tt.PointMassParams(2.0), scaling_mean=3.0)
        assert model.cdf(5.9) == 0.0
        assert model.cdf(6.0) == 1.0
        assert model.quantile(0.999) == 6.0
        assert (model.sample(5, np.random.default_rng(0)) == 6.0).all()
        with pytest.raises(ValueError):
            model.pdf(1.0)

    def test_invalid_scaling_mean(self):
        with pytest.raises(ValueError):
            tt.SeverityModel(tt.Exp4Params(1.0), scaling_mean=0.0)

    @pytest.mark.parametrize("params", [(1.3, 4), object(), StrayRecord(1.3)], ids=["tuple", "object", "duck"])
    def test_rejects_what_is_not_a_family_record(self, params):
        with pytest.raises(ValueError, match="unsupported parameter record"):
            tt.SeverityModel(params)

    @given(
        s=st.floats(min_value=0.1, max_value=5.0),
        x=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_cdf_in_unit_interval(self, s, x):
        value = tt.Exp4Params(s).cdf(x)
        assert 0.0 <= value <= 1.0


FAMILY_RECORDS = {
    "exp4": tt.Exp4Params(1.3),
    "expn1": tt.ExpNParams(1.3, 1),
    "expn100": tt.ExpNParams(0.9, 100),
    "normal": tt.NormalParams(mu=1.0, sigma=0.4),
    "lognormal": tt.LogNormalParams(mu=0.0, sigma=0.8),
    "weibull": tt.WeibullParams(tau=0.7, theta=2.0),
    "pareto": tt.ParetoParams(theta=1.5, alpha=3.0),
    "pointmass": tt.PointMassParams(2.0),
}

# SHA-256 of SeverityModel(FAMILY_RECORDS[name], 37.5).sample(k, default_rng(k)) as
# little-endian float64, for k = 1, 7, 4096, frozen from the per-family sampler as it
# stood before the families got their own methods.  They pin each family's draws and
# RNG call order (the truncated Normal resamples at k = 4096), on which capital being
# bit-identical across releases rests.  exp4, expn1 and expn100 record the ExpN ziggurat:
# its rectangle uniforms, then its rejects' wedge, tail and fresh draws (at k = 4096 the
# tail is met at n = 1 and 4); they were frozen again each time the ExpN sampler changed.
FAMILY_DRAWS_SHA256 = {
    "exp4": ("12a3e6b94d4c4f9832cb8cbd62a2dd6c8892bb7e0ef6acce9312724639897b6c",
             "5e842aa5efd8cba0cb77c354f4ad3ae3faa9f7cb88813eec18ef60e0c15acd6a",
             "d87e0ded51174cdb16a66aabfd2bef7dc37141c8dafceee73b62dda08b4a99bc"),
    "expn1": ("f70824138d1d6bfd0c716d3ebfb0041e8ca353175b13c000f1081c85370a81f8",
              "24e4023ef8a56ba27c47319ec680d3a1b784340915d9d60b70b20052e1205b99",
              "19b1a512a5f019c0a267c998cd51a789a06ddb0cecee8ace675602febc816b72"),
    "expn100": ("44b36d0d8c487b79693792cbbd958a664768b588ab229aa68d1f831d8fdfc3d8",
                "85355159fb193672c0e779dc5265e4eb457f73cf3fff5f70413b18a1412196e4",
                "9405014efb9edb02d7e2f478e143db3515ee840f7f223ea38d85b14fe49642c2"),
    "normal": ("ca89f7157e8d87fa314f4da271eb2dc9c2d959c59c00b6bc7ac6538a13abe523",
               "df7c29a060cf52cf655bfa26cf1adc33ef8d3dd3f5ab01c3f39061934d74a4b5",
               "7f5dec4454350a69aadb5104f1188e478a4ed2da48ab978ff827b9e9bb1aec2e"),
    "lognormal": ("091d6a3829ce213079ec198638c687d2b98435488eb4ff519c07929b72d0e7bf",
                  "9643b46602ebb860e8a51ad06e104630768863d15a9db5a36d31dab7ca29c17a",
                  "56dfc3bbcce169f01e68a7da73bf8f9ab277b8992d80e16372e3d1f8bd108490"),
    "weibull": ("f1c6483016fe3b3d4d7aaa072b1c34c59196e7236fbad946e6dd9c47d1537ced",
                "fc37d6bd52fc7d2d0f8c116d901a809bd2d24a1dddd7be1b1f6ea6017b785608",
                "5b7f20ba0675db3f6ce4c4e69e2fd1a5b27e7937ca13b738238bcf6d812289e2"),
    "pareto": ("f134cb60ac103e2995b6b384f1153cda2fe4f59ce44621f3c33db48dc4c6e17d",
               "1df06c3f71514f3a4ee55e6b55042b0139b8a80bfd7db5e8fa1e2c036e03b919",
               "83ba32a213b8b8018c8e6d54780a235ad5b58df862ecfe6ce2e63be5381fbdab"),
    "pointmass": ("4a8a7dcd543bb57baa08d932cde946d7e352b6293abc4b9459ece5ca9f37d0fc",
                  "83d6fbc8836c6dff400d4d0bac9e2d9578adc60c708372fd268bf83bba8e14bc",
                  "65775eaba858af30710ee91cc6a05f4606204413a60dcef5636b72dacf35dc67"),
}


@pytest.mark.parametrize("name", list(FAMILY_RECORDS))
class TestSeverityModelPerFamily:
    """SeverityModel only rescales: it adds nothing to the record's own methods."""

    m = 37.5

    def test_pdf_cdf_quantile_descale_exactly(self, name):
        params, m = FAMILY_RECORDS[name], self.m
        model = tt.SeverityModel(params, scaling_mean=m)
        xs = np.linspace(0.0, 150.0, 61)
        ps = np.array([0.0, 1e-6, 0.1, 0.5, 0.9, 0.999])
        assert np.array_equal(model.cdf(xs), params.cdf(xs / m))
        assert model.cdf(45.0) == params.cdf(45.0 / m)
        assert np.array_equal(model.quantile(ps), m * params.quantile(ps))
        assert model.quantile(0.999) == m * params.quantile(0.999)
        if name == "pointmass":
            with pytest.raises(ValueError, match="no density"):
                model.pdf(xs)
        else:
            assert np.array_equal(model.pdf(xs), params.pdf(xs / m) / m)
            assert model.pdf(45.0) == params.pdf(45.0 / m) / m

    @pytest.mark.parametrize("x", [float("nan"), np.array([1.0, np.nan])], ids=["scalar", "array"])
    def test_nan_x_is_refused(self, name, x):
        params = FAMILY_RECORDS[name]
        methods = [params.cdf] if name == "pointmass" else [params.pdf, params.cdf]
        for method in methods:
            with pytest.raises(ValueError, match="^x must not contain NaN$"):
                method(x)

    @pytest.mark.parametrize("k", [1, 7, 4096])
    def test_sample_matches_frozen_draws(self, name, k):
        draws = tt.SeverityModel(FAMILY_RECORDS[name], scaling_mean=self.m).sample(k, np.random.default_rng(k))
        assert draws.shape == (k,)
        digest = hashlib.sha256(np.asarray(draws, dtype="<f8").tobytes()).hexdigest()
        assert digest == FAMILY_DRAWS_SHA256[name][[1, 7, 4096].index(k)]

    @pytest.mark.parametrize("k", [1, 7, 4096, 2**14 + 3, 3 * 2**14])
    def test_sample_into_out_equals_sample(self, name, k):
        model = tt.SeverityModel(FAMILY_RECORDS[name], scaling_mean=self.m)
        out = np.full(k + 1, -1.0)
        rng = np.random.default_rng(k)
        assert model.sample(k, rng, out=out[:k]).base is out
        after = rng.random()
        expected_rng = np.random.default_rng(k)
        assert out[:k].tobytes() == model.sample(k, expected_rng).tobytes()
        assert out[k] == -1.0
        assert after == expected_rng.random()

    @pytest.mark.parametrize("k", [0, 1, 7, 2**14 + 3])
    def test_record_sample_into_out_fills_and_returns_it(self, name, k):
        params = FAMILY_RECORDS[name]
        out = np.full(k, -1.0)
        assert params.sample(k, np.random.default_rng(k), out=out) is out
        assert out.tobytes() == params.sample(k, np.random.default_rng(k)).tobytes()
        assert params.sample(k, np.random.default_rng(k)).shape == (k,)


def reference_expn_draws(s, n, k, rng):
    """ExpN(s, n) draws by the ziggurat of ``_expn_ziggurat(n)``, on whole arrays with no blocks: the k
    rectangle uniforms, then rounds over the rejected positions in increasing order (tail draws for
    layer 0, one wedge uniform for each other reject, fresh rectangle uniforms for the wedge failures)."""
    zig = _expn_ziggurat(n)
    u = rng.random(k) * 256
    layer = u.astype(np.intp)
    x = (u - layer) * zig.width[layer]
    pending = np.flatnonzero(x >= zig.inner[layer])
    while pending.size:
        tail = pending[layer[pending] == 0]
        t = np.empty(tail.size)
        todo = np.arange(tail.size)
        while todo.size:
            candidate = zig.t_r + rng.standard_exponential(todo.size)
            kept = rng.random(todo.size) < (candidate / zig.t_r) ** (1.0 / n - 1.0)
            t[todo[kept]] = candidate[kept]
            todo = todo[~kept]
        x[tail] = (2.0 * t) ** (1.0 / n)
        wedge = pending[layer[pending] != 0]
        low, high = zig.heights[layer[wedge]], zig.heights[layer[wedge] + 1]
        failed = wedge[low + rng.random(wedge.size) * (high - low) >= np.exp(-0.5 * x[wedge] ** n)]
        u = rng.random(failed.size) * 256
        layer[failed] = u.astype(np.intp)
        x[failed] = (u - layer[failed]) * zig.width[layer[failed]]
        pending = failed[x[failed] >= zig.inner[layer[failed]]]
    return x * s


# n = 1 takes every tail candidate; n = 10^6 puts the whole table within 1e-5 of x = 1
ZIGGURAT_POWERS = [1, 2, 3, 4, 100, 1000, 10**6]


@pytest.mark.parametrize("n", ZIGGURAT_POWERS)
class TestExpNZiggurat:
    """The ExpN sampler is an exact ziggurat: its table, its draws and the stream order it keeps."""

    def test_table_closes_with_equal_layers(self, n):
        zig = _expn_ziggurat(n)
        norm = 2.0 ** (1.0 / n) * math.gamma(1.0 + 1.0 / n)  # the integral of exp(-x^n / 2)
        r = zig.width[1]
        assert r == pytest.approx((2.0 * zig.t_r) ** (1.0 / n), rel=1e-15)
        assert np.array_equal(zig.inner[:-1], zig.width[1:]) and zig.inner[-1] == 0.0
        assert np.all(np.diff(zig.width[1:]) < 0.0)
        # a rounded x_i carries a relative error of n ulps into t = x_i^n / 2 <= t_r, and t times that into f
        rtol = 1e-12 + zig.t_r * n * 2.3e-16
        assert np.allclose(zig.heights[1:-1], np.exp(-0.5 * zig.width[1:] ** n), rtol=rtol, atol=0.0)
        v = r * math.exp(-zig.t_r) + norm * (1.0 - float(_expn_cdf(np.array(r), 1.0, n)))
        areas = np.append(zig.width[0] * zig.heights[1], zig.width[1:] * np.diff(zig.heights[1:]))
        assert np.allclose(areas, v, rtol=1e-9, atol=0.0)  # the top layer's included
        assert zig.heights[-1] == 1.0  # the top layer reaches f(0)
        assert _LAYERS * v > norm  # the layers cover the density

    def test_tail_path_alone_passes_ks(self, n):
        # X given X > r, against (F(x) - F(r)) / (1 - F(r))
        k, zig = 50_000, _expn_ziggurat(n)
        r = zig.width[1]
        draws = np.sort(zig._tail(k, np.random.default_rng(7 + n)))
        assert draws[0] > r
        f_r = float(_expn_cdf(np.array(r), 1.0, n))
        cdf_vals = (_expn_cdf(draws, 1.0, n) - f_r) / (1.0 - f_r)
        d = max((np.arange(1, k + 1) / k - cdf_vals).max(), (cdf_vals - np.arange(0, k) / k).max())
        assert d < 1.63 / math.sqrt(k)

    def test_first_two_moments(self, n):
        # E[X^j] = s^j 2^(j/n) Gamma((j+1)/n) / Gamma(1/n); each sample mean within 5 standard errors
        k, s = 400_000, 0.8
        draws = tt.ExpNParams(s, n).sample(k, np.random.default_rng(100 + n))

        def moment(j):
            return s**j * math.exp(j / n * math.log(2.0) + math.lgamma((j + 1) / n) - math.lgamma(1.0 / n))

        for j in (1, 2):
            band = 5.0 * math.sqrt((moment(2 * j) - moment(j) ** 2) / k)
            assert abs(np.mean(draws**j) - moment(j)) < band

    @pytest.mark.parametrize("k", [1, 2**15, 2**15 + 1, 3 * 2**15 + 5])
    def test_stream_order_matches_a_reference_sampler(self, n, k):
        # the rectangle pass runs in blocks, yet the draws and the stream after them are those
        # of the whole-array reference: all rectangle uniforms first, then the rejects in order
        rng, expected_rng = np.random.default_rng(k), np.random.default_rng(k)
        draws = tt.ExpNParams(1.3, n).sample(k, rng)
        assert draws.tobytes() == reference_expn_draws(1.3, n, k, expected_rng).tobytes()
        assert rng.random() == expected_rng.random()


@pytest.mark.parametrize("n", [1, 4])
def test_two_million_draws_pass_ks(n):
    # the wedges hold about 1% of the layers' area: accepting every wedge candidate gives
    # D = 0.0017 (n = 1) and 0.0014 (n = 4) here, past the 1% critical value 0.00115
    k = 2_000_000
    draws = np.sort(tt.ExpNParams(1.0, n).sample(k, np.random.default_rng(5)))
    cdf_vals = _expn_cdf(draws, 1.0, n)
    d = max((np.arange(1, k + 1) / k - cdf_vals).max(), (cdf_vals - np.arange(0, k) / k).max())
    assert d < 1.63 / math.sqrt(k)


def test_reference_sampler_meets_every_reject_path():
    # at its largest size the stream-order test meets the tail and over 100 wedge tests at n = 4
    zig = _expn_ziggurat(4)
    u = np.random.default_rng(3 * 2**15 + 5).random(3 * 2**15 + 5) * 256
    layer = u.astype(np.intp)
    rejected = layer[(u - layer) * zig.width[layer] >= zig.inner[layer]]
    assert (rejected == 0).any() and (rejected > 0).sum() > 100


def test_ziggurat_tables_are_built_on_first_draw_and_kept():
    _expn_ziggurat.cache_clear()
    tt.ExpNParams(1.0, 6)  # a record builds nothing
    assert _expn_ziggurat.cache_info().currsize == 0
    tt.ExpNParams(1.0, 6).sample(3, np.random.default_rng(0))
    tt.ExpNParams(2.0, 6).sample(3, np.random.default_rng(0))
    assert _expn_ziggurat.cache_info().currsize == 1
    assert not _expn_ziggurat(6).width.flags.writeable


@pytest.mark.parametrize("out", [np.empty(4), np.empty((1, 5))], ids=["short", "2-d"])
def test_sample_into_out_of_another_shape_is_refused(out):
    with pytest.raises(ValueError, match=r"^out must have shape \(5,\)"):
        tt.SeverityModel(tt.Exp4Params(1.0)).sample(5, np.random.default_rng(0), out=out)


@pytest.mark.parametrize("out", [np.empty(4), np.empty((1, 5)), np.empty(0)], ids=["short", "2-d", "empty"])
def test_record_sample_into_out_of_another_shape_is_refused(out):
    with pytest.raises(ValueError, match=r"^out must have shape \(5,\)"):
        tt.Exp4Params(1.0).sample(5, np.random.default_rng(0), out=out)


@pytest.mark.parametrize("power", [True, 2.0, np.float64(4.0), np.array(4.0), "4"])
@pytest.mark.parametrize("name, least, check", [
    ("n", 1, check_power),
    ("n", 1, check_even_power),
    ("n", 1, lambda n: tt.ExpNParams(1.0, n)),
    ("trials", 1000, lambda k: tt.LdaConfig(trials=k)),
    ("seed", 0, lambda k: tt.LdaConfig(seed=k)),
    ("loss_count", 1, lambda k: tt.annual_frequency(k, 5.0)),
    ("n_points", 2, lambda k: tt.null_critical_value(5.0, k)),
], ids=["check_power", "check_even_power", "record", "trials", "seed", "loss_count", "n_points"])
def test_power_that_is_not_an_integer_is_refused(name, least, check, power):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got {re.escape(repr(power))}$"):
        check(power)


# Every public positive-real parameter, as (name, build from a value); 1 is a valid value of each.
POSITIVE_REALS = [
    ("s", lambda v: tt.ExpNParams(v, 4)),
    ("sigma", lambda v: tt.NormalParams(1.0, v)),
    ("sigma", lambda v: tt.LogNormalParams(0.0, v)),
    ("tau", lambda v: tt.WeibullParams(v, 1.0)),
    ("theta", lambda v: tt.WeibullParams(1.0, v)),
    ("theta", lambda v: tt.ParetoParams(v, 2.0)),
    ("alpha", lambda v: tt.ParetoParams(1.0, v)),
    ("value", tt.PointMassParams),
    ("scaling_mean", lambda v: tt.SeverityModel(tt.ExpNParams(1.0), v)),
    ("lam", tt.PoissonFreq),
    ("mean", lambda v: tt.NegativeBinomialFreq(v, 2.0)),
    ("dispersion", lambda v: tt.NegativeBinomialFreq(8.0, v)),
    ("lam", tt.NormalApproxFreq),
    ("years", lambda v: tt.annual_frequency(3, v)),
    ("span_years", lambda v: tt.AggregatedLossSet((1.0, 2.0), v)),
    ("amount", lambda v: tt.LossRecord(v, date(2016, 1, 1))),
]
POSITIVE_REAL_IDS = ["expn-s", "normal-sigma", "lognormal-sigma", "weibull-tau", "weibull-theta", "pareto-theta",
                     "pareto-alpha", "pointmass-value", "model-scaling_mean", "poisson-lam", "negbin-mean",
                     "negbin-dispersion", "normalapprox-lam", "annual_frequency-years", "lossset-span_years", "record-amount"]


@pytest.mark.parametrize("value", ["1.5", b"1.5", True, np.bool_(True), None, math.nan, math.inf, -math.inf, 0, 0.0,
                                   -1.0, np.float64(-2.0), np.array([1.0]), np.array([1.0, 2.0])])
@pytest.mark.parametrize("name, build", POSITIVE_REALS, ids=POSITIVE_REAL_IDS)
def test_positive_real_refuses_what_is_not_a_finite_positive_number(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build(value)


@pytest.mark.parametrize("value", [1, 1.0, np.float64(1.0), np.int64(1), np.array(1.0), np.array(1)])
@pytest.mark.parametrize("name, build", POSITIVE_REALS, ids=POSITIVE_REAL_IDS)
def test_positive_real_accepts_any_real_scalar_as_the_float(name, build, value):
    assert build(value) == build(1.0)
    assert repr(build(value)) == repr(build(1.0))  # the record holds the float, not the caller's type


# The Normal and LogNormal location mu, which may be any finite real number.
LOCATIONS = [lambda v: tt.NormalParams(v, 0.2), lambda v: tt.LogNormalParams(v, 0.2)]


@pytest.mark.parametrize("value", ["1", b"1", True, np.bool_(False), None, math.nan, math.inf, -math.inf,
                                   np.array([1.0])])
@pytest.mark.parametrize("build", LOCATIONS, ids=["normal", "lognormal"])
def test_location_refuses_what_is_not_a_finite_real(build, value):
    with pytest.raises(ValueError, match="^mu must be "):
        build(value)


@pytest.mark.parametrize("value", [-1, -1.0, np.float64(-1.0), np.int64(-1), np.array(-1.0)])
@pytest.mark.parametrize("build", LOCATIONS, ids=["normal", "lognormal"])
def test_location_accepts_any_finite_real_scalar_as_the_float(build, value):
    assert build(value) == build(-1.0)
    assert repr(build(value)) == repr(build(-1.0))


@pytest.mark.parametrize("name", ["exp4", "expn1", "expn100", "weibull", "pareto"])
@pytest.mark.parametrize("x", [-0.5, np.array([0.5, -1e-300])], ids=["scalar", "array"])
def test_negative_x_is_refused_where_the_support_starts_at_zero(name, x):
    params = FAMILY_RECORDS[name]
    for method in (params.pdf, params.cdf):
        with pytest.raises(ValueError, match="^x must be >= 0$"):
            method(x)


@pytest.mark.parametrize("x", [float("nan"), np.array([0.5, np.nan])], ids=["scalar", "array"])
def test_expn_cdf_refuses_nan_x(x):
    with pytest.raises(ValueError, match="^x must not contain NaN$"):
        tt.ExpNParams(1.0, 4).cdf(x)


def test_exp4_record_is_expn_with_power_four():
    exp4, expn = tt.Exp4Params(1.3), tt.ExpNParams(1.3, 4)
    assert exp4.n == 4 and exp4 == expn and len({exp4, expn}) == 1
    assert repr(exp4) == "ExpNParams(s=1.3, n=4)"
    assert tt.SeverityModel(exp4, scaling_mean=2.0) == tt.SeverityModel(expn, scaling_mean=2.0)
    xs = np.linspace(0.0, 4.0, 81)
    ps = np.array([0.0, 1e-9, 0.25, 0.5, 0.999, 1.0 - 1e-12])
    assert np.array_equal(exp4.pdf(xs), expn.pdf(xs))
    assert np.array_equal(exp4.cdf(xs), expn.cdf(xs))
    assert np.array_equal(exp4.quantile(ps), expn.quantile(ps))
    for k in (1, 4096):
        assert np.array_equal(exp4.sample(k, np.random.default_rng(k)), expn.sample(k, np.random.default_rng(k)))


@pytest.mark.parametrize("count", [2.7, 3.0, np.float64(3.0), np.array(3.0), "3", True])
@pytest.mark.parametrize("draw", [
    lambda count, rng: tt.ExpNParams(1.0, 4).sample(count, rng),
    lambda count, rng: tt.SeverityModel(tt.Exp4Params(1.0), scaling_mean=2.0).sample(count, rng),
    lambda count, rng: tt.SeverityModel(tt.NormalParams(1.0, 0.2)).sample(count, rng),
], ids=["record-expn", "model-exp4", "model-normal"])
def test_sample_count_that_is_not_an_integer_is_refused(draw, count):
    with pytest.raises(ValueError, match=f"^count must be an integer >= [01], got {re.escape(repr(count))}$"):
        draw(count, np.random.default_rng(0))
    assert draw(np.int64(3), np.random.default_rng(0)).shape == (3,)


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("length, rows, sizes", [(10, 4, [4, 4, 2]), (8, 4, [4, 4]), (3, 4, [3])])
def test_chunk_grid_hands_every_row_to_one_fill(monkeypatch, workers, length, rows, sizes):
    # a short last chunk, a whole number of chunks, and an out shorter than one chunk
    monkeypatch.setenv("THINTAIL_THREADS", workers)
    out = np.zeros(length)
    calls = []

    def fill(chunk, rng, rows_out):
        calls.append((chunk, rows_out.size, rng.random()))
        rows_out += 1.0

    _run_chunks(11, out, rows, fill)
    assert sorted(calls) == [(k, size, _chunk_rng(11, k).random()) for k, size in enumerate(sizes)]
    assert (out == 1.0).all()
