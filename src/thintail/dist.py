"""Severity distributions: the very-thin-tailed power-exponential family
(``Exp4`` and its power-n generalization ``ExpN``), a two-component Exp4
mixture, and the Normal / LogNormal / Weibull / Pareto baselines.

Every family exposes density, CDF, quantile and random sampling.  The
power-exponential density on x > 0 is

    f(x; s, n) = exp(-x^n / (2 s^n)) / (s * 2^(1/n) * Gamma(1 + 1/n))

with CDF 1 - Q(1/n, x^n / (2 s^n)) in terms of the regularized upper
incomplete gamma function Q.  ``Exp4`` is exactly ``ExpN`` with n = 4.

Q is ``scipy.special.gammaincc``.  The quantile is closed-form,
x = s * (2 g)^(1/n) with g the inverse of the regularized incomplete
gamma function at shape 1/n: ``gammainccinv(1/n, 1 - p)`` for p > 0.5,
where 1 - p is exact and the far tail keeps full precision, and
``gammaincinv(1/n, p)`` otherwise.  Scalars and arrays take the same
path, and quantiles and samples scale exactly with s.

In the far lower tail, where x^n / (2 s^n) or the inverse P^-1(1/n, p)
falls below the smallest normal double (x below about 8e-4 s at
n = 100), both would lose precision or underflow to 0.  There the CDF
is linear to double precision, F(x) = x f(0) (1 - x^n/(2 s^n)/(n+1)
+ ...), so the CDF returns x f(0) and the quantile p / f(0).

Two interchangeable samplers are provided for the power-exponential
family: the default draws G ~ Gamma(shape=1/n, scale=1) and returns
s * (2 G)^(1/n) (a change of variables shows this has the CDF above;
numpy's ``standard_gamma`` is exact for shape < 1), while ``"inverse"``
pushes uniforms through the quantile function.

Distribution parameter objects are immutable.  Sampling takes an
explicit ``numpy.random.Generator``; callers own their streams, and
parallel use requires independently seeded substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainccinv, gammaincinv, ndtr, ndtri
from scipy.special import gammaincc as regularized_upper_gamma

__all__ = [
    "Exp4Params",
    "ExpNParams",
    "Exp4MixtureParams",
    "NormalParams",
    "LogNormalParams",
    "WeibullParams",
    "ParetoParams",
    "PointMassParams",
    "SeverityModel",
    "exp4_pdf",
    "exp4_cdf",
    "exp4_quantile",
    "exp4_sample",
    "expn_pdf",
    "expn_cdf",
    "expn_quantile",
    "expn_sample",
    "exp4_mixture_pdf",
    "exp4_mixture_cdf",
    "exp4_mixture_sample",
    "baseline_pdf",
    "baseline_cdf",
    "baseline_quantile",
    "baseline_sample",
]

_TINY = np.finfo(np.float64).tiny  # smallest normal double


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exp4Params:
    """Scale parameter of the Exp4 distribution (units of scaled loss)."""

    s: float

    def __post_init__(self):
        _require_positive("s", self.s)


@dataclass(frozen=True)
class ExpNParams:
    """Scale and integer power of the ExpN distribution; n = 4 is Exp4."""

    s: float
    n: int

    def __post_init__(self):
        _require_positive("s", self.s)
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")


@dataclass(frozen=True)
class Exp4MixtureParams:
    """Two-component Exp4 mixture: (1 - p)*Exp4(s1) + p*Exp4(s2)."""

    p: float
    s1: float
    s2: float

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"mixture weight p must lie in (0, 1), got {self.p!r}")
        _require_positive("s1", self.s1)
        _require_positive("s2", self.s2)


@dataclass(frozen=True)
class NormalParams:
    mu: float
    sigma: float

    def __post_init__(self):
        _require_positive("sigma", self.sigma)


@dataclass(frozen=True)
class LogNormalParams:
    mu: float
    sigma: float

    def __post_init__(self):
        _require_positive("sigma", self.sigma)


@dataclass(frozen=True)
class WeibullParams:
    """Weibull with shape tau in (0, 1] (tau < 1 is the fat-tailed regime)."""

    tau: float
    theta: float

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must lie in (0, 1], got {self.tau!r}")
        _require_positive("theta", self.theta)


@dataclass(frozen=True)
class ParetoParams:
    theta: float
    alpha: float

    def __post_init__(self):
        _require_positive("theta", self.theta)
        _require_positive("alpha", self.alpha)


@dataclass(frozen=True)
class PointMassParams:
    """Degenerate severity concentrated at a single value (testing aid)."""

    value: float

    def __post_init__(self):
        _require_positive("value", self.value)


BaselineParams = NormalParams | LogNormalParams | WeibullParams | ParetoParams


# ---------------------------------------------------------------------------
# power-exponential core (ExpN)
# ---------------------------------------------------------------------------

def _check_xs(x, s: float, n: int) -> np.ndarray:
    _require_positive("s", s)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any():
        raise ValueError("x must be >= 0")
    return arr


def _expn_unit_norm(n: int) -> float:
    """1 / f(0) for ExpN(1, n): 2^(1/n) Gamma(1 + 1/n)."""
    return math.exp(math.log(2.0) / n + math.lgamma(1.0 + 1.0 / n))


def _expn_exponent(x: np.ndarray, s: float, n: int) -> np.ndarray:
    """x^n / (2 s^n), evaluated as (x/s)^n / 2; overflow saturates to inf."""
    with np.errstate(over="ignore"):
        return 0.5 * np.power(x / s, n)


def expn_pdf(x, s, n):
    """Density of ExpN(s, n) at x >= 0."""
    arr = _check_xs(x, s, n)
    log_norm = math.log(s) + math.log(2.0) / n + math.lgamma(1.0 + 1.0 / n)
    with np.errstate(under="ignore"):
        out = np.exp(-_expn_exponent(arr, float(s), int(n)) - log_norm)
    return float(out) if arr.ndim == 0 else out


def expn_cdf(x, s, n):
    """CDF of ExpN(s, n): 1 - Q(1/n, x^n / (2 s^n)).

    Where x^n / (2 s^n) is below the smallest normal double it is x f(0).
    """
    arr = _check_xs(x, s, n)
    u = _expn_exponent(arr, float(s), int(n))
    out = 1.0 - regularized_upper_gamma(1.0 / n, u)
    if u.min(initial=np.inf) < _TINY:
        out = np.where(u < _TINY, (arr / float(s)) / _expn_unit_norm(n), out)
    return float(out) if arr.ndim == 0 else out


def expn_quantile(p, s, n):
    """Quantile of ExpN(s, n) for p in [0, 1): s * (2 g)^(1/n), g = P^-1(1/n, p).

    Where g is below the smallest normal double it is p / f(0).
    """
    _require_positive("s", s)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    arr = np.asarray(p, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any() or (arr >= 1.0).any():
        raise ValueError("p must lie in [0, 1)")
    upper = arr > 0.5
    g = np.empty_like(arr)
    g[~upper] = gammaincinv(1.0 / n, arr[~upper])
    g[upper] = gammainccinv(1.0 / n, 1.0 - arr[upper])
    out = float(s) * np.where(g < _TINY, arr * _expn_unit_norm(n), np.power(2.0 * g, 1.0 / n))
    return float(out) if arr.ndim == 0 else out


def expn_sample(count, s, n, rng: np.random.Generator, method: str = "gamma"):
    """Draw ``count`` ExpN(s, n) variates from ``rng``.

    method "gamma": s * (2 G)^(1/n) with G ~ Gamma(1/n, 1).
    method "inverse": quantile function applied to uniforms.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    return _expn_draw(int(count), s, n, rng, method)


def _expn_draw(count: int, s, n, rng: np.random.Generator, method: str = "gamma") -> np.ndarray:
    _require_positive("s", s)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if method == "gamma":
        g = rng.standard_gamma(1.0 / n, size=count)
        return float(s) * np.power(2.0 * g, 1.0 / n)
    if method == "inverse":
        u = rng.random(count)
        return expn_quantile(u, s, n)
    raise ValueError(f"unknown sampler method {method!r}")


# Exp4 == ExpN with n = 4.

def exp4_pdf(x, s):
    return expn_pdf(x, s, 4)


def exp4_cdf(x, s):
    return expn_cdf(x, s, 4)


def exp4_quantile(p, s):
    return expn_quantile(p, s, 4)


def exp4_sample(count, s, rng: np.random.Generator, method: str = "gamma"):
    return expn_sample(count, s, 4, rng, method)


# ---------------------------------------------------------------------------
# Exp4 mixture
# ---------------------------------------------------------------------------

def exp4_mixture_pdf(x, params: Exp4MixtureParams):
    return (1.0 - params.p) * exp4_pdf(x, params.s1) + params.p * exp4_pdf(x, params.s2)


def exp4_mixture_cdf(x, params: Exp4MixtureParams):
    return (1.0 - params.p) * exp4_cdf(x, params.s1) + params.p * exp4_cdf(x, params.s2)


def exp4_mixture_sample(count, params: Exp4MixtureParams, rng: np.random.Generator):
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    count = int(count)
    pick_second = rng.random(count) < params.p
    scale = np.where(pick_second, params.s2, params.s1)
    g = rng.standard_gamma(0.25, size=count)
    return scale * np.power(2.0 * g, 0.25)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def _as_float_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("x must not contain NaN")
    return arr


def _scalar_or_array(value: np.ndarray, was_scalar: bool):
    return float(value) if was_scalar else value


def baseline_pdf(x, params: BaselineParams):
    arr = _as_float_array(x)
    scalar = arr.ndim == 0
    if isinstance(params, NormalParams):
        z = (arr - params.mu) / params.sigma
        out = np.exp(-0.5 * z * z) / (params.sigma * math.sqrt(2.0 * math.pi))
    elif isinstance(params, LogNormalParams):
        out = np.zeros(np.atleast_1d(arr).shape, dtype=float)
        pos = np.atleast_1d(arr) > 0.0
        xp = np.atleast_1d(arr)[pos]
        z = (np.log(xp) - params.mu) / params.sigma
        out[pos] = np.exp(-0.5 * z * z) / (xp * params.sigma * math.sqrt(2.0 * math.pi))
        out = out.reshape(arr.shape)
    elif isinstance(params, WeibullParams):
        _check_nonneg(arr)
        r = np.atleast_1d(arr) / params.theta
        out = np.zeros_like(r)
        pos = r > 0.0
        with np.errstate(under="ignore"):
            out[pos] = (params.tau / params.theta) * r[pos] ** (params.tau - 1.0) * np.exp(-r[pos] ** params.tau)
        if params.tau == 1.0:
            out[~pos] = 1.0 / params.theta
        else:
            out[~pos] = np.inf  # shape < 1 density diverges at the origin
        out = out.reshape(arr.shape)
    elif isinstance(params, ParetoParams):
        _check_nonneg(arr)
        out = (params.alpha / params.theta) * np.power(1.0 + arr / params.theta, -params.alpha - 1.0)
    else:
        raise ValueError(f"no density for baseline parameters {params!r}")
    return _scalar_or_array(out, scalar)


def _check_nonneg(arr: np.ndarray):
    if (arr < 0.0).any():
        raise ValueError("x must be >= 0 for this family")


def baseline_cdf(x, params: BaselineParams):
    arr = _as_float_array(x)
    scalar = arr.ndim == 0
    if isinstance(params, NormalParams):
        out = ndtr((arr - params.mu) / params.sigma)
    elif isinstance(params, LogNormalParams):
        flat = np.atleast_1d(arr)
        out = np.zeros(flat.shape, dtype=float)
        pos = flat > 0.0
        out[pos] = ndtr((np.log(flat[pos]) - params.mu) / params.sigma)
        out = out.reshape(arr.shape)
    elif isinstance(params, WeibullParams):
        _check_nonneg(arr)
        with np.errstate(under="ignore"):
            out = -np.expm1(-np.power(arr / params.theta, params.tau))
    elif isinstance(params, ParetoParams):
        _check_nonneg(arr)
        out = 1.0 - np.power(1.0 + arr / params.theta, -params.alpha)
    else:
        raise ValueError(f"no CDF for baseline parameters {params!r}")
    return _scalar_or_array(out, scalar)


def baseline_quantile(p, params: BaselineParams):
    arr = np.asarray(p, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any() or (arr >= 1.0).any():
        raise ValueError("p must lie in [0, 1)")
    scalar = arr.ndim == 0
    if isinstance(params, NormalParams):
        out = params.mu + params.sigma * ndtri(arr)
    elif isinstance(params, LogNormalParams):
        out = np.exp(params.mu + params.sigma * ndtri(arr))
    elif isinstance(params, WeibullParams):
        out = params.theta * np.power(-np.log1p(-arr), 1.0 / params.tau)
    elif isinstance(params, ParetoParams):
        out = params.theta * (np.power(1.0 - arr, -1.0 / params.alpha) - 1.0)
    else:
        raise ValueError(f"no quantile for baseline parameters {params!r}")
    return _scalar_or_array(out, scalar)


def baseline_sample(count, params: BaselineParams, rng: np.random.Generator):
    """Draw ``count`` baseline severities; Normal draws are resampled to x >= 0."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    return _baseline_draw(int(count), params, rng)


def _baseline_draw(count: int, params, rng: np.random.Generator) -> np.ndarray:
    if isinstance(params, NormalParams):
        out = rng.normal(params.mu, params.sigma, size=count)
        for _ in range(10_000):
            neg = out < 0.0
            if not neg.any():
                return out
            out[neg] = rng.normal(params.mu, params.sigma, size=int(neg.sum()))
        raise RuntimeError("truncated-Normal resampling failed to terminate; mu is far below 0")
    if isinstance(params, LogNormalParams):
        return rng.lognormal(params.mu, params.sigma, size=count)
    if isinstance(params, WeibullParams):
        return params.theta * rng.weibull(params.tau, size=count)
    if isinstance(params, ParetoParams):
        return baseline_quantile(rng.random(count), params)
    raise ValueError(f"cannot sample from {params!r}")


# ---------------------------------------------------------------------------
# tagged severity model with de-scaling record
# ---------------------------------------------------------------------------

AnyParams = (
    Exp4Params
    | ExpNParams
    | Exp4MixtureParams
    | NormalParams
    | LogNormalParams
    | WeibullParams
    | ParetoParams
    | PointMassParams
)


@dataclass(frozen=True)
class SeverityModel:
    """A fitted severity distribution in raw loss units (mEUR).

    The distribution parameters live on the mean-scaled axis; the
    recorded ``scaling_mean`` (mEUR per scaled unit) maps between the
    two, so ``cdf``/``pdf``/``quantile``/``sample`` all operate in mEUR.
    """

    params: AnyParams
    scaling_mean: float = 1.0

    def __post_init__(self):
        _require_positive("scaling_mean", self.scaling_mean)
        if not isinstance(
            self.params,
            (
                Exp4Params,
                ExpNParams,
                Exp4MixtureParams,
                NormalParams,
                LogNormalParams,
                WeibullParams,
                ParetoParams,
                PointMassParams,
            ),
        ):
            raise ValueError(f"unsupported parameter record {self.params!r}")

    @property
    def family(self) -> str:
        return type(self.params).__name__.removesuffix("Params").lower()

    def pdf(self, x):
        m = self.scaling_mean
        p = self.params
        z = np.asarray(x, dtype=float) / m
        if isinstance(p, Exp4Params):
            return exp4_pdf(z, p.s) / m
        if isinstance(p, ExpNParams):
            return expn_pdf(z, p.s, p.n) / m
        if isinstance(p, Exp4MixtureParams):
            return exp4_mixture_pdf(z, p) / m
        if isinstance(p, PointMassParams):
            raise ValueError("point-mass severity has no density")
        return baseline_pdf(z, p) / m

    def cdf(self, x):
        m = self.scaling_mean
        p = self.params
        z = np.asarray(x, dtype=float) / m
        if isinstance(p, Exp4Params):
            return exp4_cdf(z, p.s)
        if isinstance(p, ExpNParams):
            return expn_cdf(z, p.s, p.n)
        if isinstance(p, Exp4MixtureParams):
            return exp4_mixture_cdf(z, p)
        if isinstance(p, PointMassParams):
            out = np.where(z >= p.value, 1.0, 0.0)
            return float(out) if out.ndim == 0 else out
        return baseline_cdf(z, p)

    def quantile(self, p_):
        m = self.scaling_mean
        p = self.params
        if isinstance(p, Exp4Params):
            return m * exp4_quantile(p_, p.s)
        if isinstance(p, ExpNParams):
            return m * expn_quantile(p_, p.s, p.n)
        if isinstance(p, PointMassParams):
            arr = np.asarray(p_, dtype=float)
            if (arr < 0.0).any() or (arr >= 1.0).any():
                raise ValueError("p must lie in [0, 1)")
            out = np.full(arr.shape, m * p.value)
            return float(out) if arr.ndim == 0 else out
        if isinstance(p, Exp4MixtureParams):
            raise ValueError("mixture quantile is not provided")
        return m * baseline_quantile(p_, p)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` (>= 0) severities in mEUR."""
        if count < 0:
            raise ValueError("count must be >= 0")
        m = self.scaling_mean
        p = self.params
        if count == 0:
            return np.empty(0, dtype=float)
        if isinstance(p, Exp4Params):
            return m * _expn_draw(count, p.s, 4, rng)
        if isinstance(p, ExpNParams):
            return m * _expn_draw(count, p.s, p.n, rng)
        if isinstance(p, Exp4MixtureParams):
            return m * exp4_mixture_sample(count, p, rng)
        if isinstance(p, PointMassParams):
            return np.full(count, m * p.value)
        return m * _baseline_draw(count, p, rng)
