"""Severity distributions: the very-thin-tailed power-exponential family
(``Exp4`` and its power-n generalization ``ExpN``) and the Normal /
LogNormal / Weibull / Pareto baselines.

Each family is a frozen parameter record with ``pdf``, ``cdf``,
``quantile`` and ``sample(count, rng, out=None)`` on the mean-scaled
axis, and ``SeverityModel`` maps them to loss units.  Caller input has
one front door, ``SeverityParams``: it checks x, p or the count and
calls the family's array-only ``_pdf``, ``_cdf``, ``_quantile`` or
``_draw``.  An ExpN evaluation is a call of its record,
``ExpNParams(s, n).cdf(x)``, which refuses an array ``s`` or ``n``; only
the scale search in ``fit`` broadcasts arrays of scales and powers,
through the unchecked CDF kernel ``_expn_cdf``.

Each kind of checked input has one rule here, whose error names the
parameter: ``_require_positive`` (a finite real number > 0, not a str,
bytes, bool or None; records store it as a float), ``_require_finite``
(a finite real number, such as a Normal or LogNormal ``mu``),
``_require_between`` (a real number in an open range), ``_require_int``
(an integer >= a least value, not a bool or a float) and
``_require_losses`` (a 1-d sample of at least 2 losses, or of as many as
its caller asks, each finite and > 0).

The power-exponential density on x > 0 is

    f(x; s, n) = exp(-x^n / (2 s^n)) / (s * 2^(1/n) * Gamma(1 + 1/n))

with CDF P(1/n, u) = 1 - Q(1/n, u), u = x^n / (2 s^n), where P and Q are
the regularized lower and upper incomplete gamma functions.  ``Exp4`` is
``ExpN`` at its default n = 4, and ``Exp4Params`` is an alias of ``ExpNParams``.

Below u = 1/n + 1 the CDF is P = ``scipy.special.gammainc``, as 1 - Q
cancels there; above, it is 1 - Q with Q = ``scipy.special.gammaincc``.
The quantile is closed-form, x = s * (2 g)^(1/n) with g the inverse of
P at shape 1/n: ``gammainccinv(1/n, 1 - p)`` for p > 0.5, where 1 - p is
exact and the far tail keeps full precision, and ``gammaincinv(1/n, p)``
otherwise.  Scalars and arrays take the same path, and quantiles and
samples scale exactly with s.

In the far lower tail, where x^n / (2 s^n) or the inverse P^-1(1/n, p)
falls below the smallest normal double (x below about 8e-4 s at
n = 100), both would lose precision or underflow to 0.  There the CDF
is linear to double precision, F(x) = x f(0) (1 - x^n/(2 s^n)/(n+1)
+ ...), so the CDF returns x f(0) and the quantile p / f(0).

The power-exponential sampler draws X = s * (2 G)^(1/n) with
G ~ Gamma(1/n, 1) (a change of variables shows this has the CDF above).
G is drawn as G1 * U^n with G1 ~ Gamma(1 + 1/n, 1) and U ~ Uniform[0, 1)
independent (Stuart, Biometrika 1962), so X = s * (2 G1)^(1/n) * U:
- numpy draws a gamma of shape >= 1 by Marsaglia-Tsang, about one normal
  and one uniform per draw, where shape < 1 takes a slower rejection loop;
- U carries the far lower tail at the resolution of a uniform double,
  where a Gamma(1/n) draw would fall below the smallest normal double
  and lose its digits (at n = 100 some would be exactly 0).
The RNG calls are one ``standard_gamma(1 + 1/n, count)`` block, then the
``count`` uniforms, drawn in blocks of 2^14 into one small buffer: the
stream and the values are those of one ``random(count)`` block, but no
second array of ``count`` doubles is made.  The draws are made in place
(``sample(count, rng, out=...)`` fills a caller's buffer).
Inverse-CDF draws are the quantile of uniforms, ``quantile(rng.random(count))``.

Distribution parameter objects are immutable.  Sampling takes an
explicit ``numpy.random.Generator``; callers own their streams.  Every
simulation runs on one seeded chunk grid, ``_run_chunks``: chunk k draws
from its own SFC64 stream, the seed's ``SeedSequence`` at spawn key (k,),
on THINTAIL_THREADS workers, so its values never depend on the worker count.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammainccinv, gammaincinv, ndtr, ndtri
from scipy.special import gammaincc as regularized_upper_gamma

__all__ = [
    "SeverityParams",
    "Exp4Params",
    "ExpNParams",
    "NormalParams",
    "LogNormalParams",
    "WeibullParams",
    "ParetoParams",
    "PointMassParams",
    "SeverityModel",
]

_TINY = np.finfo(np.float64).tiny  # smallest normal double
_UNIFORM_BLOCK = 2**14  # uniforms per block of the ExpN sampler


def _require_scalar(name: str, value) -> None:
    if np.ndim(value):
        raise ValueError(f"{name} must be a scalar, got shape {np.shape(value)}")


def _require_real(name: str, value) -> float:
    """``value`` as a float, if it is one real number: an int, a float, a numpy scalar or a 0-d
    array; a str, bytes, bool or None is refused."""
    _require_scalar(name, value)
    number = np.asarray(value)[()]
    if isinstance(number, (bool, np.bool_)) or not isinstance(number, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(number)


def _require_positive(name: str, value) -> float:
    """``value`` as a float, if it is a real number (see ``_require_real``) that is finite and > 0."""
    number = _require_real(name, value)
    if not (math.isfinite(number) and number > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {number!r}")
    return number


def _require_finite(name: str, value) -> float:
    """``value`` as a float, if it is a real number (see ``_require_real``) that is finite."""
    number = _require_real(name, value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


def _require_between(name: str, value, low: float, high: float) -> float:
    """``value`` as a float, if it is a real number (see ``_require_real``) strictly between ``low`` and ``high``."""
    number = _require_real(name, value)
    if not low < number < high:
        raise ValueError(f"{name} must lie in ({low:g}, {high:g}), got {number!r}")
    return number


def _positive_fields(record, *names: str) -> None:
    """Store each named field of the frozen dataclass ``record`` as ``_require_positive`` returns it."""
    for name in names:
        object.__setattr__(record, name, _require_positive(name, getattr(record, name)))


def as_int(value) -> int | None:
    """``value`` as an int if it is an integer scalar (not a bool, nor a float such as 3.0), else None."""
    if np.ndim(value) == 0 and not isinstance(value, (bool, np.bool_)):
        with suppress(TypeError):
            return operator.index(value)
    return None


def _require_int(name: str, value, least: int) -> int:
    """``value`` as an int, if it is an integer >= ``least`` (see ``as_int``)."""
    _require_scalar(name, value)
    k = as_int(value)
    if k is None or k < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return k


def _require_losses(losses, least: int = 2) -> np.ndarray:
    """``losses`` as a float array, if it is a 1-d sample of at least ``least`` losses, each finite and > 0."""
    arr = np.asarray(losses, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"losses must be a 1-d sequence, got shape {arr.shape}")
    if arr.size < least:
        raise ValueError(f"need at least {least} {'loss' if least == 1 else 'losses'}, got {arr.size}")
    if not np.isfinite(arr).all() or (arr <= 0.0).any():
        raise ValueError("losses must be finite and > 0")
    return arr


def check_power(n) -> int:
    """``n`` if it is an integer >= 1, the powers a power-exponential fit accepts."""
    return _require_int("n", n, 1)


def check_even_power(n) -> int:
    """``n`` if it is a positive even integer, the powers ``compare`` and ``curve`` accept;
    a non-integer is refused as ``check_power`` refuses it."""
    k = as_int(n)
    if k is not None and (k < 2 or k % 2):
        raise ValueError(f"ExpN power must be a positive even integer, got {n}")
    return check_power(n)


def _check_p(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if np.isnan(arr).any() or (arr < 0.0).any() or (arr >= 1.0).any():
        raise ValueError("p must lie in [0, 1)")
    return arr


def _as_float_array(x, nonneg: bool = False) -> np.ndarray:
    """``x`` as a float array; NaN, and with ``nonneg`` a negative value, raises."""
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("x must not contain NaN")
    if nonneg and (arr < 0.0).any():
        raise ValueError("x must be >= 0")
    return arr


# ---------------------------------------------------------------------------
# power-exponential core (ExpN)
# ---------------------------------------------------------------------------

def _expn_unit_norm(n):
    """1 / f(0) for ExpN(1, n): 2^(1/n) Gamma(1 + 1/n), elementwise for an array ``n``."""
    if np.ndim(n):
        return np.reshape([_expn_unit_norm(int(k)) for k in np.ravel(n)], np.shape(n))
    return math.exp(math.log(2.0) / n + math.lgamma(1.0 + 1.0 / n))


def _expn_exponent(x: np.ndarray, s, n) -> np.ndarray:
    """x^n / (2 s^n), evaluated as (x/s)^n / 2; overflow saturates to inf.

    numpy squares for a lone exponent 2 but calls ``pow`` for an array of
    exponents, which can differ in the last bit, so an array ``n`` squares
    its entries equal to 2 to match the scalar calls.
    """
    with np.errstate(over="ignore"):
        q = x / s
        p = np.power(q, n)
        if np.ndim(n) and (n == 2).any():
            p = np.where(n == 2, np.square(q), p)
        return 0.5 * p


def _expn_cdf(x: np.ndarray, s, n) -> np.ndarray:
    """CDF of ExpN(s, n) at a float array ``x >= 0``, unchecked: P(1/n, u) below u = 1/n + 1,
    else 1 - Q(1/n, u), u = x^n / (2 s^n); x f(0) where u is below the smallest normal double.

    ``x``, a float array ``s`` and an integer array ``n`` broadcast together;
    each entry equals the scalar call on it, bit for bit.
    """
    u = _expn_exponent(x, s, n)
    a = np.broadcast_to(1.0 / n, u.shape)
    lower = u < a + 1.0
    out = np.empty_like(u)
    out[lower] = gammainc(a[lower], u[lower])
    out[~lower] = 1.0 - regularized_upper_gamma(a[~lower], u[~lower])
    if u.min(initial=np.inf) < _TINY:
        out = np.where(u < _TINY, (x / s) / _expn_unit_norm(n), out)
    return out


# ---------------------------------------------------------------------------
# parameter records, one per family
# ---------------------------------------------------------------------------

def _scalar_or_array(method, arr: np.ndarray):
    """``method(arr)``, as a float when ``arr`` is 0-d."""
    out = method(arr)
    return float(out) if arr.ndim == 0 else out


class SeverityParams:
    """Base of the per-family parameter records, on the mean-scaled axis.  Its ``pdf``, ``cdf``
    and ``quantile`` (scalar or array in, the same out) are the records' front door: they check
    x (NaN; x < 0 where the family sets ``_nonneg``) or p, then call the family's array-only
    ``_pdf``, ``_cdf`` or ``_quantile``.  ``sample(count, rng, out=None)`` likewise checks the
    count (an integer >= 0) and ``out``, then calls the family's one definition of its draws,
    ``_draw(out, rng)``, which fills ``out`` in place.
    """

    _nonneg = False  # True: the family refuses x < 0

    def pdf(self, x):
        return _scalar_or_array(self._pdf, _as_float_array(x, self._nonneg))

    def cdf(self, x):
        return _scalar_or_array(self._cdf, _as_float_array(x, self._nonneg))

    def quantile(self, p):
        return _scalar_or_array(self._quantile, _check_p(p))

    def sample(self, count: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        """``count`` draws, into ``out`` (a float array of shape (count,)) when it is given."""
        count = _require_int("count", count, 0)
        if out is None:
            out = np.empty(count)
        elif out.shape != (count,):
            raise ValueError(f"out must have shape ({count},), got {out.shape}")
        if count:
            self._draw(out, rng)
        return out


@dataclass(frozen=True)
class ExpNParams(SeverityParams):
    """Scale and integer power of the ExpN distribution; the default n = 4 is Exp4."""

    s: float
    n: int = 4
    _nonneg = True

    def __post_init__(self):
        _positive_fields(self, "s")
        object.__setattr__(self, "n", check_power(self.n))

    def _pdf(self, x):
        log_norm = math.log(self.s) + math.log(2.0) / self.n + math.lgamma(1.0 + 1.0 / self.n)
        with np.errstate(under="ignore"):
            return np.exp(-_expn_exponent(x, self.s, self.n) - log_norm)

    def _cdf(self, x):
        return _expn_cdf(x, self.s, self.n)

    def _quantile(self, p):
        a, upper = 1.0 / self.n, p > 0.5
        g = np.empty_like(p)
        g[~upper] = gammaincinv(a, p[~upper])
        g[upper] = gammainccinv(a, 1.0 - p[upper])
        return self.s * np.where(g < _TINY, p * _expn_unit_norm(self.n), np.power(2.0 * g, a))

    def _draw(self, out, rng):
        a = 1.0 / self.n
        rng.standard_gamma(1.0 + a, out=out)
        out *= 2.0
        np.power(out, a, out=out)
        # every gamma precedes every uniform; blocks of uniforms make no second array of out's length
        u = np.empty(min(out.size, _UNIFORM_BLOCK))
        for lo in range(0, out.size, u.size):
            block = out[lo : lo + u.size]
            block *= rng.random(out=u[: block.size])
        out *= self.s


Exp4Params = ExpNParams  # the paper's Exp4: Exp4Params(s) is ExpNParams(s, 4)


@dataclass(frozen=True)
class NormalParams(SeverityParams):
    """Normal(mu, sigma); draws are resampled to x >= 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _require_finite("mu", self.mu))
        _positive_fields(self, "sigma")

    def _pdf(self, x):
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def _cdf(self, x):
        return ndtr((x - self.mu) / self.sigma)

    def _quantile(self, p):
        return self.mu + self.sigma * ndtri(p)

    def _draw(self, out, rng):
        rng.standard_normal(out=out)  # then mu + sigma z, as rng.normal(mu, sigma) computes it
        out *= self.sigma
        out += self.mu
        neg = np.flatnonzero(out < 0.0)
        for _ in range(10_000):
            if neg.size == 0:
                return
            redraw = rng.normal(self.mu, self.sigma, size=neg.size)
            out[neg] = redraw
            neg = neg[redraw < 0.0]
        raise RuntimeError("truncated-Normal resampling failed to terminate; mu is far below 0")


@dataclass(frozen=True)
class LogNormalParams(SeverityParams):
    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _require_finite("mu", self.mu))
        _positive_fields(self, "sigma")

    def _pdf(self, x):
        out = np.zeros(x.shape)
        pos = x > 0.0
        xp = x[pos]
        z = (np.log(xp) - self.mu) / self.sigma
        out[pos] = np.exp(-0.5 * z * z) / (xp * self.sigma * math.sqrt(2.0 * math.pi))
        return out

    def _cdf(self, x):
        out = np.zeros(x.shape)
        pos = x > 0.0
        out[pos] = ndtr((np.log(x[pos]) - self.mu) / self.sigma)
        return out

    def _quantile(self, p):
        return np.exp(self.mu + self.sigma * ndtri(p))

    def _draw(self, out, rng):
        out[...] = rng.lognormal(self.mu, self.sigma, size=out.size)


@dataclass(frozen=True)
class WeibullParams(SeverityParams):
    """Weibull with shape tau in (0, 1] (tau < 1 is the fat-tailed regime)."""

    tau: float
    theta: float
    _nonneg = True

    def __post_init__(self):
        _positive_fields(self, "tau", "theta")
        if self.tau > 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau!r}")

    def _pdf(self, x):
        r = x / self.theta
        out = np.zeros_like(r)
        pos = r > 0.0
        with np.errstate(under="ignore"):
            out[pos] = (self.tau / self.theta) * r[pos] ** (self.tau - 1.0) * np.exp(-r[pos] ** self.tau)
        out[~pos] = 1.0 / self.theta if self.tau == 1.0 else np.inf  # tau < 1 diverges at 0
        return out

    def _cdf(self, x):
        with np.errstate(under="ignore"):
            return -np.expm1(-np.power(x / self.theta, self.tau))

    def _quantile(self, p):
        return self.theta * np.power(-np.log1p(-p), 1.0 / self.tau)

    def _draw(self, out, rng):
        out[...] = rng.weibull(self.tau, size=out.size)
        out *= self.theta


@dataclass(frozen=True)
class ParetoParams(SeverityParams):
    theta: float
    alpha: float
    _nonneg = True

    def __post_init__(self):
        _positive_fields(self, "theta", "alpha")

    def _pdf(self, x):
        return (self.alpha / self.theta) * np.power(1.0 + x / self.theta, -self.alpha - 1.0)

    def _cdf(self, x):
        return 1.0 - np.power(1.0 + x / self.theta, -self.alpha)

    def _quantile(self, p):
        return self.theta * (np.power(1.0 - p, -1.0 / self.alpha) - 1.0)

    def _draw(self, out, rng):
        out[...] = self._quantile(rng.random(out.size))


@dataclass(frozen=True)
class PointMassParams(SeverityParams):
    """Degenerate severity concentrated at a single value (testing aid)."""

    value: float

    def __post_init__(self):
        _positive_fields(self, "value")

    def pdf(self, x):
        raise ValueError("point-mass severity has no density")

    def _cdf(self, x):
        return np.where(x >= self.value, 1.0, 0.0)

    def _quantile(self, p):
        return np.full(p.shape, self.value)

    def _draw(self, out, rng):
        out.fill(self.value)


# ---------------------------------------------------------------------------
# severity model with de-scaling record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeverityModel:
    """A fitted severity distribution in raw loss units (mEUR).

    The distribution parameters live on the mean-scaled axis; the
    recorded ``scaling_mean`` (mEUR per scaled unit) maps between the
    two, so ``cdf``/``pdf``/``quantile``/``sample`` all operate in mEUR.
    """

    params: SeverityParams
    scaling_mean: float = 1.0

    def __post_init__(self):
        _positive_fields(self, "scaling_mean")
        if not isinstance(self.params, SeverityParams):
            raise ValueError(f"unsupported parameter record {self.params!r}")

    def pdf(self, x):
        m = self.scaling_mean
        return self.params.pdf(np.asarray(x, dtype=float) / m) / m

    def cdf(self, x):
        return self.params.cdf(np.asarray(x, dtype=float) / self.scaling_mean)

    def quantile(self, p):
        return self.scaling_mean * self.params.quantile(p)

    def sample(self, count: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        """``params.sample(count, rng, out)``, rescaled in place to mEUR."""
        out = self.params.sample(count, rng, out)
        out *= self.scaling_mean
        return out


# ---------------------------------------------------------------------------
# the seeded chunk grid every simulation runs on
# ---------------------------------------------------------------------------

def _resolve_workers() -> int:
    """THINTAIL_THREADS, the simulation worker count: an integer >= 1, and 1 when it is unset."""
    text = os.environ.get("THINTAIL_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        raise ValueError(f"THINTAIL_THREADS must be an integer, got {text!r}") from None
    return _require_int("THINTAIL_THREADS", workers, 1)


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    # spawn key (chunk,) gives each chunk the stream SeedSequence.spawn would hand it
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk,))))


def _run_chunks(seed: int, out: np.ndarray, rows: int, fill) -> None:
    """``fill(k, _chunk_rng(seed, k), out[k * rows : (k + 1) * rows])`` for every chunk k of ``out``,
    on a pool of THINTAIL_THREADS workers: ``out`` never depends on the worker count."""
    with ThreadPoolExecutor(max_workers=_resolve_workers()) as pool:
        list(pool.map(lambda k: fill(k, _chunk_rng(seed, k), out[k * rows : (k + 1) * rows]),
                      range(-(-len(out) // rows))))
