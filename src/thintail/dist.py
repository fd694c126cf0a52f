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
the scale search in ``fit`` and ``curve``'s q999 per power
(``lda.percentile_vs_n``) broadcast arrays of scales and powers, through
the unchecked kernels the record calls, ``_expn_cdf`` and ``_expn_quantile``.

Each kind of checked input has one rule here, whose error names the
parameter: ``_require_positive`` (a finite real number > 0, not a str,
bytes, bool or None; records store it as a float), ``_require_finite``
(a finite real number, such as a Normal or LogNormal ``mu``),
``_require_between`` (a real number in an open range), ``_require_int``
(an integer >= a least value, not a bool or a float) and
``_require_losses`` (a 1-d sample of at least 2 losses, or of as many as
its caller asks, each finite and > 0; or a 2-d batch of such samples,
one a row, where its caller takes many).

The power-exponential density on x > 0 is

    f(x; s, n) = exp(-x^n / (2 s^n)) / (s * 2^(1/n) * Gamma(1 + 1/n))

with CDF P(1/n, u) = 1 - Q(1/n, u), u = x^n / (2 s^n), where P and Q are
the regularized lower and upper incomplete gamma functions.  ``Exp4`` is
``ExpN`` at its default n = 4, and ``Exp4Params`` is an alias of ``ExpNParams``.

The scale is not the one the paper's abstract writes.  The abstract gives
the density an exp(-x^4 / (2 s^2)) component; here it is exp(-x^n / (2 s^n)),
so at n = 4 the abstract's s is this package's s squared: a fitted
``s_hat_raw`` of 2 is an abstract s of 4.  Only the abstract is known, so
whether the paper's body, and the estimates it prints, use the abstract's
form is not.  Reports print this package's s.

The CDF is one call of P = ``scipy.special.gammainc`` over the whole
broadcast shape, and its bits are those of the split at u = 1/n + 1
into P below, where 1 - Q would cancel, and 1 - Q with Q =
``scipy.special.gammaincc`` from there up: scipy's P (cephes' ``igam``)
returns exactly 1 - ``igamc`` for u > max(1, a), and 1/n + 1 > max(1, 1/n).
``tests/test_specfun.py`` pins both sides of the switch.
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

The power-exponential sampler is an exact ziggurat (Marsaglia and Tsang,
J. Stat. Softw. 5(8), 2000) for the decreasing density exp(-x^n / 2) on
x >= 0, scaled by s.  Its table, 256 layers of equal area v, is built on
a power's first draw and cached per power (``_expn_ziggurat``).  The
build bisects in t = x^n / 2 with plain ``math`` arithmetic, since x
itself is within 1e-5 of 1 over the whole table at n = 10^6.  Layer 0 is
the rectangle [0, r] x [0, f(r)] with the tail beyond r; layer i >= 1 is
[0, x_i] x [f(x_i), f(x_(i+1))], with x_1 = r and f at x_256 = 0 being 1.
- The rectangle pass (``_Ziggurat.rectangles``) fills ``out`` in blocks
  of 2^15: one uniform per draw, times 256, gives the layer (its integer
  part) and the fraction of the layer's width; a draw inside the next
  layer's width is accepted, which is about 99% of them.  Each thread
  keeps one set of block buffers (``_block_scratch``).
- A rejected draw of layer i >= 1 takes the wedge test, one more uniform
  for its height; one that fails it is drawn again from the start.
  Layer 0's overflow past r takes the exact tail sampler: T = X^n / 2
  given T > t_r is t_r + E, E ~ Exp(1), kept with probability
  (T / t_r)^(1/n - 1) (``_Ziggurat.settle``).
The rejected draws are redrawn after the whole pass, in position order,
from the same stream, so the draws depend only on the stream and the
count.
Inverse-CDF draws are the quantile of uniforms, ``quantile(rng.random(count))``.

Distribution parameter objects are immutable.  Sampling takes an
explicit ``numpy.random.Generator``; callers own their streams.  Every
simulation runs on one seeded chunk grid, ``_run_chunks``: chunk k draws
from its own SFC64 stream, the seed's ``SeedSequence`` at spawn key (k,),
on THINTAIL_THREADS workers, so its values never depend on the worker count.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
import threading
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
_LAYERS = 256  # equal-area layers of the ExpN ziggurat
# draws per block of the ExpN rectangle pass, 17 bytes a draw of each thread's block buffers (0.56 MB):
# 2^13 blocks ran the benchmark's compare_tail about 30% slower, and 2^17 blocks raised its peak RSS by 4 MB
_BLOCK = 2**15
_scratch = threading.local()  # each thread's simulation buffers: its rectangle-pass blocks and its draws


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


def _require_losses(losses, least: int = 2, ndim: int | None = 1) -> np.ndarray:
    """``losses`` as a C-ordered float array, if it is ``ndim``-d (1: one sample; 2: a batch of equal-length
    samples, one a row; None: either, the sample being the last axis) and each sample holds at least
    ``least`` losses, each finite and > 0."""
    arr = np.asarray(losses, dtype=float, order="C")
    if arr.ndim not in ((1, 2) if ndim is None else (ndim,)):
        wanted = {1: "a 1-d sequence", 2: "a 2-d array of samples"}.get(ndim, "a 1-d sequence or a 2-d array")
        raise ValueError(f"losses must be {wanted}, got shape {arr.shape}")
    if arr.shape[-1] < least:
        raise ValueError(f"need at least {least} {'loss' if least == 1 else 'losses'}, got {arr.shape[-1]}")
    if arr.ndim == 2 and not arr.shape[0]:
        raise ValueError("need at least 1 sample, got 0")
    valid = np.isfinite(arr) & (arr > 0.0)
    if not valid.all():
        where = f"row {int(np.argmin(valid.all(axis=-1)))}: " if arr.ndim == 2 else ""
        raise ValueError(f"{where}losses must be finite and > 0")
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
    """CDF of ExpN(s, n) at a float array ``x >= 0``, unchecked: P(1/n, u), u = x^n / (2 s^n), in one
    ``gammainc`` call, which from u = 1/n + 1 up is 1 - Q(1/n, u) bit for bit (see the module docstring);
    x f(0) where u is below the smallest normal double.

    ``x``, a float array ``s`` and an integer array ``n`` broadcast together;
    each entry equals the scalar call on it, bit for bit.
    """
    u = _expn_exponent(x, s, n)
    out = gammainc(1.0 / n, u)
    if u.min(initial=np.inf) < _TINY:
        out = np.where(u < _TINY, (x / s) / _expn_unit_norm(n), out)
    return out


def _expn_quantile(p: np.ndarray, s, n) -> np.ndarray:
    """Quantile of ExpN(s, n) at a float array ``p`` in [0, 1), unchecked: s (2 g)^(1/n) with g the
    inverse of P at shape 1/n, ``gammainccinv(1/n, 1 - p)`` for p > 0.5 and ``gammaincinv(1/n, p)``
    otherwise; s p / f(0) where g is below the smallest normal double.

    ``p``, a float array ``s`` and an integer array ``n`` broadcast together; each entry equals
    the scalar call on it, bit for bit.  numpy takes a lone exponent 0.5 as a square root but
    calls ``pow`` for an array of exponents, so an array ``n`` takes the root of its entries
    equal to 2 as ``sqrt``, as ``_expn_exponent`` squares them.
    """
    p, a = np.broadcast_arrays(p, 1.0 / n)
    upper = p > 0.5
    g = np.empty(p.shape)
    g[~upper] = gammaincinv(a[~upper], p[~upper])
    g[upper] = gammainccinv(a[upper], 1.0 - p[upper])
    root = np.power(2.0 * g, a)
    if np.ndim(n) and (n == 2).any():
        root = np.where(n == 2, np.sqrt(2.0 * g), root)
    return s * np.where(g < _TINY, p * _expn_unit_norm(n), root)


@dataclass(frozen=True)
class _Ziggurat:
    """The ziggurat table of exp(-x^n / 2) on x >= 0 (see the module docstring), read-only.

    ``width[i]`` is layer i's width (v / f(r) for layer 0, else x_i) and
    ``inner[i]`` the next layer's width x_(i+1), 0 for the top layer;
    ``heights[i]`` is f(x_i) for i >= 1, and ``heights[256]`` is f(0) = 1.
    """

    n: int
    t_r: float
    width: np.ndarray
    inner: np.ndarray
    heights: np.ndarray

    def rectangles(self, out: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Fill ``out`` with candidate draws; return the positions the rectangles rejected, and their layers."""
        layer, gathered, reject = _block_scratch()
        positions, layers = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for lo in range(0, out.size, _BLOCK):
            block = out[lo : lo + _BLOCK]
            if block.size < layer.size:  # the last block is short
                layer, gathered, reject = layer[: block.size], gathered[: block.size], reject[: block.size]
            rng.random(out=block)
            block *= _LAYERS
            np.copyto(layer, block, casting="unsafe")  # the integer part
            block -= layer
            np.take(self.width, layer, out=gathered, mode="wrap")
            block *= gathered
            np.take(self.inner, layer, out=gathered, mode="wrap")
            np.greater_equal(block, gathered, out=reject)
            rejected = np.flatnonzero(reject)
            positions.append(rejected + lo)
            layers.append(layer[rejected])
        return np.concatenate(positions), np.concatenate(layers)

    def settle(self, out: np.ndarray, pending: np.ndarray, layer: np.ndarray,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One round for the rejected candidates at ``pending``, of layers ``layer``: tail draws for
        layer 0, the wedge test for the others and fresh rectangle draws for those that fail it;
        return the positions still rejected, and their layers."""
        base = layer == 0
        if base.any():
            out[pending[base]] = self._tail(np.count_nonzero(base), rng)
            pending, layer = pending[~base], layer[~base]
        low = self.heights[layer]
        height = low + rng.random(pending.size) * (self.heights[layer + 1] - low)
        # x < r in a wedge, so x^n < 2 t_r does not overflow
        pending = pending[height >= np.exp(-0.5 * np.power(out[pending], self.n))]
        fresh = np.empty(pending.size)
        rejected, layer = self.rectangles(fresh, rng)
        out[pending] = fresh
        return pending[rejected], layer

    def _tail(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` draws of X given X > r, through T = X^n / 2 = t_r + E, kept with probability (T / t_r)^(1/n - 1)."""
        t = np.empty(count)
        todo = np.arange(count)
        while todo.size:
            candidate = self.t_r + rng.standard_exponential(todo.size)
            kept = rng.random(todo.size) < np.power(candidate / self.t_r, 1.0 / self.n - 1.0)
            t[todo[kept]] = candidate[kept]
            todo = todo[~kept]
        return np.power(2.0 * t, 1.0 / self.n)


def _block_scratch() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's buffers for one rectangle-pass block: layer indices, gathered table values, reject flags."""
    if not hasattr(_scratch, "buffers"):
        _scratch.buffers = (np.empty(_BLOCK, np.intp), np.empty(_BLOCK), np.empty(_BLOCK, bool))
    return _scratch.buffers


def _draws_scratch(size: int) -> np.ndarray:
    """This thread's draws buffer, as its first ``size`` doubles.  One too small is replaced by one an eighth
    larger than ``size``, so it is seldom regrown: a fresh buffer per chunk (about 1 MB at lambda = 60) faults
    its pages in again, and many small regrowths grow the heap.  No other thread sees it; it dies with this one."""
    buffer = getattr(_scratch, "draws", None)
    if buffer is None or buffer.size < size:
        buffer = _scratch.draws = np.empty(size + size // 8)
    return buffer[:size]


@functools.lru_cache(maxsize=128)
def _expn_ziggurat(n: int) -> _Ziggurat:
    """The ziggurat table of ExpN(1, n), built by bisection on t_r = r^n / 2 until the top layer reaches f(0) = 1."""
    a = 1.0 / n
    area = _expn_unit_norm(n)  # the integral of exp(-x^n / 2) over x >= 0

    def x_at(t: float) -> float:
        return math.exp(a * math.log(2.0 * t))

    def layers(t_r: float):
        """(v, [x_1..x_255], [f(x_1)..f(x_255)], f at x_256) of the table with base t_r; None past f(0)."""
        r, f_r = x_at(t_r), math.exp(-t_r)
        v = r * f_r + area * float(regularized_upper_gamma(a, t_r))
        xs, fs = [r], [f_r]
        for _ in range(_LAYERS - 2):
            f = fs[-1] + v / xs[-1]
            if f >= 1.0:
                return None
            xs.append(x_at(-math.log(f)))
            fs.append(f)
        return v, xs, fs, fs[-1] + v / xs[-1]

    low, high = 1e-12, 60.0  # the first overshoots f(0), the second stops far short of it
    while (mid := 0.5 * (low + high)) not in (low, high):
        table = layers(mid)
        if table is None or table[3] > 1.0:
            low = mid
        else:
            high = mid
    v, xs, fs, _ = layers(high)
    arrays = (np.array([v / fs[0], *xs]), np.array([*xs, 0.0]), np.array([0.0, *fs, 1.0]))
    for arr in arrays:
        arr.setflags(write=False)
    return _Ziggurat(n, high, *arrays)


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
        return _expn_quantile(p, self.s, self.n)

    def _draw(self, out, rng):
        zig = _expn_ziggurat(self.n)
        pending, layer = zig.rectangles(out, rng)
        while pending.size:
            pending, layer = zig.settle(out, pending, layer, rng)
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
