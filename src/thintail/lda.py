"""Monte Carlo convolution of frequency and severity (loss distribution
approach) with 99.9% value-at-risk extraction.

Each trial draws an annual event count z from the frequency model,
draws z severities (in mEUR, after de-scaling), and sums them; the
capital is the percentile of the simulated annual losses, estimated by
linear interpolation between order statistics.

Reproducibility contract: trials run in chunks of 4096 on the one seeded
chunk grid, ``dist._run_chunks``, each on its own stream.  A chunk draws
its event counts first and then its severities from the stream state
right after the counts, one ``sample`` call per group of consecutive
trials whose draws start within the same 2^17 draws (``_trial_groups``),
and the run's record (``_Counts``) keeps both.
``run_lda_many``, which ``compare`` and ``curve --with-capital`` call
once for all their models, runs ``run_lda`` per model on one record: the
first run draws each chunk's counts, and the later runs restore them
with that state.  The record also holds the draws buffers, so one run
allocates its simulation memory once, not once per model.  A model's
annual-loss array therefore depends only on (seed, trials) — never on
the worker count, the scheduling or the other models of the run — and
the capital is bit-identical for 1 or many workers.

Convergence is judged by batch means: the annual losses are split into
20 consecutive blocks, the percentile is taken per block, and
the run is flagged converged when the 95% half-width of the block
percentiles is below 1% of the capital.  Their spread is taken at an
exact power-of-two scale below 1, so their squares cannot overflow at
any loss scale.
"""

from __future__ import annotations

import math
import queue
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dist import (NormalParams, SeverityModel, _expn_quantile, _positive_fields, _require_between, _require_int,
                   _require_losses, _require_positive, _run_chunks, check_even_power)
from .fit import fit_expn, fit_expn_many, scale_losses
from .tna import tna_test

__all__ = [
    "PoissonFreq",
    "NegativeBinomialFreq",
    "NormalApproxFreq",
    "LdaConfig",
    "CapitalResult",
    "annual_frequency",
    "run_lda",
    "run_lda_many",
    "compare_models",
    "percentile_vs_n",
]

_TRIAL_CHUNK = 4096  # trials per RNG substream; fixed so results never depend on workers
_BATCHES = 20  # batch-means blocks behind stderr_estimate and converged
_GROUP_DRAWS = 2**17  # a trial group's severities start within this many draws (1 MB)
# numpy's largest Poisson mean: int64's top less ten of its square roots, so that a count ten
# standard deviations above the mean still fits int64; every frequency record refuses a mean above it
_LAM_MAX = np.iinfo(np.int64).max - math.sqrt(np.iinfo(np.int64).max) * 10
_NEGBIN_MEAN_RTOL = 1e-6  # largest relative error a negative-binomial record lets numpy's count mean have
# largest draws buffer one trial may need, 8 bytes x (mean + 10 sd + 1) events, by the ten-sd rule
# of _LAM_MAX; fixed, so the same run is refused on every host (1 GiB, a mean of about 1.3e8 events)
_TRIAL_BYTES_MAX = 2**30


def _require_lam(record) -> None:
    """Refuse ``record.lam`` above ``_LAM_MAX``, as numpy's Poisson sampler does."""
    if record.lam > _LAM_MAX:
        raise ValueError(f"lam must lie in (0, {_LAM_MAX:g}], got {record.lam!r}")


@dataclass(frozen=True)
class PoissonFreq:
    """Annual event counts ~ Poisson(lam)."""

    lam: float

    def __post_init__(self):
        _positive_fields(self, "lam")
        _require_lam(self)

    @property
    def mean(self) -> float:
        return self.lam

    @property
    def sd(self) -> float:
        return math.sqrt(self.lam)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.lam, size)


@dataclass(frozen=True)
class NegativeBinomialFreq:
    """Counts with variance = mean + mean^2 / dispersion (Poisson as dispersion -> inf)."""

    mean: float
    dispersion: float

    def __post_init__(self):
        _positive_fields(self, "mean", "dispersion")
        # numpy's own test: the gamma-mixed Poisson mean, ten standard deviations up, stays within _LAM_MAX
        r, p = self.dispersion, self._p
        if p == 0.0 or (1.0 - p) / p * (r + 10.0 * math.sqrt(r)) > _LAM_MAX:
            limit = _LAM_MAX / (1.0 + 10.0 / math.sqrt(r))
            raise ValueError(f"mean must lie in (0, {limit:g}] at dispersion {r:g}, got {self.mean!r}")
        # numpy draws counts of mean r(1 - p)/p; once r >> mean, 1 - p is a few ulps and that mean drifts
        drawn = r * (1.0 - p) / p
        if abs(drawn - self.mean) > _NEGBIN_MEAN_RTOL * self.mean:
            raise ValueError(f"dispersion must let numpy draw counts of mean {self.mean!r} to within "
                             f"{_NEGBIN_MEAN_RTOL:g}, got {r!r} (numpy's mean is {drawn!r})")

    @property
    def sd(self) -> float:
        return math.sqrt(self.mean + self.mean**2 / self.dispersion)

    @property
    def _p(self) -> float:
        return self.dispersion / (self.dispersion + self.mean)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.negative_binomial(self.dispersion, self._p, size)


@dataclass(frozen=True)
class NormalApproxFreq:
    """Large-lam Normal approximation; draws round half-up to nonnegative integers."""

    lam: float

    def __post_init__(self):
        _positive_fields(self, "lam")
        _require_lam(self)  # a draw ten sd up still fits int64

    @property
    def mean(self) -> float:
        return self.lam

    @property
    def sd(self) -> float:
        return math.sqrt(self.lam)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raw = rng.normal(self.lam, math.sqrt(self.lam), size)
        return np.maximum(np.floor(raw + 0.5), 0.0).astype(np.int64)


FrequencyModel = PoissonFreq | NegativeBinomialFreq | NormalApproxFreq


@dataclass(frozen=True)
class LdaConfig:
    """Simulation size, target percentile and seed."""

    trials: int = 100_000
    percentile: float = 0.999
    seed: int = 0

    def __post_init__(self):
        # stored as the int and float the checks return, so a numpy scalar never reaches a report
        object.__setattr__(self, "trials", _require_int("trials", self.trials, 1000))
        object.__setattr__(self, "percentile", _require_between("percentile", self.percentile, 0, 1))
        object.__setattr__(self, "seed", _require_int("seed", self.seed, 0))
        if self.seed >= 2**128:  # the seed range the CLI documents
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class CapitalResult:
    """Simulated capital (mEUR) with convergence diagnostics."""

    capital: float
    lam: float
    trials: int
    stderr_estimate: float
    converged: bool
    seed: int


def annual_frequency(loss_count: int, years: float) -> float:
    """Annual loss frequency: count divided by observation span."""
    return _require_int("loss_count", loss_count, 1) / _require_positive("years", years)


def _trial_groups(counts: np.ndarray) -> list[tuple[int, int]]:
    """The trial ranges [lo, hi) of a chunk whose draws start in the same stretch of ``_GROUP_DRAWS``
    draws: each group draws at most ``_GROUP_DRAWS`` severities plus its last trial's count."""
    stretch = (np.cumsum(counts) - counts) // _GROUP_DRAWS
    bounds = [0, *(np.flatnonzero(np.diff(stretch)) + 1).tolist(), counts.size]
    return list(zip(bounds[:-1], bounds[1:]))


def _chunk_losses(severity: SeverityModel, rng: np.random.Generator, counts: np.ndarray, out: np.ndarray,
                  draws: np.ndarray) -> None:
    """Annual losses of a chunk's trials into ``out``: each trial's severities, drawn from ``rng``, summed.

    The draws go into ``draws``, ``counts.sum() + 1`` long, whose last slot
    becomes the 0.0 that ``reduceat`` reads when the last trials have no
    events; ``reduceat`` writes into ``out``.
    """
    total = draws.size - 1
    draws[total] = 0.0
    severity.sample(total, rng, out=draws[:total])
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    with np.errstate(over="ignore"):  # overflow is caught by the isfinite guard
        np.add.reduceat(draws, starts, out=out)
    out[counts == 0] = 0.0


class _Counts:
    """The simulation memory of one run: each chunk's event counts, the
    first draws of its stream, and the draws buffers its chunks fill.

    A chunk's first run draws its counts from the stream the grid hands
    it and keeps them, at the narrowest unsigned width that holds them
    (1 byte a trial up to 255 events, 2 up to 65,535), with the stream
    state right after them; every later run of the chunk restores that
    state into its stream instead of drawing again.  The draws buffers
    are a free list: a chunk takes one, fills it and gives it back, so
    every model of the run reuses the same buffers, one per worker at most.
    """

    def __init__(self, freq: FrequencyModel):
        self.freq = freq
        self.kept: dict[int, tuple[dict, np.ndarray]] = {}
        self.buffers: queue.SimpleQueue[np.ndarray] = queue.SimpleQueue()

    def stream(self, chunk: int, rng: np.random.Generator, size: int) -> np.ndarray:
        """The chunk's ``size`` counts as int64, with its stream ``rng`` moved to the state after them."""
        if chunk in self.kept:
            state, counts = self.kept[chunk]
            rng.bit_generator.state = state
            return counts.astype(np.int64)
        counts = np.asarray(self.freq.draw(rng, size), dtype=np.int64)
        self.kept[chunk] = (rng.bit_generator.state, counts.astype(np.min_scalar_type(counts.max())))
        return counts

    @contextmanager
    def draws(self, size: int):
        """A buffer of ``size`` doubles from the free list, given back when the block ends.

        A buffer too small is replaced by one an eighth larger than ``size``,
        so it is seldom regrown: a fresh buffer per chunk (about 1 MB at
        lambda = 60) faults its pages in again, and many small regrowths
        grow the heap.
        """
        try:
            buffer = self.buffers.get_nowait()
        except queue.Empty:
            buffer = np.empty(0)
        if buffer.size < size:
            buffer = np.empty(size + size // 8)
        try:
            yield buffer[:size]
        finally:
            self.buffers.put(buffer)


def run_lda(
    severity: SeverityModel,
    freq: FrequencyModel,
    cfg: LdaConfig = LdaConfig(),
    *,
    _run: _Counts | None = None,
) -> CapitalResult:
    """Simulate annual aggregate losses and return the capital percentile.

    The chunks run on ``dist._run_chunks``, the one seeded chunk grid,
    with THINTAIL_THREADS workers (default 1); results are bit-identical
    for any count.  Each chunk draws its counts first, then the
    severities, a trial group at a time (``_trial_groups``), from the
    stream the grid hands it; ``_run`` is the record
    of the counts, with the draws buffers, that ``run_lda_many`` shares
    among its models.  A lone run keeps its counts too: about 1 byte a trial.
    Before anything is drawn, a frequency whose one trial, ten standard
    deviations above its mean, would need a draws buffer above
    ``_TRIAL_BYTES_MAX`` (1 GiB) is refused.
    """
    trial_bytes = 8.0 * (freq.mean + 10.0 * freq.sd + 1.0)
    if trial_bytes > _TRIAL_BYTES_MAX:
        raise ValueError(f"event rate {freq.mean:g} needs a draws buffer of {trial_bytes:.3g} bytes for one trial "
                         f"(8 bytes x (mean + 10 sd + 1) events), above the {_TRIAL_BYTES_MAX} bytes allowed")
    run = _Counts(freq) if _run is None else _run
    annual = np.empty(int(cfg.trials), dtype=float)

    def fill(chunk: int, rng: np.random.Generator, out: np.ndarray):
        counts = run.stream(chunk, rng, out.size)
        groups = [(lo, hi, int(counts[lo:hi].sum())) for lo, hi in _trial_groups(counts)]
        with run.draws(max(total for _, _, total in groups) + 1) as draws:
            for lo, hi, total in groups:
                _chunk_losses(severity, rng, counts[lo:hi], out[lo:hi], draws[: total + 1])

    _run_chunks(cfg.seed, annual, _TRIAL_CHUNK, fill)

    if not np.isfinite(annual).all():
        raise RuntimeError("annual loss sums overflowed; check severity parameters")
    return _capital(annual, freq, cfg)


def run_lda_many(severities, freq: FrequencyModel, cfg: LdaConfig = LdaConfig()) -> list[CapitalResult]:
    """``run_lda(severity, freq, cfg)`` for each model of ``severities``, with the counts drawn once.

    The first model's run draws every chunk's counts and keeps them with
    the stream state after them; each later model's ``run_lda`` draws its
    severities from that state, so every result equals the model's own
    ``run_lda`` bit for bit.  The counts (1 byte a trial up to 255 events
    a trial, as at lambda = 60; 2 bytes up to 65,535), one draws buffer
    per worker (about 1 MB at lambda = 60) and one model's annual losses
    are held at a time, however many models there are.
    """
    run = _Counts(freq)
    return [run_lda(severity, freq, cfg, _run=run) for severity in severities]


def _capital(annual: np.ndarray, freq: FrequencyModel, cfg: LdaConfig) -> CapitalResult:
    """The capital percentile of one model's annual losses, with its batch-means diagnostics."""
    capital = float(np.quantile(annual, cfg.percentile))

    block_pcts = np.array([np.quantile(block, cfg.percentile) for block in np.array_split(annual, _BATCHES)])
    # the spread of the block percentiles scaled by an exact power of two below 1, so that their
    # squares cannot overflow at any loss scale: the same bits as unscaled wherever those are finite
    _, exponent = math.frexp(block_pcts.max())
    spread = float(np.ldexp(np.std(np.ldexp(block_pcts, -exponent), ddof=1), exponent))
    stderr = spread / math.sqrt(_BATCHES)
    half_width = 1.96 * stderr
    converged = half_width < 0.01 * capital if capital > 0.0 else True

    return CapitalResult(
        capital=capital,
        lam=freq.mean,
        trials=annual.size,
        stderr_estimate=stderr,
        converged=converged,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# model comparison (count / sum / capital / area table)
# ---------------------------------------------------------------------------

def parse_model_spec(spec: str) -> tuple[str, int | None]:
    """(report name, ExpN power) of 'exp4' (power 4), 'expn:<even power>' or 'normal' (None)."""
    text = spec.strip().lower()
    if text == "exp4":
        return ("exp4", 4)
    if text == "normal":
        return ("normal", None)
    if text.startswith("expn:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad power in model spec {spec!r}") from None
        return ("expn", check_even_power(n))
    raise ValueError(f"unknown model name {spec!r} (expected exp4, normal, or expn:<power>)")


@dataclass(frozen=True)
class ModelComparison:
    name: str
    capital: float
    tna_area: float


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    count: int
    total: float
    entries: list[ModelComparison]


def _fit_normal(losses) -> tuple[SeverityModel, float]:
    """Moment-matched Normal on the mean-scaled axis (sample sd, ddof=1) and its TN-A area."""
    scaled, mean = scale_losses(losses)
    params = NormalParams(mu=1.0, sigma=float(np.std(scaled, ddof=1)))
    area = tna_test(scaled, params).area
    return SeverityModel(params=params, scaling_mean=mean), area


def compare_models(
    losses,
    years: float,
    models,
    cfg: LdaConfig = LdaConfig(),
    label: str = "",
) -> ComparisonRow:
    """Fit each ``parse_model_spec`` spec in ``models``; put its capital beside count and sum.

    ExpN scales (exp4 is power 4) come from the enclosed-area fit; the
    Normal baseline is moment matched.  A repeated spec runs once, where
    it first appears; two or more expn:<power> entries are named
    'expn<power>'.  Every model runs the same seed, so capitals are comparable.
    """
    arr = _require_losses(losses)
    specs = list(dict.fromkeys(parse_model_spec(m) for m in models))
    if not specs:
        raise ValueError("model list must not be empty")

    freq = PoissonFreq(annual_frequency(arr.size, years))
    expn_count = sum(1 for name, _ in specs if name == "expn")
    fitted: list[tuple[str, SeverityModel, float]] = []
    for name, power in specs:
        if power is None:
            fitted.append((name, *_fit_normal(arr)))
        else:
            fr = fit_expn(arr, power)
            if name == "expn" and expn_count > 1:
                name = f"expn{power}"
            fitted.append((name, fr.model, fr.tna.area))
    results = run_lda_many([model for _, model, _ in fitted], freq, cfg)

    return ComparisonRow(
        label=label,
        count=int(arr.size),
        total=float(math.fsum(arr.tolist())),
        entries=[ModelComparison(name, res.capital, area) for (name, _, area), res in zip(fitted, results)],
    )


def percentile_vs_n(
    losses,
    years: float,
    n_values,
    cfg: LdaConfig = LdaConfig(),
    with_capital: bool = True,
) -> list[tuple[int, float, float]]:
    """Severity 99.9th percentile (and capital) of the fitted ExpN per power n.

    Returns one (n, q999, capital) tuple per distinct n, ordered by n;
    capital is NaN when ``with_capital`` is off.  Powers must be even integers >= 2.
    The powers are fitted in one lockstep search (``fit_expn_many``), and their
    q999 values are one call of the quantile kernel ``dist._expn_quantile`` over
    the fitted scales and powers, each the bits of its ``model.quantile(0.999)``.
    """
    values = sorted({check_even_power(n) for n in n_values})
    if not values:
        raise ValueError("n_values must not be empty")
    arr = _require_losses(losses)
    freq = PoissonFreq(annual_frequency(arr.size, years))

    fits = fit_expn_many(arr, values)
    scaling_mean = fits[0].scaling_mean  # one sample, so one mean for every power
    q999s = scaling_mean * _expn_quantile(0.999, np.array([fr.s_hat for fr in fits]), np.array(values))
    if with_capital:
        capitals = [res.capital for res in run_lda_many([fr.model for fr in fits], freq, cfg)]
    else:
        capitals = [float("nan")] * len(fits)
    return list(zip(values, q999s.tolist(), capitals))
