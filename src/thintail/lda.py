"""Monte Carlo convolution of frequency and severity (loss distribution
approach) with 99.9% value-at-risk extraction.

Each trial draws an annual event count z from the frequency model,
draws z severities (in mEUR, after de-scaling), and sums them; the
capital is the percentile of the simulated annual losses, estimated by
linear interpolation between order statistics.

Reproducibility contract: trials are partitioned into fixed-size
chunks, each driven by its own SFC64 stream seeded from
``SeedSequence(seed, spawn_key=(chunk,))``, numpy's independent
parallel streams; one thread pool fills them, whatever the worker
count.  The annual-loss array therefore depends only on (seed, trials)
— never on the worker count or scheduling — and the capital is
bit-identical for 1 or many workers.

Convergence is judged by batch means: the annual losses are split into
20 consecutive blocks, the percentile is taken per block, and
the run is flagged converged when the 95% half-width of the block
percentiles is below 1% of the capital.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dist import NormalParams, SeverityModel, check_even_power, check_power
from .fit import fit_expn, fit_expn_many, scale_losses
from .tna import tna_test

__all__ = [
    "PoissonFreq",
    "NegativeBinomialFreq",
    "NormalApproxFreq",
    "FrequencyModel",
    "LdaConfig",
    "CapitalResult",
    "ModelComparison",
    "ComparisonRow",
    "annual_frequency",
    "run_lda",
    "compare_models",
    "percentile_vs_n",
    "parse_model_spec",
]

_TRIAL_CHUNK = 4096  # trials per RNG substream; fixed so results never depend on workers
_BATCHES = 20  # batch-means blocks behind stderr_estimate and converged


@dataclass(frozen=True)
class PoissonFreq:
    """Annual event counts ~ Poisson(lam)."""

    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be > 0, got {self.lam!r}")

    @property
    def mean(self) -> float:
        return self.lam

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.lam, size)


@dataclass(frozen=True)
class NegativeBinomialFreq:
    """Counts with variance = mean + mean^2 / dispersion (Poisson as dispersion -> inf)."""

    mean: float
    dispersion: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.mean > 0.0):
            raise ValueError(f"mean must be > 0, got {self.mean!r}")
        if not (math.isfinite(self.dispersion) and self.dispersion > 0.0):
            raise ValueError(f"dispersion must be > 0, got {self.dispersion!r}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p = self.dispersion / (self.dispersion + self.mean)
        return rng.negative_binomial(self.dispersion, p, size)


@dataclass(frozen=True)
class NormalApproxFreq:
    """Large-lam Normal approximation; draws round half-up to nonnegative integers."""

    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be > 0, got {self.lam!r}")

    @property
    def mean(self) -> float:
        return self.lam

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
        for name in ("trials", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.trials < 1000:
            raise ValueError(f"trials must be >= 1000, got {self.trials}")
        if not (0.0 < self.percentile < 1.0):
            raise ValueError(f"percentile must lie in (0, 1), got {self.percentile}")
        if not 0 <= self.seed < 2**128:  # the seed range the CLI documents
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
    if not (isinstance(loss_count, (int, np.integer)) and loss_count >= 1):
        raise ValueError(f"loss_count must be an integer >= 1, got {loss_count!r}")
    years = float(years)
    if not (math.isfinite(years) and years > 0.0):
        raise ValueError(f"years must be > 0, got {years!r}")
    return loss_count / years


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    # spawn key (chunk,) gives each chunk the stream SeedSequence.spawn would hand it
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk,))))


def _simulate_chunk(severity: SeverityModel, freq, seed: int, chunk: int, size: int) -> np.ndarray:
    rng = _chunk_rng(seed, chunk)
    counts = np.asarray(freq.draw(rng, size), dtype=np.int64)
    total = int(counts.sum())
    draws = severity.sample(total, rng)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    with np.errstate(over="ignore"):  # overflow is caught by the isfinite guard
        sums = np.add.reduceat(np.concatenate((draws, [0.0])), starts)
    sums[counts == 0] = 0.0
    return sums


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        text = os.environ.get("THINTAIL_THREADS", "1")
        try:
            workers = int(text)
        except ValueError:
            raise ValueError(f"THINTAIL_THREADS must be an integer, got {text!r}") from None
    return max(1, workers)


def run_lda(
    severity: SeverityModel,
    freq: FrequencyModel,
    cfg: LdaConfig = LdaConfig(),
    workers: int | None = None,
) -> CapitalResult:
    """Simulate annual aggregate losses and return the capital percentile.

    A pool of ``workers`` threads (default THINTAIL_THREADS, at least 1)
    fills the fixed chunk grid; results are bit-identical for any count.
    """
    trials = int(cfg.trials)
    n_chunks = (trials + _TRIAL_CHUNK - 1) // _TRIAL_CHUNK
    sizes = [min(_TRIAL_CHUNK, trials - c * _TRIAL_CHUNK) for c in range(n_chunks)]
    annual = np.empty(trials, dtype=float)

    def fill(chunk: int):
        lo = chunk * _TRIAL_CHUNK
        annual[lo : lo + sizes[chunk]] = _simulate_chunk(
            severity, freq, cfg.seed, chunk, sizes[chunk]
        )

    with ThreadPoolExecutor(max_workers=_resolve_workers(workers)) as pool:
        list(pool.map(fill, range(n_chunks)))

    if not np.isfinite(annual).all():
        raise RuntimeError("annual loss sums overflowed; check severity parameters")

    capital = float(np.quantile(annual, cfg.percentile))

    block_pcts = [
        float(np.quantile(block, cfg.percentile))
        for block in np.array_split(annual, _BATCHES)
    ]
    stderr = float(np.std(block_pcts, ddof=1) / math.sqrt(len(block_pcts)))
    half_width = 1.96 * stderr
    converged = half_width < 0.01 * capital if capital > 0.0 else True

    return CapitalResult(
        capital=capital,
        lam=float(freq.mean),
        trials=trials,
        stderr_estimate=stderr,
        converged=converged,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# model comparison (count / sum / capital / area table)
# ---------------------------------------------------------------------------

class UnknownModelError(ValueError):
    """A model spec whose name is none of exp4, normal and expn:<power>."""


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
    raise UnknownModelError(f"unknown model name {spec!r} (expected exp4, normal, or expn:<power>)")


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
    arr = np.asarray(losses, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 losses to compare models")
    specs = list(dict.fromkeys(parse_model_spec(m) for m in models))
    if not specs:
        raise ValueError("model list must not be empty")

    freq = PoissonFreq(annual_frequency(arr.size, years))
    expn_count = sum(1 for name, _ in specs if name == "expn")
    entries: list[ModelComparison] = []
    for name, power in specs:
        if power is None:
            model, area = _fit_normal(arr)
        else:
            fr = fit_expn(arr, power)
            model, area = fr.model, fr.tna.area
            if name == "expn" and expn_count > 1:
                name = f"expn{power}"
        entries.append(ModelComparison(name, run_lda(model, freq, cfg).capital, area))

    return ComparisonRow(
        label=label,
        count=int(arr.size),
        total=float(math.fsum(arr.tolist())),
        entries=entries,
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
    """
    values = [check_even_power(n) for n in sorted({int(check_power(n)) for n in n_values})]
    if not values:
        raise ValueError("n_values must not be empty")
    arr = np.asarray(losses, dtype=float)
    freq = PoissonFreq(annual_frequency(arr.size, years))

    rows: list[tuple[int, float, float]] = []
    for n, fr in zip(values, fit_expn_many(arr, values)):
        model = fr.model
        q999 = float(model.quantile(0.999))
        capital = run_lda(model, freq, cfg).capital if with_capital else float("nan")
        rows.append((n, q999, capital))
    return rows
