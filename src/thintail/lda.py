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
count.  A chunk draws its event counts first and then its severities
from the stream state right after the counts.  ``run_lda_many``, which
``compare`` and ``curve --with-capital`` call once for all their
models, runs ``run_lda`` per model: the first run keeps each chunk's
counts and that state, and the later runs restore them.  A model's
annual-loss array therefore depends only on (seed, trials) — never on
the worker count, the scheduling or the other models of the run — and
the capital is bit-identical for 1 or many workers.

Convergence is judged by batch means: the annual losses are split into
20 consecutive blocks, the percentile is taken per block, and
the run is flagged converged when the 95% half-width of the block
percentiles is below 1% of the capital.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dist import NormalParams, SeverityModel, as_int, check_even_power
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
    "run_lda_many",
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
            if as_int(getattr(self, name)) is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
    if as_int(loss_count) is None or loss_count < 1:
        raise ValueError(f"loss_count must be an integer >= 1, got {loss_count!r}")
    years = float(years)
    if not (math.isfinite(years) and years > 0.0):
        raise ValueError(f"years must be > 0, got {years!r}")
    return loss_count / years


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    # spawn key (chunk,) gives each chunk the stream SeedSequence.spawn would hand it
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk,))))


def _chunk_losses(severity: SeverityModel, rng: np.random.Generator, counts: np.ndarray, out: np.ndarray,
                  draws: np.ndarray) -> None:
    """Annual losses of one chunk into ``out``: each trial's severities, drawn from ``rng``, summed.

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
    """Each chunk's event counts, the first draws of its stream.

    A chunk's first run draws them; with ``keep`` set, it keeps them with
    the stream state right after them, and every later run of the chunk
    restores that state instead of drawing again.
    """

    def __init__(self, freq: FrequencyModel, seed: int, trials: int, keep: bool):
        self.key = (freq, seed, trials)
        self.keep = keep
        self.kept: dict[int, tuple[dict, np.ndarray]] = {}

    def stream(self, chunk: int, size: int) -> tuple[np.random.Generator, np.ndarray]:
        """The chunk's stream, positioned after its ``size`` counts, and the counts."""
        freq, seed, _ = self.key
        rng = _chunk_rng(seed, chunk)
        if chunk in self.kept:
            state, counts = self.kept[chunk]
            rng.bit_generator.state = state
            return rng, counts
        counts = np.asarray(freq.draw(rng, size), dtype=np.int64)
        if self.keep:
            self.kept[chunk] = (rng.bit_generator.state, counts)
        return rng, counts


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
    *,
    counts: _Counts | None = None,
) -> CapitalResult:
    """Simulate annual aggregate losses and return the capital percentile.

    A pool of ``workers`` threads (default THINTAIL_THREADS, at least 1)
    fills the fixed chunk grid; results are bit-identical for any count.
    Each chunk draws its counts first, then the severities; ``counts`` is
    the record of them that ``run_lda_many`` shares among its models.
    """
    trials = int(cfg.trials)
    if counts is None:
        counts = _Counts(freq, cfg.seed, trials, keep=False)
    elif counts.key != (freq, cfg.seed, trials):
        raise ValueError("counts were drawn for another frequency, seed or trial count")
    annual = np.empty(trials, dtype=float)
    # one draws buffer per worker, an eighth larger than the chunk that makes
    # it, so it is seldom regrown: a fresh buffer per chunk (about 2 MB at
    # lambda = 60) faults its pages in again, and many small regrowths grow
    # the heap
    buffers = threading.local()

    def fill(chunk: int):
        out = annual[chunk * _TRIAL_CHUNK : (chunk + 1) * _TRIAL_CHUNK]
        rng, drawn = counts.stream(chunk, out.size)
        total = int(drawn.sum())
        if getattr(buffers, "draws", np.empty(0)).size <= total:
            buffers.draws = np.empty(total + total // 8 + 1)
        _chunk_losses(severity, rng, drawn, out, buffers.draws[: total + 1])

    with ThreadPoolExecutor(max_workers=_resolve_workers(workers)) as pool:
        list(pool.map(fill, range((trials + _TRIAL_CHUNK - 1) // _TRIAL_CHUNK)))

    if not np.isfinite(annual).all():
        raise RuntimeError("annual loss sums overflowed; check severity parameters")
    return _capital(annual, freq, cfg)


def run_lda_many(
    severities,
    freq: FrequencyModel,
    cfg: LdaConfig = LdaConfig(),
    workers: int | None = None,
) -> list[CapitalResult]:
    """``run_lda(severity, freq, cfg)`` for each model of ``severities``, with the counts drawn once.

    The first model's run draws every chunk's counts and keeps them with
    the stream state after them; each later model's ``run_lda`` draws its
    severities from that state, so every result equals the model's own
    ``run_lda`` bit for bit.  The counts (8 bytes a trial) and one model's
    annual losses are held at a time, however many models there are.
    """
    counts = _Counts(freq, cfg.seed, int(cfg.trials), keep=True)
    return [run_lda(severity, freq, cfg, workers, counts=counts) for severity in severities]


def _capital(annual: np.ndarray, freq: FrequencyModel, cfg: LdaConfig) -> CapitalResult:
    """The capital percentile of one model's annual losses, with its batch-means diagnostics."""
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
        trials=annual.size,
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
    """
    values = sorted({check_even_power(n) for n in n_values})
    if not values:
        raise ValueError("n_values must not be empty")
    arr = np.asarray(losses, dtype=float)
    freq = PoissonFreq(annual_frequency(arr.size, years))

    models = [fr.model for fr in fit_expn_many(arr, values)]
    if with_capital:
        capitals = [res.capital for res in run_lda_many(models, freq, cfg)]
    else:
        capitals = [float("nan")] * len(models)
    return [(n, float(model.quantile(0.999)), capital)
            for n, model, capital in zip(values, models, capitals)]
