"""Scale estimation for the power-exponential severity family.

Losses are first divided by their sample mean, so the scale parameter
of the fitted distribution is O(1) and a fixed search bracket covers
it.  The objective is the enclosed-area statistic of the mean-scaled
data against ExpN(s, n); a 16-point log-spaced pre-scan locates the
bracket holding the grid minimum and golden-section search refines it.
A derivative-free bracketed search is used deliberately: likelihood
surfaces for this family are nearly flat, which defeats gradient
methods, while the area statistic stays well behaved.

The reported ``s_hat`` lives on the mean-scaled axis (invariant under
rescaling all losses); ``s_hat_raw`` maps it back to loss units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import SeverityModel, check_power, expn_cdf, expn_params
from .tna import TnaResult, _area_and_crossings, empirical_from_losses, tna_test

__all__ = ["FitConfig", "FitResult", "scale_losses", "fit_exp4", "fit_expn"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 16
_MAX_EVALUATIONS = 500


@dataclass(frozen=True)
class FitConfig:
    """Search bracket and termination tolerance for the scale search."""

    s_lo: float = 0.05
    s_hi: float = 10.0
    tol: float = 1e-5
    n: int = 4

    def __post_init__(self):
        if not (0.0 < self.s_lo < self.s_hi):
            raise ValueError(f"need 0 < s_lo < s_hi, got ({self.s_lo}, {self.s_hi})")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        check_power(self.n)


@dataclass(frozen=True)
class FitResult:
    """Estimated scale with goodness-of-fit and search diagnostics.

    ``s_hat`` is the scale on the mean-scaled axis; multiply by
    ``scaling_mean`` (property ``s_hat_raw``) for loss units.
    """

    s_hat: float
    scaling_mean: float
    n: int
    tna: TnaResult
    evaluations: int
    converged: bool
    at_boundary: bool

    @property
    def s_hat_raw(self) -> float:
        return self.s_hat * self.scaling_mean

    @property
    def model(self) -> SeverityModel:
        return SeverityModel(params=expn_params(self.s_hat, self.n), scaling_mean=self.scaling_mean)


def scale_losses(losses) -> tuple[np.ndarray, float]:
    """Divide each loss by the sample mean; returns (scaled, mean)."""
    arr = np.asarray(losses, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("losses must be a nonempty 1-d sequence")
    if not np.isfinite(arr).all() or (arr <= 0.0).any():
        raise ValueError("losses must be finite and > 0")
    mean = float(arr.mean())
    return arr / mean, mean


def fit_expn(losses, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit ExpN(s, cfg.n) to mean-scaled ``losses`` by minimizing the enclosed area."""
    scaled, mean = scale_losses(losses)
    if scaled.size < 2:
        raise ValueError("need at least 2 losses to fit")
    emp = empirical_from_losses(scaled)
    n = int(cfg.n)

    evaluations = 0

    def objective(s: float) -> float:
        nonlocal evaluations
        evaluations += 1
        if evaluations > _MAX_EVALUATIONS:
            raise RuntimeError(
                f"scale search exceeded {_MAX_EVALUATIONS} objective evaluations"
            )
        points = np.column_stack((expn_cdf(emp.x, s, n), emp.y))
        return _area_and_crossings(points)[0]

    best_s, best_f = None, math.inf

    def record(s: float, f: float):
        nonlocal best_s, best_f
        if f < best_f:
            best_s, best_f = s, f

    grid = np.geomspace(cfg.s_lo, cfg.s_hi, _GRID_POINTS)
    grid_vals = []
    for s in grid:
        f = objective(float(s))
        grid_vals.append(f)
        record(float(s), f)
    k = int(np.argmin(grid_vals))
    a = float(grid[max(k - 1, 0)])
    b = float(grid[min(k + 1, _GRID_POINTS - 1)])

    # golden-section refinement inside the pre-scan bracket
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc = objective(c)
    fd = objective(d)
    record(c, fc)
    record(d, fd)
    while h > cfg.tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = objective(c)
            record(c, fc)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = objective(d)
            record(d, fd)

    mid = 0.5 * (a + b)
    record(mid, objective(mid))
    s_hat = float(best_s)

    at_boundary = (s_hat - cfg.s_lo) <= cfg.tol or (cfg.s_hi - s_hat) <= cfg.tol
    if at_boundary:
        warnings.warn(
            f"fitted scale {s_hat:.6g} sits at the search boundary "
            f"[{cfg.s_lo}, {cfg.s_hi}]; no interior minimum found",
            RuntimeWarning,
            stacklevel=2,
        )

    result_tna = tna_test(scaled, SeverityModel(params=expn_params(s_hat, n), scaling_mean=1.0))
    return FitResult(
        s_hat=s_hat,
        scaling_mean=mean,
        n=n,
        tna=result_tna,
        evaluations=evaluations,
        converged=True,
        at_boundary=at_boundary,
    )


def fit_exp4(losses, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit the Exp4 scale; identical to ``fit_expn`` with power 4."""
    if cfg.n != 4:
        raise ValueError(f"fit_exp4 requires cfg.n == 4, got {cfg.n}")
    return fit_expn(losses, cfg)
