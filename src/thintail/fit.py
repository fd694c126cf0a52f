"""Scale estimation for the power-exponential severity family.

Losses are first divided by their sample mean, so the scale parameter
of the fitted distribution is O(1) and a fixed search bracket covers
it.  The objective is the enclosed-area statistic of the mean-scaled
data against ExpN(s, n); a 16-point log-spaced pre-scan locates the
bracket holding the grid minimum and golden-section search refines it.
A derivative-free bracketed search is used deliberately: likelihood
surfaces for this family are nearly flat, which defeats gradient
methods, while the area statistic stays well behaved.

One search runs B rows in lockstep, a row being one power fitted to
one sample (``curve`` fits nine powers of one sample).  The pre-scan is
one objective evaluation over all rows and grid points, and each
golden-section step is one evaluation over the rows whose bracket is
still wider than the tolerance.  Every row takes the same steps, in the
same floating-point order, as a search of its own would, so
``fit_expn`` is the B = 1 case of ``fit_expn_many``.

The reported ``s_hat`` lives on the mean-scaled axis (invariant under
rescaling all losses); ``s_hat_raw`` maps it back to loss units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import SeverityModel, check_power, expn_cdf, expn_params
from .tna import TnaResult, _checked_polyline_areas, empirical_from_losses, tna_test

__all__ = ["FitConfig", "FitResult", "scale_losses", "fit_exp4", "fit_expn", "fit_expn_many"]

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
    ``scaling_mean`` (property ``s_hat_raw``) for loss units.  The search
    stops only once its bracket is narrower than ``tol``, so ``converged``
    is false exactly when ``s_hat`` lies within ``tol`` of an end of the
    search bracket (``at_boundary``): no interior minimum was found.
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
    return _fit(losses, [cfg])[0]


def fit_expn_many(losses, cfgs) -> list[FitResult]:
    """``fit_expn(losses, cfg)`` for each of ``cfgs``, in one lockstep search.

    The configs may differ only in the power ``n``.
    """
    return _fit(losses, list(cfgs))


def _fit(losses, cfgs: list[FitConfig]) -> list[FitResult]:
    if not cfgs:
        raise ValueError("need at least one fit config")
    cfg = cfgs[0]
    if any((c.s_lo, c.s_hi, c.tol) != (cfg.s_lo, cfg.s_hi, cfg.tol) for c in cfgs):
        raise ValueError("fit configs in one search must share s_lo, s_hi and tol")
    scaled, mean = scale_losses(losses)
    if scaled.size < 2:
        raise ValueError("need at least 2 losses to fit")
    emp = empirical_from_losses(scaled)
    powers = np.array([int(c.n) for c in cfgs])
    s_hats, evaluations = _search(emp.x, emp.y, powers, cfg)

    results = []
    for s_hat, n, count in zip(s_hats.tolist(), powers.tolist(), evaluations.tolist()):
        at_boundary = (s_hat - cfg.s_lo) <= cfg.tol or (cfg.s_hi - s_hat) <= cfg.tol
        if at_boundary:
            warnings.warn(
                f"fitted scale {s_hat:.6g} sits at the search boundary "
                f"[{cfg.s_lo}, {cfg.s_hi}]; no interior minimum found",
                RuntimeWarning,
                stacklevel=3,
            )
        result_tna = tna_test(scaled, SeverityModel(params=expn_params(s_hat, n), scaling_mean=1.0))
        results.append(FitResult(
            s_hat=s_hat,
            scaling_mean=mean,
            n=n,
            tna=result_tna,
            evaluations=count,
            converged=not at_boundary,
            at_boundary=at_boundary,
        ))
    return results


def _search(x: np.ndarray, y: np.ndarray, powers: np.ndarray, cfg: FitConfig):
    """Pre-scan and golden-section search of the area over s, one row per power.

    ``x`` holds sorted mean-scaled losses, shape (m,) for a sample shared
    by every row or (rows, m) for a sample per row, and ``y`` the plotting
    positions.  Returns the best scale and the evaluation count per row.
    """
    size = len(powers)
    evaluations = np.zeros(size, dtype=np.int64)

    def areas(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Areas at scales ``s``, shape (len(rows), k), of the given rows."""
        evaluations[rows] += s.shape[1]
        if evaluations[rows].max() > _MAX_EVALUATIONS:
            raise RuntimeError(f"scale search exceeded {_MAX_EVALUATIONS} objective evaluations")
        X = expn_cdf(x if x.ndim == 1 else x[rows, None], s[:, :, None], powers[rows, None, None])
        return _checked_polyline_areas(X, y)[0]

    def record(s, f, best_s, best_f):
        better = f < best_f
        return np.where(better, s, best_s), np.where(better, f, best_f)

    rows = np.arange(size)
    grid = np.geomspace(cfg.s_lo, cfg.s_hi, _GRID_POINTS)
    grid_vals = areas(rows, np.broadcast_to(grid, (size, _GRID_POINTS)))
    k = np.argmin(grid_vals, axis=1)
    best_s, best_f = grid[k], grid_vals[rows, k]
    a = grid[np.maximum(k - 1, 0)]
    b = grid[np.minimum(k + 1, _GRID_POINTS - 1)]

    # golden-section refinement inside the pre-scan bracket; a row leaves the
    # loop, with its bracket and best point, once the bracket is within tol
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = areas(rows, np.column_stack((c, d))).T
    best_s, best_f = record(c, fc, best_s, best_f)
    best_s, best_f = record(d, fd, best_s, best_f)
    final = np.empty((4, size))  # a, b, best s, best area
    while rows.size:
        done = ~(h > cfg.tol)
        if done.any():
            final[:, rows[done]] = a[done], b[done], best_s[done], best_f[done]
            rows, a, b, c, d, fc, fd, h, best_s, best_f = (
                v[~done] for v in (rows, a, b, c, d, fc, fd, h, best_s, best_f))
            continue
        # fc < fd keeps [a, d] and probes a new c; otherwise keeps [c, b] and probes a new d
        left = fc < fd
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        probe = np.where(left, b - _INVPHI * h, a + _INVPHI * h)
        f_probe = areas(rows, probe[:, None])[:, 0]
        c, d = np.where(left, probe, kept), np.where(left, kept, probe)
        fc, fd = np.where(left, f_probe, f_kept), np.where(left, f_kept, f_probe)
        best_s, best_f = record(probe, f_probe, best_s, best_f)

    a, b, best_s, best_f = final
    mid = 0.5 * (a + b)
    best_s, _ = record(mid, areas(np.arange(size), mid[:, None])[:, 0], best_s, best_f)
    return best_s, evaluations


def fit_exp4(losses, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit the Exp4 scale; identical to ``fit_expn`` with power 4."""
    if cfg.n != 4:
        raise ValueError(f"fit_exp4 requires cfg.n == 4, got {cfg.n}")
    return fit_expn(losses, cfg)
