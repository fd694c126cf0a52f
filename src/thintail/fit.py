"""Scale estimation for the power-exponential severity family.

Losses are first divided by their sample mean, so the scale parameter
of the fitted distribution is O(1) and a fixed search bracket covers
it.  The objective is the enclosed-area statistic of the mean-scaled
data against ExpN(s, n); a 16-point log-spaced pre-scan locates the
bracket holding the grid minimum and golden-section search refines it.
A derivative-free bracketed search is used deliberately: likelihood
surfaces for this family are nearly flat, which defeats gradient
methods, while the area statistic stays well behaved.

The bracket is fixed at [0.05, 10] and the tolerance at 1e-5.  The
widest pre-scan bracket, two grid steps at the top of the grid, is
5.07 wide, and golden-section search shrinks it below 1e-5 in 28
steps, so a fit makes at most 16 + 2 + 28 + 1 = 47 objective
evaluations.

One search runs B rows in lockstep, a row being one power fitted to
one sample (``curve`` fits nine powers of one sample).  The pre-scan is
one objective evaluation over all rows and grid points, and each
golden-section step is one evaluation over the rows whose bracket is
still wider than the tolerance.  An evaluation is one call of the
unchecked CDF kernel ``dist._expn_cdf``, bound here as ``expn_cdf``, the
name the benchmark's ``dist.cdf`` span wraps: ``_fit`` checks the powers
and losses once, and the scales come from the fixed bracket.  Every row
takes the same steps, in the same floating-point order, as a search of
its own would, so ``fit_expn`` is the B = 1 case of ``fit_expn_many``.
Each row's TN-A area and crossings come from one more evaluation of all
rows at their fitted scales, and its ``TnaResult`` is bit for bit what
``tna_test`` gives; that evaluation is not counted in ``evaluations``.

The reported ``s_hat`` lives on the mean-scaled axis (invariant under
rescaling all losses); ``s_hat_raw`` maps it back to loss units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dist import ExpNParams, SeverityModel, _expn_cdf as expn_cdf, _require_losses, check_power
from .tna import TnaResult, _checked_polyline_areas, empirical_from_losses

__all__ = ["FitResult", "scale_losses", "fit_expn", "fit_expn_many"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 16
_S_LO, _S_HI = 0.05, 10.0  # search bracket on the mean-scaled axis
_TOL = 1e-5  # the search stops once a bracket is narrower than this
_GRID = np.geomspace(_S_LO, _S_HI, _GRID_POINTS)  # the pre-scan's scales, shared by every search
_GRID.flags.writeable = False


@dataclass(frozen=True)
class FitResult:
    """Estimated scale with goodness-of-fit and search diagnostics.

    ``s_hat`` is the scale on the mean-scaled axis; multiply by
    ``scaling_mean`` (property ``s_hat_raw``) for loss units.  The search
    stops only once its bracket is narrower than the tolerance, so the
    one flag is ``at_boundary``: true exactly when ``s_hat`` lies within
    the tolerance of an end of the search bracket, where no interior
    minimum was found.
    """

    s_hat: float
    scaling_mean: float
    n: int
    tna: TnaResult
    evaluations: int
    at_boundary: bool

    @property
    def s_hat_raw(self) -> float:
        return self.s_hat * self.scaling_mean

    @property
    def model(self) -> SeverityModel:
        return SeverityModel(params=ExpNParams(self.s_hat, self.n), scaling_mean=self.scaling_mean)


def scale_losses(losses) -> tuple[np.ndarray, float]:
    """Divide each of at least 2 losses by the sample mean; returns (scaled, mean)."""
    arr = _require_losses(losses)
    mean = float(arr.mean())
    return arr / mean, mean


def fit_expn(losses, n: int = 4) -> FitResult:
    """Fit ExpN(s, n) to mean-scaled ``losses`` by minimizing the enclosed area.

    A scale at an end of the search bracket sets ``at_boundary`` and warns.
    """
    return _fit(losses, [n])[0]


def fit_expn_many(losses, powers) -> list[FitResult]:
    """``fit_expn(losses, n)`` for each power ``n`` of ``powers``, in one lockstep search."""
    return _fit(losses, list(powers))


def _fit(losses, powers: list) -> list[FitResult]:
    if not powers:
        raise ValueError("need at least one power")
    powers = np.array([check_power(n) for n in powers])
    scaled, mean = scale_losses(losses)
    x, y = empirical_from_losses(scaled)
    s_hats, evaluations = _search(x, y, powers)
    areas, crossings = _checked_polyline_areas(expn_cdf(x, s_hats[:, None], powers[:, None]), y)

    results = []
    for s_hat, n, count, area, crossed in zip(
        s_hats.tolist(), powers.tolist(), evaluations.tolist(), areas.tolist(), crossings.tolist()
    ):
        at_boundary = (s_hat - _S_LO) <= _TOL or (_S_HI - s_hat) <= _TOL
        if at_boundary:
            warnings.warn(
                f"fitted scale {s_hat:.6g} sits at the search boundary "
                f"[{_S_LO}, {_S_HI}]; no interior minimum found",
                RuntimeWarning,
                stacklevel=3,
            )
        results.append(FitResult(
            s_hat=s_hat,
            scaling_mean=mean,
            n=n,
            tna=TnaResult(area, x.size, crossed),
            evaluations=count,
            at_boundary=at_boundary,
        ))
    return results


def _search(x: np.ndarray, y: np.ndarray, powers: np.ndarray):
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
        X = expn_cdf(x if x.ndim == 1 else x[rows, None], s[:, :, None], powers[rows, None, None])
        return _checked_polyline_areas(X, y)[0]

    def record(s, f, best_s, best_f):
        better = f < best_f
        return np.where(better, s, best_s), np.where(better, f, best_f)

    rows = np.arange(size)
    grid_vals = areas(rows, np.broadcast_to(_GRID, (size, _GRID_POINTS)))
    k = np.argmin(grid_vals, axis=1)
    best_s, best_f = _GRID[k], grid_vals[rows, k]
    a = _GRID[np.maximum(k - 1, 0)]
    b = _GRID[np.minimum(k + 1, _GRID_POINTS - 1)]

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
        done = ~(h > _TOL)
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
