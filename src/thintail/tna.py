"""Enclosed-area goodness-of-fit test (TN-A) for severity fits.

Sorted losses x_i receive plotting positions y_i = (i - 0.5)/n.  The
candidate CDF F maps each (x_i, y_i) to (F(x_i), y_i) inside the unit
square, where a perfect fit lies on the diagonal Y = X.  The statistic
is the area enclosed between the diagonal and the polyline through the
mapped points: the polyline is closed with (0, 0) and (1, 1) (matching
F(0) = 0 and F(inf) = 1), each segment is split where it crosses the
diagonal, and the absolute trapezoid areas are summed.  Smaller is
better; zero means every point sits on the diagonal.

The paper's significance levels come from the quadratic
A(p) = 2*sqrt(2)*p*(1 - sqrt(2)*p) (``significance_area``).  Every
decision is two-tailed: ``critical_value`` at p% is A(p/200); a
one-tailed value is ``significance_area(p / 100)``.  The null hypothesis
"the data follow the candidate distribution" is rejected at p% when the
statistic strictly exceeds the critical value.  A(p) is a sample-size-free threshold, not a test of
size p: under a fully specified null the area shrinks like 1/sqrt(n),
and A(0.025) = 0.0682 rejects true-model samples at a rate of 0.64 for
n = 10, 0.25 for n = 30, 0.046 for n = 75 and 0.0008 for n = 200.

``null_critical_value`` gives the calibrated value for a fully
specified continuous model: the statistic is then distribution-free,
its law depends only on n, and sqrt(n) times the area tends to the
integral of |B(t)| for a Brownian bridge B (Shepp, Ann. Probab. 10
(1982) 234-239).  It is simulated on demand on the seeded chunk grid
(``dist._run_chunks``) from one fixed seed; no fit, ``tna_test`` or
command uses it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dist import _require_between, _require_int, _require_losses, _require_real, _run_chunks

__all__ = [
    "TnaResult",
    "DEFAULT_LEVELS",
    "empirical_from_losses",
    "enclosed_area",
    "significance_area",
    "critical_value",
    "invert_significance",
    "decisions_for_area",
    "null_critical_value",
    "tna_test",
]

_SQRT2 = math.sqrt(2.0)
DEFAULT_LEVELS = (1.0, 5.0, 10.0)


@dataclass(frozen=True)
class TnaResult:
    """Enclosed-area statistic with the standard accept/reject decisions.

    ``reject`` maps the two-tailed level in percent to True when the
    null is rejected there (area strictly above the critical value).
    """

    area: float
    n_points: int
    crossings: int

    @property
    def reject(self) -> dict[float, bool]:
        return decisions_for_area(self.area)

    def rejected_at(self, level_percent: float) -> bool:
        """The two-tailed decision at any level in (0, 100), taken as ``decisions_for_area`` takes it."""
        return bool(_check_area(self.area) > critical_value(level_percent))


def empirical_from_losses(losses) -> tuple[np.ndarray, np.ndarray]:
    """Sorted losses ``x`` and their plotting positions y_i = (i - 0.5)/n."""
    x = np.sort(_require_losses(losses))
    y = (np.arange(1, x.size + 1) - 0.5) / x.size
    return x, y


def _checked_polyline_areas(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_polyline_areas`` after checking that every point is finite and inside the
    unit square, and that ``X`` is nondecreasing along its last axis."""
    for coords in (X, Y):
        if not (coords.min() >= 0.0 and coords.max() <= 1.0):  # also false for NaN
            raise ValueError("points must lie inside the unit square")
    if (X[..., 1:] < X[..., :-1]).any():
        raise ValueError("X coordinates must be nondecreasing")
    return _polyline_areas(X, Y)


def _polyline_areas(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enclosed areas and crossing counts along the last axis of ``X``.

    ``X`` holds nondecreasing coordinates in [0, 1], shape (..., n);
    ``Y`` broadcasts against it.  Each row is closed with (0, 0) and
    (1, 1) before the segments are measured.
    """
    xs = np.empty(X.shape[:-1] + (X.shape[-1] + 2,))
    xs[..., 0], xs[..., 1:-1], xs[..., -1] = 0.0, X, 1.0
    ys = np.empty_like(xs)
    ys[..., 0], ys[..., 1:-1], ys[..., -1] = 0.0, Y, 1.0
    d = ys - xs
    w = xs[..., 1:] - xs[..., :-1]
    d1, d2 = d[..., :-1], d[..., 1:]

    crossing = d1 * d2 < 0.0
    # straight segments on one side: trapezoid between segment and diagonal
    plain = w * (np.abs(d1) + np.abs(d2)) / 2.0
    # crossing segments: split at the interior diagonal crossing
    t = np.where(crossing, d1 / np.where(crossing, d1 - d2, 1.0), 0.0)
    split = t * w * np.abs(d1) / 2.0 + (1.0 - t) * w * np.abs(d2) / 2.0
    return np.where(crossing, split, plain).sum(axis=-1), crossing.sum(axis=-1)


def enclosed_area(points) -> float:
    """Area enclosed between the diagonal and the polyline through ``points``.

    The polyline is augmented with the endpoints (0, 0) and (1, 1);
    vertical (zero-width) segments contribute zero.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("need at least 1 point of shape (n, 2)")
    return float(_checked_polyline_areas(pts[:, 0], pts[:, 1])[0])


def significance_area(p: float) -> float:
    """A(p) = 2*sqrt(2)*p*(1 - sqrt(2)*p) for 0 < p < 1/sqrt(2)."""
    p = _require_between("p", p, 0, 1 / _SQRT2)
    return 2.0 * _SQRT2 * p * (1.0 - _SQRT2 * p)


def critical_value(level_percent: float) -> float:
    """The paper's two-tailed critical area, A(level_percent / 200); a one-tailed area
    is ``significance_area(level_percent / 100)``.

    The value does not depend on the sample size, so it is not a test of
    size ``level_percent``: at 5% it rejects true-model samples at a rate
    of 0.64 for n = 10, 0.25 for n = 30, 0.046 for n = 75 and 0.0008 for
    n = 200.  ``null_critical_value`` gives the calibrated value for n
    points under a fully specified null.
    """
    return significance_area(_require_between("level_percent", level_percent, 0, 100) / 200.0)


def _check_area(area) -> float:
    """``area`` as a float, if it lies in [0, 1/2], the range of an enclosed area."""
    area = _require_real("area", area)
    if not (0.0 <= area <= 0.5):
        raise ValueError(f"area must lie in [0, 1/2], got {area!r}")
    return area


def invert_significance(area: float) -> float:
    """Smaller root p of A(p) = area; the attained significance of a statistic."""
    return (1.0 - math.sqrt(1.0 - 2.0 * _check_area(area))) / (2.0 * _SQRT2)


def decisions_for_area(area: float) -> dict[float, bool]:
    """Two-tailed reject decisions; the null survives area == critical value.

    Decisions are taken at ``DEFAULT_LEVELS`` with the paper's
    sample-size-free ``critical_value``, whose actual size depends on n
    (see the module docstring); ``null_critical_value`` is the calibrated
    threshold for n points.  An area outside [0, 1/2], NaN included, is refused.
    """
    area = _check_area(area)
    return {level: bool(area > critical_value(level)) for level in DEFAULT_LEVELS}


_NULL_SEED = 0x7468696E7461696C  # fixed chunk-grid seed ("thintail"): no caller stream is touched
_NULL_REPLICATIONS = 100_000  # MC error of the attained size below 0.1 pp
_NULL_CHUNK_POINTS = 1 << 18  # uniforms per chunk, to bound memory for large n


def null_critical_value(level_percent: float, n_points: int) -> float:
    """Upper ``level_percent`` point of the area's null law for ``n_points`` points.

    Under a fully specified continuous model F(x_i) are sorted uniforms, so
    the law depends only on ``n_points``.  The value is the empirical quantile
    of 100,000 areas simulated from one fixed seed on the seeded chunk grid,
    the same for any THINTAIL_THREADS, on first use and cached per n, so every
    level at one n reads the same areas.  Each cached n holds 0.8 MB; the 8
    most recently used n are kept.  Rejecting when the area strictly exceeds
    it gives a test of size ``level_percent``.  A fitted scale needs a
    parametric bootstrap instead.
    """
    level = _require_between("level_percent", level_percent, 0, 100)
    return float(np.quantile(_null_areas(_require_int("n_points", n_points, 2)), 1.0 - level / 100.0))


@functools.lru_cache(maxsize=8)
def _null_areas(n: int) -> np.ndarray:
    """The areas of 100,000 sorted-uniform samples of ``n`` points, read-only."""
    ys = (np.arange(1, n + 1) - 0.5) / n
    areas = np.empty(_NULL_REPLICATIONS)

    def fill(chunk: int, rng: np.random.Generator, out: np.ndarray):
        out[:] = _polyline_areas(np.sort(rng.random((out.size, n)), axis=-1), ys)[0]

    _run_chunks(_NULL_SEED, areas, max(1, _NULL_CHUNK_POINTS // n), fill)
    areas.flags.writeable = False
    return areas


def tna_test(losses, model) -> TnaResult:
    """Run the enclosed-area test of ``losses`` against anything with a ``cdf`` on their axis.

    Decisions are two-tailed at ``DEFAULT_LEVELS`` (1%, 5% and 10%), the
    levels every report prints; the null survives a statistic exactly
    equal to the critical value.
    """
    x, y = empirical_from_losses(losses)
    area, crossings = _checked_polyline_areas(np.asarray(model.cdf(x), dtype=float), y)
    return TnaResult(float(area), x.size, int(crossings))
