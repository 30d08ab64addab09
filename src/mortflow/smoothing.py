"""Scatterplot smoothing primitives.

Everything downstream that looks like a fitted curve is a ``SmoothFn``:
a knot grid with fitted values, evaluated by linear interpolation and
held flat beyond the grid.  Curves that need behaviour past the data
frontier are wrapped in an ``ExtendedFn`` which blends into a tangent
line measured just inside the frontier.
"""

import bisect
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, EmptyEraError, TailConfigError

# Knot grids are capped so artifacts stay small and evaluation cheap.
MAX_KNOTS = 1000

# Bootstrap resample size cap for the era-weighted fit.
MAX_RESAMPLE = 20000

# LOWESS fits its knots in chunks of about this many (knot, point)
# cells, 4 MB per temporary, so that a fit's transient memory stays
# below what the factorization already holds.
WINDOW_CELLS = 500_000


@dataclass(frozen=True)
class SmoothFn:
    """Piecewise-linear curve: fitted values on a sorted knot grid.

    Evaluation interpolates linearly between knots and holds the boundary
    value flat outside the knot range.  ``at`` evaluates one point in
    Python floats, bit for bit as ``__call__`` does.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape:
            raise DataError("knots and values must be 1-d arrays of equal length")
        if knots.size == 0:
            raise DataError("empty knot grid")
        if not np.isfinite(knots).all():
            raise DataError("knots must be finite")
        if np.any(np.diff(knots) <= 0):
            raise DataError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return np.interp(x, self.knots, self.values)

    @cached_property
    def _points(self):
        """Knots and values as Python lists, built on the first ``at``."""
        return self.knots.tolist(), self.values.tolist()

    def at(self, x):
        """The curve at one float x, as a float.

        numpy's interp, step for step: one knot gives its value for any
        x, NaN included; otherwise NaN passes through, x beyond either
        end takes the end value, x on a knot takes that knot's value, and
        between knots the line through the left knot is tried first and,
        if it gives NaN, the one through the right.
        """
        xs, ys = self._points
        if len(xs) == 1:
            return ys[0]
        if x != x:
            return x
        if x < xs[0]:
            return ys[0]
        if x > xs[-1]:
            return ys[-1]
        j = bisect.bisect_right(xs, x) - 1
        if xs[j] == x:
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        y = slope * (x - xs[j]) + ys[j]
        if y != y:
            y = slope * (x - xs[j + 1]) + ys[j + 1]
            if y != y and ys[j] == ys[j + 1]:
                y = ys[j]
        return y

    def to_dict(self):
        return {"knots": self.knots.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(knots=np.asarray(d["knots"]), values=np.asarray(d["values"]))


def smoothstep(t):
    """Cubic easing t^2 (3 - 2t); C1 at both ends of [0, 1]."""
    t = np.asarray(t, dtype=float)
    out = t * t * (3.0 - 2.0 * t)
    return out if out.ndim else float(out)


def _fit_knots(xc, ys, h):
    """Degree-1 tricube fits, one per row, evaluated at xc = 0.

    ``xc`` holds each knot's points as offsets from it (knots x m); each
    of ``ys`` is a response, an array of that shape or a length-m array
    shared by every row; ``h`` is the radius per row.  A row whose
    weighted design is degenerate gets the weighted mean, and a row with
    no positive weight ("dead") the mean of its points within h.
    Returns the (responses, knots) values and the dead-row mask.
    """
    h = h[:, None]
    w = (1.0 - np.minimum(np.abs(xc) / h, 1.0) ** 3) ** 3
    wx = w * xc
    s0 = w.sum(axis=1)
    s1 = wx.sum(axis=1)
    s2 = np.einsum("ij,ij->i", wx, xc)
    denom = s0 * s2 - s1 * s1
    ok = denom > 1e-12 * np.maximum(s0 * s2, 1e-300)
    denom, mean_of = np.where(ok, denom, 1.0), np.where(s0 > 0, s0, 1.0)
    dead = s0 <= 0
    near = np.abs(xc[dead]) <= h[dead] if dead.any() else None
    values = np.empty((len(ys), xc.shape[0]))
    for value, yv in zip(values, ys):
        yv = np.broadcast_to(yv, xc.shape)
        t0 = np.einsum("ij,ij->i", w, yv)
        t1 = np.einsum("ij,ij->i", wx, yv)
        value[:] = np.where(ok, (s2 * t0 - s1 * t1) / denom, t0 / mean_of)
        if near is not None:
            value[dead] = ((near * yv[dead]).sum(axis=1)
                           / np.maximum(near.sum(axis=1), 1))
    return values, dead


def lowess(x, y, bandwidth=0.20, max_knots=MAX_KNOTS):
    """Locally linear scatterplot smoother with a tricube kernel.

    Parameters
    ----------
    x, y : array_like
        Finite observations.  ``x`` needs at least two distinct values.
        A 2-D ``y`` of shape (k, n), n the size of ``x``, holds k
        responses on the same x; any other ``y`` is flattened.
    bandwidth : float
        Fraction of points in each local window; finite (ConfigError).
    max_knots : int
        Evaluation grid cap.  Above it the grid is quantile-spaced.

    Returns
    -------
    SmoothFn, or for a (k, n) ``y`` a list of k SmoothFn, one per row.

    Notes
    -----
    Degree-1 local fits, zero robustness iterations.  The window of a
    knot is the contiguous run of ``span = ceil(bandwidth * n)`` points
    (at least 2) in sorted x that lies nearest to it (Cleveland 1979),
    and its radius h is the distance to the farthest of them, floored at
    ``1e-12 * max(range of x, 1)``.  Points at distance exactly h,
    boundary ties included, get zero kernel weight.  A window whose
    weighted design is degenerate falls back to the weighted local mean,
    and a window whose points all sit at distance h (so no weight is
    positive) to the unweighted mean of every point within distance h.
    """
    if not np.isfinite(bandwidth):
        raise ConfigError(f"bandwidth {bandwidth} must be finite")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float)
    multi = y.ndim == 2 and y.shape[1] == x.size
    if not multi:
        y = y.reshape(1, -1)
    if y.shape[1] != x.size:
        raise DataError("x and y must have equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("x and y must be finite")
    n = x.size
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[:, order]
    xu = xs[np.diff(xs, prepend=-np.inf) != 0.0]
    if xu.size < 2:
        raise DataError("need at least two distinct x values")

    if xu.size > max_knots:
        knots = np.unique(np.quantile(xs, np.linspace(0.0, 1.0, max_knots)))
    else:
        knots = xu

    span = int(np.ceil(bandwidth * n))
    span = min(max(span, 2), n)
    scale = xu[-1] - xu[0]
    h_floor = 1e-12 * max(scale, 1.0)

    # The nearest run of a knot starts at the first i whose right end
    # xs[i + span - 1] is at least as far from the knot as its left end
    # xs[i], or one point before.  That test is monotone in i, as is
    # xs[i] + xs[i + span - 1] >= 2 * knot, which one search settles; the
    # sum rounds differently at near-ties, so the start then steps to
    # where the test itself first holds (with xs padded by -inf and inf,
    # it fails at i = -1 and holds at i = n - span + 1).
    last = n - span
    pad = np.concatenate(([-np.inf], xs, [np.inf]))
    low = np.searchsorted(xs[:last + 1] + xs[span - 1:], 2.0 * knots)
    while True:
        up = pad[low + span] - knots < knots - pad[low + 1]
        down = pad[low + span - 1] - knots >= knots - pad[low]
        if not (up.any() or down.any()):
            break
        low += up
        low -= down
    starts = (np.maximum(low - 1, 0), np.minimum(low, last))
    reach = [np.maximum(knots - xs[i], xs[i + span - 1] - knots)
             for i in starts]
    start = np.where(reach[0] <= reach[1], *starts)
    h_raw = np.minimum(*reach)
    h = np.maximum(h_raw, h_floor)

    fitted = np.empty((len(y), knots.size))
    dead = np.zeros(knots.size, dtype=bool)
    chunk = max(1, WINDOW_CELLS // span)
    offsets = np.arange(span)
    for lo in range(0, knots.size, chunk):
        rows = slice(lo, lo + chunk)
        idx = start[rows, None] + offsets
        fitted[:, rows], dead[rows] = _fit_knots(
            xs[idx] - knots[rows, None], [v[idx] for v in ys], h[rows])

    # A floored radius can reach past the window, and the dead-window
    # mean takes every point within h, ties outside the window included;
    # both are rare, so those knots are refitted against all n points.
    redo = np.flatnonzero(dead | (h_raw < h_floor))
    chunk = max(1, WINDOW_CELLS // n)
    for lo in range(0, redo.size, chunk):
        rows = redo[lo:lo + chunk]
        fitted[:, rows], _ = _fit_knots(x - knots[rows, None], y, h[rows])

    fns = [SmoothFn(knots=knots, values=values) for values in fitted]
    return fns if multi else fns[0]


# ----------------------------------------------------------------------
# Era weighting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EraKernel:
    """One-sided exponential recency kernel anchored at an origin year.

    Weight halves every ``tau`` years into the past and cuts to zero
    beyond ``window`` years.  Future years are the caller's problem; every
    fit in this package pools only years at or before the origin.
    """

    origin: float
    tau: float
    window: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        if not self.window > 0:
            raise ConfigError("window must be positive")


def era_weights(years, kernel):
    """Kernel weight for each year: 2^(-(t0 - t)/tau), 0 beyond the window."""
    years = np.asarray(years, dtype=float)
    age = kernel.origin - years
    w = 2.0 ** (-age / kernel.tau)
    return np.where(age > kernel.window, 0.0, w)


def era_lowess(x, y, years, kernel, bandwidth=0.20, seed=0,
               max_resample=MAX_RESAMPLE, max_knots=MAX_KNOTS):
    """Era-weighted LOWESS via a weighted bootstrap.

    Points are resampled with replacement proportionally to their era
    weights (resample size ``min(3n, max_resample)``), then smoothed with
    the standard unweighted fit.  Deterministic for a given seed; the
    generator is counter-based so results do not depend on platform.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    years = np.asarray(years, dtype=float).ravel()
    if not (x.shape == y.shape == years.shape):
        raise DataError("x, y and years must have equal length")
    w = era_weights(years, kernel)
    total = w.sum()
    if not total > 0:
        raise EmptyEraError("no observations carry positive era weight")
    m = min(3 * x.size, max_resample)
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(x.size, size=m, replace=True, p=w / total)
    return lowess(x[idx], y[idx], bandwidth=bandwidth, max_knots=max_knots)


# ----------------------------------------------------------------------
# Tangent tail extension
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedFn:
    """SmoothFn continued past a frontier by its interior tangent.

    At or above the transition the base curve applies unchanged.  Over
    ``blend_width`` below it the curve eases into the tangent line via
    smoothstep, and further below it is exactly that line, so far
    extrapolations stay affine instead of saturating flat.  ``at``
    evaluates one point in Python floats, bit for bit as ``__call__``.
    """

    base: SmoothFn
    transition: float
    delta: float
    blend_width: float
    anchor: float = field(default=0.0)
    slope: float = field(default=0.0)

    def __post_init__(self):
        if not self.blend_width > 0:
            raise TailConfigError(
                f"blend width {self.blend_width} must be positive")

    @classmethod
    def build(cls, base, transition, delta=2.0, blend_width=3.0):
        lo, hi = base.knots[0], base.knots[-1]
        if transition < lo or transition + delta > hi:
            raise TailConfigError(
                f"transition {transition} with delta {delta} falls outside "
                f"the knot range [{lo}, {hi}]"
            )
        anchor = float(base(transition))
        slope = (anchor - float(base(transition + delta))) / (-delta)
        return cls(base=base, transition=float(transition), delta=float(delta),
                   blend_width=float(blend_width), anchor=anchor, slope=slope)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        line = self.anchor + self.slope * (s - self.transition)
        # maximum/minimum rather than np.clip: cheaper on small arrays,
        # and t * t erases the one place they differ, the sign of a zero
        t = np.minimum(np.maximum((self.transition - s) / self.blend_width,
                                  0.0), 1.0)
        w = smoothstep(t)
        out = (1.0 - w) * self.base(s) + w * line
        return out if out.ndim else float(out)

    def at(self, s):
        """The curve at one float s, as a float."""
        line = self.anchor + self.slope * (s - self.transition)
        t = min(max((self.transition - s) / self.blend_width, 0.0), 1.0)
        w = t * t * (3.0 - 2.0 * t)
        return (1.0 - w) * self.base.at(s) + w * line

    def to_dict(self):
        return {"base": self.base.to_dict(), "transition": self.transition,
                "delta": self.delta, "blend_width": self.blend_width}

    @classmethod
    def from_dict(cls, d):
        return cls.build(SmoothFn.from_dict(d["base"]), d["transition"],
                         delta=d["delta"], blend_width=d["blend_width"])
