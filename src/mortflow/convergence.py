"""Empirical relaxation rates from deviations off the canonical flow.

A country's velocity rarely equals the pooled speed function and its
structural scores rarely sit exactly on the trajectory curves.  How fast
those gaps shrink is measured here: pool the deviations across countries,
compute their lag autocorrelation, and read the decay rate off a log-linear
fit.  The resulting per-component rates drive the forecaster's relaxation
terms.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DataError, InsufficientDataError, MissingDataError,
                     ShapeMismatchError)

# lags tried when estimating rates; the fit itself never uses lags > 25
DEFAULT_MAX_LAG = 30

# betas below this floor carry no usable signal on a log scale
BETA_FLOOR = 0.01
LAG_CUTOFF = 25

FALLBACK_ALPHA = 0.95


@dataclass(frozen=True)
class DeviationSeries:
    """Per-country deviation series, one mapping per component.

    ``speed`` holds velocity deviations anchored to the earlier year of
    each forward difference.  ``structural[i]`` holds score component
    ``i + 2``; the first component never deviates because it is the
    coordinate everything else is conditioned on.
    """

    speed: dict
    structural: tuple


@dataclass(frozen=True)
class RelaxationRates:
    """Fitted decay rates, one per score component.

    ``alpha_s[0]`` is pinned to zero: the first component is navigated,
    not relaxed.
    """

    alpha_v: float
    alpha_s: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha_v", float(self.alpha_v))
        object.__setattr__(self, "alpha_s",
                           tuple(float(a) for a in self.alpha_s))
        if not self.alpha_s:
            raise ValueError("alpha_s must have at least one component")
        if self.alpha_s[0] != 0.0:
            raise ValueError("alpha_s[0] must be 0.0, the first component "
                             "is never relaxed")
        for a in (self.alpha_v, *self.alpha_s):
            if not 0.0 <= a < 1.0:
                raise ValueError(f"rate {a} outside [0, 1)")

    @property
    def half_life_v(self):
        return half_life(self.alpha_v)

    @property
    def half_lives_s(self):
        return tuple(half_life(a) for a in self.alpha_s)

    def to_dict(self):
        return {"alpha_v": self.alpha_v, "alpha_s": list(self.alpha_s)}

    @classmethod
    def from_dict(cls, payload):
        return cls(alpha_v=payload["alpha_v"],
                   alpha_s=tuple(payload["alpha_s"]))


def half_life(alpha):
    """Years for a deviation to halve under per-year retention alpha."""
    if alpha <= 0.0:
        return 0.0
    if alpha >= 1.0:
        return math.inf
    return math.log(2.0) / -math.log(alpha)


def compute_deviations(ff, series_by_country):
    """Deviations of each country's raw path from the canonical functions.

    Velocity deviations compare raw forward differences against the speed
    function evaluated at the raw level; structural deviations compare raw
    scores against the trajectory curves, again at the raw level.  Entries
    that are None (countries skipped upstream) are ignored.
    """
    return DeviationSeries(
        speed=_speed_deviations(ff, series_by_country),
        structural=_structural_deviations(ff, series_by_country))


def _live_series(series_by_country):
    return [(country, series_by_country[country])
            for country in sorted(series_by_country)
            if series_by_country[country] is not None]


def _split_by_country(values, sizes):
    """Cut a pooled array back into consecutive per-country pieces."""
    return np.split(values, np.cumsum(sizes)[:-1])


def _speed_deviations(ff, series_by_country):
    # the speed curve is evaluated once on the pooled levels; np.interp
    # and the tail blend work element by element, so each country's
    # deviations are those of a call on its own levels
    live = [(country, series) for country, series
            in _live_series(series_by_country) if series.scores.shape[0] >= 2]
    if not live:
        return {}
    levels = [series.scores[:-1, 0] for _, series in live]
    speed = ff.speed(np.concatenate(levels))
    return {country: (series.years[:-1].copy(), series.ds1_raw - fitted)
            for (country, series), fitted in zip(
                live, _split_by_country(speed, [x.size for x in levels]))}


def _structural_deviations(paths, series_by_country):
    # paths is a FlowField or its era-free half: both carry n_components
    # and the trajectory curves, which is all the structural channel reads
    live = _live_series(series_by_country)
    for country, series in live:
        if series.scores.shape[1] < paths.n_components:
            raise ShapeMismatchError(
                f"{country}: series has {series.scores.shape[1]} components, "
                f"flow field needs {paths.n_components}"
            )
    if not live:
        return tuple(dict() for _ in range(paths.n_components - 1))
    sizes = [series.scores.shape[0] for _, series in live]
    s1_raw = np.concatenate([series.scores[:, 0] for _, series in live])
    structural = []
    for k in range(2, paths.n_components + 1):
        curve = _split_by_country(paths.trajectory(k)(s1_raw), sizes)
        structural.append({
            country: (series.years.copy(), series.scores[:, k - 1] - fitted)
            for (country, series), fitted in zip(live, curve)})
    return tuple(structural)


def _year_grid(component, pad):
    """Deviations on a dense country x year grid, countries sorted.

    Returns (values, present, width): values are 0 where ``present`` is
    False, and up to ``pad`` absent columns follow the last year so that
    every lag below ``width`` can be sliced at the full ``width``.
    """
    countries = sorted(component)
    series = [(np.asarray(component[c][0]),
               np.asarray(component[c][1], dtype=float)) for c in countries]
    for country, (years, values) in zip(countries, series):
        if years.ndim != 1 or years.shape != values.shape:
            raise ShapeMismatchError(
                f"{country}: years and deviations differ in shape")
    row = np.repeat(np.arange(len(series)), [y.size for y, _ in series])
    years = np.concatenate([y for y, _ in series] or [np.zeros(0)])
    whole = years.astype(np.int64)
    # a year must be whole and above its predecessor in the same country
    bad = whole != years
    bad[1:] |= (np.diff(whole) <= 0) & (row[1:] == row[:-1])
    if np.any(bad):
        raise DataError(f"{countries[row[np.argmax(bad)]]}: deviation years "
                        "must be strictly increasing whole years")
    first = int(whole.min()) if whole.size else 0
    width = int(whole.max()) - first + 1 if whole.size else 0
    grid = np.zeros((len(series), width + min(pad, width)))
    present = np.zeros(grid.shape, dtype=bool)
    grid[row, whole - first] = np.concatenate([v for _, v in series]
                                              or [np.zeros(0)])
    present[row, whole - first] = True
    return grid, present, width


def lag_sums(component, lags):
    """Pooled lag sums of one deviation component, one entry per lag.

    ``component`` maps country -> (years, values) with whole, strictly
    increasing years.  For each lag h >= 0 the pairs are the cells
    observed both in year t and in year t + h of the same country;
    ``num`` sums value(t + h) * value(t) and ``den`` value(t)**2 over
    them, and ``pairs`` counts them.  Returns the three as arrays.
    """
    if any(h < 0 for h in lags):
        raise ValueError("lags must be non-negative")
    grid, present, width = _year_grid(component, max(lags, default=0))
    head, head_present = grid[:, :width], present[:, :width]
    num = np.zeros(len(lags))
    den = np.zeros(len(lags))
    pairs = np.zeros(len(lags), dtype=np.int64)
    for i, h in enumerate(lags):
        if h >= width:
            continue  # no pair spans more years than the grid holds
        both = head_present & present[:, h:h + width]
        v0 = head[both]
        num[i] = v0 @ grid[:, h:h + width][both]
        den[i] = v0 @ v0
        pairs[i] = v0.size
    return num, den, pairs


def pooled_autocorr(component, h):
    """Lag-h autocorrelation pooled across countries.

    Cross products of deviations h calendar years apart, divided by the
    squared deviations at the earlier end of each pair.  Both sums run
    over the same pairs, so lag 0 is exactly 1 and pairs spanning missing
    years simply drop out.
    """
    (num,), (den,), (pairs,) = lag_sums(component, [h])
    if pairs == 0:
        raise MissingDataError(f"no lag-{h} pairs in pooled deviations")
    if den == 0.0:
        raise InsufficientDataError(
            f"deviations identically zero at every lag-{h} pair"
        )
    return float(num / den)


def beta_curve(component, max_lag):
    """Pooled autocorrelations at lags 1..max_lag, as (lags, betas).

    Lags without a pair, or whose pairs are all zero at the earlier end,
    are left out: there pooled_autocorr raises.
    """
    lags = np.arange(1, max_lag + 1)
    num, den, pairs = lag_sums(component, lags)
    keep = (pairs > 0) & (den != 0.0)
    return lags[keep].astype(float), num[keep] / den[keep]


def fit_rate(betas, lags=None):
    """Decay rate from a beta curve: exp of the log-beta slope.

    Lags beyond LAG_CUTOFF and betas below BETA_FLOOR (including anything
    non-finite or negative) are discarded before the regression.  An
    intercept is fitted but only the slope is used.  The result is clipped
    to [0, 0.999].
    """
    betas = np.asarray(betas, dtype=float)
    if lags is None:
        lags = np.arange(1, betas.size + 1, dtype=float)
    else:
        lags = np.asarray(lags, dtype=float)
    keep = np.isfinite(betas) & (betas >= BETA_FLOOR) & (lags <= LAG_CUTOFF)
    if np.count_nonzero(keep) < 2:
        raise InsufficientDataError(
            f"only {np.count_nonzero(keep)} usable lags, need at least 2"
        )
    slope = np.polyfit(lags[keep], np.log(betas[keep]), 1)[0]
    return float(np.clip(np.exp(slope), 0.0, 0.999))


def estimate_rates(ff, series_by_country, max_lag=DEFAULT_MAX_LAG,
                   fallback=FALLBACK_ALPHA):
    """Fit all relaxation rates for a flow field.

    Each component gets its beta curve over lags 1..max_lag (lags without
    valid pairs, or with identically zero deviations, are skipped) and a
    log-linear fit.  Components where fewer than two lags survive fall
    back to ``fallback`` with a warning.
    """
    alpha_v = speed_rate(ff, series_by_country, max_lag, fallback)
    return RelaxationRates(
        alpha_v=alpha_v,
        alpha_s=structural_rates(ff, series_by_country, max_lag, fallback))


def speed_rate(ff, series_by_country, max_lag=DEFAULT_MAX_LAG,
               fallback=FALLBACK_ALPHA):
    """The velocity rate alpha_v alone; it depends on the speed curve."""
    return _fit_component(_speed_deviations(ff, series_by_country), "speed",
                          max_lag, fallback)


def structural_rates(paths, series_by_country, max_lag=DEFAULT_MAX_LAG,
                     fallback=FALLBACK_ALPHA):
    """The structural rates alpha_s, led by the pinned 0.0.

    They read only the trajectories, so ``paths`` may be a FlowField or
    the era-free FlowPaths it was completed from.
    """
    components = _structural_deviations(paths, series_by_country)
    return (0.0, *(_fit_component(component, f"component {i + 2}", max_lag,
                                  fallback)
                   for i, component in enumerate(components)))


def _fit_component(component, label, max_lag, fallback):
    lags, betas = beta_curve(component, max_lag)
    try:
        return fit_rate(betas, lags=lags)
    except InsufficientDataError:
        warnings.warn(f"{label}: too few usable lags, "
                      f"falling back to alpha={fallback}")
        return fallback
