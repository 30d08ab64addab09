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

from .errors import InsufficientDataError, MissingDataError, ShapeMismatchError

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
    speed = {}
    structural = [dict() for _ in range(ff.n_components - 1)]
    for country in sorted(series_by_country):
        series = series_by_country[country]
        if series is None:
            continue
        if series.scores.shape[1] < ff.n_components:
            raise ShapeMismatchError(
                f"{country}: series has {series.scores.shape[1]} components, "
                f"flow field needs {ff.n_components}"
            )
        s1_raw = series.scores[:, 0]
        if s1_raw.size >= 2:
            dv = series.ds1_raw - ff.speed(s1_raw[:-1])
            speed[country] = (series.years[:-1].copy(), dv)
        for k in range(2, ff.n_components + 1):
            delta = series.scores[:, k - 1] - ff.trajectory(k)(s1_raw)
            structural[k - 2][country] = (series.years.copy(), delta)
    return DeviationSeries(speed=speed, structural=tuple(structural))


def pooled_autocorr(component, h):
    """Lag-h autocorrelation pooled across countries.

    Cross products of deviations h calendar years apart, divided by the
    squared deviations at the earlier end of each pair.  Both sums run
    over the same pairs, so lag 0 is exactly 1 and pairs spanning missing
    years simply drop out.
    """
    num = 0.0
    den = 0.0
    pairs = 0
    for country in sorted(component):
        years, values = component[country]
        years = np.asarray(years, dtype=float)
        values = np.asarray(values, dtype=float)
        if years.size == 0:
            continue
        target = years + float(h)
        pos = np.searchsorted(years, target)
        pos_clipped = np.minimum(pos, years.size - 1)
        ok = (pos < years.size) & (years[pos_clipped] == target)
        if not np.any(ok):
            continue
        v0 = values[ok]
        v1 = values[pos_clipped[ok]]
        num += float(np.dot(v1, v0))
        den += float(np.dot(v0, v0))
        pairs += int(np.count_nonzero(ok))
    if pairs == 0:
        raise MissingDataError(f"no lag-{h} pairs in pooled deviations")
    if den == 0.0:
        raise InsufficientDataError(
            f"deviations identically zero at every lag-{h} pair"
        )
    return num / den


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
    devs = compute_deviations(ff, series_by_country)
    alpha_v = _fit_component(devs.speed, "speed", max_lag, fallback)
    alpha_s = [0.0]
    for i, component in enumerate(devs.structural):
        label = f"component {i + 2}"
        alpha_s.append(_fit_component(component, label, max_lag, fallback))
    return RelaxationRates(alpha_v=alpha_v, alpha_s=tuple(alpha_s))


def _fit_component(component, label, max_lag, fallback):
    lags = []
    betas = []
    for h in range(1, max_lag + 1):
        try:
            betas.append(pooled_autocorr(component, h))
        except (MissingDataError, InsufficientDataError):
            continue
        lags.append(h)
    try:
        return fit_rate(np.array(betas), lags=np.array(lags, dtype=float))
    except InsufficientDataError:
        warnings.warn(f"{label}: too few usable lags, "
                      f"falling back to alpha={fallback}")
        return fallback
