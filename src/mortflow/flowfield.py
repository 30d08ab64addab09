"""Level-parameterised flow field over the score space.

The first score acts as a clock: the pooled cross-country fit of its
one-year change against its level is the speed function, and the other
scores ride curves indexed by that level (the trajectory functions).
Both, together with the level-to-life-expectancy maps, make up the
FlowField the forecaster integrates.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ShapeMismatchError
from .lifetable import observed_e0
from .pca import score_grid
from .smoothing import EraKernel, ExtendedFn, SmoothFn, era_lowess, lowess

# a country needs this many observed years to contribute at all
MIN_SERIES_YEARS = 5

# pooled speed observations required before the era fit is attempted
MIN_SPEED_OBS = 20


@dataclass
class CountryScoreSeries:
    """One country's observed path through score space.

    Forward differences are divided by the year gap, so uneven spacing
    yields per-year velocities; element i of the difference arrays is
    anchored to ``years[i]``.
    """

    country: str
    years: np.ndarray
    scores: np.ndarray
    s1_smooth: np.ndarray
    ds1_raw: np.ndarray
    ds1_smooth: np.ndarray
    e0: np.ndarray


def build_country_series(country, years, scores, e0, bandwidth=None):
    """Assemble and smooth one country's score series.

    Returns None (with a warning) when fewer than MIN_SERIES_YEARS
    observations exist.  The temporal smoothing of the first score uses
    bandwidth max(0.25, 10/n) unless overridden.
    """
    years = np.asarray(years)
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[0] != years.size:
        raise ShapeMismatchError("scores must be (n_years, n_components)")
    e0 = np.broadcast_to(np.asarray(e0, dtype=float), (years.size,))
    n = years.size
    if n < MIN_SERIES_YEARS:
        warnings.warn(f"{country}: only {n} observed years; series skipped")
        return None
    order = np.argsort(years)
    years = years[order].astype(int)
    scores = scores[order]
    e0 = e0[order].copy()
    if bandwidth is None:
        bandwidth = max(0.25, 10.0 / n)
    fn = lowess(years.astype(float), scores[:, 0], bandwidth=bandwidth)
    s1_smooth = fn(years.astype(float))
    gaps = np.diff(years).astype(float)
    ds1_raw = np.diff(scores[:, 0]) / gaps
    ds1_smooth = np.diff(s1_smooth) / gaps
    return CountryScoreSeries(country=country, years=years, scores=scores,
                              s1_smooth=s1_smooth, ds1_raw=ds1_raw,
                              ds1_smooth=ds1_smooth, e0=e0)


def series_from_fit(model, pca, tensor, grid=None):
    """Country series for every sufficiently observed country in a fit.

    Scores come from the fitted score space (``grid``, which is
    ``score_grid(model, pca)`` and is built here if not passed); life
    expectancy from the observed logit schedules themselves.
    """
    if grid is None:
        grid = score_grid(model, pca)
    e0 = observed_e0(tensor.values, tensor.mask)
    out = {}
    for c, country in enumerate(tensor.countries):
        t_idx = np.flatnonzero(tensor.mask[c])
        if t_idx.size == 0:
            continue
        series = build_country_series(
            country, tensor.years[t_idx], grid[c, t_idx], e0[c, t_idx])
        if series is not None:
            out[country] = series
    return out


@dataclass
class FlowField:
    """Fitted dynamics: speed, trajectories, level maps, tail behaviour."""

    speed: ExtendedFn
    trajectories: tuple
    s1_of_e0: SmoothFn
    e0_of_s1: ExtendedFn
    transition: float
    countries: tuple
    n_components: int

    def trajectory(self, k):
        """Trajectory function for score component k (2-based)."""
        return self.trajectories[k - 2]


def truncate_series(series_by_country, origin):
    """Restrict each country series to years <= origin, re-smoothing.

    Series extending past the origin are rebuilt from their raw scores on
    the retained years so nothing after the origin can leak in, not even
    through a smoothing window.  Countries left with too few years (or
    mapped to None) are dropped.  Returns a dict sorted by country.
    """
    out = {}
    for country, series in sorted(series_by_country.items()):
        if series is None:
            continue
        if series.years[-1] > origin:
            keep = series.years <= origin
            series = build_country_series(country, series.years[keep],
                                          series.scores[keep], series.e0[keep])
            if series is None:
                continue
        out[country] = series
    return out


@dataclass
class FlowPaths:
    """The half of a flow field that the era settings do not touch.

    Trajectories, level maps and the transition are plain fits on raw
    scores, and the pooled speed observations are fixed by the origin,
    so one FlowPaths backs the speed fit of every (tau, window, seed).
    """

    speed_obs: tuple
    trajectories: tuple
    s1_of_e0: SmoothFn
    e0_of_s1: ExtendedFn
    transition: float
    origin: int
    countries: tuple
    n_components: int

    def trajectory(self, k):
        """Trajectory function for score component k (2-based)."""
        return self.trajectories[k - 2]


def fit_paths(series_by_country, origin, config):
    """Fit the era-free half of the flow field at a given origin.

    Series extending past the origin are re-smoothed on years <= origin
    so nothing after the origin can leak in, not even through a
    smoothing window.  Trajectory functions and the level maps are plain
    fits on raw scores; all of them get the tangent tail extension
    anchored at s1_of_e0(transition_e0), clamped into each curve's knot
    range.  The smoothed (level, velocity, year) observations that the
    speed fit pools are kept for ``fit_speed``.  Only the bandwidth and
    tail settings of ``config``, the fit's FitConfig, are read.
    """
    truncated = list(truncate_series(series_by_country, origin).values())
    if not truncated:
        raise InsufficientDataError("no usable country series at this origin")
    n_components = truncated[0].scores.shape[1]
    for s in truncated:
        if s.scores.shape[1] != n_components:
            raise ShapeMismatchError("series disagree on score dimension")

    speed_x = np.concatenate([s.s1_smooth[:-1] for s in truncated])
    speed_y = np.concatenate([s.ds1_smooth for s in truncated])
    speed_years = np.concatenate([s.years[:-1] for s in truncated])
    if speed_x.size < MIN_SPEED_OBS:
        raise InsufficientDataError(
            f"{speed_x.size} pooled speed observations; need {MIN_SPEED_OBS}")

    all_scores = np.vstack([s.scores for s in truncated])
    s1 = all_scores[:, 0]
    e0 = np.concatenate([s.e0 for s in truncated])
    # the trajectories and the e0 map share x, so one call fits them all
    *traj_bases, e0_base = lowess(
        s1, np.vstack([all_scores[:, 1:].T, e0]), bandwidth=config.bandwidth)
    s1_of_e0 = lowess(e0, s1, bandwidth=config.bandwidth)

    transition = float(s1_of_e0(config.transition_e0))
    return FlowPaths(
        speed_obs=(speed_x, speed_y, speed_years),
        trajectories=tuple(_extend(b, transition, config) for b in traj_bases),
        s1_of_e0=s1_of_e0, e0_of_s1=_extend(e0_base, transition, config),
        transition=transition, origin=int(origin),
        countries=tuple(s.country for s in truncated),
        n_components=n_components)


def fit_speed(paths, config):
    """Complete a FlowField with the era-weighted speed function.

    The speed function is the era-weighted fit of smoothed velocities on
    smoothed levels, with the same tail extension as the paths.  The era
    settings (tau, window, seed) are free; the bandwidth and tail
    settings of ``config`` must be the ones the paths were fitted with.
    """
    kernel = EraKernel(origin=float(paths.origin), tau=config.tau,
                       window=config.window)
    speed_base = era_lowess(*paths.speed_obs, kernel,
                            bandwidth=config.bandwidth, seed=config.seed)
    return FlowField(speed=_extend(speed_base, paths.transition, config),
                     trajectories=paths.trajectories,
                     s1_of_e0=paths.s1_of_e0, e0_of_s1=paths.e0_of_s1,
                     transition=paths.transition, countries=paths.countries,
                     n_components=paths.n_components)


def fit_flowfield(series_by_country, origin, config):
    """Fit the flow field from pooled country series at a given origin.

    Parameters
    ----------
    series_by_country : mapping of country -> CountryScoreSeries
        Series extending past the origin are re-smoothed on years <= origin
        so nothing after the origin can leak in, not even through a
        smoothing window.
    origin : int
        Anchor year of the era kernel and the look-ahead cutoff.
    config : FitConfig
        The fit's configuration; the flow field keeps none of it.

    Notes
    -----
    The era-free paths (``fit_paths``) completed by the era-weighted
    speed function (``fit_speed``): trajectory functions and the level
    maps ignore the era configuration entirely.
    """
    return fit_speed(fit_paths(series_by_country, origin, config), config)


def _extend(base, transition, config):
    # each curve clamps the shared transition into its own knot range and
    # shrinks the slope-measurement width to fit curves narrower than it;
    # ExtendedFn.build still rejects spans too degenerate to measure at all
    delta = min(config.tail_delta, 0.5 * float(base.knots[-1] - base.knots[0]))
    t = min(max(transition, base.knots[0]), base.knots[-1] - delta)
    return ExtendedFn.build(base, t, delta=delta,
                            blend_width=config.tail_blend)


def derivative_correlations(series_by_country):
    """Correlation matrix of pooled raw score velocities.

    Components without variation get NaN rows and columns rather than an
    exception; the diagonal is exactly 1 wherever defined.
    """
    rows = []
    for _, series in sorted(series_by_country.items()):
        if series is None:
            continue
        gaps = np.diff(series.years).astype(float)
        rows.append(np.diff(series.scores, axis=0) / gaps[:, None])
    if not rows:
        raise InsufficientDataError("no series supplied")
    x = np.vstack(rows)
    centred = x - x.mean(axis=0)
    sd = x.std(axis=0)
    cov = centred.T @ centred / x.shape[0]
    denom = np.outer(sd, sd)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), np.nan)
    idx = np.flatnonzero(sd > 0)
    corr[idx, idx] = 1.0
    return corr
