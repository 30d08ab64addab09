"""The forecasting engine.

The level score steps along the blended speed field one horizon at a
time.  Over its whole path at once, the structural scores relax toward
their trajectories, the sex-by-age logit schedules are rebuilt with a
decaying jump-off correction, and life expectancy is read off them.
Everything is a pure function of the fitted objects: no randomness, no
mutation, so reruns are bit-identical.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import CalibrationMissingError, ConfigError, DataError, \
    InsufficientDataError, ShapeMismatchError
from .lifetable import e0_by_sex
from .pca import inverse, jumpoff_residual, score_grid, scores as core_scores
from .smoothing import SmoothFn
from .tucker import project_schedule, reconstruct_schedule

SEX_LABELS = ("f", "m")

# normal quantiles for the 80% and 95% bands
Z80 = 1.2816
Z95 = 1.96

TRAILING_WINDOW = 5


@dataclass(frozen=True)
class CountryState:
    """Where a population sits at the forecast origin.

    ``jumpoff`` is the schedule-space residual the score representation
    cannot express; Tier-1 entries have none, so a scalar zero is allowed
    and broadcasts away.
    """

    country: str
    scores: np.ndarray
    velocity: float
    jumpoff: np.ndarray
    origin_year: int

    def __post_init__(self):
        object.__setattr__(self, "scores",
                           np.asarray(self.scores, dtype=float))
        object.__setattr__(self, "jumpoff",
                           np.asarray(self.jumpoff, dtype=float))
        object.__setattr__(self, "velocity", float(self.velocity))
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("state scores must be finite")
        if not np.isfinite(self.velocity):
            raise ValueError("state velocity must be finite")
        if not np.all(np.isfinite(self.jumpoff)):
            raise ValueError("jump-off residual must be finite")


@dataclass(frozen=True)
class ForecastConfig:
    """Engine knobs; the blend weight defaults to fully pooled speed."""

    rates: object
    w: float = 1.0
    horizon: int = 50

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ConfigError(f"blend weight {self.w} outside [0, 1]")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")


@dataclass(frozen=True)
class IntervalBands:
    median: np.ndarray
    lo80: np.ndarray
    hi80: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray


@dataclass(frozen=True)
class PICalibration:
    """Bias curve and scale factors turning forecasts into bands."""

    bias: SmoothFn
    sigma1: float
    kappa: float

    def to_dict(self):
        return {"bias": self.bias.to_dict(), "sigma1": self.sigma1,
                "kappa": self.kappa}

    @classmethod
    def from_dict(cls, payload):
        return cls(bias=SmoothFn.from_dict(payload["bias"]),
                   sigma1=float(payload["sigma1"]),
                   kappa=float(payload["kappa"]))


@dataclass
class ForecastResult:
    country: str
    origin_year: int
    horizons: np.ndarray
    years: np.ndarray
    scores: np.ndarray
    schedules: np.ndarray
    e0_by_sex: np.ndarray
    e0_avg: np.ndarray
    ages: tuple
    sex_crossings: int
    intervals: IntervalBands | None = None


def step_speed(ff, state, w, alpha_v, h, s1_prev):
    """One unit step of the level score under the blended speed.

    The country weight (1-w)*alpha_v**h multiplies the trailing velocity;
    at w=1 it is exactly zero, so the step cannot depend on the country
    term at all.
    """
    blend = (1.0 - w) * alpha_v ** h
    v = (1.0 - blend) * float(ff.speed(s1_prev)) + blend * state.velocity
    return v, s1_prev + v


def relax_scores(ff, state, rates, h, s1_h):
    """Structural scores at horizon h, decayed toward the trajectories.

    Scalar h and s1_h give (N-1,); an (H,) axis on both gives (H, N-1).
    """
    n = ff.n_components
    weight = np.asarray(rates.alpha_s[1:n]) ** np.asarray(h)[..., None]
    canonical = np.array([ff.trajectory(k)(s1_h) for k in range(2, n + 1)]).T
    return weight * state.scores[1:n] + (1.0 - weight) * canonical


def jumpoff_weight(h, tau_blend=2.0):
    """Residual weight at horizon h: halves every tau_blend years."""
    return 2.0 ** (-h / tau_blend)


def reconstruct_with_jumpoff(model, pca, state, scores_h, h, tau_blend=2.0):
    """Logit schedule (S, A) at horizon h; an (H,) axis gives (H, S, A)."""
    base = reconstruct_schedule(model, inverse(pca, scores_h))
    weight = jumpoff_weight(np.asarray(h)[..., None, None], tau_blend)
    return base + weight * state.jumpoff


def run_forecast(model, pca, ff, state, config):
    """Integrate the flow from a country state out to config.horizon.

    Only the level score is stepped; the structural scores, schedules
    and life expectancy are array functions of its path.  Life
    expectancy never feeds back into the navigation.
    """
    rates = config.rates
    if len(rates.alpha_s) < ff.n_components:
        raise ShapeMismatchError(
            f"rates cover {len(rates.alpha_s)} components, flow field has "
            f"{ff.n_components}")
    if state.scores.size < ff.n_components:
        raise ShapeMismatchError("state scores shorter than the score space")
    horizons = np.arange(1, config.horizon + 1)
    s1 = np.empty(config.horizon)
    level = float(state.scores[0])
    for h in range(1, config.horizon + 1):
        _, level = step_speed(ff, state, config.w, rates.alpha_v, h, level)
        s1[h - 1] = level
    sk = relax_scores(ff, state, rates, horizons, s1)
    scores = np.column_stack((s1, sk))
    schedules = reconstruct_with_jumpoff(model, pca, state, scores, horizons)
    e0_sex = e0_by_sex(schedules)
    crossings = int(np.count_nonzero(schedules[:, 1, :] < schedules[:, 0, :]))
    return ForecastResult(
        country=state.country,
        origin_year=state.origin_year,
        horizons=horizons,
        years=state.origin_year + horizons,
        scores=scores,
        schedules=schedules,
        e0_by_sex=e0_sex,
        e0_avg=e0_sex.mean(axis=1),
        ages=tuple(model.ages),
        sex_crossings=crossings,
    )


def _trailing_velocity(years, s1_values):
    """Mean per-year change over the last few observed gaps."""
    years = np.asarray(years, dtype=float)
    s1_values = np.asarray(s1_values, dtype=float)
    diffs = np.diff(s1_values) / np.diff(years)
    if diffs.size == 0:
        return None
    return float(diffs[-min(TRAILING_WINDOW, diffs.size):].mean())


def country_state(model, pca, mask, country, origin_year=None):
    """State for a country inside the fitted score grid.

    Scores come from the fitted grid at the last observed year at or
    before the origin; the jump-off residual is the part of the full
    factorization the retained components leave behind there.  Needs only
    the fitted model, the component basis, and the observation mask, so a
    saved model can rebuild the state without the training data.
    """
    try:
        c = model.countries.index(country)
    except ValueError:
        raise DataError(f"unknown country: {country!r}") from None
    years = np.asarray(model.years)
    observed = np.flatnonzero(np.asarray(mask, dtype=bool)[c])
    if origin_year is not None:
        observed = observed[years[observed] <= origin_year]
    if observed.size < 2:
        raise InsufficientDataError(
            f"{country}: need at least 2 observed years at the origin")
    grid = score_grid(model, pca)
    t = int(observed[-1])
    s = grid[c, t]
    velocity = _trailing_velocity(years[observed].astype(float),
                                  grid[c, observed, 0])
    return CountryState(country=country, scores=s, velocity=velocity,
                        jumpoff=jumpoff_residual(model, pca, c, t),
                        origin_year=int(years[t]))


def tier1_state(ff, years, e0_values, country="tier1"):
    """State synthesized from a bare life-expectancy series.

    The level score comes from the e0 map, structural scores sit on their
    trajectories (so relaxation is inert), and there is no jump-off
    residual to carry.
    """
    years = np.asarray(years, dtype=float)
    e0_values = np.asarray(e0_values, dtype=float)
    if years.size < 2:
        raise InsufficientDataError("tier-1 entry needs at least 2 e0 points")
    order = np.argsort(years)
    years = years[order]
    e0_values = e0_values[order]
    s1_path = ff.s1_of_e0(e0_values)
    s1 = float(s1_path[-1])
    scores = np.concatenate(
        ([s1], [float(ff.trajectory(k)(s1))
                for k in range(2, ff.n_components + 1)]))
    velocity = _trailing_velocity(years, s1_path)
    return CountryState(country=country, scores=scores, velocity=velocity,
                        jumpoff=np.zeros(()), origin_year=int(years[-1]))


def tier2_state(model, pca, ff, schedule, origin_year, history=None,
                country="tier2", scores=None):
    """State from one observed sex-by-age logit schedule.

    The schedule is projected into the score space; whatever it leaves
    behind becomes the jump-off residual.  A caller that has already
    projected it passes the result as ``scores``.  A (years, scores)
    history supplies the trailing velocity, otherwise the pooled speed
    at the projected level is used.
    """
    schedule = np.asarray(schedule, dtype=float)
    s = (core_scores(pca, project_schedule(model, schedule))
         if scores is None else np.asarray(scores, dtype=float))
    approx = reconstruct_schedule(model, inverse(pca, s))
    if history is not None:
        hist_years, hist_scores = history
        velocity = _trailing_velocity(hist_years,
                                      np.asarray(hist_scores)[:, 0])
    else:
        velocity = None
    if velocity is None:
        velocity = float(ff.speed(s[0]))
    return CountryState(country=country, scores=s, velocity=velocity,
                        jumpoff=schedule - approx,
                        origin_year=int(origin_year))


def apply_intervals(result, calibration):
    """Attach median and 80/95% bands; returns a new result."""
    if calibration is None:
        raise CalibrationMissingError(
            "no prediction-interval calibration available")
    h = result.horizons.astype(float)
    median = result.e0_avg - calibration.bias(h)
    scale = calibration.kappa * calibration.sigma1 * np.sqrt(h)
    bands = IntervalBands(
        median=median,
        lo80=median - Z80 * scale,
        hi80=median + Z80 * scale,
        lo95=median - Z95 * scale,
        hi95=median + Z95 * scale,
    )
    return replace(result, intervals=bands)


def write_schedule_csv(result, path):
    """Long-form per-age export: one row per horizon, sex and age."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "horizon", "year", "sex", "age",
                         "qx", "logit_qx"])
        for i, h in enumerate(result.horizons):
            for s, sex in enumerate(SEX_LABELS):
                for a, age in enumerate(result.ages):
                    logit_qx = result.schedules[i, s, a]
                    writer.writerow([result.country, int(h),
                                     int(result.years[i]), sex, age,
                                     float(expit(logit_qx)), float(logit_qx)])


def write_summary_csv(result, path):
    """Per-horizon e0 summary; band columns are blank without calibration."""
    iv = result.intervals
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "horizon", "year", "e0_f", "e0_m",
                         "e0_avg", "lo80", "hi80", "lo95", "hi95"])
        for i, h in enumerate(result.horizons):
            bands = ["", "", "", ""] if iv is None else [
                float(iv.lo80[i]), float(iv.hi80[i]),
                float(iv.lo95[i]), float(iv.hi95[i])]
            writer.writerow([result.country, int(h), int(result.years[i]),
                             float(result.e0_by_sex[i, 0]),
                             float(result.e0_by_sex[i, 1]),
                             float(result.e0_avg[i]), *bands])
