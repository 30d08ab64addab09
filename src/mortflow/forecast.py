"""The forecasting engine.

The level score steps along the blended speed field one horizon at a
time.  Over its whole path at once, the structural scores relax toward
their trajectories, the sex-by-age logit schedules are rebuilt with a
decaying jump-off correction, and life expectancy is read off them.
The engine runs a batch of states side by side; a single forecast is
the batch of one, whose level steps in Python floats.  Everything is a
pure function of the fitted objects: no randomness, no mutation, so
reruns are bit-identical.
"""

import csv
import io
from dataclasses import dataclass, replace
from operator import index

import numpy as np

from .errors import CalibrationMissingError, ConfigError, DataError, \
    InsufficientDataError, ShapeMismatchError
from .lifetable import e0_by_sex, expit
from .pca import core_score_grids, inverse, jumpoff_residual, \
    scores as core_scores
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
        try:
            object.__setattr__(self, "horizon", index(self.horizon))
        except TypeError:
            raise ConfigError(f"horizon must be an integer, not "
                              f"{self.horizon!r}") from None
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


@dataclass(frozen=True)
class _StateBatch:
    """B states stacked for one engine run.

    ``scores`` (B, 1, N) and ``jumpoff`` (B, 1, S, A) carry a unit
    horizon axis, so the helpers written for one state broadcast them
    against (B, H, ...) paths unchanged.  ``velocity`` is (B,).
    """

    scores: np.ndarray
    velocity: np.ndarray
    jumpoff: np.ndarray


def step_speed(ff, state, w, alpha_v, h, s1_prev):
    """One unit step of the level score under the blended speed.

    The country weight (1-w)*alpha_v**h multiplies the trailing velocity;
    at w=1 it is exactly zero, so the step cannot depend on the country
    term at all.  A (B,) batch of levels, weights and velocities steps
    element by element.
    """
    blend = (1.0 - w) * alpha_v ** h
    v = (1.0 - blend) * ff.speed(s1_prev) + blend * state.velocity
    return v, s1_prev + v


def _level_path(speed, state, w, alpha_v, horizon):
    """The level scores of ``step_speed`` for one state, in Python floats.

    The same operations in the same order, with the speed curve read by
    its scalar ``at``, so the path is the batch recursion's bit for bit
    without numpy's cost per call on single values.
    """
    level, velocity = float(state.scores[0]), state.velocity
    path = []
    for h in range(1, horizon + 1):
        blend = (1.0 - w) * alpha_v ** h
        level += (1.0 - blend) * speed.at(level) + blend * velocity
        path.append(level)
    return path


def relax_scores(ff, state, rates, h, s1_h):
    """Structural scores at horizon h, decayed toward the trajectories.

    Scalar h and s1_h give (N-1,); an (H,) axis on both gives (H, N-1),
    and a batch's (B, H) levels give (B, H, N-1).
    """
    n = ff.n_components
    weight = np.asarray(rates.alpha_s[1:n]) ** np.asarray(h)[..., None]
    canonical = np.stack([ff.trajectory(k)(s1_h) for k in range(2, n + 1)],
                         axis=-1)
    return weight * state.scores[..., 1:n] + (1.0 - weight) * canonical


def jumpoff_weight(h, tau_blend=2.0):
    """Residual weight at horizon h: halves every tau_blend years."""
    return 2.0 ** (-h / tau_blend)


def reconstruct_with_jumpoff(model, pca, state, scores_h, h, tau_blend=2.0):
    """Logit schedule (S, A) at horizon h; an (H,) axis gives (H, S, A).

    A batch's (B, H, N) scores give (B, H, S, A).
    """
    base = reconstruct_schedule(model, inverse(pca, scores_h))
    weight = jumpoff_weight(np.asarray(h)[..., None, None], tau_blend)
    return base + weight * state.jumpoff


def run_forecast(model, pca, ff, state, config):
    """Integrate the flow from a country state out to config.horizon.

    The one-state view of ``run_forecasts``.
    """
    return run_forecasts(model, pca, ff, [state], config)[0]


def run_forecasts(model, pca, ff, states, config, w=None):
    """Integrate the flow from each of ``states`` out to config.horizon.

    ``w`` holds one blend weight per state; it defaults to config.w for
    all of them.  The states share the flow field, the rates and the
    horizon, and run side by side: the level scores step as one (B,)
    array (a single state steps in Python floats, to the same bits), and
    the structural scores, schedules and life expectancy are
    array functions of their paths.  Every state's forecast equals the
    one it gets alone, bit for bit.  Life expectancy never feeds back
    into the navigation.  Returns one ForecastResult per state.
    """
    if not states:
        return []
    rates = config.rates
    n = ff.n_components
    if len(rates.alpha_s) < n:
        raise ShapeMismatchError(
            f"rates cover {len(rates.alpha_s)} components, flow field has "
            f"{n}")
    if any(state.scores.size < n for state in states):
        raise ShapeMismatchError("state scores shorter than the score space")
    w = np.broadcast_to(np.asarray(config.w if w is None else w, dtype=float),
                        (len(states),))
    if not np.all((w >= 0.0) & (w <= 1.0)):
        raise ConfigError("blend weights must lie in [0, 1]")
    shape = (model.sex_factor.shape[0], model.age_factor.shape[0])
    batch = _StateBatch(
        scores=np.stack([state.scores[:n] for state in states])[:, None],
        velocity=np.array([state.velocity for state in states]),
        jumpoff=np.stack([np.broadcast_to(state.jumpoff, shape)
                          for state in states])[:, None])
    horizons = np.arange(1, config.horizon + 1)
    if len(states) == 1:
        s1 = np.array([_level_path(ff.speed, states[0], float(w[0]),
                                   rates.alpha_v, config.horizon)])
    else:
        s1 = np.empty((len(states), config.horizon))
        level = batch.scores[:, 0, 0]
        for h in range(1, config.horizon + 1):
            _, level = step_speed(ff, batch, w, rates.alpha_v, h, level)
            s1[:, h - 1] = level
    sk = relax_scores(ff, batch, rates, horizons, s1)
    scores = np.concatenate((s1[..., None], sk), axis=-1)
    schedules = reconstruct_with_jumpoff(model, pca, batch, scores, horizons)
    e0_sex = e0_by_sex(schedules)
    e0_avg = e0_sex.mean(axis=-1)
    crossings = np.count_nonzero(schedules[..., 1, :] < schedules[..., 0, :],
                                 axis=(1, 2))
    return [ForecastResult(
        country=state.country,
        origin_year=state.origin_year,
        horizons=horizons,
        years=state.origin_year + horizons,
        scores=scores[b],
        schedules=schedules[b],
        e0_by_sex=e0_sex[b],
        e0_avg=e0_avg[b],
        ages=tuple(model.ages),
        sex_crossings=int(crossings[b]),
    ) for b, state in enumerate(states)]


def _trailing_velocity(years, s1_values):
    """Mean per-year change over the last few observed gaps."""
    years = np.asarray(years, dtype=float)
    s1_values = np.asarray(s1_values, dtype=float)
    diffs = np.diff(s1_values) / np.diff(years)
    if diffs.size == 0:
        return None
    return float(diffs[-min(TRAILING_WINDOW, diffs.size):].mean())


def country_state(model, pca, mask, country, origin_year=None, grid=None,
                  cores=None):
    """State for a country inside the fitted score grid.

    Scores come from the fitted grid at the last observed year at or
    before the origin; the jump-off residual is the part of the cell's
    effective core that those scores, the point the forecast starts
    from, leave behind.  Needs only the fitted model, the component
    basis, and the observation mask, so a saved model can rebuild the
    state without the training data.
    ``cores`` and ``grid`` are ``core_score_grids(model, pca)`` if the
    caller holds both; otherwise both are built here.
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
    if grid is None or cores is None:
        cores, grid = core_score_grids(model, pca)
    t = int(observed[-1])
    s = grid[c, t]
    velocity = _trailing_velocity(years[observed].astype(float),
                                  grid[c, observed, 0])
    return CountryState(country=country, scores=s, velocity=velocity,
                        jumpoff=jumpoff_residual(model, pca, c, t, s,
                                                 g=cores[c, t]),
                        origin_year=int(years[t]))


def tier1_state(ff, years, e0_values, country="tier1"):
    """State synthesized from a bare life-expectancy series.

    The level score comes from the e0 map, structural scores sit on their
    trajectories (so relaxation is inert), and there is no jump-off
    residual to carry.
    """
    years = np.asarray(years, dtype=float)
    e0_values = np.asarray(e0_values, dtype=float)
    if years.ndim != 1 or years.shape != e0_values.shape:
        raise ShapeMismatchError("tier-1 years and e0 must be 1-d arrays "
                                 "of equal length")
    if not (np.isfinite(years).all() and np.isfinite(e0_values).all()):
        raise DataError("tier-1 years and e0 must be finite")
    if np.unique(years).size != years.size:
        raise DataError("tier-1 entry repeats a year")
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


def _csv_cells(*fields):
    """Fields as csv.writer formats them, each followed by a comma."""
    buf = io.StringIO()
    csv.writer(buf).writerow([*fields, ""])
    return buf.getvalue()[:-2]


def write_schedule_csv(result, path):
    """Long-form per-age export: one row per horizon, sex and age.

    The bytes are those of a csv.writer row per cell; the fixed columns
    are formatted once per (horizon, sex) and the values read as Python
    floats, whose repr is what csv.writer writes.
    """
    logit_qx = np.asarray(result.schedules, dtype=float)
    qx = expit(logit_qx).tolist()
    logit_qx = logit_qx.tolist()
    ages = [_csv_cells(age) for age in result.ages]
    lines = ["country,horizon,year,sex,age,qx,logit_qx\r\n"]
    for i, h in enumerate(result.horizons):
        for s, sex in enumerate(SEX_LABELS):
            prefix = _csv_cells(result.country, int(h), int(result.years[i]),
                                sex)
            lines.extend(f"{prefix}{age}{q!r},{z!r}\r\n" for age, q, z
                         in zip(ages, qx[i][s], logit_qx[i][s]))
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


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
