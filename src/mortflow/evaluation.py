"""Leave-country-out cross-validation, grid search, and metrics.

The strict CV loop drops the held-out country before anything is
fitted and truncates the training tensor at each forecast origin.  The
inclusive loop refits the full panel once per origin year and enters
every country through its own fitted state, trading isolation for
speed; inclusive CV runs it for one (w, tau) cell, the grid search for
every cell.  Calibration turns pooled CV errors into the bias curve
and scale factors that the forecast layer needs for interval bands.
"""

import csv
import os
import warnings
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import index

import numpy as np

from .data import drop_country
from .errors import (CVConfigError, DataError, InsufficientDataError,
                     ShapeMismatchError)
from .forecast import (
    ForecastConfig,
    PICalibration,
    country_state,
    run_forecasts,
    tier2_state,
)
from .lifetable import e0_by_sex, expit, observed_e0, survivorship
from .pca import scores as core_scores
from .pipeline import (FitConfig, fit_basis, fit_model, fit_path_dynamics,
                       fit_speed_dynamics)
from .smoothing import lowess
from .tucker import project_schedule, reconstruct_schedule

# Forecast origins sit on a country's 20th observed year and then every
# origin_spacing observed years after it.
FIRST_ORIGIN = 20

# Degenerate calibrations (near-constant errors) are floored here so the
# scale factors stay positive.
SCALE_FLOOR = 1e-6

GRID_W = (0.2, 0.5, 1.0)
GRID_TAU = (10.0, 12.0, 15.0, 20.0, 30.0)

AGE_BANDS = ((0, 0), (1, 14), (15, 29), (30, 44), (45, 59), (60, 74),
             (75, 89), (90, 100))
HORIZON_BANDS = ((1, 5), (6, 15), (16, 25), (26, 50))

RECORD_COLUMNS = ("country", "origin", "h", "e0_hat", "e0_obs", "err")

# CVRecords fields and their dtypes; the last three are the schedule blocks
RECORD_FIELDS = (("country", object), ("origin", np.int64),
                 ("horizon", np.int64), ("e0_hat", float), ("e0_obs", float),
                 ("err", float), ("log_mx_err", float), ("lx_obs", float),
                 ("excluded", np.int64))


@dataclass(frozen=True, eq=False)
class CVRecords:
    """CV forecast points as columns, a row per (country, origin, horizon).

    ``log_mx_err`` and ``lx_obs`` are (R, S, A) blocks of per-cell log-mx
    errors and observed survivorship, and ``excluded`` counts each row's
    cells that take no log; all three are None when the CV keeps no
    schedules.  A missing column, columns of unequal length, a horizon
    below 1 or a non-finite error raise DataError.
    """

    country: np.ndarray
    origin: np.ndarray
    horizon: np.ndarray
    e0_hat: np.ndarray
    e0_obs: np.ndarray
    err: np.ndarray
    log_mx_err: np.ndarray | None = None
    lx_obs: np.ndarray | None = None
    excluded: np.ndarray | None = None

    def __post_init__(self):
        columns = []
        for name, dtype in RECORD_FIELDS:
            column = getattr(self, name)
            if column is not None:
                column = np.asarray(column, dtype=dtype)
                object.__setattr__(self, name, column)
                columns.append(column)
        if len(columns) not in (6, 9) or self.err.ndim != 1 or any(
                column.shape[:1] != self.err.shape for column in columns):
            raise ShapeMismatchError("record columns are missing or differ "
                                     "in length")
        bad = np.flatnonzero((self.horizon < 1) | ~np.isfinite(self.err))
        if bad.size:
            i = bad[0]
            if self.horizon[i] < 1:
                raise DataError(f"horizon {self.horizon[i]} is not positive")
            raise DataError(f"non-finite error for {self.country[i]} at "
                            f"origin {self.origin[i]}, horizon "
                            f"{self.horizon[i]}")

    def __len__(self):
        return self.err.size


def _joined(parts):
    """Concatenated parts, sorted by (country, origin, horizon, err)."""
    if not parts:
        return CVRecords(*([],) * 6)
    columns = {}
    for name, _ in RECORD_FIELDS:
        column = [getattr(part, name) for part in parts]
        columns[name] = None if column[0] is None else np.concatenate(column)
    country_rank = np.unique(columns["country"], return_inverse=True)[1]
    order = np.lexsort((columns["err"], columns["horizon"], columns["origin"],
                        country_rank))
    return CVRecords(**{name: None if column is None else column[order]
                        for name, column in columns.items()})


@dataclass(frozen=True)
class CVConfig:
    """Cross-validation settings; ``fit`` is every refit's FitConfig.

    ``fit`` leaves its origin unset: each refit sets its forecast origin.
    ``schedules`` keeps per-age log-mx errors and observed survivorship
    in the records so metric_report can weight by lx.  ``truth``
    selects the ground-truth e0: "raw" reads it off the held-out qx;
    "tucker" reads it off the basis reconstruction of the observed
    schedule, which nets out basis misfit for diagnostics.
    """

    fit: FitConfig = FitConfig()
    w: float = 1.0
    horizon: int = 50
    origin_spacing: int = 10
    min_train: int = 20
    jobs: int = 1
    schedules: bool = True
    truth: str = "raw"

    def __post_init__(self):
        for name in ("horizon", "origin_spacing", "min_train", "jobs"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, index(value))
            except TypeError:
                raise CVConfigError(
                    f"{name} must be an integer, not {value!r}") from None
        for name, least in (("horizon", 1), ("origin_spacing", 1),
                            ("min_train", 2), ("jobs", 1)):
            if getattr(self, name) < least:
                raise CVConfigError(f"{name} must be at least {least}")
        if self.fit.origin is not None:
            raise CVConfigError("fit.origin must be unset")
        if not 0.0 <= self.w <= 1.0:
            raise CVConfigError(f"blend weight {self.w} outside [0, 1]")
        if self.truth not in ("raw", "tucker"):
            raise CVConfigError(f"unknown truth source {self.truth!r}")

    def fit_config(self, origin):
        return replace(self.fit, origin=int(origin))


def candidate_origins(tensor, c, config):
    """Time indices of usable forecast origins for country ``c``.

    Origins fall on the country's 20th observed year and every
    origin_spacing observed years after that, need min_train observed
    years behind them, and need at least one observed year within the
    horizon ahead of them.
    """
    obs = np.flatnonzero(tensor.mask[c])
    out = []
    for i in range(FIRST_ORIGIN - 1, obs.size, config.origin_spacing):
        if i + 1 < config.min_train:
            continue
        t = int(obs[i])
        future = obs[obs > t]
        if future.size == 0:
            continue
        if int(tensor.years[future[0]] - tensor.years[t]) > config.horizon:
            continue
        out.append(t)
    return out


def entry_state(fitted, tensor, c, t_origin):
    """Tier-2-style state for an out-of-basis country at an origin.

    Every observed schedule up to the origin is projected through the
    fitted basis; the projected level series supplies the trailing
    velocity and the origin schedule supplies scores and jump-off.
    """
    obs = np.flatnonzero(tensor.mask[c])
    obs = obs[obs <= t_origin]
    history = np.moveaxis(tensor.values[:, :, c, obs], -1, 0)
    score_rows = core_scores(fitted.pca,
                             project_schedule(fitted.model, history))
    # an observed origin is the last history row, already projected
    observed = obs.size > 0 and obs[-1] == t_origin
    return tier2_state(fitted.model, fitted.pca, fitted.flowfield,
                       tensor.values[:, :, c, t_origin],
                       int(tensor.years[t_origin]),
                       history=(tensor.years[obs].astype(float), score_rows),
                       country=tensor.countries[c],
                       scores=score_rows[-1] if observed else None)


def _schedule_errors(pred_logit, obs_logit):
    """Per-cell log-mx errors, observed survivorship, exclusion counts.

    Cells where either mx underflows to zero cannot take a log; they are
    NaN in the error array and counted, per (S, A) schedule, as excluded.
    """
    qx_obs = expit(np.asarray(obs_logit, dtype=float))
    qx_hat = expit(np.asarray(pred_logit, dtype=float))
    mx_obs = qx_obs / (1.0 - 0.5 * qx_obs)
    mx_hat = qx_hat / (1.0 - 0.5 * qx_hat)
    valid = (mx_obs > 0) & (mx_hat > 0)
    valid &= np.isfinite(mx_obs) & np.isfinite(mx_hat)
    eps = np.full(qx_obs.shape, np.nan)
    eps[valid] = np.log(mx_hat[valid]) - np.log(mx_obs[valid])
    lx = survivorship(qx_obs)[..., :-1]
    return eps, lx, np.count_nonzero(~valid, axis=(-2, -1))


def _tucker_e0(model, obs_schedule):
    """e0 of the basis reconstruction of an observed schedule."""
    rep = reconstruct_schedule(model, project_schedule(model, obs_schedule))
    return float(e0_by_sex(rep).mean())


def _records_from_result(model, result, tensor, observed, c, t_origin,
                         config):
    """Records of one forecast; ``observed`` is observed_e0 of the tensor."""
    h = np.flatnonzero(
        tensor.mask[c, t_origin + 1:t_origin + config.horizon + 1]) + 1
    t = t_origin + h
    e0_hat = result.e0_avg[h - 1]
    e0_obs = (np.array([_tucker_e0(model, tensor.values[:, :, c, s])
                        for s in t])
              if config.truth == "tucker" else observed[c, t])
    blocks = (_schedule_errors(result.schedules[h - 1],
                               np.moveaxis(tensor.values[:, :, c, t], -1, 0))
              if config.schedules else ())
    return CVRecords(np.full(h.size, tensor.countries[c], dtype=object),
                     np.full(h.size, tensor.years[t_origin]), h, e0_hat,
                     e0_obs, e0_hat - e0_obs, *blocks)


def _country_records(tensor, country, config, observed):
    """Strict LOCO records for one held-out country, one per forecast."""
    c = tensor.country_index(country)
    origins = candidate_origins(tensor, c, config)
    if not origins:
        warnings.warn(f"{country}: no usable forecast origin (fewer than "
                      f"{config.min_train} training years, or nothing "
                      "observed after any origin); skipped")
        return []
    training = drop_country(tensor, country)
    parts = []
    for t0 in origins:
        fitted = fit_model(training, config.fit_config(tensor.years[t0]),
                           clip_ranks=True)
        result = fitted.forecast_state(entry_state(fitted, tensor, c, t0),
                                       horizon=config.horizon, w=config.w)
        parts.append(_records_from_result(fitted.model, result, tensor,
                                          observed, c, t0, config))
    return parts


def _effective_jobs(requested):
    """``requested`` capped by MORTFLOW_THREADS, a positive integer."""
    cap = os.environ.get("MORTFLOW_THREADS")
    if not cap:
        return requested
    if not cap.strip().isdecimal() or int(cap) < 1:
        raise CVConfigError(
            f"MORTFLOW_THREADS must be a positive integer, not {cap!r}")
    return min(requested, int(cap))


def run_loco_cv(tensor, config=None):
    """Leave-country-out cross-validation over the whole panel.

    Each held-out country is refitted out of the panel at every
    candidate origin and forecast from a tier-2 entry through the
    held-out-free basis.  Records come back sorted by (country,
    origin, horizon) regardless of scheduling.
    """
    config = config or CVConfig()
    if len(tensor.countries) < 2:
        raise InsufficientDataError(
            "cross-validation needs at least 2 countries")
    jobs = _effective_jobs(config.jobs)
    observed = observed_e0(tensor.values, tensor.mask)
    if jobs > 1:
        # deferred: only a parallel run pays for the import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_country_records, repeat(tensor),
                                   tensor.countries, repeat(config),
                                   repeat(observed)))
    else:
        chunks = [_country_records(tensor, country, config, observed)
                  for country in tensor.countries]
    return _joined([part for chunk in chunks for part in chunk])


def _origin_plan(tensor, config):
    """Candidate origins by year, {origin_year: [(c, t0), ...]}, sorted."""
    if len(tensor.countries) < 2:
        raise InsufficientDataError(
            "cross-validation needs at least 2 countries")
    by_year = {}
    for c in range(len(tensor.countries)):
        for t0 in candidate_origins(tensor, c, config):
            by_year.setdefault(int(tensor.years[t0]), []).append((c, t0))
    if not by_year:
        raise InsufficientDataError("no usable forecast origins in the panel")
    return {year: by_year[year] for year in sorted(by_year)}


def _inclusive_records(tensor, config, grid_w, grid_tau):
    """Inclusive-flow records of each (w, tau) cell, in origin-plan order.

    Per origin year: one basis fit, one state per entry read off its
    score grid, one fit of the era-free dynamics, and per tau one speed
    fit and one engine run over every (w, entry).  A cell is a list of
    CVRecords, one per forecast.
    """
    plan = _origin_plan(tensor, config)
    observed = observed_e0(tensor.values, tensor.mask)
    cells = {(float(w), float(tau)): [] for w in grid_w for tau in grid_tau}
    for origin_year, entries in plan.items():
        base_config = config.fit_config(origin_year)
        basis = fit_basis(tensor, base_config, clip_ranks=True)
        states = [country_state(basis.model, basis.pca, basis.mask,
                                tensor.countries[c], grid=basis.grid,
                                cores=basis.cores)
                  for c, _ in entries]
        ws = np.repeat(np.asarray(grid_w, dtype=float), len(states))
        paths, alpha_s = fit_path_dynamics(basis, base_config)
        for tau in grid_tau:
            ff, rates = fit_speed_dynamics(
                basis, paths, alpha_s, replace(base_config, tau=float(tau)))
            results = run_forecasts(
                basis.model, basis.pca, ff, states * len(grid_w),
                ForecastConfig(rates=rates, horizon=config.horizon), w=ws)
            for i, w in enumerate(grid_w):
                cell = cells[(float(w), float(tau))]
                chunk = results[i * len(states):(i + 1) * len(states)]
                cell.extend(_records_from_result(basis.model, result, tensor,
                                                 observed, c, t0, config)
                            for (c, t0), result in zip(entries, chunk))
    return cells


def run_inclusive_cv(tensor, config=None):
    """CV records with inclusive flows: no held-out refits.

    The full panel is refit once per origin year and every candidate
    country is entered through its own fitted state, so each country's
    history is inside the basis it is forecast from.  This is the fast
    first stage of the two-stage tuning protocol; final numbers come
    from run_loco_cv.  Always serial.
    """
    config = config or CVConfig()
    (parts,) = _inclusive_records(tensor, config, (config.w,),
                                  (config.fit.tau,)).values()
    return _joined(parts)


@dataclass
class GridResult:
    """Grid-search outcome: the winning cell plus the full table."""

    best: dict
    table: list


def grid_search(tensor, grid_w=GRID_W, grid_tau=GRID_TAU, config=None):
    """Pooled-MAE search over blend weights and era time scales.

    Each cell's MAE is taken over the inclusive-CV errors of that
    (w, tau), against raw e0, in origin-plan order: one basis fit and one
    era-free dynamics fit per origin year, one speed fit per
    (origin, tau), and every candidate
    country entered through its own fitted state.  Ties break toward
    smaller tau, then smaller w.  A value repeated within ``grid_w`` or
    ``grid_tau`` raises DataError.
    """
    for name, values in (("w", grid_w), ("tau", grid_tau)):
        values = [float(v) for v in values]
        for i, v in enumerate(values):
            if v in values[:i]:
                raise DataError(f"grid {name} value {v!r} is repeated")
    config = replace(config or CVConfig(), schedules=False, truth="raw")
    cells = _inclusive_records(tensor, config, grid_w, grid_tau)
    table = []
    for w in grid_w:
        for tau in grid_tau:
            parts = cells[(float(w), float(tau))]
            errs = np.abs(np.concatenate([part.err for part in parts]))
            table.append({"w": float(w), "tau": float(tau),
                          "mae": float(np.mean(errs)), "n": errs.size})
    best = min(table, key=lambda row: (row["mae"], row["tau"], row["w"]))
    return GridResult(best=dict(best), table=table)


def calibrate_pi(records):
    """Bias curve and interval scale factors from pooled CV errors.

    The bias is a LOWESS of error on horizon; the per-horizon debiased
    SDs are collapsed to sigma1 = median(SD(h)/sqrt(h)); kappa is the
    SD of the standardized residuals.  Degenerate scales are floored at
    1e-6 with a warning so the calibration stays usable.
    """
    if len(records) == 0:
        raise InsufficientDataError("no records to calibrate on")
    errs = records.err
    hs = records.horizon.astype(float)
    uniq, counts = np.unique(hs, return_counts=True)
    if int(np.count_nonzero(counts >= 10)) < 2:
        raise InsufficientDataError(
            "calibration needs at least 2 horizons with 10 or more records")
    bias = lowess(hs, errs, bandwidth=0.30)
    resid = errs - bias(hs)
    ratios = [float(np.std(resid[hs == h], ddof=1)) / np.sqrt(h)
              for h, n in zip(uniq, counts) if n >= 2]
    sigma1 = float(np.median(ratios))
    if sigma1 < SCALE_FLOOR:
        warnings.warn("near-constant errors: sigma1 floored at 1e-6")
        sigma1 = SCALE_FLOOR
    z = resid / (sigma1 * np.sqrt(hs))
    kappa = float(np.std(z, ddof=1))
    if kappa < SCALE_FLOOR:
        warnings.warn("degenerate standardized residuals: kappa floored "
                      "at 1e-6")
        kappa = SCALE_FLOOR
    return PICalibration(bias=bias, sigma1=sigma1, kappa=kappa)


@dataclass
class MetricReport:
    """Forecast-quality summary over a record collection."""

    e0: dict
    log_mx: dict | None
    sex_diff: dict | None
    by_age_band: list = field(default_factory=list)
    by_horizon_band: list = field(default_factory=list)
    excluded: int = 0
    n_records: int = 0

    def to_dict(self):
        return {
            "e0": dict(self.e0),
            "log_mx": None if self.log_mx is None else dict(self.log_mx),
            "sex_diff": None if self.sex_diff is None else dict(self.sex_diff),
            "by_age_band": [dict(row) for row in self.by_age_band],
            "by_horizon_band": [dict(row) for row in self.by_horizon_band],
            "excluded": int(self.excluded),
            "n_records": int(self.n_records),
        }


def _e0_stats(errs):
    return {"mae": float(np.mean(np.abs(errs))),
            "rmse": float(np.sqrt(np.mean(errs ** 2))),
            "bias": float(np.mean(errs)),
            "n": int(errs.size)}


def _weighted_stats(eps, weights, valid):
    """Unweighted and weighted MAE/bias over the valid cells."""
    e = eps[valid]
    w = weights[valid]
    if e.size == 0:
        return None
    sw = float(w.sum())
    out = {"mae": float(np.mean(np.abs(e))), "bias": float(np.mean(e)),
           "n": int(e.size)}
    if sw > 0:
        out["mae_lx"] = float(np.sum(w * np.abs(e)) / sw)
        out["bias_lx"] = float(np.sum(w * e) / sw)
    else:
        out["mae_lx"] = out["mae"]
        out["bias_lx"] = out["bias"]
    return out


def metric_report(records, ages=None, weights="observed"):
    """Aggregate error metrics over a CVRecords.

    e0 metrics use every record; log-mx and sex-differential metrics
    use the schedule blocks, when the records hold them, weighted by
    the observed survivorship (or uniformly with weights="uniform").
    Records are sorted internally, so the report is invariant to their
    order.  ``ages`` labels the age axis of the schedule blocks; it
    defaults to 0..A-1.
    """
    if weights not in ("observed", "uniform"):
        raise DataError(f"unknown weight source {weights!r}")
    if len(records) == 0:
        raise InsufficientDataError("no records to report on")
    records = _joined([records])
    errs, hs = records.err, records.horizon
    eps, lx = records.log_mx_err, records.lx_obs
    report = MetricReport(e0=_e0_stats(errs), log_mx=None, sex_diff=None,
                          n_records=len(records))

    if eps is not None:
        report.excluded = int(records.excluded.sum())
        n_ages = eps.shape[2]
        ages = np.arange(n_ages) if ages is None else np.asarray(ages)
        if ages.size != n_ages:
            raise DataError(f"{ages.size} age labels for {n_ages} "
                            "schedule columns")
        if weights == "uniform":
            lx = np.ones_like(lx)
        valid = np.isfinite(eps)
        report.log_mx = _weighted_stats(eps, lx, valid)

        both = valid[:, 0, :] & valid[:, 1, :]
        delta = eps[:, 1, :] - eps[:, 0, :]
        report.sex_diff = _weighted_stats(
            delta, 0.5 * (lx[:, 0, :] + lx[:, 1, :]), both)

        for lo, hi in AGE_BANDS:
            in_band = (ages >= lo) & (ages <= hi)
            if not in_band.any():
                continue
            stats = _weighted_stats(eps[:, :, in_band], lx[:, :, in_band],
                                    valid[:, :, in_band])
            if stats is None:
                continue
            label = str(lo) if lo == hi else f"{lo}-{hi}"
            report.by_age_band.append({"band": label, **stats})

    for lo, hi in HORIZON_BANDS:
        in_band = (hs >= lo) & (hs <= hi)
        if not in_band.any():
            continue
        row = {"band": f"{lo}-{hi}", **_e0_stats(errs[in_band])}
        if eps is not None:
            stats = _weighted_stats(eps[in_band], lx[in_band],
                                    valid[in_band])
            if stats is not None:
                row["log_mx"] = stats
        report.by_horizon_band.append(row)
    return report


def write_records_csv(records, path):
    """CV records in long form; schedule blocks do not round-trip."""
    columns = (records.country, records.origin, records.horizon,
               records.e0_hat, records.e0_obs, records.err)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        writer.writerows(zip(*(column.tolist() for column in columns)))


def write_grid_csv(result, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w", "tau", "mae", "n"])
        for row in result.table:
            writer.writerow([repr(row["w"]), repr(row["tau"]),
                             repr(row["mae"]), row["n"]])
