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
from .errors import CVConfigError, DataError, InsufficientDataError
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


@dataclass
class CVRecord:
    """One evaluated forecast point: a country, an origin, a horizon."""

    country: str
    origin: int
    horizon: int
    e0_hat: float
    e0_obs: float
    err: float
    log_mx_err: np.ndarray | None = None
    lx_obs: np.ndarray | None = None
    excluded: int = 0

    def __post_init__(self):
        self.origin = int(self.origin)
        self.horizon = int(self.horizon)
        self.e0_hat = float(self.e0_hat)
        self.e0_obs = float(self.e0_obs)
        self.err = float(self.err)
        if self.horizon < 1:
            raise DataError(f"horizon {self.horizon} is not positive")
        if not np.isfinite(self.err):
            raise DataError(f"non-finite error for {self.country} at "
                            f"origin {self.origin}, horizon {self.horizon}")


@dataclass(frozen=True)
class CVConfig:
    """Cross-validation settings; ``fit`` is every refit's FitConfig.

    ``fit`` leaves its origin unset: each refit sets its forecast origin.
    ``schedules`` keeps per-age log-mx errors and observed survivorship
    on each record so metric_report can weight by lx.  ``truth``
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
                            ("min_train", 2)):
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


def _kept_errors(model, result, tensor, observed, c, t_origin, config):
    """(h, e0_hat, e0_obs, err) of one forecast's observed horizons.

    A non-finite error raises DataError.
    """
    h = np.flatnonzero(
        tensor.mask[c, t_origin + 1:t_origin + config.horizon + 1]) + 1
    e0_hat = result.e0_avg[h - 1]
    e0_obs = (np.array([_tucker_e0(model, tensor.values[:, :, c, t])
                        for t in t_origin + h])
              if config.truth == "tucker" else observed[c, t_origin + h])
    err = e0_hat - e0_obs
    bad = np.flatnonzero(~np.isfinite(err))
    if bad.size:
        raise DataError(f"non-finite error for {tensor.countries[c]} at "
                        f"origin {int(tensor.years[t_origin])}, horizon "
                        f"{h[bad[0]]}")
    return h, e0_hat, e0_obs, err


def _records_from_result(model, result, tensor, observed, c, t_origin,
                         config):
    """Records of one forecast; ``observed`` is observed_e0 of the tensor."""
    h, e0_hat, e0_obs, err = _kept_errors(model, result, tensor, observed,
                                          c, t_origin, config)
    columns = [h.tolist(), e0_hat.tolist(), e0_obs.tolist(), err.tolist()]
    if config.schedules and h.size:
        obs = np.moveaxis(tensor.values[:, :, c, t_origin + h], -1, 0)
        eps, lx, excluded = _schedule_errors(result.schedules[h - 1], obs)
        columns += [eps, lx, excluded.tolist()]
    country, origin = tensor.countries[c], int(tensor.years[t_origin])
    return [CVRecord(country, origin, *row) for row in zip(*columns)]


def _country_records(tensor, country, config, observed, on_fit=None):
    """Strict LOCO records for one held-out country."""
    c = tensor.country_index(country)
    origins = candidate_origins(tensor, c, config)
    if not origins:
        warnings.warn(f"{country}: no usable forecast origin (fewer than "
                      f"{config.min_train} training years, or nothing "
                      "observed after any origin); skipped")
        return []
    training = drop_country(tensor, country)
    records = []
    for t0 in origins:
        origin_year = int(tensor.years[t0])
        fitted = fit_model(training, config.fit_config(origin_year),
                           clip_ranks=True)
        if on_fit is not None:
            on_fit(country, origin_year, fitted)
        result = fitted.forecast_state(entry_state(fitted, tensor, c, t0),
                                       horizon=config.horizon, w=config.w)
        records.extend(_records_from_result(fitted.model, result, tensor,
                                            observed, c, t0, config))
    return records


def _effective_jobs(requested):
    jobs = max(1, int(requested))
    cap = os.environ.get("MORTFLOW_THREADS")
    if cap:
        try:
            jobs = min(jobs, max(1, int(cap)))
        except ValueError:
            raise DataError(
                f"MORTFLOW_THREADS is not an integer: {cap!r}") from None
    return jobs


def run_loco_cv(tensor, config=None, on_fit=None):
    """Leave-country-out cross-validation over the whole panel.

    Each held-out country is refitted out of the panel at every
    candidate origin and forecast from a tier-2 entry through the
    held-out-free basis.  ``on_fit`` is called with (country,
    origin_year, fitted) after each refit; passing it forces serial
    execution because callbacks cannot cross process boundaries.
    Records come back sorted by (country, origin, horizon) regardless
    of scheduling.
    """
    config = config or CVConfig()
    if len(tensor.countries) < 2:
        raise InsufficientDataError(
            "cross-validation needs at least 2 countries")
    jobs = _effective_jobs(config.jobs)
    if on_fit is not None:
        jobs = 1
    observed = observed_e0(tensor.values, tensor.mask)
    if jobs > 1:
        # deferred: only a parallel run pays for the import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_country_records, repeat(tensor),
                                   tensor.countries, repeat(config),
                                   repeat(observed)))
    else:
        chunks = [_country_records(tensor, country, config, observed,
                                   on_fit=on_fit)
                  for country in tensor.countries]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.country, r.origin, r.horizon))
    return records


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


def _inclusive_records(tensor, config, grid_w, grid_tau, build):
    """Inclusive-flow forecasts of each (w, tau) cell, in origin-plan order.

    Per origin year: one basis fit, one state per entry read off its
    score grid, one fit of the era-free dynamics, and per tau one speed
    fit and one engine run over every (w, entry).  A cell pools
    ``build(model, result, tensor, observed, c, t0, config)`` over its
    forecasts: their records, or their errors.
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
                for (c, t0), result in zip(entries, chunk):
                    cell.extend(build(basis.model, result, tensor, observed,
                                      c, t0, config))
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
    (records,) = _inclusive_records(tensor, config, (config.w,),
                                    (config.fit.tau,),
                                    _records_from_result).values()
    records.sort(key=lambda r: (r.country, r.origin, r.horizon))
    return records


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
    cells = _inclusive_records(tensor, config, grid_w, grid_tau,
                               lambda *forecast: _kept_errors(*forecast)[3])
    table = []
    for w in grid_w:
        for tau in grid_tau:
            errs = np.abs(cells[(float(w), float(tau))])
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
    errs = np.array([r.err for r in records], dtype=float)
    hs = np.array([r.horizon for r in records], dtype=float)
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
    errs = np.asarray(errs, dtype=float)
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
    """Aggregate error metrics over a record collection.

    e0 metrics use every record; log-mx and sex-differential metrics
    use the records that carry schedule errors, weighted by the
    observed survivorship (or uniformly with weights="uniform").
    Records are sorted internally, so the report is invariant to their
    order.  ``ages`` labels the age axis of the schedule arrays; it
    defaults to 0..A-1.
    """
    if weights not in ("observed", "uniform"):
        raise DataError(f"unknown weight source {weights!r}")
    if len(records) == 0:
        raise InsufficientDataError("no records to report on")
    recs = sorted(records,
                  key=lambda r: (r.country, r.origin, r.horizon, r.err))
    errs = np.array([r.err for r in recs], dtype=float)
    hs = np.array([r.horizon for r in recs])
    report = MetricReport(e0=_e0_stats(errs), log_mx=None, sex_diff=None,
                          excluded=sum(r.excluded for r in recs),
                          n_records=len(recs))

    with_arrays = [r for r in recs if r.log_mx_err is not None]
    eps = lx = None
    if with_arrays:
        eps = np.stack([r.log_mx_err for r in with_arrays])
        lx = np.stack([r.lx_obs for r in with_arrays])
        arr_hs = np.array([r.horizon for r in with_arrays])
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
            sel = (arr_hs >= lo) & (arr_hs <= hi)
            if sel.any():
                stats = _weighted_stats(eps[sel], lx[sel],
                                        np.isfinite(eps[sel]))
                if stats is not None:
                    row["log_mx"] = stats
        report.by_horizon_band.append(row)
    return report


def write_records_csv(records, path):
    """CV records in long form; schedule arrays do not round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for r in records:
            writer.writerow([r.country, r.origin, r.horizon,
                             repr(r.e0_hat), repr(r.e0_obs), repr(r.err)])


def write_grid_csv(result, path):
    table = result.table if isinstance(result, GridResult) else result
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w", "tau", "mae", "n"])
        for row in table:
            writer.writerow([repr(row["w"]), repr(row["tau"]),
                             repr(row["mae"]), row["n"]])

