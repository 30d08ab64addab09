"""Independent reference implementations used to check production code.

Everything here is written the slow, obvious way (explicit loops, brute
force simulation) and must stay independent of the package internals.
"""

import csv
import math
import re
from itertools import islice

import numpy as np

from mortflow.data import RawTable
from mortflow.errors import CsvFormatError


def simulate_cohort_e0(qx, n_paths, seed):
    """Monte-Carlo period life expectancy.

    Each path walks the age ladder drawing one Bernoulli per age.  A death
    at age 0 contributes 0.3 person-years, any later death 0.5, a survived
    age a full year; paths alive after the last age are truncated there.
    """
    rng = np.random.default_rng(seed)
    qx = np.asarray(qx, dtype=float)
    alive = np.ones(n_paths, dtype=bool)
    years = np.zeros(n_paths)
    for a in range(qx.size):
        dies = alive & (rng.random(n_paths) < qx[a])
        years[dies] += 0.3 if a == 0 else 0.5
        alive &= ~dies
        years[alive] += 1.0
    return years.mean()


def reference_e0(qx):
    """Life expectancy by the textbook chain, scalar loop version."""
    l = 1.0
    total = 0.0
    for a, q in enumerate(qx):
        l_next = l * (1.0 - q)
        total += 0.3 + 0.7 * l_next if a == 0 else 0.5 * (l + l_next)
        l = l_next
    return total


def dense_mode_product(tensor, matrix, mode):
    """Mode-n product by explicit index loops (slow, loop-checked)."""
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    shape = list(tensor.shape)
    out_shape = shape.copy()
    out_shape[mode] = matrix.shape[0]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        acc = 0.0
        for j in range(shape[mode]):
            src = list(idx)
            src[mode] = j
            acc += matrix[idx[mode], j] * tensor[tuple(src)]
        out[idx] = acc
    return out


def reference_effective_core(core, country_row, year_row):
    """Effective core by explicit double sum over the last two modes."""
    r1, r2, r3, r4 = core.shape
    g = np.zeros((r1, r2))
    for i in range(r1):
        for j in range(r2):
            acc = 0.0
            for k in range(r3):
                for l in range(r4):
                    acc += core[i, j, k, l] * country_row[k] * year_row[l]
            g[i, j] = acc
    return g


def reference_hosvd(tensor, ranks):
    """``tucker.hosvd`` as it was before full-rank country and year modes
    became identity factors: one full SVD per mode unfolding, then the
    core contracted with all four factors.
    """
    from mortflow.errors import RankError
    from mortflow.tucker import MODE_NAMES, TuckerModel, fill_missing
    values = fill_missing(tensor.values, tensor.mask)
    if len(ranks) != 4:
        raise RankError("ranks must have one entry per mode")
    factors = []
    for mode, rank in enumerate(ranks):
        dim = values.shape[mode]
        if not 1 <= rank <= dim:
            raise RankError(
                f"rank {rank} invalid for {MODE_NAMES[mode]} mode of size {dim}")
        unfolding = np.moveaxis(values, mode, 0).reshape(dim, -1)
        u, _, _ = np.linalg.svd(unfolding, full_matrices=False)
        if rank > u.shape[1]:
            raise RankError(
                f"rank {rank} exceeds the spectrum of the {MODE_NAMES[mode]} mode")
        u = u[:, :rank].copy()
        flip = u[np.argmax(np.abs(u), axis=0), np.arange(rank)] < 0
        u[:, flip] *= -1.0
        factors.append(u)
    s, a, c, t = factors
    # C order, as load_model gives it: the contractions over the core round
    # by its layout, so a fitted and a loaded model agree bit for bit
    core = np.ascontiguousarray(
        np.einsum("sact,si,aj,ck,tl->ijkl", values, s, a, c, t, optimize=True))
    return TuckerModel(sex_factor=s, age_factor=a, country_factor=c,
                       year_factor=t, core=core, countries=tensor.countries,
                       years=np.asarray(tensor.years).copy(),
                       ages=np.asarray(tensor.ages).copy())


def ar1_path(alpha, sigma_stationary, n, rng):
    """Stationary AR(1) sample path."""
    x = np.empty(n)
    x[0] = rng.normal(0.0, sigma_stationary)
    innov_sd = sigma_stationary * np.sqrt(1.0 - alpha ** 2)
    for t in range(1, n):
        x[t] = alpha * x[t - 1] + rng.normal(0.0, innov_sd)
    return x


def reference_lag_sums(series_list, h):
    """Lag-h pooled sums (num, den, pairs) over per-country deviations.

    Each element of ``series_list`` is a (years, values) pair; a lag pair
    counts only when both calendar years are present.
    """
    num = 0.0
    den = 0.0
    pairs = 0
    for years, values in series_list:
        lookup = {int(y): v for y, v in zip(years, values)}
        for y, v in lookup.items():
            partner = lookup.get(y + h)
            if partner is not None:
                num += partner * v
                den += v * v
                pairs += 1
    return num, den, pairs


def reference_pooled_autocorr(series_list, h):
    """Lag-h pooled autocorrelation over per-country deviation series."""
    num, den, _ = reference_lag_sums(series_list, h)
    return num / den


def reference_beta_curve(series_list, max_lag):
    """(lags, betas) by the lag-at-a-time loop of the rate fit.

    A lag is skipped when it has no pair (the loop caught
    MissingDataError) or when the earlier ends of its pairs are all zero
    (InsufficientDataError); every other lag keeps num / den.
    """
    lags, betas = [], []
    for h in range(1, max_lag + 1):
        num, den, pairs = reference_lag_sums(series_list, h)
        if pairs == 0 or den == 0.0:
            continue
        lags.append(h)
        betas.append(num / den)
    return lags, betas


def reference_lowess(x, y, bandwidth, max_knots=1000):
    """Knot values of degree-1 tricube LOWESS, by brute force.

    For every knot all n distances are sorted to find the span-th one,
    and the weighted moments are summed exactly with ``math.fsum``.
    Knot grid, span, h floor and both fallbacks follow the documented
    rules of ``mortflow.smoothing.lowess``.

    Returns (knots, values, sensitivity).  ``sensitivity`` is, per knot,
    the size of the terms that cancel in the local fit, in units of the
    fitted value: a fit that rounds its sums with relative error e is
    off by about e times it.  Well-conditioned fits have it near |value|;
    extrapolating ones (all weight at one side of the knot) much larger.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    distinct = np.unique(x)
    if distinct.size > max_knots:
        knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, max_knots)))
    else:
        knots = distinct
    span = min(max(int(math.ceil(bandwidth * n)), 2), n)
    h_floor = 1e-12 * max(distinct[-1] - distinct[0], 1.0)
    values, sensitivity = [], []
    for k in knots:
        d = np.abs(x - k)
        h = max(np.sort(d)[span - 1], h_floor)
        u = np.minimum(d / h, 1.0)
        w = (1.0 - u ** 3) ** 3
        xc = x - k
        s0 = math.fsum(w)
        if s0 <= 0:
            near = y[d <= h]
            values.append(math.fsum(near) / near.size)
            sensitivity.append(math.fsum(np.abs(near)) / near.size)
            continue
        s1 = math.fsum(w * xc)
        s2 = math.fsum(w * xc * xc)
        t0 = math.fsum(w * y)
        t1 = math.fsum(w * xc * y)
        abs_s1 = math.fsum(np.abs(w * xc))
        abs_t0 = math.fsum(np.abs(w * y))
        abs_t1 = math.fsum(np.abs(w * xc * y))
        denom = s0 * s2 - s1 * s1
        if denom > 1e-12 * max(s0 * s2, 1e-300):
            value = (s2 * t0 - s1 * t1) / denom
            size = (s2 * abs_t0 + abs_s1 * abs_t1
                    + abs(value) * (s0 * s2 + abs_s1 * abs_s1)) / denom
        else:
            value = t0 / s0
            size = abs_t0 / s0
        values.append(value)
        sensitivity.append(size)
    return knots, np.array(values), np.array(sensitivity)


def _windowed_fit(xc, yv, h):
    """Degree-1 tricube fits, one per row, evaluated at xc = 0.

    ``xc`` holds each knot's points as offsets from it (knots x m); ``yv``
    is an array of that shape or a length-m array shared by every row;
    ``h`` is the radius per row.  A row whose weighted design is
    degenerate gets the weighted mean, and a row with no positive weight
    ("dead") the mean of its points within h.  Returns the values and
    the dead-row mask.
    """
    yv = np.broadcast_to(yv, xc.shape)
    h = h[:, None]
    w = (1.0 - np.minimum(np.abs(xc) / h, 1.0) ** 3) ** 3
    wx = w * xc
    s0 = w.sum(axis=1)
    s1 = wx.sum(axis=1)
    s2 = np.einsum("ij,ij->i", wx, xc)
    t0 = np.einsum("ij,ij->i", w, yv)
    t1 = np.einsum("ij,ij->i", wx, yv)
    denom = s0 * s2 - s1 * s1
    ok = denom > 1e-12 * np.maximum(s0 * s2, 1e-300)
    value = np.where(ok, (s2 * t0 - s1 * t1) / np.where(ok, denom, 1.0),
                     t0 / np.where(s0 > 0, s0, 1.0))
    dead = s0 <= 0
    if np.any(dead):
        near = np.abs(xc[dead]) <= h[dead]
        value[dead] = ((near * yv[dead]).sum(axis=1)
                       / np.maximum(near.sum(axis=1), 1))
    return value, dead


def windowed_lowess(x, y, bandwidth=0.20, max_knots=1000):
    """(knots, values) of ``mortflow.smoothing.lowess`` by its former kernel.

    Two sorts (np.unique for the knots, a stable argsort for the
    windows), a bisection per knot for the start of its nearest run of
    span points, and a chunked degree-1 tricube fit per knot.  The
    current kernel must match it bit for bit.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    n = x.size
    xu = np.unique(x)
    if xu.size < 2:
        raise ValueError("need at least two distinct x values")

    if xu.size > max_knots:
        knots = np.unique(np.quantile(x, np.linspace(0.0, 1.0, max_knots)))
    else:
        knots = xu

    span = int(np.ceil(bandwidth * n))
    span = min(max(span, 2), n)
    scale = xu[-1] - xu[0]
    h_floor = 1e-12 * max(scale, 1.0)

    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]

    # The nearest run of a knot starts at the first i whose right end
    # xs[i + span - 1] is at least as far from the knot as its left end
    # xs[i], or one point before.  Bisect on the distances themselves:
    # testing xs[i] + xs[i + span - 1] >= 2 * knot instead rounds
    # differently at near-ties and can pick a run one point too wide.
    last = n - span
    low = np.zeros(knots.size, dtype=np.intp)
    high = np.full(knots.size, last + 1)
    while np.any(low < high):
        mid = np.minimum((low + high) // 2, last)
        right_far = xs[mid + span - 1] - knots >= knots - xs[mid]
        active = low < high
        high = np.where(active & right_far, mid, high)
        low = np.where(active & ~right_far, mid + 1, low)
    starts = np.stack([np.clip(low - 1, 0, last), np.minimum(low, last)])
    reach = np.maximum(knots - xs[starts], xs[starts + span - 1] - knots)
    start = np.where(reach[0] <= reach[1], starts[0], starts[1])
    h_raw = reach.min(axis=0)
    h = np.maximum(h_raw, h_floor)

    fitted = np.empty(knots.size)
    dead = np.zeros(knots.size, dtype=bool)
    chunk = max(1, 500_000 // span)
    offsets = np.arange(span)
    for lo in range(0, knots.size, chunk):
        rows = slice(lo, lo + chunk)
        idx = start[rows, None] + offsets
        fitted[rows], dead[rows] = _windowed_fit(
            xs[idx] - knots[rows, None], ys[idx], h[rows])

    # A floored radius can reach past the window, and the dead-window
    # mean takes every point within h, ties outside the window included;
    # both are rare, so those knots are refitted against all n points.
    redo = np.flatnonzero(dead | (h_raw < h_floor))
    chunk = max(1, 500_000 // n)
    for lo in range(0, redo.size, chunk):
        rows = redo[lo:lo + chunk]
        fitted[rows], _ = _windowed_fit(x - knots[rows, None], y, h[rows])

    return knots, fitted


def reference_forecast(model, pca, ff, state, rates, w, horizon,
                       tau_blend=2.0):
    """The forecast engine one horizon and one component at a time.

    At each h the level score takes one step of the blended speed, every
    structural score k relaxes by alpha_k**h toward its trajectory, the
    schedule is S (g_bar + sum_k s_k L_k) A^T plus the jump-off residual
    weighted 2**(-h / tau_blend), and each sex's e0 comes from
    ``reference_e0``.  Returns the (H, N) scores, the (H, S, A) logit
    schedules and the (H,) sex-averaged e0.
    """
    n = ff.n_components
    s1 = float(state.scores[0])
    scores, schedules, e0 = [], [], []
    for h in range(1, horizon + 1):
        blend = (1.0 - w) * rates.alpha_v ** h
        v = (1.0 - blend) * float(ff.speed(s1)) + blend * state.velocity
        s1 = s1 + v
        s_h = [s1]
        for k in range(2, n + 1):
            weight = rates.alpha_s[k - 1] ** h
            canonical = float(ff.trajectories[k - 2](s1))
            s_h.append(weight * state.scores[k - 1]
                       + (1.0 - weight) * canonical)
        flat = np.array(pca.g_bar, dtype=float)
        for k in range(n):
            flat = flat + s_h[k] * pca.loadings[k]
        z = model.sex_factor @ flat.reshape(pca.core_shape) \
            @ model.age_factor.T
        z = z + 2.0 ** (-h / tau_blend) * np.asarray(state.jumpoff)
        scores.append(s_h)
        schedules.append(z)
        e0.append(sum(reference_e0([1.0 / (1.0 + math.exp(-x)) for x in row])
                      for row in z) / z.shape[0])
    return np.array(scores), np.array(schedules), np.array(e0)


def reference_schedule_csv(result, path):
    """The per-age export written one csv.writer row per cell."""
    # the oracle pins the CSV layout, not the transform: it shares expit
    from mortflow.lifetable import expit

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "horizon", "year", "sex", "age",
                         "qx", "logit_qx"])
        for i, h in enumerate(result.horizons):
            for s, sex in enumerate(("f", "m")):
                for a, age in enumerate(result.ages):
                    z = result.schedules[i, s, a]
                    writer.writerow([result.country, int(h),
                                     int(result.years[i]), sex, age,
                                     float(expit(z)), float(z)])


def reference_deviations(ff, series_by_country):
    """(speed, structural) deviations, each curve called per country."""
    speed = {}
    structural = [dict() for _ in range(ff.n_components - 1)]
    for country in sorted(series_by_country):
        series = series_by_country[country]
        if series is None:
            continue
        s1 = series.scores[:, 0]
        if s1.size >= 2:
            speed[country] = (series.years[:-1],
                              series.ds1_raw - ff.speed(s1[:-1]))
        for k in range(2, ff.n_components + 1):
            structural[k - 2][country] = (
                series.years,
                series.scores[:, k - 1] - ff.trajectory(k)(s1))
    return speed, tuple(structural)


def reference_pool(rows, n_ages=None):
    """Pooling by the row-by-row loop ``data.pool_and_convert`` replaced.

    Rows are RawSeries.  Returns (country, year) -> (2, n_ages) logit_qx,
    in the order the loop fills it, and raises the errors, with the
    messages, that pool_and_convert raises.  reference_tensor lays it out.
    """
    from mortflow.errors import (DataError, DegenerateExposureError,
                                 MissingDataError)
    # the oracle pins pooling order, not the transform: it shares logit
    from mortflow.lifetable import logit

    sexes = ("f", "m")
    rows = list(rows)
    if not rows:
        raise MissingDataError("no rows supplied")
    for r in rows:
        if r.mx is None and (r.deaths is None or r.exposure is None):
            raise DataError(f"row {r} carries neither mx nor deaths/exposure")
        if (r.mx is not None and r.mx < 0) or \
           (r.deaths is not None and r.deaths < 0) or \
           (r.exposure is not None and r.exposure < 0):
            raise DataError(f"negative count or rate in row {r}")

    if n_ages is None:
        n_ages = min(max(r.age for r in rows) + 1, 110)

    by_year = {year: [] for year in sorted({r.year for r in rows})}
    for r in rows:
        if r.age < n_ages:
            by_year[r.year].append(r)

    schedules = {}
    for year, members in by_year.items():
        if not members:
            raise MissingDataError(f"year {year} has no rows below age "
                                   f"{n_ages}")
        for country in sorted({r.country for r in members}):
            deaths = np.zeros((2, n_ages))
            exposure = np.zeros((2, n_ages))
            mx_sum = np.zeros((2, n_ages))
            mx_cnt = np.zeros((2, n_ages))
            have_counts = np.zeros((2, n_ages), dtype=bool)
            for r in members:
                if r.country != country:
                    continue
                s = sexes.index(r.sex)
                if r.mx is not None:
                    mx_sum[s, r.age] += r.mx
                    mx_cnt[s, r.age] += 1
                else:
                    deaths[s, r.age] += r.deaths
                    exposure[s, r.age] += r.exposure
                    have_counts[s, r.age] = True
            if np.any(have_counts & (mx_cnt > 0)):
                raise DataError(
                    f"{country} year {year}: cell mixes mx and "
                    "deaths/exposure rows")
            if np.any(have_counts & (exposure == 0)):
                raise DegenerateExposureError(
                    f"{country} year {year}: zero total exposure")
            mx = np.full((2, n_ages), np.nan)
            with np.errstate(invalid="ignore", divide="ignore"):
                mx = np.where(have_counts,
                              deaths / np.where(exposure > 0, exposure, 1.0),
                              mx)
                mx = np.where(mx_cnt > 0,
                              mx_sum / np.where(mx_cnt > 0, mx_cnt, 1.0), mx)
            if not np.any(np.isfinite(mx)):
                continue
            qx = np.where(np.isfinite(mx),
                          np.clip(mx / (1.0 + mx / 2.0), 1e-7, 1.0 - 1e-7),
                          np.nan)
            with np.errstate(invalid="ignore"):
                lq = logit(qx)
            schedules[(country, year)] = lq
    return schedules


def reference_tensor(schedules):
    """The tensor ``data.build_tensor`` assembled from reference_pool's
    schedules, before pooling wrote the tensor itself.

    Countries are sorted, the year axis runs densely over the keyed
    years, and the mask is true where a schedule is finite throughout.
    """
    from mortflow.data import MortalityTensor
    from mortflow.errors import MissingDataError

    if not schedules:
        raise MissingDataError("no schedules supplied")
    items = sorted(schedules.items(), key=lambda kv: kv[0])
    n_ages = items[0][1].shape[1]
    countries = tuple(sorted({c for (c, _), _ in items}))
    all_years = [y for (_, y), _ in items]
    years = np.arange(min(all_years), max(all_years) + 1)
    values = np.full((2, n_ages, len(countries), years.size), np.nan)
    mask = np.zeros((len(countries), years.size), dtype=bool)
    for (country, year), lq in items:
        c = countries.index(country)
        t = year - int(years[0])
        values[:, :, c, t] = lq
        mask[c, t] = bool(np.isfinite(lq).all())
    return MortalityTensor(values=values, mask=mask, countries=countries,
                           years=years, ages=np.arange(n_ages))


def reference_records(model, result, tensor, observed, c, t_origin,
                      config):
    """Records of one forecast, one horizon at a time.

    The loop that ``mortflow.evaluation._records_from_result`` replaced:
    per horizon a mask test, a row, and the schedule errors of that
    horizon alone; the rows become one CVRecords at the end.
    """
    from mortflow.evaluation import CVRecords, _schedule_errors, _tucker_e0

    rows, blocks = [], []
    origin_year = int(tensor.years[t_origin])
    for h in range(1, config.horizon + 1):
        t = t_origin + h
        if t >= tensor.years.size or not tensor.mask[c, t]:
            continue
        obs = tensor.values[:, :, c, t]
        e0_hat = float(result.e0_avg[h - 1])
        e0_obs = (_tucker_e0(model, obs) if config.truth == "tucker"
                  else float(observed[c, t]))
        rows.append((tensor.countries[c], origin_year, h, e0_hat, e0_obs,
                     e0_hat - e0_obs))
        if config.schedules:
            eps, lx, excluded = _schedule_errors(result.schedules[h - 1], obs)
            blocks.append((eps, lx, int(excluded)))
    columns = [list(column) for column in zip(*rows)]
    if config.schedules:
        eps, lx, excluded = zip(*blocks)
        columns += [np.stack(eps), np.stack(lx), list(excluded)]
    return CVRecords(*columns)


def reference_grid(tensor, grid_w, grid_tau, config):
    """(best, table) of the grid search by one full fit_dynamics per
    (origin, tau), the loop the split into tau-free and speed halves
    replaced.  Cells pool their records (``reference_records``) in
    origin-plan order.
    """
    from dataclasses import replace

    from mortflow.evaluation import _origin_plan
    from mortflow.forecast import ForecastConfig, country_state, run_forecast
    from mortflow.lifetable import observed_e0
    from mortflow.pipeline import fit_basis, fit_dynamics

    config = replace(config, schedules=False, truth="raw")
    observed = observed_e0(tensor.values, tensor.mask)
    errors = {(float(w), float(tau)): [] for w in grid_w for tau in grid_tau}
    for origin_year, entries in _origin_plan(tensor, config).items():
        base = config.fit_config(origin_year)
        basis = fit_basis(tensor, base, clip_ranks=True)
        for tau in grid_tau:
            ff, rates = fit_dynamics(basis, replace(base, tau=float(tau)))
            for w in grid_w:
                fc = ForecastConfig(rates=rates, w=float(w),
                                    horizon=config.horizon)
                for c, t0 in entries:
                    state = country_state(basis.model, basis.pca, basis.mask,
                                          tensor.countries[c])
                    result = run_forecast(basis.model, basis.pca, ff, state,
                                          fc)
                    errors[(float(w), float(tau))].extend(
                        abs(err) for err in reference_records(
                            basis.model, result, tensor, observed, c, t0,
                            config).err.tolist())
    table = [{"w": float(w), "tau": float(tau),
              "mae": float(np.mean(errors[(float(w), float(tau))])),
              "n": len(errors[(float(w), float(tau))])}
             for w in grid_w for tau in grid_tau]
    best = min(table, key=lambda row: (row["mae"], row["tau"], row["w"]))
    return best, table


# the constants ``reference_read_csv`` read from ``mortflow.data``
SEXES = ("f", "m")
BLOCK_ROWS = 4096
_KEYS = ("country", "sex", "age", "year")
_VALUES = ("mx", "deaths", "exposure")
_INT64 = 2 ** 63
_LINE_BREAK = re.compile("\r\n|\r|\n")


def _reference_table(countries, columns):
    """RawTable from (country, sex, age, year, mx, deaths, exposure) columns."""
    country, sex, age, year, *values = columns
    return RawTable(countries, np.asarray(country, dtype=np.int64),
                    np.asarray(sex, dtype=np.int8),
                    np.asarray(age, dtype=np.int64),
                    np.asarray(year, dtype=np.int64),
                    *(np.asarray(v, dtype=float) for v in values))


def reference_read_csv(path):
    """``data.read_csv`` as it was before numpy's tokenizer read the body:
    csv.reader in blocks, each parsed column by column, and row by row
    when a block fails a check.  Kept verbatim as the definition of what
    a valid file is, which table it gives and which line an error names.
    Header names are not stripped when fields are looked up, so a
    header with spaces around its names fails at the first row.

    Original docstring:

    Read observation rows from either accepted CSV layout.

    Layouts (UTF-8, header required):
        country,sex,age,year,deaths,exposure
        country,sex,age,year,mx
    Sex is coded f/m, ages are non-negative integers, and every mx,
    deaths and exposure value is finite and non-negative.  Rows are
    parsed in blocks of BLOCK_ROWS into a RawTable.  Parse failures
    raise CsvFormatError carrying the 1-based line number.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("empty file", line=1)
        cols = [c.strip() for c in header]
        base = set(_KEYS)
        if not base.issubset(cols):
            raise CsvFormatError(
                f"missing required columns {sorted(base - set(cols))}", line=1)
        has_mx = "mx" in cols
        has_counts = "deaths" in cols and "exposure" in cols
        if has_mx == has_counts:
            raise CsvFormatError(
                "need either an mx column or deaths+exposure columns", line=1)
        parser = _ReferenceBlockParser(
            header, ("mx",) if has_mx else ("deaths", "exposure"))
        try:
            while True:
                first = reader.line_num
                block = list(islice(reader, BLOCK_ROWS))
                if not block:
                    break
                parser.add(block, first, reader.line_num)
        except csv.Error as exc:
            raise CsvFormatError(str(exc), line=reader.line_num) from exc
    if not parser.blocks:
        raise CsvFormatError("no data rows", line=1)
    return parser.table()


class _ReferenceBlockParser:
    """Turns blocks of csv rows into typed columns.

    A block is converted column by column.  If any check fails, the
    block is parsed again row by row, which raises CsvFormatError at the
    first bad row; the row parser is the definition of what is valid,
    the column parser only a fast path that accepts less.
    """

    def __init__(self, header, values):
        self.header = header
        # a repeated column name reads its last field, as in csv.DictReader
        index = {name: i for i, name in enumerate(header)}
        self.index = [index.get(name) for name in _KEYS + values]
        self.values = values
        self.names = {}   # country -> code
        self.codes = {}   # raw country field -> code
        self.sexes = {}   # raw sex field -> code
        self.blocks = []

    def add(self, block, first, last):
        """Parse the csv rows read on lines first+1 to last; skip blank rows."""
        rows = block if all(block) else [r for r in block if r]
        if not rows:
            return
        try:
            columns = self._columns(rows)
        except (ValueError, OverflowError):
            columns = None
        self.blocks.append(columns or self._rows(block, first, last))

    def _columns(self, rows):
        if None in self.index:
            return None
        fields = list(zip(*rows))  # as long as the shortest row
        if len(fields) <= max(self.index):
            return None
        country, sex, age, year, *values = (fields[i] for i in self.index)
        for raw in dict.fromkeys(sex).keys() - self.sexes.keys():
            code = raw.strip().lower()
            if code not in SEXES:
                return None
            self.sexes[raw] = SEXES.index(code)
        for raw in dict.fromkeys(country):
            if raw not in self.codes:
                self.codes[raw] = self.names.setdefault(raw.strip(),
                                                        len(self.names))
        n = len(rows)
        age = np.fromiter(map(int, age), np.int64, n)
        year = np.fromiter(map(int, year), np.int64, n)
        values = [np.fromiter(map(float, v), float, n) for v in values]
        if (age < 0).any() or not all(np.isfinite(v).all() and (v >= 0).all()
                                      for v in values):
            return None
        return (np.fromiter(map(self.codes.__getitem__, country), np.int64, n),
                np.fromiter(map(self.sexes.__getitem__, sex), np.int8, n),
                age, year, *values)

    def _rows(self, block, line, last):
        parsed = []
        for row in block:
            # a row ends as many lines on as it holds line breaks, plus one
            # (less at the end of a file that leaves a quote open)
            line = min(last, line + 1 + sum(len(_LINE_BREAK.findall(f))
                                            for f in row))
            if not row:
                continue
            # the record csv.DictReader builds: absent fields are None
            rec = dict(zip(self.header, row))
            rec.update(dict.fromkeys(self.header[len(row):]))
            try:
                parsed.append(self._record(rec))
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise CsvFormatError(str(exc), line=line) from exc
        return list(zip(*parsed))

    def _record(self, rec):
        sex = rec["sex"].strip().lower()
        if sex not in SEXES:
            raise ValueError(f"sex must be f or m, got {rec['sex']!r}")
        country = rec["country"].strip()
        age, year = int(rec["age"]), int(rec["year"])
        if not 0 <= age < _INT64:
            raise ValueError("age must be a non-negative integer")
        if not -_INT64 <= year < _INT64:
            raise ValueError("year out of range")
        values = [float(rec[name]) for name in self.values]
        for name, v in zip(self.values, values):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {rec[name]!r}")
        if any(v < 0 for v in values):
            raise ValueError("mx must be non-negative" if len(values) == 1
                             else "counts must be non-negative")
        return (self.names.setdefault(country, len(self.names)),
                SEXES.index(sex), age, year, *values)

    def table(self):
        columns = [np.concatenate(c) for c in zip(*self.blocks)]
        n = columns[0].size
        carried = dict(zip(self.values, columns[4:]))
        return _reference_table(tuple(self.names), columns[:4] + [
            carried[name] if name in carried else np.full(n, np.nan)
            for name in _VALUES])
