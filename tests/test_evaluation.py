import csv
import random
import sys
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortflow.data import MortalityTensor, drop_country
from mortflow.errors import (ConfigError, CVConfigError, DataError,
                             InsufficientDataError, ShapeMismatchError)
from mortflow import evaluation, flowfield
from mortflow.convergence import estimate_rates
from mortflow.evaluation import (
    GRID_TAU,
    CVConfig,
    CVRecords,
    GridResult,
    _effective_jobs,
    _inclusive_records,
    _joined,
    _records_from_result,
    _schedule_errors,
    calibrate_pi,
    candidate_origins,
    entry_state,
    grid_search,
    metric_report,
    run_inclusive_cv,
    run_loco_cv,
    write_grid_csv,
    write_records_csv,
)
from mortflow.forecast import tier2_state
from mortflow.lifetable import observed_e0
from mortflow.pca import scores as core_scores
from mortflow.pipeline import (FitConfig, fit_basis, fit_dynamics, fit_model,
                               fit_path_dynamics, fit_speed_dynamics)
from mortflow.synth import SyntheticSpec, generate
from mortflow.tucker import project_schedule

from oracles import reference_grid, reference_records


def make_records(errs, horizons, country="X", origin=2000):
    errs = np.asarray(errs, dtype=float)
    return CVRecords(country=[country] * errs.size,
                     origin=[origin] * errs.size, horizon=horizons,
                     e0_hat=80.0 + errs, e0_obs=np.full(errs.size, 80.0),
                     err=errs)


def stacked(parts):
    """The rows of the parts one after another, in the order given."""
    columns = {}
    for f in fields(CVRecords):
        column = [getattr(part, f.name) for part in parts]
        columns[f.name] = None if column[0] is None else np.concatenate(column)
    return CVRecords(**columns)


def keys(records):
    return list(zip(records.country.tolist(), records.origin.tolist(),
                    records.horizon.tolist()))


# ---------------------------------------------------------------- records


def test_records_validate_their_columns():
    with pytest.raises(DataError, match="horizon 0 is not positive"):
        make_records([0.1, 0.0, 0.2], [1, 0, 2])
    with pytest.raises(DataError, match="non-finite error for B at origin "
                                        "1990, horizon 2"):
        CVRecords(country=["A", "B", "B"], origin=[2000, 1990, 1990],
                  horizon=[1, 2, 3], e0_hat=[80.0, np.nan, np.inf],
                  e0_obs=[80.0] * 3, err=[0.0, np.nan, np.inf])
    with pytest.raises(ShapeMismatchError):
        make_records([0.1, 0.2], [1, 2, 3])
    good = make_records([0.1, 0.2], [1, 2])
    with pytest.raises(ShapeMismatchError):  # a schedule block missing
        replace(good, log_mx_err=np.zeros((2, 2, 3)),
                lx_obs=np.ones((2, 2, 3)))
    with pytest.raises(ShapeMismatchError):  # a block of another length
        replace(good, log_mx_err=np.zeros((3, 2, 3)),
                lx_obs=np.ones((2, 2, 3)), excluded=[0, 0])
    # lists become typed columns
    assert good.country.dtype == object and good.horizon.dtype == np.int64
    assert good.err.dtype == float and len(good) == 2
    assert len(make_records([], [])) == 0


def test_config_validation():
    with pytest.raises(DataError):
        CVConfig(horizon=0)
    with pytest.raises(DataError):
        CVConfig(w=1.5)
    with pytest.raises(DataError):
        CVConfig(truth="oracle")


# ------------------------------------------------------- origin placement


def origin_tensor(observed_per_country, n_years=60):
    """Tensor with crafted masks; values are valid logits throughout."""
    C = len(observed_per_country)
    rng = np.random.default_rng(0)
    values = rng.normal(-5.0, 0.5, size=(2, 4, C, n_years))
    mask = np.zeros((C, n_years), dtype=bool)
    for c, n_obs in enumerate(observed_per_country):
        mask[c, :n_obs] = True
    return MortalityTensor(values=values, mask=mask,
                           countries=tuple(f"C{c}" for c in range(C)),
                           years=np.arange(1950, 1950 + n_years),
                           ages=np.arange(4))


def test_origins_every_spacing_from_twentieth_observed():
    tensor = origin_tensor([45])
    got = candidate_origins(tensor, 0, CVConfig(horizon=50))
    assert got == [19, 29, 39]


def test_origin_needs_min_train_and_future_truth():
    tensor = origin_tensor([45])
    assert candidate_origins(tensor, 0, CVConfig(min_train=25)) == [29, 39]
    # 15 observed years: never reaches the 20th observation
    short = origin_tensor([15])
    assert candidate_origins(short, 0, CVConfig()) == []
    # origin on the last observed year has no truth ahead of it
    exact = origin_tensor([20])
    assert candidate_origins(exact, 0, CVConfig()) == []


def test_origin_requires_truth_within_horizon():
    tensor = origin_tensor([45], n_years=60)
    tensor.mask[0, 20:40] = False  # gap right after the first origin
    got = candidate_origins(tensor, 0, CVConfig(horizon=5))
    # observations resume at index 40: beyond h=5 from origin index 19
    assert 19 not in got


# ----------------------------------------------------------- calibration


def gaussian_records(n_per_h=200, horizons=range(1, 51), seed=0):
    rng = np.random.default_rng(seed)
    errs = [rng.normal(0.0, np.sqrt(h), size=n_per_h) for h in horizons]
    return make_records(np.concatenate(errs),
                        np.repeat(np.asarray(horizons), n_per_h))


def test_calibration_recovers_gaussian_scales():
    records = gaussian_records()
    assert len(records) == 10_000
    cal = calibrate_pi(records)
    hs = np.arange(1.0, 51.0)
    assert np.max(np.abs(cal.bias(hs))) < 0.5
    assert abs(np.mean(cal.bias(hs))) < 0.1
    assert abs(cal.sigma1 - 1.0) < 0.1
    assert abs(cal.kappa - 1.0) < 0.1


def test_calibration_set_coverage_near_nominal():
    records = gaussian_records(seed=1)
    cal = calibrate_pi(records)
    errs = records.err
    hs = records.horizon.astype(float)
    resid = errs - cal.bias(hs)
    scale = cal.kappa * cal.sigma1 * np.sqrt(hs)
    covered = np.mean(np.abs(resid) <= 1.96 * scale)
    assert 0.93 <= covered <= 0.97


def test_constant_errors_floor_sigma_with_warning():
    records = make_records([0.7] * 40, [1] * 20 + [2] * 20)
    with pytest.warns(UserWarning, match="floored"):
        cal = calibrate_pi(records)
    assert np.allclose(cal.bias(np.array([1.0, 2.0])), 0.7)
    assert cal.sigma1 == 1e-6
    assert cal.kappa > 0


def test_calibration_needs_two_populated_horizons():
    records = make_records([*np.linspace(-1, 1, 15), *[0.1] * 5],
                           [1] * 15 + [2] * 5)
    with pytest.raises(InsufficientDataError):
        calibrate_pi(records)
    with pytest.raises(InsufficientDataError):
        calibrate_pi(make_records([], []))


# ---------------------------------------------------------------- metrics


def schedule_record(eps, lx, horizon=1, country="X", err=0.0):
    return CVRecords(country=[country], origin=[2000], horizon=[horizon],
                     e0_hat=[80.0 + err], e0_obs=[80.0], err=[err],
                     log_mx_err=np.asarray(eps, dtype=float)[None],
                     lx_obs=np.asarray(lx, dtype=float)[None], excluded=[0])


def test_lx_weighted_mae_hand_example():
    # two ages with lx 1.0 and 0.5 and |errors| 0.3 and 0.6 in each sex
    rec = schedule_record([[0.3, 0.6], [0.3, 0.6]],
                          [[1.0, 0.5], [1.0, 0.5]])
    report = metric_report(rec)
    assert np.isclose(report.log_mx["mae_lx"], 0.4, rtol=1e-12)
    assert np.isclose(report.log_mx["mae"], 0.45, rtol=1e-12)


def test_uniform_weights_collapse_to_unweighted():
    rng = np.random.default_rng(3)
    recs = [schedule_record(rng.normal(size=(2, 6)),
                            rng.uniform(0.1, 1.0, size=(2, 6)),
                            horizon=h) for h in range(1, 9)]
    report = metric_report(stacked(recs), weights="uniform")
    assert np.isclose(report.log_mx["mae_lx"], report.log_mx["mae"],
                      rtol=1e-12)
    assert np.isclose(report.log_mx["bias_lx"], report.log_mx["bias"],
                      rtol=1e-12)
    assert np.isclose(report.sex_diff["mae_lx"], report.sex_diff["mae"],
                      rtol=1e-12)


def test_perfect_forecast_reports_zero_everywhere():
    recs = [schedule_record(np.zeros((2, 5)), np.ones((2, 5)), horizon=h)
            for h in (1, 7, 20, 30)]
    report = metric_report(stacked(recs))
    assert report.e0 == {"mae": 0.0, "rmse": 0.0, "bias": 0.0, "n": 4}
    for key in ("mae", "mae_lx", "bias", "bias_lx"):
        assert report.log_mx[key] == 0.0
        assert report.sex_diff[key] == 0.0
    assert len(report.by_horizon_band) == 4
    assert all(row["mae"] == 0.0 for row in report.by_horizon_band)


def test_metrics_are_order_invariant():
    rng = np.random.default_rng(4)
    recs = [schedule_record(rng.normal(size=(2, 6)),
                            rng.uniform(0.1, 1.0, size=(2, 6)),
                            horizon=h, country=c, err=float(rng.normal()))
            for h in (1, 5, 12, 30) for c in ("A", "B", "C")]
    shuffled = recs.copy()
    random.Random(9).shuffle(shuffled)
    assert metric_report(stacked(recs)).to_dict() == \
        metric_report(stacked(shuffled)).to_dict()


def take(records, rows):
    """The given rows of the records, in that order."""
    return CVRecords(**{f.name: None if getattr(records, f.name) is None
                        else getattr(records, f.name)[rows]
                        for f in fields(CVRecords)})


@st.composite
def shuffled_records(draw):
    """(records, a row permutation, cut points) with unique row keys."""
    rows = draw(st.lists(st.tuples(st.sampled_from("ABC"),
                                   st.integers(1950, 1952),
                                   st.integers(1, 50)),
                         min_size=1, max_size=12, unique=True))
    n = len(rows)
    value = st.floats(-5.0, 5.0)
    errs = draw(st.lists(value, min_size=n, max_size=n))
    eps = np.array(draw(st.lists(value | st.just(np.nan), min_size=6 * n,
                                 max_size=6 * n))).reshape(n, 2, 3)
    lx = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=6 * n,
                                max_size=6 * n))).reshape(n, 2, 3)
    country, origin, horizon = zip(*rows)
    records = CVRecords(country=country, origin=origin, horizon=horizon,
                        e0_hat=80.0 + np.array(errs), e0_obs=[80.0] * n,
                        err=errs, log_mx_err=eps, lx_obs=lx,
                        excluded=np.isnan(eps).sum(axis=(1, 2)))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return records, order, cuts


@settings(max_examples=60, deadline=None)
@given(shuffled_records())
def test_report_and_join_ignore_row_order(case):
    records, order, cuts = case
    shuffled = take(records, order)
    assert metric_report(shuffled).to_dict() == \
        metric_report(records).to_dict()
    bounds = [0, *cuts, len(records)]
    parts = [take(shuffled, np.arange(lo, hi))
             for lo, hi in zip(bounds, bounds[1:])]
    joined, whole = _joined(parts), _joined([records])
    assert joined.country.tolist() == whole.country.tolist()
    for f in fields(CVRecords)[1:]:
        assert getattr(joined, f.name).tobytes() == \
            getattr(whole, f.name).tobytes()


def test_sex_differential_uses_mean_lx_weights():
    eps = np.array([[0.1, 0.2], [0.4, 0.8]])
    lx = np.array([[1.0, 0.5], [0.8, 0.3]])
    report = metric_report(schedule_record(eps, lx))
    delta = eps[1] - eps[0]
    w = 0.5 * (lx[0] + lx[1])
    assert np.isclose(report.sex_diff["mae_lx"],
                      np.sum(w * np.abs(delta)) / np.sum(w), rtol=1e-12)
    assert report.sex_diff["n"] == 2


def test_age_bands_intersect_the_age_grid():
    rec = schedule_record(np.full((2, 30), 0.2), np.ones((2, 30)))
    report = metric_report(rec, ages=np.arange(30))
    labels = [row["band"] for row in report.by_age_band]
    assert labels == ["0", "1-14", "15-29"]
    assert all(np.isclose(row["mae"], 0.2) for row in report.by_age_band)
    with pytest.raises(DataError):
        metric_report(rec, ages=np.arange(7))


def test_zero_observed_mx_excluded_and_tallied():
    obs = np.full((2, 5), -2.0)
    obs[1, 3] = -800.0  # expit underflows to exactly zero
    pred = np.full((2, 5), -2.1)
    eps, lx, excluded = _schedule_errors(pred, obs)
    assert excluded == 1
    assert np.isnan(eps[1, 3]) and np.isfinite(eps[0, 3])
    assert lx.shape == (2, 5)
    rec = CVRecords(country=["X"], origin=[2000], horizon=[1], e0_hat=[80.0],
                    e0_obs=[80.0], err=[0.0], log_mx_err=eps[None],
                    lx_obs=lx[None], excluded=[excluded])
    report = metric_report(rec)
    assert report.excluded == 1
    assert report.log_mx["n"] == 9


def test_metric_report_rejects_bad_weight_source():
    with pytest.raises(DataError):
        metric_report(make_records([0.1], [1]), weights="exposure")
    with pytest.raises(InsufficientDataError):
        metric_report(make_records([], []))


# ------------------------------------------------------------- strict CV


@pytest.fixture(scope="module")
def cv_world():
    return generate(SyntheticSpec(n_countries=4, n_ages=16, n_years=48,
                                  stagger=3, obs_noise=0.005, seed=3))


@pytest.fixture(scope="module")
def cv_records(cv_world):
    fits = []

    def recording_fit(training, config, **kwargs):
        # the held-out country is the one _country_records works on
        fitted = fit_model(training, config, **kwargs)
        fits.append((sys._getframe(1).f_locals["country"], config.origin,
                     fitted))
        return fitted

    config = CVConfig(fit=FitConfig(seed=3), horizon=20, origin_spacing=10)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "fit_model", recording_fit)
        records = run_loco_cv(cv_world.tensor, config)
    return records, fits, config


def test_loco_produces_sorted_finite_records(cv_world, cv_records):
    records, _, config = cv_records
    assert len(records)
    rows = keys(records)
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    tensor = cv_world.tensor
    for country, origin, horizon in rows:
        assert 1 <= horizon <= config.horizon
        c = tensor.country_index(country)
        t = tensor.year_index(origin + horizon)
        assert tensor.mask[c, t]
    assert np.isclose(records.err, records.e0_hat - records.e0_obs).all()
    assert records.log_mx_err.shape == (len(records), 2, 16)
    assert records.lx_obs.shape == (len(records), 2, 16)


def test_loco_isolation_of_held_out_country(cv_world, cv_records):
    _, fits, _ = cv_records
    assert fits
    seen = set()
    for country, origin_year, fitted in fits:
        seen.add(country)
        assert country not in fitted.model.countries
        assert country not in fitted.flowfield.countries
        assert int(fitted.model.years[-1]) <= origin_year
        assert fitted.origin == origin_year
    assert seen == set(cv_world.tensor.countries)


def test_loco_covers_expected_origins(cv_world, cv_records):
    records, _, config = cv_records
    tensor = cv_world.tensor
    expected = set()
    for c, country in enumerate(tensor.countries):
        for t0 in candidate_origins(tensor, c, config):
            expected.add((country, int(tensor.years[t0])))
    assert {(country, origin) for country, origin, _ in keys(records)} == \
        expected


def test_loco_tracks_truth_on_self_consistent_world(cv_records):
    records, _, _ = cv_records
    errs = np.abs(records.err)
    assert np.mean(errs) < 1.0


def test_loco_needs_two_countries(cv_world):
    from mortflow.data import drop_country

    lone = cv_world.tensor
    for country in lone.countries[1:]:
        lone = drop_country(lone, country)
    with pytest.raises(InsufficientDataError):
        run_loco_cv(lone, CVConfig())


def test_loco_skips_country_without_origins(cv_world):
    tensor = cv_world.tensor
    values = tensor.values.copy()
    mask = tensor.mask.copy()
    mask[0, 15:] = False  # too short to reach the 20th observation
    crippled = MortalityTensor(values=values, mask=mask,
                               countries=tensor.countries,
                               years=tensor.years, ages=tensor.ages)
    config = CVConfig(fit=FitConfig(seed=3), horizon=5, schedules=False)
    with pytest.warns(UserWarning, match="skipped"):
        records = run_loco_cv(crippled, config)
    assert tensor.countries[0] not in set(records.country)


def test_truth_flag_switches_ground_truth(cv_world):
    # a deliberately low age rank so the basis cannot span raw schedules
    config = CVConfig(fit=FitConfig(ranks=(2, 5, 3, 20), seed=3), horizon=3,
                      schedules=False)
    raw = run_loco_cv(cv_world.tensor, config)
    tucker = run_loco_cv(cv_world.tensor, replace_truth(config, "tucker"))
    assert raw.e0_hat.tolist() == tucker.e0_hat.tolist()
    assert any(not np.isclose(a, b, rtol=1e-12)
               for a, b in zip(raw.e0_obs, tucker.e0_obs))


def replace_truth(config, truth):
    from dataclasses import replace

    return replace(config, truth=truth)


def test_inclusive_cv_covers_same_points_without_isolation(cv_world,
                                                           cv_records):
    strict, _, config = cv_records
    inclusive = run_inclusive_cv(cv_world.tensor, config)
    assert set(keys(inclusive)) == set(keys(strict))
    assert keys(inclusive) == sorted(keys(inclusive))
    # in-basis entries see their own history, so the forecasts differ
    assert any(a != b for a, b in zip(strict.e0_hat, inclusive.e0_hat))


# ------------------------------------------------------------ parallelism


def test_parallel_cv_matches_serial(cv_world, cv_records):
    serial, _, config = cv_records
    parallel = run_loco_cv(cv_world.tensor, replace_jobs(config, 3))
    assert len(parallel) == len(serial)
    assert keys(serial) == keys(parallel)
    assert serial.e0_hat.tolist() == parallel.e0_hat.tolist()
    assert serial.e0_obs.tolist() == parallel.e0_obs.tolist()
    assert np.array_equal(serial.log_mx_err, parallel.log_mx_err,
                          equal_nan=True)


def replace_jobs(config, jobs):
    from dataclasses import replace

    return replace(config, jobs=jobs)


def test_thread_cap_from_environment(monkeypatch):
    monkeypatch.setenv("MORTFLOW_THREADS", "2")
    assert _effective_jobs(8) == 2
    assert _effective_jobs(1) == 1
    monkeypatch.setenv("MORTFLOW_THREADS", " 3 ")
    assert _effective_jobs(8) == 3
    # anything but a positive integer is a usage error, not a serial run
    for bad in ("banana", "0", "-3", "2.5"):
        monkeypatch.setenv("MORTFLOW_THREADS", bad)
        with pytest.raises(CVConfigError, match="positive integer"):
            _effective_jobs(4)
    monkeypatch.setenv("MORTFLOW_THREADS", "banana")
    with pytest.raises(DataError):
        _effective_jobs(4)
    monkeypatch.delenv("MORTFLOW_THREADS")
    assert _effective_jobs(8) == 8


# ------------------------------------------------------------ grid search


def test_grid_search_table_and_best(cv_world):
    config = CVConfig(fit=FitConfig(seed=3), horizon=10, schedules=False)
    result = grid_search(cv_world.tensor, grid_w=(0.5, 1.0),
                         grid_tau=(12.0, 20.0), config=config)
    assert isinstance(result, GridResult)
    assert len(result.table) == 4
    assert len({row["n"] for row in result.table}) == 1
    assert result.table[0]["n"] > 0
    maes = [row["mae"] for row in result.table]
    assert all(np.isfinite(maes))
    assert result.best["mae"] == min(maes)
    assert result.best in result.table


def test_grid_cells_are_the_mae_of_inclusive_cv(cv_world):
    config = CVConfig(fit=FitConfig(seed=3), horizon=10, schedules=False)
    result = grid_search(cv_world.tensor, grid_w=(0.5, 1.0),
                         grid_tau=(12.0, 20.0), config=config)
    for row in result.table:
        cell = replace(config, w=row["w"],
                       fit=replace(config.fit, tau=row["tau"]))
        records = run_inclusive_cv(cv_world.tensor, cell)
        # the grid sums in origin-plan order: by origin year, then country
        rows = sorted(zip(records.origin.tolist(), records.country.tolist(),
                          records.horizon.tolist(), records.err.tolist()))
        assert row["n"] == len(rows)
        assert row["mae"] == float(np.mean([abs(r[3]) for r in rows]))


def test_grid_search_rejects_repeated_values(cv_world):
    # a repeated value would fill one cell twice; no fit may start
    with pytest.raises(DataError, match="grid tau value 12.0"):
        grid_search(cv_world.tensor, grid_w=(1.0,), grid_tau=(12.0, 12))
    with pytest.raises(DataError, match="grid w value 0.5"):
        grid_search(cv_world.tensor, grid_w=(0.5, 1.0, 0.5),
                    grid_tau=(12.0,))


def test_grid_search_needs_countries_and_origins(cv_world):
    from mortflow.data import drop_country

    lone = cv_world.tensor
    for country in lone.countries[1:]:
        lone = drop_country(lone, country)
    with pytest.raises(InsufficientDataError):
        grid_search(lone)
    short = origin_tensor([12, 12])
    with pytest.raises(InsufficientDataError):
        grid_search(short, config=CVConfig(schedules=False))


# ---------------------------------------------------------------- output


def test_records_csv_round_trip(tmp_path):
    records = make_records([0.25, -0.5, 1.0], [1, 2, 3], country="SWE")
    path = tmp_path / "cv.csv"
    write_records_csv(records, path)
    text = path.read_text()
    assert text.splitlines()[0] == "country,origin,h,e0_hat,e0_obs,err"
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))[1:]
    # every float reads back exactly
    assert [(c, int(o), int(h), float(a), float(b), float(e))
            for c, o, h, a, b, e in back] == \
           list(zip(records.country, records.origin.tolist(),
                    records.horizon.tolist(), records.e0_hat.tolist(),
                    records.e0_obs.tolist(), records.err.tolist()))


def test_grid_csv_and_metrics_json(tmp_path):
    # the metrics JSON half is checked on `mortflow cv`'s output in
    # test_cli.py: cmd_cv is its only writer
    table = [{"w": 1.0, "tau": 12.0, "mae": 0.5, "n": 10},
             {"w": 0.5, "tau": 20.0, "mae": 0.75, "n": 10}]
    grid_path = tmp_path / "grid.csv"
    write_grid_csv(GridResult(best=table[0], table=table), grid_path)
    lines = grid_path.read_text().splitlines()
    assert lines[0] == "w,tau,mae,n"
    assert len(lines) == 3


def test_entry_state_takes_the_origin_from_the_projected_history(cv_world):
    tensor = cv_world.tensor
    fitted = fit_model(drop_country(tensor, tensor.countries[0]),
                       FitConfig(n_components=3))
    obs = np.flatnonzero(tensor.mask[0])
    t = int(obs[-5])
    state = entry_state(fitted, tensor, 0, t)
    history = np.moveaxis(tensor.values[:, :, 0, obs[obs <= t]], -1, 0)
    rows = core_scores(fitted.pca, project_schedule(fitted.model, history))
    np.testing.assert_array_equal(state.scores, rows[-1])
    # the single-schedule projection of tier2_state agrees to rounding
    alone = tier2_state(fitted.model, fitted.pca, fitted.flowfield,
                        tensor.values[:, :, 0, t], int(tensor.years[t]),
                        history=(tensor.years[obs[obs <= t]].astype(float),
                                 rows))
    np.testing.assert_allclose(state.scores, alone.scores, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(state.jumpoff, alone.jumpoff, rtol=0,
                               atol=1e-12)
    assert state.velocity == alone.velocity


# ------------------------------------------------- dynamics split by tau


def test_cv_config_errors_are_usage_and_data_errors():
    for bad in ({"horizon": 0}, {"origin_spacing": 0}, {"min_train": 1},
                {"w": 2.0}, {"truth": "oracle"}, {"horizon": 2.5},
                {"origin_spacing": 2.5}, {"min_train": 20.5},
                {"jobs": 2.5}, {"jobs": 0}, {"jobs": -3},
                {"fit": FitConfig(origin=1990)}):
        with pytest.raises(ConfigError) as info:
            CVConfig(**bad)
        assert isinstance(info.value, DataError)
    # integer settings are coerced as FitConfig coerces its own
    config = CVConfig(horizon=np.int64(5), min_train=np.int32(25))
    assert (type(config.horizon), type(config.min_train)) == (int, int)


def test_grid_search_matches_one_full_fit_per_origin_and_tau(cv_world):
    config = CVConfig(fit=FitConfig(seed=3), horizon=10, schedules=False)
    grid_w, grid_tau = (0.2, 1.0), (10.0, 20.0, 30.0)
    result = grid_search(cv_world.tensor, grid_w, grid_tau, config)
    best, table = reference_grid(cv_world.tensor, grid_w, grid_tau, config)
    assert [(r["w"], r["tau"], r["n"]) for r in result.table] == \
        [(r["w"], r["tau"], r["n"]) for r in table]
    for got, want in zip(result.table, table):
        assert abs(got["mae"] - want["mae"]) <= 1e-13 * want["mae"]
    assert (result.best["w"], result.best["tau"]) == (best["w"], best["tau"])


def assert_same_curve(a, b):
    base_a = getattr(a, "base", a)
    base_b = getattr(b, "base", b)
    assert np.array_equal(base_a.knots, base_b.knots)
    assert np.array_equal(base_a.values, base_b.values)
    for name in ("transition", "delta", "blend_width", "anchor", "slope"):
        assert getattr(a, name, None) == getattr(b, name, None)


def test_split_dynamics_equal_a_full_fit_bit_for_bit(cv_world):
    config = FitConfig(origin=int(cv_world.tensor.years[35]), seed=3)
    basis = fit_basis(cv_world.tensor, config, clip_ranks=True)
    paths, alpha_s = fit_path_dynamics(basis, config)
    for tau in GRID_TAU:
        tau_config = replace(config, tau=tau)
        ff, rates = fit_speed_dynamics(basis, paths, alpha_s, tau_config)
        full_ff, full_rates = fit_dynamics(basis, tau_config)
        apart = flowfield.fit_flowfield(basis.series, basis.origin,
                                        tau_config)
        for want_ff, want_rates in (
                (full_ff, full_rates),
                (apart, estimate_rates(apart, basis.series,
                                       max_lag=config.max_lag))):
            assert rates == want_rates
            assert_same_curve(ff.speed, want_ff.speed)
            for got, want in zip(ff.trajectories, want_ff.trajectories,
                                 strict=True):
                assert_same_curve(got, want)
            assert_same_curve(ff.s1_of_e0, want_ff.s1_of_e0)
            assert_same_curve(ff.e0_of_s1, want_ff.e0_of_s1)
            assert ff.transition == want_ff.transition
            assert ff.countries == want_ff.countries


def test_grid_fits_tau_free_dynamics_once_per_origin(cv_world, monkeypatch):
    # the trajectory and level-map fits do not read tau: one set per
    # origin, however many taus the grid holds; only the speed is per tau
    lowess_callers = Counter()
    era_fits = []
    real_lowess, real_era_lowess = flowfield.lowess, flowfield.era_lowess

    def counted_lowess(*args, **kwargs):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension
            caller = caller.f_back
        lowess_callers[caller.f_code.co_name] += 1
        return real_lowess(*args, **kwargs)

    def counted_era_lowess(*args, **kwargs):
        era_fits.append(args[3].tau)
        return real_era_lowess(*args, **kwargs)

    monkeypatch.setattr(flowfield, "lowess", counted_lowess)
    monkeypatch.setattr(flowfield, "era_lowess", counted_era_lowess)
    config = CVConfig(fit=FitConfig(seed=3), horizon=10, schedules=False)
    grid_search(cv_world.tensor, grid_w=(1.0,), grid_tau=GRID_TAU,
                config=config)
    tensor = cv_world.tensor
    n_origins = len({int(tensor.years[t])
                     for c in range(len(tensor.countries))
                     for t in candidate_origins(tensor, c, config)})
    assert n_origins > 1
    # one call fits the trajectories of components 2..K and the e0 map
    # on the shared s1, and one more the s1 map
    assert lowess_callers["fit_paths"] == n_origins * 2
    assert era_fits == list(GRID_TAU) * n_origins


# ------------------------------------------- records against the oracle


def assert_same_records(got, want):
    """Equal records, every column bit for bit."""
    assert len(got) == len(want) > 0
    assert got.country.tolist() == want.country.tolist()
    assert got.excluded is None or got.excluded.dtype == np.int64
    for f in fields(CVRecords)[1:]:
        x, y = getattr(got, f.name), getattr(want, f.name)
        assert (x is None) == (y is None)
        if x is not None:
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("truth", ["raw", "tucker"])
def test_strict_and_inclusive_records_match_the_horizon_loop(
        cv_world, monkeypatch, truth):
    config = CVConfig(fit=FitConfig(seed=3), horizon=15, origin_spacing=10,
                      truth=truth)
    tensor = cv_world.tensor
    strict = run_loco_cv(tensor, config)
    inclusive = run_inclusive_cv(tensor, config)
    monkeypatch.setattr(evaluation, "_records_from_result",
                        reference_records)
    assert_same_records(strict, run_loco_cv(tensor, config))
    assert_same_records(inclusive, run_inclusive_cv(tensor, config))


@pytest.mark.parametrize("truth", ["raw", "tucker"])
@pytest.mark.parametrize("schedules", [True, False])
def test_one_forecast_records_match_the_horizon_loop(cv_world, truth,
                                                     schedules):
    # underflowing cells on both sides give excluded counts; the origin
    # sits close enough to the end that the horizon runs past the years
    tensor = cv_world.tensor
    c, t0 = 1, tensor.years.size - 12
    config = CVConfig(fit=FitConfig(seed=3), horizon=20, truth=truth,
                      schedules=schedules)
    fitted = fit_model(tensor, config.fit_config(int(tensor.years[t0])),
                       clip_ranks=True)
    result = fitted.forecast(tensor.countries[c], horizon=config.horizon)
    values = tensor.values.copy()
    mask = tensor.mask.copy()
    observed_t = np.flatnonzero(mask[c, t0 + 1:]) + t0 + 1
    values[1, 3, c, observed_t[0]] = -800.0
    values[0, :2, c, observed_t[-1]] = -900.0
    mask[c, observed_t[1]] = False
    result.schedules[observed_t[2] - t0 - 1, 1, 5] = -850.0
    damaged = replace(tensor, values=values, mask=mask)
    observed = observed_e0(values, mask)
    got = _records_from_result(fitted.model, result, damaged, observed, c,
                               t0, config)
    want = reference_records(fitted.model, result, damaged, observed, c, t0,
                             config)
    assert_same_records(got, want)
    assert got.horizon.tolist() == [int(t - t0) for t in observed_t
                                    if mask[c, t]]
    if schedules:
        assert got.excluded[:3].tolist() == [1, 1, 0]
        assert got.excluded[-1] == 2


def test_grid_maes_are_the_record_maes_in_plan_order(cv_world, monkeypatch):
    config = CVConfig(fit=FitConfig(seed=3), horizon=12, schedules=False)
    grid_w, grid_tau = (0.2, 1.0), (10.0, 20.0)
    result = grid_search(cv_world.tensor, grid_w, grid_tau, config)
    monkeypatch.setattr(evaluation, "_records_from_result",
                        reference_records)
    cells = _inclusive_records(cv_world.tensor, config, grid_w, grid_tau)
    for row in result.table:
        errs = [abs(e) for part in cells[(row["w"], row["tau"])]
                for e in part.err.tolist()]
        assert row["n"] == len(errs)
        assert row["mae"].hex() == float(np.mean(errs)).hex()


def test_a_nan_forecast_e0_raises_data_error(cv_world, monkeypatch):
    real = evaluation.run_forecasts

    def nan_at_h3(*args, **kwargs):
        results = real(*args, **kwargs)
        for result in results:
            result.e0_avg[2] = np.nan
        return results

    monkeypatch.setattr(evaluation, "run_forecasts", nan_at_h3)
    config = CVConfig(fit=FitConfig(seed=3), horizon=10)
    with pytest.raises(DataError, match="non-finite error .* horizon 3"):
        grid_search(cv_world.tensor, (1.0,), (12.0,), config)
    with pytest.raises(DataError, match="non-finite error .* horizon 3"):
        run_inclusive_cv(cv_world.tensor, config)
