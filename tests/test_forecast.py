"""Engine tests: speed stepping, relaxation, jump-off, the full loop."""

import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortflow import expit
from mortflow.convergence import RelaxationRates
from mortflow.errors import CalibrationMissingError, ConfigError, DataError, \
    InsufficientDataError
from mortflow.flowfield import FlowField
from mortflow.forecast import (
    CountryState,
    ForecastConfig,
    PICalibration,
    apply_intervals,
    country_state,
    jumpoff_weight,
    reconstruct_with_jumpoff,
    relax_scores,
    run_forecast,
    run_forecasts,
    step_speed,
    tier1_state,
    tier2_state,
    write_schedule_csv,
    write_summary_csv,
)
from mortflow.pca import CorePCA
from mortflow.pipeline import FitConfig, fit_model
from mortflow.smoothing import ExtendedFn, SmoothFn
from mortflow.synth import SyntheticSpec, generate
from mortflow.tucker import TuckerModel

from oracles import reference_forecast, reference_schedule_csv


def affine_line(intercept, slope, lo=-200.0, hi=200.0):
    return SmoothFn(knots=np.array([lo, hi]),
                    values=np.array([intercept + slope * lo,
                                     intercept + slope * hi]))


def affine_field(speed_value=-0.05, cks=(0.5, -0.2)):
    speed = ExtendedFn.build(affine_line(speed_value, 0.0), transition=0.0)
    trajectories = tuple(ExtendedFn.build(affine_line(0.0, c), transition=0.0)
                         for c in cks)
    return FlowField(
        speed=speed,
        trajectories=trajectories,
        s1_of_e0=affine_line(200.0, -2.0),
        e0_of_s1=ExtendedFn.build(affine_line(100.0, -0.5), transition=0.0),
        transition=0.0,
        countries=("X",),
        n_components=len(cks) + 1,
    )


def make_model(n_ages=6, r2=3):
    return TuckerModel(
        sex_factor=np.eye(2),
        age_factor=np.eye(n_ages)[:, :r2],
        country_factor=np.ones((1, 1)),
        year_factor=np.ones((1, 1)),
        core=np.zeros((2, r2, 1, 1)),
        countries=("X",),
        years=(2000,),
        ages=tuple(range(n_ages)),
    )


def make_pca(n_components=3, r2=3, g_bar=None):
    dim = 2 * r2
    if g_bar is None:
        g_bar = np.linspace(-3.0, -2.0, dim)
    return CorePCA(g_bar=np.asarray(g_bar, dtype=float),
                   loadings=np.eye(dim)[:n_components],
                   explained_variance=np.full(n_components, 1.0 / n_components),
                   core_shape=(2, r2))


def make_state(scores=(0.5, 0.4, -0.3), velocity=0.0, jumpoff=None,
               n_ages=6):
    if jumpoff is None:
        jumpoff = np.zeros((2, n_ages))
    return CountryState(country="X", scores=np.asarray(scores, dtype=float),
                        velocity=velocity, jumpoff=np.asarray(jumpoff),
                        origin_year=2010)


def rates_for(alpha, n=3, alpha_v=0.0):
    return RelaxationRates(alpha_v=alpha_v,
                           alpha_s=(0.0,) + (alpha,) * (n - 1))


# ----------------------------------------------------------------- stepping


def test_blend_is_fully_canonical_at_w_one():
    ff = affine_field(speed_value=-0.25)
    g = float(ff.speed(10.0))
    got = set()
    for vc in (-1.0, 0.0, 1.0):
        state = make_state(velocity=vc)
        v, s1_next = step_speed(ff, state, 1.0, 0.9, 3, 10.0)
        got.add((v, s1_next))
        assert v == g
    assert len(got) == 1  # bitwise identical across trailing velocities


def test_blend_is_fully_country_at_w_zero_alpha_one():
    ff = affine_field(speed_value=-0.25)
    state = make_state(velocity=0.8)
    v, s1_next = step_speed(ff, state, 0.0, 1.0, 1, 10.0)
    assert v == 0.8
    assert s1_next == 10.0 + 0.8


def test_blend_midpoint_arithmetic():
    # alpha_v = 0.5, w = 0, h = 2: one quarter country, three quarters pooled
    ff = affine_field(speed_value=-0.25)
    state = make_state(velocity=0.8)
    v, _ = step_speed(ff, state, 0.0, 0.5, 2, 10.0)
    assert v == pytest.approx(0.75 * -0.25 + 0.25 * 0.8, rel=1e-15)


# --------------------------------------------------------------- relaxation


def test_relaxation_pins_to_canonical_at_alpha_zero():
    ff = affine_field(cks=(0.5, -0.2))
    state = make_state(scores=(10.0, 99.0, 99.0))
    sk = relax_scores(ff, state, rates_for(0.0), 4, 8.0)
    np.testing.assert_array_equal(
        sk, [float(ff.trajectory(2)(8.0)), float(ff.trajectory(3)(8.0))])
    np.testing.assert_allclose(sk, [0.5 * 8.0, -0.2 * 8.0], rtol=1e-12)


def test_relaxation_midpoint_and_near_freeze():
    ff = affine_field(cks=(0.0, 0.0))  # canonical is the zero line
    state = make_state(scores=(10.0, 4.0, 4.0))
    sk = relax_scores(ff, state, rates_for(0.5), 1, 10.0)
    np.testing.assert_allclose(sk, [2.0, 2.0], rtol=1e-15)
    sk = relax_scores(ff, state, rates_for(0.999), 1, 10.0)
    np.testing.assert_allclose(sk, [0.999 * 4.0, 0.999 * 4.0], rtol=1e-15)


def test_relaxation_decay_bound_is_tight_on_flat_trajectories():
    ff = affine_field(cks=(0.0, 0.0))
    state = make_state(scores=(10.0, 3.0, -2.0))
    for h in (1, 2, 5, 20):
        sk = relax_scores(ff, state, rates_for(0.8), h, 10.0)
        np.testing.assert_allclose(np.abs(sk),
                                   0.8 ** h * np.abs([3.0, -2.0]), rtol=1e-12)


# ----------------------------------------------------------------- jump-off


def test_jumpoff_weight_exact_points():
    assert jumpoff_weight(2, 2.0) == 0.5
    assert jumpoff_weight(10, 2.0) == 2.0 ** -5
    assert jumpoff_weight(4, 2.0) == 0.25


def test_jumpoff_weight_decay_ratio():
    for h in range(1, 20):
        ratio = jumpoff_weight(h + 1, 2.0) / jumpoff_weight(h, 2.0)
        np.testing.assert_allclose(ratio, 2.0 ** -0.5, rtol=1e-15)
        # two steps halve exactly: both weights are scaled by 2^-1
        assert jumpoff_weight(h + 2, 2.0) == 0.5 * jumpoff_weight(h, 2.0)


def test_reconstruction_carries_decayed_jumpoff_exactly():
    # zero mean and zero scores make the base reconstruction vanish, so
    # the output IS the decayed residual
    model = make_model()
    pca = make_pca(g_bar=np.zeros(6))
    rng = np.random.default_rng(3)
    residual = rng.normal(size=(2, 6))
    state = make_state(scores=(0.0, 0.0, 0.0), jumpoff=residual)
    out2 = reconstruct_with_jumpoff(model, pca, state, np.zeros(3), 2, 2.0)
    out10 = reconstruct_with_jumpoff(model, pca, state, np.zeros(3), 10, 2.0)
    np.testing.assert_array_equal(out2, 0.5 * residual)
    np.testing.assert_array_equal(out10, 2.0 ** -5 * residual)


def test_zero_jumpoff_gives_pure_reconstruction():
    model = make_model()
    pca = make_pca()
    state = make_state(scores=(0.1, -0.2, 0.3))
    out = reconstruct_with_jumpoff(model, pca, state,
                                   np.array([0.1, -0.2, 0.3]), 7, 2.0)
    flat = pca.g_bar + np.array([0.1, -0.2, 0.3]) @ pca.loadings
    want = model.sex_factor @ flat.reshape(2, 3) @ model.age_factor.T
    np.testing.assert_array_equal(out, want)


# ------------------------------------------------------------- run_forecast


def engine_parts(speed_value=-0.05, cks=(0.5, -0.2)):
    return make_model(), make_pca(), affine_field(speed_value, cks)


def test_forecast_is_deterministic_and_w1_invariant():
    model, pca, ff = engine_parts()
    config = ForecastConfig(rates=rates_for(0.9, alpha_v=0.9), w=1.0,
                            horizon=25)
    results = []
    for vc in (-1.0, 0.0, 1.0):
        state = make_state(scores=(0.5, 2.0, -1.0), velocity=vc)
        results.append(run_forecast(model, pca, ff, state, config))
    again = run_forecast(model, pca, ff,
                         make_state(scores=(0.5, 2.0, -1.0), velocity=-1.0),
                         config)
    for other in results[1:] + [again]:
        np.testing.assert_array_equal(results[0].schedules, other.schedules)
        np.testing.assert_array_equal(results[0].scores, other.scores)
        np.testing.assert_array_equal(results[0].e0_avg, other.e0_avg)


def test_zero_speed_keeps_s1_and_halves_deviations():
    model, pca, ff = engine_parts(speed_value=0.0)
    config = ForecastConfig(rates=rates_for(0.5), w=1.0, horizon=10)
    state = make_state(scores=(0.5, 2.0, -1.0))
    result = run_forecast(model, pca, ff, state, config)
    np.testing.assert_array_equal(result.scores[:, 0], np.full(10, 0.5))
    canonical = np.array([float(ff.trajectory(2)(0.5)),
                          float(ff.trajectory(3)(0.5))])
    for h in range(1, 11):
        dev = result.scores[h - 1, 1:] - canonical
        want = 0.5 ** h * (np.array([2.0, -1.0]) - canonical)
        np.testing.assert_allclose(dev, want, rtol=1e-12, atol=1e-14)


def test_scores_reach_canonical_at_long_horizon():
    model, pca, ff = engine_parts(speed_value=-0.002)
    config = ForecastConfig(rates=rates_for(0.98), w=1.0, horizon=500)
    state = make_state(scores=(2.0, 1.0, 1.0))
    result = run_forecast(model, pca, ff, state, config)
    s1 = result.scores[-1, 0]
    want = np.array([0.5 * s1, -0.2 * s1])
    np.testing.assert_allclose(result.scores[-1, 1:], want, atol=1e-4)


def test_forecast_output_shapes_and_e0():
    model, pca, ff = engine_parts()
    config = ForecastConfig(rates=rates_for(0.9), w=1.0, horizon=8)
    state = make_state(scores=(0.5, 0.1, -0.1))
    result = run_forecast(model, pca, ff, state, config)
    assert result.schedules.shape == (8, 2, 6)
    assert result.scores.shape == (8, 3)
    assert result.e0_by_sex.shape == (8, 2)
    np.testing.assert_array_equal(result.horizons, np.arange(1, 9))
    np.testing.assert_array_equal(result.years, 2010 + np.arange(1, 9))
    np.testing.assert_allclose(result.e0_avg, result.e0_by_sex.mean(axis=1),
                               rtol=1e-15)
    assert np.all(result.e0_avg > 0) and np.all(result.e0_avg < 6)


def test_sex_crossing_diagnostic_counts_cells():
    model = make_model()
    # female rows at logit -1, male rows at logit -2: male below female
    # in the three spanned age columns, equal (zero) in the padded ones
    pca = make_pca(g_bar=np.array([-1.0, -1.0, -1.0, -2.0, -2.0, -2.0]))
    ff = affine_field(speed_value=0.0, cks=(0.0, 0.0))
    config = ForecastConfig(rates=rates_for(0.0), w=1.0, horizon=4)
    state = make_state(scores=(0.0, 0.0, 0.0))
    result = run_forecast(model, make_pca(), ff, state, config)
    assert result.sex_crossings == 0
    result = run_forecast(model, pca, ff, state, config)
    assert result.sex_crossings == 4 * 3


def test_config_validation():
    with pytest.raises(ValueError):
        ForecastConfig(rates=rates_for(0.9), w=1.5)
    with pytest.raises(ValueError):
        ForecastConfig(rates=rates_for(0.9), horizon=0)
    # a horizon must be an integer: range() would fail on 2.5 later
    with pytest.raises(ConfigError, match="horizon must be an integer"):
        ForecastConfig(rates=rates_for(0.9), horizon=2.5)
    assert type(ForecastConfig(rates=rates_for(0.9),
                               horizon=np.int64(3)).horizon) is int


# ------------------------------------------------------------ entry states


def test_tier1_state_maps_e0_and_uses_trailing_velocity():
    ff = affine_field()
    years = np.arange(2000, 2010)
    e0 = np.concatenate([np.full(5, 80.0), 80.0 + 0.2 * np.arange(1, 6)])
    state = tier1_state(ff, years, e0)
    s1_last = float(ff.s1_of_e0(e0[-1]))
    assert state.scores[0] == s1_last
    np.testing.assert_allclose(
        state.scores[1:],
        [float(ff.trajectory(k)(s1_last)) for k in (2, 3)], rtol=1e-15)
    # mapped s1 moves by -0.4/yr over the last five gaps
    assert state.velocity == pytest.approx(-0.4, rel=1e-12)
    assert np.all(np.asarray(state.jumpoff) == 0.0)
    assert state.origin_year == 2009


def test_tier1_state_constant_series_has_zero_velocity():
    ff = affine_field()
    state = tier1_state(ff, np.arange(2000, 2006), np.full(6, 75.0))
    assert state.velocity == 0.0


def test_tier1_state_needs_two_points():
    ff = affine_field()
    with pytest.raises(InsufficientDataError):
        tier1_state(ff, np.array([2000]), np.array([80.0]))


@pytest.mark.parametrize("years, e0, message", [
    ([2000, 2000, 2001], [80.0, 80.2, 80.4], "repeats a year"),
    ([2000, 2001, 2002], [80.0, 80.2, np.inf], "must be finite"),
    ([2000, 2001, 2002], [80.0, np.nan, 80.4], "must be finite"),
    ([2000, np.inf, 2002], [80.0, 80.2, 80.4], "must be finite"),
    ([np.nan, 2001, 2002], [80.0, 80.2, 80.4], "must be finite"),
    # a ShapeMismatchError, raised before any other check
    ([2000, 2001, 2002], [80.0, 80.2], "1-d arrays of equal length"),
    ([2000, 2000, 2001], [80.0, np.nan], "1-d arrays of equal length"),
    ([[2000, 2001], [2002, 2003]], [[80.0, 80.2], [80.4, 80.6]],
     "1-d arrays of equal length"),
    ([2000, 2001, 2002, 2003], [[80.0, 80.2], [80.4, 80.6]],
     "1-d arrays of equal length"),
])
def test_tier1_state_rejects_repeated_or_non_finite_points(years, e0,
                                                           message):
    ff = affine_field()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        with pytest.raises(DataError, match=message):
            tier1_state(ff, years, e0)


def test_tier1_velocity_respects_year_gaps():
    ff = affine_field()
    years = np.array([2000, 2002, 2003])
    e0 = np.array([80.0, 80.4, 80.6])
    state = tier1_state(ff, years, e0)
    # mapped s1 = 200 - 2 e0: diffs -0.8/2yr and -0.4/1yr, both -0.4/yr
    assert state.velocity == pytest.approx(-0.4, rel=1e-12)


def test_tier2_state_round_trip_and_out_of_span_residual():
    model, pca, ff = engine_parts()
    target = np.array([0.3, -0.2, 0.5])
    flat = pca.g_bar + target @ pca.loadings
    z = model.sex_factor @ flat.reshape(2, 3) @ model.age_factor.T
    state = tier2_state(model, pca, ff, z, origin_year=2015)
    np.testing.assert_allclose(state.scores, target, atol=1e-6)
    np.testing.assert_allclose(np.asarray(state.jumpoff), 0.0, atol=1e-8)
    assert state.velocity == float(ff.speed(state.scores[0]))

    spike = np.zeros((2, 6))
    spike[:, 4] = 1.5  # age column outside the spanned block
    state = tier2_state(model, pca, ff, z + spike, origin_year=2015)
    np.testing.assert_allclose(np.asarray(state.jumpoff), spike, atol=1e-8)


def test_tier2_state_velocity_from_history():
    model, pca, ff = engine_parts()
    z = model.sex_factor @ pca.g_bar.reshape(2, 3) @ model.age_factor.T
    history_years = np.arange(2000, 2010)
    history_scores = np.column_stack([10.0 - 0.3 * np.arange(10.0),
                                      np.zeros(10), np.zeros(10)])
    state = tier2_state(model, pca, ff, z, origin_year=2009,
                        history=(history_years, history_scores))
    assert state.velocity == pytest.approx(-0.3, rel=1e-12)


# ---------------------------------------------------------------- intervals


def flat_calibration(sigma1=1.0, kappa=1.0, bias_value=0.0):
    bias = SmoothFn(knots=np.array([1.0, 50.0]),
                    values=np.array([bias_value, bias_value]))
    return PICalibration(bias=bias, sigma1=sigma1, kappa=kappa)


def test_interval_half_widths():
    model, pca, ff = engine_parts()
    config = ForecastConfig(rates=rates_for(0.9), w=1.0, horizon=6)
    result = run_forecast(model, pca, ff, make_state(), config)
    banded = apply_intervals(result, flat_calibration())
    iv = banded.intervals
    np.testing.assert_allclose(iv.median, result.e0_avg, rtol=1e-15)
    np.testing.assert_allclose(iv.hi95[3] - iv.median[3], 1.96 * 2.0,
                               rtol=1e-12)  # h = 4
    np.testing.assert_allclose(iv.hi95[0] - iv.lo95[0], 2 * 1.96, rtol=1e-12)
    np.testing.assert_allclose(iv.hi80[0] - iv.median[0], 1.2816, rtol=1e-12)
    # original result untouched
    assert result.intervals is None


def test_interval_median_subtracts_bias():
    model, pca, ff = engine_parts()
    config = ForecastConfig(rates=rates_for(0.9), w=1.0, horizon=4)
    result = run_forecast(model, pca, ff, make_state(), config)
    banded = apply_intervals(result, flat_calibration(bias_value=0.25))
    np.testing.assert_allclose(banded.intervals.median, result.e0_avg - 0.25,
                               rtol=1e-12)


def test_missing_calibration_raises():
    model, pca, ff = engine_parts()
    config = ForecastConfig(rates=rates_for(0.9), w=1.0, horizon=4)
    result = run_forecast(model, pca, ff, make_state(), config)
    with pytest.raises(CalibrationMissingError):
        apply_intervals(result, None)


def test_calibration_round_trip():
    calib = flat_calibration(sigma1=0.7, kappa=1.4, bias_value=0.1)
    again = PICalibration.from_dict(calib.to_dict())
    assert again.sigma1 == calib.sigma1
    assert again.kappa == calib.kappa
    np.testing.assert_array_equal(again.bias.knots, calib.bias.knots)


# ------------------------------------------------------------------ export


def test_csv_exports(tmp_path):
    model, pca, ff = engine_parts()
    config = ForecastConfig(rates=rates_for(0.9), w=1.0, horizon=3)
    result = run_forecast(model, pca, ff, make_state(), config)

    schedule_path = tmp_path / "schedule.csv"
    write_schedule_csv(result, schedule_path)
    with open(schedule_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2 * 6
    assert list(rows[0]) == ["country", "horizon", "year", "sex", "age",
                             "qx", "logit_qx"]
    got = float(rows[0]["qx"])
    assert got == pytest.approx(float(expit(result.schedules[0, 0, 0])))

    summary_path = tmp_path / "summary.csv"
    write_summary_csv(result, summary_path)
    with open(summary_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert list(rows[0]) == ["country", "horizon", "year", "e0_f", "e0_m",
                             "e0_avg", "lo80", "hi80", "lo95", "hi95"]
    assert rows[0]["lo80"] == ""  # no calibration attached

    banded = apply_intervals(result, flat_calibration())
    write_summary_csv(banded, summary_path)
    with open(summary_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[2]["hi95"]) == pytest.approx(
        banded.intervals.hi95[2], rel=1e-12)


# ------------------------------------------------------------ country entry


def grid_model(pca, s1_grid, extra=0.0):
    """Identity-factor model whose fitted scores are known in closed form.

    Level score s1 follows ``s1_grid``; components 2 and 3 sit at fixed
    multiples of it.  ``extra`` puts mass outside the retained component
    span at the last year of the second country.
    """
    n_countries, n_years = s1_grid.shape
    core = np.zeros((2, 3, n_countries, n_years))
    for c in range(n_countries):
        for t in range(n_years):
            flat = pca.g_bar.copy()
            flat[:3] += s1_grid[c, t] * np.array([1.0, 0.3, -0.1])
            if extra and (c, t) == (1, n_years - 1):
                flat[3] += extra
            core[:, :, c, t] = flat.reshape(2, 3)
    return TuckerModel(
        sex_factor=np.eye(2),
        age_factor=np.eye(6)[:, :3],
        country_factor=np.eye(n_countries),
        year_factor=np.eye(n_years),
        core=core,
        countries=("A", "B"),
        years=tuple(range(2000, 2000 + n_years)),
        ages=tuple(range(6)),
    )


def known_grid():
    c_idx = np.arange(2.0)[:, None]
    t_idx = np.arange(8.0)[None, :]
    return 10.0 - 0.5 * t_idx - c_idx


def test_country_state_reads_fitted_grid():
    pca = make_pca()
    s1 = known_grid()
    model = grid_model(pca, s1)
    mask = np.ones((2, 8), dtype=bool)

    state = country_state(model, pca, mask, "B")

    want = s1[1, 7] * np.array([1.0, 0.3, -0.1])
    assert np.allclose(state.scores, want, rtol=1e-12)
    assert state.velocity == pytest.approx(-0.5, rel=1e-12)
    assert state.origin_year == 2007
    assert np.allclose(state.jumpoff, 0.0, atol=1e-12)


def test_country_state_carries_out_of_plane_jumpoff():
    pca = make_pca()
    model = grid_model(pca, known_grid(), extra=0.2)
    mask = np.ones((2, 8), dtype=bool)

    state = country_state(model, pca, mask, "B")

    want = np.zeros((2, 6))
    want[1, 0] = 0.2  # 4th core cell lands on the male row, first age column
    assert np.allclose(state.jumpoff, want, atol=1e-12)


def test_country_state_respects_origin_and_mask():
    pca = make_pca()
    s1 = known_grid()
    model = grid_model(pca, s1)
    mask = np.ones((2, 8), dtype=bool)
    mask[0, 5:] = False

    state = country_state(model, pca, mask, "A")
    assert state.origin_year == 2004
    assert np.allclose(state.scores[0], s1[0, 4], rtol=1e-12)

    earlier = country_state(model, pca, mask, "A", origin_year=2003)
    assert earlier.origin_year == 2003
    assert np.allclose(earlier.scores[0], s1[0, 3], rtol=1e-12)
    assert earlier.velocity == pytest.approx(-0.5, rel=1e-12)


def test_country_state_unknown_country_raises():
    pca = make_pca()
    model = grid_model(pca, known_grid())
    with pytest.raises(DataError, match="unknown country"):
        country_state(model, pca, np.ones((2, 8), dtype=bool), "Z")


def test_country_state_needs_two_observed_years():
    pca = make_pca()
    model = grid_model(pca, known_grid())
    mask = np.zeros((2, 8), dtype=bool)
    mask[0, 3] = True
    with pytest.raises(InsufficientDataError):
        country_state(model, pca, mask, "A")


# ------------------------------------------------- engine against its oracle


def test_horizon_axis_equals_per_horizon_calls():
    model, pca, ff = engine_parts(cks=(0.5, -0.2))
    rng = np.random.default_rng(5)
    state = make_state(scores=(0.5, 2.0, -1.0),
                       jumpoff=rng.normal(size=(2, 6)))
    rates = RelaxationRates(alpha_v=0.0, alpha_s=(0.0, 0.7, 0.95))
    h = np.arange(1, 9)
    s1 = np.linspace(0.5, -1.0, 8)
    sk = relax_scores(ff, state, rates, h, s1)
    assert sk.shape == (8, 2)
    s_h = np.column_stack((s1, sk))
    z = reconstruct_with_jumpoff(model, pca, state, s_h, h)
    assert z.shape == (8, 2, 6)
    for i in range(8):
        np.testing.assert_allclose(
            sk[i], relax_scores(ff, state, rates, int(h[i]), s1[i]),
            rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            z[i], reconstruct_with_jumpoff(model, pca, state, s_h[i],
                                           int(h[i])),
            rtol=0, atol=1e-14)


@pytest.fixture(scope="module")
def fitted_world():
    world = generate(SyntheticSpec(n_countries=5, n_ages=12, n_years=40,
                                   stagger=3, seed=11))
    return fit_model(world.tensor, FitConfig(n_components=4))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       w=st.floats(0.0, 1.0),
       alpha_v=st.floats(0.0, 0.999),
       alpha_s=st.lists(st.floats(0.0, 0.999), min_size=3, max_size=3),
       horizon=st.integers(1, 60))
def test_run_forecast_matches_scalar_oracle(fitted_world, seed, w, alpha_v,
                                            alpha_s, horizon):
    fitted = fitted_world
    rng = np.random.default_rng(seed)
    country = fitted.model.countries[seed % len(fitted.model.countries)]
    base = fitted.state(country)
    n_sex, n_ages = fitted.model.sex_factor.shape[0], len(fitted.model.ages)
    state = CountryState(
        country=country,
        scores=base.scores + rng.normal(scale=0.5, size=base.scores.size),
        velocity=rng.normal(scale=0.3),
        jumpoff=rng.normal(scale=0.2, size=(n_sex, n_ages)),
        origin_year=base.origin_year)
    rates = RelaxationRates(alpha_v=alpha_v, alpha_s=(0.0, *alpha_s))
    result = run_forecast(fitted.model, fitted.pca, fitted.flowfield, state,
                          ForecastConfig(rates=rates, w=w, horizon=horizon))
    scores, schedules, e0 = reference_forecast(
        fitted.model, fitted.pca, fitted.flowfield, state, rates, w, horizon)
    # the level score is stepped by the same scalar recursion
    np.testing.assert_array_equal(result.scores[:, 0], scores[:, 0])
    np.testing.assert_allclose(result.scores, scores, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.schedules, schedules, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(result.e0_avg, e0, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n_states=st.integers(1, 5),
       ws=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       alpha_v=st.floats(0.0, 0.999),
       horizon=st.integers(1, 40))
def test_batch_engine_equals_single_state_runs(fitted_world, seed, n_states,
                                               ws, alpha_v, horizon):
    fitted = fitted_world
    ff = fitted.flowfield
    rng = np.random.default_rng(seed)
    countries = fitted.model.countries
    shape = (fitted.model.sex_factor.shape[0], len(fitted.model.ages))
    states = []
    for i in range(n_states):
        base = fitted.state(countries[(seed + i) % len(countries)])
        states.append(CountryState(
            country=base.country,
            scores=base.scores + rng.normal(scale=0.5, size=base.scores.size),
            velocity=rng.normal(scale=0.3),
            jumpoff=rng.normal(scale=0.2, size=shape),
            origin_year=base.origin_year + i))
    # a tier-1 state carries a scalar zero jump-off
    states.append(tier1_state(ff, np.arange(2000, 2010),
                              70.0 + 0.2 * np.arange(10)))
    # levels just above the speed curve's tail transition, inside its
    # blend and just above the tangent line, at w = 0, 0.5 and 1: the
    # one-state and batch recursions meet the curve where it changes shape
    tr, width = ff.speed.transition, ff.speed.blend_width
    crossing = [replace(states[0], velocity=-0.3, scores=np.concatenate(
        ([tr + offset], states[0].scores[1:])))
        for offset in (0.1, -0.5 * width, 0.1 - width)]
    rates = RelaxationRates(alpha_v=alpha_v,
                            alpha_s=(0.0, *rng.uniform(0.0, 0.999, 3)))
    batch = ([state for _ in ws for state in states]
             + [state for _ in range(3) for state in crossing])
    w = np.concatenate((np.repeat(ws, len(states)),
                        np.repeat([0.0, 0.5, 1.0], len(crossing))))
    batch_config = ForecastConfig(rates=rates, horizon=horizon)
    results = run_forecasts(fitted.model, fitted.pca, ff, batch,
                            batch_config, w=w)
    assert len(results) == len(batch)
    # one result per state: none for no state
    assert run_forecasts(fitted.model, fitted.pca, ff, [], batch_config) == []
    # the speed is negative just above the transition, so the first
    # crossing state passes below it in its first step at every w
    assert float(ff.speed(tr + 0.1)) < -0.1
    first = len(batch) - 3 * len(crossing)
    assert all(results[i].scores[0, 0] < tr
               for i in range(first, len(batch), len(crossing)))
    for state, w_b, got in zip(batch, w, results):
        config = ForecastConfig(rates=rates, w=float(w_b), horizon=horizon)
        alone = run_forecast(fitted.model, fitted.pca, ff, state, config)
        assert (got.country, got.origin_year) == (state.country,
                                                  state.origin_year)
        np.testing.assert_array_equal(got.years, alone.years)
        np.testing.assert_array_equal(got.scores[:, 0], alone.scores[:, 0])
        for name in ("scores", "schedules", "e0_by_sex", "e0_avg"):
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(alone, name), rtol=0,
                                       atol=1e-12)
        scores, schedules, e0 = reference_forecast(
            fitted.model, fitted.pca, ff, state, rates, float(w_b), horizon)
        np.testing.assert_array_equal(got.scores[:, 0], scores[:, 0])
        np.testing.assert_allclose(got.schedules, schedules, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(got.e0_avg, e0, rtol=0, atol=1e-12)


def test_batch_engine_rejects_blend_weights_outside_unit_interval():
    model, pca, ff = engine_parts()
    config = ForecastConfig(rates=rates_for(0.9), horizon=3)
    states = [make_state(), make_state()]
    for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
        with pytest.raises(ConfigError):
            run_forecasts(model, pca, ff, states, config, w=bad)


@pytest.mark.parametrize("country", ["X", 'Cote d"Ivoire, Rep.',
                                     "two\nlines", " padded "])
def test_schedule_csv_bytes_match_a_row_per_cell_writer(fitted_world,
                                                        tmp_path, country):
    result = replace(fitted_world.forecast(fitted_world.model.countries[0],
                                           horizon=7), country=country)
    # extreme logits: expit underflows to 0.0 and rounds to 1.0
    result.schedules[0, 0, :2] = (-800.0, 40.0)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_schedule_csv(result, got)
    reference_schedule_csv(result, want)
    assert got.read_bytes() == want.read_bytes()
