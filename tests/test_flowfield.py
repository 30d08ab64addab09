import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortflow.data import MortalityTensor
from mortflow.errors import EmptyEraError, InsufficientDataError
from mortflow.flowfield import (
    MIN_SERIES_YEARS,
    build_country_series,
    derivative_correlations,
    fit_flowfield,
    series_from_fit,
)
from mortflow.lifetable import e0_by_sex
from mortflow.pca import fit_core_pca, score_grid
from mortflow.pipeline import FitConfig
from mortflow.tucker import hosvd
from oracles import windowed_lowess

CKS = (-0.9, 0.5, -0.3, 0.2)


def lockstep_series(country, years, s1, cks=CKS, e0_base=90.0, e0_slope=0.8,
                    noise_scale=0.0, rng=None):
    s1 = np.asarray(s1, dtype=float)
    cols = [s1]
    for c in cks:
        col = c * s1
        if noise_scale and rng is not None:
            col = col + rng.normal(0.0, noise_scale, size=s1.size)
        cols.append(col)
    scores = np.column_stack(cols)
    e0 = e0_base - e0_slope * s1
    return build_country_series(country, np.asarray(years), scores, e0)


def lockstep_world(n_countries=6, start_year=1950, end_year=2010, rate=0.3):
    years = np.arange(start_year, end_year + 1)
    out = {}
    for j in range(n_countries):
        s1 = (35.0 - 2.0 * j) - rate * (years - start_year)
        out[f"C{j}"] = lockstep_series(f"C{j}", years, s1)
    return out


# ----------------------------------------------------------------------
# Country series construction
# ----------------------------------------------------------------------

def test_forward_differences_divide_by_year_gap():
    years = np.array([2000, 2001, 2003, 2004, 2006])
    s1 = np.array([10.0, 9.0, 5.0, 4.0, 1.0])
    scores = np.column_stack([s1, 0.5 * s1])
    series = build_country_series("X", years, scores, 80.0 - s1)
    np.testing.assert_allclose(series.ds1_raw, [-1.0, -2.0, -1.0, -1.5])
    assert series.ds1_smooth.shape == (4,)
    assert np.all(np.isfinite(series.s1_smooth))


def test_series_sorts_by_year():
    years = np.array([2002, 2000, 2001])
    s1 = np.array([8.0, 10.0, 9.0])
    scores = np.column_stack([s1, s1])
    # three points is below the minimum; use five
    years = np.array([2004, 2000, 2002, 2001, 2003])
    s1 = np.array([6.0, 10.0, 8.0, 9.0, 7.0])
    scores = np.column_stack([s1, s1])
    series = build_country_series("X", years, scores, 80.0 - s1)
    np.testing.assert_array_equal(series.years, [2000, 2001, 2002, 2003, 2004])
    np.testing.assert_allclose(series.scores[:, 0], [10.0, 9.0, 8.0, 7.0, 6.0])
    np.testing.assert_allclose(series.ds1_raw, -1.0)


def test_short_series_skipped_with_warning():
    years = np.arange(2000, 2004)
    s1 = np.linspace(10.0, 7.0, years.size)
    with pytest.warns(UserWarning):
        out = build_country_series("X", years, np.column_stack([s1, s1]), 80.0 - s1)
    assert out is None


@st.composite
def series_entries(draw):
    """(country, years, scores, e0) entries of ragged lengths, some below
    MIN_SERIES_YEARS, years shuffled and spaced by 1 to 3."""
    lengths = draw(st.lists(st.sampled_from([2, 4, 5, 6, 9, 12, 12, 40, 41]),
                            min_size=1, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    entries = []
    for j, n in enumerate(lengths):
        years = 1900 + np.cumsum(rng.integers(1, 4, size=n))
        scores = rng.normal(size=(n, 3)).cumsum(axis=0)
        entries.append((f"C{j}", rng.permutation(years), scores,
                        70.0 + rng.normal(size=n)))
    return entries


@settings(max_examples=60, deadline=None)
@given(series_entries())
def test_country_series_smoothing_is_the_former_kernel(entries):
    for country, years, scores, e0 in entries:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = build_country_series(country, years, scores, e0)
        if years.size < MIN_SERIES_YEARS:
            assert got is None
            assert [str(w.message).split(":")[0] for w in caught] == [country]
            continue
        assert not caught
        # the s1 smoothing of the former bisection kernel, bit for bit
        x = got.years.astype(float)
        knots, values = windowed_lowess(x, got.scores[:, 0],
                                        max(0.25, 10.0 / x.size))
        assert got.s1_smooth.tobytes() == np.interp(x, knots, values).tobytes()


def test_smoothing_bandwidth_floor_tracks_series_length():
    # long series: bandwidth max(0.25, 10/n); the smoothed path of a noisy
    # linear trend should hug the trend
    rng = np.random.default_rng(40)
    years = np.arange(1900, 2000)
    s1 = 50.0 - 0.3 * (years - 1900) + rng.normal(0.0, 0.3, years.size)
    series = build_country_series("X", years, np.column_stack([s1, s1]), 80.0 - s1)
    trend = 50.0 - 0.3 * (years - 1900)
    assert np.max(np.abs(series.s1_smooth - trend)) < 0.25


# ----------------------------------------------------------------------
# Flow field fitting
# ----------------------------------------------------------------------

def test_lockstep_world_recovers_speed_and_trajectories():
    world = lockstep_world()
    cfg = FitConfig(seed=1)
    ff = fit_flowfield(world, origin=2010, config=cfg)
    s1_grid = np.linspace(8.0, 30.0, 45)
    np.testing.assert_allclose(ff.speed(s1_grid), -0.3, atol=1e-8)
    for c, fn in zip(CKS, ff.trajectories):
        np.testing.assert_allclose(fn(s1_grid), c * s1_grid, atol=1e-7)
    # maps are affine: e0 = 90 - 0.8 s1
    assert ff.s1_of_e0(78.0) == pytest.approx(15.0, abs=1e-7)
    np.testing.assert_allclose(ff.e0_of_s1(s1_grid), 90.0 - 0.8 * s1_grid,
                               atol=1e-7)
    assert ff.transition == pytest.approx(15.0, abs=1e-7)


def test_tail_extension_continues_affine_world():
    world = lockstep_world()
    ff = fit_flowfield(world, origin=2010, config=FitConfig(seed=2))
    # far below every observed s1 the affine structure continues exactly
    deep = np.array([-20.0, -10.0, -5.0])
    np.testing.assert_allclose(ff.speed(deep), -0.3, atol=1e-6)
    np.testing.assert_allclose(ff.e0_of_s1(deep), 90.0 - 0.8 * deep, atol=1e-5)
    for c, fn in zip(CKS, ff.trajectories):
        np.testing.assert_allclose(fn(deep), c * deep, atol=1e-5)


def test_era_kernel_steers_speed_toward_recent_regime():
    # decline of 0.1/yr before 1990, 0.5/yr after
    years = np.arange(1950, 2011)
    world = {}
    for j in range(6):
        rate = np.where(years[:-1] < 1990, 0.1, 0.5)
        s1 = np.concatenate([[30.0 - 2.0 * j],
                             30.0 - 2.0 * j - np.cumsum(rate)])
        world[f"C{j}"] = lockstep_series(f"C{j}", years, s1)
    recent = fit_flowfield(world, origin=2010,
                           config=FitConfig(tau=5.0, window=200.0, seed=3))
    diffuse = fit_flowfield(world, origin=2010,
                            config=FitConfig(tau=1e6, window=200.0, seed=3))
    probe = 20.0  # s1 visited by both eras across the staggered countries
    assert recent.speed(probe) < -0.4
    assert diffuse.speed(probe) > -0.3
    assert recent.speed(probe) < diffuse.speed(probe) - 0.15


def test_trajectories_and_maps_ignore_era_config():
    years = np.arange(1950, 2011)
    rng = np.random.default_rng(41)
    world = {}
    for j in range(6):
        s1 = 30.0 - 2.0 * j - 0.3 * (years - 1950)
        world[f"C{j}"] = lockstep_series(f"C{j}", years, s1, noise_scale=0.3,
                                         rng=rng)
    a = fit_flowfield(world, origin=2010, config=FitConfig(tau=5.0, seed=7))
    b = fit_flowfield(world, origin=2010, config=FitConfig(tau=30.0, seed=7))
    for fa, fb in zip(a.trajectories, b.trajectories):
        np.testing.assert_array_equal(fa.base.knots, fb.base.knots)
        np.testing.assert_array_equal(fa.base.values, fb.base.values)
    np.testing.assert_array_equal(a.s1_of_e0.values, b.s1_of_e0.values)
    np.testing.assert_array_equal(a.e0_of_s1.base.values, b.e0_of_s1.base.values)
    assert not np.array_equal(a.speed.base.values, b.speed.base.values)


def test_fit_is_reproducible_for_fixed_seed():
    world = lockstep_world()
    a = fit_flowfield(world, origin=2010, config=FitConfig(seed=11))
    b = fit_flowfield(world, origin=2010, config=FitConfig(seed=11))
    np.testing.assert_array_equal(a.speed.base.knots, b.speed.base.knots)
    np.testing.assert_array_equal(a.speed.base.values, b.speed.base.values)
    assert a.transition == b.transition


def test_no_lookahead_beyond_origin():
    years = np.arange(1990, 2021)
    n_pre = (years <= 2005).sum()
    world = {}
    for j in range(4):
        s1_pre = 20.0 - 0.5 * j - 0.2 * np.arange(n_pre)
        s1_post = s1_pre[-1] + 99.0 * np.arange(1, years.size - n_pre + 1)
        s1 = np.concatenate([s1_pre, s1_post])
        world[f"C{j}"] = lockstep_series(f"C{j}", years, s1)
    ff = fit_flowfield(world, origin=2005, config=FitConfig(seed=5))
    assert ff.speed.base.knots.max() <= 20.0 + 1e-9
    np.testing.assert_allclose(ff.speed.base.values, -0.2, atol=1e-6)
    # trajectory knots also stop at the origin's s1 range
    for fn in ff.trajectories:
        assert fn.base.knots.max() <= 20.0 + 1e-9


def test_too_few_speed_observations_raise():
    years = np.arange(2000, 2005)
    world = {}
    for j in range(3):
        s1 = 20.0 - j - 0.3 * np.arange(5.0)
        world[f"C{j}"] = lockstep_series(f"C{j}", years, s1)
    # 3 countries x 4 pairs = 12 < 20
    with pytest.raises(InsufficientDataError):
        fit_flowfield(world, origin=2004, config=FitConfig(seed=0))


def test_empty_era_window_raises():
    world = lockstep_world(start_year=1900, end_year=1950)
    with pytest.raises(EmptyEraError):
        fit_flowfield(world, origin=2010, config=FitConfig(window=30.0, seed=0))


# ----------------------------------------------------------------------
# Derivative correlations
# ----------------------------------------------------------------------

def test_lockstep_derivative_correlations_hit_unity():
    rng = np.random.default_rng(42)
    years = np.arange(1950, 2011)
    world = {}
    for j in range(5):
        # Curved decline so the year-over-year increments themselves vary;
        # a constant-velocity path has zero increment variance and the
        # correlation would be of pure noise.
        el = (years - 1950).astype(float)
        s1 = 30.0 - j - 0.2 * el - 0.001 * el**2
        world[f"C{j}"] = lockstep_series(f"C{j}", years, s1, noise_scale=1e-9,
                                         rng=rng)
    corr = derivative_correlations(world)
    assert corr.shape == (5, 5)
    for k, c in enumerate(CKS, start=1):
        assert corr[0, k] == pytest.approx(np.sign(c), abs=1e-6)
    np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)


def test_zero_variance_component_flagged_not_fatal():
    years = np.arange(1950, 2011)
    s1 = 30.0 - 0.3 * (years - 1950)
    scores = np.column_stack([s1, np.full(s1.size, 2.0)])
    world = {"X": build_country_series("X", years, scores, 80.0 - s1)}
    corr = derivative_correlations(world)
    assert np.isnan(corr[0, 1]) and np.isnan(corr[1, 0]) and np.isnan(corr[1, 1])
    assert corr[0, 0] == 1.0


# ----------------------------------------------------------------------
# Series assembly from a fitted model
# ----------------------------------------------------------------------

def test_series_from_fit_matches_mask_and_scores():
    rng = np.random.default_rng(43)
    base = rng.normal(-4.0, 0.3, size=(2, 6))
    level = 0.5 + rng.uniform(0.0, 1.0, size=(2, 6))
    years = np.arange(1980, 2010)
    s1_true = np.linspace(3.0, -3.0, years.size)
    values = np.empty((2, 6, 2, years.size))
    for c in range(2):
        values[:, :, c, :] = (base[:, :, None]
                              + (s1_true + 0.5 * c) * level[:, :, None])
    mask = np.ones((2, years.size), dtype=bool)
    mask[1, 3] = False
    values[:, :, 1, 3] = np.nan
    tensor = MortalityTensor(values=values, mask=mask, countries=("A", "B"),
                             years=years, ages=np.arange(6))
    model = hosvd(tensor, ranks=(2, 2, 2, 10))
    pcm = fit_core_pca(model, mask, n_components=2)
    series = series_from_fit(model, pcm, tensor)
    assert set(series) == {"A", "B"}
    assert series["B"].years.size == years.size - 1
    assert 1983 not in series["B"].years
    grid = score_grid(model, pcm)
    np.testing.assert_allclose(series["A"].scores, grid[0][mask[0]], atol=1e-12)
    slabs = np.moveaxis(values[:, :, 0, :], -1, 0)
    np.testing.assert_allclose(series["A"].e0, e0_by_sex(slabs).mean(axis=-1),
                               atol=1e-12)
