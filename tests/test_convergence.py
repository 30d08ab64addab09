"""Relaxation-rate estimation: deviations, pooled autocorrelation, fits."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortflow.convergence import (
    DeviationSeries,
    RelaxationRates,
    beta_curve,
    compute_deviations,
    estimate_rates,
    fit_rate,
    lag_sums,
    pooled_autocorr,
)
from mortflow.errors import DataError, InsufficientDataError, MissingDataError
from mortflow.flowfield import CountryScoreSeries, FlowField
from mortflow.smoothing import ExtendedFn, SmoothFn

from oracles import (ar1_path, reference_beta_curve, reference_deviations,
                     reference_lag_sums, reference_pooled_autocorr)


def affine_line(intercept, slope, lo=-200.0, hi=200.0):
    return SmoothFn(knots=np.array([lo, hi]),
                    values=np.array([intercept + slope * lo,
                                     intercept + slope * hi]))


def affine_field(speed_value=-0.25, cks=(0.5, -0.2)):
    """FlowField whose speed is constant and trajectories exact lines.

    Affine bases survive the tail extension unchanged, so every canonical
    function here is exact over the whole test range.
    """
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


def make_series(country, years, scores):
    years = np.asarray(years, dtype=float)
    scores = np.asarray(scores, dtype=float)
    ds1 = np.diff(scores[:, 0]) / np.diff(years)
    return CountryScoreSeries(country=country, years=years, scores=scores,
                              s1_smooth=scores[:, 0].copy(), ds1_raw=ds1,
                              ds1_smooth=ds1.copy(),
                              e0=np.zeros(years.size))


def canonical_world(ff, n_countries=3, n_years=40, start=20.0):
    """Countries integrating the field exactly: zero deviations expected."""
    world = {}
    for j in range(n_countries):
        s1 = np.empty(n_years)
        s1[0] = start + 3.0 * j
        for t in range(1, n_years):
            s1[t] = s1[t - 1] + float(ff.speed(s1[t - 1]))
        scores = np.column_stack(
            [s1] + [ff.trajectory(k)(s1) for k in range(2, ff.n_components + 1)]
        )
        world[f"C{j}"] = make_series(f"C{j}", 1950 + np.arange(n_years), scores)
    return world


# ---------------------------------------------------------------- deviations


def test_canonical_world_has_near_zero_deviations():
    ff = affine_field()
    world = canonical_world(ff)
    devs = compute_deviations(ff, world)
    for years, values in devs.speed.values():
        assert np.max(np.abs(values)) < 1e-8
    for component in devs.structural:
        for years, values in component.values():
            assert np.max(np.abs(values)) < 1e-8


def test_speed_deviations_anchor_to_earlier_year():
    ff = affine_field()
    world = canonical_world(ff, n_countries=1, n_years=10)
    devs = compute_deviations(ff, world)
    years, values = devs.speed["C0"]
    assert values.size == 9
    np.testing.assert_array_equal(years, 1950 + np.arange(9))


def test_constant_offset_appears_as_structural_deviation():
    ff = affine_field()
    world = canonical_world(ff, n_countries=2)
    for series in world.values():
        series.scores[:, 1] += 0.7
    devs = compute_deviations(ff, world)
    for years, values in devs.structural[0].values():
        np.testing.assert_allclose(values, 0.7, atol=1e-8)
    # the third component was left canonical
    for years, values in devs.structural[1].values():
        assert np.max(np.abs(values)) < 1e-8


def test_first_component_has_no_structural_channel():
    ff = affine_field(cks=(0.5, -0.2, 0.1))
    world = canonical_world(ff)
    devs = compute_deviations(ff, world)
    assert isinstance(devs, DeviationSeries)
    assert len(devs.structural) == ff.n_components - 1


def test_none_series_are_skipped():
    ff = affine_field()
    world = canonical_world(ff, n_countries=2)
    world["missing"] = None
    devs = compute_deviations(ff, world)
    assert set(devs.speed) == {"C0", "C1"}


# ------------------------------------------------------------- pooled beta


def random_component(rng, n_countries=3, n_years=60, drop=4):
    component = {}
    for j in range(n_countries):
        years = 1950.0 + np.arange(n_years)
        keep = np.sort(rng.choice(n_years, size=n_years - drop, replace=False))
        component[f"C{j}"] = (years[keep], rng.normal(size=n_years - drop))
    return component


def test_pooled_autocorr_matches_reference_oracle():
    rng = np.random.default_rng(7)
    component = random_component(rng)
    series_list = [component[c] for c in sorted(component)]
    for h in (0, 1, 2, 5, 11):
        got = pooled_autocorr(component, h)
        want = reference_pooled_autocorr(series_list, h)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_lag_zero_is_exactly_one():
    rng = np.random.default_rng(11)
    component = random_component(rng)
    assert pooled_autocorr(component, 0) == 1.0


def test_scale_invariance_of_beta():
    rng = np.random.default_rng(13)
    component = random_component(rng)
    scaled = {c: (y, 7.3 * v) for c, (y, v) in component.items()}
    for h in (0, 1, 3):
        np.testing.assert_allclose(pooled_autocorr(scaled, h),
                                   pooled_autocorr(component, h), rtol=1e-12)


def test_missing_years_break_lag_pairs():
    component = {"X": (np.array([2000.0, 2002.0]), np.array([1.5, -2.0]))}
    with pytest.raises(MissingDataError):
        pooled_autocorr(component, 1)
    got = pooled_autocorr(component, 2)
    np.testing.assert_allclose(got, (1.5 * -2.0) / 1.5 ** 2, rtol=1e-15)


def test_all_zero_deviations_rejected():
    component = {"X": (np.arange(5.0), np.zeros(5))}
    with pytest.raises(InsufficientDataError):
        pooled_autocorr(component, 1)


def test_ar1_beta_curve():
    rng = np.random.default_rng(1)
    component = {
        f"C{j}": (np.arange(200.0), ar1_path(0.9, 1.0, 200, rng))
        for j in range(10)
    }
    for h in range(1, 11):
        assert abs(pooled_autocorr(component, h) - 0.9 ** h) < 0.05


def test_decay_deviations_give_exact_beta():
    # zero-innovation AR(1): beta(h) is alpha^h exactly because both sums
    # run over the same pairs
    rng = np.random.default_rng(2)
    alpha = 0.5
    component = {
        f"C{j}": (np.arange(200.0),
                  rng.normal(0.0, 2.0) * alpha ** np.arange(200.0))
        for j in range(10)
    }
    for h in (1, 3, 6):
        np.testing.assert_allclose(pooled_autocorr(component, h), alpha ** h,
                                   rtol=1e-12)


def test_white_noise_beta_near_zero():
    rng = np.random.default_rng(6)
    component = {"X": (np.arange(2000.0), rng.normal(size=2000))}
    for h in range(1, 6):
        assert abs(pooled_autocorr(component, h)) < 0.05


# ----------------------------------------------------------------- fit_rate


def test_fit_rate_exact_exponential():
    h = np.arange(1, 31)
    assert abs(fit_rate(0.9 ** h) - 0.9) < 1e-10
    assert abs(fit_rate(0.5 ** h) - 0.5) < 1e-10


def test_fit_rate_ignores_lags_past_cutoff():
    h = np.arange(1, 31)
    betas = 0.8 ** h
    betas[25:] = 0.9  # lags 26..30 would flatten the slope if used
    assert abs(fit_rate(betas) - 0.8) < 1e-10


def test_fit_rate_discards_small_and_negative_betas():
    h = np.arange(1, 31)
    betas = 0.8 ** h
    betas[9:] = 0.005  # below the floor from lag 10 on
    assert abs(fit_rate(betas) - 0.8) < 1e-10
    betas[9:] = -0.2  # negative values must never reach the log
    assert abs(fit_rate(betas) - 0.8) < 1e-10


def test_fit_rate_clips_to_unit_interval():
    h = np.arange(1, 11)
    assert fit_rate(1.05 ** h) == 0.999


def test_fit_rate_needs_two_surviving_lags():
    with pytest.raises(InsufficientDataError):
        fit_rate(np.array([0.5, 0.005, 0.004]))
    with pytest.raises(InsufficientDataError):
        fit_rate(np.array([0.005, 0.006, 0.007]))


def test_fit_rate_explicit_lags():
    lags = np.array([2.0, 5.0, 9.0])
    betas = 0.7 ** lags
    assert abs(fit_rate(betas, lags=lags) - 0.7) < 1e-10


# ----------------------------------------------------------- RelaxationRates


def test_rates_validation_and_half_lives():
    rates = RelaxationRates(alpha_v=0.5, alpha_s=(0.0, 0.9))
    assert rates.half_life_v == pytest.approx(1.0)
    hl = rates.half_lives_s
    assert hl[0] == 0.0
    assert hl[1] == pytest.approx(np.log(2) / -np.log(0.9))
    with pytest.raises(ValueError):
        RelaxationRates(alpha_v=0.5, alpha_s=(0.5, 0.9))
    with pytest.raises(ValueError):
        RelaxationRates(alpha_v=1.0, alpha_s=(0.0,))


def test_rates_round_trip():
    rates = RelaxationRates(alpha_v=0.25, alpha_s=(0.0, 0.9, 0.97))
    again = RelaxationRates.from_dict(rates.to_dict())
    assert again == rates


# ------------------------------------------------------------ estimate_rates


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.95])
def test_estimate_rates_recovers_decay_alpha(alpha):
    # deviations decaying at a known rate from random initial offsets:
    # the beta curve is exactly alpha^h, so recovery is essentially exact
    ff = affine_field(speed_value=-0.05, cks=(0.5, -0.2))
    rng = np.random.default_rng(17)
    world = {}
    n_years = 200
    decay = alpha ** np.arange(n_years - 1, dtype=float)
    for j in range(10):
        s1 = np.empty(n_years)
        s1[0] = 60.0 + 2.0 * j
        dev_v = rng.normal(0.0, 1.0) * decay
        for t in range(1, n_years):
            s1[t] = s1[t - 1] + float(ff.speed(s1[t - 1])) + dev_v[t - 1]
        scores = np.column_stack([
            s1,
            ff.trajectory(2)(s1) + rng.normal(0.0, 2.0) * alpha ** np.arange(n_years, dtype=float),
            ff.trajectory(3)(s1) + rng.normal(0.0, 2.0) * alpha ** np.arange(n_years, dtype=float),
        ])
        world[f"C{j}"] = make_series(f"C{j}", 1800 + np.arange(n_years), scores)
    rates = estimate_rates(ff, world)
    assert rates.alpha_s[0] == 0.0
    assert abs(rates.alpha_v - alpha) < 0.02
    assert abs(rates.alpha_s[1] - alpha) < 0.02
    assert abs(rates.alpha_s[2] - alpha) < 0.02


def test_estimate_rates_falls_back_on_degenerate_deviations():
    # dyadic velocity keeps every deviation bitwise zero, so no lag survives
    ff = affine_field(speed_value=-0.25)
    years = 1950.0 + np.arange(200)
    s1 = 64.0 - 0.25 * np.arange(200)
    scores = np.column_stack([s1, ff.trajectory(2)(s1), ff.trajectory(3)(s1)])
    world = {"X": make_series("X", years, scores)}
    with pytest.warns(UserWarning):
        rates = estimate_rates(ff, world)
    assert rates.alpha_v == 0.95
    assert rates.alpha_s == (0.0, 0.95, 0.95)


# ------------------------------------------------------ dense lag grid


@st.composite
def deviation_components(draw):
    """A component and a max lag.

    Countries start in different years, miss years inside their span,
    may hold 0 or 1 years, and are inserted in drawn, not sorted, order;
    lags can outrun every series, and a zero scale makes den == 0 at
    lags that still have pairs.
    """
    names = draw(st.lists(st.text("ABXYZ", min_size=1, max_size=3),
                          max_size=5, unique=True))
    whole_floats = draw(st.booleans())
    scale = draw(st.sampled_from([0.0, 1.0]))
    value = st.one_of(st.just(0.0), st.floats(-100.0, 100.0))
    component = {}
    for name in names:
        start = draw(st.integers(1900, 1910))
        offsets = sorted(draw(st.lists(st.integers(0, 15), max_size=12,
                                       unique=True)))
        years = np.array([start + o for o in offsets],
                         dtype=float if whole_floats else int)
        values = scale * np.array(draw(st.lists(
            value, min_size=years.size, max_size=years.size)), dtype=float)
        component[name] = (years, values)
    return component, draw(st.integers(1, 20))


@settings(max_examples=300, deadline=None)
@given(deviation_components())
def test_lag_sums_match_reference_at_every_lag(case):
    component, max_lag = case
    series_list = [component[c] for c in sorted(component)]
    magnitudes = [(years, np.abs(values)) for years, values in series_list]
    num, den, pairs = lag_sums(component, range(max_lag + 1))
    for h in range(max_lag + 1):
        want_num, want_den, want_pairs = reference_lag_sums(series_list, h)
        # the summation order differs: allow 1e-12 of the summed magnitudes
        size = reference_lag_sums(magnitudes, h)[0]
        assert pairs[h] == want_pairs
        assert abs(num[h] - want_num) <= 1e-12 * size
        assert abs(den[h] - want_den) <= 1e-12 * want_den

    # the same lags are skipped as by the lag-at-a-time loop
    lags, betas = beta_curve(component, max_lag)
    want_lags, want_betas = reference_beta_curve(series_list, max_lag)
    assert lags.tolist() == want_lags
    for h, got, want in zip(want_lags, betas, want_betas):
        size = reference_lag_sums(magnitudes, h)[0]
        assert abs(got - want) <= 1e-12 * size / reference_lag_sums(
            series_list, h)[1]

    _, den0, pairs0 = reference_lag_sums(series_list, 0)
    if pairs0 == 0:
        with pytest.raises(MissingDataError):
            pooled_autocorr(component, 0)
    elif den0 == 0.0:
        with pytest.raises(InsufficientDataError):
            pooled_autocorr(component, 0)
    else:
        assert pooled_autocorr(component, 0) == 1.0
        np.testing.assert_allclose(
            pooled_autocorr(component, 0),
            reference_pooled_autocorr(series_list, 0), rtol=1e-12)


@pytest.mark.parametrize("years", [
    [2000.0, 2001.5, 2003.0],   # not a whole year
    [2000, 2002, 2002],         # repeated
    [2003, 2001, 2002],         # unsorted
])
def test_lag_sums_reject_years_off_the_integer_grid(years):
    component = {"A": (np.arange(3.0), np.ones(3)),
                 "B": (np.array(years), np.ones(3))}
    with pytest.raises(DataError, match="B: deviation years"):
        lag_sums(component, [1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       lengths=st.lists(st.integers(0, 12), min_size=0, max_size=6))
def test_pooled_curve_calls_equal_per_country_calls(seed, lengths):
    # curved bases with the tail blend inside the sampled range, so every
    # branch of the extension is evaluated on the pooled levels
    rng = np.random.default_rng(seed)
    knots = np.linspace(-5.0, 5.0, 9)

    def curve():
        base = SmoothFn(knots=knots, values=rng.normal(size=knots.size))
        return ExtendedFn.build(base, transition=-1.0, blend_width=3.0)

    ff = replace(affine_field(), speed=curve(),
                 trajectories=(curve(), curve()))
    world = {"none": None}
    for j, n in enumerate(lengths):
        years = 1950 + np.sort(rng.choice(40, size=n, replace=False))
        world[f"C{j}"] = make_series(f"C{j}", years,
                                     rng.uniform(-9.0, 6.0, size=(n, 3)))
    devs = compute_deviations(ff, world)
    speed, structural = reference_deviations(ff, world)
    for got, want in zip((devs.speed, *devs.structural), (speed, *structural)):
        assert list(got) == list(want)
        for country, (years, values) in want.items():
            np.testing.assert_array_equal(got[country][0], years)
            assert got[country][1].tobytes() == values.tobytes()
