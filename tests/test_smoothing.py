from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mortflow.errors import (ConfigError, DataError, EmptyEraError,
                             TailConfigError)
from mortflow.smoothing import (
    EraKernel,
    ExtendedFn,
    SmoothFn,
    era_lowess,
    era_weights,
    lowess,
    smoothstep,
)
from oracles import reference_lowess, windowed_lowess


# ----------------------------------------------------------------------
# SmoothFn evaluation contract
# ----------------------------------------------------------------------

def test_smoothfn_interpolates_and_holds_flat():
    fn = SmoothFn(knots=np.array([0.0, 1.0, 3.0]), values=np.array([1.0, 2.0, 0.0]))
    assert fn(0.0) == 1.0
    assert fn(1.0) == 2.0
    assert fn(2.0) == pytest.approx(1.0)  # midpoint of segment (1,2)-(3,0)
    # flat beyond the knot range on both sides
    assert fn(-5.0) == 1.0
    assert fn(10.0) == 0.0
    out = fn(np.array([-1.0, 0.5, 4.0]))
    np.testing.assert_allclose(out, [1.0, 1.5, 0.0])


def test_smoothfn_requires_sorted_knots():
    with pytest.raises(DataError):
        SmoothFn(knots=np.array([1.0, 0.0]), values=np.array([0.0, 1.0]))


def test_smoothfn_requires_finite_knots():
    # NaN compares False, so the sortedness check alone lets it through
    with pytest.raises(DataError, match="finite"):
        SmoothFn(knots=[0.0, np.nan, 1.0], values=[0.0, 1.0, 2.0])
    with pytest.raises(DataError, match="finite"):
        SmoothFn(knots=[0.0, np.inf], values=[0.0, 1.0])


def test_smoothfn_roundtrip_dict():
    fn = SmoothFn(knots=np.array([0.0, 2.0]), values=np.array([3.0, 5.0]))
    fn2 = SmoothFn.from_dict(fn.to_dict())
    np.testing.assert_array_equal(fn.knots, fn2.knots)
    np.testing.assert_array_equal(fn.values, fn2.values)


def test_smoothfn_fields_cannot_be_reassigned():
    fn = SmoothFn(knots=np.array([0.0, 2.0]), values=np.array([3.0, 5.0]))
    with pytest.raises(FrozenInstanceError):
        fn.values = np.array([0.0, 0.0])
    assert fn.at(1.0) == 4.0


def assert_same_float(got, want):
    """``got`` is a Python float with the bits of ``want``; NaN is NaN."""
    assert type(got) is float
    want = float(want)
    if want != want:
        assert got != got
    else:
        assert got.hex() == want.hex()  # hex tells -0.0 from 0.0


@st.composite
def knot_curves(draw, values=st.floats(allow_nan=False)):
    """SmoothFn of 1 to 8 knots; values may be huge or infinite."""
    knots = sorted(set(draw(st.lists(st.floats(-1e3, 1e3), min_size=1,
                                     max_size=8))))
    ys = draw(st.lists(values, min_size=len(knots), max_size=len(knots)))
    return SmoothFn(knots=np.array(knots), values=np.array(ys))


@settings(max_examples=300, deadline=None)
@given(fn=knot_curves(), data=st.data())
def test_smoothfn_at_is_np_interp_bit_for_bit(fn, data):
    knots = fn.knots.tolist()
    lo, hi = knots[0], knots[-1]
    # every knot (the last one included), both sides of the range, NaN,
    # the infinities, and points drawn between and beyond the knots
    points = [*knots, lo - 1.0, hi + 1.0, float("nan"), float("inf"),
              float("-inf"),
              *data.draw(st.lists(st.floats(lo, hi), max_size=10)),
              *data.draw(st.lists(st.floats(allow_nan=False), max_size=4))]
    for x in points:
        assert_same_float(fn.at(x), np.interp(x, fn.knots, fn.values))


@pytest.mark.parametrize("values, x, want", [
    # infinite slope: the line from the left knot is inf - inf, NaN, so
    # numpy takes the line from the right knot
    ((-np.inf, 1.0), 0.5, -np.inf),
    # NaN slope both ways between equal values: numpy returns the value
    ((np.inf, np.inf), 0.5, np.inf),
    # opposite infinities stay NaN
    ((np.inf, -np.inf), 0.25, np.nan),
    # one knot: its value everywhere, even at NaN, which numpy's
    # one-knot branch never tests
    ((2.5,), -3.0, 2.5),
    ((2.5,), np.nan, 2.5),
])
def test_smoothfn_at_follows_interp_nan_slope_fallback(values, x, want):
    fn = SmoothFn(knots=np.arange(float(len(values))),
                  values=np.array(values))
    assert_same_float(fn.at(x), want)
    assert_same_float(fn.at(x), np.interp(x, fn.knots, fn.values))


# ----------------------------------------------------------------------
# LOWESS
# ----------------------------------------------------------------------

def test_lowess_reproduces_affine_exactly():
    rng = np.random.default_rng(0)
    x = rng.uniform(-3.0, 7.0, size=400)
    y = 2.0 * x + 1.0
    fn = lowess(x, y, bandwidth=0.3)
    np.testing.assert_allclose(fn.values, 2.0 * fn.knots + 1.0, atol=1e-8)


def test_lowess_smooths_noise_toward_trend():
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 10.0, 500)
    y = np.sin(x) + rng.normal(0.0, 0.15, size=x.size)
    fn = lowess(x, y, bandwidth=0.15)
    grid = np.linspace(0.5, 9.5, 50)
    assert np.max(np.abs(fn(grid) - np.sin(grid))) < 0.12


def test_lowess_knot_cap():
    rng = np.random.default_rng(3)
    x = rng.normal(size=5000)
    y = x ** 2
    fn = lowess(x, y, bandwidth=0.2)
    assert fn.knots.size <= 1000
    assert np.all(np.diff(fn.knots) > 0)


def test_lowess_handles_duplicate_x():
    x = np.repeat(np.arange(10.0), 5)
    y = 2.0 * x + 1.0
    fn = lowess(x, y, bandwidth=0.5)
    np.testing.assert_allclose(fn(x), y, atol=1e-8)


def test_lowess_rejects_degenerate_x():
    with pytest.raises(DataError):
        lowess(np.ones(10), np.arange(10.0), bandwidth=0.5)


@st.composite
def lowess_cases(draw):
    """x on coarse grids (ties at h, and dead windows whose points all sit
    at distance h), bandwidths that give span = 2 and span = n, knot caps."""
    n = draw(st.integers(2, 60))
    step = draw(st.sampled_from([0.1, 0.25, 1.0, None]))
    if step is None:
        x = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    else:
        grid = draw(st.integers(1, 40))
        x = [step * i for i in draw(st.lists(st.integers(-grid, grid),
                                             min_size=n, max_size=n))]
    x = np.array(x)
    assume(np.unique(x).size >= 2)
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    bandwidth = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    max_knots = draw(st.sampled_from([1000, 2, 3, 7]))
    return x, y, bandwidth, max_knots


def _check_against_reference(case):
    x, y, bandwidth, max_knots = case
    fn = lowess(x, y, bandwidth=bandwidth, max_knots=max_knots)
    knots, values, sensitivity = reference_lowess(x, y, bandwidth, max_knots)
    np.testing.assert_array_equal(fn.knots, knots)
    # 1e-12 relative to what the local fit cancels: an ill-conditioned
    # extrapolating window may round further, a wrong window or wrong h
    # is off by the scale of y
    assert np.all(np.abs(fn.values - values) <= 1e-12 * np.maximum(sensitivity, 1.0))


@settings(max_examples=300, deadline=None)
@given(lowess_cases())
def test_lowess_matches_brute_force_reference(case):
    _check_against_reference(case)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2e-4, None]),
       st.floats(0.0, 1.0))
def test_lowess_matches_reference_on_quantile_knots(seed, step, bandwidth):
    # more than 1,000 distinct x forces the quantile-spaced knot grid
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1001, 1400))
    x = rng.uniform(-1.0, 1.0, size=n)
    if step is not None:
        x = step * np.round(x / step)
    assume(np.unique(x).size > 1000)
    y = rng.uniform(-10.0, 10.0, size=n)
    _check_against_reference((x, y, bandwidth, 1000))


def assert_same_fit(fn, x, y, bandwidth, max_knots=1000):
    """``fn`` is the former kernel's fit of (x, y), values bit for bit.

    Knots compare by value: where x holds both 0.0 and -0.0, np.unique
    may keep either sign for the knot.
    """
    knots, values = windowed_lowess(x, y, bandwidth, max_knots)
    np.testing.assert_array_equal(fn.knots, knots)
    assert fn.values.tobytes() == values.tobytes()


@settings(max_examples=300, deadline=None)
@given(lowess_cases(), st.integers(1, 4), st.data())
def test_lowess_is_the_bisection_kernel_bit_for_bit(case, k, data):
    # one response, and every row of a (k, n) y against its own fit
    x, y, bandwidth, max_knots = case
    assert_same_fit(lowess(x, y, bandwidth=bandwidth, max_knots=max_knots),
                    x, y, bandwidth, max_knots)
    rows = np.array([y] + [data.draw(st.lists(
        st.floats(-10.0, 10.0), min_size=y.size, max_size=y.size))
        for _ in range(k - 1)])
    fns = lowess(x, rows, bandwidth=bandwidth, max_knots=max_knots)
    assert isinstance(fns, list) and len(fns) == k
    for fn, row in zip(fns, rows):
        assert_same_fit(fn, x, row, bandwidth, max_knots)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2e-4, None]),
       st.floats(0.0, 1.0))
def test_lowess_is_the_bisection_kernel_on_quantile_knots(seed, step,
                                                          bandwidth):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1001, 1400))
    x = rng.uniform(-1.0, 1.0, size=n)
    if step is not None:
        x = step * np.round(x / step)
    assume(np.unique(x).size > 1000)
    y = rng.uniform(-10.0, 10.0, size=(3, n))
    for fn, row in zip(lowess(x, y, bandwidth=bandwidth), y):
        assert fn.knots.size <= 1000
        assert_same_fit(fn, x, row, bandwidth)


def test_lowess_flattens_a_y_that_is_not_k_rows_of_n():
    # only a (k, n) y, n the size of x, is k responses; an (n, 1) column
    # or a 1-D y is one response, as before 2-D y existed
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0.0, 1.0, size=12), rng.normal(size=12)
    one = lowess(x, y, bandwidth=0.5)
    for shaped in (y[:, None], y.reshape(3, 4), y[None, :, None]):
        fn = lowess(x, shaped, bandwidth=0.5)
        assert fn.values.tobytes() == one.values.tobytes()
    (fn,) = lowess(x, y[None, :], bandwidth=0.5)
    assert fn.values.tobytes() == one.values.tobytes()
    with pytest.raises(DataError, match="equal length"):
        lowess(x, np.vstack([y, y])[:, :-1])


@pytest.mark.parametrize("x", [[], [1.0], [2.0, 2.0], [-0.0, 0.0]])
def test_lowess_needs_two_distinct_x_values(x):
    with pytest.raises(DataError, match="two distinct"):
        lowess(x, np.zeros(len(x)))


def test_lowess_rejects_a_non_finite_bandwidth():
    x, y = np.arange(10.0), np.arange(10.0)
    for bandwidth in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="bandwidth"):
            lowess(x, y, bandwidth=bandwidth)
    # 0 is valid: every window holds two points
    assert lowess(x, y, bandwidth=0.0).values.tolist() == y.tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lowess_rejects_non_finite_data(bad):
    x, y = np.arange(10.0), np.arange(10.0)
    with pytest.raises(DataError, match="finite"):
        lowess(x, np.append(y[:-1], bad))
    with pytest.raises(DataError, match="finite"):
        lowess(np.append(x[:-1], bad), y)
    with pytest.raises(DataError, match="finite"):
        lowess(x, np.vstack([y, np.append(y[:-1], bad)]))


def test_lowess_dead_window_averages_ties_beyond_the_span():
    # span = 2 at the quantile knot 0.5: the four middle points sit at
    # distance exactly h, so every kernel weight vanishes and the fit is
    # their mean, not the mean of the two inside one contiguous run
    x = np.array([-5.0, 0.0, 0.0, 1.0, 1.0, 5.0])
    y = np.array([50.0, 1.0, 2.0, 3.0, 6.0, 50.0])
    fn = lowess(x, y, bandwidth=0.0, max_knots=3)
    np.testing.assert_array_equal(fn.knots, [-5.0, 0.5, 5.0])
    assert fn.values[1] == 3.0


def test_lowess_window_follows_rounded_distances_at_a_near_tie():
    # knot 0.55 sits between 0.5 and 0.6 with 0.5 + 0.6 == 2 * 0.55 in
    # floating point, yet 0.6 - 0.55 < 0.55 - 0.5: the span-2 window is the
    # two 0.6 points, both at distance h, so the dead fallback averages them
    x = np.array([-0.5, 0.0, 0.5, 0.6, 0.6, 0.9])
    y = np.array([2.0, -1.0, -1.0, -4.0, 3.0, 2.0])
    fn = lowess(x, y, bandwidth=0.0, max_knots=3)
    np.testing.assert_array_equal(fn.knots, [-0.5, 0.55, 0.9])
    assert fn.values[1] == -0.5


# ----------------------------------------------------------------------
# Era kernel
# ----------------------------------------------------------------------

def test_era_weights_point_values():
    kernel = EraKernel(origin=2000, tau=20.0, window=40.0)
    years = np.array([2000, 1980, 1960, 1959])
    np.testing.assert_array_equal(
        era_weights(years, kernel), [1.0, 0.5, 0.25, 0.0]
    )


def test_era_weights_half_life_at_tau_12():
    kernel = EraKernel(origin=2010, tau=12.0, window=40.0)
    w = era_weights(np.array([2010, 1998, 1969]), kernel)
    assert w[0] == 1.0
    assert w[1] == 0.5
    assert w[2] == 0.0


def test_era_weights_monotone_into_the_past():
    kernel = EraKernel(origin=2000, tau=12.0, window=40.0)
    years = np.arange(1955, 2001)
    w = era_weights(years, kernel)
    assert np.all(np.diff(w) >= 0.0)
    assert np.all(w[years < 1960] == 0.0)


def test_era_kernel_validates():
    with pytest.raises(ValueError):
        EraKernel(origin=2000, tau=0.0, window=40.0)
    with pytest.raises(ValueError):
        EraKernel(origin=2000, tau=12.0, window=-1.0)


# ----------------------------------------------------------------------
# Era-weighted LOWESS (weighted bootstrap)
# ----------------------------------------------------------------------

def _flat_kernel_data():
    rng = np.random.default_rng(7)
    n = 300
    years = rng.integers(1950, 2001, size=n)
    x = rng.uniform(0.0, 5.0, size=n)
    y = 1.5 * x - 4.0 + rng.normal(0.0, 0.05, size=n)
    return x, y, years


def test_era_lowess_deterministic_given_seed():
    x, y, years = _flat_kernel_data()
    kernel = EraKernel(origin=2000, tau=12.0, window=40.0)
    a = era_lowess(x, y, years, kernel, bandwidth=0.3, seed=11)
    b = era_lowess(x, y, years, kernel, bandwidth=0.3, seed=11)
    np.testing.assert_array_equal(a.knots, b.knots)
    np.testing.assert_array_equal(a.values, b.values)
    c = era_lowess(x, y, years, kernel, bandwidth=0.3, seed=12)
    assert not np.array_equal(a.values, c.values)


def test_era_lowess_flat_kernel_matches_plain_lowess_in_mean():
    # With tau huge and the window covering everything the bootstrap is a
    # uniform resample, so the mean fit over seeds converges to plain LOWESS.
    x, y, years = _flat_kernel_data()
    kernel = EraKernel(origin=2000, tau=1e12, window=1e12)
    plain = lowess(x, y, bandwidth=0.4)
    grid = np.linspace(0.5, 4.5, 41)
    fits = np.array(
        [era_lowess(x, y, years, kernel, bandwidth=0.4, seed=s)(grid) for s in range(20)]
    )
    mean_fit = fits.mean(axis=0)
    se = fits.std(axis=0, ddof=1) / np.sqrt(fits.shape[0])
    assert np.all(np.abs(mean_fit - plain(grid)) < 3.0 * se + 1e-3)


def test_era_lowess_ignores_zero_weight_years():
    # Points outside the window carry garbage y values; they must not matter.
    rng = np.random.default_rng(8)
    n = 200
    x = rng.uniform(0.0, 1.0, size=n)
    y = 2.0 * x + 1.0
    x_out = rng.uniform(0.0, 1.0, size=n)
    y_out = rng.normal(100.0, 10.0, size=n)
    years = np.concatenate([np.full(n, 1995), np.full(n, 1900)])
    kernel = EraKernel(origin=2000, tau=12.0, window=40.0)
    fn = era_lowess(
        np.concatenate([x, x_out]), np.concatenate([y, y_out]), years,
        kernel, bandwidth=0.4, seed=5,
    )
    np.testing.assert_allclose(fn(x), y, atol=1e-6)


def test_era_lowess_empty_window_raises():
    kernel = EraKernel(origin=2000, tau=12.0, window=10.0)
    years = np.full(50, 1900)
    with pytest.raises(EmptyEraError):
        era_lowess(np.arange(50.0), np.arange(50.0), years, kernel,
                   bandwidth=0.5, seed=0)


def test_era_lowess_resample_size_cap():
    x, y, years = _flat_kernel_data()
    kernel = EraKernel(origin=2000, tau=12.0, window=60.0)
    fn = era_lowess(x, y, years, kernel, bandwidth=0.3, seed=3, max_resample=100)
    # resample of 100 points can have at most 100 knots
    assert fn.knots.size <= 100


# ----------------------------------------------------------------------
# Smoothstep and tail extension
# ----------------------------------------------------------------------

def test_smoothstep_endpoints_and_midpoint():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(0.5) == 0.5
    eps = 1e-6
    assert abs(smoothstep(eps) - smoothstep(0.0)) / eps < 1e-5
    assert abs(smoothstep(1.0) - smoothstep(1.0 - eps)) / eps < 1e-5


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_smoothstep_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert smoothstep(lo) <= smoothstep(hi) + 1e-15


def test_extended_fn_seams_and_linear_tail():
    # base: identity-ish curve on [0, 10]
    knots = np.linspace(0.0, 10.0, 101)
    base = SmoothFn(knots=knots, values=np.sin(knots) + 0.3 * knots)
    ext = ExtendedFn.build(base, transition=4.0, delta=2.0, blend_width=3.0)
    # above the transition: pure base
    np.testing.assert_array_equal(ext(np.array([4.0, 7.0, 9.5])),
                                  base(np.array([4.0, 7.0, 9.5])))
    # seam continuity at the transition and at transition - blend_width
    for seam in (4.0, 1.0):
        lo, hi = ext(seam - 1e-9), ext(seam + 1e-9)
        assert abs(hi - lo) < 1e-7
    # below transition - blend_width: exactly affine with the measured slope
    slope = (base(6.0) - base(4.0)) / 2.0
    s = np.array([-3.0, -1.0, 0.5])
    np.testing.assert_allclose(ext(s), base(4.0) + slope * (s - 4.0), atol=1e-12)
    second_diff = np.diff(ext(np.linspace(-5.0, 0.9, 40)), n=2)
    np.testing.assert_allclose(second_diff, 0.0, atol=1e-10)


def test_extended_fn_matches_spec_slope_sign():
    # slope is measured on the interior side: t = (f(s*) - f(s* + delta)) / (-delta)
    knots = np.linspace(0.0, 10.0, 11)
    base = SmoothFn(knots=knots, values=-2.0 * knots + 1.0)
    ext = ExtendedFn.build(base, transition=5.0, delta=2.0, blend_width=3.0)
    # affine base means the extension continues the same line everywhere
    grid = np.linspace(-4.0, 10.0, 29)
    np.testing.assert_allclose(ext(grid), -2.0 * grid + 1.0, atol=1e-10)


def test_extended_fn_transition_validation():
    base = SmoothFn(knots=np.linspace(0.0, 10.0, 11),
                    values=np.zeros(11))
    with pytest.raises(TailConfigError):
        ExtendedFn.build(base, transition=9.5, delta=2.0, blend_width=3.0)
    with pytest.raises(TailConfigError):
        ExtendedFn.build(base, transition=-1.0, delta=2.0, blend_width=3.0)


def test_extended_fn_roundtrip_dict():
    base = SmoothFn(knots=np.linspace(0.0, 10.0, 11),
                    values=np.cos(np.linspace(0.0, 10.0, 11)))
    ext = ExtendedFn.build(base, transition=3.0, delta=2.0, blend_width=3.0)
    ext2 = ExtendedFn.from_dict(ext.to_dict())
    grid = np.linspace(-5.0, 12.0, 60)
    np.testing.assert_array_equal(ext(grid), ext2(grid))


def test_extended_fn_rejects_a_non_positive_blend_width():
    base = SmoothFn(knots=np.linspace(0.0, 10.0, 11), values=np.zeros(11))
    for width in (0.0, -1.0, float("nan")):
        with pytest.raises(TailConfigError, match="blend width"):
            ExtendedFn.build(base, transition=3.0, blend_width=width)


@st.composite
def extended_curves(draw):
    """ExtendedFn on 2 to 12 finite knots, transition anywhere legal."""
    knots = sorted(k / 8.0 for k in draw(st.lists(
        st.integers(-800, 800), min_size=2, max_size=12, unique=True)))
    values = draw(st.lists(st.floats(-100.0, 100.0), min_size=len(knots),
                           max_size=len(knots)))
    base = SmoothFn(knots=np.array(knots), values=np.array(values))
    lo, hi = knots[0], knots[-1]
    delta = draw(st.floats(1e-3, hi - lo))
    transition = draw(st.floats(lo, hi - delta))
    assume(lo <= transition and transition + delta <= hi)
    width = draw(st.floats(1e-3, 20.0))
    return ExtendedFn.build(base, transition, delta=delta, blend_width=width)


@settings(max_examples=300, deadline=None)
@given(fn=extended_curves(), data=st.data())
def test_extended_fn_at_is_call_bit_for_bit(fn, data):
    tr, width = fn.transition, fn.blend_width
    knots = fn.base.knots.tolist()
    # the seams, the knots, the tangent line far below, NaN, and points
    # drawn across the blend and everywhere else
    points = [tr, tr - width, tr - 0.5 * width, *knots, knots[0] - 50.0,
              knots[-1] + 50.0, float("nan"),
              *data.draw(st.lists(st.floats(tr - 2.0 * width, tr + 1.0),
                                  max_size=10)),
              *data.draw(st.lists(st.floats(-1e6, 1e6), max_size=4))]
    for x in points:
        want = fn(x)
        assert type(want) is float  # a scalar input gives a Python float
        assert_same_float(fn.at(x), want)
    np.testing.assert_array_equal(np.array([fn.at(x) for x in points]),
                                  fn(np.array(points)))
