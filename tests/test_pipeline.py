"""End-to-end fit tests on generated worlds."""

from dataclasses import replace

import numpy as np
import pytest

from mortflow.errors import ConfigError, RankError
from mortflow.evaluation import CVConfig
from mortflow.forecast import tier1_state
from mortflow.lifetable import e0_by_sex
from mortflow.pca import score_grid
from mortflow.pipeline import FitConfig, default_ranks, fit_basis, fit_model
from mortflow.synth import SyntheticSpec, generate


def world_6():
    return generate(SyntheticSpec(n_countries=6, n_ages=24, n_years=70,
                                  stagger=4, seed=11))


def test_default_ranks_clip_to_data():
    assert default_ranks((2, 85, 46, 150)) == (2, 42, 46, 100)
    assert default_ranks((2, 10, 4, 8)) == (2, 10, 4, 8)
    # a mode's rank is also capped by the product of the other modes
    assert default_ranks((2, 1, 50, 3)) == (2, 1, 6, 3)


def test_fit_config_round_trip():
    config = FitConfig(ranks=(2, 5, 3, 7), n_components=4, tau=15.0,
                       origin=1990, seed=3)
    again = FitConfig.from_dict(config.to_dict())
    assert again == config
    assert FitConfig.from_dict(FitConfig().to_dict()) == FitConfig()


def test_fit_config_serialises_declared_types():
    d = FitConfig(tau=15, seed=np.int64(3), ranks=[2, 5, 3, 7]).to_dict()
    assert type(d["tau"]) is float and d["tau"] == 15.0
    assert type(d["seed"]) is int and d["seed"] == 3
    assert type(d["ranks"]) is list and d["ranks"] == [2, 5, 3, 7]
    with pytest.raises(TypeError):
        FitConfig(n_components=2.5)


@pytest.mark.parametrize("name, value", [
    ("seed", -1), ("tau", 0.0), ("tau", float("nan")), ("window", -40.0),
    ("bandwidth", 0.0), ("bandwidth", float("inf")), ("tail_delta", 0.0),
    ("tail_blend", float("nan")), ("max_lag", 0),
    ("transition_e0", float("nan")), ("transition_e0", float("inf")),
    ("transition_e0", -5.0),
])
def test_fit_config_rejects_out_of_range_settings(name, value):
    with pytest.raises(ConfigError, match=name):
        FitConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("seed", -1), ("tau", float("inf")), ("window", 0.0),
])
def test_cv_config_rejects_out_of_range_fit_settings(name, value):
    # a CV's fit settings are a FitConfig, checked where it is built
    with pytest.raises(ConfigError, match=name):
        CVConfig(fit=replace(CVConfig().fit, **{name: value}))


def test_fit_model_end_to_end():
    world = world_6()
    fitted = fit_model(world.tensor, FitConfig(n_components=4))

    assert fitted.origin == 1969
    assert fitted.model.core.shape == (2, 24, 6, 70)
    assert fitted.pca.n_components == 4
    assert len(fitted.flowfield.countries) == 6
    assert fitted.rates.alpha_s[0] == 0.0
    assert all(0.0 <= a < 1.0 for a in fitted.rates.alpha_s)
    np.testing.assert_array_equal(fitted.mask, world.tensor.mask)

    result = fitted.forecast("S00", horizon=12)
    assert result.years[0] == 1970 and result.years[-1] == 1981
    assert np.all(np.isfinite(result.e0_avg))
    assert np.all((result.e0_avg > 0.0) & (result.e0_avg < 24.0))


def test_fit_model_truncates_at_origin():
    world = world_6()
    fitted = fit_model(world.tensor, FitConfig(n_components=3, origin=1949))
    assert fitted.origin == 1949
    assert int(fitted.model.years[-1]) == 1949
    assert fitted.model.year_factor.shape[0] == 50
    assert fitted.mask.shape == (6, 50)
    state = fitted.state("S00")
    assert state.origin_year == 1949


def test_fit_model_rank_validation_and_clipping():
    world = world_6()
    config = FitConfig(ranks=(2, 50, 6, 40), n_components=3)
    with pytest.raises(RankError):
        fit_model(world.tensor, config)
    fitted = fit_model(world.tensor, config, clip_ranks=True)
    assert fitted.model.core.shape == (2, 24, 6, 40)


def test_fit_model_is_deterministic():
    world = world_6()
    config = FitConfig(n_components=3)
    a = fit_model(world.tensor, config)
    b = fit_model(world.tensor, config)
    np.testing.assert_array_equal(a.model.core, b.model.core)
    np.testing.assert_array_equal(a.pca.loadings, b.pca.loadings)
    assert a.rates == b.rates
    np.testing.assert_array_equal(a.flowfield.speed.base.values,
                                  b.flowfield.speed.base.values)


def test_fitted_level_tracks_life_expectancy():
    world = world_6()
    fitted = fit_model(world.tensor, FitConfig(n_components=3))
    ff = fitted.flowfield
    # the fitted orientation convention: higher level score, lower e0
    lo, hi = ff.e0_of_s1(np.percentile(
        [fitted.state(c).scores[0] for c in world.tensor.countries], [10, 90]))
    assert lo > hi


def test_forecast_from_interior_origin_tracks_truth():
    world = world_6()
    fitted = fit_model(world.tensor, FitConfig(n_components=4, origin=1949))
    horizon = 20
    errs = []
    for c, country in enumerate(world.tensor.countries):
        result = fitted.forecast(country, horizon=horizon)
        for h in range(1, horizon + 1):
            t = 1949 + h - 1900
            if not world.tensor.mask[c, t]:
                continue
            truth = float(e0_by_sex(world.tensor.values[:, :, c, t]).mean())
            errs.append(result.e0_avg[h - 1] - truth)
    errs = np.asarray(errs)
    assert errs.size == 6 * horizon
    assert np.mean(np.abs(errs)) < 1.0


def test_tier1_forecast_through_fitted_model():
    world = world_6()
    fitted = fit_model(world.tensor, FitConfig(n_components=3))
    obs = np.flatnonzero(world.tensor.mask[0])[-10:]
    slabs = np.moveaxis(world.tensor.values[:, :, 0, obs], -1, 0)
    e0 = e0_by_sex(slabs).mean(axis=-1)
    state = tier1_state(fitted.flowfield, world.tensor.years[obs], e0)
    result = fitted.forecast_state(state, horizon=8)
    assert result.e0_avg.shape == (8,)
    assert np.all(np.isfinite(result.e0_avg))


def test_pipeline_recovers_shared_relaxation_rate():
    # zero-innovation deviations decay exponentially, which is the regime
    # where the rate is identifiable; aligned traversal (small initial
    # spread) and a noise-free surface keep the trajectory fits clean, and
    # the estimator should read the shared rate back through the whole fit
    spec = SyntheticSpec(n_countries=10, n_years=200, alpha=0.8,
                         innovation_scale=0.0, obs_noise=0.0,
                         s1_spread=0.5, seed=21)
    world = generate(spec)
    fitted = fit_model(world.tensor, FitConfig(n_components=5))
    for alpha in fitted.rates.alpha_s[1:]:
        assert abs(alpha - 0.8) < 0.02


def test_fit_hands_over_the_grid_its_series_read():
    world = world_6()
    config = FitConfig(n_components=3)
    basis = fit_basis(world.tensor, config)
    grid = score_grid(basis.model, basis.pca)
    assert basis.grid.tobytes() == grid.tobytes()
    for series in basis.series.values():
        c = basis.model.countries.index(series.country)
        t = np.searchsorted(basis.model.years, series.years)
        assert series.scores.tobytes() == grid[c, t].tobytes()
    assert fit_model(world.tensor, config)._grid.tobytes() == grid.tobytes()
