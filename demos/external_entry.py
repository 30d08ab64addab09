"""Forecasting populations outside the training panel.

A fitted flow field can forecast populations it never saw.  With only a
life-expectancy series, the level score is read off the e0 map and the
structural scores sit on the canonical trajectories (tier 1).  With one
full schedule, projection into the score space recovers all components
and keeps whatever the basis cannot express as a jump-off correction
(tier 2).
"""

import numpy as np

from mortflow import (FitConfig, SyntheticSpec, expit, fit_model, generate,
                      life_table_e0, run_forecast, tier1_state, tier2_state)
from mortflow.forecast import ForecastConfig

world = generate(SyntheticSpec(n_countries=8, n_ages=30, n_years=80,
                               stagger=5, seed=21))
fitted = fit_model(world.tensor, FitConfig(), clip_ranks=True)
config = ForecastConfig(rates=fitted.rates, w=1.0, horizon=25)

# Tier 1: a decade of e0 values is the entire input.  The values must
# live inside the fitted e0 map, which tops out near 29 on this small
# 30-age world.
years = np.arange(2010, 2020)
e0_series = 25.5 + 0.1 * (years - years[0])
state1 = tier1_state(fitted.flowfield, years, e0_series, country="tier1-demo")
result1 = run_forecast(fitted.model, fitted.pca, fitted.flowfield, state1,
                       config)
print("tier 1 from an e0 series alone:")
print(f"  entry e0 {e0_series[-1]:.1f} at {state1.origin_year}")
for i in (4, 14, 24):
    print(f"  {result1.years[i]}: e0 {result1.e0_avg[i]:.2f}")

# Tier 2: one observed sex-by-age schedule, treated as if it arrived
# from outside the panel.  Projection recovers the scores; whatever the
# basis cannot express rides along as a fading jump-off correction.
schedule = world.tensor.values[:, :, 0, -1]
state2 = tier2_state(fitted.model, fitted.pca, fitted.flowfield, schedule,
                     origin_year=int(world.tensor.years[-1]),
                     country="tier2-demo")
result2 = run_forecast(fitted.model, fitted.pca, fitted.flowfield, state2,
                       config)
entry_e0 = life_table_e0(expit(schedule)).mean()
print("\ntier 2 from one full schedule:")
print(f"  entry e0 {entry_e0:.2f} at {state2.origin_year}, "
      f"jump-off residual max {np.abs(state2.jumpoff).max():.4f}")
for i in (4, 14, 24):
    print(f"  {result2.years[i]}: e0 {result2.e0_avg[i]:.2f}")
