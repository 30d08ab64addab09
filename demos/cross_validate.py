"""Cross-validation, tuning, and interval calibration.

The evaluation protocol has two stages: a fast grid search over the
blend weight and era half-life using flows fitted on the full panel,
then a strict leave-country-out pass at the chosen setting where each
country is forecast by a model that never saw it.  The strict errors
also calibrate the prediction intervals.
"""

import numpy as np

from mortflow import (CVConfig, FitConfig, SyntheticSpec, calibrate_pi,
                      generate, grid_search, metric_report, run_loco_cv)

world = generate(SyntheticSpec(n_countries=6, n_ages=24, n_years=70,
                               stagger=4, obs_noise=0.003,
                               deviation_scale=0.4, s1_spread=1.0, seed=0))
config = CVConfig(horizon=20, origin_spacing=10, schedules=False)

# Stage 1: the grid, shared-basis refits, one MAE per (w, tau) cell.
grid = grid_search(world.tensor, grid_w=(0.5, 1.0), grid_tau=(10.0, 20.0),
                   config=config)
print("grid search (inclusive flows):")
for row in grid.table:
    print(f"  w {row['w']:.1f}  tau {row['tau']:4.0f}  MAE {row['mae']:.3f}")
best = grid.best
print(f"winner: w {best['w']:.1f}, tau {best['tau']:.0f}")

# Stage 2: strict leave-country-out at the winning setting.
strict = CVConfig(fit=FitConfig(tau=best["tau"]), horizon=20,
                  origin_spacing=10, schedules=False, w=best["w"])
records = run_loco_cv(world.tensor, strict)
mae = float(np.mean(np.abs(records.err)))
print(f"\nstrict LOCO: {len(records)} forecasts, e0 MAE {mae:.3f} years")

report = metric_report(records)
print("by horizon band:")
for row in report.by_horizon_band:
    print(f"  h {row['band']:>5}: MAE {row['mae']:.3f}  "
          f"bias {row['bias']:+.3f}  n {row['n']}")

# The strict errors calibrate the intervals every forecast can carry.
calibration = calibrate_pi(records)
print(f"\ncalibration: sigma1 {calibration.sigma1:.3f}, "
      f"kappa {calibration.kappa:.3f}")
print(f"95% half-width at h=20: "
      f"{1.96 * calibration.kappa * calibration.sigma1 * np.sqrt(20):.2f} years")
