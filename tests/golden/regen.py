"""Golden outputs, checked by tests/test_golden.py.

``seed7.json`` is the demo world (8 countries x 30 ages x 80 years,
seed 7), written as a CSV and read back, so ingest is part of the
contract.  It holds full-precision values of everything a user sees:
the fitted rates and tail transition, every country's h = 50 e0 path at
w = 0 and w = 1, one tier-1 and one tier-2 forecast, the grid table and
its winner, the inclusive and strict leave-country-out records (counts,
MAEs and a fixed sample with per-age log-mx errors) and the interval
calibration.  The artifact's SHA-256 is stored for reference only: its
bytes depend on the machine's floating-point rounding.

``wide60.json`` is the same world with 60 ages, where the production
age rank 42 truncates the age mode (default ranks (2, 42, 8, 80)).  It
holds the fit's values only: rates, transition, e0 paths and the tier-1
and tier-2 forecasts, without the grid and the cross-validation.

``small_model.json`` is a saved artifact of a 3-country world, and
``small_forecast.json`` one forecast served from it: a file written by
an earlier version must keep loading, re-save to the same bytes and
forecast the same values.

Regenerate only when outputs move on purpose, and state the largest
differences in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen.py
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from mortflow import (CVConfig, FitConfig, calibrate_pi, entry_state,
                      fit_model, grid_search, load_model, run_inclusive_cv,
                      run_loco_cv, save_model, tier1_state)
from mortflow.data import tensor_from_csv
from mortflow.lifetable import observed_e0
from mortflow.synth import SyntheticSpec, generate, write_csv

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "seed7.json"
WIDE = HERE / "wide60.json"
SMALL_MODEL = HERE / "small_model.json"
SMALL_FORECAST = HERE / "small_forecast.json"

SPEC = {"n_countries": 8, "n_ages": 30, "n_years": 80, "seed": 7}
WIDE_SPEC = {"n_countries": 8, "n_ages": 60, "n_years": 80, "seed": 7}
SMALL_SPEC = {"n_countries": 3, "n_ages": 10, "n_years": 30, "seed": 3}
SMALL_COUNTRY = "S01"
HORIZON = 50
TIER1_YEARS = 10
TIER2_COUNTRY = 1
TIER2_BACK = 10  # observed years between the tier-2 origin and the last
SAMPLE_RECORDS = 6


def _floats(values):
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _record_summary(records):
    errs = np.array([abs(r.err) for r in records])
    picks = np.linspace(0, len(records) - 1, SAMPLE_RECORDS).astype(int)
    sample = [{"country": r.country, "origin": r.origin,
               "horizon": r.horizon, "e0_hat": r.e0_hat, "e0_obs": r.e0_obs,
               "err": r.err, "excluded": r.excluded,
               "log_mx_err": _floats(r.log_mx_err)}
              for r in (records[i] for i in picks)]
    return {"n": len(records), "mae": float(errs.mean()), "sample": sample}


def compute(workdir, spec=SPEC, cv=True):
    """Golden values and the artifact SHA-256, from files under workdir.

    ``cv`` adds the grid, the cross-validation records and the interval
    calibration to the fit's values.
    """
    workdir = Path(workdir)
    csv_path = workdir / "demo.csv"
    model_path = workdir / "demo_model.json"
    write_csv(generate(SyntheticSpec(**spec)), csv_path)
    tensor = tensor_from_csv(csv_path)
    # what `mortflow fit --input demo.csv` saves, served from the file
    save_model(fit_model(tensor, FitConfig()), model_path)
    sha256 = hashlib.sha256(model_path.read_bytes()).hexdigest()
    fitted = load_model(model_path)

    e0_paths = {f"w{w:g}": {c: _floats(fitted.forecast(
        c, horizon=HORIZON, w=w).e0_avg) for c in fitted.model.countries}
        for w in (0.0, 1.0)}

    c1 = len(tensor.countries) - 1
    obs = np.flatnonzero(tensor.mask[c1])[-TIER1_YEARS:]
    e0_obs = observed_e0(tensor.values, tensor.mask)
    state1 = tier1_state(fitted.flowfield, tensor.years[obs].astype(float),
                         e0_obs[c1, obs], country=tensor.countries[c1])
    result1 = fitted.forecast_state(state1, horizon=HORIZON, w=0.5)

    t2 = int(np.flatnonzero(tensor.mask[TIER2_COUNTRY])[-1 - TIER2_BACK])
    state2 = entry_state(fitted, tensor, TIER2_COUNTRY, t2)
    result2 = fitted.forecast_state(state2, horizon=HORIZON, w=0.5)

    golden = {
        "spec": spec,
        "rates": fitted.rates.to_dict(),
        "transition": float(fitted.flowfield.transition),
        "e0_h50": e0_paths,
        "tier1": {"country": state1.country,
                  "origin_year": state1.origin_year, "w": 0.5,
                  "scores": _floats(result1.scores[-1]),
                  "e0_avg": _floats(result1.e0_avg)},
        "tier2": {"country": state2.country,
                  "origin_year": state2.origin_year, "w": 0.5,
                  "scores": _floats(result2.scores[-1]),
                  "e0_avg": _floats(result2.e0_avg)},
    }
    if cv:
        grid = grid_search(tensor)
        config = replace(CVConfig(), w=grid.best["w"], tau=grid.best["tau"])
        inclusive = run_inclusive_cv(tensor, config)
        strict = run_loco_cv(tensor, config)
        calibration = calibrate_pi(strict)
        golden.update({
            "grid": {"table": grid.table, "best": grid.best},
            "inclusive": _record_summary(inclusive),
            "strict": _record_summary(strict),
            "calibration": {"sigma1": calibration.sigma1,
                            "kappa": calibration.kappa},
        })
    return golden, sha256


def small_forecast(model_path):
    """The forecast that the small artifact serves, as stored values."""
    result = load_model(model_path).forecast(SMALL_COUNTRY, horizon=HORIZON)
    return {"country": SMALL_COUNTRY, "horizon": HORIZON, "w": 1.0,
            "scores": _floats(result.scores[-1]),
            "e0_avg": _floats(result.e0_avg)}


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main():
    for path, spec, cv in ((GOLDEN, SPEC, True), (WIDE, WIDE_SPEC, False)):
        with tempfile.TemporaryDirectory() as workdir:
            golden, sha256 = compute(workdir, spec, cv)
        golden["artifact_sha256"] = sha256
        _write_json(path, golden)
        print(f"wrote {path} (artifact SHA-256 {sha256})")
    world = generate(SyntheticSpec(**SMALL_SPEC))
    save_model(fit_model(world.tensor, FitConfig(n_components=3)),
               SMALL_MODEL)
    _write_json(SMALL_FORECAST, small_forecast(SMALL_MODEL))
    print(f"wrote {SMALL_MODEL} and {SMALL_FORECAST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
