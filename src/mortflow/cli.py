"""Command-line surface: fit, forecast, cv, and synth subcommands.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 internal or numerical failure.  All file I/O is UTF-8 CSV or JSON.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .artifact import load_model, save_model
from .convergence import half_life
from .data import tensor_from_csv
from .errors import (
    CalibrationMissingError,
    ConfigError,
    CsvFormatError,
    InsufficientDataError,
    MortflowError,
    RankError,
    TailConfigError,
)
from .evaluation import (
    GRID_TAU,
    GRID_W,
    CVConfig,
    calibrate_pi,
    entry_state,
    grid_search,
    metric_report,
    run_inclusive_cv,
    run_loco_cv,
    write_grid_csv,
    write_records_csv,
)
from .forecast import tier1_state, write_schedule_csv, write_summary_csv
from .pipeline import FitConfig, fit_model
from .synth import SyntheticSpec, generate, write_csv, write_truth

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

# Errors that mean the request itself was wrong, not the data.  An input
# file that is not UTF-8 text raises a UnicodeError.
USAGE_ERRORS = (RankError, CalibrationMissingError, ConfigError,
                CsvFormatError, TailConfigError, UnicodeError)

# The fit flags that fit and cv share, and the FitConfig field of each.
FIT_FLAGS = (("ranks", "ranks"), ("pcs", "n_components"),
             ("window", "window"), ("seed", "seed"))


class UsageError(Exception):
    """A flag value the command cannot act on."""


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _grid(text):
    values = _floats(text)
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated grid value in {text!r}")
    return values


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _print_fit_report(fitted):
    ev = fitted.pca.explained_variance
    print("component  variance share  cumulative")
    total = 0.0
    for k, share in enumerate(ev, start=1):
        total += float(share)
        print(f"{k:>9d}  {share:>14.4f}  {total:>10.4f}")
    rates = fitted.rates
    print(f"velocity blend: alpha={rates.alpha_v:.3f} "
          f"half-life={half_life(rates.alpha_v):.1f} yr")
    for k in range(2, len(rates.alpha_s) + 1):
        alpha = rates.alpha_s[k - 1]
        print(f"component {k} relaxation: alpha={alpha:.3f} "
              f"half-life={half_life(alpha):.1f} yr")


def _fit_config(args, fitted=None):
    """FitConfig's defaults, or the settings of ``fitted``, with the
    FIT_FLAGS given; a flag that disagrees with ``fitted`` is an error."""
    base = FitConfig() if fitted is None else fitted.config
    config = replace(base, **{name: getattr(args, flag)
                              for flag, name in FIT_FLAGS
                              if getattr(args, flag) is not None})
    for flag, name in FIT_FLAGS:
        asked, saved = getattr(config, name), getattr(base, name)
        if fitted is not None and asked != saved:
            raise UsageError(f"--{flag} {asked} disagrees with the model's "
                             f"{name} {saved}")
    return config


def cmd_fit(args):
    config = replace(_fit_config(args), tau=args.tau, origin=args.origin)
    tensor = tensor_from_csv(args.input)
    fitted = fit_model(tensor, config)
    save_model(fitted, args.out)
    print(f"fit {len(tensor.countries)} countries, "
          f"origin {fitted.origin}, ranks {fitted.model.core.shape} "
          f"-> {args.out}")
    _print_fit_report(fitted)
    return EXIT_OK


def _read_e0_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["year",
                                                                     "e0"]:
            raise CsvFormatError(f"{path}: expected header year,e0", line=1)
        years, values = [], []
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != 2:
                raise CsvFormatError(
                    f"{path}: {len(row)} fields, expected 2", line=line)
            try:
                year, e0 = float(row[0]), float(row[1])
            except ValueError as exc:
                raise CsvFormatError(f"{path}: {exc}", line=line) from exc
            if not (math.isfinite(year) and math.isfinite(e0)):
                raise CsvFormatError(f"{path}: year and e0 must be finite",
                                     line=line)
            if year in years:
                raise CsvFormatError(f"{path}: repeated year {row[0]}",
                                     line=line)
            years.append(year)
            values.append(e0)
    if len(years) < 2:
        raise UsageError("tier-1 entry needs at least 2 e0 points")
    return np.array(years), np.array(values)


def _tier2_from_csv(fitted, path):
    tensor = tensor_from_csv(path)
    if len(tensor.countries) != 1:
        raise UsageError("tier-2 schedule CSV must hold exactly one country")
    if not np.array_equal(tensor.ages, fitted.model.ages):
        raise UsageError("schedule ages do not match the model age grid")
    observed = np.flatnonzero(tensor.mask[0])
    if not observed.size:
        raise InsufficientDataError(
            f"{path}: no year has a complete schedule for both sexes")
    return entry_state(fitted, tensor, 0, int(observed[-1]))


def cmd_forecast(args):
    fitted = load_model(args.model)
    if args.country is not None:
        if args.country not in fitted.model.countries:
            raise UsageError(f"country {args.country!r} is not in the model")
        state = fitted.state(args.country)
    elif args.tier1_e0 is not None:
        years, e0 = _read_e0_csv(args.tier1_e0)
        state = tier1_state(fitted.flowfield, years, e0,
                            country=Path(args.tier1_e0).stem)
    else:
        state = _tier2_from_csv(fitted, args.tier2_schedule)
    intervals = args.intervals or fitted.calibration is not None
    result = fitted.forecast_state(state, horizon=args.horizon, w=args.w,
                                   intervals=intervals)
    summary = f"{args.out}_summary.csv"
    schedule = f"{args.out}_schedule.csv"
    write_summary_csv(result, summary)
    write_schedule_csv(result, schedule)
    print(f"forecast {result.country} from {result.origin_year}, "
          f"{args.horizon} years -> {summary}, {schedule}")
    return EXIT_OK


def cmd_cv(args):
    fitted = load_model(args.model) if args.model else None
    fit = replace(_fit_config(args, fitted), origin=None)
    if args.tau is not None:
        fit = replace(fit, tau=args.tau)
    config = CVConfig(fit=fit, w=CVConfig.w if args.w is None else args.w,
                      horizon=args.horizon, origin_spacing=args.spacing,
                      min_train=args.min_train, jobs=args.jobs)
    tensor = tensor_from_csv(args.input)
    grid = None
    if not args.skip_grid:
        grid = grid_search(tensor, args.grid_w, args.grid_tau, config)
        write_grid_csv(grid, f"{args.out}_grid.csv")
        print(f"grid: {len(grid.table)} configs, best w={grid.best['w']} "
              f"tau={grid.best['tau']} mae={grid.best['mae']:.3f} "
              f"-> {args.out}_grid.csv")
        # grid winners fill in whatever the user left unpinned
        if args.tau is None:
            fit = replace(fit, tau=grid.best["tau"])
        config = replace(config, fit=fit,
                         w=grid.best["w"] if args.w is None else config.w)

    records = (run_loco_cv(tensor, config) if args.strict_loco
               else run_inclusive_cv(tensor, config))
    write_records_csv(records, f"{args.out}_records.csv")
    mode = "strict" if args.strict_loco else "inclusive"
    print(f"{mode} cv: {len(records)} records -> {args.out}_records.csv")

    report = metric_report(records, ages=tensor.ages)
    calibration = None
    try:
        calibration = calibrate_pi(records)
    except InsufficientDataError as exc:
        if fitted is not None:
            raise
        print(f"calibration skipped: {exc}", file=sys.stderr)
    payload = {
        "config": asdict(config),
        "grid_best": None if grid is None else grid.best,
        "report": report.to_dict(),
        "calibration": None if calibration is None else {
            "sigma1": calibration.sigma1, "kappa": calibration.kappa},
    }
    with open(f"{args.out}_metrics.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"e0 mae={report.e0['mae']:.3f} bias={report.e0['bias']:+.3f} "
          f"-> {args.out}_metrics.json")

    if fitted is not None:
        fitted.calibration = calibration
        save_model(fitted, args.model)
        print(f"calibration (sigma1={calibration.sigma1:.3f}, "
              f"kappa={calibration.kappa:.3f}) -> {args.model}")
    return EXIT_OK


def cmd_synth(args):
    spec = SyntheticSpec(
        n_countries=args.countries, n_ages=args.ages,
        start_year=args.start_year, n_years=args.years,
        stagger=args.stagger, s1_start=args.s1_start,
        s1_spread=args.spread, v_max=args.v_max, s_front=args.s_front,
        front_width=args.front_width, cks=args.cks, alpha=args.alpha,
        deviation_scale=args.deviation_scale,
        innovation_scale=args.innovation, obs_noise=args.obs_noise,
        seed=args.seed)
    world = generate(spec)
    write_csv(world, args.out)
    truth = args.truth_out or str(Path(args.out).with_suffix("")) + \
        ".truth.json"
    write_truth(world, truth)
    n_cells = int(world.tensor.mask.sum())
    print(f"synth: {spec.n_countries} countries x {spec.n_years} years "
          f"({n_cells} observed country-years, alpha={spec.alpha}) "
          f"-> {args.out}, truth -> {truth}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mortflow",
        description="Mortality forecasting on a fitted flow field")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model from a mortality CSV")
    fit.add_argument("--input", required=True, help="mortality CSV")
    fit.add_argument("--tau", type=float, default=FitConfig.tau,
                     help="era half-life in years")
    fit.add_argument("--origin", type=int, default=None,
                     help="fit origin year (default: last observed)")
    fit.add_argument("--out", default="model.json")
    fit.set_defaults(func=cmd_fit)

    fc = sub.add_parser("forecast", help="forecast from a fitted model")
    fc.add_argument("--model", required=True, help="model JSON artifact")
    subject = fc.add_mutually_exclusive_group(required=True)
    subject.add_argument("--country", help="a country in the model")
    subject.add_argument("--tier1-e0",
                         help="CSV of year,e0 for an e0-only subject")
    subject.add_argument("--tier2-schedule",
                         help="mortality CSV of one out-of-model country")
    fc.add_argument("--horizon", type=int, default=50)
    fc.add_argument("--w", type=float, default=1.0,
                    help="pooled-speed blend weight in [0, 1]")
    fc.add_argument("--intervals", action="store_true",
                    help="require interval bands (error if uncalibrated)")
    fc.add_argument("--out", default="forecast",
                    help="output prefix for _summary.csv and _schedule.csv")
    fc.set_defaults(func=cmd_forecast)

    cv = sub.add_parser("cv", help="cross-validate, tune, and calibrate")
    cv.add_argument("--input", required=True, help="mortality CSV")
    cv.add_argument("--model", default=None,
                    help="artifact to cross-validate and calibrate")
    cv.add_argument("--strict-loco", action="store_true",
                    help="refit without each held-out country")
    cv.add_argument("--skip-grid", action="store_true",
                    help="skip the (w, tau) grid search")
    cv.add_argument("--grid-w", type=_grid, default=GRID_W)
    cv.add_argument("--grid-tau", type=_grid, default=GRID_TAU)
    cv.add_argument("--tau", type=float, default=None,
                    help="pin the era half-life instead of tuning it")
    cv.add_argument("--w", type=float, default=None,
                    help="pin the blend weight instead of tuning it")
    cv.add_argument("--horizon", type=int, default=CVConfig.horizon)
    cv.add_argument("--spacing", type=int, default=CVConfig.origin_spacing,
                    help="observed years between forecast origins")
    cv.add_argument("--min-train", type=int, default=CVConfig.min_train)
    cv.add_argument("--jobs", type=int, default=CVConfig.jobs,
                    help="parallel workers (capped by MORTFLOW_THREADS)")
    cv.add_argument("--out", default="cv",
                    help="output prefix for _records/_grid/_metrics files")
    cv.set_defaults(func=cmd_cv)

    for command in (fit, cv):  # the FIT_FLAGS; a flag left out is None
        command.add_argument("--ranks", type=_ints,
                             help="factor ranks, e.g. 2,42,46,100")
        command.add_argument("--pcs", type=int, help="score-space components")
        command.add_argument("--window", type=float,
                             help="era hard window in years")
        command.add_argument("--seed", type=int)

    synth = sub.add_parser("synth",
                           help="generate a synthetic mortality CSV")
    synth.add_argument("--countries", type=int, default=10)
    synth.add_argument("--ages", type=int, default=40)
    synth.add_argument("--years", type=int, default=120)
    synth.add_argument("--start-year", type=int, default=1900)
    synth.add_argument("--stagger", type=int, default=5,
                       help="entry-year offset between countries")
    synth.add_argument("--alpha", type=float, default=0.85,
                       help="AR(1) retention of structural deviations")
    synth.add_argument("--deviation-scale", type=float, default=0.8)
    synth.add_argument("--innovation", type=float, default=1.0,
                       help="1 keeps AR(1) stationary; 0 is pure decay")
    synth.add_argument("--obs-noise", type=float, default=0.01)
    synth.add_argument("--spread", type=float, default=1.5,
                       help="initial level-score spread across countries")
    synth.add_argument("--s1-start", type=float, default=26.0)
    synth.add_argument("--v-max", type=float, default=0.4)
    synth.add_argument("--s-front", type=float, default=8.0)
    synth.add_argument("--front-width", type=float, default=2.5)
    synth.add_argument("--cks", type=_floats,
                       default=(0.35, -0.2, 0.12, -0.06),
                       help="lockstep trajectory slopes c_k")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default="synth.csv")
    synth.add_argument("--truth-out", default=None,
                       help="ground-truth JSON (default <out>.truth.json)")
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, *USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MortflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
