"""Flow-field mortality forecasting in a tensor score space.

The package factorizes a (sex, age, country, year) logit-mortality
tensor, reduces the per-cell cores to a handful of component scores,
learns a level-parameterised flow field over those scores, and
forecasts by integrating it -- reconstructing full sex-specific
schedules at every horizon.  ``fit_model`` / ``FittedModel`` cover the
common path; the submodules expose every stage separately.
"""

from .artifact import load_model, model_from_dict, model_to_dict, save_model
from .convergence import (RelaxationRates, compute_deviations, estimate_rates,
                          pooled_autocorr)
from .data import (MortalityTensor, drop_country, pool_and_convert,
                   tensor_from_csv, truncate_tensor)
from .errors import (ArtifactError, CalibrationMissingError, ConfigError,
                     CsvFormatError, DataError, DomainError,
                     InsufficientDataError,
                     MissingDataError, MortflowError, RankError,
                     ShapeMismatchError, TailConfigError)
from .evaluation import (CVConfig, CVRecords, GridResult, MetricReport,
                         calibrate_pi, candidate_origins, entry_state,
                         grid_search, metric_report, run_inclusive_cv,
                         run_loco_cv, write_grid_csv, write_records_csv)
from .flowfield import (FlowField, derivative_correlations, fit_flowfield,
                        series_from_fit)
from .forecast import (CountryState, ForecastConfig, ForecastResult,
                       IntervalBands, PICalibration, apply_intervals,
                       country_state, run_forecast, run_forecasts,
                       tier1_state, tier2_state,
                       write_schedule_csv, write_summary_csv)
from .lifetable import (e0_by_sex, expit, life_table_e0, logit,
                        survivorship)
from .pca import CorePCA, fit_core_pca, inverse, jumpoff_residual, scores
from .pipeline import (PRODUCTION_RANKS, BasisFit, FitConfig, FittedModel,
                       default_ranks, fit_basis, fit_dynamics, fit_model)
from .smoothing import (EraKernel, ExtendedFn, SmoothFn, era_lowess,
                        era_weights, lowess)
from .synth import SyntheticSpec, SyntheticWorld, generate
from .tucker import (TuckerModel, effective_core, full_reconstruction, hosvd,
                     project_schedule, reconstruct_schedule)

__version__ = "0.1.0"

__all__ = [
    "ArtifactError", "BasisFit", "CVConfig", "CVRecords",
    "CalibrationMissingError", "ConfigError", "CorePCA", "CountryState",
    "CsvFormatError",
    "DataError", "DomainError", "EraKernel", "ExtendedFn", "FitConfig",
    "FittedModel", "FlowField", "ForecastConfig",
    "ForecastResult", "GridResult", "InsufficientDataError", "IntervalBands",
    "MetricReport", "MissingDataError", "MortalityTensor", "MortflowError",
    "PICalibration", "PRODUCTION_RANKS", "RankError", "RelaxationRates",
    "ShapeMismatchError", "SmoothFn", "SyntheticSpec", "SyntheticWorld",
    "TailConfigError", "TuckerModel", "apply_intervals",
    "calibrate_pi", "candidate_origins", "compute_deviations", "country_state",
    "default_ranks", "derivative_correlations", "drop_country", "e0_by_sex",
    "effective_core", "entry_state", "era_lowess", "era_weights",
    "estimate_rates", "expit", "fit_basis", "fit_core_pca", "fit_dynamics",
    "fit_flowfield", "fit_model", "full_reconstruction", "generate",
    "grid_search", "hosvd", "inverse", "jumpoff_residual", "life_table_e0",
    "load_model", "logit", "lowess", "metric_report", "model_from_dict",
    "model_to_dict", "pool_and_convert", "pooled_autocorr",
    "project_schedule", "reconstruct_schedule", "run_forecast",
    "run_forecasts", "run_inclusive_cv", "run_loco_cv", "save_model", "scores",
    "series_from_fit", "survivorship", "tensor_from_csv",
    "tier1_state", "tier2_state", "truncate_tensor", "write_grid_csv",
    "write_records_csv", "write_schedule_csv", "write_summary_csv",
]
