"""End-to-end fitting: tensor in, forecast-ready bundle out.

One call wires the stages together in the only order that avoids
look-ahead: truncate the tensor at the origin, factorize, build the
component space, derive country series, fit the flow field, and estimate
relaxation rates from the same truncated series the flow field saw.
"""

from dataclasses import asdict, dataclass, field, fields
from operator import index
from typing import get_args

import numpy as np

from .convergence import (RelaxationRates, estimate_rates, speed_rate,
                          structural_rates)
from .data import MortalityTensor, truncate_tensor
from .errors import ConfigError, MissingDataError
from .flowfield import (
    FlowField,
    fit_flowfield,
    fit_paths,
    fit_speed,
    series_from_fit,
)
from .forecast import (
    ForecastConfig,
    PICalibration,
    apply_intervals,
    country_state,
    run_forecast,
)
from .pca import CorePCA, core_score_grids, fit_core_pca
from .tucker import TuckerModel, hosvd

# factor ranks used on the full production corpus: both sexes, single
# ages to about 100, the complete country panel, a century of years
PRODUCTION_RANKS = (2, 42, 46, 100)


def _mode_caps(shape):
    size = int(np.prod(shape))
    return tuple(min(d, size // d) for d in shape)


def default_ranks(shape):
    """Production ranks clipped to what the tensor can support."""
    return tuple(min(r, c) for r, c in zip(PRODUCTION_RANKS, _mode_caps(shape)))


def check_settings(config, positive, error):
    """Raise ``error`` unless seed >= 0 and the ``positive`` are > 0."""
    for name in positive:
        value = getattr(config, name)
        if not 0.0 < value < np.inf:
            raise error(f"{name} must be positive and finite, not {value}")
    if config.seed < 0:
        raise error(f"seed must be non-negative, not {config.seed}")


@dataclass(frozen=True)
class FitConfig:
    """Everything fit_model needs beyond the tensor itself.

    ``ranks`` of None means the production ranks clipped to the data;
    ``origin`` of None means the last observed year.
    """

    ranks: tuple | None = None
    n_components: int = 5
    tau: float = 12.0
    window: float = 40.0
    bandwidth: float = 0.20
    transition_e0: float = 78.0
    tail_delta: float = 2.0
    tail_blend: float = 3.0
    seed: int = 0
    origin: int | None = None
    max_lag: int = 30

    def __post_init__(self):
        # Coerce to the declared types (ints via operator.index), so that
        # to_dict and the config hash read FitConfig(tau=15) as tau=15.0.
        for f in fields(self):
            value = getattr(self, f.name)
            kind = (get_args(f.type) or (f.type,))[0]
            if kind is tuple and value is not None:
                value = tuple(int(r) for r in value)
            elif value is not None:
                value = index(value) if kind is int else kind(value)
            object.__setattr__(self, f.name, value)
        if self.n_components < 1:
            raise ConfigError("n_components must be at least 1")
        check_settings(self, ("tau", "window", "bandwidth", "transition_e0",
                              "tail_delta", "tail_blend", "max_lag"),
                       ConfigError)

    def to_dict(self):
        d = asdict(self)
        if self.ranks is not None:
            d["ranks"] = list(self.ranks)
        return d

    @classmethod
    def from_dict(cls, d):
        # every key but origin is required and no other key is allowed:
        # a damaged file must not load
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        return cls(**{f.name: d[f.name] for f in fields(cls)
                      if f.name != "origin"}, origin=d.get("origin"))


@dataclass
class FittedModel:
    """A complete fit: basis, component space, dynamics, bookkeeping.

    ``grid`` and the effective cores it scores are derived from the
    model and the component space and never saved: a fit hands over the
    ones it built, a loaded model builds them on first use, and
    ``dataclasses.replace`` starts them afresh.
    """

    model: TuckerModel
    pca: CorePCA
    flowfield: FlowField
    rates: RelaxationRates
    mask: np.ndarray
    origin: int
    config: FitConfig
    calibration: PICalibration | None = None
    _grid: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)
    _cores: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @property
    def grid(self):
        """Scores at every (country, year) cell, shape (C, T, N)."""
        if self._grid is None:
            self._cores, self._grid = core_score_grids(self.model, self.pca)
        return self._grid

    def state(self, country, origin_year=None):
        grid = self.grid  # builds the cores with it
        return country_state(self.model, self.pca, self.mask, country,
                             origin_year=origin_year, grid=grid,
                             cores=self._cores)

    def forecast(self, country, horizon=50, w=1.0, origin_year=None,
                 intervals=False):
        """Forecast a fitted country from its last observed year."""
        state = self.state(country, origin_year=origin_year)
        return self.forecast_state(state, horizon=horizon, w=w,
                                   intervals=intervals)

    def forecast_state(self, state, horizon=50, w=1.0, intervals=False):
        config = ForecastConfig(rates=self.rates, w=w, horizon=horizon)
        result = run_forecast(self.model, self.pca, self.flowfield, state,
                              config)
        if intervals:
            result = apply_intervals(result, self.calibration)
        return result


@dataclass
class BasisFit:
    """Factorization half of a fit: everything upstream of the dynamics.

    The series depend only on the basis and the origin, so one BasisFit
    can back several flow-field fits with different era settings.
    ``cores`` and ``grid`` are ``core_score_grids(model, pca)``: the
    (C, T, r1, r2) effective cores and their (C, T, N) scores, which the
    series and every in-panel state read.
    """

    model: TuckerModel
    pca: CorePCA
    series: dict
    mask: np.ndarray
    origin: int
    grid: np.ndarray
    cores: np.ndarray


def fit_basis(tensor, config=None, clip_ranks=False):
    """Truncate at the origin, factorize, and derive country series.

    With an explicit origin the tensor is truncated before anything is
    fitted, so later years cannot leak in through the factorization or a
    smoothing window.  ``clip_ranks`` quietly clips requested ranks to
    the truncated dimensions (cross-validation refits shrink the year
    axis); otherwise an oversized rank raises RankError.
    """
    config = config or FitConfig()
    origin = config.origin
    if origin is None:
        observed = tensor.years[tensor.mask.any(axis=0)]
        if observed.size == 0:
            raise MissingDataError("tensor has no observed cells")
        origin = int(observed[-1])
    work = truncate_tensor(tensor, origin)
    ranks = config.ranks if config.ranks is not None else default_ranks(work.shape)
    if clip_ranks:
        ranks = tuple(min(r, c) for r, c in zip(ranks, _mode_caps(work.shape)))
    model = hosvd(work, ranks)
    pca = fit_core_pca(model, work.mask, n_components=config.n_components)
    cores, grid = core_score_grids(model, pca)
    series = series_from_fit(model, pca, work, grid=grid)
    return BasisFit(model=model, pca=pca, series=series,
                    mask=work.mask.copy(), origin=origin, grid=grid,
                    cores=cores)


def fit_path_dynamics(basis, config=None):
    """The era-free half of the dynamics: (FlowPaths, alpha_s).

    Neither the paths nor the structural rates read tau, window or seed,
    so a tuning loop fits this once per basis and ``fit_speed_dynamics``
    once per era setting.
    """
    config = config or FitConfig()
    paths = fit_paths(basis.series, basis.origin, config)
    return paths, structural_rates(paths, basis.series,
                                   max_lag=config.max_lag)


def fit_speed_dynamics(basis, paths, alpha_s, config=None):
    """Complete the dynamics with the era settings of ``config``."""
    config = config or FitConfig()
    ff = fit_speed(paths, config)
    alpha_v = speed_rate(ff, basis.series, max_lag=config.max_lag)
    return ff, RelaxationRates(alpha_v=alpha_v, alpha_s=alpha_s)


def fit_dynamics(basis, config=None):
    """Flow field and relaxation rates on an already-fitted basis.

    The same result as ``fit_speed_dynamics`` on ``fit_path_dynamics``.
    """
    config = config or FitConfig()
    ff = fit_flowfield(basis.series, basis.origin, config)
    rates = estimate_rates(ff, basis.series, max_lag=config.max_lag)
    return ff, rates


def fit_model(tensor, config=None, clip_ranks=False):
    """Fit the full pipeline on a tensor: basis first, then dynamics."""
    config = config or FitConfig()
    basis = fit_basis(tensor, config, clip_ranks=clip_ranks)
    ff, rates = fit_dynamics(basis, config)
    fitted = FittedModel(model=basis.model, pca=basis.pca, flowfield=ff,
                         rates=rates, mask=basis.mask, origin=basis.origin,
                         config=config)
    fitted._cores, fitted._grid = basis.cores, basis.grid
    return fitted
