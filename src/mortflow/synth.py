"""Synthetic mortality worlds with known dynamics.

Schedules come from a small score model: a level score declining along a
level-dependent speed (fast far from the frontier, stalling near it),
structural scores locked to fixed multiples of the level plus AR(1)
deviations sharing one relaxation rate, and white observation noise on
the logit surface.  Because the generator emits the same tensor and CSV
shapes the pipeline consumes, fits can be scored against the exact
dynamics that produced the data.

The AR(1) innovation scale is a dial: at 1 the deviations are stationary
noise, at 0 they collapse to pure exponential decay from the initial
draw, which is the regime where relaxation rates are identifiable to
high precision.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .data import SEXES, MortalityTensor, RawSeries
from .errors import ConfigError
from .lifetable import expit

DEFAULT_CKS = (0.35, -0.2, 0.12, -0.06)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a generated world."""

    n_countries: int = 10
    n_ages: int = 40
    start_year: int = 1900
    n_years: int = 120
    stagger: int = 5
    s1_start: float = 26.0
    s1_spread: float = 1.5
    v_max: float = 0.4
    s_front: float = 8.0
    front_width: float = 2.5
    cks: tuple = DEFAULT_CKS
    alpha: float = 0.85
    deviation_scale: float = 0.8
    level_deviation_scale: float = 0.15
    innovation_scale: float = 1.0
    obs_noise: float = 0.01
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cks", tuple(float(c) for c in self.cks))
        if self.n_countries < 1 or self.n_ages < 2 or self.n_years < 2:
            raise ConfigError("world dimensions too small")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError("alpha must be in [0, 1)")

    @property
    def n_components(self):
        return len(self.cks) + 1

    def to_dict(self):
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        d["cks"] = list(self.cks)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["cks"] = tuple(d["cks"])
        return cls(**d)


def true_speed(spec, s1):
    """The generator's level velocity: fast high up, stalling at the front."""
    return -spec.v_max * expit((np.asarray(s1, dtype=float) - spec.s_front)
                               / spec.front_width)


def schedule_fields(spec):
    """(base, level, structural) logit-surface fields, each (2, A)."""
    a = np.arange(spec.n_ages, dtype=float)
    rel = a / max(spec.n_ages - 1, 1)
    male = np.array([[0.0], [1.0]])
    base = (-8.0 + 0.125 * a + 1.6 * np.exp(-a / 2.5)
            + 0.38 * male * (0.5 + 0.5 * rel))
    level = (0.05 + 0.07 * np.exp(-a / 12.0)) * np.ones((2, 1)) + 0.008 * male
    structural = []
    for j in range(len(spec.cks)):
        amp = 0.18 * 0.8 ** j
        wave = np.cos(np.pi * (j + 1) * rel + 0.7 * j)
        structural.append(amp * wave * (1.0 + 0.15 * (-1.0) ** j * male))
    return base, level, np.stack(structural) if structural else np.zeros((0, 2, spec.n_ages))


def _ar1(rng, alpha, scale, innovation_scale, shape, start):
    """AR(1) path(s) along axis 0 from a given start, scaled innovations."""
    out = np.empty(shape)
    if out.size == 0:
        return out
    out[0] = start
    step = scale * np.sqrt(max(0.0, 1.0 - alpha * alpha)) * innovation_scale
    for t in range(1, shape[0]):
        out[t] = alpha * out[t - 1] + step * rng.standard_normal(shape[1:])
    return out


@dataclass
class SyntheticWorld:
    """A generated world plus the truth that produced it."""

    spec: SyntheticSpec
    tensor: MortalityTensor
    scores: np.ndarray
    structural_deviations: np.ndarray
    level_deviations: np.ndarray
    entry_years: tuple


def generate(spec=None):
    """Generate a world. Identical spec (and seed) means identical output."""
    spec = spec or SyntheticSpec()
    rng = np.random.default_rng(spec.seed)
    n_struct = len(spec.cks)
    years = np.arange(spec.start_year, spec.start_year + spec.n_years)
    countries = tuple(f"S{c:02d}" for c in range(spec.n_countries))
    T = spec.n_years

    scores = np.full((spec.n_countries, T, spec.n_components), np.nan)
    dev_s = np.full((spec.n_countries, T, n_struct), np.nan)
    dev_v = np.full((spec.n_countries, T), np.nan)

    # initial deviations are centred across the panel so they carry no
    # common component a pooled trajectory fit could soak up
    d0 = spec.deviation_scale * rng.standard_normal((spec.n_countries, n_struct))
    v0 = spec.level_deviation_scale * rng.standard_normal(spec.n_countries)
    s1_init = spec.s1_start + spec.s1_spread * rng.standard_normal(spec.n_countries)
    if spec.n_countries > 1:
        d0 = d0 - d0.mean(axis=0)
        v0 = v0 - v0.mean()

    entries = []
    for c in range(spec.n_countries):
        entry = min((c * spec.stagger) % max(T - 2, 1), T - 2)
        entries.append(int(years[entry]))
        n_obs = T - entry
        eta = _ar1(rng, spec.alpha, spec.level_deviation_scale,
                   spec.innovation_scale, (n_obs,), v0[c])
        delta = _ar1(rng, spec.alpha, spec.deviation_scale,
                     spec.innovation_scale, (n_obs, n_struct), d0[c])
        s1 = float(s1_init[c])
        for i, t in enumerate(range(entry, T)):
            scores[c, t, 0] = s1
            scores[c, t, 1:] = np.asarray(spec.cks) * s1 + delta[i]
            dev_s[c, t] = delta[i]
            dev_v[c, t] = eta[i]
            s1 = s1 + float(true_speed(spec, s1)) + eta[i]

    base, level, structural = schedule_fields(spec)
    fields = np.concatenate([level[None], structural])
    values = base[:, :, None, None] + np.einsum(
        "nsa,ctn->sact", fields, scores, optimize=True)
    values = values + spec.obs_noise * rng.standard_normal(values.shape)
    mask = np.isfinite(values).all(axis=(0, 1))
    tensor = MortalityTensor(values=values, mask=mask, countries=countries,
                             years=years, ages=np.arange(spec.n_ages))
    return SyntheticWorld(spec=spec, tensor=tensor, scores=scores,
                          structural_deviations=dev_s, level_deviations=dev_v,
                          entry_years=tuple(entries))


def to_rows(world):
    """Observation rows in the central-rate CSV layout."""
    tensor = world.tensor
    qx = expit(tensor.values)
    mx = qx / (1.0 - qx / 2.0)
    rows = []
    for c, country in enumerate(tensor.countries):
        for t in np.flatnonzero(tensor.mask[c]):
            year = int(tensor.years[t])
            for s, sex in enumerate(SEXES):
                for a in range(tensor.ages.size):
                    rows.append(RawSeries(country=country, sex=sex,
                                          age=int(tensor.ages[a]), year=year,
                                          mx=float(mx[s, a, c, t])))
    return rows


def write_csv(world, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "sex", "age", "year", "mx"])
        for row in to_rows(world):
            writer.writerow([row.country, row.sex, row.age, row.year,
                             repr(row.mx)])


def write_truth(world, path):
    """Ground-truth parameters for oracle checks on generated data."""
    doc = {
        "spec": world.spec.to_dict(),
        "entry_years": list(world.entry_years),
        "countries": list(world.tensor.countries),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
