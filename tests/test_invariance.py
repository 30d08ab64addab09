"""Whole-pipeline invariance properties on small generated worlds.

Relabelling a panel must not change what the pipeline forecasts: years
shifted by a constant give the same bits, countries renamed in a way
that keeps their sort order give the same bits through the CSV round
trip, and countries listed in another order (each keeping its name and
data) give every country's e0 within the golden gate's tolerance.  A
country observed in no year, as ingest gives one whose rows never
complete a both-sex year, leaves the other countries' e0 within that
tolerance while the age mode is kept at full rank; a truncated age mode
lets it move them (see the pinned case below).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortflow.data import tensor_from_csv
from mortflow.evaluation import CVConfig, run_inclusive_cv
from mortflow.pipeline import FitConfig, default_ranks, fit_model
from mortflow.synth import SyntheticSpec, generate, write_csv

from test_golden import ATOL, RTOL, _load_regen

HORIZON = 30
CONFIG = FitConfig(n_components=3)


@st.composite
def small_synthetic_worlds(draw):
    """A 3-5 country, 8-12 age, 30-40 year world from a drawn seed."""
    spec = SyntheticSpec(n_countries=draw(st.integers(3, 5)),
                         n_ages=draw(st.integers(8, 12)),
                         n_years=draw(st.integers(30, 40)), stagger=3,
                         seed=draw(st.integers(0, 2 ** 32 - 1)))
    return generate(spec)


def small_worlds():
    return small_synthetic_worlds().map(lambda world: world.tensor)


def _forecasts(fitted, w):
    return {c: fitted.forecast(c, horizon=HORIZON, w=w)
            for c in fitted.model.countries}


@settings(max_examples=15, deadline=None)
@given(tensor=small_worlds(), shift=st.integers(-1900, 200),
       w=st.sampled_from([0.0, 0.5, 1.0]))
def test_shifting_every_year_gives_the_same_bits(tensor, shift, w):
    base = fit_model(tensor, CONFIG)
    moved = fit_model(replace(tensor, years=tensor.years + shift), CONFIG)
    assert moved.origin == base.origin + shift
    assert moved.rates.to_dict() == base.rates.to_dict()
    want, got = _forecasts(base, w), _forecasts(moved, w)
    for country, a in want.items():
        b = got[country]
        np.testing.assert_array_equal(b.years, a.years + shift)
        for field in ("scores", "schedules", "e0_by_sex", "e0_avg"):
            assert getattr(b, field).tobytes() == getattr(a, field).tobytes()


@settings(max_examples=15, deadline=None)
@given(tensor=small_worlds(), data=st.data())
def test_reordering_countries_keeps_every_e0(tensor, data):
    n = len(tensor.countries)
    order = data.draw(st.one_of(st.just(list(range(n))[::-1]),
                                st.permutations(range(n))))
    reordered = replace(tensor, values=tensor.values[:, :, order],
                        mask=tensor.mask[order],
                        countries=tuple(tensor.countries[i] for i in order))
    base, other = fit_model(tensor, CONFIG), fit_model(reordered, CONFIG)
    assert other.model.countries == reordered.countries
    for w in (0.0, 1.0):
        want, got = _forecasts(base, w), _forecasts(other, w)
        for country, a in want.items():
            np.testing.assert_allclose(got[country].e0_avg, a.e0_avg,
                                       rtol=RTOL, atol=ATOL)


def _renamed(name):
    # written quoted, with the inner quotes doubled; read back with the
    # surrounding spaces stripped; sorts as the names it replaces, which
    # all have one length
    return f'  \u00c5se, "{name}" \u00fcber \u03a9  '


@settings(max_examples=8, deadline=None)
@given(world=small_synthetic_worlds(), w=st.sampled_from([0.0, 1.0]))
def test_renaming_countries_in_their_order_gives_the_same_bits(
        tmp_path_factory, world, w):
    plain = tmp_path_factory.getbasetemp() / "plain.csv"
    renamed = tmp_path_factory.getbasetemp() / "renamed.csv"
    names = tuple(map(_renamed, world.tensor.countries))
    write_csv(world, plain)
    write_csv(replace(world, tensor=replace(world.tensor, countries=names)),
              renamed)
    base, other = tensor_from_csv(plain), tensor_from_csv(renamed)
    assert other.countries == tuple(n.strip() for n in names)
    assert '""' in renamed.read_text(encoding="utf-8")
    assert other.values.tobytes() == base.values.tobytes()

    fitted, refitted = fit_model(base, CONFIG), fit_model(other, CONFIG)
    assert refitted.rates.to_dict() == fitted.rates.to_dict()
    for a, b in zip(fitted.model.countries, refitted.model.countries):
        want = fitted.forecast(a, horizon=HORIZON, w=w)
        got = refitted.forecast(b, horizon=HORIZON, w=w)
        for field in ("years", "scores", "schedules", "e0_by_sex", "e0_avg"):
            assert getattr(got, field).tobytes() == \
                getattr(want, field).tobytes()

    config = CVConfig(fit=FitConfig(n_components=3), horizon=10,
                      origin_spacing=5, w=w)
    records = run_inclusive_cv(base, config)
    renamed_records = run_inclusive_cv(other, config)
    assert len(records) == len(renamed_records) > 0
    rename = dict(zip(base.countries, other.countries))
    want, got = records, renamed_records
    assert got.country.tolist() == [rename[c] for c in want.country]
    for name in ("origin", "horizon", "excluded", "e0_hat", "e0_obs", "err",
                 "log_mx_err", "lx_obs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()



def _with_unobserved_country(tensor, source):
    """The tensor plus a last country "ZZZ" observed in no year: it holds
    one country's female rates and no male ones, so its mask is False."""
    extra = np.full(tensor.values.shape[:2] + (1, tensor.years.size), np.nan)
    extra[0, :, 0] = tensor.values[0, :, source]
    return replace(tensor, values=np.concatenate([tensor.values, extra], axis=2),
                   mask=np.vstack([tensor.mask, np.zeros(tensor.years.size,
                                                         dtype=bool)]),
                   countries=tensor.countries + ("ZZZ",))


def _largest_e0_move(tensor, other, config, horizon):
    base, moved = fit_model(tensor, config), fit_model(other, config)
    assert moved.model.countries == other.countries
    return max(float(np.max(np.abs(
        moved.forecast(c, horizon=horizon, w=w).e0_avg
        - base.forecast(c, horizon=horizon, w=w).e0_avg)))
        for c in base.model.countries for w in (0.0, 1.0))


@settings(max_examples=15, deadline=None)
@given(tensor=small_worlds(), data=st.data())
def test_an_unobserved_country_keeps_every_other_e0(tensor, data):
    source = data.draw(st.integers(0, len(tensor.countries) - 1))
    other = _with_unobserved_country(tensor, source)
    # the age mode is full rank at these sizes
    assert default_ranks(other.shape)[1] == other.shape[1]
    base, moved = fit_model(tensor, CONFIG), fit_model(other, CONFIG)
    assert moved.model.countries == other.countries
    for w in (0.0, 1.0):
        for country, a in _forecasts(base, w).items():
            got = moved.forecast(country, horizon=HORIZON, w=w)
            np.testing.assert_allclose(got.e0_avg, a.e0_avg, rtol=RTOL,
                                       atol=ATOL)


def test_an_unobserved_country_moves_e0_where_the_age_mode_truncates():
    # the wide60 golden world, whose 60-age mode is cut to rank 42: the
    # unobserved country's fill (each cell's mean over observed years)
    # enters the age SVD and moves other countries' e0 by 2.4e-6 years,
    # far past the golden tolerance (about 8e-9 years at e0 80)
    tensor = generate(SyntheticSpec(**_load_regen().WIDE_SPEC)).tensor
    other = _with_unobserved_country(tensor, 0)
    assert default_ranks(other.shape)[1] == 42 < other.shape[1]
    move = _largest_e0_move(tensor, other, FitConfig(), horizon=50)
    assert move == pytest.approx(2.4e-6, rel=0.05)
