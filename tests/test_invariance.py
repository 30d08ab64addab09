"""Whole-pipeline invariance properties on small generated worlds.

Relabelling a panel must not change what the pipeline forecasts: years
shifted by a constant give the same bits, and countries listed in
another order (each keeping its name and data) give every country's e0
within the golden gate's tolerance.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from mortflow.pipeline import FitConfig, fit_model
from mortflow.synth import SyntheticSpec, generate

from test_golden import ATOL, RTOL

HORIZON = 30
CONFIG = FitConfig(n_components=3)


@st.composite
def small_worlds(draw):
    """A 3-5 country, 8-12 age, 30-40 year world from a drawn seed."""
    spec = SyntheticSpec(n_countries=draw(st.integers(3, 5)),
                         n_ages=draw(st.integers(8, 12)),
                         n_years=draw(st.integers(30, 40)), stagger=3,
                         seed=draw(st.integers(0, 2 ** 32 - 1)))
    return generate(spec).tensor


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
