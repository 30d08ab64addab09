import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortflow.errors import DomainError
from mortflow.lifetable import (
    e0_by_sex,
    life_table_e0,
    observed_e0,
    survivorship,
)

from oracles import reference_e0, simulate_cohort_e0


def test_hand_table_constant_hazard():
    # l = 1, .9, .81, .729; L = .93, .855, .7695
    assert life_table_e0(np.full(3, 0.1)) == pytest.approx(2.5545, abs=1e-12)


def test_hand_table_mixed():
    # qx = .5, .2, 1: l = 1, .5, .4, 0; L = .65, .45, .2
    assert life_table_e0(np.array([0.5, 0.2, 1.0])) == pytest.approx(1.3, abs=1e-12)


def test_zero_hazard_gives_full_span():
    assert life_table_e0(np.zeros(7)) == 7.0
    assert life_table_e0(np.zeros(110)) == 110.0


def test_certain_infant_death():
    assert life_table_e0(np.array([1.0, 0.3, 0.9])) == pytest.approx(0.3, abs=0.0)


def test_domain_validation():
    for bad in ([1.2, 0.1], [-0.01, 0.1], [0.1, np.nan]):
        with pytest.raises(DomainError):
            life_table_e0(np.array(bad))


def test_matches_loop_reference():
    rng = np.random.default_rng(4)
    for _ in range(20):
        qx = rng.uniform(0.0, 1.0, size=rng.integers(2, 40))
        assert life_table_e0(qx) == pytest.approx(reference_e0(qx), abs=1e-12)


def test_matches_cohort_simulation():
    rng = np.random.default_rng(5)
    qx = rng.uniform(0.05, 0.6, size=15)
    sim = simulate_cohort_e0(qx, n_paths=400_000, seed=99)
    assert life_table_e0(qx) == pytest.approx(sim, abs=0.02)


def test_batched_evaluation_matches_rows():
    rng = np.random.default_rng(6)
    batch = rng.uniform(0.0, 0.9, size=(4, 3, 12))
    out = life_table_e0(batch)
    assert out.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert out[i, j] == pytest.approx(reference_e0(batch[i, j]), abs=1e-12)


def test_survivorship_chain():
    lx = survivorship(np.array([0.5, 0.2, 1.0]))
    np.testing.assert_allclose(lx, [1.0, 0.5, 0.4, 0.0])


def test_e0_by_sex_shapes():
    rng = np.random.default_rng(7)
    logit_q = rng.normal(-4.0, 1.0, size=(5, 2, 30))
    out = e0_by_sex(logit_q)
    assert out.shape == (5, 2)
    assert np.all(out > 0.0) and np.all(out < 30.0)


def test_observed_e0_matches_each_cell_bit_for_bit():
    rng = np.random.default_rng(8)
    values = rng.normal(-4.0, 1.0, size=(2, 20, 3, 9))
    mask = rng.random((3, 9)) < 0.6
    values[:, :, ~mask] = np.nan  # unobserved cells are never read
    out = observed_e0(values, mask)
    assert out.shape == mask.shape
    assert np.all(np.isnan(out[~mask]))
    for c, t in zip(*np.nonzero(mask)):
        assert out[c, t] == float(e0_by_sex(values[:, :, c, t]).mean())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30), st.data())
def test_raising_any_hazard_lowers_e0(qx, data):
    qx = np.asarray(qx)
    a = data.draw(st.integers(0, qx.size - 1))
    bump = data.draw(st.floats(0.0, 1.0))
    worse = qx.copy()
    worse[a] = min(1.0, worse[a] + bump)
    assert life_table_e0(worse) <= life_table_e0(qx) + 1e-12
