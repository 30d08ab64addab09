"""Generator tests: determinism, staggering, lockstep truth, formats."""

import json

import numpy as np
import pytest

from mortflow.data import tensor_from_csv
from mortflow.lifetable import e0_by_sex
from mortflow.synth import (
    SyntheticSpec,
    generate,
    schedule_fields,
    to_rows,
    true_speed,
    write_csv,
    write_truth,
)


def small_spec(**kw):
    base = dict(n_countries=3, n_ages=12, n_years=30, stagger=4, seed=5)
    base.update(kw)
    return SyntheticSpec(**base)


def test_generation_is_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    np.testing.assert_array_equal(a.tensor.values, b.tensor.values)
    np.testing.assert_array_equal(a.scores, b.scores)
    c = generate(small_spec(seed=6))
    assert not np.array_equal(np.nan_to_num(a.tensor.values),
                              np.nan_to_num(c.tensor.values))


def test_shapes_and_staggered_entry():
    world = generate(small_spec())
    t = world.tensor
    assert t.values.shape == (2, 12, 3, 30)
    assert t.countries == ("S00", "S01", "S02")
    for c in range(3):
        entry = 4 * c
        assert not t.mask[c, :entry].any()
        assert t.mask[c, entry:].all()
        assert np.isnan(world.scores[c, :entry]).all()
        assert np.isfinite(world.scores[c, entry:]).all()
    assert world.entry_years == (1900, 1904, 1908)


def test_structural_scores_are_lockstep_plus_deviations():
    world = generate(small_spec())
    cks = np.asarray(world.spec.cks)
    for c in range(3):
        obs = np.flatnonzero(world.tensor.mask[c])
        s1 = world.scores[c, obs, 0]
        want = cks * s1[:, None] + world.structural_deviations[c, obs]
        assert np.allclose(world.scores[c, obs, 1:], want, rtol=1e-12)


def test_zero_innovation_deviations_decay_exponentially():
    spec = small_spec(innovation_scale=0.0, alpha=0.7)
    world = generate(spec)
    for c in range(3):
        obs = np.flatnonzero(world.tensor.mask[c])
        dev = world.structural_deviations[c, obs]
        steps = np.arange(obs.size)
        want = dev[0] * 0.7 ** steps[:, None]
        assert np.allclose(dev, want, rtol=1e-10)


def test_level_follows_speed_field_exactly_without_deviations():
    spec = small_spec(level_deviation_scale=0.0)
    world = generate(spec)
    for c in range(3):
        obs = np.flatnonzero(world.tensor.mask[c])
        s1 = world.scores[c, obs, 0]
        inc = np.diff(s1)
        assert np.allclose(inc, true_speed(spec, s1[:-1]), rtol=1e-12)


def test_speed_field_is_negative_and_monotone():
    spec = small_spec()
    grid = np.linspace(-5.0, 30.0, 40)
    v = true_speed(spec, grid)
    assert np.all(v < 0.0)
    assert np.all(np.abs(v) <= spec.v_max)
    assert np.all(np.diff(v) < 0.0)  # faster decline further from the front


def test_schedule_fields_shapes():
    spec = small_spec()
    base, level, structural = schedule_fields(spec)
    assert base.shape == (2, 12)
    assert level.shape == (2, 12)
    assert structural.shape == (len(spec.cks), 2, 12)
    assert np.all(level > 0.0)  # higher level score means higher mortality


def average_ranks(x):
    """1-based ranks, tied values sharing the mean of their positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def spearman_rho(x, y):
    """Spearman's rank correlation: Pearson's on the average ranks."""
    return np.corrcoef(average_ranks(x), average_ranks(y))[0, 1]


def test_spearman_rho_ranks_ties_by_their_mean():
    np.testing.assert_array_equal(average_ranks([3.0, 1.0, 3.0, 2.0]),
                                  [3.5, 1.0, 3.5, 2.0])
    assert spearman_rho([1.0, 2.0, 3.0], [9.0, 4.0, 1.0]) == pytest.approx(-1.0)
    # ranks (1, 2.5, 2.5, 4) and (1, 2, 4, 3): 3 / sqrt(4.5 * 5)
    assert spearman_rho([1.0, 2.0, 2.0, 5.0],
                        [1.0, 2.0, 4.0, 3.0]) == pytest.approx(
        3.0 / np.sqrt(4.5 * 5.0), rel=1e-12)


def test_e0_is_monotone_in_level_score():
    spec = small_spec(n_ages=30, n_years=60,
                      deviation_scale=0.0, level_deviation_scale=0.0,
                      obs_noise=0.0)
    world = generate(spec)
    t = world.tensor
    pairs = []
    for c in range(spec.n_countries):
        obs = np.flatnonzero(t.mask[c])
        slabs = np.moveaxis(t.values[:, :, c, obs], -1, 0)
        e0 = e0_by_sex(slabs).mean(axis=-1)
        pairs.append(np.column_stack([world.scores[c, obs, 0], e0]))
    pairs = np.vstack(pairs)
    rho = spearman_rho(pairs[:, 0], pairs[:, 1])
    assert rho < -0.999


def test_csv_round_trip(tmp_path):
    world = generate(small_spec())
    path = tmp_path / "world.csv"
    write_csv(world, path)
    tensor = tensor_from_csv(path)
    assert tensor.countries == world.tensor.countries
    np.testing.assert_array_equal(tensor.mask, world.tensor.mask)
    np.testing.assert_array_equal(tensor.years, world.tensor.years)
    obs = world.tensor.mask
    assert np.allclose(tensor.values[:, :, obs], world.tensor.values[:, :, obs],
                       rtol=1e-9)


def test_row_count_matches_observed_cells():
    world = generate(small_spec())
    rows = to_rows(world)
    assert len(rows) == int(world.tensor.mask.sum()) * 2 * 12


def test_truth_file_round_trip(tmp_path):
    spec = small_spec(alpha=0.9, innovation_scale=0.0)
    world = generate(spec)
    path = tmp_path / "truth.json"
    write_truth(world, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert SyntheticSpec.from_dict(doc["spec"]) == spec
    assert doc["entry_years"] == list(world.entry_years)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(alpha=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(n_ages=1)
