import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mortflow.data import MortalityTensor
from mortflow.errors import DataError, RankError
from mortflow.tucker import (
    effective_core,
    effective_core_grid,
    fill_missing,
    full_reconstruction,
    hosvd,
    project_schedule,
    reconstruct_schedule,
)

from oracles import reference_effective_core, reference_hosvd


def make_tensor(values, mask=None):
    values = np.asarray(values, dtype=float)
    _, A, C, T = values.shape
    if mask is None:
        mask = np.ones((C, T), dtype=bool)
    return MortalityTensor(
        values=values, mask=mask,
        countries=tuple(f"C{i}" for i in range(C)),
        years=np.arange(2000, 2000 + T), ages=np.arange(A),
    )


def random_tensor(rng, shape=(2, 8, 5, 12)):
    return make_tensor(rng.normal(size=shape))


# ----------------------------------------------------------------------
# Decomposition
# ----------------------------------------------------------------------

def test_full_rank_hosvd_is_exact():
    rng = np.random.default_rng(10)
    tensor = random_tensor(rng)
    model = hosvd(tensor, ranks=(2, 8, 5, 12))
    recon = full_reconstruction(model)
    rel = np.linalg.norm(recon - tensor.values) / np.linalg.norm(tensor.values)
    assert rel < 1e-8
    for factor in (model.sex_factor, model.age_factor,
                   model.country_factor, model.year_factor):
        gram = factor.T @ factor
        assert np.linalg.norm(gram - np.eye(gram.shape[0])) < 1e-10


def test_truncation_still_approximates():
    rng = np.random.default_rng(11)
    # low-rank signal plus small noise: truncated model recovers most of it
    u = rng.normal(size=(2, 2))
    v = rng.normal(size=(8, 3))
    w = rng.normal(size=(5, 3))
    z = rng.normal(size=(12, 4))
    core = rng.normal(size=(2, 3, 3, 4))
    signal = np.einsum("ijkl,si,aj,ck,tl->sact", core, u, v, w, z)
    tensor = make_tensor(signal + 0.01 * rng.normal(size=signal.shape))
    model = hosvd(tensor, ranks=(2, 3, 3, 4))
    recon = full_reconstruction(model)
    rel = np.linalg.norm(recon - signal) / np.linalg.norm(signal)
    assert rel < 0.02


def test_sign_convention_and_determinism():
    rng = np.random.default_rng(12)
    tensor = random_tensor(rng)
    m1 = hosvd(tensor, ranks=(2, 4, 3, 6))
    m2 = hosvd(tensor, ranks=(2, 4, 3, 6))
    for f1, f2 in zip(
        (m1.sex_factor, m1.age_factor, m1.country_factor, m1.year_factor, m1.core),
        (m2.sex_factor, m2.age_factor, m2.country_factor, m2.year_factor, m2.core),
    ):
        np.testing.assert_array_equal(f1, f2)
    for factor in (m1.sex_factor, m1.age_factor, m1.country_factor, m1.year_factor):
        for col in factor.T:
            assert col[np.argmax(np.abs(col))] > 0


def test_rank_validation():
    rng = np.random.default_rng(13)
    tensor = random_tensor(rng)
    with pytest.raises(RankError):
        hosvd(tensor, ranks=(3, 8, 5, 12))
    with pytest.raises(RankError):
        hosvd(tensor, ranks=(2, 9, 5, 12))


def test_rank_beyond_the_spectrum_raises_for_a_full_size_mode():
    # rank 10 equals the year size but exceeds the spectrum: 10 > 40 // 10
    tensor = random_tensor(np.random.default_rng(25), shape=(2, 2, 1, 10))
    with pytest.raises(RankError, match="spectrum of the year mode"):
        hosvd(tensor, ranks=(2, 2, 1, 10))
    assert hosvd(tensor, ranks=(2, 2, 1, 4)).year_factor.shape == (10, 4)


def test_full_rank_country_and_year_factors_are_identity():
    rng = np.random.default_rng(26)
    mask = rng.random((5, 12)) < 0.7
    values = np.where(mask, rng.normal(size=(2, 8, 5, 12)), np.nan)
    tensor = make_tensor(values, mask)
    model = hosvd(tensor, ranks=(2, 8, 5, 12))
    assert model.country_factor.dtype == model.year_factor.dtype == float
    np.testing.assert_array_equal(model.country_factor, np.eye(5))
    np.testing.assert_array_equal(model.year_factor, np.eye(12))
    # the sex and age factors stay SVD bases even at full rank
    assert not np.array_equal(model.sex_factor, np.eye(2))
    assert not np.array_equal(model.age_factor, np.eye(8))
    # each core slab is its cell's effective core, bit for bit
    np.testing.assert_array_equal(effective_core_grid(model),
                                  np.moveaxis(model.core, (2, 3), (0, 1)))
    filled = fill_missing(values, mask)
    np.testing.assert_allclose(
        model.core[:, :, 3, 7],
        model.sex_factor.T @ filled[:, :, 3, 7] @ model.age_factor,
        rtol=0, atol=1e-13)
    again = hosvd(tensor, ranks=(2, 8, 5, 12))
    for f1, f2 in zip(model.factors + (model.core,),
                      again.factors + (again.core,)):
        assert f1.tobytes() == f2.tobytes()
    assert model.core.flags.c_contiguous


@st.composite
def hosvd_cases(draw):
    """A small tensor, a mask with at least one observed cell, and ranks
    that keep some modes whole and truncate others."""
    shape = (2, draw(st.integers(2, 8)), draw(st.integers(1, 5)),
             draw(st.integers(2, 10)))
    size = int(np.prod(shape))
    ranks = []
    for dim in shape:
        cap = min(dim, size // dim)
        ranks.append(cap if draw(st.booleans())
                     else draw(st.integers(1, cap)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random(shape[2:]) < draw(st.floats(0.2, 1.0))
    mask.flat[rng.integers(mask.size)] = True
    values = np.where(mask, rng.normal(size=shape), np.nan)
    return make_tensor(values, mask), tuple(ranks)


def _separated(tensor, mode, rank):
    """True when the mode's retained singular values are distinct and
    clear of the discarded ones, so its factor is defined to rounding."""
    values = fill_missing(tensor.values, tensor.mask)
    dim = values.shape[mode]
    sv = np.linalg.svd(np.moveaxis(values, mode, 0).reshape(dim, -1),
                       compute_uv=False)
    sv = np.append(sv, 0.0)
    live = sv[:rank + 1] > 1e-8 * sv[0]
    gaps = -np.diff(sv[:rank + 1])
    return bool(np.all(gaps[live[:-1] & live[1:]] > 1e-4 * sv[0])
                and (rank == dim or sv[rank - 1] - sv[rank] > 1e-4 * sv[0]))


@settings(max_examples=200, deadline=None)
@given(hosvd_cases())
def test_hosvd_matches_the_full_svd_reference(case):
    tensor, ranks = case
    assume(all(_separated(tensor, mode, rank)
               for mode, rank in enumerate(ranks)))
    got, want = hosvd(tensor, ranks), reference_hosvd(tensor, ranks)
    assert got.core.shape == want.core.shape == ranks
    g_got, g_want = effective_core_grid(got), effective_core_grid(want)
    np.testing.assert_allclose(g_got, g_want, rtol=0,
                               atol=1e-10 * np.abs(g_want).max())
    for f_got, f_want, rank in zip(got.factors, want.factors, ranks):
        dim = f_want.shape[0]
        if rank < dim:
            np.testing.assert_allclose(f_got @ f_got.T, f_want @ f_want.T,
                                       rtol=0, atol=1e-10)
        elif f_got is got.country_factor or f_got is got.year_factor:
            assert np.array_equal(f_got, np.eye(dim))


def test_missing_slices_filled_with_cell_means():
    rng = np.random.default_rng(14)
    values = rng.normal(size=(2, 4, 3, 5))
    mask = np.ones((3, 5), dtype=bool)
    mask[1, 2] = False
    mask[2, 4] = False
    values[:, :, 1, 2] = np.nan
    filled = fill_missing(values, mask)
    expected = values[:, :, mask].mean(axis=-1)
    np.testing.assert_allclose(filled[:, :, 1, 2], expected)
    np.testing.assert_allclose(filled[:, :, 2, 4], expected)
    # observed cells untouched
    np.testing.assert_array_equal(filled[:, :, 0, 0], values[:, :, 0, 0])

    tensor = make_tensor(values, mask)
    manual = make_tensor(filled)
    m1 = hosvd(tensor, ranks=(2, 3, 2, 3))
    m2 = hosvd(manual, ranks=(2, 3, 2, 3))
    np.testing.assert_array_equal(m1.core, m2.core)


def test_all_missing_raises():
    values = np.full((2, 3, 2, 2), np.nan)
    mask = np.zeros((2, 2), dtype=bool)
    with pytest.raises(DataError):
        fill_missing(values, mask)


# ----------------------------------------------------------------------
# Effective cores and schedule reconstruction
# ----------------------------------------------------------------------

def test_effective_core_scalar_contraction():
    rng = np.random.default_rng(15)
    tensor = random_tensor(rng, shape=(2, 6, 4, 7))
    model = hosvd(tensor, ranks=(2, 3, 2, 3))
    model.country_factor[0] = [2.0, 0.0]
    model.year_factor[0] = [3.0, 0.0, 0.0]
    np.testing.assert_allclose(
        effective_core(model, 0, 0), 6.0 * model.core[:, :, 0, 0], atol=1e-12
    )


def test_effective_core_matches_loop_reference():
    rng = np.random.default_rng(16)
    tensor = random_tensor(rng, shape=(2, 5, 3, 6))
    model = hosvd(tensor, ranks=(2, 4, 3, 4))
    for c in range(3):
        for t in range(6):
            ref = reference_effective_core(
                model.core, model.country_factor[c], model.year_factor[t]
            )
            np.testing.assert_allclose(effective_core(model, c, t), ref, atol=1e-10)


def test_effective_core_grid_matches_single_cells():
    rng = np.random.default_rng(17)
    tensor = random_tensor(rng, shape=(2, 5, 3, 6))
    model = hosvd(tensor, ranks=(2, 3, 2, 4))
    grid = effective_core_grid(model)
    assert grid.shape == (3, 6, 2, 3)
    for c in range(3):
        for t in range(6):
            np.testing.assert_allclose(grid[c, t], effective_core(model, c, t),
                                       atol=1e-12)


def test_reconstruct_then_full_identity():
    # stitching per-cell reconstructions together equals the full tensor
    rng = np.random.default_rng(18)
    tensor = random_tensor(rng, shape=(2, 5, 3, 6))
    model = hosvd(tensor, ranks=(2, 5, 3, 6))
    full = full_reconstruction(model)
    for c in range(3):
        for t in range(6):
            slab = reconstruct_schedule(model, effective_core(model, c, t))
            np.testing.assert_allclose(slab, full[:, :, c, t], atol=1e-10)


def test_projection_round_trip_and_orthogonal_rejection():
    rng = np.random.default_rng(19)
    tensor = random_tensor(rng, shape=(2, 8, 4, 9))
    model = hosvd(tensor, ranks=(2, 4, 3, 5))
    g = rng.normal(size=(2, 4))
    z = reconstruct_schedule(model, g)
    np.testing.assert_allclose(project_schedule(model, z), g, atol=1e-10)
    # add a component orthogonal to the age column space: projection unchanged
    q, _ = np.linalg.qr(np.hstack([model.age_factor, rng.normal(size=(8, 4))]))
    v_perp = q[:, 4]
    z_noisy = z + np.outer(model.sex_factor[:, 0], v_perp)
    np.testing.assert_allclose(project_schedule(model, z_noisy), g, atol=1e-10)


@pytest.mark.parametrize("seed,shape,ranks", [
    (21, (2, 8, 4, 9), (2, 4, 3, 5)),
    (22, (2, 30, 6, 20), (2, 12, 6, 10)),
    (23, (2, 15, 5, 12), (1, 15, 5, 12)),
])
def test_projection_equals_pseudoinverse_solution(seed, shape, ranks):
    rng = np.random.default_rng(seed)
    model = hosvd(random_tensor(rng, shape=shape), ranks=ranks)
    z = rng.normal(size=shape[:2])
    want = (np.linalg.pinv(model.sex_factor) @ z
            @ np.linalg.pinv(model.age_factor).T)
    np.testing.assert_allclose(project_schedule(model, z), want, rtol=0,
                               atol=1e-12)


def test_batched_projection_equals_per_schedule_calls():
    rng = np.random.default_rng(24)
    model = hosvd(random_tensor(rng, shape=(2, 8, 4, 9)), ranks=(2, 4, 3, 5))
    z = rng.normal(size=(3, 5, 2, 8))
    g = project_schedule(model, z)
    assert g.shape == (3, 5, 2, 4)
    for i in range(3):
        for j in range(5):
            np.testing.assert_allclose(
                g[i, j], project_schedule(model, z[i, j]), rtol=0, atol=1e-14)
    with pytest.raises(DataError, match="shape"):
        project_schedule(model, z[..., :7])
    z[1, 2, 0, 3] = np.inf
    with pytest.raises(DataError):
        project_schedule(model, z)


def test_projection_rejects_nan():
    rng = np.random.default_rng(20)
    tensor = random_tensor(rng, shape=(2, 4, 3, 5))
    model = hosvd(tensor, ranks=(2, 3, 2, 3))
    z = np.full((2, 4), np.nan)
    with pytest.raises(DataError):
        project_schedule(model, z)
