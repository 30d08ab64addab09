import numpy as np
import pytest

from mortflow.data import MortalityTensor
from mortflow.errors import InsufficientDataError
from mortflow.lifetable import e0_by_sex
from mortflow.pca import (
    CorePCA,
    fit_core_pca,
    inverse,
    jumpoff_residual,
    score_grid,
    scores,
)
from mortflow.tucker import effective_core, hosvd, reconstruct_schedule


def orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(cols, rows)))
    return q[:, :rows].T


def planted_tensor(rng, n_countries=4, n_years=9, n_dims=3,
                   scales=(6.0, 2.0, 0.7)):
    """Schedules generated from an exact affine score model.

    Returns the tensor together with the planted per-cell scores.
    """
    s0, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    a0, _ = np.linalg.qr(rng.normal(size=(8, 5)))
    g_bar = rng.normal(-4.0, 0.5, size=10)
    v0 = orthonormal(rng, n_dims, 10)
    s_cells = rng.normal(size=(n_countries * n_years, n_dims)) * np.array(scales[:n_dims])
    values = np.empty((2, 8, n_countries, n_years))
    for idx in range(s_cells.shape[0]):
        c, t = divmod(idx, n_years)
        g = (g_bar + s_cells[idx] @ v0).reshape(2, 5)
        values[:, :, c, t] = s0 @ g @ a0.T
    tensor = MortalityTensor(
        values=values, mask=np.ones((n_countries, n_years), dtype=bool),
        countries=tuple(f"C{i}" for i in range(n_countries)),
        years=np.arange(2000, 2000 + n_years), ages=np.arange(8),
    )
    return tensor, s_cells


def test_round_trip_in_exact_subspace():
    rng = np.random.default_rng(30)
    tensor, _ = planted_tensor(rng)
    model = hosvd(tensor, ranks=(2, 5, 4, 9))
    pca = fit_core_pca(model, tensor.mask, n_components=3)
    for c in (0, 2):
        for t in (0, 5, 8):
            g = effective_core(model, c, t)
            s = scores(pca, g)
            np.testing.assert_allclose(inverse(pca, s), g, atol=1e-10)


def test_explained_variance_sums_to_one_in_exact_subspace():
    rng = np.random.default_rng(31)
    tensor, _ = planted_tensor(rng)
    model = hosvd(tensor, ranks=(2, 5, 4, 9))
    pca = fit_core_pca(model, tensor.mask, n_components=3)
    assert pca.explained_variance.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(pca.explained_variance) <= 1e-12)
    # loadings rows orthonormal
    gram = pca.loadings @ pca.loadings.T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_scores_inverse_arithmetic():
    rng = np.random.default_rng(32)
    loadings = orthonormal(rng, 4, 12)
    pca = CorePCA(g_bar=rng.normal(size=12), loadings=loadings,
                  explained_variance=np.array([0.6, 0.25, 0.1, 0.05]),
                  core_shape=(2, 6))
    s = rng.normal(size=4)
    np.testing.assert_allclose(scores(pca, inverse(pca, s)), s, atol=1e-12)
    # manual projection matches
    g = rng.normal(size=(2, 6))
    expected = np.array([(g.reshape(-1) - pca.g_bar) @ row for row in loadings])
    np.testing.assert_allclose(scores(pca, g), expected, atol=1e-12)


def test_first_component_tracks_mortality_level():
    rng = np.random.default_rng(33)
    # dominant direction is a strictly positive logit field: higher score,
    # higher mortality everywhere, lower e0
    base = rng.normal(-4.0, 0.3, size=(2, 8))
    level = 0.5 + rng.uniform(0.0, 1.0, size=(2, 8))
    tilt = 0.2 * rng.normal(size=(2, 8))
    s1 = 3.0 * rng.normal(size=(4, 9))
    s2 = 0.5 * rng.normal(size=(4, 9))
    values = (base[:, :, None, None] + s1 * level[:, :, None, None]
              + s2 * tilt[:, :, None, None])
    tensor = MortalityTensor(
        values=values, mask=np.ones((4, 9), dtype=bool),
        countries=("C0", "C1", "C2", "C3"),
        years=np.arange(2000, 2009), ages=np.arange(8),
    )
    model = hosvd(tensor, ranks=(2, 3, 4, 9))
    pca = fit_core_pca(model, tensor.mask, n_components=2)
    grid = score_grid(model, pca)
    e0 = e0_by_sex(np.moveaxis(tensor.values, (2, 3), (0, 1))).mean(axis=-1)
    corr = np.corrcoef(grid[tensor.mask][:, 0], e0[tensor.mask])[0, 1]
    assert corr < -0.9


def test_batched_scores_and_inverse_equal_per_item_calls():
    rng = np.random.default_rng(39)
    tensor, _ = planted_tensor(rng)
    model = hosvd(tensor, ranks=(2, 5, 4, 9))
    pca = fit_core_pca(model, tensor.mask, n_components=3)
    g = rng.normal(size=(4, 6, 2, 5))
    s = scores(pca, g)
    assert s.shape == (4, 6, 3)
    back = inverse(pca, s)
    assert back.shape == (4, 6, 2, 5)
    for i in range(4):
        for j in range(6):
            np.testing.assert_allclose(s[i, j], scores(pca, g[i, j]), rtol=0,
                                       atol=1e-13)
            np.testing.assert_allclose(back[i, j], inverse(pca, s[i, j]),
                                       rtol=0, atol=1e-13)
    # the score grid is scores() of every effective core
    grid = score_grid(model, pca)
    for c in range(4):
        for t in range(9):
            np.testing.assert_allclose(
                grid[c, t], scores(pca, effective_core(model, c, t)),
                rtol=0, atol=1e-12)


def test_non_leading_rows_keep_canonical_sign():
    rng = np.random.default_rng(34)
    tensor, _ = planted_tensor(rng)
    model = hosvd(tensor, ranks=(2, 5, 4, 9))
    pca = fit_core_pca(model, tensor.mask, n_components=3)
    for row in pca.loadings[1:]:
        assert row[np.argmax(np.abs(row))] > 0


def test_jumpoff_residual_zero_in_span():
    rng = np.random.default_rng(35)
    tensor, _ = planted_tensor(rng)
    model = hosvd(tensor, ranks=(2, 5, 4, 9))
    pca = fit_core_pca(model, tensor.mask, n_components=3)
    res = jumpoff_residual(model, pca, 1, 4)
    assert np.abs(res).max() < 1e-10


def test_jumpoff_residual_captures_out_of_span_component():
    rng = np.random.default_rng(36)
    # plant 4 dims but keep only 3 components: the dropped direction must
    # land in the jump-off residual
    tensor, _ = planted_tensor(rng, n_dims=4, scales=(6.0, 2.0, 0.7, 0.25))
    model = hosvd(tensor, ranks=(2, 5, 4, 9))
    pca = fit_core_pca(model, tensor.mask, n_components=3)
    c, t = 2, 3
    g = effective_core(model, c, t)
    centred = g.reshape(-1) - pca.g_bar
    dropped = centred - pca.loadings.T @ (pca.loadings @ centred)
    expected = reconstruct_schedule(model, dropped.reshape(pca.core_shape))
    np.testing.assert_allclose(jumpoff_residual(model, pca, c, t), expected,
                               atol=1e-10)
    assert np.abs(expected).max() > 1e-3


def test_insufficient_cells_raise():
    rng = np.random.default_rng(37)
    tensor, _ = planted_tensor(rng)
    mask = np.zeros_like(tensor.mask)
    mask[0, :3] = True
    with pytest.raises(InsufficientDataError):
        fit_core_pca(hosvd(tensor, ranks=(2, 5, 4, 9)), mask, n_components=5)


def test_fit_is_deterministic():
    rng = np.random.default_rng(38)
    tensor, _ = planted_tensor(rng)
    model = hosvd(tensor, ranks=(2, 5, 4, 9))
    p1 = fit_core_pca(model, tensor.mask, n_components=3)
    p2 = fit_core_pca(model, tensor.mask, n_components=3)
    np.testing.assert_array_equal(p1.g_bar, p2.g_bar)
    np.testing.assert_array_equal(p1.loadings, p2.loadings)
    np.testing.assert_array_equal(p1.explained_variance, p2.explained_variance)
