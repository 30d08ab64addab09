"""PCA of vectorised effective cores.

Every observed (country, year) cell contributes one effective core.
The fitted component scores are the coordinates the forecaster steps
through; the first one orders population-years by overall mortality
level, so it is oriented at fit time to correlate negatively with life
expectancy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .lifetable import e0_by_sex
from .tucker import effective_core, effective_core_grid, reconstruct_schedule


@dataclass
class CorePCA:
    """Mean core, orthonormal loading rows, and variance fractions.

    Vectorisation is row-major over the (r1, r2) effective core.
    """

    g_bar: np.ndarray
    loadings: np.ndarray
    explained_variance: np.ndarray
    core_shape: tuple

    @property
    def n_components(self):
        return self.loadings.shape[0]


def fit_core_pca(model, mask, n_components=5):
    """Fit the score space over all observed cells, equally weighted.

    Loadings are the leading right singular vectors of the centred cloud,
    sign-fixed like the tensor factors; the first row is then flipped if
    needed so its score runs against life expectancy (computed from the
    model's own reconstructed schedules).
    """
    mask = np.asarray(mask, dtype=bool)
    cells = effective_core_grid(model)[mask]
    n = cells.shape[0]
    if n < n_components:
        raise InsufficientDataError(
            f"{n} observed cells cannot support {n_components} components")
    flat = cells.reshape(n, -1)
    g_bar = flat.mean(axis=0)
    centred = flat - g_bar
    _, sv, vt = np.linalg.svd(centred, full_matrices=False)
    if n_components > vt.shape[0]:
        raise InsufficientDataError("more components than the cloud supports")
    loadings = vt[:n_components].copy()
    flip = loadings[np.arange(n_components),
                    np.argmax(np.abs(loadings), axis=1)] < 0
    loadings[flip] *= -1.0
    total = (sv ** 2).sum()
    explained = sv[:n_components] ** 2 / total if total > 0 else \
        np.zeros(n_components)

    s1 = centred @ loadings[0]
    slabs = np.einsum("si,nij,aj->nsa", model.sex_factor, cells,
                      model.age_factor, optimize=True)
    e0 = e0_by_sex(slabs).mean(axis=-1)
    if s1.std() > 0 and e0.std() > 0 and np.corrcoef(s1, e0)[0, 1] > 0:
        loadings[0] *= -1.0

    return CorePCA(g_bar=g_bar, loadings=loadings, explained_variance=explained,
                   core_shape=cells.shape[1:])


def scores(pca, g):
    """Component scores of effective cores, (..., r1, r2) -> (..., N)."""
    g = np.asarray(g, dtype=float)
    return (g.reshape(*g.shape[:-2], -1) - pca.g_bar) @ pca.loadings.T


def inverse(pca, s):
    """N-component effective cores of scores, (..., N) -> (..., r1, r2)."""
    flat = pca.g_bar + np.asarray(s, dtype=float) @ pca.loadings
    return flat.reshape(*flat.shape[:-1], *pca.core_shape)


def score_grid(model, pca):
    """Scores at every (country, year) cell, shape (C, T, N)."""
    return scores(pca, effective_core_grid(model))


def core_score_grids(model, pca):
    """Effective cores (C, T, r1, r2) and their scores (C, T, N).

    The scores are ``score_grid``'s, bit for bit: they are taken from
    einsum's own layout, which sets how they round.  The cores are held
    C-ordered, so that a cell's core is one block and the products that
    read it round alike in fitted and loaded models.
    """
    cores = effective_core_grid(model)
    return np.ascontiguousarray(cores), scores(pca, cores)


def jumpoff_residual(model, pca, c, t, s=None, g=None):
    """Schedule-space gap between the full model and its N-score shadow.

    This is what the forecast adds back at the jump-off and fades out over
    the first horizons.  ``g`` is the cell's effective core if the caller
    holds it (a core-grid row); by default it is contracted here.  ``s``
    is the cell's scores as the forecast starts from them (a score-grid
    row); by default ``g`` is scored.
    """
    if g is None:
        g = effective_core(model, c, t)
    if s is None:
        s = scores(pca, g)
    full = reconstruct_schedule(model, g)
    approx = reconstruct_schedule(model, inverse(pca, s))
    return full - approx
