"""Truncated higher-order SVD of the mortality tensor.

The decomposition factors the (sex, age, country, year) logit tensor
into orthonormal per-mode bases and a core.  Collapsing the core with
one country row and one year row yields a small sex-by-age "effective
core" g, and S g A^T maps it back to a full schedule; that matrix is
the object the rest of the pipeline works with.  Since g depends on the
country and year bases only through C C^T and T T^T, a country or year
mode kept at full rank gets the identity factor, and the core then holds
every cell's effective core as it is.  The sex and age bases are always
singular vectors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, RankError

MODE_NAMES = ("sex", "age", "country", "year")


@dataclass
class TuckerModel:
    """Orthonormal factor matrices, the core, and axis labels."""

    sex_factor: np.ndarray
    age_factor: np.ndarray
    country_factor: np.ndarray
    year_factor: np.ndarray
    core: np.ndarray
    countries: tuple
    years: np.ndarray
    ages: np.ndarray

    @property
    def ranks(self):
        return self.core.shape

    @property
    def factors(self):
        return (self.sex_factor, self.age_factor,
                self.country_factor, self.year_factor)


def fill_missing(values, mask):
    """Replace unobserved (country, year) slices with per-cell means.

    The mean is taken over observed slices separately for every
    (sex, age) cell.  The fill only feeds the basis estimation; nothing
    downstream ever reads reconstructed values at unobserved cells.
    """
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise DataError("tensor has no observed cells")
    filled = values.copy()
    cell_mean = values[:, :, mask].mean(axis=-1)
    filled[:, :, ~mask] = cell_mean[:, :, None]
    if not np.isfinite(filled).all():
        raise DataError("observed cells contain non-finite values")
    return filled


def hosvd(tensor, ranks):
    """Truncated HOSVD with a canonical sign convention.

    Parameters
    ----------
    tensor : MortalityTensor
        Unobserved cells are mean-filled before the factorisation.
    ranks : tuple of 4 ints
        Retained components per mode; each must lie in 1..size and must
        not exceed the mode's spectrum, min(size, tensor.size // size).

    Returns
    -------
    TuckerModel

    Notes
    -----
    The pipeline reads the factorization only through the effective
    cores G_ct = sum_kl core[:, :, k, l] C[c, k] T[t, l].  When the
    country and year factors C and T are square, C C^T = T T^T = I and
    G_ct = S^T X[:, :, c, t] A, whatever basis they hold.  So a country
    or year mode kept at full rank gets the identity factor and no SVD,
    and core[:, :, c, t] is then exactly the effective core of cell
    (c, t).  The sex and age factors S and A, and a truncated country or
    year factor, hold the leading left singular vectors of the mode
    unfolding M.  They come from the SVD of R^T, where M^T = QR: M and
    R^T share their left singular vectors, and the wide M's right
    vectors are never formed.  S and A stay SVD bases even at full rank,
    because the core PCA and its sign convention are expressed in them.
    Every SVD factor is flipped column by column so that its
    largest-magnitude entry is positive, and identical input yields
    byte-identical output.
    """
    values = fill_missing(tensor.values, tensor.mask)
    if len(ranks) != 4:
        raise RankError("ranks must have one entry per mode")
    factors = []
    for mode, rank in enumerate(ranks):
        dim = values.shape[mode]
        if not 1 <= rank <= dim:
            raise RankError(
                f"rank {rank} invalid for {MODE_NAMES[mode]} mode of size {dim}")
        if rank > values.size // dim:
            raise RankError(
                f"rank {rank} exceeds the spectrum of the {MODE_NAMES[mode]} mode")
        if mode >= 2 and rank == dim:
            factors.append(np.eye(dim))
            continue
        unfolding = np.moveaxis(values, mode, 0).reshape(dim, -1)
        r = np.linalg.qr(unfolding.T, mode="r")
        u, _, _ = np.linalg.svd(r.T, full_matrices=False)
        u = u[:, :rank].copy()
        flip = u[np.argmax(np.abs(u), axis=0), np.arange(rank)] < 0
        u[:, flip] *= -1.0
        factors.append(u)
    s, a, c, t = factors
    core = np.einsum("sact,si,aj->ijct", values, s, a, optimize=True)
    if (c.shape[1], t.shape[1]) != values.shape[2:]:
        core = np.einsum("ijct,ck,tl->ijkl", core, c, t, optimize=True)
    # C order, as load_model gives it: the contractions over the core round
    # by its layout, so a fitted and a loaded model agree bit for bit
    return TuckerModel(sex_factor=s, age_factor=a, country_factor=c,
                       year_factor=t, core=np.ascontiguousarray(core),
                       countries=tensor.countries,
                       years=np.asarray(tensor.years).copy(),
                       ages=np.asarray(tensor.ages).copy())


def effective_core(model, c, t):
    """Core collapsed with country row c and year row t: an (r1, r2) matrix."""
    return (model.core @ model.year_factor[t]) @ model.country_factor[c]


def effective_core_grid(model):
    """Effective cores for every (country, year) cell, shape (C, T, r1, r2)."""
    return np.einsum("ijkl,ck,tl->ctij", model.core,
                     model.country_factor, model.year_factor, optimize=True)


def reconstruct_schedule(model, g):
    """Map an effective core back to a (sex, age) logit schedule."""
    return model.sex_factor @ g @ model.age_factor.T


def full_reconstruction(model):
    """Rebuild the whole tensor from the model (diagnostics and tests)."""
    return np.einsum("ijkl,si,aj,ck,tl->sact", model.core, *model.factors,
                     optimize=True)


def project_schedule(model, z):
    """Least-squares effective cores for logit schedules, (..., S, A).

    Solves min_g ||z - S g A^T||_F for each schedule.  The sex and age
    factors must be orthonormal (F^T F = I, as hosvd makes them; loading
    an artifact checks it), so the solution is S^T z A.  An out-of-span
    component of z is discarded here and resurfaces as the jump-off
    residual.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-2:] != (model.sex_factor.shape[0], model.age_factor.shape[0]):
        raise DataError(f"schedule shape {z.shape} does not match the model")
    if not np.isfinite(z).all():
        raise DataError("schedule contains non-finite values")
    return model.sex_factor.T @ z @ model.age_factor
