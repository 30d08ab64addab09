"""Period life table reduced to the part the forecaster needs.

The chain starts from single-age death probabilities qx and produces
life expectancy at birth.  Infant deaths are assumed to occur early in
the year of age (average 0.3 years lived); all later deaths at midyear.
"""

import numpy as np

from .errors import DomainError


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), elementwise.

    Overflow of exp(-x) is silent and gives 0.0, so -inf maps to 0.0,
    inf to 1.0 and nan to nan.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def logit(p):
    """Log-odds log(p / (1 - p)), elementwise; the inverse of expit.

    The edges are silent: logit(0) = -inf, logit(1) = inf, and values
    outside [0, 1] or nan give nan.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(p / (1.0 - p))


def survivorship(qx):
    """Survivor column l_a for a = 0..A, starting at l_0 = 1.

    Accepts batched input with ages on the last axis and returns an array
    with one extra trailing entry (the survivors past the final age).
    """
    qx = _validated(qx)
    ones = np.ones(qx.shape[:-1] + (1,))
    return np.concatenate([ones, np.cumprod(1.0 - qx, axis=-1)], axis=-1)


def life_table_e0(qx):
    """Life expectancy at birth from single-age death probabilities.

    Parameters
    ----------
    qx : array_like, shape (..., A)
        Death probabilities in [0, 1]; ages on the last axis.

    Returns
    -------
    float or ndarray
        Person-years lived per newborn, truncated at the last age:
        e0 = L_0 + sum_{a>=1} L_a with L_0 = 0.3 + 0.7 l_1 and
        L_a = (l_a + l_{a+1}) / 2.

    Raises
    ------
    DomainError
        If any probability falls outside [0, 1].
    """
    l = survivorship(qx)  # validates qx
    e0 = 0.3 + 0.7 * l[..., 1] + 0.5 * (l[..., 1:-1] + l[..., 2:]).sum(axis=-1)
    return float(e0) if e0.ndim == 0 else e0


def e0_by_sex(logit_qx):
    """Per-sex life expectancy from a logit-scale schedule (..., S, A)."""
    return life_table_e0(expit(np.asarray(logit_qx, dtype=float)))


def observed_e0(values, mask):
    """Sex-averaged e0 of every observed cell, NaN elsewhere.

    (S, A, C, T) logit values and a (C, T) mask in, (C, T) out; each cell
    equals ``e0_by_sex(values[:, :, c, t]).mean()`` bit for bit.
    """
    out = np.full(mask.shape, np.nan)
    out[mask] = e0_by_sex(np.moveaxis(values[:, :, mask], -1, 0)).mean(axis=-1)
    return out


def _validated(qx):
    qx = np.asarray(qx, dtype=float)
    if qx.shape[-1] < 1:
        raise DomainError("need at least one age")
    if not np.all((qx >= 0.0) & (qx <= 1.0)):
        raise DomainError("death probabilities must lie in [0, 1]")
    return qx
