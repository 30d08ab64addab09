"""One-file model persistence.

A fit serializes to a single canonical JSON document: arrays travel as
base64 blocks of row-major values (floats little-endian f8), every map
is emitted with sorted keys and no whitespace, and the fit configuration
is fingerprinted with SHA-256.  The same fit therefore always produces
byte-identical files, and a loaded model forecasts bit-for-bit like the
one that was saved.
"""

import base64
import hashlib
import json

import numpy as np

from .convergence import RelaxationRates
from .data import SEXES
from .errors import ArtifactError, DataError, TailConfigError
from .flowfield import FlowField
from .forecast import PICalibration
from .pca import CorePCA
from .pipeline import FitConfig, FittedModel
from .smoothing import ExtendedFn, SmoothFn
from .tucker import TuckerModel

FORMAT_VERSION = "mortflow-model-v1"
TUCKER_VERSION = "tucker-v1"
FLOWFIELD_VERSION = "flowfield-v1"

# recorded in the file so alternate readers agree on byte order and on
# how the factorization's unfoldings were laid out
LAYOUT_NOTE = ("arrays: row-major base64 blocks, dtype as tagged, floats "
               "little-endian f8; unfoldings: mode-n matricization with "
               "remaining modes in ascending order")

# largest |F^T F - I| accepted for the sex and age factors of a file
ORTHONORMAL_TOL = 1e-10

_DTYPES = {"<f8": "<f8", "|u1": "|u1", "<i8": "<i8"}

# the fit settings that the flowfield block repeats from meta.config
_FLOW_SETTINGS = ("tau", "window", "bandwidth", "transition_e0", "tail_delta",
                  "tail_blend", "seed")


def encode_array(arr):
    """Array -> JSON-safe block. Bools become u1, floats little-endian f8."""
    a = np.ascontiguousarray(arr)
    if a.dtype == np.bool_:
        a = a.astype("|u1")
    elif np.issubdtype(a.dtype, np.floating):
        a = a.astype("<f8")
    elif np.issubdtype(a.dtype, np.integer):
        a = a.astype("<i8")
    else:
        raise ArtifactError(f"cannot encode dtype {a.dtype}")
    return {"dtype": a.dtype.str,
            "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(block):
    dtype = block["dtype"]
    if dtype not in _DTYPES:
        raise ArtifactError(f"unknown array dtype {dtype!r}")
    raw = base64.b64decode(block["data"])
    a = np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(block["shape"])
    return a.copy()


def config_hash(config):
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _flow_copies(config, origin):
    """The flowfield block's copies of meta.origin and meta.config."""
    return {"origin": int(origin),
            "kernel": {"origin": float(origin), "tau": config.tau,
                       "window": config.window},
            "config": {k: getattr(config, k) for k in _FLOW_SETTINGS}}


def model_to_dict(fitted):
    model = fitted.model
    ff = fitted.flowfield
    return {
        "format": FORMAT_VERSION,
        "layout": LAYOUT_NOTE,
        "tucker": {
            "version": TUCKER_VERSION,
            "ranks": list(model.core.shape),
            "countries": list(model.countries),
            "years": [int(y) for y in np.asarray(model.years)],
            "ages": [int(a) for a in np.asarray(model.ages)],
            "sex_factor": encode_array(model.sex_factor),
            "age_factor": encode_array(model.age_factor),
            "country_factor": encode_array(model.country_factor),
            "year_factor": encode_array(model.year_factor),
            "core": encode_array(model.core),
        },
        "pca": {
            "g_bar": encode_array(fitted.pca.g_bar),
            "loadings": encode_array(fitted.pca.loadings),
            "explained_variance": encode_array(fitted.pca.explained_variance),
            "core_shape": list(fitted.pca.core_shape),
        },
        "flowfield": {
            "version": FLOWFIELD_VERSION,
            "speed": ff.speed.to_dict(),
            "trajectories": [t.to_dict() for t in ff.trajectories],
            "s1_of_e0": ff.s1_of_e0.to_dict(),
            "e0_of_s1": ff.e0_of_s1.to_dict(),
            "transition": float(ff.transition),
            **_flow_copies(fitted.config, fitted.origin),
            "countries": list(ff.countries),
            "n_components": int(ff.n_components),
            "relaxation": fitted.rates.to_dict(),
        },
        "calibration": (None if fitted.calibration is None
                        else fitted.calibration.to_dict()),
        "mask": encode_array(fitted.mask),
        "meta": {
            "origin": int(fitted.origin),
            "countries": list(model.countries),
            "config": fitted.config.to_dict(),
            "config_hash": config_hash(fitted.config),
        },
    }


def model_from_dict(doc):
    if doc.get("format") != FORMAT_VERSION:
        raise ArtifactError(f"unrecognized format {doc.get('format')!r}")
    tk = doc["tucker"]
    fl = doc["flowfield"]
    if tk.get("version") != TUCKER_VERSION:
        raise ArtifactError(f"unrecognized factor block {tk.get('version')!r}")
    if fl.get("version") != FLOWFIELD_VERSION:
        raise ArtifactError(f"unrecognized flow block {fl.get('version')!r}")
    config = FitConfig.from_dict(doc["meta"]["config"])
    if config_hash(config) != doc["meta"]["config_hash"]:
        raise ArtifactError("config hash does not match file content")
    origin = int(doc["meta"]["origin"])
    last = int(tk["years"][-1])
    # the fit's origin: its explicit setting, else the last year it kept
    want = last if config.origin is None else config.origin
    if origin != want or last > origin:
        raise ArtifactError(f"meta.origin {origin} does not match the fit "
                            f"(origin {want}, last year {last})")
    for key, want in _flow_copies(config, origin).items():
        if fl[key] != want:
            raise ArtifactError(f"flowfield.{key} {fl[key]!r} does not "
                                f"match meta ({want!r})")
    if doc["meta"]["countries"] != tk["countries"]:
        raise ArtifactError("meta.countries does not match tucker.countries")

    model = TuckerModel(
        sex_factor=decode_array(tk["sex_factor"]),
        age_factor=decode_array(tk["age_factor"]),
        country_factor=decode_array(tk["country_factor"]),
        year_factor=decode_array(tk["year_factor"]),
        core=decode_array(tk["core"]),
        countries=tuple(tk["countries"]),
        years=np.asarray(tk["years"], dtype=np.int64),
        ages=np.asarray(tk["ages"], dtype=np.int64),
    )
    # project_schedule relies on orthonormal sex and age factors
    for name in ("sex_factor", "age_factor"):
        factor = getattr(model, name)
        gap = np.abs(factor.T @ factor - np.eye(factor.shape[1])).max()
        if not gap <= ORTHONORMAL_TOL:
            raise ArtifactError(f"{name} is not orthonormal "
                                f"(max |F^T F - I| = {gap:.3g})")
    pca = CorePCA(
        g_bar=decode_array(doc["pca"]["g_bar"]),
        loadings=decode_array(doc["pca"]["loadings"]),
        explained_variance=decode_array(doc["pca"]["explained_variance"]),
        core_shape=tuple(doc["pca"]["core_shape"]),
    )
    flowfield = FlowField(
        speed=ExtendedFn.from_dict(fl["speed"]),
        trajectories=tuple(ExtendedFn.from_dict(t)
                           for t in fl["trajectories"]),
        s1_of_e0=SmoothFn.from_dict(fl["s1_of_e0"]),
        e0_of_s1=ExtendedFn.from_dict(fl["e0_of_s1"]),
        transition=float(fl["transition"]),
        countries=tuple(fl["countries"]),
        n_components=int(fl["n_components"]),
    )
    rates = RelaxationRates.from_dict(fl["relaxation"])
    calibration = (None if doc["calibration"] is None
                   else PICalibration.from_dict(doc["calibration"]))
    fitted = FittedModel(model=model, pca=pca, flowfield=flowfield,
                         rates=rates,
                         mask=decode_array(doc["mask"]).astype(bool),
                         origin=origin, config=config,
                         calibration=calibration)
    _check_sizes(fitted, tuple(tk["ranks"]))
    return fitted


def _check_sizes(fitted, ranks):
    """Raise ArtifactError where two blocks of a file disagree on a size."""
    model, pca = fitted.model, fitted.pca
    labels = {"sex_factor": len(SEXES), "age_factor": model.ages.size,
              "country_factor": len(model.countries),
              "year_factor": model.years.size}
    for name, n in labels.items():
        rows = getattr(model, name).shape[0]
        if rows != n:
            raise ArtifactError(f"{name} has {rows} rows for {n} labels")
    factor_ranks = tuple(getattr(model, name).shape[1] for name in labels)
    if not model.core.shape == factor_ranks == ranks:
        raise ArtifactError(f"core shape {model.core.shape} does not match "
                            f"ranks {ranks} and factors {factor_ranks}")
    n_core = int(np.prod(pca.core_shape))
    if (pca.core_shape != model.core.shape[:2]
            or pca.loadings.shape[1] != n_core or pca.g_bar.size != n_core):
        raise ArtifactError(f"loadings {pca.loadings.shape} do not match "
                            f"core_shape {pca.core_shape}")
    shape = (len(model.countries), model.years.size)
    if fitted.mask.shape != shape:
        raise ArtifactError(f"mask shape {fitted.mask.shape} is not "
                            f"countries x years {shape}")
    n = fitted.flowfield.n_components
    if not len(fitted.rates.alpha_s) == pca.n_components == n:
        raise ArtifactError(f"{len(fitted.rates.alpha_s)} relaxation rates "
                            f"and {pca.n_components} loadings for "
                            f"{n} components")


def save_model(fitted, path):
    """Write the canonical single-file form; identical fits, identical bytes."""
    doc = model_to_dict(fitted)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(blob)


def load_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ArtifactError("not a model file: top level is not an object")
    try:
        return model_from_dict(doc)
    except (KeyError, IndexError, TypeError, ValueError, DataError,
            TailConfigError) as exc:
        raise ArtifactError(f"malformed model file: {exc}") from exc
