"""Persistence tests: exact round trips, canonical bytes, validation."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from mortflow.artifact import (
    FORMAT_VERSION,
    config_hash,
    decode_array,
    encode_array,
    load_model,
    model_to_dict,
    save_model,
)
from mortflow.cli import main
from mortflow.data import drop_country
from mortflow.errors import (ArtifactError, ConfigError, DataError,
                             InsufficientDataError, TailConfigError)
from mortflow.evaluation import CVConfig
from mortflow.forecast import PICalibration, country_state
from mortflow.pipeline import FitConfig, fit_model
from mortflow.smoothing import SmoothFn
from mortflow.synth import SyntheticSpec, generate


@pytest.fixture(scope="module")
def world():
    return generate(SyntheticSpec(n_countries=5, n_ages=18, n_years=50,
                                  stagger=3, seed=9))


@pytest.fixture(scope="module")
def fitted(world):
    return fit_model(world.tensor, FitConfig(n_components=3))


def test_array_block_round_trip_is_exact():
    arr = np.array([[1.5, -0.0, 3e-300], [np.pi, -2.75, 1e308]])
    back = decode_array(encode_array(arr))
    np.testing.assert_array_equal(back, arr)
    assert np.signbit(back[0, 1])  # negative zero survives

    mask = np.array([[True, False], [False, True]])
    back = decode_array(encode_array(mask)).astype(bool)
    np.testing.assert_array_equal(back, mask)

    transposed = np.arange(12.0).reshape(3, 4).T  # non-contiguous input
    np.testing.assert_array_equal(decode_array(encode_array(transposed)),
                                  transposed)


def test_decoded_arrays_are_writable():
    arr = decode_array(encode_array(np.ones((2, 2))))
    arr[0, 0] = 5.0  # frombuffer alone would be read-only


def test_round_trip_field_equality(fitted, tmp_path):
    path = tmp_path / "model.json"
    save_model(fitted, path)
    loaded = load_model(path)

    np.testing.assert_array_equal(loaded.model.core, fitted.model.core)
    np.testing.assert_array_equal(loaded.model.age_factor,
                                  fitted.model.age_factor)
    assert loaded.model.countries == fitted.model.countries
    np.testing.assert_array_equal(loaded.model.years, fitted.model.years)
    np.testing.assert_array_equal(loaded.pca.g_bar, fitted.pca.g_bar)
    np.testing.assert_array_equal(loaded.pca.loadings, fitted.pca.loadings)
    assert loaded.pca.core_shape == fitted.pca.core_shape
    assert loaded.rates == fitted.rates
    assert loaded.origin == fitted.origin
    assert loaded.config == fitted.config
    assert loaded.calibration is None
    np.testing.assert_array_equal(loaded.mask, fitted.mask)

    ff_a, ff_b = fitted.flowfield, loaded.flowfield
    np.testing.assert_array_equal(ff_b.speed.base.knots, ff_a.speed.base.knots)
    np.testing.assert_array_equal(ff_b.speed.base.values,
                                  ff_a.speed.base.values)
    assert ff_b.speed.anchor == ff_a.speed.anchor
    assert ff_b.speed.slope == ff_a.speed.slope
    assert ff_b.transition == ff_a.transition
    assert len(ff_b.trajectories) == len(ff_a.trajectories)


def test_loaded_model_forecasts_identically(fitted, tmp_path):
    path = tmp_path / "model.json"
    save_model(fitted, path)
    loaded = load_model(path)
    a = fitted.forecast("S02", horizon=15)
    b = loaded.forecast("S02", horizon=15)
    np.testing.assert_array_equal(a.schedules, b.schedules)
    np.testing.assert_array_equal(a.e0_avg, b.e0_avg)
    np.testing.assert_array_equal(a.scores, b.scores)


def test_identical_fits_save_identical_bytes(tmp_path):
    world = generate(SyntheticSpec(n_countries=4, n_ages=14, n_years=40,
                                   seed=3))
    config = FitConfig(n_components=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(fit_model(world.tensor, config), p1)
    save_model(fit_model(world.tensor, config), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_calibration_round_trip(fitted, tmp_path):
    fitted.calibration = PICalibration(
        bias=SmoothFn(knots=np.array([1.0, 50.0]),
                      values=np.array([0.1, 0.4])),
        sigma1=0.25, kappa=1.1)
    path = tmp_path / "model.json"
    try:
        save_model(fitted, path)
    finally:
        calibrated = fitted.calibration
        fitted.calibration = None
    loaded = load_model(path)
    assert loaded.calibration.sigma1 == calibrated.sigma1
    assert loaded.calibration.kappa == calibrated.kappa
    np.testing.assert_array_equal(loaded.calibration.bias.knots,
                                  calibrated.bias.knots)
    result = loaded.forecast("S00", horizon=5, intervals=True)
    assert result.intervals is not None


def test_load_rejects_unknown_format(fitted, tmp_path):
    doc = model_to_dict(fitted)
    doc["format"] = "mortflow-model-v999"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="unrecognized format"):
        load_model(path)


def test_load_rejects_hash_mismatch(fitted, tmp_path):
    doc = model_to_dict(fitted)
    doc["meta"]["config"]["tau"] = 99.0  # content no longer matches the hash
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="hash"):
        load_model(path)


def test_load_rejects_config_with_a_missing_key(fitted, tmp_path):
    # origin alone may be absent; no other setting is filled in by default
    for key in fitted.config.to_dict():
        if key == "origin":
            continue
        doc = model_to_dict(fitted)
        del doc["meta"]["config"][key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match=key):
            load_model(path)


def test_load_rejects_config_with_an_unknown_key(fitted, tmp_path):
    doc = model_to_dict(fitted)
    doc["meta"]["config"]["tua"] = 99.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="tua"):
        load_model(path)


@pytest.mark.parametrize("name", ["sex_factor", "age_factor"])
def test_load_rejects_non_orthonormal_factors(fitted, tmp_path, name):
    # project_schedule is S^T z A, the least-squares core only when
    # F^T F = I
    doc = model_to_dict(fitted)
    factor = getattr(fitted.model, name)
    doc["tucker"][name] = encode_array(factor * (1.0 + 1e-9))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=f"{name} is not orthonormal"):
        load_model(path)


def test_load_rejects_non_model_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all {{{")
    with pytest.raises(ArtifactError, match="not a model file"):
        load_model(path)
    path.write_text('["a", "list"]')
    with pytest.raises(ArtifactError):
        load_model(path)
    path.write_text('{"format": "mortflow-model-v1"}')
    with pytest.raises(ArtifactError, match="malformed"):
        load_model(path)


def test_config_hash_tracks_config_content():
    a = config_hash(FitConfig())
    b = config_hash(FitConfig(tau=13.0))
    assert a != b
    assert a == config_hash(FitConfig())
    assert len(a) == 64
    # the hash of the defaults is fixed: it is what old artifacts carry
    assert a == ("335efce04f9b94015a0e31d9dc919d018de1a5cd20dd0cb7ef41d460"
                 "5ab9bd84")
    assert config_hash(FitConfig(tau=15)) == config_hash(FitConfig(tau=15.0))



# one mutation per size check: name -> (mutate(doc, fitted), message)
SIZE_MUTATIONS = {
    "factor rows": (lambda d, f: d["tucker"].update(
        country_factor=encode_array(f.model.country_factor[:-1])),
        "country_factor has"),
    "core shape": (lambda d, f: d["tucker"].update(
        core=encode_array(f.model.core[..., :-1])), "core shape"),
    "loadings": (lambda d, f: d["pca"].update(
        loadings=encode_array(f.pca.loadings[:, :-1])), "loadings"),
    "mask": (lambda d, f: d.update(mask=encode_array(f.mask[:, :-1])),
             "mask shape"),
    "alpha_s": (lambda d, f: d["flowfield"]["relaxation"]["alpha_s"].append(
        0.5), "relaxation rates"),
}


@pytest.mark.parametrize("check", sorted(SIZE_MUTATIONS))
def test_load_rejects_blocks_that_disagree_on_a_size(fitted, tmp_path, check):
    doc = model_to_dict(fitted)
    mutate, message = SIZE_MUTATIONS[check]
    mutate(doc, fitted)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=message):
        load_model(path)


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("bandwidth", 0.0), ("tail_blend", -3.0), ("max_lag", 0),
    ("transition_e0", float("nan")),
])
def test_load_rejects_an_out_of_range_config(fitted, tmp_path, key, value):
    # the hash is recomputed, so only the range check can refuse the file
    doc = model_to_dict(fitted)
    config = doc["meta"]["config"]
    config[key] = value
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    doc["meta"]["config_hash"] = hashlib.sha256(blob.encode()).hexdigest()
    _assert_load_fails(doc, key, tmp_path, cause=ConfigError)


def _assert_load_fails(doc, message, tmp_path, cause=None):
    """load_model raises ArtifactError and the CLI exits 3 on ``doc``."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match=message) as info:
        load_model(path)
    if cause is not None:
        assert isinstance(info.value.__cause__, cause)
    rc = main(["forecast", "--model", str(path), "--country",
               doc["tucker"]["countries"][0], "--out", str(tmp_path / "fc")])
    assert rc == 3


def _move_origin(doc, year):
    """Set meta.origin and its flowfield copies to ``year`` together."""
    doc["meta"]["origin"] = year
    doc["flowfield"]["origin"] = year
    doc["flowfield"]["kernel"]["origin"] = float(year)


# the blocks that repeat another block: name -> (mutate(doc), message)
COPY_MUTATIONS = {
    "flowfield.config": (lambda d: d["flowfield"]["config"].update(tau=30.0),
                         "flowfield.config"),
    "flowfield.kernel": (lambda d: d["flowfield"]["kernel"].update(
        origin=1800.0), "flowfield.kernel"),
    "flowfield.origin": (lambda d: d["flowfield"].update(origin=1800),
                         "flowfield.origin"),
    "meta.countries": (lambda d: d["meta"]["countries"].reverse(),
                       "meta.countries"),
    # meta.origin with all its copies: checked against the tucker years
    "meta.origin": (lambda d: _move_origin(d, 1800), "meta.origin"),
}


@pytest.mark.parametrize("copy", sorted(COPY_MUTATIONS))
def test_load_rejects_copies_that_disagree_with_their_source(fitted, tmp_path,
                                                             copy):
    doc = model_to_dict(fitted)
    mutate, message = COPY_MUTATIONS[copy]
    mutate(doc)
    _assert_load_fails(doc, message, tmp_path)


def test_load_rejects_a_nan_knot(fitted, tmp_path):
    doc = model_to_dict(fitted)
    doc["flowfield"]["speed"]["base"]["knots"][1] = float("nan")
    _assert_load_fails(doc, "knots must be finite", tmp_path, cause=DataError)


def test_load_rejects_a_trajectory_without_a_blend(fitted, tmp_path):
    doc = model_to_dict(fitted)
    doc["flowfield"]["trajectories"][0]["blend_width"] = 0.0
    _assert_load_fails(doc, "blend width", tmp_path, cause=TailConfigError)


def _explicit_origin_doc(tensor, origin):
    config = CVConfig(fit=FitConfig(n_components=3)).fit_config(origin)
    return model_to_dict(fit_model(tensor, config, clip_ranks=True))


def test_explicit_origins_load(world, tmp_path):
    years = world.tensor.years
    # a strict-LOCO refit: one country out, the origin inside the years
    training = drop_country(world.tensor, world.tensor.countries[2])
    for tensor, origin in ((training, int(years[30])),
                           (world.tensor, int(years[-1]) + 3)):
        path = tmp_path / f"m{origin}.json"
        path.write_text(json.dumps(_explicit_origin_doc(tensor, origin)))
        loaded = load_model(path)
        assert loaded.origin == loaded.config.origin == origin
        assert loaded.model.years[-1] == min(origin, years[-1])


@pytest.mark.parametrize("move", ["earlier", "later"])
def test_load_rejects_an_origin_unlike_the_fit(world, fitted, tmp_path,
                                               move):
    last = int(fitted.model.years[-1])
    # the origin defaults to the last year: meta.origin must equal it
    doc = model_to_dict(fitted)
    _move_origin(doc, last - 1 if move == "earlier" else last + 1)
    _assert_load_fails(doc, "meta.origin", tmp_path)
    # an explicit origin must equal meta.origin and not precede the years
    doc = _explicit_origin_doc(world.tensor, last)
    if move == "earlier":
        # consistent config, hash and copies, yet the years run past it
        doc["meta"]["config"]["origin"] = last - 1
        doc["meta"]["config_hash"] = config_hash(
            FitConfig.from_dict(doc["meta"]["config"]))
        _move_origin(doc, last - 1)
    else:
        _move_origin(doc, last + 1)
    _assert_load_fails(doc, "meta.origin", tmp_path)


def _state_bytes(state):
    return (state.scores.tobytes(), float(state.velocity).hex(),
            state.jumpoff.tobytes(), state.origin_year)


def _states(fitted_model, state_of):
    """Every in-panel state at several origins; errors by their type."""
    years = fitted_model.model.years
    out = {}
    for country in fitted_model.model.countries:
        for origin_year in (None, int(years[-4]), int(years[years.size // 2]),
                            int(years[3])):
            try:
                out[country, origin_year] = _state_bytes(
                    state_of(country, origin_year))
            except InsufficientDataError as exc:
                out[country, origin_year] = type(exc)
    return out


def test_states_from_the_derived_grid_equal_rebuilt_states(fitted, tmp_path):
    path = tmp_path / "model.json"
    save_model(fitted, path)
    loaded = load_model(path)
    assert loaded._grid is None  # built on first use, not at load
    # every state rebuilding the whole score grid, as country_state does
    # when it is not handed one
    want = _states(fitted, lambda country, origin_year: country_state(
        fitted.model, fitted.pca, fitted.mask, country,
        origin_year=origin_year))
    assert any(v is InsufficientDataError for v in want.values())
    assert _states(fitted, fitted.state) == want
    assert _states(loaded, loaded.state) == want
    assert loaded._grid is not None


def test_derived_grid_is_never_saved(fitted, tmp_path):
    save_model(fitted, tmp_path / "fitted.json")
    untouched = load_model(tmp_path / "fitted.json")
    save_model(untouched, tmp_path / "untouched.json")
    touched = load_model(tmp_path / "fitted.json")
    touched.state(touched.model.countries[0])
    save_model(touched, tmp_path / "touched.json")
    blob = (tmp_path / "fitted.json").read_bytes()
    assert (tmp_path / "untouched.json").read_bytes() == blob
    assert (tmp_path / "touched.json").read_bytes() == blob
    assert "_grid" not in repr(touched)


def test_replace_rederives_the_grid(fitted):
    country = fitted.model.countries[1]
    before = fitted.state(country)
    model = replace(fitted.model,
                    year_factor=fitted.model.year_factor[::-1].copy())
    other = replace(fitted, model=model)
    got = other.state(country)
    want = country_state(model, fitted.pca, fitted.mask, country)
    assert _state_bytes(got) == _state_bytes(want)
    assert not np.array_equal(got.scores, before.scores)
