"""The output contract: golden worlds against the files in tests/golden.

Every number is compared at RTOL relative, which catches any real change
to the method yet leaves room for BLAS and SIMD rounding on another
machine.  Values within ATOL / RTOL of zero (forecast errors, log-mx
errors) are held to ATOL absolute instead.  Strings and integers must
match exactly.  ``tests/golden/regen.py`` writes the files and computes
the same values here; regenerate only when outputs move on purpose.
"""

import importlib.util
import json
import math
from pathlib import Path

from mortflow import load_model, save_model
from mortflow.pipeline import default_ranks

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-10
ATOL = 1e-12


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "golden_regen", GOLDEN_DIR / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatches(actual, expected, where="golden"):
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{where}: keys differ"]
        return [m for key in expected
                for m in _mismatches(actual[key], expected[key],
                                     f"{where}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in _mismatches(a, e, f"{where}[{i}]")]
    if isinstance(expected, float):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(actual - expected) <= max(RTOL * abs(expected), ATOL):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{where}: {actual!r} != "
                                          f"{expected!r}"]


def _check(name, tmp_path, spec, cv):
    expected = json.loads((GOLDEN_DIR / name).read_text())
    expected_sha = expected.pop("artifact_sha256")
    actual, sha256 = _load_regen().compute(tmp_path, spec, cv)
    # byte identity is machine-bound; the acceptance suite asserts it
    # within one machine, so the hash is only reported here
    print(f"artifact SHA-256 {sha256} (golden file: {expected_sha})")
    # JSON has no tuples: compare the values as the file stores them
    actual = json.loads(json.dumps(actual))
    problems = _mismatches(actual, expected)
    assert not problems, "\n".join(problems[:20])


def test_seed7_outputs_match_golden(tmp_path):
    regen = _load_regen()
    _check("seed7.json", tmp_path, regen.SPEC, cv=True)


def test_wide60_outputs_match_golden(tmp_path):
    spec = _load_regen().WIDE_SPEC
    # the production age rank 42 truncates this world's 60-age mode
    assert default_ranks((2, spec["n_ages"], spec["n_countries"],
                          spec["n_years"])) == (2, 42, 8, 80)
    _check("wide60.json", tmp_path, spec, cv=False)


def test_small_artifact_loads_resaves_and_forecasts(tmp_path):
    # a file saved by an earlier version: same bytes back, same forecast
    regen = _load_regen()
    save_model(load_model(regen.SMALL_MODEL), tmp_path / "resaved.json")
    assert ((tmp_path / "resaved.json").read_bytes()
            == regen.SMALL_MODEL.read_bytes())
    expected = json.loads(regen.SMALL_FORECAST.read_text())
    actual = json.loads(json.dumps(regen.small_forecast(regen.SMALL_MODEL)))
    problems = _mismatches(actual, expected)
    assert not problems, "\n".join(problems[:20])
