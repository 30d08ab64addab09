"""The output contract: seed-7 demo outputs against tests/golden/seed7.json.

Every number is compared at RTOL relative, which catches any real change
to the method yet leaves room for BLAS and SIMD rounding on another
machine.  Values within ATOL / RTOL of zero (forecast errors, log-mx
errors) are held to ATOL absolute instead.  Strings and integers must
match exactly.  ``tests/golden/regen.py`` writes the file and computes
the same values here; regenerate only when outputs move on purpose.
"""

import importlib.util
import json
import math
from pathlib import Path

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


def test_seed7_outputs_match_golden(tmp_path):
    expected = json.loads((GOLDEN_DIR / "seed7.json").read_text())
    expected_sha = expected.pop("artifact_sha256")
    actual, sha256 = _load_regen().compute(tmp_path)
    # byte identity is machine-bound; the acceptance suite asserts it
    # within one machine, so the hash is only reported here
    print(f"artifact SHA-256 {sha256} (golden file: {expected_sha})")
    # JSON has no tuples: compare the values as the file stores them
    actual = json.loads(json.dumps(actual))
    problems = _mismatches(actual, expected)
    assert not problems, "\n".join(problems[:20])
