"""The runtime boundary: numpy is the one dependency of ``import mortflow``.

The package's own expit/logit replace scipy.special's; they must agree
with scipy to rounding and keep its silent results at the edges.  Heavy
imports that only some commands need (the process pool of a parallel
CV run) load on first use.
"""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import mortflow
from mortflow import expit, logit

SRC = Path(mortflow.__file__).resolve().parent.parent
EDGES = np.array([np.inf, -np.inf, np.nan, 800.0, -800.0, 0.0, 1.0, 0.5])


def _run_fresh(code):
    """Run code in a fresh interpreter that imports mortflow from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("MORTFLOW_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_and_the_process_pool_unloaded():
    out = _run_fresh("""
        import sys
        import mortflow
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] == "scipy"
                     or m == "concurrent.futures"))
    """)
    assert out.strip() == "[]"


def test_parallel_strict_cv_loads_the_pool_and_matches_serial():
    out = _run_fresh("""
        import sys
        import numpy as np
        from mortflow import CVConfig, SyntheticSpec, generate, run_loco_cv
        world = generate(SyntheticSpec(n_countries=3, n_ages=12, n_years=40,
                                       stagger=3, seed=5))
        config = CVConfig(horizon=10, origin_spacing=10, seed=5)
        serial = run_loco_cv(world.tensor, config)
        assert "concurrent.futures" not in sys.modules
        parallel = run_loco_cv(world.tensor, CVConfig(
            horizon=10, origin_spacing=10, seed=5, jobs=2))
        assert "concurrent.futures" in sys.modules
        assert len(serial) == len(parallel) > 0
        for a, b in zip(serial, parallel):
            assert (a.country, a.origin, a.horizon, a.e0_hat, a.e0_obs,
                    a.err, a.excluded) == (b.country, b.origin, b.horizon,
                                           b.e0_hat, b.e0_obs, b.err,
                                           b.excluded)
            assert np.array_equal(a.log_mx_err, b.log_mx_err,
                                  equal_nan=True)
            assert np.array_equal(a.lx_obs, b.lx_obs)
        print(len(serial))
    """)
    assert int(out) > 0


def test_expit_and_logit_match_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(-40.0, 40.0, 20_000),
                        rng.normal(0.0, 3.0, 20_000)])
    p = np.concatenate([rng.uniform(0.0, 1.0, 20_000),
                        10.0 ** rng.uniform(-300.0, 0.0, 20_000),
                        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 20_000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(expit(x), special.expit(x),
                                   rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(logit(p), special.logit(p),
                                   rtol=1e-15, atol=1e-15)
        np.testing.assert_array_equal(expit(EDGES), special.expit(EDGES))
        np.testing.assert_array_equal(logit(EDGES), special.logit(EDGES))
        for v in EDGES:
            np.testing.assert_array_equal(expit(v), special.expit(v))
            np.testing.assert_array_equal(logit(v), special.logit(v))

