"""The quick demos run start to finish against the current package.

Each demo runs in its own interpreter from an empty working directory,
so a file it writes cannot land in the checkout.  ``cross_validate.py``
is left out: it runs a full grid search and strict CV (tens of
seconds).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mortflow

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(mortflow.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["external_entry", "factorize_and_score",
                                  "flowfield_forecast"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
