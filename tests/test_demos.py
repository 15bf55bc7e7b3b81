"""The quick demos run end to end against the installed sources.

Demos 01 and 02 exercise the public fit objects (intercepts, component
curves, `predict`, `predict_mean`, `derivative_curve`) in about a second
each.  Demo 03 runs a small Monte Carlo study in a few seconds; it writes
`study_demo.csv` into the working directory, which here is a temporary
one.  Demo 05 fits five covariates in about a second.  Demo 04, a study
of Bernoulli local linear fits, takes seconds to minutes, so it is left
to manual runs.  Each runs with RuntimeWarning as an error, as the test
suite does, so an overflow or invalid value in a fast path fails it.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_fit_one_covariate.py",
                                  "02_additive_decomposition.py",
                                  "03_monte_carlo_study.py",
                                  "05_many_covariates.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
